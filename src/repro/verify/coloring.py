"""Oracles for colorings, list-colorings, palettes and clique witnesses.

These wrap the predicates of :mod:`repro.coloring.verification` (which stay
the fast in-pipeline checks) into the :class:`~repro.verify.oracle.Oracle`
protocol: instead of raising on the first violation, they sweep the whole
witness and report *every* monochromatic edge, missing vertex, out-of-list
color or non-adjacent clique pair, capped for readability.

A batched engine result aligned with the checked graph's CSR is accepted
on its color array (completeness, properness and the palette budget are
one array operation each, inside the predicates); the per-vertex and
per-edge scans run only once a check has failed, so the diagnostics never
change.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from repro.coloring.assignment import Color, ListAssignment
from repro.coloring.verification import (
    _listed_count,
    is_complete,
    is_proper_coloring,
    number_of_colors,
)
from repro.graphs.graph import Vertex
from repro.verify.oracle import Verdict, collector

__all__ = [
    "ProperColoringOracle",
    "ListColoringOracle",
    "PaletteBudgetOracle",
    "CliqueWitnessOracle",
    "DichotomyOracle",
]


class ProperColoringOracle:
    """Completeness + properness of a coloring (Theorem 1.3's output shape)."""

    name = "proper-coloring"

    def check(
        self,
        *,
        graph,
        coloring: Mapping[Vertex, Color],
        require_complete: bool = True,
    ) -> Verdict:
        out = collector(self.name)
        if require_complete:
            # the per-vertex scan only runs to *name* the uncolored vertices
            if is_complete(graph, coloring):
                out.saw(graph.number_of_vertices())
            else:
                for v in graph:
                    out.saw()
                    if v not in coloring:
                        out.fail(f"vertex {v!r} is uncolored")
        # fast accept: one vectorized pass when the coloring is proper; the
        # edge scan below only runs to *name* the offending edges
        if not out.failures and is_proper_coloring(graph, coloring):
            out.saw(graph.number_of_edges())
            return out.verdict()
        for u, v in graph.edges():
            out.saw()
            if u in coloring and v in coloring and coloring[u] == coloring[v]:
                out.fail(
                    f"edge ({u!r}, {v!r}) is monochromatic "
                    f"with color {coloring[u]!r}"
                )
        return out.verdict()


class ListColoringOracle:
    """Proper coloring that additionally respects a list assignment."""

    name = "list-coloring"

    def check(
        self,
        *,
        graph,
        coloring: Mapping[Vertex, Color],
        lists: ListAssignment,
        require_complete: bool = True,
    ) -> Verdict:
        out = collector(self.name)
        proper = ProperColoringOracle().check(
            graph=graph, coloring=coloring, require_complete=require_complete
        )
        out.saw(proper.checked)
        for diagnostic in proper.diagnostics:
            out.fail(diagnostic)
        out.failures += max(0, proper.failures - len(proper.diagnostics))
        # one membership test on the packed lists accepts and counts; the
        # per-vertex scan only runs to *name* the out-of-list vertices
        listed = _listed_count(coloring, lists)
        if listed is not None:
            out.saw(listed)
            return out.verdict()
        for v, color in coloring.items():
            if v not in lists:
                continue
            out.saw()
            if color not in lists[v]:
                out.fail(
                    f"vertex {v!r} uses color {color!r} outside its list "
                    f"{sorted(map(repr, lists[v]))}"
                )
        return out.verdict()


class PaletteBudgetOracle:
    """The number of distinct colors stays within the paper's budget."""

    name = "palette-budget"

    def check(
        self, *, coloring: Mapping[Vertex, Color], budget: int
    ) -> Verdict:
        out = collector(self.name)
        out.saw()
        used = number_of_colors(coloring)
        if used > budget:
            out.fail(
                f"coloring uses {used} distinct colors, budget is {budget} "
                f"(palette {sorted(map(repr, set(coloring.values())))[:12]})"
            )
        return out.verdict()


class CliqueWitnessOracle:
    """A claimed ``(d+1)``-clique really is one: size, membership, adjacency."""

    name = "clique-witness"

    def check(self, *, graph, clique: Iterable[Vertex], size: int) -> Verdict:
        out = collector(self.name)
        witness = list(clique)
        out.saw()
        if len(set(witness)) != len(witness):
            out.fail(f"clique witness repeats vertices: {witness!r}")
        if len(witness) != size:
            out.fail(
                f"clique witness has {len(witness)} vertices, expected {size}"
            )
        for v in witness:
            out.saw()
            if v not in graph:
                out.fail(f"clique vertex {v!r} is not in the graph")
        members = [v for v in witness if v in graph]
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                out.saw()
                if u != v and not graph.has_edge(u, v):
                    out.fail(
                        f"clique pair ({u!r}, {v!r}) is not an edge of the graph"
                    )
        return out.verdict()


class DichotomyOracle:
    """Theorem 1.3's promise: exactly one of a coloring or a clique, valid.

    Accepts the :class:`~repro.core.sparse_coloring.SparseColoringResult`
    of one driver run: either the coloring is a complete, proper,
    list-respecting ``d``-list-coloring, or the clique is a genuine
    ``(d+1)``-clique (in which case no ``d``-coloring exists at all).
    """

    name = "theorem13-dichotomy"

    def check(
        self,
        *,
        graph,
        result: Any,
        d: int,
        lists: ListAssignment | None = None,
    ) -> Verdict:
        out = collector(self.name)
        out.saw()
        has_coloring = result.coloring is not None
        has_clique = result.clique is not None
        if has_coloring == has_clique:
            out.fail(
                "result must carry exactly one of coloring/clique, got "
                f"coloring={'set' if has_coloring else 'None'} "
                f"clique={'set' if has_clique else 'None'}"
            )
            return out.verdict()
        if has_clique:
            sub = CliqueWitnessOracle().check(
                graph=graph, clique=result.clique, size=d + 1
            )
        elif lists is not None:
            sub = ListColoringOracle().check(
                graph=graph, coloring=result.coloring, lists=lists
            )
        else:
            sub = ProperColoringOracle().check(
                graph=graph, coloring=result.coloring
            )
        out.saw(sub.checked)
        for diagnostic in sub.diagnostics:
            out.fail(f"[{sub.oracle}] {diagnostic}")
        out.failures += max(0, sub.failures - len(sub.diagnostics))
        if has_coloring and lists is None:
            # only plain d-coloring bounds the distinct colors by d; with
            # per-vertex lists the union of lists may exceed d colors even
            # though every vertex respects its own d-list
            budget = PaletteBudgetOracle().check(
                coloring=result.coloring, budget=d
            )
            out.saw(budget.checked)
            for diagnostic in budget.diagnostics:
                out.fail(f"[{budget.oracle}] {diagnostic}")
        return out.verdict()
