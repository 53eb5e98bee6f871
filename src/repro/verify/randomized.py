"""Oracles for the randomized track (``repro.distributed.randomized``).

Two witnesses, two auditors:

* :class:`RandomizedRoundsOracle` — the per-round conflict-set trace of
  a randomized (Δ+1)-coloring run (the uncolored-frontier counts) must
  be legal — starts at ``n``, never grows, drains to zero — and the
  round total must sit inside the O(log n) concentration envelope
  (``ENVELOPES["randomized"]``, calibrated like the deterministic
  envelopes of :mod:`repro.verify.rounds`).

* :class:`ResampleLogOracle` — the Moser–Tardos record log is an
  *entropy-compression witness*: together with the seed it determines
  the whole run, so the auditor replays the resampler bit-for-bit and
  rejects any doctored log — an edited violated set, a truncated or
  padded step sequence, a swapped final coloring, a wrong seed.  The
  final coloring is additionally checked to be a proper list coloring
  on its own merits (a forged-but-consistent replay cannot smuggle in
  a monochromatic edge).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.verify.oracle import Verdict, collector
from repro.verify.rounds import round_envelope

__all__ = ["RandomizedRoundsOracle", "ResampleLogOracle"]


class RandomizedRoundsOracle:
    """Concentration envelope + frontier legality for randomized runs."""

    name = "randomized-rounds"

    def check(
        self,
        *,
        n: int,
        rounds: int,
        frontier: Iterable[int] | None = None,
        kind: str = "randomized",
    ) -> Verdict:
        out = collector(f"{self.name}[{kind}]")
        out.saw()
        budget = round_envelope(kind, n=n)
        if rounds > budget:
            out.fail(
                f"{rounds} rounds exceed the O(log n) envelope "
                f"{budget} at n={n}"
            )
        if frontier is not None:
            trace = [int(x) for x in frontier]
            if len(trace) != rounds:
                out.fail(
                    f"frontier trace has {len(trace)} entries "
                    f"for {rounds} rounds"
                )
            if trace and trace[0] != n:
                out.fail(
                    f"frontier starts at {trace[0]}, expected all "
                    f"n={n} vertices uncolored"
                )
            for r in range(1, len(trace)):
                if trace[r] > trace[r - 1]:
                    out.fail(
                        f"conflict set grew at round {r + 1}: "
                        f"{trace[r - 1]} -> {trace[r]}"
                    )
                    break
            if trace and trace[-1] != 0:
                out.fail(
                    f"frontier never drained: {trace[-1]} vertices "
                    "still uncolored at the last round"
                )
        return out.verdict()


class ResampleLogOracle:
    """Replay a Moser–Tardos record log and reject any doctored witness."""

    name = "resample-log"

    def check(
        self,
        *,
        graph,
        lists,
        seed: int,
        log,
        coloring: Mapping[Any, Any],
    ) -> Verdict:
        from repro.coloring.palette import FlatListAssignment
        from repro.distributed.randomized import (
            ResampleLimitError,
            moser_tardos_list_coloring,
        )

        out = collector(self.name)
        out.saw()
        entries = list(log)
        try:
            replay = moser_tardos_list_coloring(
                graph, lists, seed=int(seed), max_steps=len(entries) + 8,
            )
        except ResampleLimitError:
            out.fail(
                f"replay does not converge within {len(entries)} recorded "
                "steps (+8 slack): the log is not this run's record"
            )
            return out.verdict()
        if len(replay.log) != len(entries):
            out.fail(
                f"log length {len(entries)} != replayed {len(replay.log)}"
            )
        for recorded, replayed in zip(entries, replay.log):
            r_step = getattr(recorded, "step", None)
            r_vertices = tuple(getattr(recorded, "vertices", ()))
            if r_step != replayed.step or r_vertices != replayed.vertices:
                out.fail(
                    f"step {replayed.step}: recorded violated set "
                    f"{r_vertices!r} != replayed {replayed.vertices!r}"
                )
                break
        if dict(coloring) != replay.coloring:
            out.fail("final coloring does not match the replayed run")
        # independent legality: proper + from-list, replay aside
        flat = (
            lists if isinstance(lists, FlatListAssignment)
            else FlatListAssignment(
                dict(lists.as_dict() if hasattr(lists, "as_dict") else lists)
            )
        )
        for v in graph.vertices():
            if v not in coloring:
                out.fail(f"vertex {v!r} is uncolored")
                break
            if coloring[v] not in flat.get(v, frozenset()):
                out.fail(
                    f"vertex {v!r} wears {coloring[v]!r}, not in its list"
                )
                break
        for u in graph.vertices():
            clash = next(
                (w for w in graph.neighbors(u) if coloring.get(w) == coloring.get(u)),
                None,
            )
            if clash is not None:
                out.fail(
                    f"monochromatic edge ({u!r}, {clash!r}) wears "
                    f"{coloring.get(u)!r}"
                )
                break
        return out.verdict()
