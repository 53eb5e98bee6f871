"""Parity oracles: two substrates must produce *identical* results.

The repo's performance story rests on exact parity promises — the
flat-array engine equals the seed engine, batched node programs equal
their per-node twins, the fault plane's flat backend equals its dict
backend.
These oracles centralize the comparisons that used to live as ad-hoc
assert blocks in the parity test suites and scenario checks, reporting
every diverging field instead of stopping at the first.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from typing import Any

from repro.verify.oracle import Verdict, collector

__all__ = [
    "coloring_digest",
    "SimulationParityOracle",
    "ColoringParityOracle",
    "assert_simulation_parity",
]


def coloring_digest(coloring: Mapping[Any, Any]) -> str:
    """Order-independent SHA-256 digest of a coloring (parity comparisons).

    The shared fingerprint used by the ``coloring`` scenario rows, the
    golden corpus tests and the artifact parity oracle: two substrates
    produced the same coloring iff their digests match.
    """
    h = hashlib.sha256()
    for pair in sorted(f"{v!r}\x1f{c!r}" for v, c in coloring.items()):
        h.update(pair.encode())
        h.update(b"\x1e")
    return h.hexdigest()[:16]


class SimulationParityOracle:
    """Two :class:`~repro.local.simulator.SimulationResult`\\ s are identical."""

    name = "simulation-parity"

    def check(self, *, result_a, result_b, labels=("a", "b")) -> Verdict:
        out = collector(self.name)
        la, lb = labels
        for field in ("rounds", "messages_sent", "finished", "per_round_messages"):
            out.saw()
            va, vb = getattr(result_a, field), getattr(result_b, field)
            if va != vb:
                out.fail(f"{field} diverge: {la}={va!r} vs {lb}={vb!r}")
        out.saw()
        if result_a.outputs != result_b.outputs:
            diffs = [
                v for v in result_a.outputs
                if result_a.outputs[v] != result_b.outputs.get(v)
            ]
            diffs += [v for v in result_b.outputs if v not in result_a.outputs]
            for v in diffs[:5]:
                out.fail(
                    f"output of {v!r} diverges: {la}={result_a.outputs.get(v)!r} "
                    f"vs {lb}={result_b.outputs.get(v)!r}"
                )
            if len(diffs) > 5:
                out.failures += len(diffs) - 5
        return out.verdict()


class ColoringParityOracle:
    """Two colorings (and optional round totals) are bit-identical."""

    name = "coloring-parity"

    def check(
        self,
        *,
        coloring_a: Mapping[Any, Any],
        coloring_b: Mapping[Any, Any],
        rounds_a: int | None = None,
        rounds_b: int | None = None,
        labels=("a", "b"),
    ) -> Verdict:
        out = collector(self.name)
        la, lb = labels
        out.saw()
        if coloring_digest(coloring_a) != coloring_digest(coloring_b):
            diffs = [
                v for v in coloring_a if coloring_a[v] != coloring_b.get(v)
            ]
            diffs += [v for v in coloring_b if v not in coloring_a]
            for v in diffs[:5]:
                out.fail(
                    f"color of {v!r} diverges: {la}={coloring_a.get(v)!r} "
                    f"vs {lb}={coloring_b.get(v)!r}"
                )
            if len(diffs) > 5:
                out.failures += len(diffs) - 5
        if rounds_a is not None or rounds_b is not None:
            out.saw()
            if rounds_a != rounds_b:
                out.fail(f"round totals diverge: {la}={rounds_a} vs {lb}={rounds_b}")
        return out.verdict()


def assert_simulation_parity(result_a, result_b, labels=("a", "b")) -> None:
    """Raise :class:`~repro.errors.VerificationError` unless results match."""
    SimulationParityOracle().check(
        result_a=result_a, result_b=result_b, labels=labels
    ).raise_if_failed()
