"""Recovery oracles: legality after perturbation, measured and contained.

The witness is a :class:`~repro.faults.engine.StabilizationTrace` — a
*replayable* ledger: initial coloring + initial edges, then per round
the applied fault events and the (vertex, new color) deltas.  That
redundancy is the point: the oracles re-derive every per-round conflict
count and legality flag from the deltas alone and compare them against
what the run recorded, so a log that hides an illegal intermediate
coloring (or smuggles in an unrecorded recolor, or applies an edge event
that names an unknown vertex or a loop) is rejected — the mutation tests
pin this down.

The replay runs on arrays indexed by label position, whatever the labels
are: the coloring is an ``int64`` array, the edge set a copy of the
trace's :class:`~repro.faults.edgeset.EdgeSet` of index-pair keys, and a
round's conflict recount is one gather-compare over the endpoint arrays.
Containment distances come from one sweep over the CSR of the union
topology (the initial keys plus the applied inserts) for all faults at
once: each level is one gather and one ``np.minimum.reduceat`` of the
earliest fault round within reach, so a run costs O(n + m) per level,
however many faults it applied.

Three consumers:

:class:`RecoveryOracle`
    Replays the trace; asserts the recorded conflict counts, legality
    flags, final color registers (one array compare with the replay's,
    naming the differing vertices only on a mismatch) and quiescence
    claim are all consistent, and that a quiescent run ends in a *legal*
    palette coloring.
:class:`ContainmentOracle`
    The dynamic extension of the PR-5 locality auditor: information
    travels one hop per round, so a vertex recoloring at round ``r``
    must lie within distance ``r - p + 1`` of some perturbation applied
    at round ``p <= r``.  Distances are taken on the union topology
    (initial plus all inserted edges) — a supergraph only shortens
    distances, so the check never produces false alarms.
:func:`recovery_metrics`
    The scenario-facing measurement: rounds-to-recovery (rounds from
    the last applied fault until legality holds for good), recolored
    vertex count, containment radius, peak conflicts — the columns of
    ``BENCH_dynamic.json``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.verify.oracle import Verdict, collector

__all__ = [
    "RecoveryOracle",
    "ContainmentOracle",
    "recovery_metrics",
    "measure_containment",
    "rounds_to_recovery",
]


# ---------------------------------------------------------------------------
# replay helpers
# ---------------------------------------------------------------------------


_EDGE_KINDS = ("edge-insert", "edge-delete")


def _edge_events(index, record):
    """Each applied edge event of ``record`` and its index pair, or None
    when it names an unknown vertex or a loop."""
    for fault in record.faults:
        if fault.applied and fault.kind in _EDGE_KINDS:
            ends = fault.vertices
            i, j = (index.get(v) for v in ends) if len(ends) == 2 else (None, None)
            yield fault, None if i is None or j is None or i == j else (i, j)


def _bad_edge_events(index, record) -> list[str]:
    return [
        f"round {record.round}: applied {fault.kind} {fault.vertices!r} "
        "names an unknown vertex or a loop"
        for fault, pair in _edge_events(index, record)
        if pair is None
    ]


class _Replay:
    """Steps a trace forward round by round, re-deriving legality.

    The edge set starts as a copy of the trace's; an applied edge event
    inserts or deletes one edge, and one that names no edge of the graph
    changes nothing (:func:`_bad_edge_events` reports it).
    """

    def __init__(self, trace):
        self.index = trace.index
        self.edges = trace.initial_edges.copy()
        self.lo, self.hi = self.edges.pairs()
        self.colors = np.array(trace.initial_colors, dtype=np.int64)
        self.budget = trace.budget

    def apply(self, record) -> tuple[int, bool]:
        """Apply one record's faults + deltas; return (conflicts, legal)."""
        edges, edited = self.edges, False
        for fault, pair in _edge_events(self.index, record):
            if pair is not None:
                edit = edges.insert if fault.kind == "edge-insert" else edges.delete
                edited |= edit(*pair)
        if edited:
            self.lo, self.hi = edges.pairs()
        for vertex, color in record.changes:
            self.colors[self.index[vertex]] = color
        colors = self.colors
        conflicts = int(np.count_nonzero(colors[self.lo] == colors[self.hi]))
        legal = conflicts == 0 and bool(
            ((colors >= 1) & (colors <= self.budget)).all()
        )
        return conflicts, legal


# ---------------------------------------------------------------------------
# RecoveryOracle
# ---------------------------------------------------------------------------


class RecoveryOracle:
    """Replays a StabilizationTrace and audits its every recorded claim."""

    name = "recovery"

    def check(self, **subject: Any) -> Verdict:
        trace = subject["trace"]
        out = collector(self.name)
        replay = _Replay(trace)
        known = replay.index
        expected_round = 0
        for record in trace.records:
            expected_round += 1
            out.saw()
            if record.round != expected_round:
                out.fail(
                    f"round numbering broken: expected {expected_round}, "
                    f"record says {record.round}"
                )
            bad = [v for v, _c in record.changes if v not in known]
            if bad:
                out.fail(
                    f"round {record.round}: changes name unknown "
                    f"vertices {sorted(map(repr, bad))[:4]}"
                )
                continue
            for failure in _bad_edge_events(known, record):
                out.fail(failure)
            conflicts, legal = replay.apply(record)
            if conflicts != record.conflicts:
                out.fail(
                    f"round {record.round}: recorded {record.conflicts} "
                    f"conflicting edge(s), replay finds {conflicts}"
                )
            if legal != record.legal:
                out.fail(
                    f"round {record.round}: recorded legal={record.legal}, "
                    f"replay says {legal} — the log misstates an "
                    "intermediate coloring"
                )
        out.saw()
        final, replayed = trace.final_colors, replay.colors
        if np.shape(final) != replayed.shape:
            out.fail(
                f"final coloring holds {np.size(final)} register(s) for "
                f"{replayed.size} vertices"
            )
        elif not np.array_equal(final, replayed):
            diff = [trace.labels[i] for i in np.flatnonzero(final != replayed)]
            out.fail(
                f"final coloring disagrees with the replayed deltas on "
                f"{len(diff)} vertex(es), e.g. {sorted(map(repr, diff))[:4]}"
            )
        if trace.quiescent:
            out.saw()
            if trace.records and (
                trace.records[-1].changes
                or any(f.applied for f in trace.records[-1].faults)
            ):
                out.fail(
                    "quiescent=True but the final round still changed "
                    "state or applied faults"
                )
            out.saw()
            if trace.records and not trace.records[-1].legal:
                out.fail(
                    "quiescent=True but the final coloring is not a legal "
                    "palette coloring — the protocol stalled in an "
                    "illegitimate state"
                )
        return out.verdict()


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------


def measure_containment(trace) -> tuple[int, list[str]]:
    """(containment radius, violations) of a trace's recolor pattern.

    Every (vertex, round) recolor must be reachable from some applied
    perturbation: distance at most ``round - p + 1`` from a fault
    applied at round ``p``.  (A fault applied before round ``p``'s sends
    is broadcast in round ``p`` and received the same round — the
    synchronous engine delivers within the round — so distance-1
    vertices may already react at round ``p``; each further hop costs a
    round.)  The radius is the largest seed distance any recolor
    attained — how far the damage spread before the protocol contained
    it.  An applied edge event that names an unknown vertex or a loop is
    a violation too.

    Distances come from one sweep over the union topology for all faults
    at once.  ``earliest[v]`` holds the earliest round of an applied
    fault within the current depth ``d`` of ``v``; each level lowers it
    to its neighbours' minimum.  A recolor ``(r, v)`` is placed at the
    first depth where ``earliest[v] <= r + 1 - max(d, 1)``: the fault
    read there lies at some ``d' <= d`` and is admissible at ``d'``, so
    the first such depth is the smallest admissible distance.
    """
    index = trace.index
    malformed = [f for record in trace.records for f in _bad_edge_events(index, record)]
    recolors = [
        (record.round, vertex)
        for record in trace.records
        for vertex, _color in record.changes
    ]
    if not recolors:
        return 0, malformed
    rounds = np.fromiter((r for r, _v in recolors), dtype=np.int64, count=len(recolors))
    # an unknown label gets index -1, the cell past the last vertex below,
    # which no level lowers: it lies outside every cone
    positions = np.fromiter(
        (index.get(v, -1) for _r, v in recolors), dtype=np.int64, count=len(recolors)
    )
    n = len(trace.labels)
    applied = trace.applied_events()
    last_round = int(rounds.max())
    seeds = [
        (fault.round, index[v])
        for fault in applied
        if fault.round <= last_round
        for v in fault.vertices
        if v in index
    ]
    # the smallest admissible seed distance per recolor (-1: none)
    best = np.full(len(recolors), -1, dtype=np.int64)
    # int64 max: no fault within reach
    earliest = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    if seeds:
        seed_rounds, seed_vertices = np.array(seeds, dtype=np.int64).T
        np.minimum.at(earliest, seed_vertices, seed_rounds)
        union = trace.initial_edges.copy()
        for record in trace.records:
            for fault, pair in _edge_events(index, record):
                if pair is not None and fault.kind == "edge-insert":
                    union.insert(*pair)
        offsets, neighbors = union.split()
        # reduceat takes the rows that have neighbours: each segment from
        # one such row's start to the next is exactly its neighbour slice
        rows = np.flatnonzero(np.diff(offsets))
        starts = offsets[rows]
        # past this depth no round admits even the earliest fault
        deepest = last_round - int(seed_rounds.min()) + 1
        pending = np.arange(len(recolors))
        depth = 0
        while True:
            bound = rounds[pending] + 1 - max(depth, 1)
            placed = earliest[positions[pending]] <= bound
            best[pending[placed]] = depth
            pending = pending[~placed]
            if not pending.size or depth == deepest:
                break
            lowered = np.minimum(
                earliest[rows], np.minimum.reduceat(earliest[neighbors], starts)
            )
            if np.array_equal(lowered, earliest[rows]):
                break
            earliest[rows] = lowered
            depth += 1
    violations = malformed + [
        f"vertex {recolors[k][1]!r} recolored at round {recolors[k][0]} "
        "outside the causal cone of every applied perturbation"
        for k in np.flatnonzero(best < 0).tolist()
    ]
    return int(best.max(initial=0)), violations


class ContainmentOracle:
    """Asserts recovery stayed local to the perturbation neighbourhoods."""

    name = "containment"

    def check(self, **subject: Any) -> Verdict:
        trace = subject["trace"]
        radius_bound = subject.get("radius_bound")
        out = collector(self.name)
        radius, violations = measure_containment(trace)
        out.saw(sum(len(record.changes) for record in trace.records) + 1)
        for violation in violations:
            out.fail(violation)
        if radius_bound is not None and radius > radius_bound:
            out.fail(
                f"containment radius {radius} exceeds the declared "
                f"bound {radius_bound}"
            )
        return out.verdict()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def rounds_to_recovery(trace) -> int | None:
    """Rounds from the last applied fault until legality holds for good.

    0 when the run was legal from the last fault onwards (or no fault
    applied at all); ``None`` when the run never (re-)establishes a
    suffix of legal rounds — i.e. it ended illegal.
    """
    records = trace.records
    if not records:
        return None
    suffix_start = None  # earliest index from which every record is legal
    for index in range(len(records) - 1, -1, -1):
        if not records[index].legal:
            break
        suffix_start = index
    if suffix_start is None:
        return None
    applied = trace.applied_events()
    if not applied:
        return 0
    last_fault = max(fault.round for fault in applied)
    first_legal_round = max(records[suffix_start].round, last_fault)
    return first_legal_round - last_fault


def recovery_metrics(trace) -> dict[str, Any]:
    """The per-row measurement block of the E18 scenario."""
    recovery = rounds_to_recovery(trace)
    radius, violations = measure_containment(trace)
    recolored = {v for record in trace.records for v, _c in record.changes}
    applied = trace.applied_events()
    log = trace.event_log()
    return {
        "rounds": trace.rounds,
        "quiescent": bool(trace.quiescent),
        "legal": bool(trace.records[-1].legal) if trace.records else False,
        "rounds_to_recovery": -1 if recovery is None else recovery,
        "recovered": recovery is not None,
        "recolored_vertices": len(recolored),
        "containment_radius": radius,
        "containment_violations": len(violations),
        "conflicts_peak": max(
            (record.conflicts for record in trace.records), default=0
        ),
        "faults_applied": len(applied),
        "faults_skipped": len(log) - len(applied),
        "messages": trace.messages_sent(),
    }
