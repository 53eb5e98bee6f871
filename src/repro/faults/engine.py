"""Fault injection and quiescence detection as round hooks of the simulator.

:func:`run_stabilizing` drives a stabilizing node program (per-node or
batched, see :mod:`repro.distributed.stabilizing`) on a
:class:`~repro.faults.network.PerturbableNetwork` while applying a
:class:`~repro.faults.plan.FaultPlan`.  The rounds themselves run on the
static engine, :class:`~repro.local.simulator.SynchronousSimulator`, with
the fault plane passed as its ``hooks``; this module only edits rounds
and records them.  Stabilizing protocols have no terminal state, so the
engine's active-set termination never fires; instead the hooks stop the
run at *quiescence* — a round in which the full protocol state (not just
the output colors: invisible flags count) did not change, no fault fired
and none remains scheduled — or the round cap stops it, which with
``strict=True`` raises the structured
:class:`~repro.errors.NonTerminationError`.

Per round, in order:

1. before the sends, apply the plan's events for this round (topology
   edits first — the plan's canonical event order sorts edge edits
   before message faults, so a message fault is judged against the
   topology it will run on) and, if edges changed, hand the engine the
   rebuilt network, whose fabric it rebinds;
2. between delivery and receive, drop this round's lost messages and
   re-deliver last round's captured duplicates on top of (i.e.
   overwriting) the fresh message of the same slot — a stale duplicate
   is exactly "the receiver acts on outdated neighbour state";
3. after the receives, record a :class:`RoundRecord`: what fired, which
   vertices changed color (with the new color — the trace is
   *replayable*, which is how the
   :class:`~repro.verify.recovery.RecoveryOracle` catches tampered logs),
   the number of conflicting edges and the legality flag.  Both loops
   hand the colors over as an ``int64`` array, so the deltas are a
   ``flatnonzero`` of the color diff and the conflict count one gather
   over the fabric, whatever the backend.

Every record lands in a :class:`StabilizationTrace`, the single witness
object the recovery oracles, the containment auditor and the E18
scenario metrics all read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import NonTerminationError, SimulationError
from repro.faults.edgeset import EdgeSet
from repro.faults.network import PerturbableNetwork
from repro.faults.plan import FaultEvent, FaultPlan
from repro.graphs.graph import Vertex
from repro.local.network import Network
from repro.local.simulator import LazyOutputs, SynchronousSimulator

__all__ = [
    "AppliedFault",
    "RoundRecord",
    "StabilizationTrace",
    "run_stabilizing",
]


@dataclass(frozen=True)
class AppliedFault:
    """One plan event as the engine actually handled it."""

    round: int
    kind: str
    vertices: tuple[Vertex, ...]
    value: int | None
    applied: bool
    note: str = ""


@dataclass
class RoundRecord:
    """The ledger entry of one synchronous round."""

    round: int
    faults: tuple[AppliedFault, ...]
    changes: tuple[tuple[Vertex, int], ...]
    conflicts: int
    legal: bool
    messages: int


@dataclass
class StabilizationTrace:
    """A replayable record of one dynamic run (the oracle's witness).

    The start and the end are kept by vertex index: ``index`` is the
    input's label index, ``initial_colors`` and ``final_colors`` the
    ``int64`` registers before the first round and after the last (the
    latter set when the run ends), and ``initial_edges`` the trace's own
    copy of the edge set.
    """

    labels: list[Vertex]
    index: Mapping[Vertex, int]
    budget: int
    initial_colors: np.ndarray
    initial_edges: EdgeSet
    records: list[RoundRecord] = field(default_factory=list)
    final_colors: np.ndarray | None = None
    quiescent: bool = False
    backend: str = ""
    protocol: str = ""

    @property
    def rounds(self) -> int:
        return len(self.records)

    @property
    def final_coloring(self) -> LazyOutputs:
        """The final coloring as a ``{label: color}`` view over ``final_colors``."""
        return LazyOutputs(self.labels, self.final_colors, None, self.index)

    def event_log(self) -> list[AppliedFault]:
        """Every plan event in firing order, applied or skipped."""
        return [fault for record in self.records for fault in record.faults]

    def applied_events(self) -> list[AppliedFault]:
        return [fault for fault in self.event_log() if fault.applied]

    def messages_sent(self) -> int:
        return sum(record.messages for record in self.records)


# ---------------------------------------------------------------------------
# the fault plane as round hooks
# ---------------------------------------------------------------------------


def _clashes(fabric, colors):
    """Per-slot mask: the slot's two endpoints share a color (both ways)."""
    return colors[fabric.sources_np()] == colors[fabric.endpoints_np]


def _colors(nodes):
    """The color registers by node index, off a node list or a batched program."""
    if isinstance(nodes, list):
        return np.fromiter(
            (node.result() for node in nodes), dtype=np.int64, count=len(nodes)
        )
    return nodes.colors_array()


def _snapshot(nodes) -> tuple:
    if isinstance(nodes, list):
        return tuple(node.snapshot() for node in nodes)
    return nodes.snapshot()


class _FaultHooks:
    """Applies a :class:`FaultPlan` and records the trace, round by round.

    Passed as ``hooks=`` to :meth:`SynchronousSimulator.run
    <repro.local.simulator.SynchronousSimulator.run>`; ``nodes`` is the
    per-node program list or the batched program.
    """

    def __init__(self, pnet: PerturbableNetwork, plan: FaultPlan,
                 trace: StabilizationTrace) -> None:
        self.pnet = pnet
        self.plan = plan
        self.trace = trace
        self.last_event_round = plan.last_round()
        self.fabric = pnet.network.fabric
        self.log: list[AppliedFault] = []
        self.drops: set[tuple[int, int]] = set()  # (src, dst): lost this round
        self.dup_pairs: set[tuple[int, int]] = set()  # (src, dst): captured
        self.pending: list[tuple[int, int, Any]] = []  # delivered this round
        self.colors = None
        self.snapshot: tuple = ()

    def before_round(self, round_number: int, nodes) -> Network | None:
        if self.colors is None:  # the state the first round starts from
            self.colors = _colors(nodes)
            self.snapshot = _snapshot(nodes)
        pnet = self.pnet
        log = self.log = []
        self.drops, self.dup_pairs = set(), set()
        topo_changed = False

        def done(event: FaultEvent, applied: bool, note: str = "") -> None:
            log.append(
                AppliedFault(
                    event.round, event.kind, event.vertices, event.value,
                    applied, note,
                )
            )

        # the plan sorts edge edits first, so a message fault is judged
        # against the topology its round runs on
        for event in self.plan.events_for(round_number):
            kind = event.kind
            if kind == "edge-insert":
                applied = pnet.insert_edge(*event.vertices)
                topo_changed |= applied
                done(event, applied, "" if applied else "edge already present")
            elif kind == "edge-delete":
                applied = pnet.delete_edge(*event.vertices)
                topo_changed |= applied
                done(event, applied, "" if applied else "edge not present")
            elif kind in ("corrupt-color", "node-reset"):
                index = pnet.index.get(event.vertices[0])
                if index is None:
                    done(event, False, "unknown vertex")
                    continue
                if isinstance(nodes, list):
                    node = nodes[index]
                    if kind == "corrupt-color":
                        node.corrupt(int(event.value))
                    else:
                        node.reset()
                elif kind == "corrupt-color":
                    nodes.corrupt_batch(index, int(event.value))
                else:
                    nodes.reset_batch(index)
                done(event, True)
            else:  # message-drop / message-duplicate
                u, v = event.vertices
                i, j = pnet.index.get(u), pnet.index.get(v)
                if i is None or j is None or not pnet.has_edge(u, v):
                    done(event, False, "edge not present")
                    continue
                (self.drops if kind == "message-drop" else self.dup_pairs).add((i, j))
                done(event, True)
        if not topo_changed:
            return None
        network = pnet.network
        self.fabric = network.fabric
        return network

    # Both delivery edits keep one order, so the backends stay in parity:
    # capture this round's duplicates from the fresh messages, drop, then
    # land last round's captures on top of the fresh message of their slot.

    def edit_received(self, payloads: list, received: list[list[int]]) -> int:
        slot_towards = self.pnet.edge_set.slot  # key k is fabric slot k
        captured = []
        # in send order, so captures land in the order they were sent
        for src, dst in sorted(self.dup_pairs):
            slot = slot_towards(dst, src)
            if slot in received[dst]:
                captured.append((src, dst, payloads[slot]))
        change = 0
        for src, dst in self.drops:
            slot = slot_towards(dst, src)
            if slot in received[dst]:
                received[dst].remove(slot)
                change -= 1
        for src, dst, payload in self.pending:
            slot = slot_towards(dst, src)
            if slot is not None:  # else the edge is gone since the capture
                payloads[slot] = payload
                received[dst].append(slot)
                change += 1
        self.pending = captured
        return change

    def edit_inbox(self, inbox, delivered):
        slot_towards = self.pnet.edge_set.slot
        captured = []
        for src, dst in self.dup_pairs:
            slot = slot_towards(dst, src)
            if slot is not None and (delivered is None or delivered[slot]):
                captured.append((src, dst, int(inbox[slot])))
        change = 0
        if self.drops or self.pending:
            if delivered is None:
                delivered = np.ones(len(inbox), dtype=np.bool_)
            for src, dst in self.drops:
                slot = slot_towards(dst, src)
                if slot is not None and delivered[slot]:
                    delivered[slot] = False
                    change -= 1
            for src, dst, payload in self.pending:
                slot = slot_towards(dst, src)
                if slot is not None:
                    inbox[slot] = payload
                    delivered[slot] = True
                    change += 1
        self.pending = captured
        return delivered, change

    def after_round(self, round_number: int, nodes, messages: int) -> bool:
        """Record the round; True once it is quiescent."""
        trace = self.trace
        labels = trace.labels
        colors = _colors(nodes)
        moved = np.flatnonzero(colors != self.colors)
        changes = tuple(
            zip(map(labels.__getitem__, moved.tolist()), colors[moved].tolist())
        )
        conflicts = int(np.count_nonzero(_clashes(self.fabric, colors))) // 2
        legal = conflicts == 0 and bool(
            ((colors >= 1) & (colors <= trace.budget)).all()
        )
        trace.records.append(
            RoundRecord(
                round=round_number,
                faults=tuple(self.log),
                changes=changes,
                conflicts=conflicts,
                legal=legal,
                messages=messages,
            )
        )
        self.colors = colors
        snapshot, self.snapshot = self.snapshot, _snapshot(nodes)
        return (
            snapshot == self.snapshot
            and not self.log
            and not self.pending
            and round_number >= self.last_event_round
        )


def run_stabilizing(
    pnet: PerturbableNetwork,
    algorithm_factory: Callable[[], Any],
    *,
    plan: FaultPlan,
    budget: int,
    initial_coloring: Mapping[Vertex, int] | None = None,
    max_rounds: int = 500,
    strict: bool = False,
    protocol: str = "",
) -> StabilizationTrace:
    """Run a stabilizing protocol under ``plan`` until quiescence.

    ``initial_coloring`` seeds the color registers (vertices missing
    from the mapping start uncolored); ``budget`` is the palette bound
    handed to every node (use :func:`~repro.faults.plan.palette_bound`
    so it stays valid across the plan's insertions).  With
    ``strict=True`` a run that is still changing state at ``max_rounds``
    raises :class:`~repro.errors.NonTerminationError` whose ``active``
    field carries the number of vertices still involved in conflicts;
    otherwise the trace comes back with ``quiescent=False``.
    """
    if budget < 1:
        raise SimulationError(f"palette budget must be >= 1, got {budget}")
    if max_rounds < 1:
        raise SimulationError(f"max_rounds must be >= 1, got {max_rounds}")
    labels = pnet.labels
    initial = initial_coloring or {}
    # column 0 the budget, column 1 the initial color, by node index
    inputs = np.empty((len(labels), 2), dtype=np.int64)
    inputs[:, 0] = budget
    inputs[:, 1] = np.fromiter(
        (initial.get(v) or 0 for v in labels), dtype=np.int64, count=len(labels)
    )
    trace = StabilizationTrace(
        labels=list(labels),
        index=pnet.index,
        budget=budget,
        initial_colors=inputs[:, 1].copy(),
        initial_edges=pnet.edge_set.copy(),
        backend=pnet.backend,
        protocol=protocol,
    )
    hooks = _FaultHooks(pnet, plan, trace)
    result = SynchronousSimulator(pnet.network).run(
        algorithm_factory,
        inputs=inputs,
        max_rounds=max_rounds,
        hooks=hooks,
    )
    trace.quiescent = result.finished
    colors = hooks.colors
    if strict and not trace.quiescent:
        fabric = hooks.fabric
        clash = _clashes(fabric, colors)
        conflicted_vertices = int(np.unique(fabric.sources_np()[clash]).size)
        raise NonTerminationError(
            f"stabilizing run hit max_rounds={max_rounds} without "
            f"quiescing ({conflicted_vertices} vertex(es) in conflict)",
            rounds=max_rounds,
            active=conflicted_vertices,
        )
    trace.final_colors = colors
    return trace
