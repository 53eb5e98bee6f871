"""The run-until-quiescent round loop with fault application.

:func:`run_stabilizing` drives a stabilizing node program (per-node or
batched, see :mod:`repro.distributed.stabilizing`) on a
:class:`~repro.faults.network.PerturbableNetwork` while applying a
:class:`~repro.faults.plan.FaultPlan`.  Stabilizing protocols have no
terminal state, so the static engine's active-set termination does not
apply; instead the loop stops at *quiescence* — a round in which the
full protocol state (not just the output colors: invisible flags count)
did not change, no fault fired and none remains scheduled — or at the
round cap, which with ``strict=True`` raises the structured
:class:`~repro.errors.NonTerminationError`.

Per round, in order:

1. apply the plan's events for this round (topology edits first — the
   plan's canonical event order sorts edge edits before message faults,
   so a message fault is judged against the topology it will run on);
   rebuild the port tables and re-bind node contexts if edges changed;
2. the synchronous exchange on the *current* fabric, with this round's
   message drops filtered out of delivery and last round's captured
   duplicates re-delivered on top of (i.e. overwriting) the fresh
   message of the same slot — a stale duplicate is exactly "the
   receiver acts on outdated neighbour state";
3. record a :class:`RoundRecord`: what fired, which vertices changed
   color (with the new color — the trace is *replayable*, which is how
   the :class:`~repro.verify.recovery.RecoveryOracle` catches tampered
   logs), the number of conflicting edges and the legality flag.  Both
   paths hand the colors over as an ``int64`` array, so the deltas are a
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
from repro.faults.network import PerturbableNetwork
from repro.faults.plan import FaultEvent, FaultPlan
from repro.graphs.graph import Vertex
from repro.local import kernels
from repro.local.node import BatchContext, BatchNodeAlgorithm, NodeContext

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
    """A replayable record of one dynamic run (the oracle's witness)."""

    labels: list[Vertex]
    budget: int
    initial_coloring: dict[Vertex, int]
    initial_edges: list[tuple[Vertex, Vertex]]
    records: list[RoundRecord] = field(default_factory=list)
    final_coloring: dict[Vertex, int] = field(default_factory=dict)
    quiescent: bool = False
    backend: str = ""
    protocol: str = ""

    @property
    def rounds(self) -> int:
        return len(self.records)

    def event_log(self) -> list[AppliedFault]:
        """Every plan event in firing order, applied or skipped."""
        return [fault for record in self.records for fault in record.faults]

    def applied_events(self) -> list[AppliedFault]:
        return [fault for fault in self.event_log() if fault.applied]

    def messages_sent(self) -> int:
        return sum(record.messages for record in self.records)


# ---------------------------------------------------------------------------
# fault application helpers
# ---------------------------------------------------------------------------


def _slot_towards(fabric, dst: int, src: int) -> int | None:
    """The inbox slot of ``dst`` whose other endpoint is ``src`` (or None)."""
    lo, hi = fabric.offsets_np[dst], fabric.offsets_np[dst + 1]
    pos = int(lo + np.searchsorted(fabric.endpoints_np[lo:hi], src))
    if pos < hi and fabric.endpoints_np[pos] == src:
        return pos
    return None


def _clashes(fabric, colors):
    """Per-slot mask: the slot's two endpoints share a color (both ways)."""
    return colors[fabric.sources_np()] == colors[fabric.endpoints_np]


class _FaultState:
    """Per-round fault bookkeeping shared by both engine paths."""

    def __init__(self) -> None:
        self.drops: set[tuple[int, int]] = set()  # (src, dst) this round
        self.dup_pairs: set[tuple[int, int]] = set()  # capture this round
        self.pending_dups: list[tuple[int, int, Any]] = []  # deliver this round

    def next_round(self) -> None:
        self.drops.clear()
        self.dup_pairs.clear()


def _apply_events(
    events: list[FaultEvent],
    pnet: PerturbableNetwork,
    state: _FaultState,
    corrupt: Callable[[int, int], None],
    reset: Callable[[int], None],
) -> tuple[list[AppliedFault], bool]:
    """Apply one round's events; returns (log entries, topology changed)."""
    log: list[AppliedFault] = []
    topo_changed = False

    def done(event: FaultEvent, applied: bool, note: str = "") -> None:
        log.append(
            AppliedFault(
                event.round, event.kind, event.vertices, event.value, applied, note
            )
        )

    for event in events:
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
            index = pnet.index_of(event.vertices[0])
            if index is None:
                done(event, False, "unknown vertex")
                continue
            if kind == "corrupt-color":
                corrupt(index, int(event.value))
            else:
                reset(index)
            done(event, True)
        else:  # message-drop / message-duplicate
            u, v = event.vertices
            i, j = pnet.index_of(u), pnet.index_of(v)
            if i is None or j is None or not pnet.has_edge(u, v):
                done(event, False, "edge not present")
                continue
            if kind == "message-drop":
                state.drops.add((i, j))
            else:
                state.dup_pairs.add((i, j))
            done(event, True)
    return log, topo_changed


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


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
    initial = {
        v: int((initial_coloring or {}).get(v, 0) or 0) for v in pnet.labels
    }
    trace = StabilizationTrace(
        labels=list(pnet.labels),
        budget=budget,
        initial_coloring=dict(initial),
        initial_edges=pnet.edges(),
        backend=pnet.backend,
        protocol=protocol,
    )
    probe = algorithm_factory()
    if isinstance(probe, BatchNodeAlgorithm):
        runner = _BatchedStabilizer(pnet, probe, budget, initial)
    else:
        runner = _PerNodeStabilizer(pnet, algorithm_factory, budget, initial)

    state = _FaultState()
    last_event_round = plan.last_round()
    previous_snapshot = runner.snapshot()
    colors = runner.colors()
    labels = trace.labels

    for round_number in range(1, max_rounds + 1):
        state.next_round()
        log, topo_changed = _apply_events(
            plan.events_for(round_number), pnet, state, runner.corrupt, runner.reset
        )
        if topo_changed:
            runner.rebind_topology()
        messages = runner.exchange(round_number, state)
        new_colors = runner.colors()
        moved = np.flatnonzero(new_colors != colors)
        changes = tuple(
            zip(map(labels.__getitem__, moved.tolist()), new_colors[moved].tolist())
        )
        conflicts = int(np.count_nonzero(_clashes(runner.fabric, new_colors))) // 2
        legal = conflicts == 0 and bool(
            ((new_colors >= 1) & (new_colors <= budget)).all()
        )
        trace.records.append(
            RoundRecord(
                round=round_number,
                faults=tuple(log),
                changes=changes,
                conflicts=conflicts,
                legal=legal,
                messages=messages,
            )
        )
        colors = new_colors
        snapshot = runner.snapshot()
        if (
            snapshot == previous_snapshot
            and not log
            and not state.pending_dups
            and round_number >= last_event_round
        ):
            trace.quiescent = True
            break
        previous_snapshot = snapshot
    else:
        if strict:
            fabric = runner.fabric
            clash = _clashes(fabric, colors)
            conflicted_vertices = int(np.unique(fabric.sources_np()[clash]).size)
            raise NonTerminationError(
                f"stabilizing run hit max_rounds={max_rounds} without "
                f"quiescing ({conflicted_vertices} vertex(es) in conflict)",
                rounds=max_rounds,
                active=conflicted_vertices,
            )

    trace.final_coloring = dict(zip(labels, colors.tolist()))
    return trace


# ---------------------------------------------------------------------------
# per-node path
# ---------------------------------------------------------------------------


class _PerNodeStabilizer:
    """Drives one NodeAlgorithm instance per vertex (the dict backend)."""

    def __init__(self, pnet, factory, budget, initial):
        self.pnet = pnet
        self.nodes = []
        for i, label in enumerate(pnet.labels):
            node = factory()
            node.initialize(
                NodeContext(
                    identifier=i + 1,
                    n=pnet.n,
                    degree=pnet.degree_of_index(i),
                    input=(budget, initial[label]),
                )
            )
            self.nodes.append(node)
        self.fabric = pnet.network.fabric

    def rebind_topology(self) -> None:
        self.fabric = self.pnet.network.fabric
        for i, node in enumerate(self.nodes):
            node.context.degree = self.fabric.degrees[i]

    def corrupt(self, index: int, value: int) -> None:
        self.nodes[index].corrupt(value)

    def reset(self, index: int) -> None:
        self.nodes[index].reset()

    def snapshot(self) -> tuple:
        return tuple(node.snapshot() for node in self.nodes)

    def colors(self):
        return np.fromiter(
            (node.result() for node in self.nodes), dtype=np.int64, count=len(self.nodes)
        )

    def exchange(self, round_number: int, state: _FaultState) -> int:
        fabric = self.fabric
        offsets = fabric.offsets
        endpoints = fabric.endpoints
        reverse_slot = fabric.reverse_slot
        payloads: list[Any] = [None] * fabric.num_slots
        received: list[list[int]] = [[] for _ in range(len(self.nodes))]
        messages = 0
        next_dups: list[tuple[int, int, Any]] = []
        drops, dup_pairs = state.drops, state.dup_pairs
        for i, node in enumerate(self.nodes):
            out = node.send(round_number)
            if not out:
                continue
            base = offsets[i]
            for port, payload in out.items():
                slot = base + port
                j = endpoints[slot]
                if dup_pairs and (i, j) in dup_pairs:
                    next_dups.append((i, j, payload))
                if drops and (i, j) in drops:
                    continue
                dest = reverse_slot[slot]
                payloads[dest] = payload
                received[j].append(dest)
                messages += 1
        # stale duplicates captured last round land on top of (replace)
        # this round's fresh message on the same port
        for src, dst, payload in state.pending_dups:
            slot = _slot_towards(fabric, dst, src)
            if slot is None:
                continue  # the edge has gone away since the capture
            payloads[slot] = payload
            received[dst].append(slot)
            messages += 1
        state.pending_dups = next_dups
        for j, node in enumerate(self.nodes):
            slots = received[j]
            base = offsets[j]
            node.receive(
                round_number,
                {slot - base: payloads[slot] for slot in slots} if slots else {},
            )
        return messages


# ---------------------------------------------------------------------------
# batched path
# ---------------------------------------------------------------------------


class _BatchedStabilizer:
    """Drives one BatchNodeAlgorithm over the flat fabric arrays."""

    def __init__(self, pnet, program, budget, initial):
        self.pnet = pnet
        self.program = program
        # built once: a topology edit changes the fabric, never the inputs
        self.inputs = [(budget, initial[v]) for v in pnet.labels]
        program.initialize_batch(self._context())

    def _context(self) -> BatchContext:
        network = self.pnet.network
        fabric = self.fabric = network.fabric
        return BatchContext(
            n=fabric.n,
            identifiers=network.identifiers_np,
            degrees=fabric.degrees_np,
            offsets=fabric.offsets_np,
            endpoints=fabric.endpoints_np,
            reverse_slot=fabric.reverse_np,
            sources=fabric.sources_np(),
            inputs=self.inputs,
            network=network,
            declared_n=self.pnet.n,
        )

    def rebind_topology(self) -> None:
        self.program.on_topology_change(self._context())

    def corrupt(self, index: int, value: int) -> None:
        self.program.corrupt_batch(index, value)

    def reset(self, index: int) -> None:
        self.program.reset_batch(index)

    def snapshot(self) -> tuple:
        return self.program.snapshot()

    def colors(self):
        return self.program.colors_array()

    def exchange(self, round_number: int, state: _FaultState) -> int:
        fabric = self.fabric
        values = self.program.send_batch(round_number)
        if type(self.program).exchange_mode == "broadcast":
            # per-node broadcast values: the fused kernel delivers them in
            # one endpoint gather, and the payload of any (src, dst) pair
            # is just values[src] — no slot lookup needed for captures
            inbox = kernels.gather(values, fabric.endpoints_np)
            captured = lambda src, slot: int(values[src])  # noqa: E731
        else:
            inbox = kernels.deliver_slots(values, fabric.reverse_np)
            captured = lambda src, slot: int(  # noqa: E731
                values[fabric.reverse_np[slot]]
            )
        delivered = None
        messages = fabric.num_slots
        next_dups: list[tuple[int, int, Any]] = []
        for src, dst in state.dup_pairs:
            slot = _slot_towards(fabric, dst, src)
            if slot is not None:
                next_dups.append((src, dst, captured(src, slot)))
        if state.drops or state.pending_dups:
            delivered = np.ones(fabric.num_slots, dtype=bool)
            for src, dst in state.drops:
                slot = _slot_towards(fabric, dst, src)
                if slot is not None:
                    delivered[slot] = False
                    messages -= 1
            for src, dst, payload in state.pending_dups:
                slot = _slot_towards(fabric, dst, src)
                if slot is None:
                    continue
                inbox[slot] = payload
                delivered[slot] = True
                messages += 1
        state.pending_dups = next_dups
        self.program.receive_batch(round_number, inbox, delivered)
        return messages
