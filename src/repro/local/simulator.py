"""Synchronous round engine of the LOCAL-model simulator.

The simulator repeats, until every node reports that it is finished (or a
round limit is hit):

1. ask every node for its outgoing messages (:meth:`send`),
2. deliver all messages simultaneously (:meth:`receive`).

The engine records the number of rounds and messages, which is what the
round-complexity experiments measure.  It enforces the *synchronous*
semantics strictly: all ``send`` calls of a round happen before any
``receive`` of that round, so no node can react to information it should
not yet have.

The data plane runs on the network's flat-array routing fabric
(:class:`~repro.local.network.RoutingFabric`):

* delivery is one array read — the message node ``i`` sends on port ``p``
  lands in inbox slot ``reverse_slot[offsets[i] + p]`` — instead of the
  ``neighbor_on_port`` + ``port_towards`` dict hops of the dict-routed seed
  engine (kept verbatim in :mod:`repro.local.reference` for parity tests
  and A/B benchmarks);
* inbox payloads live in one preallocated per-slot list reused across
  rounds (no fresh per-vertex dicts per round); the per-node ``receive``
  dicts are built only for nodes that actually received messages;
* termination tracks an *active set* of unfinished node indices — no
  O(n) ``all(is_finished())`` scan per round (which is why
  :meth:`NodeAlgorithm.is_finished` must be monotone);
* a :class:`~repro.local.node.BatchNodeAlgorithm` opts into the fully
  vectorized path: one ``send_batch``/``receive_batch`` numpy-array
  exchange per round for all nodes at once;
* the batched exchange itself runs on the fused kernels of
  :mod:`repro.local.kernels`, in one of two shapes told apart by the
  methods the program defines (:class:`~repro.local.node.BatchNodeAlgorithm`).
  Broadcast rounds are delivered with a single gather by ``endpoints``
  (instead of the historical send-gather + reverse-permutation double
  pass) into preallocated inbox buffers, and a broadcast that names its
  senders is charged only their degrees; the sparse rounds of a program
  that defines ``receive_active`` route only the frontier's slots.
  ``run(..., reference_exchange=True)`` forces the unfused delivery, kept
  as the oracle the parity tests pin the kernels against.

A batched run ends without a per-vertex Python step: its
:attr:`SimulationResult.outputs` is a :class:`LazyOutputs` view over the
program's final register (an ``int64`` color array for greedy, randomized
Δ+1 and the wave) and the network's label order.  When the network numbers
a :class:`~repro.graphs.frozen.FrozenGraph` in its default order, the
view's positions are the graph's CSR indices, and the coloring checks read
the array directly (:mod:`repro.coloring.verification`).

``run(..., hooks=...)`` edits each round before the sends, between
delivery and receive, and after the receives (see
:meth:`SynchronousSimulator.run`): the fault plane of
:mod:`repro.faults.engine` runs its recoveries on these loops that way.
Static runs pass no hooks and pay one ``is not None`` test per point.

Note that finished nodes still ``send`` and ``receive`` every round until
the whole network terminates — protocols like the greedy baseline rely on
finished nodes broadcasting their state — so the per-node loop's work is
O(n + m) per round; the flat fabric cuts its constant, which is what the
``simulator`` scenario measures.  A batched program's fused receive reads
only what its frontier needs, so its rounds can cost what that frontier
costs.
"""

from __future__ import annotations

from collections.abc import Callable, ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import NonTerminationError, SimulationError
from repro.graphs.frozen import GraphLike, freeze
from repro.graphs.graph import Vertex
from repro.local import kernels
from repro.local.network import Network
from repro.local.node import (
    BatchContext,
    BatchNodeAlgorithm,
    NodeAlgorithm,
    NodeContext,
)

__all__ = [
    "LazyOutputs",
    "SimulationResult",
    "SynchronousSimulator",
    "run_node_algorithm",
]


class LazyOutputs(Mapping):
    """Per-vertex outputs of a batched run, read off the program's register.

    The batched engine ends with a label list plus one value per node
    index.  A ``{label: value}`` dict of them costs more than a whole fused
    round at n = 10^5, and at n = 10^6 building one and reading it back in
    the oracles took longer than building the routing fabric.  This view
    keeps the two sequences and never builds that dict:

    * ``labels`` — the vertex labels by node index;
    * the values — an ``int64`` array (:attr:`colors`) for the programs
      that keep their colors in one (greedy, randomized Δ+1, the wave),
      a list for every other program (:attr:`colors` is then ``None``);
    * ``graph`` — the :class:`~repro.graphs.frozen.FrozenGraph` whose CSR
      index the positions follow (the network's
      :attr:`~repro.local.network.Network.csr_graph`), else ``None``.  The
      coloring checks of :mod:`repro.coloring.verification` read
      :attr:`colors` as an array only when ``graph`` *is* the graph they
      check;
    * ``index`` — the label -> position mapping (the network's node index).

    Keyed reads (``[]``, ``get``, ``in``) find the position through
    ``index``; an unknown label raises :class:`KeyError`.  Iteration walks the
    labels, and ``items()``/``values()`` stream Python ints out of the
    array, so ``dict(view.items())`` is one pass (``dict(view)``
    reads one key at a time) and a digest of the view equals the digest of
    that dict.  ``Mapping`` supplies dict-equality in both directions.
    The view owns its array: the program that filled it cannot change a
    returned result.
    """

    __slots__ = ("labels", "_values", "graph", "_index")

    def __init__(self, labels, values, graph, index):
        self.labels = labels
        self._values = values
        self.graph = graph
        self._index = index

    @property
    def colors(self):
        """The values as an ``int64`` array by position, or ``None`` for a list."""
        values = self._values
        return values if isinstance(values, np.ndarray) else None

    def __getitem__(self, key):
        values = self._values
        i = self._index[key]
        return int(values[i]) if isinstance(values, np.ndarray) else values[i]

    def __contains__(self, key) -> bool:
        return key in self._index

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def _stream(self):
        values = self._values
        # tolist() hands out Python ints: a numpy scalar's repr would
        # change every digest taken of the view
        return iter(values.tolist() if isinstance(values, np.ndarray) else values)

    def items(self):
        return _StreamedItems(self)

    def values(self):
        return _StreamedValues(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _StreamedItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        view = self._mapping
        return zip(view.labels, view._stream())


class _StreamedValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._stream()


@dataclass
class SimulationResult:
    """Outcome of a simulation.

    Attributes
    ----------
    rounds:
        Number of synchronous rounds executed.
    outputs:
        Per-vertex outputs (keyed by the original vertex labels).  The
        per-node engine returns a dict; the batched engine returns a
        :class:`LazyOutputs` view over the program's final register and the
        label order — equal to and interchangeable with that dict, but
        never built into one.  Its :attr:`LazyOutputs.colors` is the
        ``int64`` color array of greedy, randomized Δ+1 and the wave.
    messages_sent:
        Total number of messages delivered over the run.
    finished:
        Whether every node terminated before the round limit.
    """

    rounds: int
    outputs: Mapping[Vertex, Any]
    messages_sent: int
    finished: bool
    per_round_messages: list[int] = field(default_factory=list)


class SynchronousSimulator:
    """Runs a node program on a network, one instance per vertex.

    A factory producing :class:`~repro.local.node.BatchNodeAlgorithm`
    instances is routed to the vectorized batched loop instead (one program
    instance drives all nodes); everything else runs the per-node loop.
    """

    def __init__(self, network: Network):
        self.network = network

    def run(
        self,
        algorithm_factory: Callable[[], NodeAlgorithm | BatchNodeAlgorithm],
        inputs: Mapping[Vertex, Any] | Any | None = None,
        max_rounds: int = 10_000,
        strict: bool = False,
        *,
        reference_exchange: bool = False,
        hooks: Any = None,
    ) -> SimulationResult:
        """Execute the algorithm until all nodes finish or ``max_rounds`` is hit.

        With ``strict=False`` (the default) hitting the round limit returns a
        result with ``finished=False``; with ``strict=True`` it raises
        :class:`~repro.errors.NonTerminationError` (a
        :class:`~repro.errors.SimulationError` carrying the round count and
        active-set size) instead, which is what callers
        that *assume* termination (most tests and drivers) should use so that
        a diverging algorithm cannot silently masquerade as a slow one.

        Malformed sends always raise :class:`~repro.errors.SimulationError`
        (non-mapping returns, out-of-range ports — the latter validated with
        one comparison per message against the routing table, and reported
        with the vertex's identifier and valid port range).

        ``reference_exchange=True`` routes batched broadcast rounds through
        the historical unfused three-pass delivery (send-gather by
        ``sources`` + permutation by ``reverse_slot`` + ``receive_batch``)
        instead of the fused kernels — the parity oracle for
        :mod:`repro.local.kernels`.  A broadcast that names its senders
        reaches ``receive_batch`` as the endpoint gather plus a
        ``delivered`` mask of the slots whose far node spoke
        (:func:`~repro.local.kernels.deliver_broadcast_from`), in hooked
        runs too.

        ``hooks`` edits every round; ``nodes`` below is the node list of the
        per-node loop or the program of the batched one:

        * ``before_round(round_number, nodes)`` runs before the sends and
          returns a new :class:`~repro.local.network.Network` when the
          topology changed (the vertex order must stay), else ``None``.  The
          engine then rebinds its fabric: per-node contexts get their new
          degree, a batched program gets ``on_topology_change(context)``.
        * ``edit_received(payloads, received)`` (per-node) or
          ``edit_inbox(inbox, delivered)`` (batched) runs between delivery
          and receive.  The first edits the per-slot payloads and the
          per-receiver slot lists in place and returns the change in the
          round's message count; the second returns ``(delivered,
          change)``, ``delivered`` being the slot mask to hand on (or
          ``None`` when every slot carries a message).  Batched programs
          under hooks always receive through ``receive_batch``, and a
          program with the sparse exchange (``receive_active``), which has
          no inbox, is refused.
        * ``after_round(round_number, nodes, messages)`` runs after the
          receives; a true return stops the run with ``finished=True``.
        """
        probe = algorithm_factory()
        if isinstance(probe, BatchNodeAlgorithm):
            return self._run_batched(
                probe, inputs, max_rounds, strict, reference_exchange, hooks
            )
        return self._run_per_node(
            probe, algorithm_factory, inputs, max_rounds, strict, hooks
        )

    # ------------------------------------------------------------------
    # Per-node engine
    # ------------------------------------------------------------------
    def _run_per_node(
        self,
        first: NodeAlgorithm,
        algorithm_factory: Callable[[], NodeAlgorithm],
        inputs: Mapping[Vertex, Any] | None,
        max_rounds: int,
        strict: bool,
        hooks: Any,
    ) -> SimulationResult:
        network = self.network
        fabric = network.fabric
        offsets = fabric.offsets
        endpoints = fabric.endpoints
        reverse_slot = fabric.reverse_slot
        labels = network.labels
        n = fabric.n
        identifiers = network.identifiers_list
        declared_n = network.declared_n
        inputs_list = network.inputs_list(inputs)

        nodes: list[NodeAlgorithm] = []
        for i in range(n):
            node = first if i == 0 else algorithm_factory()
            node.initialize(
                NodeContext(
                    identifier=identifiers[i],
                    n=declared_n,
                    degree=fabric.degrees[i],
                    input=inputs_list[i],
                )
            )
            nodes.append(node)

        # preallocated data plane, reused across rounds: per-slot payloads
        # plus, per receiver, the list of inbox slots touched this round
        payloads: list[Any] = [None] * fabric.num_slots
        received: list[list[int]] = [[] for _ in range(n)]
        # staging a message only writes these buffers — no node reads them
        # until the receive phase — so delivery can ride the send loop
        # without breaking the all-sends-before-any-receive semantics
        stage = [lst.append for lst in received]
        active = [i for i in range(n) if not nodes[i].is_finished()]

        total_messages = 0
        per_round: list[int] = []
        rounds = 0
        while active:
            if rounds >= max_rounds:
                if strict:
                    raise NonTerminationError(
                        f"simulation hit max_rounds={max_rounds} with "
                        f"{len(active)} unfinished node(s)",
                        rounds=rounds,
                        active=len(active),
                    )
                return self._result(labels, nodes, rounds, total_messages,
                                    per_round, finished=False)
            rounds += 1
            if hooks is not None:
                rebuilt = hooks.before_round(rounds, nodes)
                if rebuilt is not None:
                    self.network = network = rebuilt
                    fabric = network.fabric
                    offsets = fabric.offsets
                    endpoints = fabric.endpoints
                    reverse_slot = fabric.reverse_slot
                    payloads = [None] * fabric.num_slots
                    for node, degree in zip(nodes, fabric.degrees):
                        node.context.degree = degree
            round_messages = 0
            for i, node in enumerate(nodes):
                out = node.send(rounds)
                if not out:
                    continue
                try:  # free on the fast path; SimulationError surface kept
                    items = out.items()
                except AttributeError:
                    raise SimulationError(
                        f"node {labels[i]!r} returned {type(out).__name__} "
                        "from send(); expected a port -> payload mapping"
                    ) from None
                base = offsets[i]
                degree = offsets[i + 1] - base
                for port, payload in items:
                    if not 0 <= port < degree:
                        raise self._port_error(i, port, degree)
                    slot = base + port
                    dest = reverse_slot[slot]
                    payloads[dest] = payload
                    stage[endpoints[slot]](dest)
                round_messages += len(out)
            if hooks is not None:
                round_messages += hooks.edit_received(payloads, received)
            # receive phase: every node hears its (possibly empty) inbox
            for j, node in enumerate(nodes):
                slots = received[j]
                if slots:
                    base = offsets[j]
                    messages = {slot - base: payloads[slot] for slot in slots}
                    slots.clear()
                else:
                    messages = {}
                node.receive(rounds, messages)
            total_messages += round_messages
            per_round.append(round_messages)
            if hooks is not None and hooks.after_round(rounds, nodes, round_messages):
                break
            active = [i for i in active if not nodes[i].is_finished()]

        return self._result(labels, nodes, rounds, total_messages, per_round,
                            finished=True)

    def _port_error(self, index: int, port: Any, degree: int) -> SimulationError:
        network = self.network
        return SimulationError(
            f"node {network.labels[index]!r} (identifier "
            f"{network.identifiers_list[index]}) sent on invalid port "
            f"{port!r}; valid ports are 0..{degree - 1} (degree {degree})"
        )

    @staticmethod
    def _result(
        labels: list[Vertex],
        nodes: list[NodeAlgorithm],
        rounds: int,
        total_messages: int,
        per_round: list[int],
        finished: bool,
    ) -> SimulationResult:
        return SimulationResult(
            rounds=rounds,
            outputs={labels[i]: node.result() for i, node in enumerate(nodes)},
            messages_sent=total_messages,
            finished=finished,
            per_round_messages=per_round,
        )

    # ------------------------------------------------------------------
    # Batched engine
    # ------------------------------------------------------------------
    def _run_batched(
        self,
        program: BatchNodeAlgorithm,
        inputs: Mapping[Vertex, Any] | Any | None,
        max_rounds: int,
        strict: bool,
        reference_exchange: bool,
        hooks: Any,
    ) -> SimulationResult:
        network = self.network
        fabric = network.fabric
        inputs_list = network.inputs_list(inputs)
        context = _batch_context(network, inputs_list)
        reverse = fabric.reverse_np
        endpoints = fabric.endpoints_np
        sources = context.sources
        degrees = context.degrees
        num_slots = fabric.num_slots
        # a program that defines receive_active exchanges sparse rounds;
        # every other program broadcasts one value per node
        receive_active = getattr(program, "receive_active", None)
        if hooks is not None and receive_active is not None:
            raise SimulationError(
                "round hooks edit the inbox, which the sparse exchange "
                "does not build"
            )
        receive_broadcast = (
            getattr(program, "receive_broadcast", None)
            if not reference_exchange and hooks is None
            else None
        )
        # preallocated inbox buffers, reused across rounds (the fused
        # kernels fill them in place; programs must not retain references
        # past their receive call)
        inbox_buf = np.empty(num_slots, dtype=np.int64)
        delivered_buf = np.empty(num_slots, dtype=np.bool_)
        program.initialize_batch(context)

        total_messages = 0
        per_round: list[int] = []
        rounds = 0
        while not program.is_finished_batch():
            if rounds >= max_rounds:
                if strict:
                    raise NonTerminationError(
                        f"simulation hit max_rounds={max_rounds} with "
                        "unfinished node(s)",
                        rounds=rounds,
                    )
                return SimulationResult(
                    rounds=rounds,
                    outputs=_outputs(network, program.results_batch()),
                    messages_sent=total_messages,
                    finished=False,
                    per_round_messages=per_round,
                )
            rounds += 1
            if hooks is not None:
                rebuilt = hooks.before_round(rounds, program)
                if rebuilt is not None:
                    # drop every reference to the old topology
                    self.network = network = rebuilt
                    fabric = network.fabric
                    context = _batch_context(network, inputs_list)
                    reverse = fabric.reverse_np
                    endpoints = fabric.endpoints_np
                    sources = context.sources
                    degrees = context.degrees
                    num_slots = fabric.num_slots
                    program.on_topology_change(context)
                    # reallocated only once the program has dropped the
                    # old context, so they never coexist with the old fabric
                    inbox_buf = np.empty(num_slots, dtype=np.int64)
                    delivered_buf = np.empty(num_slots, dtype=np.bool_)
            sent = program.send_batch(rounds)
            if sent is None:
                round_messages = 0
                if receive_active is not None:
                    receive_active(rounds, None, None)
                else:
                    program.receive_batch(rounds, None, None)
            elif receive_active is not None:
                slots, values = sent
                round_messages = len(slots)
                # the message sent from slot s arrives at slot reverse[s]
                receive_active(rounds, reverse[slots], values)
            elif receive_broadcast is not None:
                round_messages = _broadcast_messages(sent, degrees, num_slots)
                receive_broadcast(rounds, sent)
            else:
                delivered = None
                round_messages = _broadcast_messages(sent, degrees, num_slots)
                # sources[reverse_slot] == endpoints: the send-gather and the
                # reverse permutation fuse into one endpoint gather
                if isinstance(sent, tuple):
                    inbox, delivered = kernels.deliver_broadcast_from(
                        *sent, endpoints,
                        inbox_out=inbox_buf, delivered_out=delivered_buf,
                    )
                elif reference_exchange:
                    inbox = kernels.reference_broadcast(sent, sources, reverse)
                else:
                    inbox = kernels.gather(sent, endpoints, out=inbox_buf)
                if hooks is not None:
                    delivered, change = hooks.edit_inbox(inbox, delivered)
                    round_messages += change
                program.receive_batch(rounds, inbox, delivered)
            total_messages += round_messages
            per_round.append(round_messages)
            if hooks is not None and hooks.after_round(rounds, program, round_messages):
                break

        return SimulationResult(
            rounds=rounds,
            outputs=_outputs(network, program.results_batch()),
            messages_sent=total_messages,
            finished=True,
            per_round_messages=per_round,
        )


def _broadcast_messages(sent, degrees, num_slots: int) -> int:
    """A broadcast round's charge: every slot, or the named senders' degrees."""
    if isinstance(sent, tuple):
        return int(degrees[sent[1]].sum())
    return num_slots


def _outputs(network: Network, values) -> LazyOutputs:
    """The batched result view over ``network``'s labels."""
    return LazyOutputs(network.labels, values, network.csr_graph, network._index)


def _batch_context(network: Network, inputs_list: list[Any]) -> BatchContext:
    """The whole-network view a batched program reads, off ``network``'s fabric."""
    fabric = network.fabric
    return BatchContext(
        n=fabric.n,
        identifiers=network.identifiers_np,
        degrees=fabric.degrees_np,
        offsets=fabric.offsets_np,
        endpoints=fabric.endpoints_np,
        reverse_slot=fabric.reverse_np,
        sources=fabric.sources_np(),
        inputs=inputs_list,
        network=network,
        declared_n=network.declared_n,
    )


def run_node_algorithm(
    graph: GraphLike,
    algorithm_factory: Callable[[], NodeAlgorithm | BatchNodeAlgorithm],
    inputs: Mapping[Vertex, Any] | Any | None = None,
    max_rounds: int = 10_000,
    strict: bool = False,
    *,
    network: Network | None = None,
) -> SimulationResult:
    """Convenience wrapper: build the network and run the algorithm.

    Follows the freeze-at-the-boundary convention (docs/architecture.md):
    an unfrozen ``graph`` is frozen once here so the network's port tables
    and routing fabric read zero-copy off the CSR (freezing preserves the
    vertex order, hence the identifier assignment).  Callers that run
    several algorithms on the same graph should build one
    :class:`~repro.local.network.Network` and pass it as ``network=`` —
    the graph argument is then only documentation and is not re-validated.
    The run takes the engine's default exchange; the unfused reference
    delivery is :meth:`SynchronousSimulator.run`'s ``reference_exchange``.
    """
    if network is None:
        network = Network(freeze(graph))
    return SynchronousSimulator(network).run(
        algorithm_factory, inputs=inputs, max_rounds=max_rounds, strict=strict
    )
