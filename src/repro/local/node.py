"""Node-side API of the LOCAL-model simulator.

In the LOCAL model each vertex of the input graph is a processor with a
unique identifier in ``{1, ..., n}``; computation proceeds in synchronous
rounds, and in each round every node may send an arbitrarily large message
to each neighbour.  There is no bound on local computation.

A distributed algorithm is written by subclassing :class:`NodeAlgorithm`:

* :meth:`NodeAlgorithm.initialize` receives the node's :class:`NodeContext`
  (its identifier, the number of vertices ``n``, its degree, and any
  algorithm-specific input such as its color list);
* each round, the simulator calls :meth:`NodeAlgorithm.send` to collect the
  outgoing message per port and then :meth:`NodeAlgorithm.receive` with the
  incoming messages;
* a node signals termination through :meth:`NodeAlgorithm.is_finished` and
  exposes its output through :meth:`NodeAlgorithm.result`.

Nodes address their neighbours through *ports* ``0 .. degree-1``; they do
not a priori know the identifiers on the other side of each port (that
information must be learned by communication, exactly as in the model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "NodeContext",
    "NodeAlgorithm",
    "BatchContext",
    "BatchNodeAlgorithm",
    "segment_reduce",
    "announced_constant",
    "smallest_free_color",
]


@dataclass
class NodeContext:
    """Initial knowledge of a node.

    Attributes
    ----------
    identifier:
        The node's unique identifier (an integer between 1 and ``n``).
    n:
        The number of vertices of the network, known to every node.
    degree:
        The node's degree (the number of ports).
    input:
        Algorithm-specific input (e.g. the node's color list, or its parent
        port in a rooted forest).  ``None`` when the algorithm needs none.
    """

    identifier: int
    n: int
    degree: int
    input: Any = None
    extra: dict[str, Any] = field(default_factory=dict)


class NodeAlgorithm:
    """Base class for LOCAL-model node programs.

    Subclasses typically store their state on ``self`` during
    :meth:`initialize` and update it in :meth:`receive`.
    """

    def initialize(self, context: NodeContext) -> None:
        """Called once before round 1 with the node's initial knowledge."""
        self.context = context

    def send(self, round_number: int) -> dict[int, Any]:
        """Return the message to send on each port this round.

        Ports missing from the returned dict carry no message.  The default
        sends nothing.
        """
        return {}

    def receive(self, round_number: int, messages: dict[int, Any]) -> None:
        """Process the messages received this round (keyed by port)."""

    def is_finished(self) -> bool:
        """Whether this node has computed its final output.

        Termination must be *monotone*: once a node reports finished it must
        keep reporting finished (the engine tracks an active set of
        unfinished nodes and never re-checks nodes that already finished).
        """
        return True

    def result(self) -> Any:
        """The node's output (e.g. its chosen color)."""
        return None


# ---------------------------------------------------------------------------
# Batched node programs
# ---------------------------------------------------------------------------

@dataclass
class BatchContext:
    """What a batched node program knows about the whole network.

    The arrays are the simulator's routing fabric (numpy ``int64``), shared
    read-only with the program: ``offsets[i] .. offsets[i+1]`` delimits the
    directed edge slots of the node with index ``i`` (identifier ``i+1``),
    ``endpoints[slot]`` is the node index on the other side of a slot, and
    ``reverse_slot[slot]`` the same edge seen from that side.  ``inputs`` is
    the per-node algorithm input by node index.

    A batched program sees the *same* information a per-node program could
    assemble from one round of neighbour exchange (identifiers are public in
    the LOCAL model and ``endpoints`` is exactly what an id-broadcast round
    delivers) — it must not derive anything a message-passing algorithm
    could not.
    """

    n: int
    identifiers: Any  # int64[n], distinct values in 1..declared_n (1..n by default)
    degrees: Any  # int64[n]
    offsets: Any  # int64[n+1]
    endpoints: Any  # int64[num_slots]
    reverse_slot: Any  # int64[num_slots]
    sources: Any = None  # int64[num_slots]: source node index of each slot
    inputs: list[Any] = field(default_factory=list)
    network: Any = None
    #: the ``n`` announced to the nodes; differs from :attr:`n` only on
    #: truncated networks (the locality auditor's r-ball re-runs).  Batched
    #: programs must derive n-dependent schedules from this, never from the
    #: array length, or they stop being locality-faithful.
    declared_n: int | None = None

    @property
    def num_slots(self) -> int:
        return len(self.endpoints)

    @property
    def known_n(self) -> int:
        """The ``n`` a node program should reason with (``declared_n`` or ``n``)."""
        return self.n if self.declared_n is None else self.declared_n


class BatchNodeAlgorithm:
    """Opt-in batched node program: one instance drives all ``n`` nodes.

    Instead of the simulator calling ``send``/``receive`` on ``n`` node
    objects, a batched program exchanges numpy arrays with the engine once
    per round: :meth:`send_batch` returns what the nodes send (``None``
    for a silent round), and the engine hands what arrived to the
    program's receive method.

    The round/message accounting is identical to the per-node engine: a
    batched port of a per-node algorithm must produce the same
    ``SimulationResult`` (the parity tests enforce this for the shipped
    ports, at any palette width).  A program that replays one global
    schedule reads its announced constants with :func:`announced_constant`,
    which refuses inputs whose nodes disagree.

    Exchange shapes
    ---------------
    The methods a program defines pick one of two shapes (see
    :mod:`repro.local.kernels` for the fused delivery):

    broadcast (every program that does not define ``receive_active``)
        Every port of a node carries the same value: :meth:`send_batch`
        returns a *per-node* ``int64[n]`` array and the engine delivers it
        with the single fused gather ``inbox = values[endpoints]``
        (``sources[reverse_slot] == endpoints``), then calls
        :meth:`receive_batch` with the inbox — ``inbox[offsets[i] + p]`` is
        what node ``i`` received on port ``p``.  Every node speaks, so the
        round counts ``num_slots`` messages, exactly like the per-node
        program broadcasting on every port.  A ``(node_values, senders)``
        pair names the nodes that speak (an integer index array): only
        they are charged, each its degree, and the unfused path hands
        :meth:`receive_batch` a ``delivered`` mask of the slots whose far
        node is a sender (``None`` when every slot carries a message).
        Programs may implement ``receive_broadcast(round_number, sent)`` to
        consume what :meth:`send_batch` returned (the array, or the pair)
        directly, skipping the inbox materialization when only e.g. a
        parent's value or the frontier's slots are needed; the engine falls
        back to materializing the inbox and calling :meth:`receive_batch`
        when the method is absent, and the reference engine and hooked runs
        always take that unfused path.
    sparse (the program defines ``receive_active``)
        :meth:`send_batch` returns a ``(slots, values)`` pair listing only
        the slots that carry a message (``len(slots)`` messages are
        charged).  The engine maps them to destination slots through
        ``reverse_slot`` and calls
        ``receive_active(round_number, dest_slots, values)``.  ``slots``
        must be an integer array; ``values`` may be any sequence aligned
        with it (an array, or a plain list), because the engine passes it
        through unread.  This is how wave-style Omega(n)-round protocols
        keep each round O(frontier) instead of O(n).  Round hooks edit an
        inbox, which this shape does not build, so the engine refuses them.
    """

    def initialize_batch(self, context: BatchContext) -> None:
        """Called once before round 1 with the whole-network context."""
        self.context = context

    def send_batch(self, round_number: int):
        """What the nodes send this round, in the program's shape, or ``None``."""
        return None

    def receive_batch(self, round_number: int, inbox, delivered) -> None:
        """Process the per-slot inbox (``delivered`` is a bool mask or ``None``)."""

    def is_finished_batch(self) -> bool:
        """Whether every node has computed its final output (monotone)."""
        return True

    def results_batch(self) -> list[Any]:
        """Per-node outputs by node index.

        A list, or an ``int64`` array of colors the caller then owns (a
        fresh copy, never a register the program keeps writing).
        """
        return [None] * self.context.n


def segment_reduce(ufunc, values, offsets, empty=0, dtype=np.int64):
    """Per-node reduction of per-slot ``values``: ``out[i] = ufunc.reduce(values[offsets[i]:offsets[i+1]])``.

    The workhorse of batched programs ("OR of my neighbours' color bits",
    "max uncolored neighbour id").  Wraps ``ufunc.reduceat`` with the empty
    segment handling it lacks: degree-0 nodes get ``empty``.  The reduction
    runs over the starts of the *non-empty* segments only — consecutive
    non-empty starts delimit exactly one segment's values because the
    segments skipped in between are empty — so trailing empty segments
    cannot truncate the last real one.  ``out`` has ``dtype``.
    """
    n = len(offsets) - 1
    out = np.full(n, empty, dtype=dtype)
    if n == 0 or len(values) == 0:
        return out
    starts = offsets[:-1]
    nonempty = np.flatnonzero(starts != offsets[1:])
    if nonempty.size:
        out[nonempty] = ufunc.reduceat(values, starts[nonempty])
    return out


def announced_constant(program, values, what: str, default):
    """The one value every node was announced, e.g. a shared Δ or palette.

    A batched program that replays one global schedule needs the same
    constants at every node; ``values`` yields each node's copy.  Nodes
    that disagree raise :class:`~repro.errors.SimulationError` naming the
    program; a network without nodes gets ``default``.
    """
    values = iter(values)
    first = next(values, default)
    if any(value != first for value in values):
        raise SimulationError(
            f"{type(program).__name__} needs one {what} at every node"
        )
    return first


def smallest_free_color(values, offsets, sources=None):
    """Per row, the smallest color ``>= 1`` absent from its slots' ``values``.

    The smallest-free-color kernel of every batched coloring program, at
    any palette width: row ``i`` reads ``values[offsets[i]:offsets[i+1]]``
    and gets the minimum excluded color of those values, ignoring anything
    below 1 (uncolored, a ``-1`` drop sentinel, a slot the caller masked
    to 0).  A row of ``d`` slots sees at most ``d`` colors, so its answer
    is at most ``d + 1``.  The rows are the whole fabric's nodes, or the
    compact rows of a frontier (:func:`~repro.local.kernels.compact_segments`).
    ``sources`` is the per-slot row index: pass the fabric's
    ``sources_np()`` when it is at hand, else it is derived from
    ``offsets``.

    The presence table's layout follows the input: a dense ``(n, Δmax+2)``
    table read with one ``argmin`` when it has at most about twice the
    cells of a ragged one, else ragged rows of ``d + 2`` cells (a hub whose
    degree dwarfs the rest).  Clipping values to ``0 .. Δmax+1`` is safe in
    the dense table: cell ``Δmax + 1`` is an answer only when all ``Δmax``
    neighbours hold ``1 .. Δmax``.
    """
    n = len(offsets) - 1
    degrees = np.diff(offsets)
    if sources is None:
        sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
    width = int(degrees.max(initial=0)) + 2
    if n * width <= 2 * (len(values) + 2 * n):
        present = np.zeros((n, width), dtype=bool)
        present[:, 0] = True  # color 0 is never a choice
        present[sources, np.clip(values, 0, width - 1)] = True
        return present.argmin(axis=1)
    # node i's row starts at offsets[i] + 2i: rows before it hold d_j + 2 cells
    row_start = offsets[:-1] + 2 * np.arange(n, dtype=np.int64)
    present = np.zeros(int(offsets[-1]) + 2 * n, dtype=bool)
    present[row_start] = True  # cell 0: color 0 is never a choice
    # values outside 1 .. d+1 land on cell 0, which is already marked
    colors = np.where((values >= 1) & (values <= degrees[sources] + 1), values, 0)
    present[row_start[sources] + colors] = True
    free = np.flatnonzero(~present)
    return free[np.searchsorted(free, row_start)] - row_start
