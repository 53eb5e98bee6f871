"""Randomized track: Moser–Tardos list coloring + O(log n) randomized Δ+1.

Two randomized counterparts to the deterministic Theorem 1.3 pipeline,
grounded in "A local lemma via entropy compression" (Alves–Procacci–
Sanchis, PAPERS.md):

* :func:`moser_tardos_list_coloring` — the entropy-compression resampler
  for list coloring.  Every vertex samples a color from its
  :class:`~repro.coloring.palette.FlatListAssignment` mask; violated
  events (monochromatic edges) are detected vectorized over the CSR, the
  violated vertex set is resampled, and the *record log* — the sequence
  of resampled sets — is returned as a replayable witness.  The
  entropy-compression argument is exactly that this log plus the final
  state determine the random bits consumed, so an auditor
  (:class:`repro.verify.randomized.ResampleLogOracle`) can replay the
  run bit-for-bit and reject any doctored log.

* :class:`RandomizedDeltaPlusOne` / :class:`BatchRandomizedDeltaPlusOne`
  — the classic O(log n)-round trial-color + conflict-retreat (Δ+1)-
  coloring as a genuine node program.  Each round every uncolored vertex
  draws a uniform color from its remaining palette and keeps it unless a
  neighbour announced the same value; committed vertices broadcast their
  final color once and fall silent.  The batched twin sends a
  broadcast that names its senders and decides over its uncolored
  nodes' slots only, so per-round cost tracks the geometrically
  shrinking uncolored frontier.

**Counter-based randomness.**  All draws come from a vectorized
Philox-4x64-10 keyed by ``(seed, node_id)`` with the round (or resample
step) as the counter — bit-identical to ``numpy.random.Philox`` (the
parity is pinned by the test suite).  Because the bits depend only on
``(seed, node_id, round)`` and never on iteration order, the per-node
and batched engines — and the per-vertex Moser–Tardos loop the test
suite keeps as the resampler's reference — all consume the same
randomness and therefore produce bit-identical colorings, round counts
and resample logs from the same seed — the four-engine parity discipline
of ``tests/test_kernel_parity.py`` extended to randomized programs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from repro.coloring.palette import (
    FlatListAssignment,
    ListAssignmentError,
    _pack_rows,
    kth_set_bits,
)
from repro.graphs.frozen import GraphLike, freeze
from repro.local import kernels
from repro.local.network import Network
from repro.local.node import (
    BatchContext,
    BatchNodeAlgorithm,
    NodeAlgorithm,
    NodeContext,
    segment_reduce,
)
from repro.local.simulator import run_node_algorithm

__all__ = [
    "philox4x64",
    "counter_rng",
    "counter_rng_one",
    "RandomizedDeltaPlusOne",
    "BatchRandomizedDeltaPlusOne",
    "RandomizedColoringResult",
    "randomized_delta_plus_one_coloring",
    "ResampleStep",
    "ResampleLimitError",
    "MoserTardosResult",
    "moser_tardos_list_coloring",
    "resample_log_digest",
]


# -- counter-based RNG kernel ---------------------------------------------

_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: second key word: a fixed domain-separation salt so repo streams never
#: collide with other Philox users of the same seed
KEY_SALT = 0x726570726F2D7231  # b"repro-r1"


def _mulhilo(a, b):
    """128-bit product of uint64 values as a ``(hi, lo)`` pair.

    ``lo`` is the wrapped product.  ``hi`` sums ``a_hi*b_hi``, the high
    halves of the two cross products and the carry out of the middle
    column.  That column holds ``s*2^32 + a_lo*b_lo``, ``s`` being the sum
    of the cross products' low halves, so its carry is ``s >> 32`` plus
    one exactly when ``lo``'s high half wrapped below ``s``'s low half:
    ``a_lo*b_lo`` is never formed.  The three products and the sums are
    updated in place.
    """
    mask32 = np.uint64(0xFFFFFFFF)
    s32 = np.uint64(32)
    a_lo = a & mask32
    a_hi = a >> s32
    lo = a * b
    cross = b & mask32
    cross *= a_hi
    hi = b >> s32
    cross2 = hi * a_lo
    hi *= a_hi
    hi += cross >> s32
    hi += cross2 >> s32
    cross &= mask32
    cross2 &= mask32
    cross += cross2
    hi += cross >> s32
    cross &= mask32
    hi += (lo >> s32) < cross
    return hi, lo


def philox4x64(counter0, counter1, counter2, counter3, key0, key1):
    """Vectorized Philox-4x64 (10 rounds) over uint64 arrays.

    Bit-identical to the block function of ``numpy.random.Philox`` (numpy
    pre-increments the counter before its first block, which the parity
    test accounts for).  All inputs broadcast; returns the four output
    lanes as uint64 arrays.  A scalar counter word stays a scalar until a
    round mixes an array into it, so the constant words cost no array
    products.
    """
    with np.errstate(over="ignore"):
        x0 = np.asarray(counter0, dtype=np.uint64)
        x1 = np.asarray(counter1, dtype=np.uint64)
        x2 = np.asarray(counter2, dtype=np.uint64)
        x3 = np.asarray(counter3, dtype=np.uint64)
        k0 = np.asarray(key0, dtype=np.uint64)
        k1 = np.asarray(key1, dtype=np.uint64)
        m0 = np.uint64(_PHILOX_M0)
        m1 = np.uint64(_PHILOX_M1)
        w0 = np.uint64(_PHILOX_W0)
        w1 = np.uint64(_PHILOX_W1)
        for i in range(10):
            if i > 0:
                k0 = k0 + w0
                k1 = k1 + w1
            hi0, lo0 = _mulhilo(m0, x0)
            hi1, lo1 = _mulhilo(m1, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        return x0, x1, x2, x3


#: node ids per Philox pass in :func:`counter_rng`: the pass's temporaries
#: then stay in cache (on a 2-core VM, one pass over 1M ids took 2.7x as long)
_RNG_CHUNK = 1 << 14


def counter_rng(seed: int, node_ids, round_number: int):
    """One uint64 per node for ``(seed, node_id, round_number)``.

    Key = ``(seed, salt)``, counter = ``(round, node_id, 0, 0)``: a pure
    function of the triple, so any engine — per-node or batched, in any
    visitation order — derives the identical draw for a node and round.
    The round and the two zero words go in as scalars, and the ids in
    chunks of ``_RNG_CHUNK``.
    """
    ids = np.asarray(node_ids, dtype=np.uint64)
    lane0 = np.empty(ids.shape, dtype=np.uint64)
    flat_ids, flat_lane0 = ids.reshape(-1), lane0.reshape(-1)
    counter = np.uint64(round_number & _MASK64)
    zero = np.uint64(0)
    key0 = np.uint64(int(seed) & _MASK64)
    key1 = np.uint64(KEY_SALT)
    for start in range(0, flat_ids.size, _RNG_CHUNK):
        part = slice(start, start + _RNG_CHUNK)
        flat_lane0[part] = philox4x64(
            counter, flat_ids[part], zero, zero, key0, key1
        )[0]
    return lane0


def counter_rng_one(seed: int, node_id: int, round_number: int) -> int:
    """Scalar convenience form of :func:`counter_rng` (a Python int)."""
    return int(counter_rng(seed, [int(node_id)], round_number)[0])


def _kth_set_bit_scalar(mask: int, k: int) -> int:
    """Index of the ``k``-th (0-based, ascending) set bit of ``mask``."""
    for _ in range(k):
        mask &= mask - 1
    low = mask & -mask
    return low.bit_length() - 1


# -- randomized (Δ+1)-coloring: trial-color + conflict-retreat ------------


class RandomizedDeltaPlusOne(NodeAlgorithm):
    """Per-node randomized (Δ+1)-coloring.

    Input (per node): ``(seed, delta)``.  Output: a color in
    ``{1..Δ+1}``.  Protocol per round, for an uncolored node: draw a
    uniform color from the remaining palette (bits keyed by
    ``(seed, identifier, round)``), announce it on every port, and keep
    it unless any neighbour announced the same |value| this round.  A
    node that keeps its color announces ``-color`` once the next round
    (so neighbours prune their palettes) and then terminates.  Retreat is
    symmetric — two clashing neighbours both redraw — so the committed
    partial coloring is proper by construction.
    """

    def initialize(self, context: NodeContext) -> None:
        super().initialize(context)
        seed, delta = context.input
        self.seed = int(seed)
        self.delta = int(delta)
        # colors are bit indices 1..delta+1 (bit 0 unused, matching the
        # {1..Δ+1} palette convention of the deterministic baselines)
        self.avail = ((1 << (self.delta + 1)) - 1) << 1
        self.color = 0
        self.trial = 0
        self.pending = False  # colored; the one final broadcast still owed
        self.done = False
        self.colored_round: int | None = None

    def send(self, round_number: int) -> dict[int, Any]:
        if self.done:
            return {}
        degree = self.context.degree
        if self.pending:
            return {port: -self.color for port in range(degree)}
        bits = counter_rng_one(self.seed, self.context.identifier, round_number)
        count = self.avail.bit_count()
        self.trial = _kth_set_bit_scalar(self.avail, bits % count)
        return {port: self.trial for port in range(degree)}

    def receive(self, round_number: int, messages: dict[int, Any]) -> None:
        if self.done:
            return
        if self.pending:
            self.pending = False
            self.done = True
            return
        values = messages.values()
        conflict = False
        for value in values:
            if value < 0:
                self.avail &= ~(1 << -value)
            if abs(value) == self.trial:
                conflict = True
        if conflict:
            return  # retreat: redraw from the (possibly pruned) palette
        self.color = self.trial
        self.colored_round = round_number
        self.pending = True

    def is_finished(self) -> bool:
        return self.done

    def result(self) -> int:
        return self.color


class BatchRandomizedDeltaPlusOne(BatchNodeAlgorithm):
    """Batched twin of :class:`RandomizedDeltaPlusOne`.

    A broadcast program whose rounds name their senders: each
    :meth:`send_batch` returns the per-node value array (the trial color
    of every uncolored node, ``-color`` for the just-committed nodes
    owing their final broadcast, 0 for the finished ones) with those two
    sets as the senders, so the engine charges exactly the degrees the
    per-node program's ledger charges.  The uncolored and pending nodes
    are index arrays, and only the uncolored draw.  Palettes are packed
    ``(n, blocks)`` uint64 rows (the :class:`FlatListAssignment` row
    format; color ``c`` is bit ``c & 63`` of block ``c >> 6``) and the
    draw is :func:`~repro.coloring.palette.kth_set_bits`, so any Δ works.

    Every node decides on the receiving side, over the uncolored nodes'
    slots only.  :meth:`receive_broadcast` keeps the far ends of those
    slots, node by node, and reads each round's values through them with
    one gather per slot, then drops the slots of the nodes that commit;
    so a round costs what its frontier costs.  :meth:`receive_batch` is
    the unfused reference: it reads the same slots out of the delivered
    inbox.

    ``frontier_log[r-1]`` records the uncolored count at round ``r``'s
    send — the conflict-set trace consumed by
    :class:`repro.verify.randomized.RandomizedRoundsOracle`.
    """

    def initialize_batch(self, context: BatchContext) -> None:
        super().initialize_batch(context)
        n = context.n
        seed = delta = 0
        for item in context.inputs:
            if item is not None:
                seed, delta = int(item[0]), int(item[1])
                break
        self.seed = seed
        self.delta = delta
        full = ((1 << (delta + 1)) - 1) << 1
        blocks = (delta + 1) // 64 + 1
        self.avail = np.repeat(_pack_rows([full], blocks), n, axis=0)
        self.colors = np.zeros(n, dtype=np.int64)
        self.values = np.zeros(n, dtype=np.int64)  # what each node broadcasts
        self.uncolored = np.arange(n, dtype=np.int64)
        self.pending = np.empty(0, dtype=np.int64)
        # the far ends of the uncolored nodes' slots, and their degrees
        self._far = context.endpoints
        self._degrees = context.degrees
        self.done = n == 0
        self.frontier_log: list[int] = []

    def send_batch(self, round_number: int):
        uncolored = self.uncolored
        self.frontier_log.append(int(uncolored.size))
        if uncolored.size:
            bits = counter_rng(
                self.seed, self.context.identifiers[uncolored], round_number
            )
            rows = self.avail[uncolored]
            k = (bits % np.bitwise_count(rows).sum(axis=1)).astype(np.int64)
            self.values[uncolored] = kth_set_bits(rows, k)
        return self.values, np.concatenate((uncolored, self.pending))

    def receive_broadcast(self, round_number: int, sent) -> None:
        far, degrees = self._far, self._degrees
        conflict, clear = self._decide(sent[0][far], degrees)
        self._far = far[np.repeat(conflict, degrees)]
        self._degrees = degrees[conflict]
        self._settle(conflict, clear)

    def receive_batch(self, round_number: int, inbox, delivered) -> None:
        slots, offsets = kernels.compact_segments(
            self.context.offsets, self.uncolored
        )
        heard = inbox[slots]
        if delivered is not None:
            heard[~delivered[slots]] = 0  # a silent slot carries nothing
        self._settle(*self._decide(heard, np.diff(offsets)))

    def _decide(self, heard, degrees):
        """Conflicts and palette prunes of the uncolored nodes.

        ``heard`` is what arrived on the uncolored nodes' slots, node by
        node, ``degrees`` how many slots each has.  A node conflicts when
        a neighbour announced its trial color, as a trial or as a final
        ``-color``; every final color a node hears leaves its palette.
        Returns the conflict mask and the ``(len, blocks)`` bits to clear.
        """
        offsets = np.zeros(len(degrees) + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        trial = self.values[self.uncolored]
        hit = np.abs(heard) == np.repeat(trial, degrees)
        conflict = segment_reduce(np.logical_or, hit, offsets, False, np.bool_)
        # the final colors heard; 0 (a bit no palette holds) elsewhere
        final = np.maximum(-heard, 0).view(np.uint64)
        clear = np.empty((len(degrees), self.avail.shape[1]), dtype=np.uint64)
        for b in range(clear.shape[1]):
            # block b's bits: a color outside the block is shifted past bit
            # 63 (a color below it wraps as an unsigned difference), and
            # numpy's left_shift gives 0 there
            bits = final - np.uint64(64 * b)
            np.left_shift(np.uint64(1), bits, out=bits)
            clear[:, b] = segment_reduce(np.bitwise_or, bits, offsets, 0, np.uint64)
        return conflict, clear

    def _settle(self, conflict, clear) -> None:
        """Commit the uncolored nodes without a conflict; prune the rest."""
        uncolored = self.uncolored
        values = self.values
        commit = uncolored[~conflict]
        values[self.pending] = 0  # their final broadcast went out this round
        self.colors[commit] = values[commit]
        values[commit] = -values[commit]
        self.pending = commit
        self.uncolored = still = uncolored[conflict]
        self.avail[still] &= ~clear[conflict]
        self.done = still.size == 0 and commit.size == 0

    def is_finished_batch(self) -> bool:
        return self.done

    def results_batch(self) -> np.ndarray:
        return self.colors.copy()


@dataclass(frozen=True)
class RandomizedColoringResult:
    """Outcome of one randomized (Δ+1)-coloring run.

    ``frontier[r-1]`` is the number of uncolored vertices entering round
    ``r`` — the per-round conflict-set trace the rounds oracle audits
    (non-increasing, drains to 0, O(log n) length).
    """

    coloring: Mapping[Any, int]
    rounds: int
    messages: int
    palette_size: int
    frontier: tuple[int, ...]
    seed: int


def default_round_cap(n: int) -> int:
    """A generous non-termination guard: far above the whp O(log n)."""
    return 48 * max(1, int(n).bit_length()) + 96


def randomized_delta_plus_one_coloring(
    graph: GraphLike,
    *,
    seed: int,
    network: Network | None = None,
    max_rounds: int | None = None,
) -> RandomizedColoringResult:
    """Run the randomized (Δ+1)-coloring and return coloring + trace.

    The run is one :class:`BatchRandomizedDeltaPlusOne` program, whose
    ``frontier_log`` is the frontier trace; by the counter-based RNG
    contract the per-node :class:`RandomizedDeltaPlusOne` gives the same
    coloring, rounds and message counts for the same ``seed``, which the
    parity suites check.  The coloring is the engine's
    :class:`~repro.local.simulator.LazyOutputs` view.  A run that hits
    ``max_rounds`` raises :class:`~repro.errors.NonTerminationError`
    rather than return a partial coloring (uncolored vertices would read
    0).
    """
    if graph.number_of_vertices() == 0:
        return RandomizedColoringResult({}, 0, 0, 1, (), int(seed))
    if network is None:
        graph = freeze(graph)
        network = Network(graph)
    else:
        graph = network.graph
    delta = max(1, graph.max_degree())
    if max_rounds is None:
        max_rounds = default_round_cap(graph.number_of_vertices())
    program = BatchRandomizedDeltaPlusOne()
    run = run_node_algorithm(
        graph,
        lambda: program,
        inputs=[(int(seed), delta)] * len(network.labels),
        max_rounds=max_rounds,
        strict=True,
        network=network,
    )
    return RandomizedColoringResult(
        coloring=run.outputs,
        rounds=run.rounds,
        messages=run.messages_sent,
        palette_size=delta + 1,
        frontier=tuple(program.frontier_log),
        seed=int(seed),
    )


# -- Moser–Tardos entropy-compression resampler ---------------------------


class ResampleLimitError(RuntimeError):
    """The resampler exceeded its step budget without converging."""


@dataclass(frozen=True)
class ResampleStep:
    """One entry of the entropy-compression record log.

    ``vertices`` are positions in the frozen graph's vertex order — the
    violated set (every endpoint of a monochromatic edge) resampled at
    this step.
    """

    step: int
    vertices: tuple[int, ...]


def resample_log_digest(log: Iterable[ResampleStep], *, seed: int) -> str:
    """Canonical digest of a resample log (seed + every violated set)."""
    h = hashlib.sha256()
    h.update(f"seed={int(seed)}".encode())
    for entry in log:
        h.update(
            f"|{entry.step}:{','.join(str(v) for v in entry.vertices)}".encode()
        )
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class MoserTardosResult:
    """Final coloring plus the replayable entropy-compression witness."""

    coloring: dict[Any, Any]
    steps: int
    log: tuple[ResampleStep, ...]
    seed: int

    def log_digest(self) -> str:
        return resample_log_digest(self.log, seed=self.seed)


def _as_flat_lists(lists) -> FlatListAssignment:
    if isinstance(lists, FlatListAssignment):
        return lists
    if hasattr(lists, "as_dict"):
        lists = lists.as_dict()
    return FlatListAssignment(dict(lists))


def moser_tardos_list_coloring(
    graph: GraphLike,
    lists,
    *,
    seed: int,
    max_steps: int | None = None,
) -> MoserTardosResult:
    """Moser–Tardos resampling until no monochromatic edge remains.

    Step 0 samples every vertex independently and uniformly from its
    list; step ``t >= 1`` recomputes the violated set (all endpoints of
    monochromatic edges), records it in the log, and resamples exactly
    those vertices with fresh ``(seed, node_id, t)`` bits.  Detection and
    draws run vectorized over the frozen CSR and the packed list rows, at
    any universe width.
    """
    graph = freeze(graph)
    n = graph.number_of_vertices()
    flat = _as_flat_lists(lists)
    if n == 0:
        # zero-vertex instance: a vacuous success, and the well-defined
        # minimum_size(default=...) keeps the precondition below vacuous
        return MoserTardosResult({}, 0, (), int(seed))
    if not flat.covers(graph):
        missing = next(v for v in graph if v not in flat)
        raise ListAssignmentError(f"vertex {missing!r} has no list")
    vertices = graph.vertices()
    masks = [flat.mask_of(v) for v in vertices]
    # minimum_size(default=1) keeps the precondition vacuous on the
    # zero-vertex restriction while still rejecting genuinely empty lists
    if flat.restrict(vertices).minimum_size(default=1) < 1:
        empty_at = next(v for v, m in zip(vertices, masks) if m == 0)
        raise ListAssignmentError(f"vertex {empty_at!r} has an empty list")
    if max_steps is None:
        max_steps = 64 + 16 * n
    rows = _pack_rows(masks, flat.universe.blocks)
    colors, log = _mt_flat(graph, rows, int(seed), max_steps)
    color_of = flat.universe.color_of
    coloring = {v: color_of(int(bit)) for v, bit in zip(vertices, colors)}
    return MoserTardosResult(
        coloring=coloring,
        steps=len(log),
        log=tuple(log),
        seed=int(seed),
    )


def _mt_flat(graph, rows, seed, max_steps):
    """Vectorized Moser–Tardos core over the frozen CSR and packed list rows."""
    n = graph.number_of_vertices()
    offsets, endpoints = graph.csr_arrays()
    offsets = np.asarray(offsets, dtype=np.int64)
    endpoints = np.asarray(endpoints, dtype=np.int64)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    counts = np.bitwise_count(rows).sum(axis=1)

    def draw(idx, step):
        bits = counter_rng(seed, (idx + 1).astype(np.uint64), step)
        k = (bits % counts[idx]).astype(np.int64)
        return kth_set_bits(rows[idx], k)

    everyone = np.arange(n, dtype=np.int64)
    colors = draw(everyone, 0)
    log = []
    step = 0
    while True:
        mono = colors[sources] == colors[endpoints]
        violated = np.unique(sources[mono])
        if violated.size == 0:
            return colors.tolist(), log
        step += 1
        if step > max_steps:
            raise ResampleLimitError(
                f"no proper list coloring after {max_steps} resample steps"
            )
        log.append(ResampleStep(step, tuple(int(v) for v in violated)))
        colors[violated] = draw(violated, step)
