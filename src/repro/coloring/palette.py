"""The flat palette core: interned colors and bitset-backed list assignments.

Every list-coloring layer of the library ultimately manipulates *sets of
colors*: removing the colors of colored neighbours (Observation 5.1),
restricting an assignment to a vertex subset, truncating lists to the
guaranteed size, picking the smallest available color.  The historical
representation — one ``frozenset[Hashable]`` per vertex — pays hashing and
allocation for every one of those operations, per vertex, per layer.

This module stores the same information flat:

* :class:`PaletteUniverse` interns the (arbitrary, hashable) color values
  of an assignment into dense integers ``0 .. U-1``.  The interning order
  is ``sorted(colors, key=repr)`` — the same deterministic order every
  sequential solver in the library uses for its ``min(available,
  key=repr)`` tie-break — so *the lowest set bit of a color mask is
  exactly the color the dict pipeline would pick*.  That equivalence is
  what makes the vectorized kernels bit-identical to the per-vertex set
  algebra.
* :class:`FlatListAssignment` stores one color *bitmask* per vertex
  (arbitrary-width Python ints, so palettes of any width work) plus, on
  demand, a packed numpy view — one row of ``uint64`` blocks per vertex —
  that the batch kernels (pruning over CSR arrays,
  :meth:`first_free_colors`) operate on.

The legacy :class:`~repro.coloring.assignment.ListAssignment` is a thin
dict view over this backend (lazy ``frozenset`` materialization), so every
existing call site keeps working while the hot paths read the masks.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Hashable

import numpy as np

from repro.errors import ListAssignmentError
from repro.graphs.frozen import FrozenGraph
from repro.graphs.graph import Vertex

Color = Hashable

__all__ = ["Color", "PaletteUniverse", "FlatListAssignment", "first_set_bits", "kth_set_bits"]


class PaletteUniverse:
    """A frozen interning of arbitrary color values to dense integers.

    Colors are ordered by ``repr`` (ties broken by first appearance), so
    bit ``i`` of a mask is the ``i``-th smallest color under the
    ``key=repr`` ordering used by every deterministic tie-break in the
    library.  Instances are immutable and shared freely between derived
    assignments.
    """

    __slots__ = ("colors", "_index")

    def __init__(self, colors: Iterable[Color]):
        seen: dict[Color, None] = {}
        for color in colors:
            seen.setdefault(color, None)
        self.colors: tuple[Color, ...] = tuple(sorted(seen, key=repr))
        self._index: dict[Color, int] = {c: i for i, c in enumerate(self.colors)}

    def __len__(self) -> int:
        return len(self.colors)

    def __contains__(self, color: Color) -> bool:
        return color in self._index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PaletteUniverse size={len(self.colors)}>"

    @property
    def blocks(self) -> int:
        """Number of 64-bit blocks a packed row needs (at least 1)."""
        return max(1, (len(self.colors) + 63) // 64)

    def index_of(self, color: Color) -> int:
        """The dense index of ``color`` (raises ``KeyError`` when unknown)."""
        return self._index[color]

    def get_index(self, color: Color, default: int = -1) -> int:
        return self._index.get(color, default)

    def color_of(self, index: int) -> Color:
        return self.colors[index]

    def encode(self, colors: Iterable[Color], strict: bool = True) -> int:
        """Pack ``colors`` into one mask; unknown colors raise or are ignored."""
        mask = 0
        index = self._index
        if strict:
            for color in colors:
                mask |= 1 << index[color]
        else:
            for color in colors:
                i = index.get(color)
                if i is not None:
                    mask |= 1 << i
        return mask

    def decode(self, mask: int) -> frozenset[Color]:
        """The set of colors whose bits are set in ``mask``."""
        colors = self.colors
        out = []
        while mask:
            low = mask & -mask
            out.append(colors[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)


def first_set_bits(rows):
    """Per-row index of the lowest set bit of a packed ``(k, blocks)`` array.

    Returns an ``int64`` array with ``-1`` for all-zero rows.  This is the
    batch form of the ``min(available, key=repr)`` tie-break: with a
    :class:`PaletteUniverse`'s repr-sorted interning, the lowest set bit of
    an availability mask *is* the color the sequential solvers would pick.
    """
    k, blocks = rows.shape
    result = np.full(k, -1, dtype=np.int64)
    pending = np.arange(k)
    for b in range(blocks):
        col = rows[pending, b]
        nz = col != 0
        if nz.any():
            vals = col[nz]
            low = vals & (np.uint64(0) - vals)  # isolate the lowest bit
            # exact for powers of two up to 2^63 in float64
            bit = np.log2(low.astype(np.float64)).astype(np.int64)
            result[pending[nz]] = bit + 64 * b
        pending = pending[~nz]
        if pending.size == 0:
            break
    return result


def kth_set_bits(rows, k):
    """Per row, the index of the ``k[i]``-th (0-based) set bit of a packed row.

    ``rows`` is a ``(m, blocks)`` uint64 array in the
    :meth:`FlatListAssignment.rows` format and every row must have more
    than ``k[i]`` set bits.  Walking the blocks, a row whose count is not
    used up by the current block's popcount moves on to the next block;
    inside the block that holds the bit, the lowest set bit is cleared as
    often as the count left says, one dense step per count over every
    row.  This is the uniform draw of the randomized programs
    (``k = bits % popcount``).
    """
    word = rows[:, 0].copy()
    remaining = np.array(k, dtype=np.int64)
    block = np.zeros(len(rows), dtype=np.int64)
    for b in range(1, rows.shape[1]):
        count = np.bitwise_count(word)
        later = remaining >= count
        remaining[later] -= count[later]
        block[later] = b
        word[later] = rows[later, b]
    one = np.uint64(1)
    for step in range(int(remaining.max(initial=0))):
        word = np.where(remaining > step, word & (word - one), word)
    low = word & (np.uint64(0) - word)
    return 64 * block + np.bitwise_count(low - one).astype(np.int64)


def _pack_rows(masks: Sequence[int], blocks: int):
    """Pack Python int masks into a ``(len(masks), blocks)`` uint64 array."""
    nbytes = blocks * 8
    buf = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    return np.frombuffer(buf, dtype="<u8").reshape(len(masks), blocks).copy()


class FlatListAssignment:
    """Per-vertex color lists as bitmasks over an interned universe.

    The canonical storage is one arbitrary-width Python int per vertex
    (``masks``), which makes every derivation a handful of C-speed integer
    ops and places no bound on the palette width.  The packed numpy view
    (:meth:`rows`) is built lazily for the batch kernels.

    All derivation methods mirror the semantics of the historical dict
    implementation exactly — including deterministic ordering choices —
    which is what the dict/flat parity suite asserts.
    """

    __slots__ = ("universe", "_vertices", "_vindex", "_masks", "_rows_np")

    def __init__(
        self,
        lists: Mapping[Vertex, Iterable[Color]] | None = None,
        universe: PaletteUniverse | None = None,
    ):
        if lists is None:
            lists = {}
        materialized = {v: tuple(colors) for v, colors in lists.items()}
        if universe is None:
            universe = PaletteUniverse(
                c for colors in materialized.values() for c in colors
            )
        self.universe = universe
        self._vertices: list[Vertex] = list(materialized)
        self._vindex: dict[Vertex, int] = {
            v: i for i, v in enumerate(self._vertices)
        }
        self._masks: list[int] = [
            universe.encode(colors) for colors in materialized.values()
        ]
        self._rows_np = None

    @classmethod
    def from_masks(
        cls,
        universe: PaletteUniverse,
        vertices: Sequence[Vertex],
        masks: Sequence[int],
    ) -> "FlatListAssignment":
        """Build directly from interned masks (no re-encoding)."""
        self = cls.__new__(cls)
        self.universe = universe
        self._vertices = list(vertices)
        self._vindex = {v: i for i, v in enumerate(self._vertices)}
        self._masks = list(masks)
        self._rows_np = None
        return self

    # -- access ---------------------------------------------------------
    def __getitem__(self, v: Vertex) -> frozenset[Color]:
        try:
            i = self._vindex[v]
        except KeyError as exc:
            raise ListAssignmentError(f"vertex {v!r} has no list") from exc
        return self.universe.decode(self._masks[i])

    def __contains__(self, v: Vertex) -> bool:
        return v in self._vindex

    def __iter__(self):
        return iter(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def get(self, v: Vertex, default: frozenset[Color] | None = None) -> frozenset[Color]:
        i = self._vindex.get(v)
        if i is None:
            return frozenset() if default is None else default
        return self.universe.decode(self._masks[i])

    def vertices(self) -> list[Vertex]:
        return list(self._vertices)

    def as_dict(self) -> dict[Vertex, frozenset[Color]]:
        decode = self.universe.decode
        return {v: decode(m) for v, m in zip(self._vertices, self._masks)}

    def mask_of(self, v: Vertex) -> int:
        """The raw bitmask of ``v`` (0 when the vertex has no list)."""
        i = self._vindex.get(v)
        return 0 if i is None else self._masks[i]

    def masks(self) -> list[int]:
        """The raw per-vertex masks, aligned with :meth:`vertices`."""
        return list(self._masks)

    def size_of(self, v: Vertex) -> int:
        return self.mask_of(v).bit_count()

    def minimum_size(self, default: int = 0) -> int:
        """Smallest list size, or ``default`` for a zero-vertex assignment.

        A minimum over no vertices is vacuous, so degenerate instances
        (empty corpus graphs) let the caller pick the identity their
        precondition needs — e.g. the Moser–Tardos sampler asks for
        ``minimum_size(default=1) >= 1`` so a zero-vertex run passes
        while a genuinely empty list still fails.
        """
        if not self._masks:
            return default
        return min(m.bit_count() for m in self._masks)

    def palette(self) -> frozenset[Color]:
        """The union of all lists."""
        union = 0
        for m in self._masks:
            union |= m
        return self.universe.decode(union)

    def rows(self):
        """The packed ``(n, blocks)`` uint64 numpy view (cached)."""
        if self._rows_np is None:
            self._rows_np = _pack_rows(self._masks, self.universe.blocks)
        return self._rows_np

    def rows_for(self, vertices: Sequence[Vertex]):
        """Packed rows aligned with ``vertices`` (missing vertices: zero rows)."""
        rows = self.rows()
        idx = np.asarray(
            [self._vindex.get(v, -1) for v in vertices], dtype=np.int64
        )
        out = np.zeros((len(idx), rows.shape[1]), dtype=np.uint64)
        present = idx >= 0
        out[present] = rows[idx[present]]
        return out

    # -- derivation -----------------------------------------------------
    def restrict(self, vertices: Iterable[Vertex]) -> "FlatListAssignment":
        """The assignment restricted to the given vertices (missing ones dropped)."""
        keep = set(vertices)
        kept = [
            (v, m) for v, m in zip(self._vertices, self._masks) if v in keep
        ]
        return FlatListAssignment.from_masks(
            self.universe, [v for v, _ in kept], [m for _, m in kept]
        )

    def without_colors(
        self, removals: Mapping[Vertex, Iterable[Color]]
    ) -> "FlatListAssignment":
        """Remove, per vertex, the given colors (unknown colors are no-ops)."""
        masks = list(self._masks)
        encode = self.universe.encode
        vindex = self._vindex
        for v, colors in removals.items():
            i = vindex.get(v)
            if i is not None:
                masks[i] &= ~encode(colors, strict=False)
        return FlatListAssignment.from_masks(self.universe, self._vertices, masks)

    def pruned_by_coloring(
        self, graph, coloring: Mapping[Vertex, Color]
    ) -> "FlatListAssignment":
        """Remove from each uncolored vertex the colors of its colored neighbours.

        Observation 5.1.  Colored vertices are dropped from the result.  On
        a :class:`~repro.graphs.frozen.FrozenGraph` of at least 64 vertices
        with a one-block palette the pruning runs as one vectorized pass
        over the CSR arrays; otherwise it walks neighbourhoods with integer
        mask ops.
        """
        if (
            isinstance(graph, FrozenGraph)
            and self.universe.blocks == 1
            and len(graph) >= 64
        ):
            return self._pruned_csr(graph, coloring)
        get_index = self.universe.get_index
        out_vertices: list[Vertex] = []
        out_masks: list[int] = []
        for v, mask in zip(self._vertices, self._masks):
            if v in coloring:
                continue
            used = 0
            for u in graph.neighbors(v):
                if u in coloring:
                    i = get_index(coloring[u])
                    if i >= 0:
                        used |= 1 << i
            out_vertices.append(v)
            out_masks.append(mask & ~used)
        return FlatListAssignment.from_masks(self.universe, out_vertices, out_masks)

    def _pruned_csr(self, graph: FrozenGraph, coloring) -> "FlatListAssignment":
        """One-block vectorized pruning over a frozen graph's CSR arrays."""
        n = len(graph)
        index_of = graph.index_of
        get_index = self.universe.get_index
        color_idx = np.full(n, -1, dtype=np.int64)
        for v, color in coloring.items():
            i = graph._index.get(v)
            if i is not None:
                color_idx[i] = get_index(color)
        offsets, neighbors = graph.csr_arrays()
        nbr_colors = color_idx[neighbors]
        bits = np.where(
            nbr_colors >= 0,
            np.left_shift(
                np.uint64(1), nbr_colors.clip(min=0).astype(np.uint64)
            ),
            np.uint64(0),
        )
        used = _segment_or(bits, offsets)
        out_vertices: list[Vertex] = []
        out_idx: list[int] = []
        for v in self._vertices:
            if v in coloring:
                continue
            out_vertices.append(v)
            out_idx.append(index_of(v))
        masks = self.rows()[:, 0]
        own = np.asarray(
            [self._vindex[v] for v in out_vertices], dtype=np.int64
        )
        gathered = np.asarray(out_idx, dtype=np.int64)
        pruned = masks[own] & ~used[gathered]
        return FlatListAssignment.from_masks(
            self.universe, out_vertices, [int(x) for x in pruned]
        )

    def truncated(self, size: int) -> "FlatListAssignment":
        """Keep only the ``size`` lowest bits per list (= smallest by repr).

        ``size`` must be non-negative — a negative truncation silently
        emptying every list is exactly the kind of vacuous-witness bug the
        conformance oracles exist to catch, so it raises instead.
        """
        if size < 0:
            from repro.errors import ListAssignmentError

            raise ListAssignmentError(
                f"cannot truncate lists to negative size {size}"
            )
        out = []
        for mask in self._masks:
            if mask.bit_count() > size:
                kept = 0
                m = mask
                for _ in range(size):
                    low = m & -m
                    kept |= low
                    m ^= low
                out.append(kept)
            else:
                out.append(mask)
        return FlatListAssignment.from_masks(self.universe, self._vertices, out)

    #: batch size above which first_free_colors packs rows and vectorizes
    _VECTORIZE_BATCH = 32

    def first_free_colors(
        self, vertices: Sequence[Vertex], used_masks: Sequence[int]
    ) -> list[Color]:
        """Batch tie-break kernel: smallest available color per vertex.

        ``used_masks[i]`` is the mask of colors forbidden for
        ``vertices[i]``; the result is ``min(L(v) - used, key=repr)`` for
        every vertex.  Large batches gather the packed rows and extract
        the lowest set bits in one :func:`first_set_bits` pass; small ones
        stay on integer ops.  Raises :class:`ListAssignmentError` when
        some vertex has no color left (the caller names the invariant
        that broke).
        """
        if len(vertices) != len(used_masks):
            # both code paths must reject this the same way: the scalar
            # zip would silently truncate, the packed path would die in a
            # shape broadcast — neither is a usable contract
            raise ListAssignmentError(
                f"{len(vertices)} vertices but {len(used_masks)} used masks"
            )
        color_of = self.universe.color_of
        if len(vertices) >= self._VECTORIZE_BATCH:
            rows = self.rows_for(vertices)
            used = _pack_rows([int(m) for m in used_masks], self.universe.blocks)
            bits = first_set_bits(rows & ~used)
            out = []
            for v, bit in zip(vertices, bits):
                if bit < 0:
                    raise ListAssignmentError(
                        f"vertex {v!r} has no available color left"
                    )
                out.append(color_of(int(bit)))
            return out
        out = []
        for v, used_mask in zip(vertices, used_masks):
            free = self.mask_of(v) & ~used_mask
            if not free:
                raise ListAssignmentError(
                    f"vertex {v!r} has no available color left"
                )
            out.append(color_of((free & -free).bit_length() - 1))
        return out

    # -- validation -----------------------------------------------------
    def require_minimum(self, graph, k: int) -> None:
        """Raise unless every vertex of ``graph`` has a list of size >= k."""
        for v in graph:
            if self.size_of(v) < k:
                raise ListAssignmentError(
                    f"vertex {v!r} has a list of size {self.size_of(v)} < {k}"
                )

    def covers(self, graph) -> bool:
        """Whether every vertex of ``graph`` has a (possibly empty) list."""
        vindex = self._vindex
        return all(v in vindex for v in graph)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FlatListAssignment |V|={len(self._vertices)} "
            f"U={len(self.universe)} min|L|={self.minimum_size()}>"
        )


def _segment_or(values, offsets):
    """Per-segment bitwise OR of a uint64 array (empty segments give 0)."""
    n = len(offsets) - 1
    out = np.zeros(n, dtype=np.uint64)
    if n == 0 or len(values) == 0:
        return out
    starts = np.asarray(offsets[:-1])
    ends = np.asarray(offsets[1:])
    nonempty = np.flatnonzero(starts != ends)
    if nonempty.size:
        out[nonempty] = np.bitwise_or.reduceat(values, starts[nonempty])
    return out
