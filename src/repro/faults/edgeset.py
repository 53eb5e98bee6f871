"""The dynamic edge set of a fault run: one sorted array of packed keys.

Both directions of every edge on the vertex indices ``0..n-1`` are
``(i << shift) | j`` keys, packed as
:func:`~repro.graphs.frozen._sorted_pair_keys` packs them.  Sorted by
``(i, j)``, the keys are a CSR in disguise, split the way
:meth:`FrozenGraph.from_edge_array
<repro.graphs.frozen.FrozenGraph.from_edge_array>` splits them, and key
``k`` is fabric slot ``k``.  An edit splices an edge's two keys in or out
with no Python loop over the vertices.  The network, the plan's
projection and the recovery replay each keep one.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError

__all__ = ["EdgeSet"]


class EdgeSet:
    """A simple undirected graph on ``0..n-1``; callers pass indices in range."""

    __slots__ = ("n", "shift", "keys", "_ends")

    def __init__(self, n: int, keys, shift: int) -> None:
        self.n = n
        self.shift = shift
        self.keys = keys
        # _ends[i]: the edges {a, b}, a < b, with a <= i; built by the first
        # edge(k) and kept up to date by the edits after it
        self._ends = None

    @classmethod
    def from_csr(cls, offsets, neighbors) -> "EdgeSet":
        """The edges of a CSR pair whose sorted rows list every edge both ways.

        The rows are in ``(i, j)`` order already, so the keys need no sort.
        """
        n = len(offsets) - 1
        shift = max(n - 1, 0).bit_length()
        if 2 * shift > 63:
            raise GraphError(f"{n} vertices do not fit in 63-bit edge keys")
        keys = np.repeat(np.arange(n, dtype=np.int64) << shift, np.diff(offsets))
        keys |= neighbors
        return cls(n, keys, shift)

    def copy(self) -> "EdgeSet":
        return EdgeSet(self.n, self.keys.copy(), self.shift)

    def __len__(self) -> int:
        """The number of edges (each is two keys)."""
        return len(self.keys) // 2

    def slot(self, i: int, j: int) -> int | None:
        """The position of key ``(i, j)``, None when ``{i, j}`` is no edge."""
        key = i << self.shift | j
        pos = int(np.searchsorted(self.keys, key))
        return pos if pos < len(self.keys) and self.keys[pos] == key else None

    def contains(self, i: int, j: int) -> bool:
        return i != j and self.slot(i, j) is not None

    def insert(self, i: int, j: int) -> bool:
        """Add ``{i, j}``; False for a loop or an edge already there."""
        lo, hi = min(i, j), max(i, j)
        if lo == hi or self.slot(lo, hi) is not None:
            return False
        keys, shift = self.keys, self.shift
        key, twin = lo << shift | hi, hi << shift | lo  # key < twin
        pos, twin_pos = np.searchsorted(keys, (key, twin)).tolist()
        self.keys = np.concatenate(
            (keys[:pos], [key], keys[pos:twin_pos], [twin], keys[twin_pos:])
        )
        if self._ends is not None:
            self._ends[lo:] += 1
        return True

    def delete(self, i: int, j: int) -> bool:
        """Remove ``{i, j}``; False when it is not an edge."""
        lo, hi = min(i, j), max(i, j)
        pos = None if lo == hi else self.slot(lo, hi)
        if pos is None:
            return False
        keys, twin_pos = self.keys, self.slot(hi, lo)
        self.keys = np.concatenate(
            (keys[:pos], keys[pos + 1:twin_pos], keys[twin_pos + 1:])
        )
        if self._ends is not None:
            self._ends[lo:] -= 1
        return True

    def edge(self, k: int) -> tuple[int, int]:
        """The ``k``-th edge ``(i, j)``, ``i < j``, in ascending ``(i, j)`` order."""
        keys, shift = self.keys, self.shift
        if self._ends is None:
            high, low = keys >> shift, keys & ((1 << shift) - 1)
            self._ends = np.cumsum(np.bincount(high[high < low], minlength=self.n))
        i = int(np.searchsorted(self._ends, k, side="right"))
        # row i's keys above i end the row: the k-th edge is the
        # (ends[i] - k)-th key from the row's end
        row_end = int(np.searchsorted(keys, (i + 1) << shift))
        return i, int(keys[row_end - int(self._ends[i]) + k]) & ((1 << shift) - 1)

    def split(self):
        """The CSR ``(offsets, neighbors)`` of the set, as ``int64`` arrays."""
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.keys >> self.shift, minlength=self.n),
                  out=offsets[1:])
        return offsets, self.keys & ((1 << self.shift) - 1)

    def pairs(self):
        """Every edge once, as index arrays ``(i, j)`` with ``i < j``."""
        high, low = self.keys >> self.shift, self.keys & ((1 << self.shift) - 1)
        upper = high < low
        return high[upper], low[upper]
