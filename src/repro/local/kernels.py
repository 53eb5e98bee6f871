"""Fused single-pass round kernels for the flat data plane.

The synchronous round engine historically made three passes over the
:class:`~repro.local.network.RoutingFabric` per round: *send* (gather
per-slot payloads from node state), *deliver* (permute by
``reverse_slot``), *receive* (segment-reduce into node state).  The
kernels here collapse the first two passes into one:

``sources[reverse_slot] == endpoints``
    so for broadcast rounds (every port of a node carries the same
    value, which holds for every dense round a batched program sends) the
    send-gather followed by the reverse-permutation is a *single* gather
    by ``endpoints``::

        values[k] = node_values[sources[k]]     # send pass
        inbox[k]  = values[reverse_slot[k]]     # deliver pass
                  = node_values[endpoints[k]]   # fused

This module is the only place that identity is exploited; everything
above it (the simulator and the batched node programs)
talks in terms of :func:`gather`, :func:`deliver_broadcast_from` and
:func:`compact_segments`.  ``tests/test_kernel_parity.py`` pins them
against plain Python loops and :func:`reference_broadcast`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gather",
    "deliver_broadcast_from",
    "compact_segments",
    "reference_broadcast",
]


def gather(values, index, out=None):
    """``out[k] = values[index[k]]`` — the fused send+deliver pass.

    With ``index = endpoints`` this delivers a broadcast round in one
    gather.  ``out`` is an optional preallocated buffer
    (reused across rounds by the engine); it is only used when dtypes
    match, so callers may pass it unconditionally.
    """
    if out is not None and out.dtype == values.dtype and out.shape == index.shape:
        return np.take(values, index, out=out)
    return values[index]


def compact_segments(offsets, active):
    """Slot indices + compact offsets for an active subset of nodes.

    Given the CSR ``offsets`` of the fabric and a sorted array of
    ``active`` node indices, returns ``(slots, compact_offsets)`` where
    ``slots`` lists every port-slot owned by an active node (in slot
    order within each node) and ``compact_offsets`` is the CSR offsets
    of those slots *within the compact array* — ready for
    ``segment_reduce`` over just the active rows: the greedy baseline's
    winners, randomized Δ+1's uncolored nodes in its unfused reference.
    """
    starts = offsets[active]
    counts = offsets[active + 1] - starts
    compact_offsets = np.empty(len(active) + 1, dtype=np.int64)
    compact_offsets[0] = 0
    np.cumsum(counts, out=compact_offsets[1:])
    total = int(compact_offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), compact_offsets
    slots = np.repeat(starts - compact_offsets[:-1], counts)
    slots += np.arange(total, dtype=np.int64)
    return slots, compact_offsets


def deliver_broadcast_from(
    node_values, senders, endpoints, inbox_out=None, delivered_out=None
):
    """Deliver a broadcast round in which only ``senders`` speak.

    Returns ``(inbox, delivered)``: every slot gets the value of the node
    on its other side (the fused endpoint gather), and ``delivered[k]``
    says whether that node is among ``senders`` (an index array).
    """
    speaks = np.zeros(len(node_values), dtype=np.bool_)
    speaks[senders] = True
    inbox = gather(node_values, endpoints, out=inbox_out)
    return inbox, gather(speaks, endpoints, out=delivered_out)


def reference_broadcast(node_values, sources, reverse):
    """The unfused three-pass delivery of a broadcast round.

    Materializes the per-slot send values (``node_values[sources]``)
    and permutes them by ``reverse_slot`` — exactly what the historical
    engine did.  Kept as the oracle for the fused path: the parity
    suite asserts ``reference_broadcast(...) == gather(node_values,
    endpoints)`` element-for-element on every instance.
    """
    values = node_values[sources]
    return values[reverse]
