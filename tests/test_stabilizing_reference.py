"""The batched stabilizers' frontier rules against the full-fabric rules.

``BatchStabilizingGreedy.receive_batch`` and
``BatchMinPlusOneRecoloring.receive_batch`` read the whole inbox once, with
one slot compare, to find the nodes in conflict; only the rows of the
nodes that can move (the uncolored candidates and their winners, the
dirty contenders and the enabled ones) then feed the rival test and the
smallest free color.  The rules they replaced decided every node from a
segmented reduction and a smallest-free-color table over the whole
fabric.  Those full-fabric rules live here only, as the reference: one
receive of each rule, on hypothesis-drawn states, must leave the same
colors and dirty flags.

The states cover what a fault plane can produce and more: graphs with
isolated vertices and a hub wide enough to put the smallest free color
on its ragged table; colors that are negative, 0, in the palette and
past it; random dirty flags; ``delivered`` masks that drop slots; inbox
values that disagree with their senders (stale duplicates); budgets
below a winner's smallest free color; and frontiers that are empty or
hold every node.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributed.stabilizing import (
    BatchMinPlusOneRecoloring,
    BatchStabilizingGreedy,
)
from repro.graphs.graph import Graph
from repro.local import Network, segment_reduce
from repro.local.node import smallest_free_color
from repro.local.simulator import _batch_context


def _greedy_full_fabric(context, budget, colors, inbox, delivered):
    """Stabilizing greedy's receive over every node's row: the new colors."""
    offsets = context.offsets
    sources = context.sources
    nbr_ids = context.identifiers[context.endpoints]
    values = inbox if delivered is None else np.where(delivered, inbox, -1)
    own = colors[sources]
    conflict_slot = (values == own) & (own != 0)
    conflict = (
        segment_reduce(np.maximum, conflict_slot.astype(np.int64), offsets, empty=0)
        > 0
    )
    illegal = (colors < 0) | (colors > budget)
    rival = segment_reduce(
        np.maximum, np.where(values == 0, nbr_ids, 0), offsets, empty=0
    )
    pick = ~illegal & ~conflict & (colors == 0) & (context.identifiers > rival)
    free = smallest_free_color(values, offsets, sources)
    # a picking node with every palette color taken stays uncolored
    pick &= free <= budget
    return np.where(illegal | conflict, 0, np.where(pick, free, colors))


def _min_plus_one_full_fabric(context, budget, colors, dirty, inbox, delivered):
    """Min+1's receive over every node's row: the new colors and dirty flags."""
    offsets = context.offsets
    sources = context.sources
    nbr_ids = context.identifiers[context.endpoints]
    values = inbox if delivered is None else np.where(delivered, inbox, 0)
    nbr_color = values >> 1
    nbr_dirty = values & 1
    own = colors[sources]
    rival = segment_reduce(np.maximum, nbr_ids * nbr_dirty, offsets, empty=0)
    conflict_slot = (nbr_color == own) & (nbr_color != 0)
    conflict = (
        segment_reduce(np.maximum, conflict_slot.astype(np.int64), offsets, empty=0)
        > 0
    )
    illegal = (colors < 1) | (colors > budget)
    enabled = (dirty > 0) & (context.identifiers > rival)
    free = smallest_free_color(nbr_color, offsets, sources)
    # an enabled node with every palette color taken stays put and dirty
    moves = enabled & (free <= budget)
    new_colors = np.where(moves, free, colors)
    new_dirty = np.where(
        moves, 0, np.where(enabled, 1, (illegal | conflict).astype(np.int64))
    )
    return new_colors, new_dirty


@st.composite
def _networks(draw):
    """A random graph with isolated vertices and, often, a wide hub.

    The hub (vertex 0) may take the largest identifier, so that it wins
    beside the isolated vertices and the smallest free color reads its
    row from the ragged table.
    """
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = random.Random(seed)
    n = draw(st.integers(min_value=1, max_value=40))
    hub = draw(st.integers(min_value=0, max_value=70))
    isolated = draw(st.integers(min_value=0, max_value=12))
    edges = set()
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    leaves = list(range(n, n + hub))
    edges.update((0, leaf) for leaf in leaves)
    vertices = list(range(n + hub + isolated))
    graph = Graph(vertices=vertices, edges=sorted(edges)).freeze()
    order = graph.vertices()
    rng.shuffle(order)
    if hub and draw(st.booleans()):
        order.remove(0)
        order.append(0)  # the hub holds the largest identifier
    return Network(graph, identifier_order=order)


@st.composite
def _states(draw, network):
    """``(budget, colors, flags, inbox edits, delivered)`` for ``network``."""
    n = len(network.labels)
    slots = network.fabric.num_slots
    budget = draw(st.integers(min_value=1, max_value=network.graph.max_degree() + 3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    # negative, uncolored, in the palette and past it
    colors = rng.integers(-2, budget + 3, size=n)
    flags = rng.integers(0, 2, size=n)
    # the frontier: nobody, everybody, or a random part
    frontier = draw(st.sampled_from(["none", "all", "random"]))
    if frontier == "none":
        colors[colors == 0] = 1
        flags[:] = 0
    elif frontier == "all":
        colors[:] = 0
        flags[:] = 1
    stale = rng.random(slots) < draw(st.sampled_from([0.0, 0.2]))
    # stale duplicates: any color, or any packed (color, dirty) pair of min+1
    stale_values = rng.integers(-2, 2 * budget + 6, size=slots)
    delivered = None
    if draw(st.booleans()):
        delivered = rng.random(slots) >= 0.2
    return budget, colors, flags, (stale, stale_values), delivered


@st.composite
def _instances(draw):
    network = draw(_networks())
    return network, draw(_states(network))


def _inbox(context, sent, edits):
    """The honest broadcast, with stale values overwriting some slots."""
    stale, stale_values = edits
    return np.where(stale, stale_values, sent[context.endpoints])


def _program(factory, context, colors):
    program = factory()
    program.initialize_batch(context)
    program.colors = colors.copy()
    return program


# one hub of degree 60 beside 30 isolated vertices, the hub uncolored and
# holding the largest identifier, its leaves colored 1..60, every node
# dirty: the hub and the isolated vertices win, and their smallest free
# color (61 for the hub) is read from the ragged table
_HUB = Graph(
    vertices=range(91), edges=[(0, leaf) for leaf in range(1, 61)]
).freeze()
# node indices follow the identifiers: leaves 0..59, isolated 60..89, hub 90
_HUB_NETWORK = Network(_HUB, identifier_order=list(range(1, 91)) + [0])


def _hub_instance(budget):
    slots = _HUB_NETWORK.fabric.num_slots
    no_edits = (np.zeros(slots, dtype=np.bool_), np.zeros(slots, dtype=np.int64))
    colors = np.zeros(91, dtype=np.int64)
    colors[:60] = np.arange(1, 61)
    return _HUB_NETWORK, (
        budget, colors, np.ones(91, dtype=np.int64), no_edits, None,
    )


@given(_instances())
@example(_hub_instance(61))
@example(_hub_instance(3))
@settings(max_examples=300, deadline=None)
def test_greedy_frontier_rule_matches_full_fabric(instance):
    network, (budget, colors, _flags, edits, delivered) = instance
    context = _batch_context(network, [(budget, 0)] * len(network.labels))
    program = _program(BatchStabilizingGreedy, context, colors)
    inbox = _inbox(context, program.send_batch(1), edits)
    expected = _greedy_full_fabric(context, budget, colors, inbox, delivered)
    program.receive_batch(
        1, inbox.copy(), None if delivered is None else delivered.copy()
    )
    assert program.colors.tolist() == expected.tolist()


@given(_instances())
@example(_hub_instance(61))
@example(_hub_instance(3))
@settings(max_examples=300, deadline=None)
def test_min_plus_one_frontier_rule_matches_full_fabric(instance):
    network, (budget, colors, flags, edits, delivered) = instance
    context = _batch_context(network, [(budget, 0)] * len(network.labels))
    program = _program(BatchMinPlusOneRecoloring, context, colors)
    program.dirty = flags.copy()
    inbox = _inbox(context, program.send_batch(1), edits)
    expected_colors, expected_dirty = _min_plus_one_full_fabric(
        context, budget, colors, flags, inbox, delivered
    )
    program.receive_batch(
        1, inbox.copy(), None if delivered is None else delivered.copy()
    )
    assert program.colors.tolist() == expected_colors.tolist()
    assert program.dirty.tolist() == expected_dirty.tolist()
    assert program.dirty.dtype == np.int64

