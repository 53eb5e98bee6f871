"""Dict/flat parity of the palette core and the coloring pipelines.

The flat palette refactor promises *bit-identical* results: the interned
bitmask backend (`FlatListAssignment`), the CSR classification, the CSR
ruling forest, the batched Linial/color-reduction/slot-selection ports and
the Theorem 1.3 driver must reproduce the historical per-vertex
set-algebra outputs exactly — colorings, happy sets, charged rounds.  The
Theorem 1.3 label pipeline lives in ``thm13_reference`` as that reference,
and the H-partition and Barenboim–Elkin loops in ``baselines_reference``.
These hypothesis suites check the parity over ~100 seeded sparse, planar
and toroidal instances, including non-integer color labels and empty-list
edge cases.
"""

import random

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

import baselines_reference
import thm13_reference as reference

from repro.coloring import uniform_lists, random_lists
from repro.coloring.assignment import ListAssignment
from repro.coloring.greedy import greedy_list_coloring
from repro.coloring.palette import FlatListAssignment, PaletteUniverse
from repro.coloring.verification import (
    is_proper_coloring,
    respects_lists,
)
from repro.core import classify_vertices, color_sparse_graph
from repro.distributed import (
    barenboim_elkin_coloring,
    delta_plus_one_coloring,
    h_partition,
)
from repro.errors import SimulationError
from repro.graphs.generators import planar, sparse, streaming
from repro.graphs.graph import Graph
from repro.graphs.properties.degeneracy import degeneracy_ordering
from repro.verify import ColoringParityOracle, ListColoringOracle


# A color pool mixing types whose reprs interleave in nontrivial ways.
WEIRD_COLORS = [1, 2, 10, "1", "red", "blue", (0, 1), ("x",), -3, None, 2.5]


def _weird_lists(seed: int, vertices) -> dict:
    rng = random.Random(seed)
    out = {}
    for i, v in enumerate(vertices):
        if i % 7 == 3:
            out[v] = []  # empty-list edge case
        else:
            out[v] = rng.sample(WEIRD_COLORS, rng.randint(1, 6))
    return out


def _instance(seed: int):
    """One of the two paper families, frozen, plus its color budget."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        n = rng.randint(20, 70)
        return sparse.union_of_random_forests(n, 2, seed=seed).freeze(), 4
    n = rng.randint(20, 60)
    return planar.stacked_triangulation(n, seed=seed).freeze(), 6


def _near_regular_instance(seed: int):
    """A d-regular graph (d in {3, 4}), frozen, plus d as the budget.

    No vertex has a spare color, so some root balls lack a slack vertex
    and Lemma 3.2 needs the full Borodin–ERT solver on them.
    """
    rng = random.Random(seed)
    d = rng.choice([3, 4])
    n = 2 * rng.randint(10, 20)
    return sparse.near_regular_sparse_graph(n, d, seed=seed).freeze(), d


def _forest_union_instance(seed: int):
    """A union of two random forests at d=4, the theorem13-rounds family.

    Its rich components are far larger than the ruling alpha at radius 1
    and 2, so the ruling set runs its bit recursion and its probes.
    """
    n = random.Random(seed).randint(60, 160)
    return sparse.union_of_random_forests(n, 2, seed=seed).freeze(), 4


def _torus_instance(seed: int):
    """A 6-regular triangulated torus at d=6; seeds 0..11 give 4x5 to 6x8.

    No vertex has slack, so every happy vertex comes from a ball that is
    not a Gallai forest.  At the paper radius a root ball is the whole
    torus with nothing colored around it, so it has no slack vertex either
    and goes to the Borodin-ERT solver (``degree_list_coloring``).
    """
    rows, cols = 4 + seed % 3, 5 + seed // 3 % 4
    return streaming.stream_torus(rows, cols, shuffle_seed=seed), 6


_FAMILIES = {
    "paper": _instance,
    "near_regular": _near_regular_instance,
    "forest_union": _forest_union_instance,
    "torus": _torus_instance,
}


# -- FlatListAssignment vs naive set algebra --------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_flat_assignment_matches_set_algebra(seed):
    graph, _d = _instance(seed)
    lists = _weird_lists(seed, graph.vertices())
    naive = {v: frozenset(colors) for v, colors in lists.items()}
    flat = FlatListAssignment(lists)

    assert flat.as_dict() == naive
    assert flat.minimum_size() == min(len(c) for c in naive.values())
    assert flat.palette() == frozenset().union(*naive.values())

    rng = random.Random(seed + 1)
    keep = {v for v in graph if rng.random() < 0.6}
    assert flat.restrict(keep).as_dict() == {
        v: c for v, c in naive.items() if v in keep
    }

    removals = {
        v: rng.sample(WEIRD_COLORS, 2) for v in graph if rng.random() < 0.5
    }
    removed = flat.without_colors(removals)
    for v, colors in naive.items():
        expected = colors - frozenset(removals.get(v, ()))
        assert removed[v] == expected

    for size in (0, 1, 3):
        truncated = flat.truncated(size)
        for v, colors in naive.items():
            ordered = sorted(colors, key=repr)
            expected = (
                frozenset(ordered[:size]) if len(ordered) > size else colors
            )
            assert truncated[v] == expected

    coloring = {
        v: rng.choice(sorted(naive[v], key=repr))
        for v in graph
        if naive[v] and rng.random() < 0.5
    }
    pruned = flat.pruned_by_coloring(graph, coloring)
    for v, colors in naive.items():
        if v in coloring:
            assert v not in pruned
            continue
        used = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        assert pruned[v] == colors - used


def test_universe_interning_is_repr_sorted():
    universe = PaletteUniverse([3, "b", 1, (2,), "a", 10])
    assert list(universe.colors) == sorted({3, "b", 1, (2,), "a", 10}, key=repr)
    mask = universe.encode(["b", 1])
    assert universe.decode(mask) == frozenset(["b", 1])
    # the lowest set bit is the min-by-repr color: the tie-break the
    # sequential solvers use
    lowest = universe.color_of((mask & -mask).bit_length() - 1)
    assert lowest == min(["b", 1], key=repr)


def test_first_free_colors_kernel_paths():
    """The batch tie-break kernel: int path and packed-rows path agree."""
    import pytest

    from repro.errors import ListAssignmentError

    rng = random.Random(7)
    vertices = [f"v{i}" for i in range(100)]
    lists = {v: rng.sample(WEIRD_COLORS, rng.randint(1, 6)) for v in vertices}
    flat = FlatListAssignment(lists)
    used = [
        flat.universe.encode(rng.sample(WEIRD_COLORS, 3), strict=False)
        for _ in vertices
    ]
    keep = [v for v, u in zip(vertices, used) if flat.mask_of(v) & ~u]
    kept_used = [u for v, u in zip(vertices, used) if flat.mask_of(v) & ~u]
    batch = flat.first_free_colors(keep, kept_used)  # >= 32: packed path
    for v, u, color in zip(keep, kept_used, batch):
        expected = min(flat[v] - flat.universe.decode(u), key=repr)
        assert color == expected
        assert flat.first_free_colors([v], [u]) == [color]  # int path
    empty_v = next(v for v in vertices if flat.mask_of(v))
    with pytest.raises(ListAssignmentError):
        flat.first_free_colors([empty_v], [flat.mask_of(empty_v)])


def test_barenboim_elkin_flat_trailing_isolated_vertex():
    """Regression: a zero-degree vertex at the last CSR index must not
    crash the vectorized H-partition (reduceat empty-segment handling)."""
    g = Graph(vertices=[0, 1, 2])
    g.add_edge(0, 1)  # vertex 2 stays isolated
    frozen = g.freeze()
    a = baselines_reference.barenboim_elkin_coloring(frozen, arboricity=1)
    b = barenboim_elkin_coloring(frozen, arboricity=1)
    assert a.coloring == b.coloring
    assert a.rounds == b.rounds


def test_empty_assignment_edge_cases():
    flat = FlatListAssignment({})
    assert len(flat) == 0
    assert flat.minimum_size() == 0
    assert flat.palette() == frozenset()
    wrapped = ListAssignment({})
    assert wrapped.get("missing") == frozenset()
    assert wrapped.restrict([]).as_dict() == {}


# -- classification and pipeline parity -------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), radius=st.sampled_from([1, 2, 4, None]))
def test_classification_engines_agree(seed, radius):
    graph, d = _instance(seed)
    scan = reference.classify_vertices(graph, d, radius=radius)
    flat = classify_vertices(graph, d, radius=radius)
    assert scan.happy == flat.happy
    assert scan.sad == flat.sad
    assert scan.poor == flat.poor


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    use_random_lists=st.booleans(),
    # a small radius gives a small ruling alpha (2 * radius + 2), below the
    # size of some rich components, so the csr engine runs its bit recursion
    radius=st.sampled_from([1, 2, None]),
    family=st.sampled_from(["paper", "near_regular"]),
)
# the forest union (the ruling probe's bit recursion) and the torus (the
# Gallai path and the Borodin-ERT root balls) run at every radius, every run
@example(seed=1, use_random_lists=False, radius=1, family="forest_union")
@example(seed=2, use_random_lists=True, radius=2, family="forest_union")
@example(seed=3, use_random_lists=False, radius=None, family="forest_union")
@example(seed=0, use_random_lists=False, radius=1, family="torus")
@example(seed=5, use_random_lists=True, radius=2, family="torus")
@example(seed=11, use_random_lists=False, radius=None, family="torus")
def test_sparse_coloring_backends_bit_identical(
    seed, use_random_lists, radius, family
):
    graph, d = _FAMILIES[family](seed)
    lists = (
        random_lists(graph, d, palette_size=2 * d, seed=seed)
        if use_random_lists
        else None
    )
    a = reference.color_sparse_graph(graph, d, lists=lists, radius=radius)
    b = color_sparse_graph(graph, d, lists=lists, radius=radius)
    ColoringParityOracle().check(
        coloring_a=a.coloring, coloring_b=b.coloring,
        rounds_a=a.rounds, rounds_b=b.rounds, labels=("dict", "flat"),
    ).raise_if_failed()
    assert a.ledger.total() == b.ledger.total()
    ListColoringOracle().check(
        graph=graph, coloring=b.coloring,
        lists=lists if lists is not None else uniform_lists(graph, d),
    ).raise_if_failed()


def test_sparse_coloring_refuses_any_backend_but_flat():
    graph, d = _instance(0)
    with pytest.raises(ValueError, match="backend 'dict'"):
        color_sparse_graph(graph, d, backend="dict")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_barenboim_elkin_backends_bit_identical(seed):
    n = random.Random(seed).randint(30, 120)
    graph = sparse.union_of_random_forests(n, 2, seed=seed).freeze()
    a = baselines_reference.barenboim_elkin_coloring(graph, arboricity=2)
    b = barenboim_elkin_coloring(graph, arboricity=2)
    ColoringParityOracle().check(
        coloring_a=a.coloring, coloring_b=b.coloring,
        rounds_a=a.rounds, rounds_b=b.rounds, labels=("reference", "flat"),
    ).raise_if_failed()
    assert a.ledger.total() == b.ledger.total()


_PEEL_LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: ("t", i % 3, i),
}


@st.composite
def _peel_graphs(draw):
    """A random graph on int, string or tuple labels, in a shuffled vertex
    order, with the vertices no drawn edge touches left isolated."""
    n = draw(st.integers(0, 40))
    label = _PEEL_LABELS[draw(st.sampled_from(sorted(_PEEL_LABELS)))]
    order = draw(st.permutations(range(n)))
    ends = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    return Graph(
        vertices=[label(i) for i in order],
        edges=[(label(i), label(j)) for i, j in pairs if i != j],
    )


def _star(leaves: int) -> Graph:
    return Graph(edges=[("hub", ("leaf", i)) for i in range(leaves)])


@settings(max_examples=80, deadline=None)
@given(
    graph=_peel_graphs(),
    frozen=st.booleans(),
    arboricity=st.integers(1, 3),
    epsilon=st.sampled_from([0.5, 1.0, 2.0]),
)
@example(graph=Graph(), frozen=False, arboricity=1, epsilon=1.0)  # n = 0
@example(graph=Graph(), frozen=True, arboricity=1, epsilon=1.0)
@example(graph=Graph(vertices=["solo"]), frozen=False, arboricity=1, epsilon=1.0)
@example(graph=Graph(vertices=[("solo",)]), frozen=True, arboricity=2, epsilon=0.5)
# the hub's degree equals the bound (2 + 1) * 1, so one pass peels the star
@example(graph=_star(3), frozen=False, arboricity=1, epsilon=1.0)
@example(graph=_star(3), frozen=True, arboricity=1, epsilon=1.0)
# K_6 has arboricity 3: at a = 1 and ε = 0.5 no vertex is below the bound
@example(
    graph=Graph(edges=[(f"k{i}", f"k{j}") for i in range(6) for j in range(i)]),
    frozen=True, arboricity=1, epsilon=0.5,
)
def test_h_partition_matches_the_label_peel(graph, frozen, arboricity, epsilon):
    """The CSR peel against the label-set peel it replaced: the same
    classes, class indices, rounds and ledger, or the same error.

    Every pass peels a vertex or raises the stall error, so a peel never
    takes more than n passes, and the reference's non-convergence error
    (past 4n + 8 passes) stays out of its reach."""
    subject = graph.freeze() if frozen else graph
    try:
        expected = baselines_reference.h_partition(subject, arboricity, epsilon)
    except SimulationError as error:
        with pytest.raises(SimulationError) as caught:
            h_partition(subject, arboricity, epsilon)
        assert str(caught.value) == str(error)
        return
    got = h_partition(subject, arboricity, epsilon)
    assert got.classes == expected.classes
    assert got.class_of == expected.class_of
    assert (got.rounds, got.degree_bound) == (expected.rounds, expected.degree_bound)
    assert got.ledger == expected.ledger
    assert got.rounds <= len(graph)


_LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 3, str(i)),
}


@st.composite
def _delta_plus_one_instances(draw):
    """``(graph, max_degree)`` for :func:`delta_plus_one_coloring`.

    A forest union on 0 to 100 vertices plus up to three isolated ones,
    shuffled, on int, string or tuple labels, frozen or mutable;
    ``max_degree`` is ``None`` or at least the true Δ, as Lemma 3.2 passes
    ``d`` for its trees.
    """
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(0, 100))
    name = _LABELS[draw(st.sampled_from(sorted(_LABELS)))]
    edges = sparse.union_of_random_forests(n, 2, seed=seed).edges()
    vertices = [name(i) for i in range(n + draw(st.integers(0, 3)))]
    random.Random(seed).shuffle(vertices)
    graph = Graph(vertices=vertices, edges=[(name(u), name(v)) for u, v in edges])
    if draw(st.booleans()):
        graph = graph.freeze()
    slack = draw(st.none() | st.integers(0, 3))
    return graph, None if slack is None else graph.max_degree() + slack


@settings(max_examples=40, deadline=None)
@given(_delta_plus_one_instances())
@example((Graph(), None))
@example((Graph(vertices=["only"]), None))
@example((Graph(vertices=[("only",)]).freeze(), 2))
def test_batched_delta_plus_one_parity(instance):
    """The batched Linial and color reduction of delta_plus_one_coloring
    against the per-node programs: the same colors, rounds, messages and
    palette."""
    graph, max_degree = instance
    expected = baselines_reference.per_node_delta_plus_one(graph, max_degree)
    got = delta_plus_one_coloring(graph, max_degree)
    assert got.coloring == expected.coloring
    assert (got.rounds, got.messages, got.palette_size) == (
        expected.rounds, expected.messages, expected.palette_size
    )


# -- fast-path equivalences --------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_greedy_list_coloring_fast_path(seed):
    graph, d = _instance(seed)
    lists = random_lists(graph, d, palette_size=2 * d, seed=seed)
    _, order = degeneracy_ordering(graph)
    order = list(reversed(order))
    fast = greedy_list_coloring(graph, lists, order)
    # the slow path: same graph through the mutable representation
    thawed = graph.thaw()
    slow = greedy_list_coloring(thawed, lists, order)
    assert fast == slow
    assert respects_lists(fast, lists)


def test_vectorized_properness_large_graph():
    """n >= 128 exercises the CSR gather path of is_proper_coloring."""
    from repro.coloring.greedy import greedy_coloring

    graph = sparse.union_of_random_forests(500, 2, seed=3).freeze()
    coloring = greedy_coloring(graph)
    assert is_proper_coloring(graph, coloring)
    assert coloring == greedy_coloring(graph.thaw())
    u, v = next(iter(graph.edges()))
    broken = dict(coloring)
    broken[u] = broken[v]
    assert not is_proper_coloring(graph, broken)
    partial = {w: c for w, c in coloring.items() if w != u}
    assert is_proper_coloring(graph, partial)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_verification_fast_paths(seed):
    graph, d = _instance(seed)
    lists = uniform_lists(graph, d)
    coloring = color_sparse_graph(graph, d, backend="flat").coloring
    assert is_proper_coloring(graph, coloring)
    assert is_proper_coloring(graph.thaw(), coloring)
    assert respects_lists(coloring, lists)
    broken = dict(coloring)
    u, v = next(iter(graph.edges()))
    broken[u] = broken[v]
    assert not is_proper_coloring(graph, broken)
    assert not is_proper_coloring(graph.thaw(), broken)
    outside = dict(coloring)
    outside[u] = "not-a-color"
    assert not respects_lists(outside, lists)


def test_minimum_size_default_on_empty_assignment():
    """A zero-vertex assignment has a vacuous minimum: the caller picks it.

    The Moser-Tardos precondition uses ``minimum_size(default=1) >= 1``
    so an empty graph passes while any genuinely empty list still fails.
    """
    empty = FlatListAssignment({})
    assert empty.minimum_size() == 0
    assert empty.minimum_size(default=5) == 5
    assert empty.minimum_size(default=1) == 1


def test_first_free_colors_length_mismatch_raises_both_paths():
    from repro.errors import ListAssignmentError

    lists = {v: list(range(1, 8)) for v in range(40)}
    flat = FlatListAssignment(lists)
    few = list(range(4))          # scalar path (< 32 vertices)
    many = list(range(40))        # packed/vectorized path (>= 32)
    # pre-fix, the scalar path silently zip-truncated the extra masks and
    # the vectorized path died on an opaque broadcast ValueError
    with pytest.raises(ListAssignmentError, match="used masks"):
        flat.first_free_colors(few, [0] * 3)
    with pytest.raises(ListAssignmentError, match="used masks"):
        flat.first_free_colors(few, [0] * 5)
    with pytest.raises(ListAssignmentError, match="used masks"):
        flat.first_free_colors(many, [0] * 39)
