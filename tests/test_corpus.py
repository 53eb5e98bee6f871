"""The instance corpus: content addressing, caching, golden seed stability.

The golden pins below are the corpus's reason to exist: instance digests
and per-algorithm results (coloring fingerprints, charged-round totals)
for the standard named set.  A substrate refactor that silently changes a
generated graph, a coloring or a round ledger fails here loudly — with the
instance name in the assertion — instead of drifting unnoticed.  When a
change is *intentional* (a generator rewrite, a new tie-break), update the
pinned values in the same commit and say so.
"""

import json

import pytest

from repro.coloring import uniform_lists
from repro.core import classify_vertices, color_sparse_graph
from repro.corpus import (
    FAMILIES,
    InstanceCorpus,
    InstanceSpec,
    STANDARD_INSTANCES,
    graph_digest,
    standard_instance,
)
from repro.distributed import barenboim_elkin_coloring, delta_plus_one_coloring
from repro.distributed.greedy_baseline import greedy_distributed_coloring
from repro.errors import GeneratorError, ListAssignmentError
from repro.verify import CliqueWitnessOracle, coloring_digest


@pytest.fixture(scope="module")
def corpus():
    return InstanceCorpus(cache_dir=None)


# ---------------------------------------------------------------------------
# specs, naming, content addressing
# ---------------------------------------------------------------------------

def test_spec_names_and_keys_are_stable():
    spec = InstanceSpec.of("forest-union", n=80, arboricity=2, seed=1)
    assert spec.name == "forest-union/arboricity=2,n=80,seed=1"
    assert spec.spec_key == InstanceSpec.of(
        "forest-union", seed=1, arboricity=2, n=80
    ).spec_key  # keyword order does not matter
    assert spec == standard_instance("forest-union-80-a2-s1")
    with pytest.raises(GeneratorError, match="unknown corpus family"):
        InstanceSpec.of("no-such-family", n=3)
    with pytest.raises(GeneratorError, match="unknown standard instance"):
        standard_instance("nope")


def test_graph_digest_is_order_independent(corpus):
    spec = standard_instance("grid-6x10")
    a = corpus.build(spec)
    b = spec.build()
    assert graph_digest(a) == graph_digest(b)
    b.add_edge((0, 0), (5, 9))
    assert graph_digest(a) != graph_digest(b)


#: the golden content digests of the standard corpus; regenerating any
#: instance must reproduce these bit for bit (update intentionally only)
GOLDEN_DIGESTS = {
    "planar-tri-60-s3": "427b715b7d529e2c",
    "bounded-mad-64-k2-s5": "ee8c0cacde631cc8",
    "forest-union-80-a2-s1": "9c3b7691486e99df",
    "k-tree-48-k3-s2": "6225bd5ae4208f9e",
    "power-law-72-m2-s4": "d458c4c023a3847b",
    "regular-40-d4-s7": "a36dea4d268162f2",
    "torus-6x8": "c7ad37b06d5c355d",
    "grid-6x10": "35910ea6d7a58382",
    "path-33": "545cb4b165695f17",
    "single-vertex": "0270da4daac514f3",
    "empty-0": "e3b0c44298fc1c14",
}


def test_golden_instance_digests(corpus):
    assert set(GOLDEN_DIGESTS) == set(STANDARD_INSTANCES)
    for name, expected in GOLDEN_DIGESTS.items():
        assert corpus.digest(standard_instance(name)) == expected, name


def test_golden_algorithm_results(corpus):
    """Seed-stability pins: substrate refactors that change colorings or
    charged rounds on the named instances must fail loudly."""
    forest = corpus.frozen(standard_instance("forest-union-80-a2-s1"))
    thm13 = color_sparse_graph(forest, 4, backend="flat")
    assert (coloring_digest(thm13.coloring), thm13.rounds) == (
        "4d4fac6e85bfad60", 17829,
    )
    be = barenboim_elkin_coloring(forest, arboricity=2)
    assert (coloring_digest(be.coloring), be.rounds, be.colors_used) == (
        "f4e82e1bd656780d", 82, 4,
    )

    planar = corpus.frozen(standard_instance("planar-tri-60-s3"))
    thm13p = color_sparse_graph(planar, 6)
    assert (coloring_digest(thm13p.coloring), thm13p.rounds) == (
        "7bd4985dce6fd1d8", 16069,
    )
    greedy = greedy_distributed_coloring(planar)
    assert (coloring_digest(greedy.coloring), greedy.rounds) == (
        "12b39447912c7d4c", 13,
    )


def test_golden_clique_witness(corpus):
    """The k-tree instance carries its (k+1)-clique: the dichotomy's
    witness side, machine-checked by the clique oracle."""
    graph = corpus.frozen(standard_instance("k-tree-48-k3-s2"))
    result = color_sparse_graph(graph, 3)
    assert result.clique == (0, 1, 2, 3)
    CliqueWitnessOracle().check(
        graph=graph, clique=result.clique, size=4
    ).raise_if_failed()


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------

def test_disk_cache_roundtrip_preserves_labels(tmp_path):
    corpus = InstanceCorpus(cache_dir=tmp_path)
    spec = standard_instance("grid-6x10")
    first = corpus.build(spec)
    cached = InstanceCorpus(cache_dir=tmp_path).build(spec)
    assert graph_digest(first) == graph_digest(cached)
    # tuple labels survive the repr/literal_eval round trip
    assert (0, 0) in cached and cached.has_edge((0, 0), (0, 1))
    files = list(tmp_path.glob("grid-*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert payload["digest"] == GOLDEN_DIGESTS["grid-6x10"]


def test_disk_cache_rejects_corruption(tmp_path):
    corpus = InstanceCorpus(cache_dir=tmp_path)
    spec = standard_instance("path-33")
    corpus.build(spec)
    path = next(tmp_path.glob("path-*.json"))
    payload = json.loads(path.read_text())
    payload["edges"] = payload["edges"][:-1]  # drop an edge, keep the digest
    path.write_text(json.dumps(payload))
    # the digest no longer matches the content: regenerate, do not trust
    regenerated = InstanceCorpus(cache_dir=tmp_path).build(spec)
    assert graph_digest(regenerated) == GOLDEN_DIGESTS["path-33"]


def test_env_var_selects_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path))
    corpus = InstanceCorpus()
    corpus.build(standard_instance("path-33"))
    assert list(tmp_path.glob("path-*.json"))


# ---------------------------------------------------------------------------
# edge cases the corpus surfaces (regression tests)
# ---------------------------------------------------------------------------

def test_empty_and_single_vertex_instances_run_the_pipelines(corpus):
    empty = corpus.frozen(standard_instance("empty-0"))
    single = corpus.frozen(standard_instance("single-vertex"))

    assert color_sparse_graph(empty, 3).coloring == {}
    assert color_sparse_graph(empty, 3, backend="flat").coloring == {}
    assert delta_plus_one_coloring(empty).coloring == {}
    assert barenboim_elkin_coloring(empty, 1).coloring == {}
    assert len(uniform_lists(empty, 3)) == 0

    assert color_sparse_graph(single, 3).coloring == {0: 1}
    assert color_sparse_graph(single, 3, backend="flat").coloring == {0: 1}
    assert delta_plus_one_coloring(single).coloring == {0: 0}
    assert barenboim_elkin_coloring(single, 1).coloring == {0: 1}
    cls = classify_vertices(single, 3)
    assert cls.happy == {0} and not cls.poor


def test_forest_union_degenerate_sizes_regression():
    from repro.graphs.generators import sparse

    for n in (0, 1):
        g = sparse.union_of_random_forests(n, 3, seed=1)
        assert len(g) == n and g.number_of_edges() == 0


def test_truncated_negative_size_raises_regression():
    from repro.coloring.palette import FlatListAssignment

    flat = FlatListAssignment({0: [1, 2, 3]})
    with pytest.raises(ListAssignmentError, match="negative"):
        flat.truncated(-1)
    assert flat.truncated(0).as_dict() == {0: frozenset()}


def test_disconnected_instance_through_flat_backend(corpus):
    """Disconnected graphs (isolated vertices included) color as the label
    reference colors them — the corpus's forest-union family covers them."""
    import thm13_reference as reference
    from repro.graphs.graph import Graph

    g = Graph(vertices=range(6))
    g.add_edge(0, 1)
    g.add_edge(2, 3)  # vertices 4, 5 isolated
    frozen = g.freeze()
    a = reference.color_sparse_graph(frozen, 3)
    b = color_sparse_graph(frozen, 3)
    assert a.coloring == b.coloring
    assert a.rounds == b.rounds


def test_family_matrix_is_documented():
    for family in FAMILIES.values():
        assert family.description
        assert callable(family.builder)
