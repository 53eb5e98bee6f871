"""Million-node scale infrastructure: npz form, streaming generators, fan-out.

Everything here runs at toy sizes — the point is *parity*, not scale:
``from_edge_array`` must agree with the dict-of-sets path, the value sorts
of packed int64 keys that build every CSR and routing fabric must equal
the index-sort builds they replaced bit for bit (the value-sort parity
suite), each streaming builder must keep its pinned digest, a
memory-mapped ``load_npz`` graph must be bit-identical to the in-memory
one that wrote it, the vectorized CSR digest must equal the scalar digest,
and a graph attached from shared memory in a real pool worker must hash to
the digest the parent published.  The n = 10^6 runs themselves live in the ``scale``
scenario (``BENCH_scale.json``); these tests are why its numbers can be
trusted.
"""

import os
import random
import tempfile
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ExperimentRunner, shared
from repro.corpus import InstanceCorpus, InstanceSpec, graph_digest
from repro.errors import GraphError
from repro.graphs.frozen import FrozenGraph, _sorted_pair_keys, freeze
from repro.graphs.generators import streaming
from repro.graphs.graph import Graph
from repro.local.network import Network


# one small spec per streaming family: (builder kwargs are positional-ready)
_FAMILY_SPECS = [
    ("stream-degenerate", {"n": 60, "degeneracy": 3, "seed": 7}),
    ("stream-forest", {"n": 50, "arboricity": 2, "seed": 3}),
    ("stream-k-tree", {"n": 40, "k": 3, "seed": 5}),
    ("stream-power-law", {"n": 45, "m": 2, "seed": 9}),
    ("stream-torus", {"rows": 5, "cols": 6, "shuffle_seed": 1}),
]


def _build(family: str, **kwargs) -> FrozenGraph:
    return streaming.STREAMING_BUILDERS[family](**kwargs)


def _thaw(graph: FrozenGraph) -> Graph:
    """Rebuild the same labelled graph on the dict-of-sets substrate."""
    g = Graph(vertices=graph.vertices())
    for u, v in graph.edges():
        g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# from_edge_array parity with the Graph path
# ---------------------------------------------------------------------------

def test_from_edge_array_matches_graph_path():
    # duplicates, self-loop and both orientations must all collapse away
    edges = np.array(
        [[0, 1], [1, 0], [1, 2], [2, 3], [3, 3], [0, 1], [4, 2]], dtype=np.int64
    )
    via_array = FrozenGraph.from_edge_array(5, edges, name="t")
    g = Graph(vertices=range(5))
    for u, v in [(0, 1), (1, 2), (2, 3), (4, 2)]:
        g.add_edge(u, v)
    via_graph = freeze(g)
    assert via_array.number_of_edges() == 4
    assert graph_digest(via_array) == graph_digest(via_graph)
    assert via_array.degeneracy() == via_graph.degeneracy()
    assert {frozenset(e) for e in via_array.edges()} == {
        frozenset(e) for e in via_graph.edges()
    }


@pytest.mark.parametrize("family,kwargs", _FAMILY_SPECS)
def test_streaming_builders_produce_identity_frozen_graphs(family, kwargs):
    graph = _build(family, **kwargs)
    assert isinstance(graph, FrozenGraph)
    assert graph.identity_labels
    assert list(graph.vertices()) == list(range(len(graph)))
    # every certified structural bound in metadata must actually hold
    bound = graph.metadata.get("degeneracy_upper_bound")
    if bound is not None:
        assert graph.degeneracy() <= bound


# ---------------------------------------------------------------------------
# value-sort parity: packed-key sorts == the index-sort builds they replaced
# ---------------------------------------------------------------------------

def _index_sort_csr(n, edges):
    """The CSR by the index sort ``from_edge_array`` used to run.

    An m-key sort and dedupe of ``lo * n + hi``, ``//`` and ``%`` back to
    the endpoints, then a 2m-key ``argsort`` of ``src * n + dst`` and the
    gather of ``dst`` through it.
    """
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
    hi = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
    keep = lo != hi
    keys = np.sort(lo[keep] * n + hi[keep])
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    lo, hi = keys // n, keys % n
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.argsort(src * n + dst)
    counts = np.bincount(src, minlength=n)
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return offsets.astype(np.int64, copy=False), dst[order]


def _index_sort_reverse(offsets, endpoints):
    """``reverse_slot`` by the ``argsort`` of ``(dst, src)`` keys it replaced."""
    n = len(offsets) - 1
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    return np.argsort(endpoints * n + sources)


def _index_sort_relabelled(frozen, node_of):
    """A network's general-path CSR by the ``argsort`` it replaced."""
    offsets, neighbors = frozen.csr_arrays()
    n = len(node_of)
    sources = np.repeat(node_of, np.diff(offsets))
    endpoints = node_of[neighbors]
    by_node = np.argsort(sources * n + endpoints)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(sources, minlength=n))))
    return offsets, endpoints[by_node]


def _assert_same_array(actual, expected):
    assert actual.dtype == np.int64
    assert np.array_equal(actual, np.asarray(expected, dtype=np.int64))


def _assert_fabric_matches(fabric, offsets, endpoints):
    _assert_same_array(fabric.offsets_np, offsets)
    _assert_same_array(fabric.endpoints_np, endpoints)
    _assert_same_array(fabric.reverse_np, _index_sort_reverse(
        np.asarray(offsets, dtype=np.int64), np.asarray(endpoints, dtype=np.int64)
    ))


# vertex counts on both sides of a change of bit_length(n - 1), the key shift
_SHIFT_EDGE_NS = (1, 2, 3, 4, 5, 8, 9, 16, 17, 1024, 1025)


@st.composite
def _edge_arrays(draw):
    """(n, edges, seed): duplicates both ways round, self-loops, isolated vertices."""
    n = draw(st.sampled_from(_SHIFT_EDGE_NS))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    twins = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()),
                          max_size=10)) if pairs else []
    loops = draw(st.lists(vertex, max_size=4))
    rows = pairs + [(v, u) if flip else (u, v) for (u, v), flip in twins]
    rows += [(w, w) for w in loops]
    rows = draw(st.permutations(rows))
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    edges = np.array(rows, dtype=dtype).reshape(-1, 2)
    if draw(st.booleans()):
        edges = edges[:, ::-1]  # a strided view, every edge turned round
    return n, edges, draw(st.integers(0, 2**16))


@given(_edge_arrays())
@settings(max_examples=120, deadline=None)
def test_value_sorts_match_index_sorts(case):
    n, edges, seed = case
    graph = FrozenGraph.from_edge_array(n, edges)
    offsets, neighbors = _index_sort_csr(n, edges)
    _assert_same_array(graph.csr_arrays()[0], offsets)
    _assert_same_array(graph.csr_arrays()[1], neighbors)
    # default order: the CSR fast path
    _assert_fabric_matches(Network(graph).fabric, offsets, neighbors)
    # identifier_order= and a mutable graph: the relabelled general path
    order = list(range(n))
    random.Random(seed).shuffle(order)
    node_of = np.empty(n, dtype=np.int64)
    node_of[order] = np.arange(n)
    _assert_fabric_matches(
        Network(graph, identifier_order=order).fabric,
        *_index_sort_relabelled(graph, node_of),
    )
    mutable = graph.thaw()
    _assert_fabric_matches(
        Network(mutable).fabric,
        *_index_sort_relabelled(freeze(mutable), np.arange(n, dtype=np.int64)),
    )


@pytest.mark.parametrize("family,kwargs", _FAMILY_SPECS)
def test_memmapped_csr_fabric_matches_index_sort(family, kwargs, tmp_path):
    graph = _build(family, **kwargs)
    path = tmp_path / "g.npz"
    graph.save_npz(path)
    mapped = FrozenGraph.load_npz(path, mmap=True)
    assert not mapped.csr_arrays()[1].flags.writeable  # the read-only map
    offsets, neighbors = _index_sort_csr(len(graph), graph.edges())
    _assert_same_array(mapped.csr_arrays()[0], offsets)
    _assert_same_array(mapped.csr_arrays()[1], neighbors)
    _assert_fabric_matches(Network(mapped).fabric, offsets, neighbors)


# digests of the five streaming builders at a few thousand vertices, as the
# index-sort builds gave them: the packed-key builds must not move one
_STREAMING_DIGESTS = [
    ("stream-degenerate", {"n": 3000, "degeneracy": 3, "seed": 7}, "755aed72364ce3a5"),
    ("stream-forest", {"n": 3000, "arboricity": 2, "seed": 3}, "4876ebe01b931d1e"),
    ("stream-k-tree", {"n": 3000, "k": 3, "seed": 5}, "1a6d2da5cfa428bf"),
    ("stream-power-law", {"n": 3000, "m": 2, "seed": 9}, "9e81f3635a5a16bf"),
    ("stream-torus", {"rows": 50, "cols": 60, "shuffle_seed": 1}, "9a52853abf6c52f2"),
]


@pytest.mark.parametrize("family,kwargs,digest", _STREAMING_DIGESTS)
def test_streaming_builder_digests_are_pinned(family, kwargs, digest):
    assert graph_digest(_build(family, **kwargs)) == digest


def test_sorted_pair_keys_fill_63_bits_and_refuse_a_64th():
    high = np.array([2**40 - 1, 0, 2**40 - 1], dtype=np.int64)
    low = np.array([2**23 - 1, 5, 0], dtype=np.int64)
    keys, shift = _sorted_pair_keys(high, low, 2**40, 2**23)
    assert shift == 23
    assert keys.tolist() == [5, 2**63 - 2**23, 2**63 - 1]
    assert (keys >> shift).tolist() == [0, 2**40 - 1, 2**40 - 1]
    for counts in ((2**40 + 1, 2**23), (2**40, 2**23 + 1)):
        with pytest.raises(GraphError, match="63-bit"):
            _sorted_pair_keys(high, low, *counts)


def test_from_edge_array_refuses_n_beyond_two_indices_per_key():
    # refused before any n-sized allocation (a 2**31-entry count would
    # take 16 GiB)
    with pytest.raises(GraphError, match="63-bit"):
        FrozenGraph.from_edge_array(2**31 + 1, np.empty((0, 2)))


# ---------------------------------------------------------------------------
# npz round trip + memmap parity (hypothesis over the generator matrix)
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(
    index=st.integers(0, len(_FAMILY_SPECS) - 1),
    seed=st.integers(0, 10_000),
)
def test_npz_roundtrip_and_memmap_parity(index, seed):
    family, kwargs = _FAMILY_SPECS[index]
    kwargs = dict(kwargs)
    if "seed" in kwargs:
        kwargs["seed"] = seed
    else:  # stream-torus: vary the shuffle instead
        kwargs["shuffle_seed"] = seed
    graph = _build(family, **kwargs)

    fd, raw = tempfile.mkstemp(suffix=".npz")
    os.close(fd)
    path = Path(raw)
    try:
        graph.save_npz(path)
        mapped = FrozenGraph.load_npz(path, mmap=True)
        loaded = FrozenGraph.load_npz(path, mmap=False)
        for clone in (mapped, loaded):
            assert len(clone) == len(graph)
            assert clone.number_of_edges() == graph.number_of_edges()
            assert clone.identity_labels
            assert graph_digest(clone) == graph_digest(graph)
            assert clone.degeneracy() == graph.degeneracy()
            assert clone.name == graph.name
            assert sorted(clone.neighbors(0)) == sorted(graph.neighbors(0))
    finally:
        path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# digest: vectorized fast path == scalar slow path, stable across save/load
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,kwargs", _FAMILY_SPECS)
def test_digest_fast_path_matches_slow_path(family, kwargs):
    graph = _build(family, **kwargs)
    # identity-labelled frozen graphs take the vectorized CSR path; the
    # rebuilt dict-of-sets graph takes the scalar repr path — same stream
    assert graph_digest(graph) == graph_digest(_thaw(graph))


def test_digest_fast_path_edge_cases():
    empty = FrozenGraph.from_edge_array(0, np.empty((0, 2), dtype=np.int64))
    lonely = FrozenGraph.from_edge_array(1, np.empty((0, 2), dtype=np.int64))
    # the decimal-key packing must survive the "1" < "10" lexicographic
    # corner: vertex 1 sorts before 10 even though 10 > 9
    wide = FrozenGraph.from_edge_array(
        12, np.array([[1, 10], [9, 10], [0, 11]], dtype=np.int64)
    )
    for g in (empty, lonely, wide):
        assert graph_digest(g) == graph_digest(_thaw(g))


def test_digest_stable_across_save_load(tmp_path):
    graph = streaming.stream_degenerate_graph(500, 3, seed=11)
    # golden pin: the content address the corpus npz cache files carry in
    # their names — changing the generator or the digest changes this
    assert graph_digest(graph) == "20fa6613ade5f408"
    path = tmp_path / "g.npz"
    graph.save_npz(path)
    assert graph_digest(FrozenGraph.load_npz(path)) == "20fa6613ade5f408"


# ---------------------------------------------------------------------------
# shared-memory publish / attach
# ---------------------------------------------------------------------------

def _worker_attach(handle):
    """Pool worker: attach through the shared transport and fingerprint it.

    Fork-started workers inherit the parent's in-process registries, which
    would satisfy ``attach`` without touching shared memory — forget them
    first so this exercises what a spawn-fresh worker would do.
    """
    shared._LOCAL.pop(handle.digest, None)
    publication = shared._PUBLISHED.pop(handle.digest, None)
    if publication is not None and publication.block is not None:
        publication.block.close()
    graph = shared.attach(handle)
    try:
        return {
            "n": len(graph),
            "m": graph.number_of_edges(),
            "degeneracy": graph.degeneracy(),
            "digest": graph_digest(graph),
            "identity": graph.identity_labels,
        }
    finally:
        del graph
        shared.detach_all()


def test_publish_is_idempotent_and_local_attach_is_zero_copy():
    graph = streaming.stream_degenerate_graph(200, 3, seed=2)
    handle = shared.publish(graph)
    try:
        assert handle.kind in {"shm", "local"}
        assert handle.n == len(graph)
        assert handle.num_slots == graph.number_of_edges() * 2
        assert shared.publish(graph, digest=handle.digest) is handle
        # same-process attach resolves through the local registry: the
        # very object, no copy at all
        assert shared.attach(handle) is graph
        assert handle.digest in shared.published_digests()
    finally:
        shared.release(handle.digest)
    assert handle.digest not in shared.published_digests()


def test_shared_memory_attach_in_real_process_pool():
    graph = streaming.stream_k_tree(150, 3, seed=4)
    handle = shared.publish(graph)
    if handle.kind != "shm":
        pytest.skip("shared memory unavailable in this sandbox")
    try:
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                results = [
                    pool.submit(_worker_attach, handle).result(timeout=60)
                    for _ in range(2)
                ]
        except (OSError, BrokenExecutor, ImportError):
            pytest.skip("sandbox cannot fork a process pool")
        for result in results:
            assert result["n"] == len(graph)
            assert result["m"] == graph.number_of_edges()
            assert result["degeneracy"] == graph.degeneracy()
            assert result["digest"] == handle.digest == graph_digest(graph)
            assert result["identity"]
    finally:
        shared.release(handle.digest)


def test_npz_handle_attach_validates_digest(tmp_path):
    graph = streaming.stream_forest_union(80, 2, seed=6)
    path = tmp_path / "g.npz"
    graph.save_npz(path)
    digest = graph_digest(graph)
    good = shared.SharedGraphHandle(
        kind="npz", digest=digest, n=len(graph),
        num_slots=graph.number_of_edges() * 2, location=str(path),
    )
    try:
        clone = shared.attach(good)
        assert graph_digest(clone) == digest
        bad = shared.SharedGraphHandle(
            kind="npz", digest="0" * 16, n=len(graph),
            num_slots=graph.number_of_edges() * 2, location=str(path),
        )
        with pytest.raises(GraphError, match="digest"):
            shared.attach(bad)
    finally:
        shared.detach_all()


# ---------------------------------------------------------------------------
# corpus npz cache: content addressing, LRU cap, prune
# ---------------------------------------------------------------------------

def test_corpus_caches_streaming_instances_as_npz(tmp_path):
    spec = InstanceSpec.of("stream-degenerate", n=120, degeneracy=3, seed=1)
    corpus = InstanceCorpus(cache_dir=tmp_path)
    graph = corpus.frozen(spec)
    path = corpus.npz_path(spec)
    assert path is not None and path.suffix == ".npz"
    assert path.stem.rsplit("-", 1)[-1] == graph_digest(graph)
    # a fresh corpus instance warm-loads the memory-mapped cached file
    warm = InstanceCorpus(cache_dir=tmp_path).frozen(spec)
    assert graph_digest(warm) == graph_digest(graph)
    # corruption is detected by the content address and regenerated
    path.write_bytes(b"not an npz")
    regenerated = InstanceCorpus(cache_dir=tmp_path).frozen(spec)
    assert graph_digest(regenerated) == graph_digest(graph)


def test_corpus_cache_cap_evicts_least_recently_used(tmp_path):
    specs = [
        InstanceSpec.of("stream-degenerate", n=100, degeneracy=2, seed=s)
        for s in range(3)
    ]
    corpus = InstanceCorpus(cache_dir=tmp_path)
    paths = []
    for stamp, spec in enumerate(specs):
        corpus.frozen(spec)
        path = corpus.npz_path(spec)
        os.utime(path, (stamp, stamp))  # deterministic LRU order
        paths.append(path)
    total = corpus.cache_size_bytes()
    assert total == sum(p.stat().st_size for p in paths)

    # cap just below the total: exactly the oldest entry must go
    capped = InstanceCorpus(
        cache_dir=tmp_path, max_bytes=total - 1
    )
    evicted = capped.prune()
    assert evicted == [paths[0]]
    assert not paths[0].exists() and paths[1].exists() and paths[2].exists()
    # prune without any cap is a no-op
    assert InstanceCorpus(cache_dir=tmp_path).prune() == []
    # an explicit limit of 0 clears the cache
    assert InstanceCorpus(cache_dir=tmp_path).prune(max_bytes=0) != []
    assert InstanceCorpus(cache_dir=tmp_path).cache_files() == []


def test_corpus_cap_reads_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CORPUS_MAX_BYTES", "12345")
    assert InstanceCorpus(cache_dir=tmp_path).max_bytes == 12345
    monkeypatch.setenv("REPRO_CORPUS_MAX_BYTES", "not-a-number")
    assert InstanceCorpus(cache_dir=tmp_path).max_bytes is None


# ---------------------------------------------------------------------------
# artifact satellites: peak RSS on rows, ISO timestamp + schema minor
# ---------------------------------------------------------------------------

def test_rows_carry_peak_rss_and_artifact_carries_iso_timestamp():
    import datetime

    runner = ExperimentRunner("rss-probe")
    row = runner.run("g", "a", lambda: {"value": 1})
    peak = row.metrics.get("peak_rss_bytes")
    if peak is not None:  # resource module present (POSIX)
        assert isinstance(peak, int) and peak > 0
    payload = runner.to_json_dict()
    assert payload["schema_minor"] >= 1
    stamp = datetime.datetime.fromisoformat(payload["generated_at_iso"])
    assert stamp.tzinfo is not None


def test_scale_scenario_rows_are_digest_checked(tmp_path):
    from repro.scenarios import run_scenario

    run = run_scenario(
        "scale", smoke=True, workers=1, out=tmp_path,
        overrides={"sizes": (400,), "roundtrip_max_n": 400},
    )
    assert run.ok and run.failures == []
    by_algorithm = {row.algorithm: row for row in run.runner.rows}
    peel = by_algorithm["degeneracy peel [shared]"]
    assert peel.metrics["digest_ok"] and peel.metrics["valid"]
    assert peel.metrics["transport"] in {"shm", "npz", "local"}
    coloring = by_algorithm["batched greedy Delta+1 [shared]"]
    assert coloring.metrics["valid"]
    assert coloring.metrics["colors"] <= coloring.metrics["budget"]
    assert run.runner.metadata.get("parent_peak_rss_bytes", 1) > 0
    # the scenario must leave nothing published behind
    assert shared.published_digests() == []


# ---------------------------------------------------------------------------
# identity-label index
# ---------------------------------------------------------------------------

def test_identity_index_behaves_like_a_dict():
    graph = streaming.stream_degenerate_graph(30, 2, seed=1)
    index = graph._index
    assert len(index) == 30
    assert index[7] == 7 and index.get(7) == 7
    assert index[7.0] == 7  # hashes like the int, resolves like the int
    assert 29 in index and 30 not in index and -1 not in index
    assert "x" not in index and index.get("x", "d") == "d"
    with pytest.raises(KeyError):
        index[30]
    assert list(index) == list(range(30))


def test_non_identity_labels_fall_back_to_real_dict():
    g = Graph(vertices=["a", "b"])
    g.add_edge("a", "b")
    frozen = freeze(g)
    assert not frozen.identity_labels


# ---------------------------------------------------------------------------
# corpus cache-dir creation race (regression: concurrent warm of one family)
# ---------------------------------------------------------------------------

def _worker_warm_corpus(cache_dir: str) -> str:
    """Pool worker: warm the same streaming spec into a shared cache dir.

    Every worker races to create ``cache_dir`` (which does not exist when
    the pool starts) and to store the same npz — the regression scenario
    behind :meth:`InstanceCorpus._ensure_cache_dir`.
    """
    corpus = InstanceCorpus(cache_dir=cache_dir)
    spec = InstanceSpec.of("stream-degenerate", n=400, degeneracy=2, seed=9)
    return graph_digest(corpus.frozen(spec))


def test_corpus_cache_dir_creation_races_are_benign(tmp_path):
    # the directory (including a parent) must not exist yet: creation itself
    # is the contended step
    cache_dir = tmp_path / "deep" / "corpus-cache"
    try:
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_worker_warm_corpus, str(cache_dir)) for _ in range(4)
            ]
            digests = [f.result(timeout=120) for f in futures]
    except (OSError, BrokenExecutor, ImportError):
        pytest.skip("sandbox cannot fork a process pool")
    assert len(set(digests)) == 1
    files = list(cache_dir.glob("stream-degenerate-*.npz"))
    assert len(files) == 1  # atomic replace: exactly one winner, no .tmp litter
    assert not list(cache_dir.glob("*.tmp.*"))
    # the surviving file is loadable and content-correct
    warm = InstanceCorpus(cache_dir=cache_dir)
    spec = InstanceSpec.of("stream-degenerate", n=400, degeneracy=2, seed=9)
    assert graph_digest(warm.frozen(spec)) == digests[0]


def test_corpus_same_process_concurrent_stores_use_unique_tmp_names(tmp_path):
    # one process, many threads (the serving layer's warm pattern): pid-only
    # tmp names would collide; the per-process serial keeps them distinct
    from concurrent.futures import ThreadPoolExecutor

    cache_dir = tmp_path / "thread-cache"
    spec = InstanceSpec.of("stream-forest", n=300, arboricity=2, seed=11)

    def warm() -> str:
        corpus = InstanceCorpus(cache_dir=cache_dir)  # no shared memo
        return graph_digest(corpus.frozen(spec))

    with ThreadPoolExecutor(max_workers=6) as pool:
        digests = [f.result(timeout=120) for f in [pool.submit(warm) for _ in range(6)]]
    assert len(set(digests)) == 1
    assert len(list(cache_dir.glob("stream-forest-*.npz"))) == 1
    assert not list(cache_dir.glob("*.tmp.*"))


def test_corpus_degrades_gracefully_when_cache_dir_is_unusable(tmp_path):
    # a *file* squatting on the cache path: creation fails, generation must not
    squatter = tmp_path / "not-a-dir"
    squatter.write_text("occupied")
    corpus = InstanceCorpus(cache_dir=squatter)
    spec = InstanceSpec.of("path", n=12)
    graph = corpus.build(spec)
    assert graph.number_of_vertices() == 12
    assert squatter.read_text() == "occupied"  # nothing clobbered it


# ---------------------------------------------------------------------------
# the 10^5 tier (slow: run with `-m slow`)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_stream_degenerate_100k_peel_and_digest_fast_path():
    graph = streaming.stream_degenerate_graph(100_000, 3, seed=1)
    assert len(graph) == 100_000
    assert graph.degeneracy() <= 3
    # fast-path digest agrees with itself across an npz round trip at scale
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "g.npz"
        graph.save_npz(path)
        mapped = FrozenGraph.load_npz(path, mmap=True)
        assert graph_digest(mapped) == graph_digest(graph)
        assert mapped.degeneracy() == graph.degeneracy()


@pytest.mark.slow
def test_shared_fanout_100k_roundtrips_degeneracy():
    graph = streaming.stream_forest_union(100_000, 2, seed=3)
    handle = shared.publish(graph)
    try:
        attached = shared.attach(handle)
        assert attached is graph  # local registry: literally zero copies
        # arboricity a bounds degeneracy by 2a - 1
        assert attached.degeneracy() <= 3
        assert handle.num_slots == 2 * graph.number_of_edges()
    finally:
        shared.release(handle.digest)
