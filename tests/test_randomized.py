"""Tests for the randomized track (:mod:`repro.distributed.randomized`).

Five layers of pinning:

* the counter-based RNG against numpy's own Philox-4x64-10 bit stream —
  the module's pure-python ladder and numpy's C implementation must emit
  the same words for the same ``(seed, node, round)`` key — and its two
  kernels against Python ints: the 128-bit product and the k-th set bit
  of a packed palette row;
* engine parity properties (hypothesis over generator seeds) — the
  randomized (Delta+1)-coloring must replay bit-for-bit on the fused
  batched engine, the unfused reference, the flat per-node engine and
  the frozen seed engine, and ``randomized_delta_plus_one_coloring`` must
  agree with the per-node program on colorings, rounds and frontier
  traces;
* Moser-Tardos parity — the vectorized resampler and the per-vertex
  loop of ``baselines_reference`` walk the identical resample sequence
  and emit the same record log and digest, and the result is a proper
  list coloring;
* oracle mutation tests — ``RandomizedRoundsOracle`` and
  ``ResampleLogOracle`` accept genuine witnesses and reject doctored
  ones (inflated rounds, growing frontiers, edited violated sets,
  truncated logs, swapped colorings, wrong seeds);
* a golden replay — a slice of the ``randomized`` scenario reproduces the
  colorings, rounds, messages and resample logs of the committed
  ``BENCH_randomized.json``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

import baselines_reference

from repro.coloring.palette import (
    FlatListAssignment,
    ListAssignmentError,
    _pack_rows,
    kth_set_bits,
)
from repro.errors import NonTerminationError
from repro.distributed import randomized
from repro.distributed.randomized import (
    KEY_SALT,
    BatchRandomizedDeltaPlusOne,
    RandomizedDeltaPlusOne,
    ResampleLimitError,
    ResampleStep,
    counter_rng,
    counter_rng_one,
    default_round_cap,
    moser_tardos_list_coloring,
    philox4x64,
    randomized_delta_plus_one_coloring,
    resample_log_digest,
)
from repro.graphs.generators import classic, sparse
from repro.graphs.graph import Graph
from repro.local import Network, ReferenceSimulator, SynchronousSimulator
from repro.scenarios import run_scenario
from repro.verify import (
    PaletteBudgetOracle,
    ProperColoringOracle,
    RandomizedRoundsOracle,
    ResampleLogOracle,
    assert_simulation_parity,
    coloring_digest,
)

seeds = st.integers(min_value=0, max_value=2**20)
REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# counter-based RNG: pin against numpy's Philox bit stream
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=2**20),
)
@settings(max_examples=50, deadline=None)
def test_counter_rng_matches_numpy_philox(seed, node, rnd):
    # numpy's Philox generator pre-increments the counter before its
    # first block, so counter=[rnd-1, node, 0, 0] yields the block our
    # ladder computes at counter=[rnd, node, 0, 0].  The key is built as
    # uint64 explicitly: a plain list holding a word >= 2**63 would be
    # converted through float64, rounding both key words
    bits = np.random.Philox(
        counter=[rnd - 1, node, 0, 0],
        key=np.array([seed, KEY_SALT], dtype=np.uint64),
    ).random_raw(4)
    assert counter_rng_one(seed, node, rnd) == int(bits[0])


_WORDS = [
    0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1,
    randomized._PHILOX_M0, randomized._PHILOX_M1,
    randomized._PHILOX_W0, randomized._PHILOX_W1,
]


def test_mulhilo_matches_python_int_products():
    words = np.array(_WORDS, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for a in _WORDS:
            hi, lo = randomized._mulhilo(np.uint64(a), words)
            for j, b in enumerate(_WORDS):
                assert (int(hi[j]), int(lo[j])) == divmod(a * b, 2**64), (a, b)
                # Philox passes its constant counter words as scalars
                hi1, lo1 = randomized._mulhilo(np.uint64(a), np.uint64(b))
                assert (int(hi1), int(lo1)) == divmod(a * b, 2**64), (a, b)


_masks = st.one_of(
    st.integers(min_value=1, max_value=2**192 - 1),
    st.sets(st.integers(min_value=0, max_value=191), min_size=1).map(
        lambda bits: sum(1 << b for b in bits)
    ),
)


@given(st.lists(_masks, min_size=1, max_size=12), seeds)
@settings(max_examples=40, deadline=None)
def test_kth_set_bits_matches_python(masks, seed):
    """3-block rows: every k of every row, and one random k per row."""
    rows = _pack_rows(masks, 3)
    set_bits = [[i for i in range(192) if mask >> i & 1] for mask in masks]
    for row, bits in zip(rows, set_bits):
        ks = np.arange(len(bits), dtype=np.int64)
        assert kth_set_bits(np.repeat(row[None], len(bits), axis=0), ks).tolist() == bits
    rng = random.Random(seed)
    ks = [rng.randrange(len(bits)) for bits in set_bits]
    assert kth_set_bits(rows, np.array(ks)).tolist() == [
        bits[k] for bits, k in zip(set_bits, ks)
    ]


def test_counter_rng_vector_matches_scalar():
    nodes = np.arange(17, dtype=np.uint64)
    vector = counter_rng(12345, nodes, 7)
    for node in range(17):
        assert int(vector[node]) == counter_rng_one(12345, node, 7)


def test_philox_block_is_deterministic_and_key_sensitive():
    a = philox4x64(3, 5, 0, 0, 9, KEY_SALT)
    b = philox4x64(3, 5, 0, 0, 9, KEY_SALT)
    c = philox4x64(3, 5, 0, 0, 10, KEY_SALT)
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# randomized (Delta+1): four-engine parity and driver parity
# ---------------------------------------------------------------------------


def _net_and_inputs(n, gseed, rseed):
    graph = sparse.union_of_random_forests(n, 2, seed=gseed).freeze()
    order = graph.vertices()
    random.Random(gseed).shuffle(order)
    net = Network(graph, identifier_order=order)
    delta = max(1, graph.max_degree())
    inputs = {v: (rseed, delta) for v in graph.vertices()}
    return graph, net, inputs


@given(seeds, seeds, st.integers(min_value=2, max_value=40))
@settings(max_examples=20, deadline=None)
def test_randomized_four_engine_parity(gseed, rseed, n):
    graph, net, inputs = _net_and_inputs(n, gseed, rseed)
    max_rounds = 48 * n.bit_length() + 96
    fused = SynchronousSimulator(net).run(
        BatchRandomizedDeltaPlusOne, inputs=inputs, max_rounds=max_rounds,
        strict=True,
    )
    unfused = SynchronousSimulator(net).run(
        BatchRandomizedDeltaPlusOne, inputs=inputs, max_rounds=max_rounds,
        strict=True, reference_exchange=True,
    )
    flat = SynchronousSimulator(net).run(
        RandomizedDeltaPlusOne, inputs=inputs, max_rounds=max_rounds,
        strict=True,
    )
    seed_result = ReferenceSimulator(net).run(
        RandomizedDeltaPlusOne, inputs=inputs, max_rounds=max_rounds,
        strict=True,
    )
    assert_simulation_parity(fused, unfused, labels=("fused", "reference"))
    assert_simulation_parity(fused, flat, labels=("fused", "per-node"))
    assert_simulation_parity(fused, seed_result, labels=("fused", "seed"))
    assert fused.per_round_messages == seed_result.per_round_messages
    coloring = dict(fused.outputs)
    assert coloring_digest(coloring) == coloring_digest(dict(flat.outputs))
    delta = max(1, graph.max_degree())
    ProperColoringOracle().check(graph=graph, coloring=coloring).raise_if_failed()
    PaletteBudgetOracle().check(
        coloring=coloring, budget=delta + 1
    ).raise_if_failed()


@given(seeds, seeds, st.integers(min_value=0, max_value=40))
@settings(max_examples=20, deadline=None)
def test_randomized_driver_parity(gseed, rseed, n):
    """The batched run of randomized_delta_plus_one_coloring against the
    per-node program: the same coloring, rounds and messages, and the
    frontier trace rebuilt from the round each node colored in."""
    graph = sparse.union_of_random_forests(n, 2, seed=gseed).freeze()
    batched = randomized_delta_plus_one_coloring(graph, seed=rseed)
    assert batched.palette_size <= max(1, graph.max_degree()) + 1
    if not n:
        assert (batched.rounds, batched.messages, batched.frontier) == (0, 0, ())
        return
    nodes = []

    def per_node_program():
        nodes.append(RandomizedDeltaPlusOne())
        return nodes[-1]

    delta = max(1, graph.max_degree())
    per_node = SynchronousSimulator(Network(graph)).run(
        per_node_program, inputs={v: (rseed, delta) for v in graph.vertices()},
        max_rounds=default_round_cap(n), strict=True,
    )
    frontier = tuple(
        sum(1 for a in nodes if a.colored_round is None or a.colored_round >= r)
        for r in range(1, per_node.rounds + 1)
    )
    assert batched.coloring == per_node.outputs
    assert batched.rounds == per_node.rounds
    assert batched.messages == per_node.messages_sent
    assert batched.frontier == frontier
    ProperColoringOracle().check(
        graph=graph, coloring=batched.coloring
    ).raise_if_failed()


def test_randomized_seed_changes_coloring():
    graph = classic.complete_graph(12).freeze()
    a = randomized_delta_plus_one_coloring(graph, seed=1)
    b = randomized_delta_plus_one_coloring(graph, seed=2)
    assert a.coloring != b.coloring  # 12 clique vertices over 12 colors


def test_randomized_empty_graph():
    result = randomized_delta_plus_one_coloring(Graph().freeze(), seed=0)
    assert result.coloring == {}
    assert result.rounds == 0
    assert result.frontier == ()


def test_randomized_driver_refuses_a_coloring_cut_by_its_round_cap():
    """A run that hits max_rounds raises instead of returning zeros.

    Two rounds leave vertex 23 of this forest union uncolored (frontier
    ``(40, 10)``); its 0 used to come back as a color that both coloring
    oracles accepted.
    """
    graph = sparse.union_of_random_forests(40, 2, seed=30).freeze()
    with pytest.raises(NonTerminationError):
        randomized_delta_plus_one_coloring(graph, seed=30, max_rounds=2)
    result = randomized_delta_plus_one_coloring(graph, seed=30)
    assert 0 not in result.coloring.values()


def test_randomized_frontier_is_monotone_and_drains():
    graph = classic.random_regular_graph(80, 4, seed=5).freeze()
    result = randomized_delta_plus_one_coloring(graph, seed=9)
    assert len(result.frontier) == result.rounds
    assert result.frontier[0] == 80
    assert all(
        result.frontier[i] >= result.frontier[i + 1]
        for i in range(len(result.frontier) - 1)
    )
    assert result.frontier[-1] == 0
    RandomizedRoundsOracle().check(
        n=80, rounds=result.rounds, frontier=result.frontier
    ).raise_if_failed()


# ---------------------------------------------------------------------------
# Moser-Tardos: reference parity, legality, witness digests
# ---------------------------------------------------------------------------


def _mt_instance(n, gseed, extra_colors=0):
    graph = sparse.union_of_random_forests(n, 2, seed=gseed).freeze()
    delta = max(1, graph.max_degree())
    universe = 4 * delta + 4 + extra_colors
    width = 2 * delta + 2
    lists = {
        v: [((i * 3 + j) % universe) + 1 for j in range(width)]
        for i, v in enumerate(graph.vertices())
    }
    return graph, lists


@given(
    seeds, seeds, st.integers(min_value=2, max_value=40), st.sampled_from([0, 100])
)
@example(1, 2, 40, 100)  # a 137-color universe: three packed blocks
@settings(max_examples=15, deadline=None)
def test_moser_tardos_backend_parity(gseed, rseed, n, extra_colors):
    # extra colors spread instances of n >= 20 over more than 64 colors
    graph, lists = _mt_instance(n, gseed, extra_colors)
    flat = moser_tardos_list_coloring(graph, lists, seed=rseed)
    reference = baselines_reference.moser_tardos_list_coloring(
        graph, lists, seed=rseed
    )
    assert flat.coloring == reference.coloring
    assert flat.steps == reference.steps
    assert flat.log == reference.log
    assert flat.log_digest() == reference.log_digest()
    for v in graph.vertices():
        assert flat.coloring[v] in lists[v]
        for u in graph.neighbors(v):
            assert flat.coloring[u] != flat.coloring[v]


def test_moser_tardos_zero_vertices():
    result = moser_tardos_list_coloring(Graph().freeze(), {}, seed=0)
    assert result.coloring == {}
    assert result.steps == 0
    assert result.log == ()


def test_moser_tardos_rejects_empty_list():
    graph = classic.path(3).freeze()
    lists = {v: [1, 2, 3] for v in graph.vertices()}
    lists[graph.vertices()[1]] = []
    with pytest.raises(ListAssignmentError):
        moser_tardos_list_coloring(graph, lists, seed=0)


def test_moser_tardos_resample_limit():
    # a triangle with single-color lists can never become proper
    graph = classic.complete_graph(3).freeze()
    lists = {v: [1] for v in graph.vertices()}
    with pytest.raises(ResampleLimitError):
        moser_tardos_list_coloring(graph, lists, seed=0, max_steps=12)


def test_resample_log_digest_binds_seed_and_log():
    log = (ResampleStep(1, (0, 2)), ResampleStep(2, (1,)))
    base = resample_log_digest(log, seed=7)
    assert resample_log_digest(log, seed=8) != base
    assert resample_log_digest(log[:1], seed=7) != base
    assert resample_log_digest(log, seed=7) == base


# ---------------------------------------------------------------------------
# oracle mutation tests: each auditor rejects a doctored witness
# ---------------------------------------------------------------------------


def test_rounds_oracle_rejects_excessive_rounds():
    verdict = RandomizedRoundsOracle().check(n=64, rounds=10_000)
    assert verdict.failures


def test_rounds_oracle_rejects_growing_frontier():
    verdict = RandomizedRoundsOracle().check(
        n=4, rounds=3, frontier=[4, 2, 3]
    )
    assert any("grew" in d for d in verdict.diagnostics)


def test_rounds_oracle_rejects_undrained_frontier():
    verdict = RandomizedRoundsOracle().check(
        n=4, rounds=3, frontier=[4, 2, 1]
    )
    assert any("drained" in d for d in verdict.diagnostics)


def test_rounds_oracle_rejects_wrong_trace_length():
    verdict = RandomizedRoundsOracle().check(n=4, rounds=3, frontier=[4, 0])
    assert any("entries" in d for d in verdict.diagnostics)


def test_rounds_oracle_accepts_legal_trace():
    RandomizedRoundsOracle().check(
        n=4, rounds=3, frontier=[4, 2, 0]
    ).raise_if_failed()


@pytest.fixture()
def mt_witness():
    graph, lists = _mt_instance(24, 3)
    result = moser_tardos_list_coloring(graph, lists, seed=11)
    return graph, lists, result


def test_resample_oracle_accepts_genuine_witness(mt_witness):
    graph, lists, result = mt_witness
    ResampleLogOracle().check(
        graph=graph, lists=lists, seed=result.seed, log=result.log,
        coloring=result.coloring,
    ).raise_if_failed()


def test_resample_oracle_rejects_edited_violated_set(mt_witness):
    graph, lists, result = mt_witness
    doctored = list(result.log) or [ResampleStep(1, (0,))]
    doctored[0] = ResampleStep(
        doctored[0].step, tuple(v + 1 for v in doctored[0].vertices) or (1,)
    )
    verdict = ResampleLogOracle().check(
        graph=graph, lists=lists, seed=result.seed, log=doctored,
        coloring=result.coloring,
    )
    assert verdict.failures


def test_resample_oracle_rejects_padded_log(mt_witness):
    graph, lists, result = mt_witness
    padded = list(result.log) + [ResampleStep(result.steps + 1, (0, 1))]
    verdict = ResampleLogOracle().check(
        graph=graph, lists=lists, seed=result.seed, log=padded,
        coloring=result.coloring,
    )
    assert verdict.failures


def test_resample_oracle_rejects_swapped_coloring(mt_witness):
    graph, lists, result = mt_witness
    forged = dict(result.coloring)
    v = graph.vertices()[0]
    forged[v] = next(c for c in lists[v] if c != forged[v])
    verdict = ResampleLogOracle().check(
        graph=graph, lists=lists, seed=result.seed, log=result.log,
        coloring=forged,
    )
    assert verdict.failures


def test_resample_oracle_rejects_wrong_seed(mt_witness):
    graph, lists, result = mt_witness
    other = moser_tardos_list_coloring(graph, lists, seed=result.seed + 1)
    if other.log == result.log and other.coloring == result.coloring:
        pytest.skip("adjacent seeds happened to replay identically")
    verdict = ResampleLogOracle().check(
        graph=graph, lists=lists, seed=result.seed + 1, log=result.log,
        coloring=result.coloring,
    )
    assert verdict.failures


def test_resample_oracle_rejects_monochromatic_forgery():
    # a forged witness whose replay is consistent but whose coloring has
    # a monochromatic edge must fall to the independent legality check
    graph = classic.path(2).freeze()
    u, v = graph.vertices()
    lists = {u: [1, 2], v: [1, 2]}
    result = moser_tardos_list_coloring(graph, lists, seed=4)
    forged = {u: result.coloring[u], v: result.coloring[u]}
    verdict = ResampleLogOracle().check(
        graph=graph, lists=lists, seed=4, log=result.log, coloring=forged,
    )
    assert verdict.failures


# ---------------------------------------------------------------------------
# palette edge cases promoted by the randomized track (satellite #3)
# ---------------------------------------------------------------------------


def test_minimum_size_default_on_empty_assignment():
    empty = FlatListAssignment({})
    assert empty.minimum_size() == 0
    assert empty.minimum_size(default=5) == 5


def test_moser_tardos_ignores_foreign_empty_lists():
    # an empty list attached to a vertex outside the graph must not trip
    # the precondition (the restriction to graph vertices is what counts)
    graph = classic.path(3).freeze()
    lists = {v: [1, 2, 3] for v in graph.vertices()}
    lists["ghost"] = []
    result = moser_tardos_list_coloring(graph, lists, seed=0)
    assert set(result.coloring) == set(graph.vertices())


# ---------------------------------------------------------------------------
# golden replay of the committed artifact
# ---------------------------------------------------------------------------


def test_randomized_replays_the_committed_artifact():
    """Batched randomized and greedy Δ+1 and flat Moser–Tardos, 15 rows."""
    committed = json.loads((REPO_ROOT / "BENCH_randomized.json").read_text())
    golden = {(r["instance"], r["algorithm"]): r["metrics"] for r in committed["rows"]}
    run = run_scenario(
        "randomized", workers=1, export=False,
        overrides={"deterministic": ("greedy",), "mt_sizes": (300,)},
    )
    assert len(run.runner.rows) == 15
    for row in run.runner.rows:
        expected = golden[(row.instance, row.algorithm)]
        assert row.metrics["coloring_sha"] == expected["coloring_sha"], row.instance
        # Delta+1 rows carry rounds and messages, Moser-Tardos rows a log_sha
        for key in ("rounds", "messages", "log_sha"):
            assert row.metrics.get(key) == expected.get(key), (
                row.instance, row.algorithm, key
            )
