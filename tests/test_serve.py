"""End-to-end and fault-path tests of the coloring service.

Three layers of harness:

* a **real server subprocess** (module fixture: ``python -m repro serve
  --port 0 --fault-injection``, port parsed from its boot line) driven by
  concurrent asyncio clients — every served coloring is re-checked
  *client-side* against the PR-5 oracles on an independently rebuilt
  graph, and a hypothesis property pins cache consistency (same digest +
  params ⇒ bit-identical ``coloring_digest`` whether hit, miss or
  coalesced, under interleaved concurrent requests);
* an **in-process service** with tiny caps for the fault paths: malformed
  edge lists, unknown digests, oversized uploads and over-long request
  lines must produce structured errors while the event loop keeps serving;
* **direct executor tests** for the worker-crash degradation: a batch
  whose worker dies mid-request comes back as retried/failed payloads,
  never an exception and never a hang.

No test may hang: every await is bounded by ``asyncio.wait_for`` (the
repo has no pytest-timeout plugin).
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import STANDARD_INSTANCES, default_corpus, graph_digest
from repro.serve import (
    ColoringService,
    ServeClient,
    ServeConfig,
    ServeDeadlineError,
    ServeResponseError,
)
from repro.serve.batching import MicroBatcher
from repro.serve.cache import ResultCache
from repro.serve.executor import JobSpec, compute_job, execute_jobs
from repro.serve.loadgen import _percentile
from repro.serve.protocol import ServeError, canonical_params, encode_line
from repro.verify.coloring import PaletteBudgetOracle, ProperColoringOracle

pytestmark = pytest.mark.serve

REPO_ROOT = Path(__file__).resolve().parent.parent
TEST_TIMEOUT = 90.0  # outer bound for any single awaited interaction


def run_async(coro, timeout: float = TEST_TIMEOUT):
    """Drive a coroutine on a fresh loop with a hard deadline (no hangs)."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


# ---------------------------------------------------------------------------
# the real-server fixture (subprocess, ephemeral port, fault injection on)
# ---------------------------------------------------------------------------

def _read_boot_line(proc: subprocess.Popen, timeout: float = 60.0) -> str:
    """The server's ``listening on`` line, or kill it and fail loudly."""
    result: dict[str, str] = {}

    def target() -> None:
        result["line"] = proc.stdout.readline()

    reader = threading.Thread(target=target, daemon=True)
    reader.start()
    reader.join(timeout)
    line = result.get("line", "")
    if "listening on" not in line:
        proc.kill()
        raise RuntimeError(f"server failed to boot (got {line!r})")
    return line.strip()


@pytest.fixture(scope="module")
def live_server():
    """``(host, port)`` of a real ``python -m repro serve`` subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--fault-injection", "--batch-window-ms", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    try:
        line = _read_boot_line(proc)
        address = line.rsplit(" ", 1)[-1]
        host, port = address.rsplit(":", 1)
        yield host, int(port)
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)


# ---------------------------------------------------------------------------
# client-side oracle gate: rebuild the graph, remap labels, re-verify
# ---------------------------------------------------------------------------

_GRAPHS = {
    name: default_corpus().frozen(spec) for name, spec in STANDARD_INSTANCES.items()
}
_DIGESTS = {name: graph_digest(g) for name, g in _GRAPHS.items()}
_BY_DIGEST = {digest: name for name, digest in _DIGESTS.items()}


def _decode_coloring(graph, pairs):
    """Invert the wire form (``[[repr(v), color], ...]``) against the graph."""
    by_repr = {repr(v): v for v in graph.vertices()}
    coloring = {}
    for encoded, color in pairs:
        assert encoded in by_repr, f"served vertex {encoded!r} is not in the graph"
        coloring[by_repr[encoded]] = color
    return coloring


def _assert_response_legal(response):
    """The e2e oracle gate: independent proper-coloring + budget re-check."""
    graph = _GRAPHS[_BY_DIGEST[response["graph_digest"]]]
    coloring = _decode_coloring(graph, response["coloring"])
    proper = ProperColoringOracle().check(graph=graph, coloring=coloring)
    assert proper.ok, proper.diagnostics
    budget = PaletteBudgetOracle().check(coloring=coloring, budget=response["budget"])
    assert budget.ok, budget.diagnostics
    assert response["valid"] is True
    assert all(v["ok"] for v in response["verdicts"])


# ---------------------------------------------------------------------------
# end-to-end: concurrent clients against the real server
# ---------------------------------------------------------------------------

_E2E_REQUESTS = [
    ("planar-tri-60-s3", "greedy", {}),
    ("planar-tri-60-s3", "theorem13", {}),
    ("grid-6x10", "greedy", {}),
    ("grid-6x10", "delta-plus-one", {}),
    ("bounded-mad-64-k2-s5", "theorem13", {}),
    ("forest-union-80-a2-s1", "greedy", {}),
    ("torus-6x8", "greedy", {}),  # tuple vertex labels: the local-handle path
    ("path-33", "delta-plus-one", {}),
    ("regular-40-d4-s7", "theorem13", {"d": 5}),
    ("single-vertex", "greedy", {}),
]


def test_e2e_concurrent_clients_all_responses_pass_oracles(live_server):
    host, port = live_server

    async def one_client(requests):
        responses = []
        async with ServeClient(host, port) as client:
            for name, algorithm, params in requests:
                responses.append(
                    await client.color(_DIGESTS[name], algorithm, params=params)
                )
        return responses

    async def fan_out():
        # 6 concurrent clients, interleaved schedules (offset rotations so
        # identical keys race each other across connections)
        schedules = [
            _E2E_REQUESTS[i:] + _E2E_REQUESTS[:i] for i in range(6)
        ]
        return await asyncio.gather(*(one_client(s) for s in schedules))

    all_responses = run_async(fan_out())
    digests_by_key = {}
    for responses in all_responses:
        assert len(responses) == len(_E2E_REQUESTS)
        for response in responses:
            _assert_response_legal(response)
            key = (
                response["graph_digest"],
                response["algorithm"],
                repr(canonical_params(response["params"])),
            )
            seen = digests_by_key.setdefault(key, response["coloring_digest"])
            # hit, miss and coalesced paths must agree bit-for-bit
            assert seen == response["coloring_digest"]
    # across 6 rotated schedules every key repeated: some must have been hits
    assert any(r["cached"] for responses in all_responses for r in responses)


def test_e2e_stats_and_instances_round_trip(live_server):
    host, port = live_server

    async def body():
        async with ServeClient(host, port) as client:
            instances = await client.instances()
            stats = await client.stats()
            return instances, stats

    instances, stats = run_async(body())
    listed = {row["instance"] for row in instances}
    assert set(STANDARD_INSTANCES) <= listed
    assert stats["cache"]["max_bytes"] > 0
    assert stats["requests"] >= 1


# ---------------------------------------------------------------------------
# hypothesis: cache consistency under interleaved concurrent requests
# ---------------------------------------------------------------------------

_KEY_STRATEGY = st.sampled_from(
    [
        ("planar-tri-60-s3", "greedy"),
        ("grid-6x10", "greedy"),
        ("bounded-mad-64-k2-s5", "greedy"),
        ("path-33", "delta-plus-one"),
        ("forest-union-80-a2-s1", "theorem13"),
    ]
)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(batch=st.lists(_KEY_STRATEGY, min_size=2, max_size=8))
def test_cache_consistency_property(live_server, batch):
    """Same digest + params ⇒ bit-identical coloring_digest, hit or miss.

    Each drawn batch fires concurrently over two connections (so repeats
    of one key interleave as coalesced joins, cache hits and misses in
    unpredictable order) and then once more sequentially — every response
    for a key must carry the same coloring_digest.
    """
    host, port = live_server

    async def fire():
        async with ServeClient(host, port) as a, ServeClient(host, port) as b:
            concurrent = await asyncio.gather(
                *(
                    (a if i % 2 else b).color(_DIGESTS[name], algorithm)
                    for i, (name, algorithm) in enumerate(batch)
                )
            )
            sequential = [
                await a.color(_DIGESTS[name], algorithm) for name, algorithm in batch
            ]
        return concurrent + sequential

    responses = run_async(fire())
    by_key = {}
    for response in responses:
        assert response["valid"] is True
        key = (response["graph_digest"], response["algorithm"])
        by_key.setdefault(key, set()).add(response["coloring_digest"])
    for key, digests in by_key.items():
        assert len(digests) == 1, f"{key} served {len(digests)} distinct colorings"


# ---------------------------------------------------------------------------
# fault paths: structured errors, surviving event loop (in-process service)
# ---------------------------------------------------------------------------

@pytest.fixture()
def small_service():
    """A config for an in-process service with tiny caps (10 edges, 4 KiB frames)."""
    return ServeConfig(
        port=0,
        max_upload_edges=10,
        max_request_bytes=4096,
        batch_window_ms=1.0,
        fault_injection=True,
    )


async def _with_service(config, body):
    service = ColoringService(config)
    host, port = await service.start()
    server_task = asyncio.ensure_future(service.serve_forever())
    try:
        return await body(service, host, port)
    finally:
        await service.shutdown()
        try:
            await asyncio.wait_for(server_task, timeout=10)
        except asyncio.TimeoutError:
            server_task.cancel()


def test_malformed_and_unknown_requests_return_structured_errors(small_service):
    async def body(service, host, port):
        async with ServeClient(host, port) as client:
            # malformed edge list shapes
            for bad_edges in ([[0]], [[0, "x"]], ["nope"], [[0, 99]], 7):
                response = await client.request(
                    {"op": "upload", "n": 5, "edges": bad_edges}, check=False
                )
                assert response["ok"] is False
                assert response["error"]["code"] == "bad-request", response
            # unknown digest / op / algorithm
            response = await client.request(
                {"op": "color", "graph_digest": "feedfacefeedface"}, check=False
            )
            assert response["error"]["code"] == "unknown-digest"
            response = await client.request({"op": "recolor"}, check=False)
            assert response["error"]["code"] == "unknown-op"
            response = await client.request(
                {"op": "color", "graph_digest": _DIGESTS["path-33"],
                 "algorithm": "quantum"},
                check=False,
            )
            assert response["error"]["code"] == "unknown-algorithm"
            # bad params shapes
            response = await client.request(
                {"op": "color", "graph_digest": _DIGESTS["path-33"],
                 "algorithm": "theorem13", "params": {"d": [1, 2]}},
                check=False,
            )
            assert response["error"]["code"] == "bad-request"
            # ... and the connection still serves good requests afterwards
            good = await client.color(_DIGESTS["path-33"], "greedy")
            assert good["valid"] is True
        return True

    assert run_async(_with_service(small_service, body))


def test_oversized_upload_and_frame_are_rejected_not_fatal(small_service):
    async def body(service, host, port):
        async with ServeClient(host, port) as client:
            # over the 10-edge upload cap: rejected cheaply, connection lives
            edges = [[i, i + 1] for i in range(11)]
            response = await client.request(
                {"op": "upload", "n": 12, "edges": edges}, check=False
            )
            assert response["error"]["code"] == "too-large"
            assert (await client.ping())["pong"] is True
        # a frame longer than max_request_bytes: answered, then hung up
        # (framing is unrecoverable) — but the *server* keeps accepting
        async with ServeClient(host, port) as client:
            with pytest.raises((ServeResponseError, ConnectionError)):
                await client.request({"op": "ping", "pad": "x" * 8192})
        async with ServeClient(host, port) as client:
            assert (await client.ping())["pong"] is True
        return True

    assert run_async(_with_service(small_service, body))


def test_injected_crash_degrades_to_failed_response_not_hang(small_service):
    async def body(service, host, port):
        async with ServeClient(host, port) as client:
            response = await asyncio.wait_for(
                client.color(_DIGESTS["path-33"], "crash", check=False), timeout=30
            )
            assert response["ok"] is False
            assert response["error"]["code"] == "compute-failed"
            # the loop survived; the same connection serves real work
            good = await client.color(_DIGESTS["path-33"], "greedy")
            assert good["valid"] is True
        return True

    assert run_async(_with_service(small_service, body))


def test_crash_algorithm_is_rejected_without_fault_injection():
    config = ServeConfig(port=0, fault_injection=False)

    async def body(service, host, port):
        async with ServeClient(host, port) as client:
            response = await client.request(
                {"op": "color", "graph_digest": _DIGESTS["path-33"],
                 "algorithm": "crash"},
                check=False,
            )
            assert response["error"]["code"] == "unknown-algorithm"
        return True

    assert run_async(_with_service(config, body))


def test_clique_dichotomy_surfaces_as_structured_error(small_service):
    # k-tree-48-k3-s2 contains 4-cliques: theorem13 with d=3 must answer
    # clique-found, not crash and not a bogus coloring; and the theorem's
    # d >= 3 precondition must come back as bad-request, not compute-failed
    async def body(service, host, port):
        async with ServeClient(host, port) as client:
            response = await client.color(
                _DIGESTS["k-tree-48-k3-s2"], "theorem13",
                params={"d": 3}, check=False,
            )
            assert response["ok"] is False
            assert response["error"]["code"] == "clique-found"
            response = await client.color(
                _DIGESTS["k-tree-48-k3-s2"], "theorem13",
                params={"d": 2}, check=False,
            )
            assert response["error"]["code"] == "bad-request"
            assert (await client.ping())["pong"] is True
        return True

    assert run_async(_with_service(small_service, body))


# ---------------------------------------------------------------------------
# client retry: backoff through drops/drains, bounded attempts, deadlines
# ---------------------------------------------------------------------------

async def _flaky_server(behaviour):
    """An asyncio server whose per-connection behaviour a test scripts.

    ``behaviour(connection_index, reader, writer)`` decides what each
    accepted connection does; returns ``(server, host, port, counter)``.
    """
    counter = {"connections": 0}

    async def handler(reader, writer):
        counter["connections"] += 1
        try:
            await behaviour(counter["connections"], reader, writer)
        finally:
            writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return server, host, port, counter


def test_client_retries_through_draining_connections():
    # the first two connections hang up after reading the request — the
    # shape a draining/restarting server presents — the third one answers
    async def behaviour(index, reader, writer):
        await reader.readline()
        if index <= 2:
            return  # close without answering: client sees EOF
        writer.write(encode_line({"ok": True, "pong": True}))
        await writer.drain()

    async def body():
        server, host, port, counter = await _flaky_server(behaviour)
        try:
            client = ServeClient(
                host, port, retries=3, backoff_base=0.01, jitter_seed=7
            )
            response = await client.ping()
            assert response["pong"] is True
            assert counter["connections"] == 3
            await client.aclose()
        finally:
            server.close()
            await server.wait_closed()
        return True

    assert run_async(body())


def test_client_retry_budget_is_bounded():
    # a server that always drains: the client must give up after exactly
    # retries + 1 attempts with a ConnectionError, not loop forever
    async def behaviour(index, reader, writer):
        await reader.readline()

    async def body():
        server, host, port, counter = await _flaky_server(behaviour)
        try:
            client = ServeClient(
                host, port, retries=2, backoff_base=0.01, jitter_seed=11
            )
            with pytest.raises(ConnectionError):
                await client.ping()
            assert counter["connections"] == 3
            await client.aclose()
        finally:
            server.close()
            await server.wait_closed()
        return True

    assert run_async(body())


def test_client_deadline_bounds_an_unresponsive_server():
    # the server accepts and never answers; the per-request deadline must
    # cut the exchange (and any backoff sleeps) with ServeDeadlineError
    async def behaviour(index, reader, writer):
        await reader.readline()
        await asyncio.sleep(60)

    async def body():
        server, host, port, _counter = await _flaky_server(behaviour)
        try:
            client = ServeClient(
                host, port, retries=5, backoff_base=0.05,
                deadline=0.4, jitter_seed=3,
            )
            loop = asyncio.get_running_loop()
            start = loop.time()
            with pytest.raises(ServeDeadlineError):
                await client.ping()
            assert loop.time() - start < 10.0
            await client.aclose()
        finally:
            server.close()
            await server.wait_closed()
        return True

    assert run_async(body())


def test_client_retry_covers_real_server_drain(small_service):
    # against the real in-process service: shutdown answers, then drains;
    # the retried follow-up surfaces a bounded structured failure, no hang
    async def body(service, host, port):
        client = ServeClient(
            host, port, retries=2, backoff_base=0.01,
            deadline=15.0, jitter_seed=5,
        )
        assert (await client.ping())["pong"] is True
        response = await client.shutdown()
        assert response["ok"] is True
        # the shutdown op responds before tripping the event (call_soon),
        # so one more request may slip through the race — poll until the
        # drain takes effect, then the retried request must fail bounded
        with pytest.raises((ConnectionError, ServeDeadlineError)):
            for _ in range(100):
                await client.request({"op": "ping"})
                await asyncio.sleep(0.02)
            raise AssertionError("server never drained")
        await client.aclose()
        return True

    assert run_async(_with_service(small_service, body))


# ---------------------------------------------------------------------------
# worker-crash degradation in the executor itself (real process pool)
# ---------------------------------------------------------------------------

def test_pool_worker_death_degrades_batch_to_inline_retry():
    from repro.analysis import shared
    from repro.graphs.generators import streaming

    try:
        graph = streaming.stream_degenerate_graph(300, 2, seed=5)
    except Exception:
        pytest.skip("streaming generators need numpy")
    handle = shared.publish(graph)
    if handle.kind != "shm":
        shared.release(handle.digest)
        pytest.skip("shared memory unavailable in this sandbox")
    try:
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                pool.submit(int, 1).result(timeout=30)
        except (OSError, BrokenExecutor, ImportError):
            pytest.skip("sandbox cannot fork a process pool")
        specs = [
            JobSpec(handle, "greedy", {}),
            JobSpec(handle, "crash", {}),  # os._exit(1) inside a pool worker
            JobSpec(handle, "greedy", {}),
        ]
        payloads = execute_jobs(specs, workers=2)
        assert len(payloads) == 3
        # the crash slot failed structurally; the siblings were retried inline
        assert payloads[1]["error"]["code"] == "compute-failed"
        for payload in (payloads[0], payloads[2]):
            assert payload.get("error") is None, payload
            assert payload["valid"] is True
        assert payloads[0]["coloring_digest"] == payloads[2]["coloring_digest"]
        # degradation keeps digest consistency: the inline-retried payloads
        # are bit-identical to a healthy (pool-free) run of the same jobs
        healthy = compute_job(handle, "greedy", {})
        assert payloads[0]["coloring_digest"] == healthy["coloring_digest"]
        assert payloads[0]["graph_digest"] == healthy["graph_digest"] == handle.digest
        # ... and a crash-free pooled batch over the same shm handle agrees
        clean = execute_jobs(
            [JobSpec(handle, "greedy", {}), JobSpec(handle, "greedy", {})],
            workers=2,
        )
        assert all(p.get("error") is None for p in clean), clean
        assert {p["coloring_digest"] for p in clean} == {healthy["coloring_digest"]}
    finally:
        shared.release(handle.digest)


def test_compute_job_self_verifies_and_reports_domain_errors():
    from repro.analysis import shared

    graph = _GRAPHS["planar-tri-60-s3"]
    handle = shared.local_handle(graph)
    try:
        payload = compute_job(handle, "greedy", {})
        assert payload["valid"] is True
        assert payload["colors"] <= payload["budget"]
        assert {v["oracle"] for v in payload["verdicts"]} == {
            "proper-coloring", "palette-budget",
        }
        # the wire coloring decodes back to a proper coloring
        coloring = _decode_coloring(graph, payload["coloring"])
        assert ProperColoringOracle().check(graph=graph, coloring=coloring).ok
        unknown = compute_job(handle, "nope", {})
        assert unknown["error"]["code"] == "unknown-algorithm"
    finally:
        shared.release(handle.digest)


def test_theorem13_budget_is_clamped_to_max_degree_plus_one():
    """A huge ``d`` is clamped to ``max(Δ+1, 3)``: same palette guarantee,
    bounded run time, and the budget oracle checks the tighter bound."""
    import time

    from repro.analysis import shared

    graph = _GRAPHS["planar-tri-60-s3"]
    delta = graph.max_degree()
    handle = shared.local_handle(graph)
    try:
        payload = compute_job(handle, "theorem13", {"d": delta + 5})
        assert payload.get("error") is None, payload
        assert payload["budget"] == delta + 1
        assert payload["valid"] is True
        start = time.perf_counter()
        payload = compute_job(handle, "theorem13", {"d": 10**6})
        assert time.perf_counter() - start < 5.0
        assert payload.get("error") is None, payload
        assert payload["budget"] == delta + 1
        assert payload["valid"] is True
        assert payload["colors"] <= payload["budget"]
    finally:
        shared.release(handle.digest)


# ---------------------------------------------------------------------------
# result cache unit behavior (byte cap, LRU, stats)
# ---------------------------------------------------------------------------

def test_result_cache_byte_cap_evicts_lru():
    cache = ResultCache(max_bytes=300)
    big = {"coloring": "x" * 100}
    cache.put("a", big)
    cache.put("b", big)
    assert cache.get("a") is not None  # a is now most-recent
    cache.put("c", big)  # over cap: evicts b (LRU), not a
    assert cache.get("b") is None
    assert cache.get("a") is not None
    assert cache.get("c") is not None
    stats = cache.stats()
    assert stats["evictions"] >= 1
    assert stats["bytes"] <= 300
    # an entry bigger than the whole cap is simply not stored
    cache.put("huge", {"coloring": "x" * 1000})
    assert cache.get("huge") is None


def test_canonical_params_rejects_non_scalars_and_sorts_keys():
    assert canonical_params(None) == {}
    assert list(canonical_params({"b": 1, "a": 2})) == ["a", "b"]
    with pytest.raises(ServeError):
        canonical_params({"d": [1]})
    with pytest.raises(ServeError):
        canonical_params("d=3")


# ---------------------------------------------------------------------------
# micro-batcher failure semantics: a raising executor must reject, not hang
# ---------------------------------------------------------------------------

class _Boom(RuntimeError):
    pass


def _lazily_raising_executor(specs, workers=1):
    """A generator whose first ``next()`` raises — the shape that used to
    slip past the old ``try`` (the exception fired while *zipping* the
    results to futures, after the guard) and hang every waiter."""
    def gen():
        raise _Boom("pool fell over")
        yield  # pragma: no cover - unreachable, makes this a generator
    return gen()


def _short_executor(specs, workers=1):
    return [{"ok": True}]  # one payload, regardless of batch size


def _dummy_spec() -> JobSpec:
    return JobSpec(handle=None, algorithm="greedy", params={})


def test_microbatcher_raising_executor_rejects_both_waiters():
    async def scenario():
        batcher = MicroBatcher(
            window_seconds=0.001, max_batch=8, execute=_lazily_raising_executor
        )
        a = asyncio.ensure_future(batcher.submit("key-a", _dummy_spec()))
        b = asyncio.ensure_future(batcher.submit("key-b", _dummy_spec()))
        results = await asyncio.gather(a, b, return_exceptions=True)
        assert all(isinstance(r, _Boom) for r in results)
        # every key evicted: the next submit retries instead of awaiting
        # the dead future of the failed batch
        assert batcher._pending == {}

    run_async(scenario(), timeout=10.0)


def test_microbatcher_short_payload_list_rejects_whole_batch():
    async def scenario():
        batcher = MicroBatcher(
            window_seconds=0.001, max_batch=8, execute=_short_executor
        )
        a = asyncio.ensure_future(batcher.submit("key-a", _dummy_spec()))
        b = asyncio.ensure_future(batcher.submit("key-b", _dummy_spec()))
        results = await asyncio.gather(a, b, return_exceptions=True)
        assert all(isinstance(r, RuntimeError) for r in results)
        assert all("payload" in str(r) for r in results)
        assert batcher._pending == {}

    run_async(scenario(), timeout=10.0)


def test_microbatcher_recovers_after_failed_batch():
    calls = []

    def flaky(specs, workers=1):
        calls.append(len(specs))
        if len(calls) == 1:
            raise _Boom("first batch dies")
        return [{"ok": True} for _ in specs]

    async def scenario():
        batcher = MicroBatcher(window_seconds=0.0, max_batch=1, execute=flaky)
        with pytest.raises(_Boom):
            await batcher.submit("key", _dummy_spec())
        payload = await batcher.submit("key", _dummy_spec())
        assert payload == {"ok": True}
        assert calls == [1, 1]

    run_async(scenario(), timeout=10.0)


# ---------------------------------------------------------------------------
# loadgen percentile convention (linear interpolation, numpy's default)
# ---------------------------------------------------------------------------

def test_percentile_pins_linear_interpolation():
    assert _percentile([1.0, 2.0, 3.0, 4.0], 0.50) == pytest.approx(2.5)
    decade = [float(i) for i in range(1, 11)]
    assert _percentile(decade, 0.95) == pytest.approx(9.55)
    assert _percentile(decade, 0.99) == pytest.approx(9.91)
    assert _percentile(decade, 0.0) == pytest.approx(1.0)
    assert _percentile(decade, 1.0) == pytest.approx(10.0)


def test_percentile_edge_cases_do_not_raise():
    assert _percentile([], 0.5) == 0.0
    assert _percentile([7.25], 0.99) == 7.25
    # out-of-range q clamps instead of indexing out of bounds
    assert _percentile([1.0, 2.0], 1.5) == 2.0
    assert _percentile([1.0, 2.0], -0.5) == 1.0
