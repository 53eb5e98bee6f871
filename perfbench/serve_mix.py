"""serve-mix: open-loop traffic against the coloring service, started through its CLI.

The server runs as its own process (``python -m repro serve --port 0``, CLI
defaults: one worker), so its CPU time and memory are its own.  This process
is the only load generator: it opens two connections (one on a single-core
machine), and it and the server are pinned to separate cores.

Everything sent is generated from the seed before the first request: the
small graphs, the big uploads and the arrival times.  Requests go out on
schedule whether or not earlier ones were answered (an open loop), and each
latency is timed from the request's due time, so a stall also charges the
requests queued behind it.  Three request types are mixed:

* hot reads — ``color`` on the preloaded standard instances (cache hits);
* cold units — ``upload`` of a small graph followed by ``color`` requests for
  three algorithms on it (fresh cache keys, so misses through the batcher);
* big units — ``upload`` of a sparse graph with 2x10^4 vertices followed
  by a ``greedy`` color (the upload blocks the event loop).

The fixed-rate phase gives the latency percentiles; a rate ramp of hot reads
and cold units follows and gives the highest rate that meets the latency
limit without a growing backlog.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from statistics import median

from repro.corpus import graph_digest
from repro.graphs.generators import sparse, streaming
from repro.serve.protocol import encode_line

#: offered load of the fixed-rate phase, requests per second
FIXED_RATE = 300.0
#: share of arrivals that are cold units (each unit is 1 upload + 3 colors)
COLD_SHARE = 0.01
#: big units in the fixed-rate phase, one per equal slice of it.  One size
#: (the low end of 2x10^4..5x10^4), so p99 rests on alike events, while
#: together they stall a small share of the phase and leave p50 clear
BIG_UNITS = 2
BIG_N = 20_000
SMALL_N = 80
#: each ramp offers rates start * growth**k, each held for step seconds,
#: until two steps in a row miss the limit; max_rps is the median over the
#: ramps, so a stall of the machine during one ramp does not move it.  The
#: fixed-rate phase gets the run's seconds minus RAMP_SECONDS
RAMPS = 3
RAMP_START = 1250.0
RAMP_GROWTH = 1.25
RAMP_STEP_S = 0.4
RAMP_MAX_STEPS = 7
RAMP_SECONDS = 6.0
#: a ramp step passes when its p99 stays under this and its backlog drains
#: within it; well above the unloaded p99 (tens of ms, set by cold units
#: queued ahead on a connection), so steps fail when a backlog builds
LATENCY_LIMIT_MS = 250.0
#: server boots per run; set-up time is their median
SETUPS = 3
#: generator connections (never more than the cores there are)
CONNECTIONS = 2

HOT_INSTANCES = (
    "planar-tri-60-s3",
    "grid-6x10",
    "bounded-mad-64-k2-s5",
    "forest-union-80-a2-s1",
    "path-33",
)
COLD_ALGORITHMS = ("greedy", "delta-plus-one", "theorem13")

__all__ = ["run", "LAYER_NAMES"]

LAYER_NAMES = (
    "serve.color_hit.p50_ms", "serve.color_hit.p99_ms", "serve.cache.hit_rate",
    "serve.color_miss.p50_ms", "serve.color_miss.p99_ms", "serve.batching.batches",
    "serve.batching.coalesced", "serve.batching.mean_batch", "serve.upload.p50_ms",
    "serve.upload.max_ms", "serve.errors", "loadgen.late_p99_ms", "loadgen.backlog_max",
)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# the schedule
# ---------------------------------------------------------------------------

class Request:
    """One wire request and what happened to it."""

    __slots__ = ("kind", "key", "line", "due", "sent", "done", "response", "unit", "service")

    def __init__(self, kind: str, key: tuple | None, payload: dict, unit: int | None):
        self.kind = kind
        self.key = key
        self.line = encode_line(payload)
        self.unit = unit
        self.due = self.sent = self.done = 0.0
        #: done minus the moment the server could start it: its connection
        #: answers in order, so that is the later of the send and the answer
        #: before it — the op's own time, without the queue ahead of it
        self.service = 0.0
        self.response: dict | None = None

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.due)


def _color(digest: str, algorithm: str, unit=None) -> Request:
    payload = {"op": "color", "graph_digest": digest, "algorithm": algorithm,
               "return_coloring": False}
    return Request("color", (digest, algorithm), payload, unit)


def _upload(graph, name: str, unit: int) -> tuple[Request, str]:
    payload = {"op": "upload", "n": len(graph), "name": name,
               "edges": [[int(u), int(v)] for u, v in graph.edges()]}
    return Request("upload", None, payload, unit), graph_digest(graph)


class Schedule:
    """Every request of one run, generated from the seed before any is sent."""

    def __init__(self, seed: int, seconds: float, hot: dict[str, str]):
        self.rng = random.Random(seed)
        self.hot = hot
        self.units = 0
        self.digests: dict[int, str] = {}  # unit -> expected upload digest
        self.big_units: set[int] = set()
        self.fixed = self._phase(FIXED_RATE, max(2.0, seconds - RAMP_SECONDS), big=True)
        rates = [RAMP_START * RAMP_GROWTH**k for k in range(RAMP_MAX_STEPS)]
        self.ramps = [[(rate, self._phase(rate, RAMP_STEP_S, big=False)) for rate in rates]
                      for _ in range(RAMPS)]

    def _hot_read(self) -> Request:
        rng = self.rng
        # skewed toward the first instances and algorithms: a hot-key mix
        name = HOT_INSTANCES[min(rng.randrange(len(HOT_INSTANCES)), rng.randrange(len(HOT_INSTANCES)))]
        algorithm = COLD_ALGORITHMS[min(rng.randrange(3), rng.randrange(3))]
        return _color(self.hot[name], algorithm)

    def _unit(self, graph, name: str, algorithms) -> list[Request]:
        unit = self.units
        self.units += 1
        upload, digest = _upload(graph, name, unit)
        self.digests[unit] = digest
        return [upload] + [_color(digest, a, unit) for a in algorithms]

    def _phase(self, rate: float, duration: float, *, big: bool) -> list[tuple[float, list[Request]]]:
        """Arrivals at ``rate`` requests/s as (due offset, requests) items.

        Arrivals are paced: one at a uniform random time in each slot of
        length 1/arrival-rate, and every ``1/COLD_SHARE``-th arrival (from a
        seeded offset) is a cold unit.  The offered load is then even over
        the phase, so a run's latencies depend on the rate, not on how the
        arrivals happened to bunch.
        """
        rng = self.rng
        requests_per_arrival = 1 + COLD_SHARE * len(COLD_ALGORITHMS)
        slot = requests_per_arrival / rate
        every = round(1 / COLD_SHARE)
        offset = rng.randrange(every)
        items: list[tuple[float, list[Request]]] = []
        for k in range(int(duration / slot)):
            t = (k + rng.random()) * slot
            if k % every == offset:
                graph = sparse.random_degenerate_graph(SMALL_N, 2, seed=rng.randrange(2**31)).freeze()
                items.append((t, self._unit(graph, "cold", COLD_ALGORITHMS)))
            else:
                items.append((t, [self._hot_read()]))
        if big:
            share = duration / BIG_UNITS
            for k in range(BIG_UNITS):
                t = (k + rng.uniform(0.1, 0.5)) * share
                graph = streaming.stream_degenerate_graph(BIG_N, 2, rng.randrange(2**31))
                self.big_units.add(self.units)
                items.append((t, self._unit(graph, "big", ("greedy",))))
            items.sort(key=lambda item: item[0])
        return items


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------

class Server:
    """``python -m repro serve`` as a subprocess of this benchmark."""

    def __init__(self, root: Path, log_path: Path, cpus: set[int]):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env.pop("REPRO_CORPUS_DIR", None)  # keep the corpus in memory
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
        )
        os.sched_setaffinity(self.proc.pid, cpus)
        self.host, self.port = None, None

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode(errors="replace")
            if not line:
                break
            if line.startswith("repro-serve listening on "):
                host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
                self.host, self.port = host, int(port)
                return
        raise RuntimeError("server did not report its port")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        try:
            if self.proc.poll() is None and self.port is not None:
                try:
                    asyncio.run(_call_once(self.host, self.port, {"op": "shutdown"}))
                except OSError:
                    pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.log.close()


def _cpu_split() -> tuple[set[int], set[int]]:
    """(server CPUs, generator CPUs): the generator keeps one core to itself."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return set(cpus[:-1]), {cpus[-1]}


async def _call_once(host: str, port: int, payload: dict) -> dict:
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 26)
    try:
        writer.write(encode_line(payload))
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


# ---------------------------------------------------------------------------
# the open-loop driver
# ---------------------------------------------------------------------------

class Connection:
    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.pending: deque[Request] = deque()
        self.last_done = 0.0


class Driver:
    def __init__(self, connections: list[Connection]):
        self.connections = connections
        self.outstanding = 0
        self.backlog_max = 0
        self.readers = [asyncio.create_task(self._read(c)) for c in connections]

    async def _read(self, conn: Connection) -> None:
        while True:
            line = await conn.reader.readline()
            if not line:
                return
            request = conn.pending.popleft()
            request.done = time.perf_counter()
            request.service = request.done - max(request.sent, conn.last_done)
            conn.last_done = request.done
            request.response = json.loads(line)
            self.outstanding -= 1

    async def call(self, request: Request) -> dict:
        """Send one request and wait for its answer (set-up and stats)."""
        conn = self.connections[0]
        request.due = request.sent = time.perf_counter()
        conn.pending.append(request)
        self.outstanding += 1
        conn.writer.write(request.line)
        await conn.writer.drain()
        while request.response is None:
            await asyncio.sleep(0.001)
        return request.response

    async def stats(self) -> dict:
        return await self.call(Request("stats", None, {"op": "stats"}, None))

    async def _send(self, conn: Connection, items, t0: float) -> None:
        for due, requests in items:
            delay = t0 + due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = time.perf_counter()
            for request in requests:
                request.due = t0 + due
                request.sent = now
            conn.pending.extend(requests)
            self.outstanding += len(requests)
            self.backlog_max = max(self.backlog_max, self.outstanding)
            conn.writer.write(b"".join(r.line for r in requests))
            await conn.writer.drain()

    async def play(self, items, drain_timeout: float) -> float:
        """Send ``items`` on schedule; returns seconds to drain after the last send."""
        self.backlog_max = self.outstanding
        lanes = [items[i :: len(self.connections)] for i in range(len(self.connections))]
        t0 = time.perf_counter() + 0.01
        await asyncio.gather(*(self._send(c, lane, t0) for c, lane in zip(self.connections, lanes)))
        sent = time.perf_counter()
        while self.outstanding and time.perf_counter() - sent < drain_timeout:
            await asyncio.sleep(0.001)
        return time.perf_counter() - sent

    async def close(self) -> None:
        for conn in self.connections:
            conn.writer.close()
        for conn in self.connections:
            try:
                await conn.writer.wait_closed()
            except OSError:
                pass
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)


async def _connect(server: Server, count: int) -> Driver:
    connections = []
    for _ in range(count):
        reader, writer = await asyncio.open_connection(server.host, server.port, limit=1 << 26)
        connections.append(Connection(reader, writer))
    return Driver(connections)


async def _warm(server: Server) -> dict[str, str]:
    """Preload check and warm-up: every hot key computed once, so reads hit."""
    driver = await _connect(server, 1)
    try:
        listing = await driver.call(Request("instances", None, {"op": "instances"}, None))
        hot = {row["instance"]: row["graph_digest"] for row in listing["instances"]
               if row["instance"] in HOT_INSTANCES}
        for name in HOT_INSTANCES:
            for algorithm in COLD_ALGORITHMS:
                response = await driver.call(_color(hot[name], algorithm))
                if not response.get("ok"):
                    raise RuntimeError(f"warm-up failed on {name}/{algorithm}: {response}")
        return hot
    finally:
        await driver.close()


def _boot(root: Path, log_path: Path, cpus: set[int]) -> tuple[Server, dict[str, str], float]:
    start = time.perf_counter()
    server = Server(root, log_path, cpus)
    try:
        server.wait_ready()
        hot = asyncio.run(_warm(server))
    except BaseException:
        server.stop()
        raise
    return server, hot, time.perf_counter() - start


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def _check(requests: list[Request], expected: dict[int, str], answers: dict) -> list[str]:
    """One line per failed request: unanswered, refused, unverified or inconsistent."""
    problems = []
    for r in requests:
        problem = _problem(r, expected, answers)
        if problem:
            problems.append(problem)
    return problems


def _problem(r: Request, expected: dict[int, str], answers: dict) -> str | None:
    resp = r.response
    if resp is None:
        return f"{r.kind} unanswered"
    if not resp.get("ok"):
        return f"{r.kind} refused: {resp.get('error')}"
    if r.kind == "upload":
        if resp.get("graph_digest") != expected[r.unit]:
            return f"upload digest {resp.get('graph_digest')} != {expected[r.unit]}"
        return None
    if not resp.get("valid") or not all(v.get("ok") for v in resp.get("verdicts", ())):
        return f"color {r.key} failed its oracles: {resp.get('verdicts')}"
    # hit and miss answers for one key must be the same coloring
    fact = (resp.get("coloring_digest"), resp.get("rounds"), resp.get("colors"))
    seen = answers.setdefault(r.key, fact)
    if seen != fact:
        return f"color {r.key} answered {fact}, earlier {seen}"
    return None


def _stats_delta(before: dict, after: dict) -> dict:
    cache = {k: after["cache"][k] - before["cache"][k] for k in ("hits", "misses")}
    batching = {k: after["batching"][k] - before["batching"][k]
                for k in ("batches", "batched_jobs", "coalesced")}
    return {"cache": cache, "batching": batching}


def run(seed: int, seconds: float, root: Path) -> dict:
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    log_path = out_dir / f"serve-mix-seed{seed}.server.log"
    setup_times = []
    server = None
    # the generator and the server each run on their own cores, so neither
    # steals the other's time slices
    server_cpus, generator_cpus = _cpu_split()
    connections = min(CONNECTIONS, len(os.sched_getaffinity(0)))
    os.sched_setaffinity(0, generator_cpus)
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server, hot, elapsed = _boot(root, log_path, server_cpus)
            setup_times.append(elapsed)
        start = time.perf_counter()
        schedule = Schedule(seed, seconds, hot)
        generate_s = time.perf_counter() - start
        # the generator holds every request object until the end; a cyclic
        # collection would pause it mid-schedule, so it is off while sending
        gc.collect()
        gc.disable()
        try:
            result = asyncio.run(_measure(server, schedule, connections))
        finally:
            gc.enable()
        result["end_to_end"]["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    result["end_to_end"]["setup_s"] = median(setup_times)
    result["samples"]["setup"] = len(setup_times)
    result["generate_s"] = generate_s
    return result


async def _measure(server: Server, schedule: Schedule, connections: int) -> dict:
    driver = await _connect(server, connections)
    try:
        before = await driver.stats()
        await driver.play(schedule.fixed, drain_timeout=60.0)
        backlog_max = driver.backlog_max
        after = await driver.stats()
        fixed = [r for _due, requests in schedule.fixed for r in requests]
        answers: dict = {}
        problems = _check(fixed, schedule.digests, answers)

        ramps = [await _ramp(driver, ramp, schedule.digests, answers) for ramp in schedule.ramps]
        final = await driver.stats()
    finally:
        await driver.close()

    colors = [r for r in fixed if r.kind == "color" and r.response and r.response.get("ok")]
    uploads = [1000.0 * r.service for r in fixed
               if r.kind == "upload" and r.response and r.response.get("ok")]
    hits = [1000.0 * r.service for r in colors if r.response.get("cached")]
    misses = [1000.0 * r.service for r in colors if not r.response.get("cached")]
    latencies = [r.latency_ms for r in fixed if r.response]
    late = [1000.0 * (r.sent - r.due) for r in fixed]
    # a cold unit is solved when the last of its three colorings comes back
    # verified; its requests were sent together, so only the send delay is
    # not covered by an op's own span
    units: dict[int, list[Request]] = {}
    for r in colors:
        if r.unit is not None and r.unit not in schedule.big_units:
            units.setdefault(r.unit, []).append(r)
    solved = [rs for rs in units.values() if len(rs) == len(COLD_ALGORITHMS)]
    solve = [max(r.done for r in rs) - rs[0].due for rs in solved]
    uncovered = [rs[0].sent - rs[0].due for rs in solved]
    big = [r for r in colors if r.unit in schedule.big_units]
    delta = _stats_delta(before, after)
    lookups = delta["cache"]["hits"] + delta["cache"]["misses"]
    batches = delta["batching"]["batches"]
    steps = [step for ramp in ramps for step in ramp]
    attempted = len(fixed) + sum(step["requests"] for step in steps)
    failed = len(problems) + sum(step["failed"] for step in steps)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "ramps": ramps,
        "answers": {f"{k[0]}/{k[1]}": v for k, v in sorted(answers.items())},
        "samples": {"fixed_requests": len(fixed), "latencies": len(latencies),
                    "cold_units": len(solve), "hits": len(hits), "misses": len(misses),
                    "uploads": len(uploads)},
        "big_units_s": [r.done - r.due for r in big],
        "server_stats": final,
        "end_to_end": {
            "solve_s": median(solve) if solve else 0.0,
            # LOCAL rounds of a served Theorem 1.3 coloring: the median over
            # the cold units, each a fresh graph
            "rounds": median([r.response["rounds"] for rs in solved for r in rs
                              if r.key[1] == "theorem13"] or [0]),
            "messages": 2 * len(fixed),
            "colors": max((r.response.get("colors", 0) for r in colors), default=0),
            "verified_frac": (attempted - failed) / attempted,
            "p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99),
            "max_rps": median(_max_rate(ramp) for ramp in ramps),
        },
        "per_layer": {
            "serve.color_hit.p50_ms": percentile(hits, 50),
            "serve.color_hit.p99_ms": percentile(hits, 99),
            "serve.cache.hit_rate": delta["cache"]["hits"] / lookups if lookups else 0.0,
            "serve.color_miss.p50_ms": percentile(misses, 50),
            "serve.color_miss.p99_ms": percentile(misses, 99),
            "serve.batching.batches": batches,
            "serve.batching.coalesced": delta["batching"]["coalesced"],
            "serve.batching.mean_batch": delta["batching"]["batched_jobs"] / batches if batches else 0.0,
            "serve.upload.p50_ms": percentile(uploads, 50),
            "serve.upload.max_ms": max(uploads, default=0.0),
            "serve.errors": final["errors"],
            "loadgen.late_p99_ms": percentile(late, 99),
            "loadgen.backlog_max": backlog_max,
            "unattributed_s": median(uncovered) if uncovered else 0.0,
            # the traced run records the same client-side timestamps the
            # untraced run needs for its latencies: nothing extra is timed
            "trace_overhead_frac": 0.0,
        },
        "spans": [_span(i, r) for i, r in enumerate(fixed)],
    }


async def _ramp(driver: Driver, ramp, expected: dict[int, str], answers: dict) -> list[dict]:
    """Offer each step's rate in turn until two steps in a row miss the limit."""
    steps: list[dict] = []
    for rate, items in ramp:
        drain_s = await driver.play(items, drain_timeout=5.0)
        requests = [r for _due, rs in items for r in rs]
        problems = _check(requests, expected, answers)
        step = {"rate": rate, "requests": len(requests),
                "p99_ms": percentile([r.latency_ms for r in requests if r.response], 99),
                "drain_ms": 1000.0 * drain_s, "failed": len(problems), "problems": problems[:5]}
        # a request that failed misses the limit too
        step["passed"] = not problems and _figure(step) <= LATENCY_LIMIT_MS
        steps.append(step)
        # one miss alone may be a stall of the machine rather than the server
        if len(steps) >= 2 and not steps[-1]["passed"] and not steps[-2]["passed"]:
            break
    return steps


def _max_rate(steps: list[dict]) -> float:
    """The highest rate meeting the limit, interpolated toward the next step.

    The answer is the last step that passed; between it and the step after
    it, the rate where the latency figure crosses the limit is interpolated
    linearly, so the estimate is not quantized to the ramp's steps.
    """
    passed = [k for k, step in enumerate(steps) if step["passed"]]
    if not passed:
        return 0.0
    last = steps[passed[-1]]
    if passed[-1] + 1 == len(steps):
        return last["rate"]
    miss = steps[passed[-1] + 1]
    below, above = _figure(last), _figure(miss)
    if miss["failed"] or above <= below:
        return last["rate"]
    share = (LATENCY_LIMIT_MS - below) / (above - below)
    return last["rate"] + (miss["rate"] - last["rate"]) * min(1.0, share)


def _figure(step: dict) -> float:
    """A step's latency figure: its p99, or the time its backlog took to drain."""
    return max(step["p99_ms"], step["drain_ms"])


def _span(index: int, r: Request) -> dict:
    """One op as the client saw it; the ops of a cold or big unit share a parent."""
    kind = r.kind
    if kind == "color" and r.response:
        kind = "color_hit" if r.response.get("cached") else "color_miss"
    return {"id": index, "name": f"serve.{kind}", "job": f"request{index}",
            "parent": None if r.unit is None else f"unit{r.unit}",
            "due_ns": int(r.due * 1e9), "start_ns": int(r.sent * 1e9),
            "end_ns": int(r.done * 1e9), "service_ns": int(r.service * 1e9)}
