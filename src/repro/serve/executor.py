"""Compute jobs of the coloring service: algorithms + oracle verdicts.

One request becomes one :func:`compute_job` call — a module-level,
picklable function taking a :class:`~repro.analysis.shared.
SharedGraphHandle` instead of a graph, so jobs travel to pool workers as
a few dozen bytes and the CSR arrays move through shared memory
(:mod:`repro.analysis.shared`).  Every job *verifies its own output*
before returning: the response carries
:class:`~repro.verify.coloring.ProperColoringOracle` and
:class:`~repro.verify.coloring.PaletteBudgetOracle` verdicts plus the
order-independent :func:`~repro.verify.parity.coloring_digest`, so a
client (and the e2e suite) can gate on legality without recomputing
anything.

:func:`execute_jobs` is the bridge the micro-batcher calls from an
executor thread.  It partitions on handle kind — ``"local"`` handles
(non-identity-labelled graphs, or a server running without a pool) only
resolve in this process and run inline; shareable handles fan out
through :meth:`~repro.analysis.runner.ExperimentRunner.run_batch`.  A
pool that dies mid-batch (a worker crash) degrades to an inline retry
of that batch; a job that fails even inline yields a structured
``compute-failed`` payload, never an exception and never a hang.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any

from repro.analysis.runner import BatchTask, ExperimentRunner
from repro.analysis.shared import SharedGraphHandle, attach
from repro.serve.protocol import ServeError
from repro.verify.coloring import PaletteBudgetOracle, ProperColoringOracle
from repro.verify.parity import coloring_digest

__all__ = ["ALGORITHMS", "compute_job", "execute_jobs", "JobSpec"]

#: ``algorithm`` request values -> (runner, description).  ``crash`` is the
#: fault-injection hook; the server only admits it with --fault-injection.
ALGORITHMS: dict[str, str] = {
    "greedy": "degeneracy-ordered greedy, budget = degeneracy + 1",
    "delta-plus-one": "batched Linial + color reduction, budget = maxdeg + 1",
    "theorem13": (
        "Theorem 1.3 flat pipeline, budget = min(d, max(maxdeg + 1, 3)) "
        "(param d, default max(degeneracy + 1, 3))"
    ),
    "crash": "fault injection: dies mid-request (requires --fault-injection)",
}


def _run_greedy(graph, params: dict[str, Any]) -> tuple[dict, int, int]:
    from repro.coloring.greedy import degeneracy_greedy_coloring

    coloring = degeneracy_greedy_coloring(graph)
    return coloring, graph.degeneracy() + 1, 0


def _run_delta_plus_one(graph, params: dict[str, Any]) -> tuple[dict, int, int]:
    from repro.distributed.linial import delta_plus_one_coloring

    result = delta_plus_one_coloring(graph)
    return result.coloring, graph.max_degree() + 1, result.rounds


def _run_theorem13(graph, params: dict[str, Any]) -> tuple[dict, int, int]:
    from repro.core.sparse_coloring import color_sparse_graph

    d = params.get("d")
    if d is None:
        # the theorem needs d >= 3; degeneracy + 1 always admits a coloring
        d = max(graph.degeneracy() + 1, 3)
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ServeError("bad-request", f"param d must be a positive integer, got {d!r}")
    # colors beyond max(Δ+1, 3) buy nothing: no (d+1)-clique fits under
    # d >= Δ+1, and the pipeline's cost grows with d, so a huge d would
    # otherwise hold a worker for minutes
    d = min(d, max(graph.max_degree() + 1, 3))
    try:
        result = color_sparse_graph(graph, d=d)
    except ValueError as exc:  # e.g. the theorem's d >= 3 precondition
        raise ServeError("bad-request", str(exc)) from None
    if result.coloring is None:
        raise ServeError(
            "clique-found",
            f"graph contains a {d + 1}-clique {sorted(map(repr, result.clique))}; "
            f"no {d}-coloring exists — retry with a larger d",
        )
    return result.coloring, d, result.rounds


def _run_crash(graph, params: dict[str, Any]) -> tuple[dict, int, int]:
    """Fault injection: kill the worker (pool) or raise (inline retry path).

    ``os._exit`` in a *pool worker* simulates a segfault/OOM — the parent
    sees ``BrokenExecutor`` and must degrade, which is exactly what the
    fault-path tests assert.  In the serving process itself (inline mode
    or the degraded retry) it raises instead: the service must never take
    itself down for one request.
    """
    mode = params.get("mode", "exit")
    if mode == "exit" and multiprocessing.parent_process() is not None:
        os._exit(1)
    raise RuntimeError("injected crash")


_RUNNERS = {
    "greedy": _run_greedy,
    "delta-plus-one": _run_delta_plus_one,
    "theorem13": _run_theorem13,
    "crash": _run_crash,
}


def compute_job(
    handle: SharedGraphHandle,
    algorithm: str,
    params: dict[str, Any],
    seed: int | None = None,
) -> dict[str, Any]:
    """Color the graph behind ``handle`` and self-verify; returns the payload.

    Domain failures (unknown algorithm, a clique on the Theorem 1.3 path,
    bad params) come back as ``{"error": {...}}`` payloads — only genuine
    crashes escape as exceptions, so the pool transport layer can tell
    "this request is wrong" from "this worker died".  ``seed`` is accepted
    for :class:`BatchTask` compatibility; the served algorithms are
    deterministic.
    """
    del seed
    start = time.perf_counter()
    runner = _RUNNERS.get(algorithm)
    if runner is None:
        return _error_payload(
            "unknown-algorithm",
            f"unknown algorithm {algorithm!r}; known: {sorted(_RUNNERS)}",
        )
    graph = attach(handle)
    try:
        coloring, budget, rounds = runner(graph, params)
    except ServeError as exc:
        return _error_payload(exc.code, exc.message)
    proper = ProperColoringOracle().check(graph=graph, coloring=coloring)
    palette = PaletteBudgetOracle().check(coloring=coloring, budget=budget)
    colors = len(set(coloring.values())) if coloring else 0
    return {
        "graph_digest": handle.digest,
        "algorithm": algorithm,
        "params": params,
        "n": len(graph),
        "m": graph.number_of_edges(),
        "colors": colors,
        "budget": budget,
        "rounds": rounds,
        "coloring_digest": coloring_digest(coloring),
        "valid": proper.ok and palette.ok,
        "verdicts": [_verdict_dict(v) for v in (proper, palette)],
        # vertices serialized by repr: labels may be tuples (torus/grid)
        "coloring": sorted([repr(v), c] for v, c in coloring.items()),
        "compute_seconds": time.perf_counter() - start,
    }


def _verdict_dict(verdict) -> dict[str, Any]:
    return {
        "oracle": verdict.oracle,
        "ok": verdict.ok,
        "checked": verdict.checked,
        "failures": verdict.failures,
        "diagnostics": list(verdict.diagnostics),
    }


def _error_payload(code: str, message: str) -> dict[str, Any]:
    return {"error": {"code": code, "message": message}}


class JobSpec:
    """One queued compute: handle + algorithm + canonical params."""

    __slots__ = ("handle", "algorithm", "params")

    def __init__(self, handle: SharedGraphHandle, algorithm: str, params: dict[str, Any]):
        self.handle = handle
        self.algorithm = algorithm
        self.params = params


def _run_inline(spec: JobSpec) -> dict[str, Any]:
    try:
        return compute_job(spec.handle, spec.algorithm, spec.params)
    except Exception as exc:  # noqa: BLE001 - degraded path must not raise
        return _error_payload(
            "compute-failed", f"{type(exc).__name__}: {exc}"
        )


def execute_jobs(specs: list[JobSpec], *, workers: int = 1) -> list[dict[str, Any]]:
    """Run a batch of jobs, preserving order; every slot gets a payload.

    ``workers > 1`` fans shareable handles out over the batch engine's
    process pool; ``"local"`` handles cannot cross a process boundary and
    always run inline in this process.  Pool death degrades the whole
    batch to inline retries (each individually guarded), so the caller
    always receives ``len(specs)`` payloads — some possibly
    ``compute-failed`` — and never an exception.
    """
    results: list[dict[str, Any] | None] = [None] * len(specs)
    pooled: list[tuple[int, JobSpec]] = []
    for index, spec in enumerate(specs):
        if workers > 1 and spec.handle.kind != "local":
            pooled.append((index, spec))
        else:
            results[index] = _run_inline(spec)
    if pooled:
        runner = ExperimentRunner("serve-batch")
        tasks = [
            BatchTask(
                instance=spec.handle.digest,
                algorithm=spec.algorithm,
                fn=compute_job,
                args=(spec.handle, spec.algorithm, spec.params),
                seed_arg=None,
            )
            for _index, spec in pooled
        ]
        try:
            rows = runner.run_batch(tasks, max_workers=workers, parallel=True)
            for (index, _spec), row in zip(pooled, rows):
                results[index] = row.metrics
        except Exception:  # noqa: BLE001 - pool died mid-batch: degrade inline
            for index, spec in pooled:
                results[index] = _run_inline(spec)
    return [payload if payload is not None else _error_payload("internal", "job lost")
            for payload in results]
