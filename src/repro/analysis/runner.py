"""Experiment harness: parameter sweeps producing rows for the report tables.

The benchmarks of this repository (one per experiment in EXPERIMENTS.md) all
follow the same shape: generate a family of graphs over a parameter sweep,
run one or more algorithms on each instance, verify the outputs, and print a
table of colors / rounds / sizes.  :class:`ExperimentRunner` centralizes the
bookkeeping so each benchmark file stays a thin declaration of its sweep.

Two execution modes are provided:

* :meth:`ExperimentRunner.run` — run one measurement inline (the seed-era
  API, still used for quick ad-hoc rows);
* :meth:`ExperimentRunner.run_batch` — declare the whole sweep as a list of
  :class:`BatchTask` and fan it out over a ``concurrent.futures`` process
  pool.  Each task gets a *deterministic* seed derived from the batch's
  ``base_seed`` and the task index (stable across runs, worker counts and
  scheduling order), so parallel results are reproducible bit-for-bit.

Finished runners export a machine-readable ``BENCH_<name>.json`` artifact
(:meth:`ExperimentRunner.export_json`) so the performance trajectory of the
repository can be tracked across PRs instead of living in scrollback.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import re
import sys
import time
from collections.abc import Callable, Iterable, Mapping
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "ExperimentRow",
    "ExperimentRunner",
    "BatchTask",
    "derive_seed",
]

JSON_SCHEMA_VERSION = 1
#: minor revisions add optional fields without breaking schema-v1 readers:
#: 1 = generated_at_iso on artifacts, peak_rss_bytes on rows
JSON_SCHEMA_MINOR = 1


def _peak_rss_bytes() -> int | None:
    """Lifetime peak resident-set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; ``None`` when the
    platform has no ``resource`` module (Windows).  Note this is a process
    high-water mark, so it is monotone across rows — comparable across runs,
    not across rows of one run.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


@dataclass
class ExperimentRow:
    """One (instance, algorithm) measurement."""

    instance: str
    algorithm: str
    metrics: dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "instance": self.instance,
            "algorithm": self.algorithm,
            "metrics": _jsonify(self.metrics),
            "seconds": self.seconds,
        }


@dataclass
class BatchTask:
    """One unit of a batched sweep: a picklable callable plus its arguments.

    ``fn`` must be defined at module top level (process-pool workers import
    it by qualified name).  It is called as ``fn(*args, **kwargs)`` and must
    return a metric mapping.  When the batch has a ``base_seed`` and
    ``seed_arg`` is not ``None``, the runner injects the task's derived seed
    as ``kwargs[seed_arg]`` — generators and randomized algorithms stay
    reproducible without the benchmark wiring seeds by hand.

    ``seed_group`` keys the derivation: by default every task derives from
    its position in the list, but tasks sharing a group string (typically
    the instance label) receive the *same* seed — how the backend/engine
    A/B scenarios guarantee that every variant row of an instance measures
    the same generated graph while ``--seed`` still reseeds the whole
    sweep.
    """

    instance: str
    algorithm: str
    fn: Callable[..., Mapping[str, Any]]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    seed_arg: str | None = "seed"
    seed_group: str | None = None


def derive_seed(base_seed: int, key: "int | str") -> int:
    """Deterministic 63-bit per-task seed, stable across runs and platforms.

    ``key`` is the task's position in the batch, or its ``seed_group``
    string when one is declared.
    """
    digest = hashlib.sha256(f"{base_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _pool_probe() -> None:
    """No-op run in a worker to prove the process pool can execute at all."""


def _execute_batch_task(
    payload: tuple[int, BatchTask],
) -> tuple[int, dict[str, Any] | None, float, Exception | None]:
    """Worker body (module-level so process pools can pickle it).

    Task exceptions are *returned*, not raised: only pool-infrastructure
    failures may escape, so the caller can tell "the sandbox cannot fork"
    (fall back to inline execution) from "the task is buggy" (re-raise,
    never silently re-run the batch).
    """
    index, task = payload
    start = time.perf_counter()
    try:
        metrics = dict(task.fn(*task.args, **task.kwargs))
    except Exception as exc:  # noqa: BLE001 - transported to the parent
        return index, None, time.perf_counter() - start, exc
    peak = _peak_rss_bytes()
    if peak is not None:
        # setdefault: a task that measured a more specific figure wins
        metrics.setdefault("peak_rss_bytes", peak)
    return index, metrics, time.perf_counter() - start, None


class ExperimentRunner:
    """Collects measurement rows and renders them as a text table."""

    def __init__(self, name: str, metadata: Mapping[str, Any] | None = None):
        self.name = name
        self.rows: list[ExperimentRow] = []
        self.metadata: dict[str, Any] = dict(metadata or {})

    def run(
        self,
        instance: str,
        algorithm: str,
        fn: Callable[[], Mapping[str, Any]],
    ) -> ExperimentRow:
        """Execute ``fn`` (returning a metric mapping) and record a row.

        The row is measured by :func:`_execute_batch_task`, like every
        batch row: its ``seconds`` and ``peak_rss_bytes``.
        """
        task = BatchTask(instance, algorithm, fn, seed_arg=None)
        _, metrics, elapsed, error = _execute_batch_task((0, task))
        if error is not None:
            raise error
        row = ExperimentRow(
            instance=instance, algorithm=algorithm, metrics=metrics, seconds=elapsed
        )
        self.rows.append(row)
        return row

    def add(self, instance: str, algorithm: str, **metrics: Any) -> ExperimentRow:
        row = ExperimentRow(instance=instance, algorithm=algorithm, metrics=metrics)
        self.rows.append(row)
        return row

    # ------------------------------------------------------------------
    # Batched parallel execution
    # ------------------------------------------------------------------
    def run_batch(
        self,
        tasks: Iterable[BatchTask],
        *,
        max_workers: int | None = None,
        base_seed: int | None = None,
        parallel: bool = True,
    ) -> list[ExperimentRow]:
        """Fan ``tasks`` out over a process pool and record a row per task.

        Rows are appended in task order regardless of completion order.
        Determinism: task ``i`` receives ``derive_seed(base_seed, i)`` in
        ``kwargs[task.seed_arg]`` (when both are set), which depends only on
        ``base_seed`` and the position in the list — not on worker count or
        scheduling.  Falls back to inline execution when the platform cannot
        spawn worker processes (sandboxes, restricted CI) or when
        ``parallel=False``.
        """
        prepared: list[tuple[int, BatchTask]] = []
        for index, task in enumerate(tasks):
            if base_seed is not None and task.seed_arg is not None:
                key = index if task.seed_group is None else task.seed_group
                task = BatchTask(
                    instance=task.instance,
                    algorithm=task.algorithm,
                    fn=task.fn,
                    args=task.args,
                    kwargs={**task.kwargs, task.seed_arg: derive_seed(base_seed, key)},
                    seed_arg=task.seed_arg,
                    seed_group=task.seed_group,
                )
            prepared.append((index, task))

        results: list[tuple[int, dict[str, Any] | None, float, Exception | None]] = []
        if parallel and len(prepared) > 1:
            pool_proven = False
            try:
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    # probe with a no-op before running real work: once the
                    # probe succeeds, a later pool failure means a task
                    # killed its worker (segfault, OOM) — that must surface,
                    # not trigger a silent inline re-run of completed tasks
                    pool.submit(_pool_probe).result()
                    pool_proven = True
                    results = list(pool.map(_execute_batch_task, prepared))
            except (OSError, BrokenExecutor, ImportError):
                if pool_proven:
                    raise
                # the pool itself is unavailable (sandboxes that cannot
                # fork); nothing ran, so inline execution is a retry of
                # nothing.  Task-level exceptions never land here — workers
                # return them as values.
                results = []
        if not results:
            results = [_execute_batch_task(item) for item in prepared]

        results.sort()
        for index, _metrics, _elapsed, error in results:
            if error is not None:
                raise error
        rows: list[ExperimentRow] = []
        for index, metrics, elapsed, _error in results:
            task = prepared[index][1]
            row = ExperimentRow(
                instance=task.instance,
                algorithm=task.algorithm,
                metrics=metrics,
                seconds=elapsed,
            )
            rows.append(row)
        self.rows.extend(rows)
        return rows

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def metric_columns(self) -> list[str]:
        columns: list[str] = []
        for row in self.rows:
            for key in row.metrics:
                if key not in columns:
                    columns.append(key)
        return columns

    def to_table(self) -> str:
        """Render all rows as an aligned text table."""
        columns = ["instance", "algorithm", *self.metric_columns(), "seconds"]
        data: list[list[str]] = [columns]
        for row in self.rows:
            data.append(
                [
                    row.instance,
                    row.algorithm,
                    *[_fmt(row.metrics.get(c, "")) for c in self.metric_columns()],
                    f"{row.seconds:.3f}",
                ]
            )
        widths = [max(len(line[i]) for line in data) for i in range(len(columns))]
        lines = []
        for index, line in enumerate(data):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def print_table(self) -> None:
        print(f"\n== {self.name} ==")
        print(self.to_table())

    def metric_series(self, algorithm: str, metric: str) -> list[Any]:
        return [
            row.metrics.get(metric)
            for row in self.rows
            if row.algorithm == algorithm and metric in row.metrics
        ]

    # ------------------------------------------------------------------
    # JSON artifact export
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """The machine-readable form of this runner (schema-versioned)."""
        now = time.time()
        stamp = datetime.datetime.fromtimestamp(now, tz=datetime.timezone.utc)
        return {
            "schema_version": JSON_SCHEMA_VERSION,
            "schema_minor": JSON_SCHEMA_MINOR,
            "name": self.name,
            "generated_at": now,
            "generated_at_iso": stamp.isoformat(timespec="seconds"),
            "metadata": _jsonify(self.metadata),
            "rows": [row.to_json_dict() for row in self.rows],
        }

    def export_json(self, path: str | Path | None = None) -> Path:
        """Write the ``BENCH_<slug>.json`` artifact and return its path.

        The default filename is derived from the runner's name; pass an
        explicit ``path`` to control the location (benchmarks use the
        repository root so successive PRs diff the perf trajectory).
        """
        if path is None:
            path = Path(f"BENCH_{self.slug()}.json")
        path = Path(path)
        path.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def slug(self) -> str:
        """A filesystem-safe identifier derived from the runner name."""
        slug = re.sub(r"[^A-Za-z0-9]+", "_", self.name).strip("_")
        return slug or "experiment"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _jsonify(value: Any) -> Any:
    """Best-effort conversion to JSON-encodable values (repr as last resort)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_jsonify(v) for v in items]
    return repr(value)
