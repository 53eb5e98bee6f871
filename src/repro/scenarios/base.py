"""Scenario machinery: declarative experiments executed by the batch engine.

A :class:`Scenario` is the declarative form of one paper experiment: which
graphs to generate (the parameter grid), which algorithms to run on them,
which quantities to measure, and which paper statement the numbers are
checked against.  Scenarios do not run anything themselves — they *build*
:class:`~repro.analysis.runner.BatchTask` lists, and :func:`run_scenario`
hands those to :meth:`ExperimentRunner.run_batch`, which fans them out over
a process pool with deterministic per-task seeding and exports a
schema-versioned ``BENCH_<scenario>.json`` artifact.

The registry of concrete scenarios lives in :mod:`repro.scenarios.catalog`;
the ``python -m repro`` CLI (:mod:`repro.cli`) is a thin shell around
:func:`run_scenario` / :func:`run_campaign`.
"""

from __future__ import annotations

import os
import platform
import time
from collections.abc import Callable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import networkx
import numpy

from repro.analysis import BatchTask, ExperimentRunner

__all__ = [
    "PROFILE_STAGES",
    "Scenario",
    "ScenarioError",
    "ScenarioCheckError",
    "ScenarioRun",
    "CampaignRun",
    "StageProfile",
    "run_scenario",
    "run_campaign",
]

#: The pipeline stages of every scenario task row's ``stage_seconds``.
PROFILE_STAGES = ("generate", "freeze", "solve", "verify")


class ScenarioError(Exception):
    """A scenario could not be resolved or executed."""


class ScenarioCheckError(ScenarioError):
    """A scenario ran, but its paper-reference checks failed."""

    def __init__(self, name: str, failures: Sequence[str]):
        self.failures = list(failures)
        super().__init__(
            f"scenario {name!r} failed {len(self.failures)} check(s):\n  "
            + "\n  ".join(self.failures)
        )


class StageProfile:
    """Per-stage wall time of one scenario task: the row's one stage clock.

    Tasks wrap their pipeline stages in ``with prof("generate"): ...`` etc.
    and merge ``prof.metrics()`` into their metric mapping, so every task
    row carries ``stage_seconds``.  All four canonical stages are always
    present (0.0 when a task has no such stage), so artifacts stay directly
    comparable across scenarios.  A task's named timing metric that spans
    one whole stage (``solve_seconds``, ``engine_seconds``, ...) is a read
    of ``seconds[stage]``, not a second clock.  The cost is two clock reads
    per stage.
    """

    def __init__(self):
        self.seconds: dict[str, float] = dict.fromkeys(PROFILE_STAGES, 0.0)

    @contextmanager
    def __call__(self, stage: str):
        if stage not in self.seconds:
            raise ValueError(f"unknown stage {stage!r}; use one of {PROFILE_STAGES}")
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[stage] += time.perf_counter() - start

    def metrics(self) -> dict[str, Any]:
        return {"stage_seconds": {k: round(v, 6) for k, v in self.seconds.items()}}


@dataclass(frozen=True)
class Scenario:
    """One paper experiment, declared: grid, tasks, references, checks.

    ``build_tasks(params)`` must return :class:`BatchTask`\\ s whose ``fn``
    is a module-level callable (process-pool workers pickle it by qualified
    name) — the workers live in :mod:`repro.scenarios.tasks`.
    ``reference`` records the paper values the measured quantities are read
    against (documented per scenario in ``docs/experiments.md``); ``check``
    turns the scenario-specific ones into assertions.  Budgets, ``valid``
    flags, cross-variant parity, round envelopes and recovery are the
    generic oracles of :mod:`repro.verify.artifact`, which also runs
    ``check`` on a runner rebuilt from the artifact.  ``floors`` maps a
    parameter to the smallest int every task of the scenario can run on
    (each int inside a tuple parameter counts): :meth:`params_for`
    refuses an override below it before any work starts.  Without an
    entry the floor is 0, or 1 for ``size_param``.  A tuple of str is a
    name parameter: its full default lists every name its tasks know, and
    :meth:`params_for` refuses any other name the same way.
    """

    name: str
    title: str
    paper_ref: str
    description: str
    build_tasks: Callable[[Mapping[str, Any]], list[BatchTask]]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    smoke_overrides: Mapping[str, Any] = field(default_factory=dict)
    reference: Mapping[str, Any] = field(default_factory=dict)
    #: Name of the parameter the CLI's ``--n`` maps onto (None: no size knob).
    size_param: str | None = None
    #: Smallest int per parameter (see the class docstring).
    floors: Mapping[str, int] = field(default_factory=dict)
    #: Scenarios that time code inside tasks run serially so concurrent
    #: workers cannot skew the measurements.
    serial_only: bool = False
    #: Post-run hook computing derived rows/metadata (fits, speedups).
    finalize: Callable[[ExperimentRunner, Mapping[str, Any]], None] | None = None
    #: Scenario-specific claims: failure strings (empty = pass) for a runner
    #: rebuilt from the artifact and its JSON ``params``.
    check: Callable[[ExperimentRunner, Mapping[str, Any]], list[str]] | None = None

    def params_for(
        self, *, smoke: bool = False, overrides: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """Resolve the effective parameter grid (defaults < smoke < overrides).

        Each override must have its default's type: a tuple default takes a
        tuple or list, an int default an int, a float default an int or a
        float (bools are refused for both), anything else its own type.
        Each element of a tuple override must have, by the same rule, the
        type the default's elements share, and a str element must be one of
        the names in the full default (so ``smoke`` can still pick any of
        them).  Its range is checked too, before any work starts: every int
        in it must be at least the parameter's entry in :attr:`floors`.
        Without an entry, the floor is 1 for :attr:`size_param` and 0
        otherwise, and no floor applies when the default holds a negative
        int.
        """
        params = dict(self.defaults)
        if smoke:
            params.update(self.smoke_overrides)
        for key, value in (overrides or {}).items():
            if key not in params:
                raise ScenarioError(
                    f"scenario {self.name!r} has no parameter {key!r}; "
                    f"known parameters: {sorted(params)}"
                )
            self._check_override(key, value, params[key])
            self._check_range(key, value, params[key])
            params[key] = value
        return params

    def _check_override(self, key: str, value: Any, default: Any) -> None:
        expected = _mismatch(value, default)
        if expected is not None:
            hint = ""
            if isinstance(default, tuple):
                shown = value.removesuffix(",") if isinstance(value, str) else value
                hint = f"; for a single value use the trailing-comma form {key}={shown!r},"
            raise ScenarioError(
                f"scenario {self.name!r} parameter {key!r} expects {expected}, "
                f"got {type(value).__name__} {value!r}{hint}"
            )
        if isinstance(default, tuple) and len({type(item) for item in default}) == 1:
            names = self.defaults.get(key, default)
            for item in value:
                expected = _mismatch(item, default[0])
                if expected is None and isinstance(item, str) and item not in names:
                    expected = f"one of {list(names)}"
                if expected is not None:
                    raise ScenarioError(
                        f"scenario {self.name!r} parameter {key!r} expects each "
                        f"element to be {expected}, got {type(item).__name__} {item!r}"
                    )

    def _check_range(self, key: str, value: Any, default: Any) -> None:
        floor = self.floors.get(key, 1 if key == self.size_param else 0)
        if not floor and any(i < 0 for i in _ints(default)):
            return  # a default that is itself negative somewhere sets no floor
        if any(i < floor for i in _ints(value)):
            raise ScenarioError(
                f"scenario {self.name!r} parameter {key!r} must be "
                f"{f'at least {floor}' if floor else 'non-negative'}, got {value!r}"
            )

    def artifact_path(self, out: str | Path | None = None) -> Path:
        """Where :func:`run_scenario` writes the artifact (``BENCH_<name>.json``).

        ``out`` is a directory unless it names a ``.json`` file — so
        ``--out artifacts/`` works whether or not the directory exists yet.
        """
        if out is None:
            return Path(f"BENCH_{self.name}.json")
        path = Path(out)
        if path.suffix == ".json" and not path.is_dir():
            return path
        return path / f"BENCH_{self.name}.json"


def _mismatch(value: Any, default: Any) -> str | None:
    """What ``value`` should be to stand for ``default``; None when it may."""
    if isinstance(default, tuple):
        accepted, expected = (tuple, list), "a tuple or list"
    elif isinstance(default, float):
        accepted, expected = (int, float), "an int or float"
    else:
        accepted = type(default)
        expected = f"a value of type {accepted.__name__}"
    bool_for_number = isinstance(value, bool) and not isinstance(default, bool)
    if isinstance(value, accepted) and not bool_for_number:
        return None
    return expected


def _ints(value: Any):
    """Every int inside ``value``, through nested tuples and lists (bools excluded)."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _ints(item)
    elif isinstance(value, int) and not isinstance(value, bool):
        yield value


@dataclass
class ScenarioRun:
    """The result of :func:`run_scenario`: the runner plus run bookkeeping."""

    scenario: Scenario
    params: dict[str, Any]
    runner: ExperimentRunner
    path: Path | None
    failures: list[str]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class CampaignRun:
    """The result of :func:`run_campaign`: one :class:`ScenarioRun` per member."""

    name: str
    runs: list[ScenarioRun]
    path: Path | None

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)


def _resolve(scenario: "Scenario | str") -> Scenario:
    if isinstance(scenario, Scenario):
        return scenario
    from repro.scenarios.registry import get_scenario

    return get_scenario(scenario)


def _environment() -> dict[str, Any]:
    """The software and machine a run's stage times were measured on.

    Read in-process: ``platform`` is the system-release-machine part of
    ``platform.platform()``, whose processor field runs ``uname -p`` in a
    subprocess on Linux.
    """
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "cpu_count": os.cpu_count(),
    }


def _merge_repeats(rows, repeat_rows) -> None:
    """Fold repeated measurements into ``rows``: median-of-K wall times.

    Deterministic seeding makes the non-timing metrics identical across
    repeats, so only values that actually vary (wall times, the
    ``*_seconds`` / throughput metrics of timing scenarios) are replaced by
    their median — everything else keeps its first-run value and type.
    """
    import statistics

    def _median(values):
        if any(
            isinstance(v, bool) or not isinstance(v, (int, float))
            for v in values
        ):
            return None
        return statistics.median(values) if len(set(values)) > 1 else None

    for index, row in enumerate(rows):
        series = [row] + [extra[index] for extra in repeat_rows]
        row.seconds = statistics.median(r.seconds for r in series)
        for key, value in row.metrics.items():
            if key == "stage_seconds" and isinstance(value, dict):
                for stage in value:
                    median = _median(
                        [r.metrics.get(key, {}).get(stage) for r in series]
                    )
                    if median is not None:
                        value[stage] = median
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            median = _median([r.metrics.get(key) for r in series])
            if median is not None:
                row.metrics[key] = median


def run_scenario(
    scenario: "Scenario | str",
    *,
    smoke: bool = False,
    overrides: Mapping[str, Any] | None = None,
    seed: int = 0,
    workers: int | None = None,
    export: bool = True,
    out: str | Path | None = None,
    strict: bool = True,
    repeat: int = 1,
) -> ScenarioRun:
    """Execute one scenario through :meth:`ExperimentRunner.run_batch`.

    ``workers=1`` forces inline execution (no process pool) — the mode the
    test suite and ``--smoke`` CI job use; ``workers=None`` lets the pool
    pick one worker per core.  ``seed`` is the batch's ``base_seed``: every
    task receives a deterministic seed derived from it and the task index,
    so a scenario's artifact is reproducible bit-for-bit at any worker
    count.  The failures are those of the artifact oracle suite
    (:func:`repro.verify.artifact.artifact_failures`: schema, paper
    budgets, cross-variant parity, round envelopes, recovery and the
    scenario's own ``check`` — see ``docs/verification.md``) on the
    finished runner's JSON form, the same call ``repro verify`` makes on
    the exported file.  With ``strict`` (the default) a failure raises
    :class:`ScenarioCheckError`; the failures are always recorded on the
    returned :class:`ScenarioRun` and under ``metadata.check_failures``.
    Every task row carries its ``stage_seconds`` (:class:`StageProfile`),
    and ``metadata.environment`` names the software and machine they were
    measured on.

    ``repeat=K`` runs the whole batch K times (same derived seeds) and
    reports the median wall time per row — both ``seconds`` and any
    numeric timing metrics that vary across repeats — so BENCH artifacts
    are stable enough to diff with ``tools/bench_diff.py``.  ``finalize``
    and ``check`` see the medianized rows.
    """
    scenario = _resolve(scenario)
    if repeat < 1:
        raise ScenarioError(f"repeat must be >= 1, got {repeat}")
    params = scenario.params_for(smoke=smoke, overrides=overrides)
    try:
        return _run_resolved(
            scenario,
            params,
            smoke=smoke,
            seed=seed,
            workers=workers,
            export=export,
            out=out,
            strict=strict,
            repeat=repeat,
        )
    finally:
        # graphs published for zero-copy fan-out (the scale scenario) must
        # not outlive the run, even when the pool breaks mid-batch
        from repro.analysis import shared

        shared.release_all()


def _run_resolved(
    scenario: Scenario,
    params: dict[str, Any],
    *,
    smoke: bool,
    seed: int,
    workers: int | None,
    export: bool,
    out: str | Path | None,
    strict: bool,
    repeat: int,
) -> ScenarioRun:
    tasks = scenario.build_tasks(params)
    if not tasks:
        raise ScenarioError(f"scenario {scenario.name!r} built an empty task list")

    runner = ExperimentRunner(
        scenario.name,
        metadata={
            "scenario": {
                "name": scenario.name,
                "title": scenario.title,
                "paper_ref": scenario.paper_ref,
                "smoke": smoke,
                "seed": seed,
                "workers": workers,
                "serial": scenario.serial_only or workers == 1,
                "repeat": repeat,
            },
            "params": params,
            "reference": dict(scenario.reference),
            "environment": _environment(),
        },
    )
    parallel = not scenario.serial_only and workers != 1
    start = time.perf_counter()
    rows = runner.run_batch(tasks, max_workers=workers, base_seed=seed, parallel=parallel)
    repeat_rows = []
    for _ in range(repeat - 1):
        again = ExperimentRunner(scenario.name)
        repeat_rows.append(
            again.run_batch(
                scenario.build_tasks(params),
                max_workers=workers, base_seed=seed, parallel=parallel,
            )
        )
    if repeat_rows:
        _merge_repeats(rows, repeat_rows)
    elapsed = time.perf_counter() - start
    from repro.analysis.runner import _peak_rss_bytes

    parent_peak = _peak_rss_bytes()
    if parent_peak is not None:
        # the zero-copy fan-out claim: this stays flat as --workers grows
        runner.metadata["parent_peak_rss_bytes"] = parent_peak

    if scenario.finalize is not None:
        scenario.finalize(runner, params)
    from repro.verify.artifact import artifact_failures

    failures = artifact_failures(runner.to_json_dict(), expected_name=scenario.name)
    runner.metadata["check_failures"] = failures

    path: Path | None = None
    if export:
        from repro.scenarios.schema import assert_valid_artifact

        artifact = runner.to_json_dict()
        assert_valid_artifact(artifact, expected_name=scenario.name)
        path = scenario.artifact_path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        runner.export_json(path)

    run = ScenarioRun(
        scenario=scenario,
        params=params,
        runner=runner,
        path=path,
        failures=failures,
        seconds=elapsed,
    )
    if strict and failures:
        raise ScenarioCheckError(scenario.name, failures)
    return run


def run_campaign(
    names: Sequence[str],
    *,
    campaign: str = "campaign",
    smoke: bool = False,
    seed: int = 0,
    workers: int | None = None,
    out: str | Path | None = None,
    strict: bool = True,
    progress: Callable[[str], None] | None = None,
) -> CampaignRun:
    """Run a named set of scenarios and merge their artifacts.

    Each member scenario writes its own ``BENCH_<name>.json`` into ``out``
    (default: the current directory), and the campaign additionally writes a
    merged ``BENCH_campaign_<campaign>.json`` holding every member artifact
    plus a summary — one file that captures the whole run.
    """
    import json

    out_dir = Path(out) if out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    runs: list[ScenarioRun] = []
    for name in names:
        if progress is not None:
            progress(name)
        runs.append(
            run_scenario(
                name,
                smoke=smoke,
                seed=seed,
                workers=workers,
                out=out_dir,
                strict=strict,
            )
        )

    merged = {
        "schema_version": 1,
        "campaign": campaign,
        "smoke": smoke,
        "seed": seed,
        "summary": [
            {
                "scenario": run.scenario.name,
                "paper_ref": run.scenario.paper_ref,
                "rows": len(run.runner.rows),
                "seconds": round(run.seconds, 3),
                "check_failures": run.failures,
                "artifact": run.path.name if run.path else None,
            }
            for run in runs
        ],
        "scenarios": {run.scenario.name: run.runner.to_json_dict() for run in runs},
    }
    path = out_dir / f"BENCH_campaign_{campaign}.json"
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return CampaignRun(name=campaign, runs=runs, path=path)
