"""The BENCH-artifact oracle suite: the one check a scenario's rows pass.

:func:`repro.scenarios.base.run_scenario` calls :func:`artifact_failures`
on the finished runner's JSON form and ``python -m repro verify`` on the
exported ``BENCH_<scenario>.json``, so a run and a later replay read the
same data through the same code:

* **schema** — the artifact conforms to schema version 1 (delegates to
  :mod:`repro.scenarios.schema`);
* **budget** — every row claiming ``colors``/``budget`` metrics stays
  within its paper budget, and ``valid`` flags are true;
* **variant-parity** — rows of the same instance whose algorithm labels
  differ only by a ``[variant]`` suffix (backend/engine axes) agree on
  every deterministic metric of :data:`_PARITY_METRICS` — the
  artifact-level form of the parity promises;
* **round-envelope** — measured round totals of the known pipelines stay
  inside the statement envelopes of :mod:`repro.verify.rounds`;
* **recovery** — rows of the dynamic (E18) scenario recovered: every row
  carrying ``rounds_to_recovery`` reached a legal quiescent state within
  its declared round cap, with zero containment violations and a
  containment radius inside its declared bound;
* **scenario-check** — the registered scenario's own ``check`` (its
  scenario-specific claims), run on an
  :class:`~repro.analysis.runner.ExperimentRunner` rebuilt from the rows
  and ``metadata.params``; a stored ``metadata.check_failures`` is never
  trusted.

The generic oracles inspect whatever rows carry the metrics they
understand and skip the rest.  An oracle that raises on a malformed
artifact fails with a diagnostic naming the exception instead.
"""

from __future__ import annotations

import re
import traceback
from pathlib import Path
from typing import Any

from repro.verify.oracle import Verdict, collector, failed
from repro.verify.rounds import RoundEnvelopeOracle

__all__ = ["verify_artifact_dict", "artifact_failures", "ARTIFACT_ORACLE_NAMES"]

ARTIFACT_ORACLE_NAMES = (
    "schema",
    "budget",
    "variant-parity",
    "round-envelope",
    "recovery",
    "scenario-check",
)

#: deterministic metrics that must agree across backend/engine variants:
#: colorings, ledgers and counts, the event-log and resample-log digests,
#: and the recovery figures of the dynamic track
_PARITY_METRICS = (
    "coloring_sha", "rounds", "messages", "colors", "palette", "layers",
    "log_sha", "rounds_to_recovery", "containment_radius",
)

_VARIANT_RE = re.compile(r"^(?P<base>.*?) \[(?P<variant>[^\]]+)\]$")
_PARAM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=(-?\d+)")
_REGULAR_RE = re.compile(r"^(\d+)-regular\b")


def _instance_params(instance: Any) -> dict[str, int]:
    """Parse ``key=value`` integers out of an instance label.

    The row-label convention (``n=40 d=4``, ``forest_union n=800 a=3``,
    ``4-regular n=60``) is the artifact's only carrier of per-row
    parameters, so the envelope oracle reads them back from the labels.
    """
    if not isinstance(instance, str):
        return {}
    params = {k: int(v) for k, v in _PARAM_RE.findall(instance)}
    regular = _REGULAR_RE.match(instance)
    if regular:
        params.setdefault("delta", int(regular.group(1)))
    return params


def _row_label(row: dict) -> str:
    """``instance / algorithm`` for diagnostics (tolerant of malformed rows)."""
    return f"{row.get('instance', '?')} / {row.get('algorithm', '?')}"


def _check_schema(artifact: dict, expected_name: str | None) -> Verdict:
    from repro.scenarios.schema import validate_artifact

    out = collector("schema")
    out.saw()
    for problem in validate_artifact(artifact, expected_name=expected_name):
        out.fail(problem)
    return out.verdict()


def _check_budgets(rows: list[dict]) -> Verdict:
    out = collector("budget")
    for row in rows:
        metrics = row.get("metrics")
        if not isinstance(metrics, dict):
            continue  # the schema oracle reports the malformed row
        if "colors" in metrics and "budget" in metrics:
            out.saw()
            if metrics["colors"] > metrics["budget"]:
                out.fail(
                    f"{_row_label(row)}: used {metrics['colors']} colors, "
                    f"budget {metrics['budget']}"
                )
        if "valid" in metrics:
            out.saw()
            if not metrics["valid"]:
                out.fail(f"{_row_label(row)}: verification flag is false")
    return out.verdict()


def _check_variant_parity(rows: list[dict]) -> Verdict:
    out = collector("variant-parity")
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        algorithm = row.get("algorithm")
        if not isinstance(algorithm, str):
            continue  # the schema oracle reports the malformed row
        match = _VARIANT_RE.match(algorithm)
        base = match.group("base") if match else algorithm
        groups.setdefault((str(row.get("instance", "")), base), []).append(row)
    for (instance, base), members in groups.items():
        if len(members) < 2:
            continue
        for metric in _PARITY_METRICS:
            values = {
                row.get("algorithm", "?"): row["metrics"][metric]
                for row in members
                if isinstance(row.get("metrics"), dict)
                and metric in row["metrics"]
            }
            if len(values) < 2:
                continue
            out.saw()
            if len(set(map(repr, values.values()))) > 1:
                shown = ", ".join(
                    f"{label}={value!r}" for label, value in sorted(values.items())
                )
                out.fail(
                    f"{instance} / {base}: {metric} diverges across "
                    f"variants ({shown})"
                )
    return out.verdict()


# scenario name -> row classifier returning (envelope kind, params) or None.
# Row labels carry most parameters (``n=40 d=4``); ``scenario_params`` (the
# artifact's metadata.params) fills in grid-wide ones the labels omit, like
# theorem13-rounds' single ``d``.
def _envelope_for(
    scenario: str, row: dict, scenario_params: dict[str, Any]
) -> tuple[str, dict[str, Any]] | None:
    algorithm = row.get("algorithm", "")
    if not isinstance(algorithm, str):
        return None
    metrics = row.get("metrics")
    if not isinstance(metrics, dict) or "rounds" not in metrics:
        return None
    params = _instance_params(row.get("instance", ""))
    n = params.get("n")
    if scenario in ("theorem13-colors", "theorem13-rounds"):
        d = params.get("d", scenario_params.get("d"))
        if n is None or not isinstance(d, int) or algorithm.startswith("greedy"):
            return None
        return "theorem13", {"n": n, "d": d}
    if scenario == "coloring":
        if n is None or "speedup" in algorithm:
            return None
        if algorithm.startswith("Barenboim-Elkin"):
            return "barenboim-elkin", {"n": n, "a": max(1, params.get("d", 2) // 2)}
        return "theorem13", {"n": n, "d": params.get("d", 4)}
    if scenario == "corollary14-arboricity":
        if n is None or "a" not in params:
            return None
        if algorithm.startswith("Barenboim-Elkin"):
            return "barenboim-elkin", {"n": n, "a": params["a"]}
        return "theorem13", {"n": n, "d": 2 * params["a"]}
    if scenario == "simulator":
        if n is None or "speedup" in algorithm:
            return None
        if algorithm.startswith("Cole-Vishkin"):
            return "cole-vishkin", {"n": n}
        if algorithm.startswith("greedy"):
            return "greedy", {"n": n}
        return None
    if scenario == "primitives":
        if n is None:
            return None
        if algorithm.startswith("Cole-Vishkin"):
            return "cole-vishkin", {"n": n}
        if algorithm.startswith("Linial"):
            return "linial", {"n": n, "delta": params.get("delta", 1)}
        match = re.search(r"alpha=(\d+)", algorithm)
        if match:
            return "ruling-forest", {"n": n, "alpha": int(match.group(1))}
        return None
    if scenario == "corollary21-brooks":
        if n is None or "delta" not in params:
            return None
        if algorithm.startswith("greedy"):
            return "greedy", {"n": n}
        return "theorem13", {"n": n, "d": params["delta"]}
    if scenario in ("corollary23-planar", "corollary211-genus"):
        if n is None or "budget" not in metrics:
            return None
        return "theorem13", {"n": n, "d": max(3, int(metrics["budget"]))}
    if scenario == "randomized":
        if n is None:
            return None
        if algorithm.startswith("randomized"):
            return "randomized", {"n": n}
        if algorithm.startswith("greedy"):
            return "greedy", {"n": n}
        return None
    return None


def _check_round_envelopes(
    scenario: str | None, rows: list[dict], scenario_params: dict[str, Any]
) -> Verdict:
    out = collector("round-envelope")
    oracle = RoundEnvelopeOracle()
    if scenario is None:
        return out.verdict()
    for row in rows:
        classified = _envelope_for(scenario, row, scenario_params)
        if classified is None:
            continue
        kind, params = classified
        verdict = oracle.check(kind=kind, rounds=row["metrics"]["rounds"], **params)
        out.saw(verdict.checked)
        for diagnostic in verdict.diagnostics:
            out.fail(f"{_row_label(row)}: {diagnostic}")
    return out.verdict()


def _check_recovery(rows: list[dict]) -> Verdict:
    """Audit dynamic-scenario rows: recovered, quiescent, contained."""
    out = collector("recovery")
    for row in rows:
        metrics = row.get("metrics")
        if not isinstance(metrics, dict) or "rounds_to_recovery" not in metrics:
            continue
        out.saw()
        if not metrics.get("recovered", True) or metrics["rounds_to_recovery"] < 0:
            out.fail(f"{_row_label(row)}: run never recovered a legal coloring")
        if not metrics.get("legal", False):
            out.fail(f"{_row_label(row)}: final coloring is not legal")
        if not metrics.get("quiescent", False):
            out.fail(f"{_row_label(row)}: run did not reach a silent state")
        if metrics.get("containment_violations", 0):
            out.fail(
                f"{_row_label(row)}: {metrics['containment_violations']} "
                "recolor(s) outside the perturbation's causal cone"
            )
        cap = metrics.get("recovery_cap")
        if cap is not None and metrics["rounds_to_recovery"] > cap:
            out.fail(
                f"{_row_label(row)}: rounds_to_recovery="
                f"{metrics['rounds_to_recovery']} exceeds the cap {cap}"
            )
        bound = metrics.get("containment_bound")
        radius = metrics.get("containment_radius")
        if bound is not None and radius is not None and radius > bound:
            out.fail(
                f"{_row_label(row)}: containment_radius={radius} exceeds "
                f"the declared bound {bound}"
            )
    return out.verdict()


def _check_scenario(scenario: str | None, metadata: Any, rows: list[dict]) -> Verdict:
    """Run the registered scenario's own ``check`` on the artifact's rows."""
    from repro.analysis.runner import ExperimentRow, ExperimentRunner
    from repro.scenarios.registry import all_scenarios

    out = collector("scenario-check")
    registered = next((s for s in all_scenarios() if s.name == scenario), None)
    if registered is None or registered.check is None:
        return out.verdict()
    params = metadata.get("params") if isinstance(metadata, dict) else None
    if not isinstance(params, dict):
        out.fail(f"no metadata.params mapping to run the {scenario} check with")
        return out.verdict()
    runner = ExperimentRunner(scenario, metadata=metadata)
    runner.rows = [
        ExperimentRow(r.get("instance"), r.get("algorithm"), r.get("metrics"), r.get("seconds"))
        for r in rows
    ]
    out.saw(len(runner.rows))
    for failure in registered.check(runner, params):
        out.fail(failure)
    return out.verdict()


def _guarded(oracle: str, check, *args) -> Verdict:
    """``check(*args)``; a malformed artifact that makes it raise fails it instead."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - outside input, reported
        where = traceback.extract_tb(exc.__traceback__)[-1]
        at = f"{Path(where.filename).name}:{where.lineno}"
        return failed(oracle, f"raised {type(exc).__name__} at {at} on this artifact: {exc}")


def verify_artifact_dict(
    artifact: Any, expected_name: str | None = None
) -> list[Verdict]:
    """Run the full artifact oracle suite; one verdict per oracle."""
    verdicts = [_guarded("schema", _check_schema, artifact, expected_name)]
    if not isinstance(artifact, dict):
        return verdicts
    rows = artifact.get("rows")
    rows = [row for row in rows if isinstance(row, dict)] if isinstance(rows, list) else []
    scenario = None
    scenario_params: dict[str, Any] = {}
    metadata = artifact.get("metadata")
    if isinstance(metadata, dict):
        if isinstance(metadata.get("scenario"), dict):
            scenario = metadata["scenario"].get("name")
        if isinstance(metadata.get("params"), dict):
            scenario_params = metadata["params"]
    if scenario is None and isinstance(artifact.get("name"), str):
        scenario = artifact["name"]
    verdicts.append(_guarded("budget", _check_budgets, rows))
    verdicts.append(_guarded("variant-parity", _check_variant_parity, rows))
    verdicts.append(_guarded(
        "round-envelope", _check_round_envelopes, scenario, rows, scenario_params
    ))
    verdicts.append(_guarded("recovery", _check_recovery, rows))
    verdicts.append(_guarded("scenario-check", _check_scenario, scenario, metadata, rows))
    return verdicts


def artifact_failures(artifact: Any, expected_name: str | None = None) -> list[str]:
    """Flat failure strings (empty = artifact passes the oracle suite)."""
    failures: list[str] = []
    for verdict in verify_artifact_dict(artifact, expected_name=expected_name):
        for diagnostic in verdict.diagnostics:
            failures.append(f"{verdict.oracle}: {diagnostic}")
        extra = verdict.failures - len(verdict.diagnostics)
        if extra > 0:
            failures.append(f"{verdict.oracle}: ... and {extra} more violation(s)")
    return failures
