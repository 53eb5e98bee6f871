"""Validation of the ``BENCH_<scenario>.json`` artifact schema (version 1).

The artifact is what downstream tooling (CI, perf-trajectory diffs, the
campaign merger) consumes, so its shape is checked *before* it is written:
:func:`validate_artifact` returns a list of problems, and
:func:`assert_valid_artifact` raises :class:`ArtifactSchemaError` on the
first invalid artifact.  Version 1 is the shape produced by
:meth:`ExperimentRunner.to_json_dict` plus the scenario metadata block that
:func:`~repro.scenarios.base.run_scenario` attaches.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.runner import JSON_SCHEMA_MINOR, JSON_SCHEMA_VERSION
from repro.scenarios.base import PROFILE_STAGES

__all__ = ["ArtifactSchemaError", "validate_artifact", "assert_valid_artifact"]


class ArtifactSchemaError(Exception):
    """A BENCH artifact does not conform to the schema."""


def validate_artifact(
    artifact: Any, *, expected_name: str | None = None
) -> list[str]:
    """Return every way ``artifact`` deviates from schema version 1.

    ``expected_name`` additionally pins the artifact (and its scenario
    metadata) to one scenario.  A row's ``stage_seconds``, which every
    task row of a run carries, must name exactly the four
    :data:`~repro.scenarios.base.PROFILE_STAGES`; rows without one
    (derived rows, and artifacts written before every row had one) pass.
    """
    problems: list[str] = []
    if not isinstance(artifact, dict):
        return [f"artifact is {type(artifact).__name__}, expected dict"]

    version = artifact.get("schema_version")
    if not isinstance(version, int) or version < 1:
        problems.append(f"schema_version {version!r} is not a positive int")
    elif version > JSON_SCHEMA_VERSION:
        problems.append(f"schema_version {version} is newer than supported {JSON_SCHEMA_VERSION}")

    name = artifact.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"name {name!r} is not a non-empty string")
    elif expected_name is not None and name != expected_name:
        problems.append(f"name {name!r} != expected {expected_name!r}")

    if not isinstance(artifact.get("generated_at"), (int, float)):
        problems.append("generated_at is not a number")

    # minor-version fields are optional (old artifacts predate them) but
    # must be well-formed when present
    minor = artifact.get("schema_minor")
    if minor is not None:
        if not isinstance(minor, int) or minor < 0:
            problems.append(f"schema_minor {minor!r} is not a non-negative int")
        elif minor > JSON_SCHEMA_MINOR:
            problems.append(
                f"schema_minor {minor} is newer than supported {JSON_SCHEMA_MINOR}"
            )
    iso = artifact.get("generated_at_iso")
    if iso is not None:
        import datetime

        try:
            datetime.datetime.fromisoformat(str(iso))
        except ValueError:
            problems.append(f"generated_at_iso {iso!r} is not ISO-8601")

    metadata = artifact.get("metadata")
    if not isinstance(metadata, dict):
        problems.append("metadata is not a dict")
    else:
        scenario_meta = metadata.get("scenario")
        if not isinstance(scenario_meta, dict):
            problems.append("metadata.scenario missing (artifact not produced by run_scenario?)")
        else:
            for key in ("name", "paper_ref"):
                if not isinstance(scenario_meta.get(key), str):
                    problems.append(f"metadata.scenario.{key} is not a string")
            if expected_name is not None and scenario_meta.get("name") != expected_name:
                problems.append(
                    f"metadata.scenario.name {scenario_meta.get('name')!r} "
                    f"!= expected {expected_name!r}"
                )

    rows = artifact.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows is not a non-empty list")
        rows = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"rows[{i}] is not a dict")
            continue
        for key, kind in (("instance", str), ("algorithm", str), ("metrics", dict)):
            if not isinstance(row.get(key), kind):
                problems.append(f"rows[{i}].{key} is not a {kind.__name__}")
        if not isinstance(row.get("seconds"), (int, float)):
            problems.append(f"rows[{i}].seconds is not a number")
        metrics = row.get("metrics")
        stages = metrics.get("stage_seconds") if isinstance(metrics, dict) else None
        if stages is None:
            continue
        if not isinstance(stages, dict) or set(stages) != set(PROFILE_STAGES):
            shown = sorted(stages) if isinstance(stages, dict) else repr(stages)
            problems.append(
                f"rows[{i}].metrics.stage_seconds keys {shown} != {sorted(PROFILE_STAGES)}"
            )
        elif any(isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0
                 for v in stages.values()):
            problems.append(f"rows[{i}].metrics.stage_seconds {stages!r} are not all seconds")
    return problems


def assert_valid_artifact(artifact: Any, *, expected_name: str | None = None) -> None:
    """Raise :class:`ArtifactSchemaError` listing every schema violation."""
    problems = validate_artifact(artifact, expected_name=expected_name)
    if problems:
        raise ArtifactSchemaError(
            "invalid BENCH artifact:\n  " + "\n  ".join(problems)
        )
