"""Tests for the scenario registry, the CLI and the artifact schema.

Every registered scenario must instantiate, run its smoke grid inline
(workers=1) to a schema-valid ``BENCH_<name>.json`` artifact, and keep its
name unique and aligned with the artifact filename — the contract the
``python -m repro`` CLI and the CI smoke job rely on.
"""

import copy
import json
import re
from pathlib import Path

import pytest

from repro.cli import _parse_set, main as cli_main
from repro.core import happy, peeling
from repro.scenarios import (
    CAMPAIGNS,
    PROFILE_STAGES,
    ScenarioError,
    all_scenarios,
    get_scenario,
    run_scenario,
    scenario_names,
    validate_artifact,
)
from repro.scenarios import tasks

NAMES = scenario_names()
REPO_ROOT = Path(__file__).resolve().parent.parent


def test_registry_has_all_paper_experiments():
    assert len(NAMES) >= 11
    # the two headline scenarios the README quickstart points at
    assert "theorem13-colors" in NAMES
    assert "primitives" in NAMES


def test_scenario_names_unique_and_kebab_case():
    assert len(NAMES) == len(set(NAMES))
    for name in NAMES:
        assert re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", name), name


def test_artifact_filenames_match_scenario_names(tmp_path):
    for scenario in all_scenarios():
        assert scenario.artifact_path().name == f"BENCH_{scenario.name}.json"
        assert scenario.artifact_path(tmp_path).name == f"BENCH_{scenario.name}.json"


def test_campaigns_reference_registered_scenarios():
    assert set(CAMPAIGNS["all"]) == set(NAMES)
    for campaign, members in CAMPAIGNS.items():
        assert members, campaign
        assert set(members) <= set(NAMES), campaign


@pytest.mark.parametrize("name", NAMES)
def test_scenario_smoke_runs_inline_to_valid_artifact(name, tmp_path):
    # every run is judged by the conformance oracle suite (schema, budgets,
    # variant parity, round envelopes, recovery, the scenario's own check):
    # every registered scenario must pass it
    run = run_scenario(name, smoke=True, workers=1, out=tmp_path)
    assert run.ok and run.failures == []
    assert run.path == tmp_path / f"BENCH_{name}.json"
    artifact = json.loads(run.path.read_text())
    assert validate_artifact(artifact, expected_name=name) == []
    assert artifact["metadata"]["scenario"]["paper_ref"] == get_scenario(name).paper_ref
    assert artifact["metadata"]["check_failures"] == []
    assert len(artifact["rows"]) == len(run.runner.rows)
    # every task row carries its stage clock; only derived rows (the
    # finalizers' speedups) go without
    for row in artifact["rows"]:
        if "speedup_x" not in row["metrics"]:
            assert set(row["metrics"]["stage_seconds"]) == set(PROFILE_STAGES), row
    # the exported artifact replays clean through the post-hoc suite too
    from repro.verify import artifact_failures, verify_artifact_dict

    assert artifact_failures(artifact, expected_name=name) == []
    # and the scenario's own check really ran on the file's rows
    if get_scenario(name).check is not None:
        verdict = next(
            v for v in verify_artifact_dict(artifact) if v.oracle == "scenario-check"
        )
        assert verdict.ok and verdict.checked > 0


def test_smoke_run_is_deterministic(tmp_path):
    """Same base seed => bit-identical metrics, regardless of wall times."""
    runs = [
        run_scenario("theorem13-colors", smoke=True, workers=1, seed=3,
                     out=tmp_path / str(i))
        for i in range(2)
    ]
    metrics = [
        [
            # stage_seconds are wall times, and peak_rss_bytes is a process
            # high-water mark (monotone within one interpreter): both are
            # measurements, excluded from the determinism claim
            {
                k: v for k, v in row.metrics.items()
                if k not in ("stage_seconds", "peak_rss_bytes")
            }
            for row in run.runner.rows
        ]
        for run in runs
    ]
    assert metrics[0] == metrics[1]


#: the named timing metrics that span one whole stage, per scenario: each
#: is a read of its stage, not a clock of its own
_STAGE_READS = {
    "coloring": {"solve_seconds": "solve"},
    "simulator": {"engine_seconds": "solve"},
    "primitives": {"compute_seconds": "solve", "freeze_seconds": "freeze"},
    "scale": {"attach_seconds": "freeze", "peel_seconds": "solve", "engine_seconds": "solve"},
    "dynamic": {"solve_seconds": "solve"},
    "randomized": {"solve_seconds": "solve"},
}


def test_task_rows_report_their_stages_without_a_flag():
    for name, reads in _STAGE_READS.items():
        run = run_scenario(name, smoke=True, workers=1, export=False)
        seen = set()
        for row in run.runner.rows:
            if "speedup_x" in row.metrics:
                continue  # a finalizer's derived row
            stages = row.metrics["stage_seconds"]
            assert set(stages) == set(PROFILE_STAGES), (name, row)
            for metric, stage in reads.items():
                if metric == "attach_seconds" and "peel" not in row.algorithm:
                    continue  # scale_coloring times part of its freeze stage
                if metric in row.metrics:
                    seen.add(metric)
                    assert row.metrics[metric] == pytest.approx(
                        stages[stage], abs=1e-6
                    ), (name, row.algorithm, metric)
        assert seen == set(reads), name


def test_artifact_out_directory_need_not_exist(tmp_path):
    """`--out artifacts/` must mean a directory even before it exists."""
    run = run_scenario(
        "lowerbound-fisk", smoke=True, workers=1, out=tmp_path / "artifacts"
    )
    assert run.path == tmp_path / "artifacts" / "BENCH_lowerbound-fisk.json"
    assert run.path.exists()
    explicit = run_scenario(
        "lowerbound-fisk", smoke=True, workers=1,
        out=tmp_path / "custom-name.json",
    )
    assert explicit.path == tmp_path / "custom-name.json"


def test_cli_n_rejects_shape_mismatches(tmp_path, capsys):
    # (k, l)-pair grid: no --n mapping, must point at --set (not a traceback)
    assert cli_main(["run", "corollary211-genus", "--smoke", "--n", "36"]) == 2
    assert "--set" in capsys.readouterr().err
    # scalar size param: multiple values must not be silently dropped
    assert cli_main(["run", "corollary23-planar", "--smoke", "--n", "100,200"]) == 2
    assert "single value" in capsys.readouterr().err
    # non-integer values
    assert cli_main(["run", "theorem13-colors", "--smoke", "--n", "abc"]) == 2
    assert "comma-separated" in capsys.readouterr().err


def test_unknown_scenario_and_unknown_override_raise():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        get_scenario("no-such-scenario")
    with pytest.raises(ScenarioError, match="no parameter"):
        run_scenario("theorem13-colors", overrides={"bogus": 1}, workers=1, export=False)


def test_overrides_are_type_checked_against_defaults(capsys):
    simulator = get_scenario("simulator")
    # a bare int for a tuple parameter used to die as a TypeError in build_tasks
    assert cli_main(["run", "simulator", "--smoke", "--set", "lowerbound_sizes=1500"]) == 2
    err = capsys.readouterr().err
    assert "'lowerbound_sizes'" in err and "tuple" in err
    assert "lowerbound_sizes=1500," in err
    with pytest.raises(ScenarioError, match=r"backends='flat',"):
        get_scenario("dynamic").params_for(overrides={"backends": "flat"})
    # string tuples take the trailing-comma form too, and the hint for a
    # stray string keeps the comma outside the quotes
    randomized = get_scenario("randomized")
    assert _parse_set(["families=planar,"]) == {"families": ("planar",)}
    assert _parse_set(["families=planar, regular"]) == {"families": ("planar", "regular")}
    assert _parse_set(["sizes=1600,", "name=x"]) == {"sizes": (1600,), "name": "x"}
    assert randomized.params_for(
        overrides=_parse_set(["families=planar,"])
    )["families"] == ("planar",)
    with pytest.raises(ScenarioError, match=r"form families='planar',$"):
        randomized.params_for(overrides={"families": "planar,"})
    for bad in (True, 2.5, "7"):
        with pytest.raises(ScenarioError, match="'id_seed'.*int"):
            simulator.params_for(overrides={"id_seed": bad})
    with pytest.raises(ScenarioError, match="'batch_window_ms'"):
        get_scenario("serve").params_for(overrides={"batch_window_ms": False})
    # matching types pass: list for tuple, int for float
    assert simulator.params_for(
        overrides={"lowerbound_sizes": [1500], "id_seed": 3}
    )["lowerbound_sizes"] == [1500]
    assert get_scenario("serve").params_for(
        overrides={"batch_window_ms": 3}
    )["batch_window_ms"] == 3


def test_out_of_range_overrides_are_refused_before_any_work(capsys):
    # used to end in a worker's ValueError traceback
    assert cli_main([
        "run", "dynamic", "--smoke", "--workers", "1", "--set", "events=-5",
    ]) == 2
    assert "'events'" in capsys.readouterr().err
    # used to end in AttributeError: 'NoneType' has no 'number_of_layers'
    assert cli_main([
        "run", "theorem13-rounds", "--smoke", "--workers", "1", "--set", "sizes=0,",
    ]) == 2
    assert "'sizes'" in capsys.readouterr().err
    assert cli_main(["run", "corollary23-planar", "--smoke", "--n", "0"]) == 2
    assert "'n'" in capsys.readouterr().err
    # negative ints nested in a grid, and zero in a non-size parameter
    with pytest.raises(ScenarioError, match="'cases'"):
        get_scenario("lemma32-extension").params_for(
            overrides={"cases": (("planar", 80, 6, -3),)}
        )
    assert get_scenario("dynamic").params_for(
        smoke=True, overrides={"events": 0}
    )["events"] == 0


_BELOW_A_FLOOR = {
    # each used to end in a worker's traceback, noted after it
    "dynamic-window=0": ("dynamic --set window=0", "window"),  # ValueError
    "dynamic-max_rounds=0": ("dynamic --set max_rounds=0", "max_rounds"),  # SimulationError
    "dynamic-n=4": ("dynamic --n 4", "n"),  # GeneratorError: need d < n
    "randomized-mt_sizes=4": ("randomized --set mt_sizes=4,", "mt_sizes"),  # GeneratorError
    "randomized-sizes=4": ("randomized --n 4", "sizes"),  # GeneratorError
    "serve-clients=0": ("serve --set clients=0", "clients"),  # ZeroDivisionError
    "simulator-sizes=2": ("simulator --n 2", "sizes"),  # GeneratorError: a 2-cycle
    "corollary23-planar-n=2": ("corollary23-planar --n 2", "n"),  # GeneratorError
    "primitives-cv_sizes=1": ("primitives --set cv_sizes=1,", "cv_sizes"),  # IndexError
    "corollary21-brooks-ns=5": ("corollary21-brooks --n 5", "ns"),  # TypeError on K_5
    # ValueError: Theorem 1.3 requires d >= 3
    "theorem13-colors-ds=1": ("theorem13-colors --set ds=1,", "ds"),
    "coloring-d=0": ("coloring --set d=0", "d"),
    "theorem13-rounds-d=2": ("theorem13-rounds --set d=2", "d"),
    # ColoringError: a union of two forests breaks the d >= mad promise
    "theorem13-rounds-d=3": ("theorem13-rounds --set d=3", "d"),
    # ValueError: Corollary 2.1 requires maximum degree at least 3
    "corollary21-brooks-degrees=2": ("corollary21-brooks --set degrees=2,", "degrees"),
    "scale-sizes=1": ("scale --n 1", "sizes"),  # GeneratorError: a 1x1 torus
    "serve-requests=0": ("serve --set requests=0", "requests"),  # a false check failure
}


@pytest.mark.parametrize(
    "command, param", _BELOW_A_FLOOR.values(), ids=list(_BELOW_A_FLOOR)
)
def test_overrides_below_a_floor_are_refused(command, param, tmp_path, capsys):
    scenario, *override = command.split()
    argv = ["run", scenario, "--smoke", "--workers", "1", "--out", str(tmp_path), *override]
    assert cli_main(argv) == 2
    assert f"parameter '{param}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_AT_THE_FLOOR = {
    "dynamic": {"n": 5, "window": 1, "max_rounds": 1},
    "randomized": {"sizes": (5,), "mt_sizes": (5,)},
    "serve": {"clients": 1, "requests": 1},
    "simulator": {"sizes": (3,), "lowerbound_sizes": (3,)},
    "corollary23-planar": {"n": 3},
    "primitives": {"cv_sizes": (2,)},
    "corollary21-brooks": {"ns": (5,), "degrees": (3,)},  # ns = degree + 2
    "theorem13-colors": {"ds": (3,)},
    "coloring": {"d": 3},
    "theorem13-rounds": {"d": 4},
    "scale": {"sizes": (9,)},
}


@pytest.mark.parametrize(
    "scenario, overrides", _AT_THE_FLOOR.items(), ids=list(_AT_THE_FLOOR)
)
def test_floor_values_still_run(scenario, overrides):
    # a floor refuses only what cannot run; what runs is judged by the
    # oracles (one round cannot recover a fault, a 3-node speedup is noise)
    run = run_scenario(
        scenario, smoke=True, overrides=overrides, workers=1, export=False, strict=False
    )
    assert run.runner.rows


_ACROSS_PARAMETERS = {
    # each used to end in a worker's traceback, noted after it
    "primitives-dp1_sizes=4": (
        ["primitives", "--set", "dp1_sizes=4,"], "dp1_sizes"  # GeneratorError: need d < n
    ),
    "primitives-dp1_sizes-odd": (  # GeneratorError: n*d must be even
        ["primitives", "--set", "dp1_sizes=5,", "--set", "dp1_degree=3"], "dp1_sizes"
    ),
    "primitives-path_lb=1,0": (  # ValueError: n too small for the rounds
        ["primitives", "--set", "path_lb=1,0"], "path_lb"
    ),
    "primitives-path_lb=6,1": (["primitives", "--set", "path_lb=6,1"], "path_lb"),
    "primitives-path_lb=7,": (["primitives", "--set", "path_lb=7,"], "path_lb"),
    "lemma31-planar-n=2": (  # GeneratorError: need at least 3 vertices
        ["lemma31-happy-fraction", "--set", 'cases=(("planar",2,6),)'], "cases"
    ),
    "lemma31-regular-n=4": (  # GeneratorError: need d < n
        ["lemma31-happy-fraction", "--set", 'cases=(("regular",4,4),)'], "cases"
    ),
    "lemma31-forest-union-n=0": (  # ZeroDivisionError
        ["lemma31-happy-fraction", "--set", 'cases=(("forest-union",0,4),)'], "cases"
    ),
    "lemma31-unknown-family": (  # ValueError: unknown family
        ["lemma31-happy-fraction", "--set", 'cases=(("torus",80,4),)'], "cases"
    ),
    "lemma31-short-entry": (  # ValueError: not enough values to unpack
        ["lemma31-happy-fraction", "--set", 'cases=(("planar",80),)'], "cases"
    ),
    "lemma31-text-n": (  # TypeError
        ["lemma31-happy-fraction", "--set", 'cases=(("planar","80",6),)'], "cases"
    ),
    # ColoringError: d below the family's d >= mad promise (Lemma 3.1)
    "lemma31-planar-d=3": (
        ["lemma31-happy-fraction", "--set", 'cases=(("planar",80,3),)'], "cases"
    ),
    "lemma31-forest-union-d=3": (
        ["lemma31-happy-fraction", "--set", 'cases=(("forest-union",80,3),)'], "cases"
    ),
    "lemma31-regular-d=3": (
        ["lemma31-happy-fraction", "--set", 'cases=(("regular",60,3),)'], "cases"
    ),
    # ran, but outside the promise: a stacked triangulation on 80 vertices
    # has mad 6 - 12/80 > 5, so its row measured nothing Lemma 3.1 states
    "lemma31-planar-d=5": (
        ["lemma31-happy-fraction", "--set", 'cases=(("planar",80,5),)'], "cases"
    ),
    # ColoringError: K5 at d = 4 breaks the no-(d+1)-clique promise
    "lemma31-regular-K5-d=4": (
        ["lemma31-happy-fraction", "--set", 'cases=(("regular",5,4),)'], "cases"
    ),
    # a stacked triangulation holds a K4 from n = 4 on (ColoringError at
    # d = 3), and on 13 vertices has mad 6 - 12/13 > 5 (ran outside the promise)
    "lemma31-planar-K4-d=3": (
        ["lemma31-happy-fraction", "--set", 'cases=(("planar",4,3),)'], "cases"
    ),
    "lemma31-planar-n=13-d=5": (
        ["lemma31-happy-fraction", "--set", 'cases=(("planar",13,5),)'], "cases"
    ),
    "lemma31-text-d": (  # TypeError
        ["lemma31-happy-fraction", "--set", 'cases=(("planar",80,"6"),)'], "cases"
    ),
}


@pytest.mark.parametrize(
    "command, param", _ACROSS_PARAMETERS.values(), ids=list(_ACROSS_PARAMETERS)
)
def test_bounds_across_parameters_are_refused(command, param, tmp_path, capsys):
    scenario, *override = command
    argv = ["run", scenario, "--smoke", "--workers", "1", "--out", str(tmp_path), *override]
    assert cli_main(argv) == 2
    assert f"parameter '{param}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_AT_THE_CROSS_BOUNDS = {
    # dp1 sizes at degree + 1 (even degree) and degree + 1 with the product
    # even (odd degree); path_lb's n at exactly 2 * rounds + 5
    "primitives-even-degree": ("primitives", {"dp1_sizes": (5,), "path_lb": (5, 0)}),
    "primitives-odd-degree": (
        "primitives", {"dp1_sizes": (4,), "dp1_degree": 3, "path_lb": (7, 1)}
    ),
    # each family at its smallest n; K5 (the 4-regular graph on 5
    # vertices) meets Lemma 3.1's no-(d+1)-clique promise from d = 5
    "lemma31": (
        "lemma31-happy-fraction",
        {"cases": (("forest-union", 1, 4), ("planar", 3, 6), ("regular", 5, 5))},
    ),
    # each family at its smallest d, where the check still passes
    "lemma31-d": (
        "lemma31-happy-fraction",
        {"cases": (
            ("forest-union", 80, 4), ("planar", 80, 6), ("regular", 5, 5), ("regular", 60, 4),
        )},
    ),
    # a stacked triangulation on n vertices keeps the promise from
    # d = max(min(n, 4), ceil(6 - 12/n)): below n = 13 that is less than 6
    "lemma31-planar-small-n": (
        "lemma31-happy-fraction",
        {"cases": (
            ("planar", 3, 3), ("planar", 4, 4), ("planar", 6, 4), ("planar", 7, 5),
            ("planar", 12, 5), ("planar", 13, 6),
        )},
    ),
}


@pytest.mark.parametrize(
    "scenario, overrides", _AT_THE_CROSS_BOUNDS.values(), ids=list(_AT_THE_CROSS_BOUNDS)
)
def test_cross_parameter_bounds_still_run(scenario, overrides):
    run = run_scenario(scenario, smoke=True, overrides=overrides, workers=1, export=False)
    assert run.runner.rows


def test_lemma31_row_fails_when_the_default_radius_finds_no_happy_vertex(monkeypatch):
    """A peel that doubles its first radius does not lend the row its fraction.

    With the rich-ball radius stubbed to 1, a 4-regular graph has no slack
    vertex and its radius-1 balls are Gallai trees, so no vertex is happy
    there and the peel doubles the radius.  The row must still report the
    default radius's empty happy set, and the check must refuse it.
    """
    for module in (happy, peeling, tasks):
        monkeypatch.setattr(module, "default_rich_ball_radius", lambda n: 1)
    run = run_scenario(
        "lemma31-happy-fraction", smoke=True, overrides={"cases": (("regular", 60, 4),)},
        workers=1, export=False, strict=False,
    )
    [row] = run.runner.rows
    assert row.metrics["happy_fraction"] == 0
    assert any("below paper bound" in failure for failure in run.failures)


_UNKNOWN_ELEMENTS = {
    # each used to end in a worker's traceback, noted after it
    "primitives-cv_sizes=a,": (["primitives", "--set", "cv_sizes=a,"], "cv_sizes"),  # TypeError
    "theorem13-colors-ds=x,": (["theorem13-colors", "--set", "ds=x,"], "ds"),  # TypeError
    "dynamic-faults": (["dynamic", "--set", "faults=bogus,"], "faults"),  # KeyError
    "dynamic-protocols": (["dynamic", "--set", "protocols=bogus,"], "protocols"),  # KeyError
    "dynamic-families": (["dynamic", "--set", "families=bogus,"], "families"),  # ValueError
    "dynamic-backends": (["dynamic", "--set", "backends=bogus,"], "backends"),  # ValueError
    "simulator-engines": (["simulator", "--set", "engines=bogus,"], "engines"),  # ValueError
    "serve-workloads": (["serve", "--set", "workloads=bogus,"], "workloads"),  # ValueError
    "randomized-families": (["randomized", "--set", "families=bogus,"], "families"),  # ValueError
    "randomized-deterministic": (["randomized", "--set", "deterministic=bogus,"], "deterministic"),  # ValueError
}


@pytest.mark.parametrize(
    "command, param", _UNKNOWN_ELEMENTS.values(), ids=list(_UNKNOWN_ELEMENTS)
)
def test_mistyped_elements_and_unknown_names_are_refused(command, param, tmp_path, capsys):
    scenario, *override = command
    argv = ["run", scenario, "--smoke", "--workers", "1", "--out", str(tmp_path), *override]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert f"parameter '{param}'" in err
    for name in get_scenario(scenario).defaults[param]:  # a name parameter's names
        if isinstance(name, str):
            assert repr(name) in err
    assert not list(tmp_path.iterdir())


def test_declared_grids_pass_their_own_checks():
    from repro.serve.loadgen import WORKLOADS

    for scenario in all_scenarios():
        for grid in (scenario.defaults, scenario.smoke_overrides):
            for key, value in grid.items():
                if isinstance(value, tuple):  # one element type per tuple
                    assert len({type(item) for item in value}) == 1, (scenario.name, key)
        for smoke in (False, True):
            params = scenario.params_for(smoke=smoke)
            assert scenario.params_for(smoke=smoke, overrides=params) == params
        # names are checked against the full default, not the smoke grid
        full = dict(scenario.defaults)
        assert scenario.params_for(smoke=True, overrides=full) == full
    assert get_scenario("serve").defaults["workloads"] == WORKLOADS


def test_validate_artifact_flags_broken_shapes():
    assert validate_artifact([]) != []
    assert any("schema_version" in p for p in validate_artifact({}))
    good = run_scenario("lowerbound-fisk", smoke=True, workers=1, export=False)
    artifact = good.runner.to_json_dict()
    assert validate_artifact(artifact, expected_name="lowerbound-fisk") == []
    broken = dict(artifact, rows=[{"instance": 1}])
    assert any("rows[0]" in p for p in validate_artifact(broken))
    assert any("!= expected" in p for p in validate_artifact(artifact, expected_name="other"))
    # a row's stage clock names the four stages, each a non-negative number
    for stages in (
        {"solve": 0.1},
        {"generate": 0.0, "freeze": 0.0, "solve": -1.0, "verify": 0.0},
        {"generate": 0.0, "freeze": 0.0, "solve": "fast", "verify": 0.0},
    ):
        doctored = copy.deepcopy(artifact)
        doctored["rows"][0]["metrics"]["stage_seconds"] = stages
        assert any("stage_seconds" in p for p in validate_artifact(doctored)), stages


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in NAMES:
        assert name in out


def test_cli_list_json(capsys):
    assert cli_main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in payload["scenarios"]] == NAMES
    assert payload["campaigns"]["all"] == NAMES


def test_cli_run_smoke_writes_artifact(tmp_path, capsys):
    code = cli_main([
        "run", "theorem13-colors", "--smoke", "--workers", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    artifact = json.loads((tmp_path / "BENCH_theorem13-colors.json").read_text())
    assert validate_artifact(artifact, expected_name="theorem13-colors") == []
    assert "wrote" in capsys.readouterr().out


def test_cli_run_has_no_profile_flag(capsys):
    # every task row reports its stages, so the flag is gone
    with pytest.raises(SystemExit) as info:
        cli_main(["run", "theorem13-colors", "--smoke", "--profile"])
    assert info.value.code == 2
    assert "--profile" in capsys.readouterr().err


def test_artifact_names_its_environment(tmp_path, monkeypatch):
    import os
    import platform
    import subprocess

    import networkx
    import numpy

    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"subprocess started: {args!r}")

    # a fresh uname, so a platform call that runs `uname -p` would show
    monkeypatch.setattr(platform, "_uname_cache", None, raising=False)
    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    run = run_scenario("lowerbound-fisk", smoke=True, workers=1, out=tmp_path)
    environment = json.loads(run.path.read_text())["metadata"]["environment"]
    assert environment == {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "cpu_count": os.cpu_count(),
    }


def test_cli_run_unknown_scenario_errors(capsys):
    assert cli_main(["run", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_campaign_smoke(tmp_path, capsys):
    code = cli_main([
        "campaign", "lowerbounds", "--smoke", "--workers", "1", "--out", str(tmp_path),
    ])
    assert code == 0
    merged = json.loads((tmp_path / "BENCH_campaign_lowerbounds.json").read_text())
    assert set(merged["scenarios"]) == {"lowerbound-fisk", "lowerbound-grids"}
    for name in merged["scenarios"]:
        assert (tmp_path / f"BENCH_{name}.json").exists()
        assert validate_artifact(merged["scenarios"][name], expected_name=name) == []
    summary = {entry["scenario"]: entry for entry in merged["summary"]}
    assert all(entry["check_failures"] == [] for entry in summary.values())


def test_cli_verify_passes_and_fails(tmp_path, capsys):
    # a clean artifact verifies; exit code 0 and a per-artifact "ok" line
    assert cli_main([
        "run", "lowerbound-fisk", "--smoke", "--workers", "1",
        "--out", str(tmp_path), "--quiet",
    ]) == 0
    path = tmp_path / "BENCH_lowerbound-fisk.json"
    capsys.readouterr()
    assert cli_main(["verify", str(path)]) == 0
    assert "ok" in capsys.readouterr().out

    # corrupt a row: the budget oracle must fail the run with exit code 1
    artifact = json.loads(path.read_text())
    artifact["rows"][0]["metrics"]["colors"] = 99
    artifact["rows"][0]["metrics"]["budget"] = 1
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text(json.dumps(artifact))
    assert cli_main(["verify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "budget" in captured.err


def _verify_exit(artifact, tmp_path, capsys) -> tuple[int, str]:
    path = tmp_path / "BENCH_doctored.json"
    path.write_text(json.dumps(artifact))
    capsys.readouterr()
    code = cli_main(["verify", str(path), "--quiet"])
    return code, capsys.readouterr().err


def test_cli_verify_runs_the_scenario_check(tmp_path, capsys):
    """Corollary 1.4's claim (a strictly smaller palette than
    Barenboim-Elkin) lives only in the scenario's check; `repro verify`
    must run it on the file."""
    run = run_scenario(
        "corollary14-arboricity", smoke=True, workers=1, out=tmp_path
    )
    artifact = json.loads(run.path.read_text())
    assert _verify_exit(artifact, tmp_path, capsys)[0] == 0
    baseline = {
        (row["instance"], row["algorithm"].removeprefix("Barenboim-Elkin")):
            row["metrics"]["palette"]
        for row in artifact["rows"]
        if row["algorithm"].startswith("Barenboim-Elkin")
    }
    ours = [r for r in artifact["rows"] if r["algorithm"].startswith("Cor 1.4")]
    assert ours
    for row in ours:
        suffix = row["algorithm"].removeprefix("Cor 1.4 (2a colors)")
        row["metrics"]["palette"] = baseline[row["instance"], suffix]
    code, err = _verify_exit(artifact, tmp_path, capsys)
    assert code == 1
    assert "scenario-check" in err and "palette not strictly smaller" in err


@pytest.mark.parametrize("artifact_name, algorithm, metric", [
    ("BENCH_dynamic.json", "min-plus-one [flat]", "log_sha"),
    ("BENCH_dynamic.json", "min-plus-one [flat]", "rounds_to_recovery"),
    ("BENCH_dynamic.json", "min-plus-one [flat]", "containment_radius"),
    ("BENCH_simulator.json", "greedy [flat]", "rounds"),
])
def test_cli_verify_rejects_backend_divergence(
    artifact_name, algorithm, metric, tmp_path, capsys
):
    """The event-log and recovery figures, and the round engines' rounds,
    are parity metrics."""
    artifact = json.loads((REPO_ROOT / artifact_name).read_text())
    assert _verify_exit(artifact, tmp_path, capsys)[0] == 0
    row = next(r for r in artifact["rows"] if r["algorithm"] == algorithm)
    value = row["metrics"][metric]
    row["metrics"][metric] = value + 1 if isinstance(value, int) else value[::-1]
    code, err = _verify_exit(artifact, tmp_path, capsys)
    assert code == 1
    assert "variant-parity" in err and f"{metric} diverges" in err


def test_scenario_check_reports_malformed_artifacts():
    from repro.verify import artifact_failures

    artifact = run_scenario(
        "lemma31-happy-fraction", smoke=True, workers=1, export=False
    ).runner.to_json_dict()
    assert artifact_failures(artifact) == []
    # a check that raises on the rows becomes a failure naming the exception
    broken = copy.deepcopy(artifact)
    del broken["rows"][0]["metrics"]["happy_fraction"]
    failures = artifact_failures(broken)
    assert any(
        f.startswith("scenario-check:") and "KeyError" in f for f in failures
    ), failures
    # a registered scenario with a check is never skipped for want of params
    unparameterized = copy.deepcopy(artifact)
    del unparameterized["metadata"]["params"]
    failures = artifact_failures(unparameterized)
    assert any(
        f.startswith("scenario-check:") and "metadata.params" in f for f in failures
    ), failures


def test_serve_check_names_a_row_with_no_completed_response():
    from repro.analysis.runner import ExperimentRunner

    scenario = get_scenario("serve")
    runner = ExperimentRunner("serve")
    healthy = {
        "errors": 0, "digest_consistent": True, "digest_mismatches": 0,
        "cache_hit_rate": 0.0,
    }
    runner.add("idle", "serve [inline]", requests=0, invalid=0, valid=False, **healthy)
    runner.add("bad", "serve [inline]", requests=3, invalid=2, valid=False, **healthy)
    assert scenario.check(runner, scenario.params_for(smoke=True)) == [
        "idle: no response completed",
        "bad: 2 response(s) failed the proper-coloring/palette-budget oracles",
    ]


def test_cli_verify_reports_mistyped_metrics_without_traceback(tmp_path, capsys):
    artifact = json.loads((REPO_ROOT / "BENCH_dynamic.json").read_text())
    artifact["rows"][0]["metrics"]["rounds_to_recovery"] = "soon"
    code, err = _verify_exit(artifact, tmp_path, capsys)
    assert code == 1
    assert "recovery: raised TypeError" in err


def test_cli_run_and_campaign_have_no_verify_flag(capsys):
    for argv in (["run", "lowerbound-fisk", "--verify"], ["campaign", "--verify"]):
        with pytest.raises(SystemExit) as info:
            cli_main(argv)
        assert info.value.code == 2
        assert "--verify" in capsys.readouterr().err


def test_cli_verify_unpacks_campaign_merge(tmp_path, capsys):
    assert cli_main([
        "campaign", "lowerbounds", "--smoke", "--workers", "1",
        "--out", str(tmp_path),
    ]) == 0
    merged = tmp_path / "BENCH_campaign_lowerbounds.json"
    capsys.readouterr()
    assert cli_main(["verify", str(merged), "--quiet"]) == 0


def test_cli_verify_requires_input(capsys):
    assert cli_main(["verify"]) == 2
    assert "artifact paths" in capsys.readouterr().err


def test_cli_campaign_only_filter(tmp_path):
    assert cli_main([
        "campaign", "lowerbounds", "--smoke", "--workers", "1",
        "--out", str(tmp_path), "--only", "lowerbound-fisk",
    ]) == 0
    assert (tmp_path / "BENCH_lowerbound-fisk.json").exists()
    assert not (tmp_path / "BENCH_lowerbound-grids.json").exists()


def test_lowerbound_fisk_rules_out_four_colors():
    """Fisk's construction (Theorem 1.5) on case (29, 3) rules out 4 colors."""
    runner = run_scenario(
        "lowerbound-fisk", overrides={"cases": ((29, 3),)}, workers=1, export=False
    ).runner
    assert runner.name == "lowerbound-fisk"
    assert runner.rows and runner.rows[0].metrics["colors_ruled_out"] == 4
