"""The scenario catalog: every paper experiment as a registry entry.

One :func:`~repro.scenarios.registry.register` call per experiment, in the
order the statements appear in the paper.  Each entry declares its
parameter grid (``defaults``), the reduced grid used by ``--smoke`` / CI /
the test suite (``smoke_overrides``), the reference values claimed by the
paper, and — where the scenario makes claims of its own — a ``check``
turning them into assertions on an
:class:`~repro.analysis.runner.ExperimentRunner`.  Budgets, ``valid``
flags, cross-variant parity, round envelopes and recovery belong to the
artifact oracle suite (:mod:`repro.verify.artifact`), which runs every
``check`` too; a check holds only what that suite cannot say.

``docs/experiments.md`` documents every entry; keep the two in sync.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.analysis import BatchTask, ExperimentRunner, fit_polylog, normalized_by_polylog
from repro.scenarios import tasks
from repro.scenarios.base import Scenario, ScenarioError
from repro.scenarios.registry import register

__all__ = ["CAMPAIGNS"]

Params = Mapping[str, Any]


# ---------------------------------------------------------------------------
# E1 — theorem13-colors
# ---------------------------------------------------------------------------

def _build_theorem13_colors(params: Params) -> list[BatchTask]:
    built = []
    for d in params["ds"]:
        for n in params["sizes"]:
            instance = f"n={n} d={d}"
            for variant, algorithm in (
                ("uniform", "thm1.3 uniform lists"),
                ("random", "thm1.3 random lists"),
                ("greedy", "greedy baseline"),
            ):
                # seed_group = instance: every variant row of an instance
                # sees the same graph, while --seed still reseeds
                built.append(BatchTask(
                    instance, algorithm, tasks.theorem13_colors,
                    args=(n, d, variant), seed_group=instance,
                ))
    return built


register(Scenario(
    name="theorem13-colors",
    title="Theorem 1.3 — colors used vs. the budget d",
    paper_ref="Theorem 1.3",
    description=(
        "d-list-coloring of graphs with mad <= d (uniform and per-vertex "
        "random lists) against the degeneracy-greedy baseline, which needs "
        "one more color."
    ),
    build_tasks=_build_theorem13_colors,
    defaults={"sizes": (80, 160), "ds": (4, 6)},
    smoke_overrides={"sizes": (40,), "ds": (4,)},
    reference={
        "colors": "<= d with uniform lists {1..d}",
        "baseline": "floor(mad)+1 colors (degeneracy greedy)",
    },
    size_param="sizes",
    floors={"ds": 3},
))


# ---------------------------------------------------------------------------
# E2 — theorem13-rounds
# ---------------------------------------------------------------------------

_THM13_ROUNDS_LABEL = "thm1.3 (paper radius)"


def _build_theorem13_rounds(params: Params) -> list[BatchTask]:
    # seed_group (see _build_theorem13_colors) derives each instance's seed
    # from its label, not from the row's position in the batch
    return [
        BatchTask(
            f"n={n}", _THM13_ROUNDS_LABEL, tasks.theorem13_rounds,
            args=(n, params["d"]), seed_group=f"n={n}",
        )
        for n in params["sizes"]
    ]


def _round_series(runner: ExperimentRunner) -> tuple[list[int], list[int]]:
    return (
        runner.metric_series(_THM13_ROUNDS_LABEL, "n"),
        runner.metric_series(_THM13_ROUNDS_LABEL, "rounds"),
    )


def _finalize_theorem13_rounds(runner: ExperimentRunner, params: Params) -> None:
    ns, rounds = _round_series(runner)
    if len(ns) >= 3:
        fit = fit_polylog(ns, rounds)
        runner.metadata["fit"] = {
            "model": "rounds ~ c * log2(n)^e",
            "coefficient": round(fit.coefficient, 3),
            "exponent": round(fit.exponent, 3),
        }


def _check_theorem13_rounds(runner: ExperimentRunner, params: Params) -> list[str]:
    ns, rounds = _round_series(runner)
    if len(ns) < 3:
        return []
    failures = []
    normalized = normalized_by_polylog(ns, rounds, power=3)
    if max(normalized) > 6 * min(normalized):
        failures.append(
            f"rounds/log^3 not bounded: min {min(normalized):.3f}, "
            f"max {max(normalized):.3f} (> 6x)"
        )
    fit = fit_polylog(ns, rounds)
    if fit.exponent > 4.0:
        failures.append(f"fitted polylog exponent {fit.exponent:.2f} > 4.0")
    return failures


register(Scenario(
    name="theorem13-rounds",
    title="Theorem 1.3 — charged rounds vs n",
    paper_ref="Theorem 1.3",
    description=(
        "Round complexity of the Theorem 1.3 driver on unions of two random "
        "forests: the charged totals normalised by log2(n)^3 stay bounded "
        "as n grows, and the fitted polylog exponent stays <= 4."
    ),
    build_tasks=_build_theorem13_rounds,
    defaults={"sizes": (60, 120, 240, 480), "d": 4},
    smoke_overrides={"sizes": (40, 80)},
    reference={"rounds": "O(d^4 log^3 n), O(d^2 log^3 n) when max degree <= d"},
    size_param="sizes",
    # a union of two forests has mad < 4: at d = 3 the d >= mad promise breaks
    floors={"d": 4},
    finalize=_finalize_theorem13_rounds,
    check=_check_theorem13_rounds,
))


# ---------------------------------------------------------------------------
# E5 — corollary14-arboricity
# ---------------------------------------------------------------------------

def _build_corollary14(params: Params) -> list[BatchTask]:
    built = []
    for a in params["arboricities"]:
        for n in params["ns"]:
            instance = f"n={n} a={a}"
            # seed_group (see _build_theorem13_colors): the rows of an
            # instance share the graph, so the check compares the palettes
            built.append(BatchTask(
                instance, "Cor 1.4 (2a colors)", tasks.corollary14_arboricity,
                args=(n, a, "ours"), seed_group=instance,
            ))
            built.append(BatchTask(
                instance, "Barenboim-Elkin", tasks.corollary14_arboricity,
                args=(n, a, "barenboim-elkin"), seed_group=instance,
            ))
    return built


def _check_corollary14(runner: ExperimentRunner, params: Params) -> list[str]:
    failures = []
    ours = runner.metric_series("Cor 1.4 (2a colors)", "palette")
    baseline = runner.metric_series("Barenboim-Elkin", "palette")
    for o, b in zip(ours, baseline):
        if o >= b:
            failures.append(
                f"palette not strictly smaller: ours {o} vs Barenboim-Elkin {b}"
            )
    return failures


register(Scenario(
    name="corollary14-arboricity",
    title="Corollary 1.4 vs Barenboim–Elkin",
    paper_ref="Corollary 1.4",
    description=(
        "2a-list-coloring of graphs with arboricity a >= 2 against "
        "Barenboim–Elkin's floor((2+eps)a)+1 colors — the paper's palette "
        "is strictly smaller on every instance."
    ),
    build_tasks=_build_corollary14,
    defaults={"ns": (120,), "arboricities": (2, 3)},
    smoke_overrides={"ns": (60,), "arboricities": (2,)},
    reference={
        "palette": "2a colors in O(a^4 log^3 n) rounds",
        "baseline": "floor((2+eps)a)+1 colors in O(a log n) rounds",
    },
    size_param="ns",
    check=_check_corollary14,
))


# ---------------------------------------------------------------------------
# E7 — corollary21-brooks
# ---------------------------------------------------------------------------

def _build_corollary21(params: Params) -> list[BatchTask]:
    built = []
    for degree in params["degrees"]:
        for n in params["ns"]:
            if n <= degree + 1:
                # K_{degree+1} is the only degree-regular graph on degree + 1
                # vertices, and Corollary 2.1 excludes it
                raise ScenarioError(
                    f"scenario 'corollary21-brooks' parameter 'ns' must exceed "
                    f"degree + 1 = {degree + 1}, got {n}"
                )
            if n * degree % 2:
                n += 1
            instance = f"{degree}-regular n={n}"
            for variant, algorithm in (
                ("brooks", "Cor 2.1 (Delta colors)"),
                ("greedy", "greedy (Delta+1)"),
                ("nice", "Thm 6.1 (nice lists)"),
            ):
                built.append(BatchTask(
                    instance, algorithm, tasks.corollary21_brooks,
                    args=(n, degree, variant),
                ))
    return built


register(Scenario(
    name="corollary21-brooks",
    title="Corollary 2.1 (Brooks) and Theorem 6.1 (nice lists)",
    paper_ref="Corollary 2.1 / Theorem 6.1",
    description=(
        "Δ-list-coloring of K_{Δ+1}-free graphs of maximum degree Δ >= 3 "
        "(one color better than greedy), plus the nice-list-assignment "
        "generalisation of Theorem 6.1."
    ),
    build_tasks=_build_corollary21,
    defaults={"ns": (60, 120), "degrees": (4, 5)},
    smoke_overrides={"ns": (40,), "degrees": (4,)},
    reference={"colors": "Delta colors in O(Delta^2 log^3 n) rounds"},
    size_param="ns",
    floors={"degrees": 3},
))


# ---------------------------------------------------------------------------
# E6 — corollary23-planar
# ---------------------------------------------------------------------------

def _build_corollary23(params: Params) -> list[BatchTask]:
    n = params["n"]
    cases = [
        ("triangulation", "cor23", f"planar triangulation n={n}", "Cor 2.3 (6 colors)"),
        ("triangulation", "gps", f"planar triangulation n={n}", "GPS (7 colors)"),
        ("triangle-free", "cor23", f"triangle-free planar n={n}", "Cor 2.3 (4 colors)"),
        ("high-girth", "cor23", f"girth>=6 planar n={n}", "Cor 2.3 (3 colors)"),
    ]
    return [
        BatchTask(
            instance, algorithm, tasks.corollary23_planar,
            args=(family, n, solver),
        )
        for family, solver, instance, algorithm in cases
    ]


register(Scenario(
    name="corollary23-planar",
    title="Corollary 2.3 on planar graphs vs GPS",
    paper_ref="Corollary 2.3",
    description=(
        "6-list-coloring of planar graphs, 4 for triangle-free and 3 for "
        "girth >= 6, all in O(log^3 n) rounds, against the 7 colors of "
        "Goldberg–Plotkin–Shannon in O(log n) rounds."
    ),
    build_tasks=_build_corollary23,
    defaults={"n": 150},
    smoke_overrides={"n": 60},
    floors={"n": 3},
    reference={
        "planar": "6 colors", "triangle-free": "4 colors",
        "girth>=6": "3 colors", "GPS baseline": "7 colors",
    },
    size_param="n",
))


# ---------------------------------------------------------------------------
# E8 — corollary211-genus
# ---------------------------------------------------------------------------

def _build_corollary211(params: Params) -> list[BatchTask]:
    built = []
    for k, length in params["sizes"]:
        instance = f"torus triangulation {k}x{length} (n={k * length})"
        for improved, algorithm in ((False, "H(g)=7 budget"), (True, "H(g)-1=6 budget")):
            built.append(BatchTask(
                instance, algorithm, tasks.corollary211_genus,
                args=(k, length, improved), seed_arg=None,
            ))
    return built


register(Scenario(
    name="corollary211-genus",
    title="Corollary 2.11 on toroidal triangulations (Euler genus 2)",
    paper_ref="Corollary 2.11",
    description=(
        "H(g)-list-coloring of graphs embedded on a fixed surface, and "
        "H(g)-1 colors when the Heawood mad bound is an integer and the "
        "graph is not K_{H(g)} — measured on 6-regular toroidal "
        "triangulations (Heawood number 7)."
    ),
    build_tasks=_build_corollary211,
    defaults={"sizes": ((6, 8), (8, 10))},
    smoke_overrides={"sizes": ((6, 6),)},
    reference={"budget": "H(g) colors, H(g)-1 in the improved regime"},
    # sizes are (k, l) torus dimensions, not a flat list — no --n mapping;
    # override with --set sizes="((8, 10),)" instead
))


# ---------------------------------------------------------------------------
# E3 — lemma31-happy-fraction
# ---------------------------------------------------------------------------

def _lemma31_case_runs(case: Any) -> bool:
    """A ``(family, n, d)`` entry with a known family and n at its minimum."""
    if not isinstance(case, (tuple, list)) or len(case) != 3:
        return False
    family, n, _d = case
    min_n = tasks.LEMMA31_MIN_N
    # a scan, not a dict lookup: a parsed override may hold an unhashable list
    return family in tuple(min_n) and isinstance(n, int) and n >= min_n[family]


def _build_lemma31(params: Params) -> list[BatchTask]:
    min_n = tasks.LEMMA31_MIN_N
    for case in params["cases"]:
        if not _lemma31_case_runs(case):
            raise ScenarioError(
                f"scenario 'lemma31-happy-fraction' parameter 'cases' takes "
                f"(family, n, d) entries with a family in {sorted(min_n)} "
                f"and n at least its minimum {min_n}, got {case!r}"
            )
        family, n, d = case
        min_d = tasks.lemma31_min_d(family, n)
        if not isinstance(d, int) or d < min_d:
            raise ScenarioError(
                f"scenario 'lemma31-happy-fraction' parameter 'cases' takes d "
                f"at least {min_d} for {family} at n={n}, where Lemma 3.1's "
                f"promise (d >= mad, no (d+1)-clique) holds, got {case!r}"
            )
    return [
        BatchTask(
            f"{family} n={n}", f"classification d={d}", tasks.lemma31_happy_fraction,
            args=(family, n, d),
        )
        for family, n, d in params["cases"]
    ]


def _check_lemma31(runner: ExperimentRunner, params: Params) -> list[str]:
    return [
        f"{row.instance}: happy fraction {row.metrics['happy_fraction']} below "
        f"paper bound {row.metrics['paper_bound']}"
        for row in runner.rows
        if row.metrics["happy_fraction"] < row.metrics["paper_bound"]
    ]


register(Scenario(
    name="lemma31-happy-fraction",
    title="Lemma 3.1 — happy fraction and peeling layers",
    paper_ref="Lemma 3.1",
    description=(
        "The happy set of the first peeling layer is a constant fraction "
        "of the graph (|A| >= n/(3d)^3, and n/(12d+1) without poor "
        "vertices), including the adversarial d-regular case."
    ),
    build_tasks=_build_lemma31,
    defaults={"cases": (("forest-union", 200, 4), ("planar", 200, 6), ("regular", 120, 4))},
    smoke_overrides={"cases": (("forest-union", 80, 4), ("planar", 80, 6), ("regular", 60, 4))},
    reference={
        "happy_fraction": ">= 1/(3d)^3, >= 1/(12d+1) without poor vertices",
        "layers": "O(d^3 log n), O(d log n) without poor vertices",
    },
    check=_check_lemma31,
))


# ---------------------------------------------------------------------------
# E4 — lemma32-extension
# ---------------------------------------------------------------------------

def _build_lemma32(params: Params) -> list[BatchTask]:
    return [
        BatchTask(
            f"{family} n={n}", f"extension d={d} r={radius}", tasks.lemma32_extension,
            args=(family, n, d, radius),
        )
        for family, n, d, radius in params["cases"]
    ]


def _check_lemma32(runner: ExperimentRunner, params: Params) -> list[str]:
    return [
        f"{row.instance}: extension charged no rounds"
        for row in runner.rows
        if row.metrics["rounds"] <= 0
    ]


register(Scenario(
    name="lemma32-extension",
    title="Lemma 3.2 — one extension step",
    paper_ref="Lemma 3.2",
    description=(
        "Extending a list-coloring of G - A to G with the ruling forest, "
        "the (d+1) stable partition and layered tree coloring; reports the "
        "roots, tree vertices and recolored sad vertices of the proof."
    ),
    build_tasks=_build_lemma32,
    defaults={"cases": (("planar", 120, 6, 3), ("planar", 240, 6, 4), ("forest-union", 200, 4, 4))},
    smoke_overrides={"cases": (("planar", 80, 6, 3),)},
    reference={"rounds": "O(d log^2 n) per extension step"},
    check=_check_lemma32,
))


# ---------------------------------------------------------------------------
# E9 — lowerbound-fisk
# ---------------------------------------------------------------------------

def _build_fisk(params: Params) -> list[BatchTask]:
    return [
        BatchTask(
            f"n={n}", "Observation 2.4 certificate", tasks.lowerbound_fisk,
            args=(n, rounds), seed_arg=None,
        )
        for n, rounds in params["cases"]
    ]


def _check_fisk(runner: ExperimentRunner, params: Params) -> list[str]:
    rounds = runner.metric_series("Observation 2.4 certificate", "certified_rounds")
    ns = runner.metric_series("Observation 2.4 certificate", "obstruction_n")
    failures = []
    if rounds != sorted(rounds):
        failures.append(f"certified rounds not monotone: {rounds}")
    if len(rounds) >= 2 and rounds[-1] / ns[-1] < 0.5 * rounds[0] / ns[0]:
        failures.append(
            f"certified bound not linear in n: rounds/n fell from "
            f"{rounds[0] / ns[0]:.3f} to {rounds[-1] / ns[-1]:.3f}"
        )
    return failures


register(Scenario(
    name="lowerbound-fisk",
    title="Theorem 1.5 — 4-coloring planar graphs needs Omega(n) rounds",
    paper_ref="Theorem 1.5",
    description=(
        "Indistinguishability certificate: a locally planar toroidal "
        "triangulation with chromatic number 5 forces any algorithm that "
        "4-colors all planar graphs to spend Omega(n) rounds."
    ),
    build_tasks=_build_fisk,
    defaults={"cases": ((29, 3), (49, 6), (97, 14))},
    smoke_overrides={"cases": ((29, 3),)},
    reference={"certified_rounds": "grows linearly in n (Omega(n))"},
    check=_check_fisk,
))


# ---------------------------------------------------------------------------
# E10 — lowerbound-grids
# ---------------------------------------------------------------------------

def _build_grids(params: Params) -> list[BatchTask]:
    built = [
        BatchTask(
            f"G_5x{2 * length + 1}", "Thm 2.5 certificate", tasks.lowerbound_triangle_free,
            args=(length, rounds), seed_arg=None,
        )
        for length, rounds in params["tf_cases"]
    ]
    built += [
        BatchTask(
            f"G_{2 * k + 1}x{2 * k + 1}", "Thm 2.6 certificate",
            tasks.lowerbound_bipartite_grid,
            args=(k, rounds), seed_arg=None,
        )
        for k, rounds in params["bip_cases"]
    ]
    return built


def _check_grids(runner: ExperimentRunner, params: Params) -> list[str]:
    failures = []
    for algorithm in ("Thm 2.5 certificate", "Thm 2.6 certificate"):
        rounds = runner.metric_series(algorithm, "certified_rounds")
        if rounds != sorted(rounds):
            failures.append(f"{algorithm}: certified rounds not monotone: {rounds}")
    return failures


register(Scenario(
    name="lowerbound-grids",
    title="Theorems 2.5/2.6 — 3-coloring lower bounds from Klein-bottle grids",
    paper_ref="Theorems 2.5 and 2.6",
    description=(
        "No o(n)-round algorithm 3-colors every triangle-free planar graph "
        "(G_{5,2l+1}), and no o(sqrt(n))-round algorithm 3-colors every "
        "planar bipartite graph (G_{2k+1,2k+1})."
    ),
    build_tasks=_build_grids,
    defaults={"tf_cases": ((4, 2), (8, 6), (12, 10)), "bip_cases": ((4, 2), (6, 4), (8, 6))},
    smoke_overrides={"tf_cases": ((4, 2),), "bip_cases": ((4, 2),)},
    reference={
        "Thm 2.5": "certified rounds grow ~ n",
        "Thm 2.6": "certified rounds grow ~ sqrt(n)",
    },
    check=_check_grids,
))


# ---------------------------------------------------------------------------
# E11/E12/E13 — primitives
# ---------------------------------------------------------------------------

def _check_primitives_params(params: Params) -> None:
    """Refuse the bounds that tie one primitives parameter to another."""
    degree = params["dp1_degree"]
    for n in params["dp1_sizes"]:
        if n <= degree or n * degree % 2:
            raise ScenarioError(
                f"scenario 'primitives' parameter 'dp1_sizes' needs every size "
                f"above dp1_degree = {degree}, with size * dp1_degree even (a "
                f"{degree}-regular graph on that many vertices), got {n}"
            )
    path_lb = tuple(params["path_lb"])
    if len(path_lb) != 2 or path_lb[0] < 2 * path_lb[1] + 5:
        raise ScenarioError(
            f"scenario 'primitives' parameter 'path_lb' takes (n, rounds) with "
            f"n >= 2 * rounds + 5, the odd cycle its certificate embeds, got {path_lb!r}"
        )


def _build_primitives(params: Params) -> list[BatchTask]:
    _check_primitives_params(params)
    built = [
        BatchTask(
            f"path n={n}", "Cole-Vishkin (3 colors)", tasks.primitives_cole_vishkin,
            args=(n,), seed_arg=None,
        )
        for n in params["cv_sizes"]
    ]
    built += [
        BatchTask(
            f"{params['dp1_degree']}-regular n={n}", "Linial + reduction (Delta+1)",
            tasks.primitives_delta_plus_one,
            args=(n, params["dp1_degree"]),
        )
        for n in params["dp1_sizes"]
    ]
    built += [
        BatchTask(
            f"grid n={n}", f"ruling forest (alpha={params['ruling_alpha']})",
            tasks.primitives_ruling_forest,
            args=(n, params["ruling_alpha"]), seed_arg=None,
        )
        for n in params["ruling_sizes"]
    ]
    lb_n, lb_rounds = params["path_lb"]
    built.append(BatchTask(
        f"path n={lb_n}", "2-coloring lower bound (Omega(n))",
        tasks.primitives_path_lower_bound,
        args=(lb_n, lb_rounds), seed_arg=None,
    ))

    # E13: the CSR speedup A/B shares one fixed seed across all four tasks
    # so the dict-of-sets and FrozenGraph timings see the same instance.
    n, a, radius, seed = (
        params["csr_n"], params["csr_arboricity"], params["csr_radius"], params["csr_seed"],
    )
    instance = f"forest_union n={n} a={a}"
    for backend in ("dict-of-sets", "CSR"):
        key = "dict" if backend == "dict-of-sets" else "csr"
        built.append(BatchTask(
            instance, f"degeneracy ordering ({backend})", tasks.primitives_degeneracy,
            args=(n, a, key), kwargs={"seed": seed}, seed_arg=None,
        ))
        built.append(BatchTask(
            instance, f"ball collection r={radius} ({backend})", tasks.primitives_balls,
            args=(n, a, radius, key), kwargs={"seed": seed}, seed_arg=None,
        ))
    return built


def _finalize_primitives(runner: ExperimentRunner, params: Params) -> None:
    radius = params["csr_radius"]
    instance = f"forest_union n={params['csr_n']} a={params['csr_arboricity']}"
    for primitive in ("degeneracy ordering", f"ball collection r={radius}"):
        baseline = runner.metric_series(f"{primitive} (dict-of-sets)", "compute_seconds")
        csr = runner.metric_series(f"{primitive} (CSR)", "compute_seconds")
        if baseline and csr and csr[0] > 0:
            speedup = round(baseline[0] / csr[0], 2)
            runner.metadata[f"speedup[{primitive}]"] = speedup
            runner.add(instance, f"{primitive} speedup", speedup_x=speedup)


def _check_primitives(runner: ExperimentRunner, params: Params) -> list[str]:
    cv_rounds = runner.metric_series("Cole-Vishkin (3 colors)", "rounds")
    failures = []
    if len(cv_rounds) >= 2 and cv_rounds[-1] > cv_rounds[0] + 6:
        failures.append(
            f"Cole-Vishkin rounds grew from {cv_rounds[0]} to {cv_rounds[-1]} "
            "across the size sweep — not log*-like"
        )
    return failures


register(Scenario(
    name="primitives",
    title="E11/E12 primitives — measured rounds, plus the E13 CSR speedup tracker",
    paper_ref="Section 2 building blocks / Observation 2.4",
    description=(
        "Round counts of the distributed building blocks (Cole–Vishkin, "
        "Linial + reduction, ruling forests, the path 2-coloring lower "
        "bound) and the dict-of-sets vs FrozenGraph CSR timing A/B on "
        "degeneracy peeling and ball collection."
    ),
    build_tasks=_build_primitives,
    defaults={
        "cv_sizes": (50, 500, 5000),
        "dp1_sizes": (60, 240), "dp1_degree": 4,
        "ruling_sizes": (100, 400), "ruling_alpha": 4,
        "path_lb": (200, 20),
        "csr_n": 10_000, "csr_arboricity": 3, "csr_radius": 8, "csr_seed": 42,
    },
    smoke_overrides={
        "cv_sizes": (50, 200),
        "dp1_sizes": (60,),
        "ruling_sizes": (100,),
        "path_lb": (60, 5),
        "csr_n": 800, "csr_radius": 4,
    },
    floors={"cv_sizes": 2},
    reference={
        "Cole-Vishkin": "O(log* n) rounds (Linial: Omega(log* n) necessary)",
        "path lower bound": "2-coloring a path needs Omega(n) rounds",
    },
    serial_only=True,
    finalize=_finalize_primitives,
    check=_check_primitives,
))


# ---------------------------------------------------------------------------
# E14 — simulator (flat-array round engine A/B)
# ---------------------------------------------------------------------------

_SIM_ENGINES = ("seed", "flat", "batch")
_SIM_ALGORITHMS = (
    # (algorithm key, topology, row label)
    ("cole-vishkin", "path", "Cole-Vishkin"),
    ("greedy", "ring", "greedy"),
)


#: the Ω(n) lower-bound workload runs on the batched engine only: its round
#: count *is* n, and the per-node engines spend Θ(n) per round polling
#: silent nodes — Θ(n²) total — while the batched program's sparse
#: exchange does O(frontier) work per round.  Cross-engine
#: parity for the wave protocol is pinned at small n by the test suite.
_SIM_WAVE_LABEL = "2-coloring wave (Omega n)"


def _build_simulator(params: Params) -> list[BatchTask]:
    built = []
    for key, topology, label in _SIM_ALGORITHMS:
        for n in params["sizes"]:
            for engine in params["engines"]:
                built.append(BatchTask(
                    f"{topology} n={n}", f"{label} [{engine}]",
                    tasks.simulator_throughput,
                    args=(n, topology, key, engine),
                    kwargs={"id_seed": params["id_seed"]}, seed_arg=None,
                ))
    for n in params["lowerbound_sizes"]:
        built.append(BatchTask(
            f"path n={n}", f"{_SIM_WAVE_LABEL} [batch]",
            tasks.simulator_throughput,
            args=(n, "path", "wave", "batch"),
            kwargs={"id_seed": params["id_seed"]}, seed_arg=None,
        ))
    return built


def _finalize_simulator(runner: ExperimentRunner, params: Params) -> None:
    sizes = list(params["sizes"])
    for key, topology, label in _SIM_ALGORITHMS:
        baseline = runner.metric_series(f"{label} [seed]", "engine_seconds")
        for engine in params["engines"]:
            if engine == "seed":
                continue
            timed = runner.metric_series(f"{label} [{engine}]", "engine_seconds")
            for n, seed_s, engine_s in zip(sizes, baseline, timed):
                if engine_s > 0:
                    speedup = round(seed_s / engine_s, 2)
                    runner.metadata[f"speedup[{label}][{engine}][n={n}]"] = speedup
                    runner.add(
                        f"{topology} n={n}", f"{label} {engine} speedup",
                        n=n, speedup_x=speedup,
                    )


def _check_simulator(runner: ExperimentRunner, params: Params) -> list[str]:
    failures = []
    # the headline speedup: batched Cole-Vishkin vs the seed engine at the
    # largest size (>= 5x at benchmark sizes; a loose sanity floor on the
    # tiny smoke grid where constant overheads dominate)
    largest = max(params["sizes"])
    target = 5.0 if largest >= 50_000 else 1.0
    recorded = runner.metadata.get(f"speedup[Cole-Vishkin][batch][n={largest}]")
    if recorded is not None and recorded < target:
        failures.append(
            f"batched Cole-Vishkin speedup {recorded}x at n={largest} "
            f"below the {target}x target"
        )
    # the Ω(n) signature of the wave rows: exactly n rounds and one
    # broadcast per node (2(n-1) directed messages on a path)
    for row in runner.rows:
        if not row.algorithm.startswith(_SIM_WAVE_LABEL):
            continue
        n = row.metrics.get("n")
        if row.metrics.get("rounds") != n:
            failures.append(
                f"{row.instance}: wave rounds {row.metrics.get('rounds')} != n={n}"
            )
        if n and row.metrics.get("messages") != 2 * (n - 1):
            failures.append(
                f"{row.instance}: wave messages {row.metrics.get('messages')} "
                f"!= 2(n-1)={2 * (n - 1)}"
            )
    return failures


register(Scenario(
    name="simulator",
    title="LOCAL round engine throughput — seed vs flat-array vs batched",
    paper_ref="simulation infrastructure",
    description=(
        "Rounds/sec and messages/sec of the synchronous round engine on "
        "Cole-Vishkin (rooted path) and the greedy baseline (ring, random "
        "identifiers): the dict-routed seed engine against the flat-array "
        "per-node engine and the vectorized batched protocol, with "
        "cross-engine round/message parity checked on every instance.  "
        "The fused batched engine additionally runs the wave 2-coloring "
        "lower-bound workload (Observation 2.4: exactly n rounds on a "
        "rooted path) at n=10^5 — an Omega(n)-round simulation made "
        "tractable by the engine's sparse exchange."
    ),
    build_tasks=_build_simulator,
    defaults={
        "sizes": (10_000, 100_000), "lowerbound_sizes": (100_000,),
        "engines": _SIM_ENGINES, "id_seed": 7,
    },
    smoke_overrides={"sizes": (1_500,), "lowerbound_sizes": (1_500,)},
    floors={"sizes": 3},
    reference={
        "parity": "identical rounds/messages on all engines",
        "speedup": ">= 5x rounds/sec for batched Cole-Vishkin at n=10^5",
        "lower bound": "wave 2-coloring spends exactly n rounds at n=10^5",
    },
    size_param="sizes",
    serial_only=True,
    finalize=_finalize_simulator,
    check=_check_simulator,
))


# ---------------------------------------------------------------------------
# E15 — coloring (Theorem 1.3 and Barenboim–Elkin digests)
# ---------------------------------------------------------------------------

_COLORING_ALGORITHMS = (
    # (task key, size param, row label); the "[flat]" suffix keeps the
    # labels of the committed artifact's rows
    ("theorem13", "sizes", "Thm 1.3 pipeline [flat]"),
    ("barenboim-elkin", "be_sizes", "Barenboim-Elkin [flat]"),
)


def _build_coloring(params: Params) -> list[BatchTask]:
    built = []
    d = params["d"]
    for key, size_key, label in _COLORING_ALGORITHMS:
        for n in params[size_key]:
            # one explicit seed per instance (not per task index), so a
            # row's graph does not depend on the rows built before it
            built.append(BatchTask(
                f"{key} n={n} d={d}", label, tasks.coloring_pipeline,
                args=(n, d, key),
                kwargs={"seed": params["instance_seed"] + n}, seed_arg=None,
            ))
    return built


register(Scenario(
    name="coloring",
    title="Flat palette core — Theorem 1.3 and Barenboim–Elkin digests",
    paper_ref="Theorem 1.3 / Corollary 1.4 (infrastructure)",
    description=(
        "Wall time, coloring digest and charged rounds of the full "
        "d-list-coloring pipeline of Theorem 1.3 and of the Barenboim-Elkin "
        "baseline on the flat palette substrate (interned color bitmasks, "
        "CSR kernels, batched slot selection on the round engine)."
    ),
    build_tasks=_build_coloring,
    defaults={
        "sizes": (2_000, 10_000), "be_sizes": (10_000,), "d": 4,
        "instance_seed": 1_000,
    },
    smoke_overrides={"sizes": (300,), "be_sizes": (300,)},
    reference={
        "digests": (
            "coloring_sha and rounds of Theorem 1.3 and Barenboim-Elkin, "
            "per instance"
        ),
    },
    size_param="sizes",
    floors={"d": 3},
    serial_only=True,
))


# ---------------------------------------------------------------------------
# E16 — scale (million-node tier: streaming generators + zero-copy fan-out)
# ---------------------------------------------------------------------------

def _build_scale(params: Params) -> list[BatchTask]:
    """Publish each instance once, then emit handle-only tasks.

    Generation and publication happen here in the parent — the tasks carry
    a few-dozen-byte :class:`~repro.analysis.shared.SharedGraphHandle`
    instead of a pickled graph, so worker fan-out is zero-copy.
    ``run_scenario`` releases the published buffers in a ``finally``.
    """
    from math import isqrt

    from repro.analysis import shared
    from repro.corpus import InstanceSpec, default_corpus

    corpus = default_corpus()
    k = params["degeneracy"]
    built = []
    for n in params["sizes"]:
        spec = InstanceSpec.of(
            "stream-degenerate", n=n, degeneracy=k, seed=params["instance_seed"]
        )
        handle = shared.publish(corpus.frozen(spec), npz_path=corpus.npz_path(spec))
        instance = f"stream-degenerate n={n} k={k}"
        built.append(BatchTask(
            instance, "degeneracy peel [shared]",
            tasks.scale_peel, args=(handle,), seed_arg=None,
        ))
        if n <= params["roundtrip_max_n"]:
            built.append(BatchTask(
                instance, "npz round trip",
                tasks.scale_npz_roundtrip, args=(handle,), seed_arg=None,
            ))
        side = isqrt(n)
        torus_spec = InstanceSpec.of("stream-torus", rows=side, cols=side)
        torus_handle = shared.publish(
            corpus.frozen(torus_spec), npz_path=corpus.npz_path(torus_spec)
        )
        built.append(BatchTask(
            f"stream-torus n={side * side}", "batched greedy Delta+1 [shared]",
            tasks.scale_coloring, args=(torus_handle,), seed_arg=None,
        ))
    return built


def _check_scale(runner: ExperimentRunner, params: Params) -> list[str]:
    failures = []
    budget = params["rss_budget_mb"] * 1024 * 1024
    for row in runner.rows:
        if row.metrics.get("digest_ok") is False:
            failures.append(
                f"{row.instance} / {row.algorithm}: content digest diverged "
                "across the zero-copy transport"
            )
        peak = row.metrics.get("peak_rss_bytes")
        if isinstance(peak, int) and peak > budget:
            failures.append(
                f"{row.instance} / {row.algorithm}: peak RSS {peak / 2**20:.0f} MiB "
                f"over the {params['rss_budget_mb']} MiB budget"
            )
    return failures


register(Scenario(
    name="scale",
    title="Million-node tier — streaming instances, shared-memory fan-out",
    paper_ref="asymptotic claims of Thms 1.3/1.6 (infrastructure)",
    description=(
        "Degeneracy peel, npz round trip and batched (Delta+1)-coloring on "
        "streaming-generated instances at n=10^5..10^6: graphs are built "
        "as edge ndarrays (never dict-of-sets), published once by the "
        "parent, and attached zero-copy by pool workers via shared memory "
        "or npz memory-maps.  Every row reports peak_rss_bytes next to "
        "wall time; digests recomputed from attached buffers pin "
        "bit-identical transport."
    ),
    build_tasks=_build_scale,
    defaults={
        "sizes": (100_000, 1_000_000),
        "degeneracy": 3,
        "instance_seed": 1_000,
        "roundtrip_max_n": 100_000,
        "rss_budget_mb": 8_192,
    },
    smoke_overrides={
        "sizes": (10_000,),
        "roundtrip_max_n": 10_000,
        "rss_budget_mb": 4_096,
    },
    reference={
        "transport": "digest-identical graphs across shm/npz/local transports",
        "rss": "per-row peak RSS under the configured budget",
    },
    size_param="sizes",
    # the torus side is isqrt(n), and a torus needs a side of at least 3
    floors={"sizes": 9},
    check=_check_scale,
))


# ---------------------------------------------------------------------------
# E17 — serve (coloring-as-a-service under synthetic load)
# ---------------------------------------------------------------------------

def _build_serve(params: Params) -> list[BatchTask]:
    """One row per workload; each task boots its own in-process service.

    The rows run serially in the parent (``serial_only``): the latency
    percentiles are the measurement, so they must not compete with sibling
    tasks for cores — and each task spins up its own event loop anyway.
    """
    built = []
    for workload in params["workloads"]:
        built.append(BatchTask(
            f"{workload} clients={params['clients']} requests={params['requests']}",
            "serve [inline]",
            tasks.serve_load,
            args=(
                workload, params["clients"], params["requests"],
                params["huge_n"], params["cache_max_bytes"],
                params["batch_window_ms"],
            ),
            seed_group=workload,
        ))
    return built


def _check_serve(runner: ExperimentRunner, params: Params) -> list[str]:
    failures = []
    for row in runner.rows:
        m = row.metrics
        if m.get("errors"):
            failures.append(
                f"{row.instance}: {m['errors']} request error(s), e.g. "
                f"{m.get('error_examples')!r}"
            )
        if not m.get("valid"):
            if m.get("invalid") == 0:
                # valid also needs a completed response: none was checked
                failures.append(f"{row.instance}: no response completed")
            else:
                failures.append(
                    f"{row.instance}: {m.get('invalid', '?')} response(s) failed "
                    "the proper-coloring/palette-budget oracles"
                )
        if not m.get("digest_consistent"):
            failures.append(
                f"{row.instance}: {m.get('digest_mismatches')} coloring_digest "
                "mismatch(es) across cache hit/miss paths"
            )
        if m.get("requests", 0) > 2 * len(_SMALL_SERVE_KEYS) and (
            m.get("cache_hit_rate", 0.0) <= 0.0
        ):
            failures.append(f"{row.instance}: cache hit rate is zero under a hot workload")
    return failures


#: distinct (instance, algorithm) keys the small-query stream can emit —
#: above ~2x this many requests a hot workload must see cache hits
_SMALL_SERVE_KEYS = [
    (name, algo)
    for name in range(5)
    for algo in ("greedy", "delta-plus-one", "theorem13")
]


register(Scenario(
    name="serve",
    title="Coloring-as-a-service — latency/throughput under mixed load",
    paper_ref="ROADMAP north star (serving infrastructure)",
    description=(
        "The asyncio coloring service under synthetic traffic: N concurrent "
        "clients replay mixed workloads (many small planar/sparse queries "
        "with hot-key skew, a few huge streaming-sparse requests through "
        "the upload path, and a cold/warm replay pass) against an "
        "in-process server with the digest-keyed result cache and the "
        "micro-batching layer enabled.  Rows record p50/p95/p99 latency, "
        "throughput, cache hit rate and coalescing counts; every response "
        "is oracle-verified server-side and the check gate requires zero "
        "errors, zero invalid colorings and digest-consistent repeats."
    ),
    build_tasks=_build_serve,
    defaults={
        "workloads": ("small-hot", "mixed", "replay"),
        "clients": 8,
        "requests": 240,
        "huge_n": 50_000,
        "cache_max_bytes": 64 * 1024 * 1024,
        "batch_window_ms": 2.0,
    },
    smoke_overrides={"clients": 4, "requests": 48, "huge_n": 2_000},
    floors={"clients": 1, "requests": 1},
    reference={
        "legality": "every served coloring passes the PR-5 oracles",
        "consistency": "hit and miss paths return bit-identical coloring_digests",
        "cache": "hot workloads achieve a nonzero cache hit rate",
    },
    serial_only=True,
    check=_check_serve,
))


# ---------------------------------------------------------------------------
# E18 — dynamic (fault injection + self-stabilizing recovery)
# ---------------------------------------------------------------------------

def _build_dynamic(params: Params) -> list[BatchTask]:
    built = []
    n = params["n"]
    for family in params["families"]:
        for faults in params["faults"]:
            instance = f"{family} n={n} faults={faults}"
            for protocol in params["protocols"]:
                # seed_group = instance: every protocol/backend row of an
                # instance perturbs the same graph with the same plan, so
                # the parity checks compare like with like
                for backend in params["backends"]:
                    built.append(BatchTask(
                        instance, f"{protocol} [{backend}]",
                        tasks.dynamic_recovery,
                        args=(family, n, faults, protocol, backend),
                        kwargs={
                            "events": params["events"],
                            "window": params["window"],
                            "max_rounds": params["max_rounds"],
                        },
                        seed_group=instance,
                    ))
    return built


def _finalize_dynamic(runner: ExperimentRunner, params: Params) -> None:
    recoveries = [
        row.metrics["rounds_to_recovery"]
        for row in runner.rows
        if row.metrics.get("rounds_to_recovery", -1) >= 0
    ]
    if recoveries:
        runner.metadata["rounds_to_recovery"] = {
            "max": max(recoveries),
            "mean": round(sum(recoveries) / len(recoveries), 2),
        }
    radii = [
        row.metrics["containment_radius"]
        for row in runner.rows
        if "containment_radius" in row.metrics
    ]
    if radii:
        runner.metadata["containment_radius_max"] = max(radii)


register(Scenario(
    name="dynamic",
    title="E18 dynamic graphs — self-stabilizing recovery under injected faults",
    paper_ref="ROADMAP north star (dynamic graphs + fault tolerance)",
    description=(
        "Fault-injection sweep over the Lemma 3.1 graph families: a legally "
        "colored graph is perturbed by a seeded FaultPlan (color "
        "corruptions, node resets, edge churn, lossy/duplicated messages) "
        "while a self-stabilizing protocol (min+1 recoloring, or the "
        "stabilizing greedy Delta+1) runs until quiescence on the dict or "
        "flat PerturbableNetwork backend.  Every trace is replay-audited by "
        "the RecoveryOracle and the containment auditor before its row is "
        "written; rows carry rounds-to-recovery, recolored-vertex counts "
        "and the containment radius, and the two backends must agree "
        "fingerprint-for-fingerprint on every instance."
    ),
    build_tasks=_build_dynamic,
    defaults={
        "families": ("planar", "regular", "forest-union"),
        "n": 90,
        "faults": ("corrupt", "reset", "edge-churn", "message"),
        "protocols": ("min-plus-one", "stabilizing-greedy"),
        "backends": ("dict", "flat"),
        "events": 8,
        "window": 3,
        "max_rounds": 400,
    },
    smoke_overrides={
        "n": 36,
        "faults": ("corrupt", "edge-churn"),
        "protocols": ("min-plus-one",),
        "events": 3,
        "window": 2,
        "max_rounds": 200,
    },
    floors={"n": 5, "window": 1, "max_rounds": 1},
    reference={
        "recovery": "every run re-establishes a legal coloring and quiesces",
        "containment": "recolors stay inside the perturbations' causal cones",
        "parity": "identical traces on the dict and flat backends",
    },
    size_param="n",
    finalize=_finalize_dynamic,
))


# ---------------------------------------------------------------------------
# E19 — randomized (Moser–Tardos lists + O(log n) randomized Δ+1)
# ---------------------------------------------------------------------------

def _build_randomized(params: Params) -> list[BatchTask]:
    built = []
    for family in params["families"]:
        for n in params["sizes"]:
            instance = f"{family} n={n}"
            # seed_group = instance: the deterministic comparators draw
            # the randomized row's derived seed, so they color the
            # identical graph
            built.append(BatchTask(
                instance, "randomized Delta+1 [batch]",
                tasks.randomized_delta_plus_one,
                args=(family, n),
                seed_group=instance,
            ))
            for deterministic in params["deterministic"]:
                built.append(BatchTask(
                    instance, f"{deterministic} Delta+1 [batch]",
                    tasks.deterministic_delta_plus_one,
                    args=(family, n, deterministic),
                    seed_group=instance,
                ))
        for n in params["mt_sizes"]:
            instance = f"{family} lists n={n}"
            built.append(BatchTask(
                instance, "Moser-Tardos lists [flat]",
                tasks.moser_tardos_lists,
                args=(family, n),
                seed_group=instance,
            ))
    return built


def _check_randomized(runner: ExperimentRunner, params: Params) -> list[str]:
    return [
        f"{row.instance} / {row.algorithm}: uncolored frontier grew"
        for row in runner.rows
        if not row.metrics.get("frontier_monotone", True)
    ]


def _finalize_randomized(runner: ExperimentRunner, params: Params) -> None:
    randomized_rounds = [
        row.metrics["rounds"]
        for row in runner.rows
        if row.algorithm.startswith("randomized") and "rounds" in row.metrics
    ]
    if randomized_rounds:
        runner.metadata["randomized_rounds_max"] = max(randomized_rounds)
    resamples = [
        row.metrics["resamples"]
        for row in runner.rows
        if "resamples" in row.metrics
    ]
    if resamples:
        runner.metadata["moser_tardos_resamples_max"] = max(resamples)
    runner.metadata["rng"] = "philox4x64 keyed by (seed, node_id, round)"


register(Scenario(
    name="randomized",
    title="E19 randomized track — Moser-Tardos lists + O(log n) randomized Delta+1",
    paper_ref=(
        "PAPERS.md: A local lemma via entropy compression "
        "(Alves-Procacci-Sanchis); randomized counterpart to Theorem 1.3"
    ),
    description=(
        "The randomized counterpart to the deterministic pipeline, on the "
        "fused engine: the trial-color + conflict-retreat "
        "randomized (Delta+1)-coloring against "
        "the deterministic greedy and Linial baselines on the same "
        "generated graphs, plus the Moser-Tardos entropy-compression "
        "resampler for list coloring.  All "
        "randomness is counter-based (Philox keyed by seed, node id and "
        "round), so a run replays bit for bit from its seed: "
        "the RandomizedRoundsOracle holds round totals inside the O(log n) "
        "concentration envelope, and every Moser-Tardos row replays its "
        "record log through the ResampleLogOracle before it is written."
    ),
    build_tasks=_build_randomized,
    defaults={
        "families": ("regular", "forest-union", "planar"),
        "sizes": (400, 1600),
        "mt_sizes": (300, 900),
        "deterministic": ("greedy", "linial"),
    },
    smoke_overrides={
        "families": ("regular",),
        "sizes": (120,),
        "mt_sizes": (90,),
        "deterministic": ("greedy",),
    },
    floors={"sizes": 5, "mt_sizes": 5},
    reference={
        "rounds": "randomized Delta+1 finishes in O(log n) rounds whp",
        "witness": "every resample log replays bit-for-bit from its seed",
    },
    size_param="sizes",
    finalize=_finalize_randomized,
    check=_check_randomized,
))


# ---------------------------------------------------------------------------
# Campaigns: named scenario sets for `python -m repro campaign`
# ---------------------------------------------------------------------------

from repro.scenarios.registry import scenario_names  # noqa: E402

CAMPAIGNS: dict[str, list[str]] = {
    "all": scenario_names(),
    "upperbounds": [
        "theorem13-colors", "theorem13-rounds", "corollary14-arboricity",
        "corollary21-brooks", "corollary23-planar", "corollary211-genus",
        "lemma31-happy-fraction", "lemma32-extension",
    ],
    "lowerbounds": ["lowerbound-fisk", "lowerbound-grids"],
    "perf": ["primitives", "simulator", "coloring"],
    "robustness": ["dynamic"],
}
