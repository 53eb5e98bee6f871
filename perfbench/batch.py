"""The four in-process workloads: Theorem 1.3, the torus, the wave, fault recovery.

Each workload is a set-up function ((derived seed, index) -> one input) and
a solve function (input -> :class:`Outcome`).  The solve function is the timed part:
it calls the library's public entry points on the generated input and checks
every output with the repository's own oracles.  The library is always
reached through module attributes (``sparse_coloring.color_sparse_graph``,
never a name bound at import time), so the traced run's wrappers see the
calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import faults
from repro.coloring import assignment, greedy
from repro.core import extension, sparse_coloring
from repro.distributed import greedy_baseline, randomized, stabilizing, wave
from repro.graphs import frozen
from repro.graphs.generators import planar, sparse, streaming
from repro.local import network, simulator
from repro.verify import coloring as coloring_oracles
from repro.verify import recovery

__all__ = ["Outcome", "BatchWorkload", "WORKLOADS"]


@dataclass
class Outcome:
    """What one job produced, before the digests are taken."""

    rounds: int
    messages: int
    #: name -> coloring (or any mapping) to digest after the timed region
    colorings: dict[str, Any]
    problems: list[str] = field(default_factory=list)
    #: extra digests computed by the job itself (e.g. a fault-event log)
    digests: dict[str, str] = field(default_factory=dict)

    def check(self, verdict) -> None:
        if not verdict.ok:
            self.problems.append(f"{verdict.oracle}: {verdict.diagnostics[:3]}")


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    #: set-ups per run: set-up time is their median
    setups: int
    #: one pass solves inputs 0..pass_jobs-1 once; the first pass always runs
    #: in full and gives rounds, messages and colors, so those depend on the
    #: seed only
    pass_jobs: int
    #: (derived seed, input index) -> input
    setup: Callable[[int, int], Any]
    solve: Callable[[Any], Outcome]


class MessageTap:
    """Sums the messages of the Linial stable-partition runs of Theorem 1.3.

    Theorem 1.3 charges rounds to a ledger; the only part that exchanges
    simulated messages is the stable partition, whose result carries the
    count.  The tap reads it off the return value — no timer, a handful of
    calls per solve.
    """

    def __init__(self) -> None:
        self.messages = 0
        self._original = None

    def __enter__(self) -> "MessageTap":
        original = self._original = extension.delta_plus_one_coloring

        def tapped(*args, **kwargs):
            result = original(*args, **kwargs)
            self.messages += result.messages
            return result

        extension.delta_plus_one_coloring = tapped
        return self

    def __exit__(self, *exc) -> None:
        extension.delta_plus_one_coloring = self._original


# ---------------------------------------------------------------------------
# thm13-sparse
# ---------------------------------------------------------------------------

THM13_N = 10_000
THM13_D = 4


def _thm13_setup(seed: int, index: int) -> dict:
    graph = sparse.random_degenerate_graph(THM13_N, 2, seed=seed).freeze()
    # inputs alternate uniform lists {1..d} and random d-lists from 2d colors
    if index % 2 == 0:
        lists = assignment.uniform_lists(graph, THM13_D)
        palette = THM13_D
    else:
        lists = assignment.random_lists(graph, THM13_D, palette_size=2 * THM13_D, seed=seed)
        palette = 2 * THM13_D
    return {"graph": graph, "lists": lists, "palette": palette}


def _thm13_solve(job: dict) -> Outcome:
    graph, lists = job["graph"], job["lists"]
    with MessageTap() as tap:
        result = sparse_coloring.color_sparse_graph(
            graph, d=THM13_D, lists=lists, backend="flat"
        )
    outcome = Outcome(result.rounds, tap.messages, {"coloring": result.coloring})
    if result.coloring is None:
        outcome.problems.append(f"found a clique {result.clique!r} on a 2-degenerate graph")
        return outcome
    outcome.check(coloring_oracles.ListColoringOracle().check(
        graph=graph, coloring=result.coloring, lists=lists))
    outcome.check(coloring_oracles.PaletteBudgetOracle().check(
        coloring=result.coloring, budget=job["palette"]))
    return outcome


# ---------------------------------------------------------------------------
# torus-1m
# ---------------------------------------------------------------------------

TORUS_SIDE = 1000


def _torus_setup(seed: int, index: int) -> dict:
    graph = streaming.stream_torus(TORUS_SIDE, TORUS_SIDE, shuffle_seed=seed)
    return {"graph": graph, "seed": seed}


def _torus_solve(job: dict) -> Outcome:
    graph = job["graph"]
    net = network.Network(graph)
    net.fabric
    first = greedy_baseline.greedy_distributed_coloring(graph, batched=True, network=net)
    second = randomized.randomized_delta_plus_one_coloring(graph, seed=job["seed"], network=net)
    outcome = Outcome(
        first.rounds + second.rounds,
        first.messages + second.messages,
        {"greedy": first.coloring, "randomized": second.coloring},
    )
    for run in (first, second):
        outcome.check(coloring_oracles.ProperColoringOracle().check(
            graph=graph, coloring=run.coloring))
        outcome.check(coloring_oracles.PaletteBudgetOracle().check(
            coloring=run.coloring, budget=run.palette_size))
    return outcome


# ---------------------------------------------------------------------------
# wave-path
# ---------------------------------------------------------------------------

WAVE_N = 200_000


def _wave_setup(seed: int, index: int) -> dict:
    # a path over seeded labels: the wave runs exactly n rounds whatever the
    # labelling, but the CSR layout (and the memory traffic) follows the seed
    order = np.random.default_rng(seed).permutation(WAVE_N)
    edges = np.stack([order[:-1], order[1:]], axis=1)
    graph = frozen.FrozenGraph.from_edge_array(WAVE_N, edges, name="wave-path")
    roots = np.zeros(WAVE_N, dtype=np.int64)
    roots[order[0]] = 1
    return {"graph": graph, "roots": roots}


def _wave_solve(job: dict) -> Outcome:
    graph = job["graph"]
    net = network.Network(graph)
    net.fabric
    result = simulator.SynchronousSimulator(net).run(
        wave.BatchWaveTwoColoring, inputs=job["roots"], max_rounds=WAVE_N + 2, strict=True
    )
    outcome = Outcome(result.rounds, result.messages_sent, {"coloring": result.outputs})
    if result.rounds != WAVE_N:
        outcome.problems.append(f"wave took {result.rounds} rounds, expected n={WAVE_N}")
    if result.messages_sent != 2 * (WAVE_N - 1):
        outcome.problems.append(
            f"wave sent {result.messages_sent} messages, expected 2(n-1)={2 * (WAVE_N - 1)}"
        )
    outcome.check(coloring_oracles.ProperColoringOracle().check(
        graph=graph, coloring=result.outputs))
    outcome.check(coloring_oracles.PaletteBudgetOracle().check(
        coloring=result.outputs, budget=2))
    return outcome


# ---------------------------------------------------------------------------
# dynamic-planar
# ---------------------------------------------------------------------------

DYNAMIC_N = 10_000
DYNAMIC_EVENTS = 40
DYNAMIC_PROTOCOL = "stabilizing-greedy"


def _dynamic_setup(seed: int, index: int) -> dict:
    graph = planar.stacked_triangulation(DYNAMIC_N, seed=seed).freeze()
    plan = faults.FaultPlan.random(
        graph, seed=seed, kinds=faults.FAULT_KINDS,
        events=DYNAMIC_EVENTS, window=DYNAMIC_EVENTS,
    )
    return {
        "graph": graph,
        "plan": plan,
        "budget": faults.palette_bound(graph, plan),
        "initial": greedy.degeneracy_greedy_coloring(graph),
    }


def _dynamic_solve(job: dict) -> Outcome:
    pnet = faults.PerturbableNetwork(job["graph"], backend="flat")
    _per_node, batched = stabilizing.STABILIZING_PROTOCOLS[DYNAMIC_PROTOCOL]
    trace = faults.run_stabilizing(
        pnet, batched, plan=job["plan"], budget=job["budget"],
        initial_coloring=job["initial"], max_rounds=400, protocol=DYNAMIC_PROTOCOL,
    )
    outcome = Outcome(
        trace.rounds, trace.messages_sent(), {"coloring": trace.final_coloring},
        digests={"event_log": faults.event_log_digest(trace.event_log())},
    )
    if not trace.quiescent or not trace.records or not trace.records[-1].legal:
        outcome.problems.append("run did not reach a legal quiescent coloring")
    outcome.check(recovery.RecoveryOracle().check(trace=trace))
    outcome.check(recovery.ContainmentOracle().check(trace=trace))
    return outcome


WORKLOADS = {
    w.name: w
    for w in (
        BatchWorkload("thm13-sparse", setups=4, pass_jobs=2,
                      setup=_thm13_setup, solve=_thm13_solve),
        BatchWorkload("torus-1m", setups=3, pass_jobs=1,
                      setup=_torus_setup, solve=_torus_solve),
        BatchWorkload("wave-path", setups=3, pass_jobs=2,
                      setup=_wave_setup, solve=_wave_solve),
        BatchWorkload("dynamic-planar", setups=2, pass_jobs=2,
                      setup=_dynamic_setup, solve=_dynamic_solve),
    )
}
