"""Spans recorded from outside the library, for the traced benchmark run.

The traced run replaces a layer's public functions, at the attribute where
their callers look them up, with wrappers that record one span per call:
name, start, end, parent span and the job (or set-up) the call belongs to.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts every original
attribute back, so untraced jobs in the same process run the unwrapped code.

A span's *self time* is its duration minus the time its child spans cover.
The root span of a job is the job itself, so its self time is the part of
the job that no layer span covers (``unattributed_s``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

__all__ = ["LAYERS", "COUNTED", "Tracer", "layer_totals"]

#: (module, attribute path, layer) — the attribute is patched on the object
#: the library's callers read it from (a module global or a class member)
LAYERS = (
    ("repro.core.sparse_coloring", "color_sparse_graph", "core.sparse_coloring"),
    ("repro.core.sparse_coloring", "find_clique_of_size", "graphs.properties.cliques"),
    ("repro.core.sparse_coloring", "peel_happy_layers", "core.peeling"),
    ("repro.core.sparse_coloring", "extend_coloring_to_happy_set", "core.extension"),
    ("repro.core.sparse_coloring", "verify_list_coloring", "coloring.verification"),
    ("repro.core.peeling", "classify_vertices", "core.happy"),
    ("repro.core.extension", "ruling_forest", "distributed.ruling"),
    ("repro.core.extension", "delta_plus_one_coloring", "distributed.linial"),
    ("repro.core.extension", "degree_list_coloring", "coloring.borodin_ert"),
    ("repro.graphs.frozen", "FrozenGraph.subgraph", "graphs.frozen.subgraph"),
    ("repro.graphs.frozen", "FrozenGraph.from_graph", "graphs.frozen.from_graph"),
    ("repro.graphs.frozen", "FrozenGraph.from_edge_array", "graphs.frozen.from_edge_array"),
    ("repro.graphs.generators.sparse", "random_degenerate_graph", "graphs.generators"),
    ("repro.graphs.generators.planar", "stacked_triangulation", "graphs.generators"),
    ("repro.graphs.generators.streaming", "stream_torus", "graphs.generators"),
    ("repro.coloring.greedy", "degeneracy_greedy_coloring", "coloring.greedy"),
    ("repro.local.network", "Network.__init__", "local.network.init"),
    ("repro.local.network", "Network.fabric", "local.network.fabric"),
    ("repro.local.simulator", "SynchronousSimulator.run", "local.simulator"),
    ("repro.distributed.greedy_baseline", "greedy_distributed_coloring", "distributed.greedy"),
    ("repro.distributed.randomized", "randomized_delta_plus_one_coloring", "distributed.randomized"),
    ("repro.verify.coloring", "ProperColoringOracle.check", "verify.coloring"),
    ("repro.verify.coloring", "ListColoringOracle.check", "verify.coloring"),
    ("repro.verify.coloring", "PaletteBudgetOracle.check", "verify.coloring"),
    ("repro.faults", "FaultPlan.random", "faults.plan"),
    ("repro.faults", "run_stabilizing", "faults.engine"),
    ("repro.faults", "PerturbableNetwork.network", "faults.network"),
    ("repro.verify.recovery", "RecoveryOracle.check", "verify.recovery"),
    ("repro.verify.recovery", "ContainmentOracle.check", "verify.recovery"),
)

#: calls counted without a span: a per-call timer here would cost more
#: than the call itself, and the count prices exactly that
COUNTED = (("repro.local.ledger", "RoundLedger.charge", "local.ledger.charges"),)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: [id, name, parent id, job, start ns, end ns, attrs]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: id(PerturbableNetwork) -> the Network it last returned
        self._last_network: dict[int, object] = {}
        #: "module:path" of layers the library no longer has (their metrics
        #: read 0); a rename must not crash the traced run
        self.missing: set[str] = set()

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> list:
        span = [len(self.spans), name, self._stack[-1] if self._stack else None,
                self.job, time.perf_counter_ns(), 0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, job: str):
        """A root span for one job or set-up; spans opened inside carry ``job``."""
        self.job = job
        span = self.open("root")
        try:
            yield span
        finally:
            self.close(span)
            self.job = None

    # -- patching -------------------------------------------------------
    def _spanned(self, fn, layer: str):
        tracer = self
        observe = _OBSERVERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if observe is not None:
                observe(tracer, span, args, result)
            return result

        return wrapper

    def _counted(self, fn, metric: str):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(tracer.job, metric)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module: str, path: str, make) -> None:
        try:
            owner, attr = _resolve(module, path)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.add(f"{module}:{path}")
            return
        if isinstance(original, property):
            patched = property(make(original.fget), original.fset, original.fdel)
        elif isinstance(original, classmethod):
            patched = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            patched = staticmethod(make(original.__func__))
        else:
            patched = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, patched)

    def install(self) -> None:
        for module, path, layer in LAYERS:
            self._patch(module, path, lambda fn, layer=layer: self._spanned(fn, layer))
        for module, path, metric in COUNTED:
            self._patch(module, path, lambda fn, metric=metric: self._counted(fn, metric))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export ---------------------------------------------------------
    def records(self):
        """The spans as JSON-ready dicts, in the order they opened."""
        for sid, name, parent, job, start, end, attrs in self.spans:
            record = {"id": sid, "name": name, "parent": parent, "job": job,
                      "start_ns": start, "end_ns": end}
            if attrs:
                record["attrs"] = attrs
            yield record


# -- observers: facts read off a layer's return value ------------------------

def _observe_simulation(tracer, span, args, result) -> None:
    span[6] = {"rounds": result.rounds, "messages": result.messages_sent}


def _observe_stabilizing(tracer, span, args, result) -> None:
    span[6] = {"rounds": result.rounds, "messages": result.messages_sent()}


def _observe_network(tracer, span, args, result) -> None:
    # the property hands back the same Network until an edit forces a rebuild
    pnet = id(args[0])
    if tracer._last_network.get(pnet) is not result:
        tracer._last_network[pnet] = result
        span[1] = "faults.network.rebuild"


_OBSERVERS = {
    "local.simulator": _observe_simulation,
    "faults.engine": _observe_stabilizing,
    "faults.network": _observe_network,
}


def layer_totals(tracer: Tracer) -> dict[str, dict[str, dict]]:
    """Per root (job or set-up): self seconds, calls and attrs per layer."""
    spans = tracer.spans
    covered = defaultdict(int)
    for span in spans:
        if span[2] is not None:
            covered[span[2]] += span[5] - span[4]
    roots: dict[str, dict[str, dict]] = {}
    for sid, name, _parent, job, start, end, attrs in spans:
        per_layer = roots.setdefault(job, {})
        entry = per_layer.setdefault(name, {"s": 0.0, "calls": 0, "attrs": []})
        entry["s"] += (end - start - covered[sid]) / 1e9
        entry["calls"] += 1
        if attrs:
            entry["attrs"].append(attrs)
    for (job, metric), count in tracer.counts.items():
        roots.setdefault(job, {})[metric] = {"s": 0.0, "calls": count, "attrs": []}
    return roots

