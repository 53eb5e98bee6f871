"""Declarative fault plans: perturbation schedules keyed by round.

A :class:`FaultPlan` is an immutable, serializable list of
:class:`FaultEvent` records — *what* goes wrong and *when*, decided
before the run starts.  The engine (:mod:`repro.faults.engine`) applies
each round's events between the receive phase of the previous round and
the send phase of the current one, and logs what it actually did
(events can be inapplicable by the time they fire, e.g. deleting an
edge a previous event already removed — those are logged as skipped,
never silently dropped).

Plans are built either explicitly (tests) or through
:meth:`FaultPlan.random`, which derives every choice from a
``random.Random(seed)`` over the *initial* topology — the same seed on
the same graph always yields the same plan, which is what the
determinism property tests pin down (same seed ⇒ bit-identical event
logs and final colorings across backends and repeated runs).

Supported event kinds (:data:`FAULT_KINDS`):

``edge-insert`` / ``edge-delete``
    Topology churn: the edge ``(u, v)`` appears/disappears before the
    round's sends.  Port numberings renumber accordingly.
``corrupt-color``
    Byzantine-style state corruption: vertex ``v``'s color register is
    overwritten with ``value`` (possibly 0 or out of palette).
``node-reset``
    Crash-recover: vertex ``v`` reboots into its initial protocol state
    (color 0, nothing learned).
``message-drop`` / ``message-duplicate``
    Channel faults on one directed edge slot ``u -> v`` for one round:
    the message is lost, or re-delivered (stale) in the following round
    on top of the fresh one.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import GraphError
from repro.faults.edgeset import EdgeSet
from repro.graphs.frozen import GraphLike, freeze
from repro.graphs.graph import Vertex

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "event_log_digest",
    "palette_bound",
]

FAULT_KINDS = (
    "edge-insert",
    "edge-delete",
    "corrupt-color",
    "node-reset",
    "message-drop",
    "message-duplicate",
)

_NODE_KINDS = ("corrupt-color", "node-reset")
_MESSAGE_KINDS = ("message-drop", "message-duplicate")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled perturbation.

    ``vertices`` is ``(u, v)`` for edge and message events (message
    events are *directed*: the message travelling ``u -> v``) and
    ``(v,)`` for node events; ``value`` carries the injected color of a
    ``corrupt-color`` event and is ``None`` otherwise.
    """

    round: int
    kind: str
    vertices: tuple[Vertex, ...]
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        expected = 1 if self.kind in _NODE_KINDS else 2
        if len(self.vertices) != expected:
            raise ValueError(
                f"{self.kind} events take {expected} vertex(es), "
                f"got {self.vertices!r}"
            )
        if self.round < 1:
            raise ValueError(f"event rounds start at 1, got {self.round}")
        if self.kind == "corrupt-color":
            # color registers are int64 on both backends, and min+1 packs
            # ``color * 2 + dirty`` into one: values must stay below 2**62
            if self.value is None or not 0 <= int(self.value) < 2**62:
                raise ValueError(
                    "corrupt-color events need a value in [0, 2**62), "
                    f"got {self.value!r}"
                )

    def key(self) -> tuple:
        """Canonical tuple used by digests and the determinism tests."""
        return (self.round, self.kind, tuple(map(repr, self.vertices)), self.value)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of :class:`FaultEvent` records.

    Events are stored sorted by ``(round, kind, vertices)`` so two plans
    with the same content compare (and digest) equal regardless of
    construction order.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int | None = None
    _by_round: dict[int, list[FaultEvent]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=FaultEvent.key))
        object.__setattr__(self, "events", ordered)
        by_round: dict[int, list[FaultEvent]] = {}
        for event in ordered:
            by_round.setdefault(event.round, []).append(event)
        object.__setattr__(self, "_by_round", by_round)

    def events_for(self, round_number: int) -> list[FaultEvent]:
        return self._by_round.get(round_number, [])

    def last_round(self) -> int:
        """Round of the final scheduled event (0 for an empty plan)."""
        return max(self._by_round, default=0)

    def kinds(self) -> tuple[str, ...]:
        return tuple(sorted({event.kind for event in self.events}))

    def inserted_edges(self) -> list[tuple[Vertex, Vertex]]:
        return [e.vertices for e in self.events if e.kind == "edge-insert"]

    def digest(self) -> str:
        payload = json.dumps(
            [list(event.key()) for event in self.events], separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        graph: GraphLike,
        *,
        seed: int,
        kinds: Sequence[str] = FAULT_KINDS,
        events: int = 4,
        start_round: int = 2,
        window: int = 12,
        palette: int | None = None,
    ) -> "FaultPlan":
        """A deterministic random plan over ``graph``'s initial topology.

        ``events`` perturbations land on rounds drawn from
        ``[start_round, start_round + window)``; kinds cycle through a
        shuffled ``kinds`` sequence so every requested kind appears when
        ``events >= len(kinds)``.  Edge choices track the plan's own
        projected edits (an edge deleted earlier can be re-inserted
        later but not deleted twice).  ``palette`` bounds the injected
        corrupt colors (default: initial max degree + 2, so plans can
        inject both in-palette and out-of-palette garbage).
        """
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        if events < 0 or window < 1 or start_round < 1:
            raise ValueError("events >= 0, window >= 1, start_round >= 1 required")
        if events and not kinds:
            # the kind schedule below would never fill up
            raise ValueError("a plan with events needs at least one fault kind")
        rng = random.Random(seed)
        frozen = freeze(graph)
        vertices = frozen.vertices()
        if not vertices:
            raise GraphError("cannot plan faults on an empty graph")
        if palette is None:
            palette = frozen.max_degree() + 2
        # the plan's projection of the edge set as its own edits apply
        edges = EdgeSet.from_csr(*frozen.csr_arrays())
        rounds = sorted(
            rng.randrange(start_round, start_round + window) for _ in range(events)
        )
        schedule: list[str] = []
        while len(schedule) < events:
            batch = list(kinds)
            rng.shuffle(batch)
            schedule.extend(batch)
        out: list[FaultEvent] = []
        for event_round, kind in zip(rounds, schedule[:events]):
            built = cls._random_event(
                rng, kind, event_round, vertices, edges, palette
            )
            if built is not None:
                out.append(built)
        return cls(events=tuple(out), seed=seed)

    @staticmethod
    def _random_event(
        rng: random.Random,
        kind: str,
        event_round: int,
        vertices: list,
        edges: EdgeSet,
        palette: int,
    ) -> FaultEvent | None:
        n = len(vertices)
        if kind == "edge-insert":
            for _ in range(64):  # rejection-sample a non-edge
                i, j = rng.randrange(n), rng.randrange(n)
                if edges.insert(i, j):
                    return FaultEvent(event_round, kind, (vertices[i], vertices[j]))
            return None  # dense graph: no non-edge found, drop the event
        if kind == "edge-delete":
            if not edges:
                return None
            i, j = edges.edge(rng.randrange(len(edges)))
            edges.delete(i, j)
            return FaultEvent(event_round, kind, (vertices[i], vertices[j]))
        if kind in _MESSAGE_KINDS:
            if not edges:
                return None
            i, j = edges.edge(rng.randrange(len(edges)))
            if rng.random() < 0.5:
                i, j = j, i  # message direction
            return FaultEvent(event_round, kind, (vertices[i], vertices[j]))
        v = vertices[rng.randrange(n)]
        if kind == "corrupt-color":
            return FaultEvent(
                event_round, kind, (v,), value=rng.randrange(0, palette + 2)
            )
        return FaultEvent(event_round, kind, (v,))


def palette_bound(graph: GraphLike, plan: FaultPlan) -> int:
    """A palette size valid at every point of the dynamic run.

    Max degree of the *union* topology (initial edges plus every edge
    the plan may insert) plus one — an upper bound on Δ(G_t) + 1 for
    every round t, hence a palette within which the stabilizing
    protocols always find a free color.  Deterministic in (graph, plan),
    so both backends derive the same budget.
    """
    degrees: dict[Vertex, int] = {v: graph.degree(v) for v in graph.vertices()}
    seen: set[tuple] = set()
    for u, v in plan.inserted_edges():
        key = tuple(sorted((repr(u), repr(v))))
        if key in seen or (u in degrees and graph.has_edge(u, v)):
            continue
        seen.add(key)
        if u in degrees:
            degrees[u] += 1
        if v in degrees:
            degrees[v] += 1
    return max(degrees.values(), default=1) + 1


def event_log_digest(log: Iterable[Any]) -> str:
    """Order-sensitive sha256 over an applied-event log.

    Accepts :class:`~repro.faults.engine.AppliedFault` records (or
    anything exposing ``round``/``kind``/``vertices``/``value``/
    ``applied``) and is the quantity the dict/flat parity and
    determinism tests compare bit-for-bit.
    """
    rows = [
        [
            entry.round,
            entry.kind,
            [repr(v) for v in entry.vertices],
            entry.value,
            bool(entry.applied),
        ]
        for entry in log
    ]
    payload = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
