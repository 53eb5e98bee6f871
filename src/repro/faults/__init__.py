"""Fault injection and dynamic-topology support for the LOCAL simulator.

The static pipeline assumes a pristine network: fixed topology, honest
node state, lossless synchronous delivery.  This package is the fault
plane that relaxes all three, so the self-stabilizing protocols of
:mod:`repro.distributed.stabilizing` can be measured on their actual
job — recovering a legal coloring after a perturbation:

* :mod:`repro.faults.plan` — a declarative, deterministically seeded
  :class:`~repro.faults.plan.FaultPlan`: perturbation events keyed by
  round (edge insertions/deletions, corrupted colors, node resets,
  message drops/duplications on chosen edge slots);
* :mod:`repro.faults.edgeset` — :class:`~repro.faults.edgeset.EdgeSet`,
  the sorted array of packed vertex-index keys that holds a dynamic
  edge set;
* :mod:`repro.faults.network` — :class:`~repro.faults.network.
  PerturbableNetwork`, the mutable-topology adapter over
  :class:`~repro.local.network.Network` that edits an edge set between
  rounds and rebuilds the routing fabric from it (dict and flat
  backends, with parity);
* :mod:`repro.faults.engine` — :func:`~repro.faults.engine.
  run_stabilizing`, which runs a stabilizing protocol to quiescence on
  the simulator's own round loops
  (:class:`~repro.local.simulator.SynchronousSimulator`), with the fault
  plane attached as round hooks that apply the plan and record a
  replayable :class:`~repro.faults.engine.StabilizationTrace` for the
  recovery oracles of :mod:`repro.verify.recovery`.
"""

from repro.faults.engine import (
    AppliedFault,
    RoundRecord,
    StabilizationTrace,
    run_stabilizing,
)
from repro.faults.edgeset import EdgeSet
from repro.faults.network import PerturbableNetwork
from repro.faults.plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    event_log_digest,
    palette_bound,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "event_log_digest",
    "palette_bound",
    "EdgeSet",
    "PerturbableNetwork",
    "AppliedFault",
    "RoundRecord",
    "StabilizationTrace",
    "run_stabilizing",
]
