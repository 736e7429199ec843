"""Hybrid packet/flow fidelity engine (see docs/HYBRID.md).

Packet fidelity for the control plane (NACK/repair/session/election,
faults, churn), analytical flow fidelity for steady-state bulk data, and
a pre-converged, wake-on-disturbance session plane.  Selected per run by
``RunSpec(fidelity="hybrid")``.
"""

from repro.hybrid.flow import FlowDataEngine
from repro.hybrid.protocol import HybridSharqfecProtocol
from repro.hybrid.seed import (
    SeedPlan,
    apply_seed_plan,
    build_seed_plan,
    seed_converged_state,
)

__all__ = [
    "FlowDataEngine",
    "HybridSharqfecProtocol",
    "SeedPlan",
    "apply_seed_plan",
    "build_seed_plan",
    "seed_converged_state",
]
