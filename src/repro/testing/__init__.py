"""Test-support utilities shared by the suite, benchmarks and experiments.

:mod:`repro.testing.invariants` holds the machine-checked protocol
invariants (eventual delivery, repair containment, no duplicate delivery,
determinism-under-fixed-seed, no cyclic garbage).  This package also
centralizes knobs the CI environment tunes, like the hypothesis example
budget.
"""

from __future__ import annotations

import os

from repro.testing.invariants import (
    REPAIR_KINDS,
    RepairContainment,
    TraceRecorder,
    assert_eventual_delivery,
    assert_failover_within,
    assert_no_duplicate_delivery,
    assert_no_duplicate_injection,
    assert_recovery_within,
    assert_replay_identical,
    assert_single_zcr_per_zone,
    connected_receivers,
    cyclic_garbage_after,
    duplicate_injections,
    failover_latencies,
    heal_deadline,
    incomplete_receivers,
    zcr_views,
)

__all__ = [
    "REPAIR_KINDS",
    "RepairContainment",
    "TraceRecorder",
    "assert_eventual_delivery",
    "assert_failover_within",
    "assert_no_duplicate_delivery",
    "assert_no_duplicate_injection",
    "assert_recovery_within",
    "assert_replay_identical",
    "assert_single_zcr_per_zone",
    "connected_receivers",
    "cyclic_garbage_after",
    "duplicate_injections",
    "failover_latencies",
    "heal_deadline",
    "incomplete_receivers",
    "property_max_examples",
    "zcr_views",
]


def property_max_examples(default: int) -> int:
    """Hypothesis example budget for the property-test files.

    Local runs keep the small ``default`` so the tier-1 suite stays fast;
    the CI hypothesis job exports ``SHARQFEC_PROP_EXAMPLES`` to search much
    harder on the same seeded corpus.
    """
    return int(os.environ.get("SHARQFEC_PROP_EXAMPLES", str(default)))
