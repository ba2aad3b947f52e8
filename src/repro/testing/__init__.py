"""Fault-injection and chaos-testing utilities for the serving stack.

This package is the adversary the resilience features are tested
against.  :mod:`repro.testing.faults` provides the individual fault
injectors — a deterministic seeded :class:`~repro.testing.faults.FaultPlan`,
a chaos TCP proxy that can sever/delay/garble/blackhole live
connections, a :class:`~repro.testing.faults.FlakyService` that raises
injected exceptions inside kernel calls (and therefore inside
MicroBatcher flushes), and a kill-the-process-mid-save driver for
crash-safety checks.  :mod:`repro.testing.chaos` composes them into the
end-to-end chaos soak: a live server plus load generator under a
scheduled fault sequence, gated on *zero wrong answers* and bounded
recovery time.  :mod:`repro.testing.smoke` holds the named CI gates
behind ``repro-reach smoke``.

Everything here is dependency-free stdlib and safe to import in
production code paths (nothing is injected unless explicitly armed).
"""

from repro.testing.faults import (
    ChaosProxy,
    FaultEvent,
    FaultPlan,
    FlakyService,
    run_kill_during_save,
)

__all__ = [
    "ChaosProxy",
    "FaultEvent",
    "FaultPlan",
    "FlakyService",
    "run_kill_during_save",
]
