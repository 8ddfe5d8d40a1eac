"""Outcome classification (Section IV.B.1).

Every experiment lands in exactly one of the paper's five classes:

* **crashed** — the run failed to terminate successfully (trap, bad
  syscall, or the watchdog reaped a fault-induced hang);
* **non_propagated** — the fault never manifested as an error (it never
  triggered, hit a dead/overwritten register, or landed in unused
  instruction-encoding bits);
* **strictly_correct** — the corrupted value propagated into the
  computation, yet the output is bit-wise identical to the error-free
  run (architectural/algorithmic masking);
* **correct** — output differs but satisfies the application's relaxed
  acceptance criterion (PSNR threshold, decimal digits, ...);
* **sdc** — silent data corruption: terminated normally with an output
  outside the acceptable range.
"""

from __future__ import annotations

from enum import Enum

from ..system.process import ProcessState
from ..workloads.quality import Outputs, extract_outputs
from ..workloads.spec import WorkloadSpec


class Outcome(Enum):
    CRASHED = "crashed"
    NON_PROPAGATED = "non_propagated"
    STRICTLY_CORRECT = "strictly_correct"
    CORRECT = "correct"
    SDC = "sdc"

    @property
    def acceptable(self) -> bool:
        """Fig. 6's *Acceptable* class: the union of correct and strictly
        correct results."""
        return self in (Outcome.STRICTLY_CORRECT, Outcome.CORRECT)


OUTCOME_ORDER = (Outcome.CRASHED, Outcome.NON_PROPAGATED,
                 Outcome.STRICTLY_CORRECT, Outcome.CORRECT, Outcome.SDC)


def classify(spec: WorkloadSpec, golden: Outputs, sim, process,
             injector, run_result,
             outputs: Outputs | None = None) -> Outcome:
    """Classify one finished experiment against the golden outputs.
    *outputs*, when given, are the run's already-known outputs (a run
    that rejoined the golden run ends with the golden outputs)."""
    if run_result.status == "limit":
        return Outcome.CRASHED          # hung: reaped by the watchdog
    if process.state == ProcessState.CRASHED:
        return Outcome.CRASHED
    if process.state != ProcessState.EXITED or process.exit_code != 0:
        return Outcome.CRASHED
    if outputs is None:
        outputs = extract_outputs(spec, sim, process)
    if outputs == golden:
        if any(record.propagated for record in injector.records):
            return Outcome.STRICTLY_CORRECT
        return Outcome.NON_PROPAGATED
    if spec.accept(golden, outputs):
        return Outcome.CORRECT
    return Outcome.SDC
