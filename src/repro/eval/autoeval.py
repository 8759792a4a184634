"""AutoEval: the paper's three-level testbench evaluation (Table II).

=======  ==========================================================
Failed   codes have syntax errors
Eval0    codes have no syntax error
Eval1    Eval0 + the report with the golden RTL as DUT is "Passed"
Eval2    Eval1 + the report agrees with the golden testbench's on at
         least 80% of the mutant DUTs
=======  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from ..core.artifacts import HybridTestbench, MonolithicTestbench
from ..core.checker_runtime import checker_compiles
from ..core.simulation import run_monolithic, run_mutant_sweep, syntax_ok
from ..problems.dataset import get_task
from .golden import (GoldenArtifacts, golden_artifacts, hybrid_verdict,
                     hybrid_verdicts_batch)

EVAL2_AGREEMENT = 0.80


class EvalLevel(IntEnum):
    FAILED = 0
    EVAL0 = 1
    EVAL1 = 2
    EVAL2 = 3

    @property
    def label(self) -> str:
        return {0: "Failed", 1: "Eval0", 2: "Eval1", 3: "Eval2"}[self]


@dataclass(frozen=True)
class EvalResult:
    level: EvalLevel
    detail: str = ""
    agreement: float | None = None  # mutant-report agreement (Eval2 stage)

    def passes(self, level: EvalLevel) -> bool:
        return self.level >= level


def evaluate_hybrid(tb: HybridTestbench,
                    golden: GoldenArtifacts | None = None) -> EvalResult:
    """Grade a hybrid testbench.

    The mutant sweep runs through :func:`run_mutant_sweep` (lockstep by
    default).  On the per-mutant path, an active
    :class:`~repro.hdl.SimContext` with ``jobs`` above 1 fans the sweep
    across the persistent worker pool.
    """
    task = get_task(tb.task_id)
    golden = golden or golden_artifacts(tb.task_id)

    if not syntax_ok(tb.driver_src):
        return EvalResult(EvalLevel.FAILED, "driver has syntax errors")
    if not checker_compiles(tb.checker_src):
        return EvalResult(EvalLevel.FAILED, "checker has syntax errors")

    verdict = hybrid_verdict(tb, task.golden_rtl(), task)
    if verdict is None:
        return EvalResult(EvalLevel.EVAL0,
                          "testbench crashed on the golden DUT")
    if verdict is not True:
        return EvalResult(EvalLevel.EVAL0,
                          "golden DUT reported Failed")

    if golden.mutants:
        verdicts = hybrid_verdicts_batch(
            tb, [mutant.source for mutant in golden.mutants], task)
    else:
        verdicts = []
    agreement = _mutant_agreement(verdicts, golden)
    if agreement >= EVAL2_AGREEMENT:
        return EvalResult(EvalLevel.EVAL2, agreement=agreement)
    return EvalResult(EvalLevel.EVAL1,
                      f"mutant agreement {agreement:.0%}",
                      agreement=agreement)


def evaluate_monolithic(tb: MonolithicTestbench,
                        golden: GoldenArtifacts | None = None) -> EvalResult:
    task = get_task(tb.task_id)
    golden = golden or golden_artifacts(tb.task_id)

    if not syntax_ok(tb.source):
        return EvalResult(EvalLevel.FAILED, "testbench has syntax errors")

    run = run_monolithic(tb.source, task.golden_rtl())
    if run.status != "ok" or run.verdict is not True:
        return EvalResult(EvalLevel.EVAL0,
                          run.detail or "golden DUT reported Failed")

    if golden.mutants:
        sweep = run_mutant_sweep(
            tb.source, [mutant.source for mutant in golden.mutants],
            kind="monolithic")
        verdicts = [result.verdict if result.status == "ok" else None
                    for result in sweep.runs]
    else:
        verdicts = []
    agreement = _mutant_agreement(verdicts, golden)
    if agreement >= EVAL2_AGREEMENT:
        return EvalResult(EvalLevel.EVAL2, agreement=agreement)
    return EvalResult(EvalLevel.EVAL1,
                      f"mutant agreement {agreement:.0%}",
                      agreement=agreement)


def evaluate(tb, golden: GoldenArtifacts | None = None) -> EvalResult:
    """Evaluate either artifact type."""
    if isinstance(tb, HybridTestbench):
        return evaluate_hybrid(tb, golden)
    if isinstance(tb, MonolithicTestbench):
        return evaluate_monolithic(tb, golden)
    raise TypeError(f"cannot evaluate {type(tb).__name__}")


def _mutant_agreement(verdicts, golden: GoldenArtifacts) -> float:
    """Fraction of mutants where the TB's report matches the golden TB's.

    ``verdicts`` are the candidate testbench's per-mutant reports (from a
    batched run), aligned with ``golden.mutant_verdicts``.
    """
    if not golden.mutants:
        return 1.0
    agree = 0
    for verdict, reference in zip(verdicts, golden.mutant_verdicts):
        if verdict is not None and verdict == reference:
            agree += 1
    return agree / len(golden.mutants)
