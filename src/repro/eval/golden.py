"""Golden reference artifacts per task: testbench, mutants, verdicts.

AutoEval's Eval2 needs, per task: the golden testbench (used as the
report oracle) and ten mutant DUTs.  Both are deterministic per task and
cached process-wide — every method, seed and criterion evaluates against
the same reference artifacts, exactly like the paper's fixed dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..codegen import render_checker_core, render_driver
from ..core.artifacts import HybridTestbench
from ..core.checker_runtime import run_checker
from ..core.simulation import dut_compiles, run_driver, run_mutant_sweep
from ..mutation import Mutant, generate_mutants
from ..problems.dataset import get_task
from ..problems.model import TaskSpec

N_MUTANTS = 10


def hybrid_verdict(tb: HybridTestbench, dut_src: str,
                   task: TaskSpec) -> bool | None:
    """The report of a hybrid testbench on a DUT.

    ``True`` = Passed, ``False`` = Failed, ``None`` = the testbench could
    not produce a report (driver or checker crashed).
    """
    run = run_driver(tb.driver_src, dut_src)
    if not run.ok:
        return None
    report = run_checker(tb.checker_src, task.ports, run.records)
    if not report.ok:
        return None
    return report.all_passed


def hybrid_verdicts_batch(tb: HybridTestbench, dut_srcs,
                          task: TaskSpec) -> list[bool | None]:
    """Batched :func:`hybrid_verdict`: one driver, many DUT variants.

    Routed through :func:`run_mutant_sweep`, so under the default
    lockstep strategy the whole batch executes as one union simulation
    (AutoEval's mutant sweep runs the same testbench against 10 mutants
    of one golden RTL); the per-mutant path's worker count is the
    active :class:`~repro.hdl.SimContext`'s ``jobs``.
    """
    sweep = run_mutant_sweep(tb.driver_src, list(dut_srcs))
    verdicts: list[bool | None] = []
    for run in sweep.runs:
        if not run.ok:
            verdicts.append(None)
            continue
        report = run_checker(tb.checker_src, task.ports, run.records)
        verdicts.append(report.all_passed if report.ok else None)
    return verdicts


@dataclass(frozen=True)
class GoldenArtifacts:
    task_id: str
    testbench: HybridTestbench
    mutants: tuple[Mutant, ...]
    mutant_verdicts: tuple[bool, ...]  # golden TB's report per mutant

    @property
    def killed_mutants(self) -> int:
        return sum(1 for verdict in self.mutant_verdicts if not verdict)


@lru_cache(maxsize=512)
def golden_artifacts(task_id: str) -> GoldenArtifacts:
    """Build (and cache) the golden testbench + mutants for a task."""
    task = get_task(task_id)
    plan = task.canonical_scenarios()
    testbench = HybridTestbench(
        task_id=task.task_id,
        driver_src=render_driver(task, plan),
        checker_src=render_checker_core(task),
        scenarios=tuple((s.index, s.description) for s in plan),
        origin="golden")

    mutants = tuple(generate_mutants(
        task.golden_rtl(), N_MUTANTS, task.task_id,
        compile_check=lambda source: dut_compiles(source)[0]))

    raw = hybrid_verdicts_batch(testbench,
                                [mutant.source for mutant in mutants],
                                task)
    # The golden TB is known-runnable; a crash can only come from a
    # pathological mutant (e.g. a combinational loop) — call it Failed.
    verdicts = [bool(verdict) if verdict is not None else False
                for verdict in raw]
    return GoldenArtifacts(task.task_id, testbench, mutants,
                           tuple(verdicts))
