"""One cold campaign in a fresh process (spawned by ``run.py``).

Usage::

    python perfbench/campaign_child.py --setup-only
    python perfbench/campaign_child.py --workload campaign_serial \\
        --seed 0 --trace 0 --work-dir DIR --out RESULT.json

The process prints ``ready <CPU seconds so far>`` once the program is
imported and the dataset loaded (the parent's set-up time), runs the
workload's campaign, and writes a JSON result: wall time, CPU time of
this process and its pool workers, each item's wall and CPU time keyed
by ``method/task/seed``, the digest of the canonically sorted
``TaskRun.to_payload()`` list, and with ``--trace 1`` the per-layer
trace of this process and every pool worker.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.eval import campaign  # noqa: E402
from repro.eval.autoeval import EvalLevel  # noqa: E402
from repro.eval.store import CampaignStore  # noqa: E402
from repro.hdl.context import current_context  # noqa: E402
from repro.problems.dataset import (dataset_slice, load_dataset,  # noqa: E402
                                    tasks_of_kind)
from repro.problems.model import CMB  # noqa: E402

import tracer  # noqa: E402


def campaign_config(workload: str, seed: int) -> campaign.CampaignConfig:
    """The workload's campaign, its tasks in an order drawn from the
    workload ``seed``.  The items themselves (tasks x methods x LLM
    seeds) are the same for every seed, so every run does the same work
    and the outputs have one expected digest; the order moves which pool
    worker runs which item and what its caches already hold."""
    if workload == "campaign_serial":
        # LLM seeds 0 and 1 are the ROADMAP baseline (seed 0 carries its
        # runaway sweeps): 16 tasks x 3 methods x 3 seeds = 144 items.
        tasks = [task.task_id for task in dataset_slice(8, 8, stride=5)]
        seeds = (0, 1, 2)
        jobs = 1
    elif workload == "campaign_parallel":
        tasks = [task.task_id for task in tasks_of_kind(CMB)]
        seeds = (0, 1)
        jobs = 2
    else:
        raise ValueError(f"unknown campaign workload {workload!r}")
    random.Random(f"{workload}:{seed}").shuffle(tasks)
    # Pool workers must be forked to inherit ItemTimer's wrapper (and
    # the tracer's); the start method does not change any TaskRun.
    context = current_context().evolve(start_method="fork")
    return campaign.default_config(tasks, seeds=seeds, n_jobs=jobs,
                                   context=context)


def digest(runs) -> str:
    payloads = sorted((run.to_payload() for run in runs),
                      key=lambda p: (p["method"], p["task_id"], p["seed"]))
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ItemTimer:
    """Times each campaign item where it runs: wall and process CPU.

    Replaces ``repro.eval.campaign._worker`` with a wrapper of the same
    qualified name, so pool items pickle to it and forked workers run
    it.  Items that run in this process are kept in memory; pool
    workers append to a per-process file (and, when tracing, rewrite
    their trace dump) after each item.
    """

    def __init__(self, work_dir: Path, trace: bool):
        self.work_dir = work_dir
        self.trace = trace
        self.pid = os.getpid()
        self.local: dict = {}
        self.fork_counts: dict = {}
        worker = campaign._worker

        def timed_worker(item):
            started = time.perf_counter(), time.process_time()
            run = worker(item)
            elapsed = (time.perf_counter() - started[0],
                       time.process_time() - started[1])
            self.record("/".join(map(str, item[:3])), elapsed)
            return run

        timed_worker.__module__ = worker.__module__
        timed_worker.__qualname__ = worker.__qualname__
        timed_worker.__name__ = worker.__name__
        campaign._worker = timed_worker
        if trace:
            os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.fork_counts = tracer.cache_counts()

    def record(self, key: str, elapsed: tuple) -> None:
        pid = os.getpid()
        if pid == self.pid:
            self.local[key] = elapsed
            return
        with open(self.work_dir / f"items-{pid}.txt", "a") as handle:
            handle.write(f"{key} {elapsed[0]!r} {elapsed[1]!r}\n")
        if self.trace:
            dump = tracer.TRACER.dump()
            dump["caches"] = tracer.count_delta(tracer.cache_counts(),
                                                self.fork_counts)
            tracer.write_json(str(self.work_dir / f"trace-{pid}.json"),
                              dump)

    def item_seconds(self) -> dict:
        times = dict(self.local)
        for path in sorted(self.work_dir.glob("items-*.txt")):
            for line in path.read_text().splitlines():
                key, wall, cpu = line.split()
                times[key] = (float(wall), float(cpu))
        return times

    def worker_traces(self) -> list:
        return [json.loads(path.read_text())
                for path in sorted(self.work_dir.glob("trace-*.json"))]


def cpu_seconds() -> float:
    """User plus system CPU time of this process and of every child it
    has reaped (the pool workers, once the pool is shut down)."""
    return sum(getattr(resource.getrusage(who), field)
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
               for field in ("ru_utime", "ru_stime"))


def store_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    load_dataset()
    print(f"ready {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    config = campaign_config(args.workload, args.seed)
    store = None
    if args.workload == "campaign_parallel":
        store = CampaignStore(work_dir / "store")
    timer = ItemTimer(work_dir, bool(args.trace))
    bindings = {}
    if args.trace:
        bindings = tracer.install()
        tracer.time_pool_waits()
    before = tracer.cache_counts()

    started = time.perf_counter(), cpu_seconds()
    result = campaign.run_campaign(config, store=store)
    wall = time.perf_counter() - started[0]
    campaign.shutdown_sim_pool(wait=True)
    cpu = cpu_seconds() - started[1]

    runs = result.runs
    correctbench = [run for run in runs
                    if run.method == campaign.METHOD_CORRECTBENCH]
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "items": len(runs),
        "item_s": timer.item_seconds(),
        "digest": digest(runs),
        "correctbench_eval2_ratio": (
            sum(1 for run in correctbench if run.level >= EvalLevel.EVAL2)
            / len(correctbench)),
        "tokens_per_item": sum(run.usage.input_tokens
                               + run.usage.output_tokens
                               for run in runs) / len(runs),
    }
    if args.trace:
        trace = tracer.TRACER.dump()
        trace["caches"] = tracer.count_delta(tracer.cache_counts(), before)
        workers = timer.worker_traces()
        for part in workers:
            tracer.merge(trace, part)
            for layer, (hits, lookups) in part["caches"].items():
                trace["caches"][layer][0] += hits
                trace["caches"][layer][1] += lookups
        trace["workers_traced"] = len(workers)
        trace["bindings"] = bindings
        if store is not None:
            trace["counters"]["eval.store.bytes"] = store_bytes(store.root)
        out["trace"] = trace
    tracer.write_json(args.out, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
