#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload campaign_parallel --seed 0 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload

Workloads (``BENCHMARK.json`` records why each was chosen):

``campaign_serial``
    The ROADMAP baseline slice ``dataset_slice(8, 8, stride=5)``, all
    three methods, LLM seeds ``(0, 1, 2)`` (144 items), ``n_jobs=1``, no
    store.  Run by hand only, not listed in ``BENCHMARK.json``: one
    runaway item takes most of its half minute, so a run holds one
    campaign.
``campaign_parallel``
    All 81 CMB tasks x 3 methods x LLM seeds ``(0, 1)`` (486 items),
    ``n_jobs=2``, a fresh ``CampaignStore``.
``service_simulate``
    A ``repro serve`` subprocess sent ``/v1/simulate`` requests over at
    most two connections: open-loop latency windows at a fixed rate,
    each followed by a closed-loop burst that measures the most it
    sustains (see :mod:`loadgen`).

A campaign's workload seed shuffles its task order; its items are the
same for every seed, so its output digest, recorded in
``expected_digests.json`` (``record_digests.py`` rewrites it), is too.
Every campaign runs in a fresh process, because a ``repro campaign``
user always pays the cold cost.

The end-to-end metrics are CPU time and memory of the processes the
benchmark starts: ``setup_s`` (CPU seconds from a fresh process to
ready, median of the run's set-ups), ``cpu_ms_per_item`` (CPU time of
the campaign process and its pool workers per item, or of the server
per request of the latency windows) and ``peak_rss_mb``.  On a shared
virtual machine the hypervisor takes CPU time away from the guest in
spells that last minutes, which moves wall-clock figures far more than
any bound; the wall-clock figures (items per second, per-item and
per-request latency percentiles, saturation rate) are printed in the
report but not bounded.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (tracing off); with ``--trace 1`` they
are the per-layer ones, from a run whose calls into each layer are
timed by :mod:`tracer`, plus ``trace_overhead_ratio`` (CPU time against
an untraced run of the same inputs).  The lines above it are a
human-readable report.  Exit status is 0 only when every output
checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("campaign_serial", "campaign_parallel", "service_simulate")
#: Fresh-process set-ups timed before and again after the measurement
#: (``setup_s`` is their median together with the run's own), so the
#: probes span the run rather than one stretch of host speed.
SETUP_PROBES = 3
#: Per-process deadline; a run must end well inside 180 s.
CHILD_TIMEOUT_S = 170.0
#: A cold campaign's wall on a 2-vCPU host: a run holds
#: ``seconds // CAMPAIGN_S`` campaigns, a count fixed by ``--seconds``
#: rather than by how fast the host happens to be.
CAMPAIGN_S = {"campaign_serial": 30.0, "campaign_parallel": 15.0}

# service_simulate shape
SERVICE_MUTANTS_PER_TASK = 3
SERVICE_UNIQUE_SHARE = 0.5
FIXED_RATE = 40.0          # requests/s of the latency windows
WARMUP_SECONDS = 1.0
WINDOWS = 5                # latency windows, each followed by a burst
BURST_SECONDS = 1.0        # closed-loop burst that measures max_rps
CONNECTIONS = 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [part for part in
                      env.get("PYTHONPATH", "").split(os.pathsep) if part])
    return env


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
# Memory: peak summed PSS of every process the benchmark started
# ----------------------------------------------------------------------
def _descendants(root: int) -> list:
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [root], [root]
    while frontier:
        frontier = [child for pid in frontier
                    for child in children.get(pid, ())]
        tree.extend(frontier)
    return tree


def _pss_kb(pid: int) -> int:
    """Proportional set size: shared pages split among their users, so
    forked workers are not counted twice for the parent's pages."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemory:
    """Samples the summed PSS of this process's descendants (campaign
    process, pool workers, server) every ``period`` seconds."""

    def __init__(self, period: float = 0.25):
        self.period = period
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        # The benchmark process itself is left out: on service_simulate
        # it holds the load generator's request plan.
        total = sum(_pss_kb(pid) for pid in _descendants(os.getpid())[1:])
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    report: list = field(default_factory=list)    # extra report lines

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def _stop(process: subprocess.Popen) -> None:
    """Ask a child to drain (SIGTERM), then make sure it is gone."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def _await_ready(process: subprocess.Popen) -> float:
    """The CPU seconds a campaign child spent getting ready."""
    line = process.stdout.readline()
    if not line.startswith("ready "):
        _stop(process)
        raise RuntimeError(f"child did not start: {line!r}")
    return float(line.split()[1])


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------
CHILD = str(HERE / "campaign_child.py")


def campaign_setup_probe() -> float:
    process = subprocess.Popen([sys.executable, CHILD, "--setup-only"],
                               stdout=subprocess.PIPE, text=True,
                               env=child_env())
    try:
        return _await_ready(process)
    finally:
        process.stdout.close()
        process.wait(timeout=CHILD_TIMEOUT_S)


def run_campaign_child(workload: str, seed: int, trace: bool,
                       work: Path) -> tuple[float, dict | None]:
    """One cold campaign process: ``(setup seconds, result or None)``."""
    work.mkdir(parents=True)
    out = work / "result.json"
    process = subprocess.Popen(
        [sys.executable, CHILD, "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace)),
         "--work-dir", str(work), "--out", str(out)],
        stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        setup = _await_ready(process)
        process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"campaign child overran {CHILD_TIMEOUT_S:g} s",
              file=sys.stderr)
        return setup, None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if process.returncode != 0:
        print(f"campaign child exited with {process.returncode}",
              file=sys.stderr)
        return setup, None
    return setup, json.loads(out.read_text())


def campaign_workload(workload: str, seed: int, seconds: int,
                      trace: bool, work: Path) -> Outcome:
    want = json.loads(
        (HERE / "expected_digests.json").read_text()).get(workload)
    outcome = Outcome()
    outcome.report.append(f"inputs: task order shuffled by seed {seed}; "
                          f"expected digest {(want or 'MISSING')[:16]}")

    def tally(result: dict | None) -> None:
        """Count a campaign's items; all fail on a digest mismatch or
        when not every item was timed."""
        items = result["items"] if result else 1
        outcome.attempted += items
        if result is None:
            outcome.failed += items
        elif result["digest"] != want:
            outcome.failed += items
            outcome.report.append(
                f"OUTPUT MISMATCH: digest {result['digest'][:16]} != "
                f"{(want or 'MISSING')[:16]}")
        elif len(result["item_s"]) != items:
            outcome.failed += items
            outcome.report.append(
                f"ITEMS UNTIMED: {len(result['item_s'])} item times for "
                f"{items} items")

    if trace:
        _, plain = run_campaign_child(workload, seed, False,
                                      work / "untraced")
        _, result = run_campaign_child(workload, seed, True,
                                       work / "traced")
        tally(plain)
        tally(result)
        if plain and result:
            trace_metrics(outcome, workload, result["trace"],
                          overhead=result["cpu_s"] / plain["cpu_s"] - 1)
        return outcome

    setups = [campaign_setup_probe() for _ in range(SETUP_PROBES)]
    results = []
    with TreeMemory() as memory:
        for index in range(max(1, int(seconds // CAMPAIGN_S[workload]))):
            setup, result = run_campaign_child(
                workload, seed, False, work / f"run{index}")
            setups.append(setup)
            results.append(result)
    setups += [campaign_setup_probe() for _ in range(SETUP_PROBES)]
    for result in results:
        tally(result)
    done = [result for result in results if result is not None]
    items = sum(run["items"] for run in done)
    cpu = sum(run["cpu_s"] for run in done)
    wall = sum(run["wall_s"] for run in done)
    outcome.metric("setup_s", statistics.median(setups), "s")
    outcome.metric("cpu_ms_per_item", cpu * 1000.0 / items if items
                   else 0.0, "ms")
    outcome.metric("peak_rss_mb", memory.peak_mb, "MB")
    if done:
        first = done[0]
        item_wall = [times[0] * 1000.0 for run in done
                     for times in run["item_s"].values()]
        item_cpu = [times[1] * 1000.0 for run in done
                    for times in run["item_s"].values()]
        outcome.report.append(
            f"campaigns: {len(done)} cold process(es), {items} items, "
            f"walls {[round(run['wall_s'], 3) for run in done]} s")
        outcome.report.append(
            f"wall-clock (printed, not bounded): items_per_s "
            f"{items / wall:.3f} items/s | item_p50_ms "
            f"{percentile(item_wall, 0.5):.3f} ms | item_p90_ms "
            f"{percentile(item_wall, 0.9):.3f} ms; item CPU p50 "
            f"{percentile(item_cpu, 0.5):.3f} ms, p90 "
            f"{percentile(item_cpu, 0.9):.3f} ms ({len(item_cpu)} items)")
        outcome.report.append(
            f"correctbench_eval2_ratio {first['correctbench_eval2_ratio']:.4f}"
            f" ratio | tokens_per_item {first['tokens_per_item']:.1f} tokens"
            " (both pinned by the output digest)")
    return outcome


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
class ServicePlan:
    """The request population: the canonical driver of each task of a
    fixed CMB+SEQ sample, paired with the golden RTL and with
    ``generate_mutants`` mutants of it.  The seed draws the request
    sequence from this population and picks which requests get a unique
    DUT; the population itself is the same for every seed, so the work
    per request is alike across seeds."""

    def __init__(self, seed: int):
        from repro.codegen import render_driver
        from repro.mutation.engine import generate_mutants
        from repro.problems.dataset import dataset_slice

        self.seed = seed
        self.tasks = dataset_slice(16, 16, stride=4)
        self.pairs: list = []
        for task in self.tasks:
            driver = render_driver(task, task.canonical_scenarios())
            golden = task.golden_rtl()
            mutants = generate_mutants(golden, SERVICE_MUTANTS_PER_TASK,
                                       seed=task.task_id)
            for dut in [golden] + [mutant.source for mutant in mutants]:
                self.pairs.append((driver, dut))
        self.expected = [expected_response(driver, dut)
                         for driver, dut in self.pairs]

    def requests(self, leg: str, count: int) -> list:
        """``count`` requests ``(pair index, DUT text)`` for one leg;
        about half carry a comment no other request has."""
        rng = random.Random(f"service_simulate:{self.seed}:{leg}")
        out = []
        for index in range(count):
            pair = rng.randrange(len(self.pairs))
            dut = self.pairs[pair][1]
            if rng.random() < SERVICE_UNIQUE_SHARE:
                dut = f"{dut}\n// request {leg}/{index}\n"
            out.append((pair, dut))
        return out

    def payloads(self, requests: list) -> list:
        return [json.dumps({"driver": self.pairs[pair][0],
                            "dut": dut}).encode()
                for pair, dut in requests]


def expected_response(driver: str, dut: str) -> dict:
    """What ``/v1/simulate`` must answer: ``run_driver`` on the pair."""
    from repro.core.simulation import run_driver

    run = run_driver(driver, dut)
    return {"status": run.status, "detail": run.detail,
            "records": [{"scenario": record.scenario,
                         "values": record.values} for record in run.records]}


def start_server(trace_out: Path | None) -> tuple:
    """Spawn ``repro serve``; returns ``(process, port, set-up CPU
    seconds)`` once ``/v1/healthz`` answers 200."""
    from loadgen import get_json

    if trace_out is None:
        command = [sys.executable, "-m", "repro.cli", "serve"]
    else:
        command = [sys.executable, str(HERE / "serve_child.py"),
                   str(trace_out)]
    command += ["--host", "127.0.0.1", "--port", "0"]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               env=child_env())
    line = process.stdout.readline()
    match = re.search(r":(\d+) \(", line)
    if match is None:
        _stop(process)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    port = int(match.group(1))
    deadline = time.perf_counter() + 60
    while True:
        try:
            if get_json("127.0.0.1", port, "/v1/healthz")[0] == 200:
                break
        except OSError:
            pass
        if time.perf_counter() > deadline:
            _stop(process)
            raise RuntimeError("repro serve never became healthy")
        time.sleep(0.005)
    return process, port, tree_cpu_seconds(process.pid)


def tree_cpu_seconds(root: int) -> float:
    """CPU time of the live threads of ``root`` and its descendants:
    the scheduler's run time, in nanoseconds, from each thread's
    ``/proc/<pid>/task/<tid>/schedstat``."""
    nanoseconds = 0
    for pid in _descendants(root):
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                    nanoseconds += int(handle.read().split()[0])
            except (OSError, IndexError, ValueError):
                pass
    return nanoseconds / 1e9


def stop_server(process: subprocess.Popen) -> None:
    _stop(process)
    process.stdout.close()


class ServiceRun:
    """One server's legs, with every response kept for checking."""

    def __init__(self, plan: ServicePlan, process: subprocess.Popen,
                 port: int):
        self.plan = plan
        self.pid = process.pid
        self.port = port
        self.sent: list = []   # (requests, leg)

    def leg(self, name: str, rate: float | None, seconds: float):
        """Open loop at ``rate``, or closed loop when ``rate`` is None
        (with enough requests queued for any plausible capacity)."""
        from loadgen import run_leg

        count = round((rate or 1000.0) * seconds)
        requests = self.plan.requests(name, count)
        leg = run_leg("127.0.0.1", self.port, self.plan.payloads(requests),
                      rate, seconds=seconds, connections=CONNECTIONS)
        self.sent.append((requests, leg))
        return leg

    def measure(self, seconds: float) -> "Measurement":
        """A warm-up, then :data:`WINDOWS` open-loop latency windows
        alternating with closed-loop bursts, all within ``seconds``, so
        both kinds of sample span the whole run."""
        self.leg("warmup", FIXED_RATE, WARMUP_SECONDS)
        measurement = Measurement()
        for window in range(WINDOWS):
            cpu = tree_cpu_seconds(self.pid)
            leg = self.leg(f"fixed{window}", FIXED_RATE,
                           window_seconds(seconds))
            measurement.cpu_s += tree_cpu_seconds(self.pid) - cpu
            measurement.windows.append(leg.latency_ms)
            measurement.lag_ms.extend(leg.lag_ms)
            burst = self.leg(f"burst{window}", None, BURST_SECONDS)
            measurement.burst_rates.append(burst.sent / max(burst.done_s))
        return measurement

    def check(self) -> tuple:
        """``(attempted, failed)`` over every request sent."""
        attempted = failed = 0
        for requests, leg in self.sent:
            for (pair, dut), status, body in zip(requests, leg.statuses,
                                                 leg.bodies):
                if not status:
                    continue  # never sent: the closed loop's spare
                attempted += 1
                if status != 200:
                    failed += 1
                    continue
                if dut == self.plan.pairs[pair][1]:
                    want = self.plan.expected[pair]
                else:
                    want = expected_response(self.plan.pairs[pair][0], dut)
                got = json.loads(body)
                if {key: got.get(key) for key in want} != want:
                    failed += 1
        return attempted, failed


@dataclass
class Measurement:
    """A service run's samples: latency per window, rate per burst, and
    the server's CPU time over the windows."""

    windows: list = field(default_factory=list)
    cpu_s: float = 0.0
    burst_rates: list = field(default_factory=list)
    lag_ms: list = field(default_factory=list)

    def latency(self, fraction: float) -> float:
        """Median over windows of each window's percentile."""
        return statistics.median(percentile(window, fraction)
                                 for window in self.windows)

    @property
    def max_rps(self) -> float:
        return statistics.median(self.burst_rates)


def window_seconds(seconds: float) -> float:
    """Length of one latency window when a measurement lasts
    ``seconds``."""
    return max(1.0, (seconds - WARMUP_SECONDS - WINDOWS * BURST_SECONDS)
               / WINDOWS)


def service_status(port: int) -> dict:
    from loadgen import get_json

    body = get_json("127.0.0.1", port, "/v1/status")[1]
    return {"batches": body["batcher"]["batches"],
            "jobs": body["batcher"]["jobs"],
            "rejected_429": body["service"]["rejected_429"]}


def service_workload(seed: int, seconds: float, trace: bool,
                     work: Path) -> Outcome:
    sys.path.insert(0, str(SRC))
    if trace:
        # The untraced and the traced server share the run's time.
        seconds = seconds / 2
    outcome = Outcome()
    plan = ServicePlan(seed)
    per_window = round(FIXED_RATE * window_seconds(seconds))
    fixed = [request for window in range(WINDOWS)
             for request in plan.requests(f"fixed{window}", per_window)]
    unique_share = sum(1 for pair, dut in fixed
                       if dut != plan.pairs[pair][1]) / len(fixed)
    outcome.report.append(
        f"inputs: {len(plan.pairs)} (driver, DUT) pairs from "
        f"{len(plan.tasks)} tasks; unique-DUT share of the latency leg "
        f"{unique_share:.4f}")

    if trace:
        process, port, _ = start_server(None)
        try:
            plain_run = ServiceRun(plan, process, port)
            plain = plain_run.measure(seconds)
        finally:
            stop_server(process)
        trace_out = work / "server-trace.json"
        process, port, _ = start_server(trace_out)
        try:
            before = service_status(port)
            traced_run = ServiceRun(plan, process, port)
            traced = traced_run.measure(seconds)
            after = service_status(port)
        finally:
            stop_server(process)
        for run in (plain_run, traced_run):
            attempted, failed = run.check()
            outcome.attempted += attempted
            outcome.failed += failed
        dump = json.loads(trace_out.read_text())
        batches = after["batches"] - before["batches"]
        dump["service"] = {
            "batches": batches,
            "batch_size_mean": ((after["jobs"] - before["jobs"]) / batches
                                if batches else 0.0),
            "rejected_429": after["rejected_429"] - before["rejected_429"]}
        dump["loadgen"] = {"lag_ms": percentile(traced.lag_ms, 0.99),
                           "unique_share": unique_share}
        trace_metrics(outcome, "service_simulate", dump,
                      overhead=traced.cpu_s / plain.cpu_s - 1)
        return outcome

    def setup_probes() -> list:
        setups = []
        for _ in range(SETUP_PROBES):
            process, _, setup = start_server(None)
            stop_server(process)
            setups.append(setup)
        return setups

    setups = setup_probes()
    with TreeMemory() as memory:
        process, port, setup = start_server(None)
        setups.append(setup)
        try:
            run = ServiceRun(plan, process, port)
            measured = run.measure(seconds)
        finally:
            stop_server(process)
    setups += setup_probes()
    outcome.attempted, outcome.failed = run.check()
    latency = [sample for window in measured.windows for sample in window]
    outcome.metric("setup_s", statistics.median(setups), "s")
    outcome.metric("cpu_ms_per_item", measured.cpu_s * 1000.0 / len(latency),
                   "ms")
    outcome.metric("peak_rss_mb", memory.peak_mb, "MB")
    outcome.report.append(
        f"server CPU {measured.cpu_s:.3f} s for the {len(latency)} requests"
        " of the latency windows")
    outcome.report.append(
        f"wall-clock (printed, not bounded): {WINDOWS} windows of "
        f"{round(FIXED_RATE * window_seconds(seconds))}"
        f" requests at {FIXED_RATE:g} req/s, open loop on {CONNECTIONS} "
        f"connections; pooled req_p50_ms {percentile(latency, 0.5):.3f} "
        f"ms, p90 {percentile(latency, 0.9):.3f} ms, req_p99_ms "
        f"{percentile(latency, 0.99):.3f} ms ({len(latency)} samples, "
        f"{len(latency) // 100} beyond p99); "
        f"generator oversleep p99 {percentile(measured.lag_ms, 0.99):.3f}"
        " ms")
    outcome.report.append(
        f"max_rps {measured.max_rps:.3f} req/s: median of {WINDOWS} "
        f"{BURST_SECONDS:g} s closed-loop bursts on {CONNECTIONS} "
        f"connections {measured.burst_rates}")
    return outcome


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
CACHE_LAYERS = ("tokenize", "parse", "pair", "union", "design", "program",
                "failure")
_FRONT_TO_SIMULATOR = ("core.simulation.driver", "hdl.lexer", "hdl.parser",
                       "hdl.elaborate", "hdl.compile", "hdl.simulator")
_PIPELINE = ("llm", "core.generator", "core.rtl_group", "core.corrector",
             "core.validator", "core.checker_runtime",
             "core.simulation.sweep", "hdl.lockstep",
             "eval.autoeval") + _FRONT_TO_SIMULATOR
#: Layers each workload exercises; a traced run in which one of them
#: records no call fails.
EXERCISED = {
    "campaign_serial": _PIPELINE,
    "campaign_parallel": _PIPELINE + ("eval.store", "eval.campaign"),
    "service_simulate": _FRONT_TO_SIMULATOR,
}


def trace_metrics(outcome: Outcome, workload: str, dump: dict,
                  overhead: float) -> None:
    import tracer

    layers = dump["layers"]
    counters = dump["counters"]

    def calls(layer: str) -> int:
        return layers.get(layer, [0, 0.0])[0]

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    for layer in tracer.LAYERS:
        count, self_s = layers.get(layer, [0, 0.0])
        outcome.metric(f"{layer}.calls", count, "count")
        outcome.metric(f"{layer}.self_s", self_s, "s")
    outcome.metric("llm.tokens", counters["llm.tokens"], "tokens")
    outcome.metric("core.validator.accept_ratio",
                   ratio(counters["core.validator.accepts"],
                         calls("core.validator")), "ratio")
    outcome.metric("core.checker_runtime.crash_ratio",
                   ratio(counters["core.checker_runtime.crashes"],
                         calls("core.checker_runtime")), "ratio")
    for name in ("sweep_lanes", "sweep_fallbacks", "sweep_limit_fallbacks",
                 "sweep_limit_lanes"):
        outcome.metric(f"core.simulation.{name}",
                       counters[f"core.simulation.{name}"], "count")
    outcome.metric("core.simulation.sweep_fallback_or_limit_share",
                   ratio(counters["core.simulation.sweeps_fallback_or_limit"],
                         counters["core.simulation.sweep_hybrid"]), "ratio")
    outcome.metric("eval.store.bytes", counters["eval.store.bytes"], "bytes")
    outcome.metric("eval.campaign.pool_wait_s",
                   counters["eval.campaign.pool_wait_s"], "s")
    outcome.metric("eval.campaign.workers_traced",
                   dump.get("workers_traced", 0), "count")
    for layer in CACHE_LAYERS:
        hits, lookups = dump["caches"][layer]
        outcome.metric(f"caches.{layer}.hit_ratio", ratio(hits, lookups),
                       "ratio")
    service = dump.get("service", {})
    outcome.metric("service.batches", service.get("batches", 0), "count")
    outcome.metric("service.batch_size_mean",
                   service.get("batch_size_mean", 0.0), "jobs")
    outcome.metric("service.rejected_429", service.get("rejected_429", 0),
                   "count")
    loadgen = dump.get("loadgen", {})
    outcome.metric("loadgen.lag_ms", loadgen.get("lag_ms", 0.0), "ms")
    outcome.metric("loadgen.unique_share", loadgen.get("unique_share", 0.0),
                   "ratio")
    outcome.metric("trace_overhead_ratio", overhead, "ratio")

    bindings = dump.get("bindings", {})
    outcome.report.append("wrapped bindings per boundary: " + ", ".join(
        f"{name} x{count}" for name, count in bindings.items()))
    total = sum(self_s for _, self_s in layers.values()) or 1.0
    outcome.report.append("self-time shares: " + ", ".join(
        f"{layer} {layers[layer][1] / total:.3f}"
        for layer in sorted(layers, key=lambda name: -layers[name][1])))
    idle = [layer for layer in tracer.LAYERS if not calls(layer)]
    if idle:
        outcome.report.append("layers with no calls on this workload "
                              "(reported as 0): " + ", ".join(idle))
    missing = [layer for layer in EXERCISED[workload] if not calls(layer)]
    if missing:
        outcome.attempted += len(missing)
        outcome.failed += len(missing)
        outcome.report.append("TRACE INCOMPLETE: no calls recorded in "
                              + ", ".join(missing))
    if "workers_traced" in dump and dump.get("workers_traced", 0) == 0 \
            and calls("eval.campaign") > 1:
        outcome.report.append("pool workers were not traced: worker-side "
                              "layers are missing from this run")


# ----------------------------------------------------------------------
def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    work = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if workload == "service_simulate":
            outcome = service_workload(seed, seconds, trace, work)
        else:
            outcome = campaign_workload(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_out").rmdir()
        except OSError:
            pass
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(f"== {workload} seed={seed} trace={int(trace)}")
    for line in outcome.report:
        print(f"   {line}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"   {name:<44} {value:>16.6f} {unit}")
    print(f"   error_ratio {outcome.failed / max(1, outcome.attempted):.6f}"
          f" ({outcome.failed} of {outcome.attempted} operations failed)")
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()}}))
    sys.stdout.flush()
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are not at {SRC}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    # Every workload in its own fresh process.
    codes = [subprocess.call(
        [sys.executable, __file__, "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)]) for workload in WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
