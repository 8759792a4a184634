"""Persistent simulation worker pool: reuse, growth, clean shutdown,
healing and explicit start methods."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.codegen import render_driver
from repro.core.simulation import (_pool_map, get_sim_pool,
                                   run_driver_batch, shutdown_sim_pool,
                                   sim_pool_info)
from repro.hdl import SimContext, use_context
from repro.problems import get_task

REPO_ROOT = Path(__file__).resolve().parents[2]


def _driver_and_duts():
    task = get_task("cmb_eq4")
    driver = render_driver(task, task.canonical_scenarios())
    golden = task.golden_rtl()
    # A second, distinct-but-valid DUT variant so the batch has two
    # unique pairs (jobs only engage with > 1 unique DUT).
    variant = golden.replace("endmodule", "\n// variant\nendmodule")
    return driver, [golden, variant]


class TestPoolLifecycle:
    def test_pool_reused_across_batches(self):
        """Two consecutive batch calls must run on the same workers
        (same pool object, same worker PIDs) — the per-batch spin-up is
        gone."""
        shutdown_sim_pool()
        driver, duts = _driver_and_duts()

        with use_context(jobs=2):
            runs1 = run_driver_batch(driver, duts)
        info1 = sim_pool_info()
        assert all(run.ok for run in runs1)
        assert info1["alive"] and info1["pids"]

        with use_context(jobs=2):
            runs2 = run_driver_batch(driver, list(reversed(duts)))
        info2 = sim_pool_info()
        assert all(run.ok for run in runs2)
        assert info2["pids"] == info1["pids"]

    def test_pool_grows_monotonically(self):
        shutdown_sim_pool()
        pool1 = get_sim_pool(1)
        assert get_sim_pool(1) is pool1
        pool3 = get_sim_pool(3)
        assert pool3 is not pool1
        assert sim_pool_info()["workers"] == 3
        # A smaller request reuses the larger pool.
        assert get_sim_pool(2) is pool3
        shutdown_sim_pool()
        assert not sim_pool_info()["alive"]

    def test_shutdown_is_idempotent(self):
        shutdown_sim_pool()
        shutdown_sim_pool()
        assert not sim_pool_info()["alive"]
        # And the pool comes back after a shutdown.
        driver, duts = _driver_and_duts()
        with use_context(jobs=2):
            runs = run_driver_batch(driver, duts)
        assert all(run.ok for run in runs)
        assert sim_pool_info()["alive"]

    def test_worker_pids_differ_from_parent(self):
        shutdown_sim_pool()
        pool = get_sim_pool(2)
        pids = {pool.submit(os.getpid).result() for _ in range(4)}
        assert os.getpid() not in pids
        info = sim_pool_info()
        assert pids <= set(info["pids"]) or info["pids"] == ()

    def test_batch_results_match_serial(self):
        driver, duts = _driver_and_duts()
        with use_context(jobs=1):
            serial = run_driver_batch(driver, duts)
        with use_context(jobs=2):
            pooled = run_driver_batch(driver, duts)
        assert [r.status for r in serial] == [r.status for r in pooled]
        assert [[rec.values for rec in r.records] for r in serial] \
            == [[rec.values for rec in r.records] for r in pooled]


def _log_then_fail_last(item):
    """Pool worker: append this run to the log, then fail the last
    item with a RuntimeError of its own."""
    log, index, last = item
    with open(log, "a") as handle:
        handle.write(f"{index}\n")
    if index == last:
        raise RuntimeError(f"item {index} failed")
    return index


class TestPoolHeal:
    def test_worker_runtime_error_runs_each_item_once(self, tmp_path):
        # A worker's own RuntimeError is not a pool failure: it must
        # propagate without re-running the batch on a recycled pool.
        log = tmp_path / "runs.log"
        items = [(str(log), index, 2) for index in range(3)]
        pool = get_sim_pool(2)
        with pytest.raises(RuntimeError, match="item 2 failed"):
            _pool_map(_log_then_fail_last, items, jobs=2)
        assert sorted(log.read_text().split()) == ["0", "1", "2"]
        assert get_sim_pool(2) is pool

    def test_pool_shut_down_before_map_heals(self, tmp_path):
        # The race a concurrent grow request causes: the executor this
        # call looked up is shut down, so map() refuses to submit.
        get_sim_pool(2).shutdown(wait=True)
        log = tmp_path / "runs.log"
        items = [(str(log), index, -1) for index in range(3)]
        assert _pool_map(_log_then_fail_last, items, jobs=2) == [0, 1, 2]
        assert sorted(log.read_text().split()) == ["0", "1", "2"]
        assert sim_pool_info()["alive"]


def _report_child_pool(path: str) -> None:
    """Runs in a forked child: what did it inherit, and where does its
    jobs=2 batch run?"""
    from repro.core import simulation

    driver, duts = _driver_and_duts()
    runs = run_driver_batch(driver, duts, context=SimContext(jobs=2))
    Path(path).write_text(repr((sim_pool_info()["alive"],
                                simulation._nested_pool_allowed(),
                                all(run.ok for run in runs))))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork")
class TestNestedPools:
    def test_forked_child_forgets_pool_and_batches_in_process(
            self, tmp_path):
        # The child inherits the parent's executor object but not its
        # threads: it must drop it, and run its own batch in-process
        # rather than open a pool nothing would shut down.  The pool is
        # fresh and unused, so no executor thread is alive at the fork.
        shutdown_sim_pool()
        get_sim_pool(2)
        report = tmp_path / "child.txt"
        child = multiprocessing.get_context("fork").Process(
            target=_report_child_pool, args=(str(report),))
        child.start()
        child.join(timeout=60)
        if child.is_alive():  # pragma: no cover - the regression
            child.kill()
            pytest.fail("forked child hung")
        assert child.exitcode == 0
        assert report.read_text() == repr((False, False, True))
        assert sim_pool_info()["alive"]  # the parent's pool is untouched
        shutdown_sim_pool()


class TestStartMethodAndWarmStart:
    """Start methods select how workers start; no start method ships
    the parent's caches to a worker (pools do not warm-start)."""

    def test_default_pool_reports_platform_method(self):
        shutdown_sim_pool()
        get_sim_pool(1)
        info = sim_pool_info()
        assert info["start_method"] == multiprocessing.get_start_method()
        assert "warm" not in info and "warm_layers" not in info
        shutdown_sim_pool()

    def test_unavailable_start_method_raises(self, monkeypatch):
        from repro.core.simulation import _resolve_start_method

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["fork", "spawn"])
        with pytest.raises(ValueError):
            _resolve_start_method("forkserver")

    def test_start_method_change_recreates_pool(self):
        shutdown_sim_pool()
        pool_default = get_sim_pool(2)
        with use_context(start_method="spawn"):
            pool_spawn = get_sim_pool(2)
            assert pool_spawn is not pool_default
            assert sim_pool_info()["start_method"] == "spawn"
        shutdown_sim_pool()

    def test_spawn_pool_matches_fork_results(self):
        """The acceptance equivalence: one batch through a spawn-started
        pool returns exactly what the (default) fork path returns."""
        driver, duts = _driver_and_duts()
        with use_context(jobs=1):
            serial = run_driver_batch(driver, duts)
        shutdown_sim_pool()
        with use_context(start_method="spawn", jobs=2):
            spawned = run_driver_batch(driver, duts)
            info = sim_pool_info()
        assert info["start_method"] == "spawn"
        assert [r.status for r in spawned] == [r.status for r in serial]
        assert [[rec.values for rec in r.records] for r in spawned] \
            == [[rec.values for rec in r.records] for r in serial]
        shutdown_sim_pool()


def test_atexit_shutdown_is_clean():
    """A process that used the persistent pool must exit cleanly (the
    atexit hook tears the workers down; nothing hangs or leaks)."""
    code = (
        "from repro.codegen import render_driver\n"
        "from repro.core.simulation import run_driver_batch\n"
        "from repro.hdl import SimContext\n"
        "from repro.problems import get_task\n"
        "task = get_task('cmb_eq4')\n"
        "driver = render_driver(task, task.canonical_scenarios())\n"
        "golden = task.golden_rtl()\n"
        "variant = golden.replace('endmodule', '\\n//v\\nendmodule')\n"
        "runs = run_driver_batch(driver, [golden, variant],\n"
        "                        context=SimContext(jobs=2))\n"
        "assert all(run.ok for run in runs)\n"
        "print('POOL_OK')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "POOL_OK" in proc.stdout
