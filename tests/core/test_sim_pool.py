"""Persistent simulation worker pool: reuse, growth, clean shutdown,
explicit start methods and warm-started workers."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.codegen import render_driver
from repro.core.caches import caches
from repro.core.simulation import (get_sim_pool, run_driver_batch,
                                   shutdown_sim_pool, sim_pool_info)
from repro.hdl import use_context
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


class TestStartMethodAndWarmStart:
    def test_default_pool_reports_platform_method(self):
        shutdown_sim_pool()
        driver, duts = _driver_and_duts()
        with use_context(jobs=1):
            run_driver_batch(driver, duts)  # warm the parent
        get_sim_pool(1)
        info = sim_pool_info()
        assert info["start_method"] == multiprocessing.get_start_method()
        # On fork platforms workers inherit warm caches through memory.
        if info["start_method"] == "fork":
            assert info["warm"] == "inherited"
        shutdown_sim_pool()

    def test_cold_created_pool_rewarmed_once_parent_warms(self):
        """A pool created before anything was cached must be recreated
        (warm) the first time warmth is requested on a warm parent —
        otherwise campaigns that pre-warm after an early batch would
        keep cold workers forever."""
        driver, duts = _driver_and_duts()
        caches.clear()
        shutdown_sim_pool()
        with use_context(start_method="spawn"):
            cold_pool = get_sim_pool(2)
            assert sim_pool_info()["warm"] == "cold"
            # Parent warms up after the pool exists (e.g. a serial run
            # or a campaign pre-warm)...
            with use_context(jobs=1):
                run_driver_batch(driver, duts)
            # ...so the next warm-requesting lookup recreates the pool
            # with the snapshot on board — exactly once.
            warm_pool = get_sim_pool(2)
            assert warm_pool is not cold_pool
            info = sim_pool_info()
            assert info["warm"] == "snapshot"
            assert info["warm_layers"]["pair"] >= 2
            assert get_sim_pool(2) is warm_pool  # no churn afterwards
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
        with use_context(start_method="spawn", warm_start=False):
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

    def test_spawn_pool_ships_snapshot_when_parent_is_warm(self):
        driver, duts = _driver_and_duts()
        shutdown_sim_pool()
        # Warm the parent first so there is something to snapshot.
        with use_context(jobs=1):
            run_driver_batch(driver, duts)
        with use_context(start_method="spawn"):
            get_sim_pool(2)
            info = sim_pool_info()
        assert info["warm"] == "snapshot"
        assert info["warm_layers"]["pair"] >= 2
        assert info["warm_layers"]["parse"] >= 3
        shutdown_sim_pool()

    def test_warm_start_off_means_cold_spawn_pool(self):
        driver, duts = _driver_and_duts()
        shutdown_sim_pool()
        with use_context(jobs=1):
            run_driver_batch(driver, duts)
        with use_context(start_method="spawn", warm_start=False, jobs=2):
            runs = run_driver_batch(driver, duts)
            info = sim_pool_info()
        assert all(run.ok for run in runs)
        assert info["warm"] == "cold" and info["warm_layers"] == {}
        shutdown_sim_pool()

    def test_cold_parent_spawn_pool_reports_cold(self):
        caches.clear()
        shutdown_sim_pool()
        with use_context(start_method="spawn"):
            get_sim_pool(1)
            info = sim_pool_info()
        assert info["warm"] == "cold"
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
