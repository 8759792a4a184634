"""Warm-start cache snapshots: export/import fidelity in-process, across
a genuinely fresh (spawn) process, and through the pool initializer."""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.core.simulation as sim
from repro.codegen import render_driver
from repro.core.caches import CacheSnapshot, caches
from repro.core.simulation import design_template, run_driver
from repro.hdl.compile import program_cache_stats
from repro.hdl.errors import ElaborationError
from repro.problems import get_task

REPO_ROOT = Path(__file__).resolve().parents[2]

GOOD = ("module m(output [3:0] o);\n"
        "assign o = 4'd9;\n"
        "endmodule")
BAD_ELAB = ("module m(output o);\n"
            "assign o = ghost;\n"
            "endmodule")


def _warm_parent():
    """Build a known warm state: one design template, one driver/DUT
    pair, one cached elaboration failure."""
    caches.clear()
    task = get_task("cmb_eq4")
    driver = render_driver(task, task.canonical_scenarios())
    golden = task.golden_rtl()
    assert run_driver(driver, golden).ok
    design_template(GOOD, "m")
    with pytest.raises(ElaborationError):
        design_template(BAD_ELAB, "m")
    return driver, golden


class TestSnapshotValue:
    def test_snapshot_is_picklable_plain_data(self):
        _warm_parent()
        snapshot = caches.export_snapshot()
        assert snapshot  # truthy: carries entries
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.layers() == snapshot.layers()
        assert clone.counts() == snapshot.counts()
        # The program layer holds closures and must never be exported.
        assert "programs" not in snapshot.layers()

    def test_layer_counts(self):
        _warm_parent()
        counts = caches.export_snapshot().counts()
        assert counts["design"] == 1
        assert counts["pair"] == 1
        assert counts["failure"] == 1
        assert counts["parse"] >= 2  # driver + golden + GOOD

    def test_empty_snapshot_is_falsy(self):
        caches.clear()
        assert not caches.export_snapshot()

    def test_import_rejects_wrong_type_and_version(self):
        with pytest.raises(TypeError):
            caches.import_snapshot({"parse": {}})
        with pytest.raises(ValueError):
            caches.import_snapshot(CacheSnapshot(payloads={}, version=999))


class TestInProcessRoundTrip:
    def test_import_restores_hit_behaviour(self, monkeypatch):
        """export -> clear -> import: the next access to every warmed
        layer is a pure hit (identical hit behaviour to the process the
        snapshot came from)."""
        driver, golden = _warm_parent()
        snapshot = caches.export_snapshot()
        caches.clear()
        imported = caches.import_snapshot(snapshot)
        assert imported["design"] == 1
        assert imported["pair"] == 1
        assert imported["failure"] == 1

        before = caches.stats()
        # Re-running the snapshotted workload must not touch the front
        # end at all: parse and template lookups all hit.
        monkeypatch.setattr(sim, "elaborate", _must_not_run)
        assert run_driver(driver, golden).ok
        after = caches.stats()
        assert after["parse"]["misses"] == before["parse"]["misses"]
        assert after["pair"]["hits"] == before["pair"]["hits"] + 1
        # The cached failure re-raises without re-elaborating, too.
        with pytest.raises(ElaborationError):
            design_template(BAD_ELAB, "m")

    def test_imported_templates_simulate_identically(self):
        driver, golden = _warm_parent()
        reference = run_driver(driver, golden)
        snapshot = caches.export_snapshot()
        caches.clear()
        caches.import_snapshot(snapshot)
        rerun = run_driver(driver, golden)
        assert rerun.status == reference.status
        assert [r.values for r in rerun.records] \
            == [r.values for r in reference.records]

    def test_import_counts_ahead_of_time_compiles(self):
        _warm_parent()
        snapshot = caches.export_snapshot()
        caches.clear()
        warm_before = program_cache_stats()["warm_start_compiled"]
        caches.import_snapshot(snapshot)
        # Template import re-derives the closure layer eagerly.
        assert program_cache_stats()["warm_start_compiled"] > warm_before


def _must_not_run(*args, **kwargs):  # pragma: no cover - guard helper
    raise AssertionError("front end ran on what should be a warm hit")


def test_fresh_spawn_process_round_trip(tmp_path):
    """The acceptance path: a snapshot pickled by this process and
    imported by a *fresh* interpreter (nothing inherited) makes the
    snapshotted workload run entirely from warm caches."""
    driver, golden = _warm_parent()
    snapshot_path = tmp_path / "snapshot.pkl"
    snapshot_path.write_bytes(pickle.dumps(caches.export_snapshot()))
    (tmp_path / "driver.v").write_text(driver)
    (tmp_path / "golden.v").write_text(golden)

    code = textwrap.dedent("""
        import pickle, sys
        from pathlib import Path
        from repro.core.caches import caches
        from repro.core.simulation import run_driver
        from repro.hdl.compile import program_cache_stats

        base = Path(sys.argv[1])
        imported = caches.import_snapshot(
            pickle.loads((base / "snapshot.pkl").read_bytes()))
        assert imported["design"] == 1, imported
        assert imported["pair"] == 1, imported
        assert program_cache_stats()["warm_start_compiled"] > 0

        run = run_driver((base / "driver.v").read_text(),
                         (base / "golden.v").read_text())
        assert run.ok, run.detail
        stats = caches.stats()
        # Identical hit behaviour to a warm parent: zero front-end
        # misses for the snapshotted workload.
        assert stats["parse"]["misses"] == 0, stats["parse"]
        assert stats["tokenize"]["misses"] == 0, stats["tokenize"]
        assert stats["pair"]["hits"] == 1, stats["pair"]
        print("SNAPSHOT_OK")
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "SNAPSHOT_OK" in proc.stdout
