"""Campaign artifact store: keying, round trips, atomic durability,
the manifest version marker, snapshot co-location and the integrity
battery."""

import hashlib
import json
import pickle

import pytest

import repro.eval.campaign as campaign_mod
from repro.core.caches import CacheSnapshot
from repro.eval import (CampaignStore, EvalLevel, StoreError,
                        StoreIntegrityError, TaskRun, context_fingerprint,
                        default_config, llm_tier, run_campaign, store_key)
from repro.eval.store import STORE_VERSION, key_digest
from repro.hdl.context import SimContext
from repro.llm.base import Usage


def make_run(task_id="cmb_and2", method="baseline", seed=0,
             level=EvalLevel.EVAL2, **extra) -> TaskRun:
    return TaskRun(method=method, task_id=task_id, kind="CMB", seed=seed,
                   level=level, usage=Usage(120, 34), **extra)


def make_key(task_id="cmb_and2", method="baseline", seed=0,
             context=None) -> dict:
    context = context if context is not None else SimContext()
    return store_key(method, task_id, seed, "gpt-4o", "S1", 20, context)


def store_files(root) -> set:
    """Every file under a store root, as root-relative POSIX paths."""
    return {path.relative_to(root).as_posix()
            for path in root.rglob("*") if path.is_file()}


def parent_era_manifest(store) -> bytes:
    """The index-carrying ``manifest.json`` earlier builds wrote after
    every put: ``version`` plus a ``count`` / ``entries`` index."""
    entries = {}
    for key in store.keys():
        entry = json.loads((store.root / "entries"
                            / f"{key_digest(key)}.json").read_bytes())
        entries[key_digest(key)] = {"key": key, "blob": entry["blob"]}
    manifest = {"version": STORE_VERSION, "count": len(entries),
                "entries": entries}
    return json.dumps(manifest, sort_keys=True,
                      indent=1).encode("utf-8") + b"\n"


class TestKeying:
    def test_llm_tier_defaults_to_synthetic(self):
        assert llm_tier(SimContext()) == "synthetic"
        assert llm_tier(SimContext(llm_backend="fixture")) == "fixture"

    def test_operational_knobs_do_not_change_fingerprint(self):
        base = SimContext()
        for evolved in (base.evolve(jobs=8),
                        base.evolve(start_method="spawn"),
                        base.evolve(llm_fixture_dir="/tmp/f"),
                        base.evolve(template_cache_size=7),
                        base.evolve(trace_dir="/tmp/t"),
                        base.evolve(store_dir="/tmp/s")):
            assert context_fingerprint(evolved) == context_fingerprint(base)

    def test_result_relevant_fields_change_fingerprint(self):
        base = SimContext()
        for evolved in (base.evolve(engine="interpret"),
                        base.evolve(max_time=7),
                        base.evolve(llm_backend="fixture")):
            assert context_fingerprint(evolved) != context_fingerprint(base)

    def test_key_digest_stable_across_dict_order(self):
        key = make_key()
        shuffled = dict(reversed(list(key.items())))
        assert key_digest(shuffled) == key_digest(key)

    def test_key_coordinates_distinguish_items(self):
        digests = {key_digest(make_key(task_id=t, method=m, seed=s))
                   for t in ("cmb_and2", "cmb_eq4")
                   for m in ("baseline", "autobench")
                   for s in (0, 1)}
        assert len(digests) == 8


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path)
        run = make_run(validated=True, corrections=2)
        key = make_key()
        store.put(key, run)
        assert store.get(key) == run
        assert store.contains(key)
        assert len(store) == 1

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert store.get(make_key()) is None
        assert not store.contains(make_key())
        assert store.stats()["misses"] == 1

    def test_round_trip_survives_reopen(self, tmp_path):
        run = make_run(level=EvalLevel.EVAL1, gave_up=False)
        CampaignStore(tmp_path).put(make_key(), run)
        reopened = CampaignStore(tmp_path)
        assert reopened.get(make_key()) == run
        assert not reopened.recovered_manifest

    def test_identical_payload_is_deduplicated(self, tmp_path):
        store = CampaignStore(tmp_path)
        sha_a = store.put(make_key(), make_run())
        sha_b = store.put(make_key(), make_run())
        assert sha_a == sha_b
        assert len(list((tmp_path / "blobs").glob("*.json"))) == 1

    def test_last_writer_wins_per_key(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.put(make_key(), make_run(level=EvalLevel.FAILED))
        store.put(make_key(), make_run(level=EvalLevel.EVAL2))
        assert store.get(make_key()).level == EvalLevel.EVAL2
        assert len(store) == 1

    def test_evict(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.put(make_key(), make_run())
        assert store.evict(make_key())
        assert store.get(make_key()) is None
        assert not store.evict(make_key())
        assert store.stats()["evictions"] == 1

    def test_keys_and_export_keys(self, tmp_path):
        store = CampaignStore(tmp_path)
        keys = [make_key(seed=s) for s in range(3)]
        for key in keys:
            store.put(key, make_run(seed=key["seed"]))
        assert sorted(k["seed"] for k in store.keys()) == [0, 1, 2]
        assert store.export_keys() == tuple(sorted(map(key_digest, keys)))

    def test_stats_counters(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.put(make_key(), make_run())
        store.get(make_key())
        store.get(make_key(seed=9))
        assert store.stats() == {"hits": 1, "misses": 1, "puts": 1,
                                 "evictions": 0, "entries": 1}

    def test_taskrun_payload_round_trip(self):
        run = make_run(validated=True, gave_up=False, corrections=3,
                       reboots=1, final_from_corrector=True,
                       took_any_action=True, fault_class="dead-signal",
                       recovered=True, recovery_round=2, rounds=4)
        assert TaskRun.from_payload(run.to_payload()) == run

    def test_taskrun_payload_is_strict(self):
        payload = make_run().to_payload()
        with pytest.raises(ValueError, match="bad TaskRun payload"):
            TaskRun.from_payload({**payload, "surprise": 1})
        missing = dict(payload)
        del missing["level"]
        with pytest.raises(ValueError, match="bad TaskRun payload"):
            TaskRun.from_payload(missing)
        with pytest.raises(ValueError, match="bad TaskRun payload"):
            TaskRun.from_payload({**payload, "level": 99})


class TestIntegrity:
    def _stored(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.put(make_key(), make_run())
        return store, make_key()

    def _blob_path(self, tmp_path):
        (blob,) = (tmp_path / "blobs").glob("*.json")
        return blob

    def test_tampered_blob_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        blob = self._blob_path(tmp_path)
        data = json.loads(blob.read_bytes())
        data["run"]["level"] = int(EvalLevel.FAILED)
        blob.write_text(json.dumps(data))
        with pytest.raises(StoreIntegrityError, match="content hash"):
            store.get(key)

    def test_truncated_blob_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        blob = self._blob_path(tmp_path)
        blob.write_bytes(blob.read_bytes()[:-20])
        with pytest.raises(StoreIntegrityError, match="content hash"):
            store.get(key)

    def test_missing_blob_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        self._blob_path(tmp_path).unlink()
        with pytest.raises(StoreIntegrityError, match="missing"):
            store.get(key)

    def test_blob_under_wrong_key_raises(self, tmp_path):
        # An entry whose blob was recorded under a *different* key must
        # not be served: rewrite the entry for key B to point at key A's
        # blob (the blob's own hash still verifies).
        store = CampaignStore(tmp_path)
        key_a, key_b = make_key(seed=0), make_key(seed=1)
        sha_a = store.put(key_a, make_run(seed=0))
        store.put(key_b, make_run(seed=1))
        entry_path = tmp_path / "entries" / f"{key_digest(key_b)}.json"
        entry = json.loads(entry_path.read_bytes())
        entry["blob"] = sha_a
        entry_path.write_text(json.dumps(entry))
        with pytest.raises(StoreIntegrityError, match="different.*key"):
            store.get(key_b)

    def test_corrupt_entry_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        path = tmp_path / "entries" / f"{key_digest(key)}.json"
        path.write_text("{not json")
        with pytest.raises(StoreIntegrityError, match="corrupt"):
            store.get(key)

    def test_entry_version_mismatch_raises(self, tmp_path):
        store, key = self._stored(tmp_path)
        path = tmp_path / "entries" / f"{key_digest(key)}.json"
        entry = json.loads(path.read_bytes())
        entry["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(entry))
        with pytest.raises(StoreError, match="version"):
            store.get(key)


class TestManifest:
    def test_manifest_written_and_versioned(self, tmp_path):
        # A write-once layout marker: opening lays it out, no put or
        # evict rewrites it, and each put adds exactly its blob and
        # its entry file.
        store = CampaignStore(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        marker = manifest_path.read_bytes()
        inode = manifest_path.stat().st_ino  # an atomic rewrite changes it
        assert json.loads(marker) == {"version": STORE_VERSION}
        for seed in range(3):
            before = store_files(tmp_path)
            blob_sha = store.put(make_key(seed=seed), make_run(seed=seed))
            assert store_files(tmp_path) == before | {
                f"blobs/{blob_sha}.json",
                f"entries/{key_digest(make_key(seed=seed))}.json"}
        assert store.evict(make_key(seed=0))
        assert manifest_path.read_bytes() == marker
        assert manifest_path.stat().st_ino == inode

    def test_version_mismatch_fails_loudly(self, tmp_path):
        CampaignStore(tmp_path).put(make_key(), make_run())
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_bytes())
        manifest["version"] = STORE_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="version"):
            CampaignStore(tmp_path)

    def test_torn_manifest_recovers_from_entries(self, tmp_path, capsys):
        # The entry files are the durable truth: garbage in the
        # manifest (a torn write) costs nothing but a loud warning.
        store = CampaignStore(tmp_path)
        for seed in range(3):
            store.put(make_key(seed=seed), make_run(seed=seed))
        (tmp_path / "manifest.json").write_bytes(b'{"version": 1, "en')
        recovered = CampaignStore(tmp_path)
        assert recovered.recovered_manifest
        assert "rewriting it" in capsys.readouterr().err
        assert len(recovered) == 3
        for seed in range(3):
            assert recovered.get(make_key(seed=seed)).seed == seed
        # Recovery rewrote a readable manifest.
        assert json.loads((tmp_path / "manifest.json").read_bytes()) \
            == {"version": STORE_VERSION}
        assert not CampaignStore(tmp_path).recovered_manifest

    def test_missing_manifest_rebuilds_silently(self, tmp_path, capsys):
        CampaignStore(tmp_path).put(make_key(), make_run())
        (tmp_path / "manifest.json").unlink()
        reopened = CampaignStore(tmp_path)
        assert not reopened.recovered_manifest  # absent != torn
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "manifest.json").read_bytes()) \
            == {"version": STORE_VERSION}
        assert len(reopened) == 1

    def test_manifest_is_advisory_not_truth(self, tmp_path, capsys):
        # keys()/get() read entry files directly, so entries another
        # writer landed after we opened are visible — and the
        # ``count`` / ``entries`` index earlier builds kept in the
        # manifest is ignored, stale or not, and left untouched.
        ours = CampaignStore(tmp_path)
        ours.put(make_key(seed=0), make_run(seed=0))
        stale = parent_era_manifest(ours)  # indexes seed 0 only
        (tmp_path / "manifest.json").write_bytes(stale)
        theirs = CampaignStore(tmp_path)
        assert not theirs.recovered_manifest
        assert capsys.readouterr().err == ""
        theirs.put(make_key(seed=1), make_run(seed=1))
        assert len(ours) == 2  # the disk truth, not the index's 1
        assert ours.get(make_key(seed=1)).seed == 1
        assert (tmp_path / "manifest.json").read_bytes() == stale

    def test_parent_era_store_resumes_without_recompute(
            self, tmp_path, capsys, monkeypatch):
        config = default_config(task_ids=("cmb_and2", "seq_dff"),
                                seeds=(0,), methods=("baseline",),
                                n_jobs=1)
        cold = run_campaign(config, store=CampaignStore(tmp_path))
        (tmp_path / "manifest.json").write_bytes(
            parent_era_manifest(CampaignStore(tmp_path)))
        capsys.readouterr()

        def never_compute(item):  # pragma: no cover - sentinel
            raise AssertionError(f"recomputed a stored item: {item!r}")

        monkeypatch.setattr(campaign_mod, "_worker", never_compute)
        store = CampaignStore(tmp_path)
        resumed = run_campaign(config, store=store, resume=True)
        assert not store.recovered_manifest
        assert capsys.readouterr().err == ""
        assert (resumed.store_hits, resumed.store_misses) == (2, 0)
        assert resumed.runs == cold.runs


class TestSnapshotColocation:
    def test_absent_snapshot_is_none(self, tmp_path):
        assert CampaignStore(tmp_path).load_snapshot() is None

    def test_snapshot_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path)
        snapshot = CacheSnapshot(payloads={"parse": {("k",): b"v"}})
        store.save_snapshot(snapshot)
        loaded = store.load_snapshot()
        assert isinstance(loaded, CacheSnapshot)
        assert loaded.payloads == snapshot.payloads

    def test_tampered_snapshot_raises_store_error(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.save_snapshot(CacheSnapshot(payloads={"parse": {}}))
        path = tmp_path / "snapshot.bin"
        path.write_bytes(path.read_bytes()[:-3] + b"zzz")
        with pytest.raises(StoreIntegrityError):
            store.load_snapshot()


class TestSnapshotFileFormat:
    """The framed ``snapshot.bin`` the store co-locates (magic line +
    SHA-256 line + pickle), verified before anything is unpickled."""

    MAGIC = b"repro-cachesnap-1\n"

    def _frame(self, payload: bytes) -> bytes:
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        return self.MAGIC + digest + b"\n" + payload

    def test_file_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path)
        snapshot = CacheSnapshot(payloads={"design": {("a",): b"t"}})
        path = store.save_snapshot(snapshot)
        assert path == tmp_path / "snapshot.bin"
        data = path.read_bytes()
        assert data.startswith(self.MAGIC)
        assert self._frame(data.split(b"\n", 2)[2]) == data
        assert store.load_snapshot().payloads == snapshot.payloads
        assert CampaignStore(tmp_path).load_snapshot().payloads \
            == snapshot.payloads

    def test_deleted_file_loads_as_none(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.save_snapshot(CacheSnapshot(payloads={"parse": {}}))
        (tmp_path / "snapshot.bin").unlink()
        assert store.load_snapshot() is None

    def test_bad_magic_raises(self, tmp_path):
        store = CampaignStore(tmp_path)
        (tmp_path / "snapshot.bin").write_bytes(
            b"not-a-snapshot\n" + b"0" * 64 + b"\n")
        with pytest.raises(StoreIntegrityError, match="bad magic"):
            store.load_snapshot()

    def test_truncated_payload_raises(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.save_snapshot(CacheSnapshot(payloads={"parse": {}}))
        path = tmp_path / "snapshot.bin"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(StoreIntegrityError, match="SHA-256"):
            store.load_snapshot()

    @pytest.mark.parametrize("case, match", (
        ("no-digest-line", "truncated"),
        ("unpicklable", "does not unpickle"),
        ("not-a-snapshot", "does not contain a CacheSnapshot"),
    ))
    def test_verified_frame_still_checks_payload(self, tmp_path, case,
                                                 match):
        data = {
            "no-digest-line": self.MAGIC + b"0" * 64,
            "unpicklable": self._frame(b"not a pickle"),
            "not-a-snapshot": self._frame(pickle.dumps({"parse": {}})),
        }[case]
        store = CampaignStore(tmp_path)
        (tmp_path / "snapshot.bin").write_bytes(data)
        with pytest.raises(StoreIntegrityError, match=match):
            store.load_snapshot()

    def test_save_rejects_non_snapshot(self, tmp_path):
        store = CampaignStore(tmp_path)
        with pytest.raises(TypeError, match="CacheSnapshot"):
            store.save_snapshot({"parse": {}})
        assert store.load_snapshot() is None
