"""Campaign runner: per-method work items, determinism, reporting,
the pluggable method registry, progress across healed-pool retries and
store-backed resume/shard semantics, and task-affine dispatch."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro.eval.campaign as campaign_mod
from repro.core.simulation import shutdown_sim_pool, sim_pool_info
from repro.eval import (CampaignStore, EvalLevel, StoreError,
                        campaign_items, default_config, register_method,
                        registered_methods, render_store_summary,
                        render_table1, render_table2, render_table3,
                        render_usage_summary, run_campaign, run_one,
                        run_sharded_campaign, store_key,
                        unregister_method)
from repro.eval.campaign import (METHOD_AUTOBENCH, METHOD_BASELINE,
                                 METHOD_CORRECTBENCH, campaign_method)
from repro.eval.golden import golden_artifacts
from repro.hdl.context import current_context, use_context

EASY_TASK = "cmb_and2"


class TestRunOne:
    @pytest.mark.parametrize("method", (METHOD_BASELINE, METHOD_AUTOBENCH,
                                        METHOD_CORRECTBENCH))
    def test_each_method_produces_a_run(self, method):
        run = run_one(method, EASY_TASK, seed=0)
        assert run.method == method
        assert run.task_id == EASY_TASK
        assert isinstance(run.level, EvalLevel)
        assert run.usage.total_tokens > 0

    def test_correctbench_records_workflow_fields(self):
        run = run_one(METHOD_CORRECTBENCH, EASY_TASK, seed=0)
        assert run.validated is not None
        assert run.gave_up is not None

    def test_deterministic(self):
        a = run_one(METHOD_CORRECTBENCH, "seq_tff", seed=3)
        b = run_one(METHOD_CORRECTBENCH, "seq_tff", seed=3)
        assert a == b

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_one("magic", EASY_TASK, seed=0)


class TestCampaign:
    @pytest.fixture(scope="class")
    def small_result(self):
        config = default_config(
            task_ids=("cmb_and2", "cmb_eq4", "seq_dff", "seq_tff"),
            seeds=(0,), n_jobs=1)
        return run_campaign(config)

    def test_all_cells_present(self, small_result):
        assert len(small_result.runs) == 3 * 4  # methods x tasks

    def test_renderers_accept_result(self, small_result):
        table1 = render_table1(small_result)
        assert "CorrectBench" in table1
        assert "Eval2" in table1
        table3 = render_table3(small_result)
        assert "Gain" in table3
        assert "Val." in table3
        assert "TOKEN USAGE" in render_usage_summary(small_result)

    def test_table2_static(self):
        table2 = render_table2()
        assert "Eval2" in table2
        assert "golden testbench" in table2

    def test_progress_callback(self):
        seen = []
        config = default_config(task_ids=(EASY_TASK,), seeds=(0,),
                                methods=(METHOD_BASELINE,), n_jobs=1)
        run_campaign(config, progress=lambda i, n, run: seen.append(
            (i, n, run.task_id)))
        assert seen == [(1, 1, EASY_TASK)]

    def test_context_travels_with_items(self):
        # The campaign's resolved context governs its items: a starved
        # time budget downgrades every produced testbench's grade path
        # without leaking into the caller's context.
        config = default_config(task_ids=(EASY_TASK,), seeds=(0,),
                                methods=(METHOD_BASELINE,), n_jobs=1)
        with use_context(max_time=1):
            starved = run_campaign(config).runs[0]
        healthy = run_campaign(config).runs[0]
        assert starved.level < healthy.level
        assert current_context().max_time != 1


# ----------------------------------------------------------------------
# Pluggable method registry
# ----------------------------------------------------------------------
class TestMethodRegistry:
    def test_builtins_registered(self):
        for method in (METHOD_CORRECTBENCH, METHOD_AUTOBENCH,
                       METHOD_BASELINE):
            assert method in registered_methods()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_method(METHOD_BASELINE, lambda call: None)

    def test_config_validates_methods_against_registry(self):
        with pytest.raises(ValueError, match="registered"):
            default_config(task_ids=(EASY_TASK,),
                           methods=("baseline", "magic"))

    def test_out_of_tree_method_end_to_end(self):
        # The acceptance scenario: a method this repo has never heard
        # of, registered at runtime, runs through run_one, run_campaign
        # and the CLI without touching the campaign runner.
        from repro.core.baseline import DirectBaseline

        @campaign_method("second-attempt-baseline")
        def _second_attempt(call):
            testbench = DirectBaseline(call.client,
                                       call.task).generate(attempt=1)
            return call.result(call.grade(testbench))

        try:
            run = run_one("second-attempt-baseline", EASY_TASK, seed=0)
            assert run.method == "second-attempt-baseline"
            assert isinstance(run.level, EvalLevel)

            config = default_config(
                task_ids=(EASY_TASK,), seeds=(0,),
                methods=("second-attempt-baseline", METHOD_BASELINE),
                n_jobs=1)
            result = run_campaign(config)
            assert [r.method for r in result.runs] == [
                "second-attempt-baseline", METHOD_BASELINE]

            from repro.cli import main
            assert main(["run", EASY_TASK,
                         "--method", "second-attempt-baseline"]) == 0
        finally:
            unregister_method("second-attempt-baseline")
        with pytest.raises(ValueError):
            run_one("second-attempt-baseline", EASY_TASK, seed=0)


# ----------------------------------------------------------------------
# Progress across healed-pool retries
# ----------------------------------------------------------------------
def _answer(runs_by_task, group):
    """A mapped task group's results: one run per item."""
    return [runs_by_task[item[1]] for item in group]  # item[1] == task_id


class _FlakyPool:
    """Answers each mapped task group from ``runs_by_task``; on the
    first ``map`` only, raises ``error`` once ``fail_after`` items have
    been yielded.  ``mapped`` records how many items (not groups) each
    ``map`` received."""

    def __init__(self, runs_by_task, fail_after, error=None):
        self.runs_by_task = runs_by_task
        self.fail_after = fail_after
        self.error = error or BrokenProcessPool("worker died")
        self.mapped = []

    def map(self, fn, groups, chunksize=1):
        groups = list(groups)
        first = not self.mapped
        self.mapped.append(sum(len(group) for group in groups))

        def generate():
            yielded = 0
            for group in groups:
                if first and yielded >= self.fail_after:
                    raise self.error
                yield _answer(self.runs_by_task, group)
                yielded += len(group)
        return generate()


def _patch_pool(monkeypatch, pool):
    monkeypatch.setattr(campaign_mod, "get_sim_pool",
                        lambda jobs, **kwargs: pool)
    monkeypatch.setattr(campaign_mod, "shutdown_sim_pool",
                        lambda wait=True: None)


class TestRetryProgress:
    TASKS = ("cmb_and2", "cmb_eq4", "seq_dff")

    def _config(self):
        return default_config(task_ids=self.TASKS, seeds=(0,),
                              methods=(METHOD_BASELINE,), n_jobs=2)

    def _runs_by_task(self):
        return {task_id: run_one(METHOD_BASELINE, task_id, seed=0)
                for task_id in self.TASKS}

    def _run_flaky(self, monkeypatch, progress):
        _patch_pool(monkeypatch,
                    _FlakyPool(self._runs_by_task(), fail_after=2))
        result = run_campaign(self._config(), progress=progress)
        assert [r.task_id for r in result.runs] == list(self.TASKS)
        return result

    def test_legacy_callback_stays_monotonic(self, monkeypatch):
        # The first attempt reports items 1..2 and breaks; the healed
        # retry replays all three.  A three-argument callback must see
        # each index exactly once, in order — no replay from 1.
        seen = []
        self._run_flaky(monkeypatch,
                        lambda i, n, run: seen.append((i, n)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_worker_runtime_error_propagates_without_rerun(
            self, monkeypatch):
        # A RuntimeError raised while results stream is the item's own
        # failure, not a pool failure: no heal, no second map.
        pool = _FlakyPool(self._runs_by_task(), fail_after=2,
                          error=RuntimeError("item failed"))
        _patch_pool(monkeypatch, pool)
        with pytest.raises(RuntimeError, match="item failed"):
            run_campaign(self._config())
        assert pool.mapped == [3]

    def test_pool_shut_down_at_submit_heals(self, monkeypatch):
        # A concurrent pool grow shuts the executor down under us:
        # map() itself raises RuntimeError before any item runs.
        runs_by_task = self._runs_by_task()

        class ShutDownOncePool:
            calls = 0

            def map(self, fn, groups, chunksize=1):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError(
                        "cannot schedule new futures after shutdown")
                return (_answer(runs_by_task, group) for group in groups)

        pool = ShutDownOncePool()
        _patch_pool(monkeypatch, pool)
        result = run_campaign(self._config())
        assert [r.task_id for r in result.runs] == list(self.TASKS)
        assert pool.calls == 2

    def test_exhausted_retries_reraise(self, monkeypatch):
        config = default_config(task_ids=(EASY_TASK,), seeds=(0,),
                                methods=(METHOD_BASELINE,), n_jobs=2)

        class DeadPool:
            def map(self, fn, groups, chunksize=1):
                raise BrokenProcessPool("still dead")

        _patch_pool(monkeypatch, DeadPool())
        with pytest.raises(BrokenProcessPool):
            run_campaign(config)


# ----------------------------------------------------------------------
# Persistent store: resume, skip-aware progress, heal, shards
# ----------------------------------------------------------------------
def _never_compute(item):  # pragma: no cover - sentinel
    raise AssertionError(f"resume recomputed a stored item: {item!r}")


class TestStoreResume:
    TASKS = ("cmb_and2", "seq_dff")

    def _config(self, **overrides):
        overrides.setdefault("methods",
                             (METHOD_BASELINE, METHOD_AUTOBENCH))
        return default_config(task_ids=self.TASKS, seeds=(0,),
                              n_jobs=1, **overrides)

    def test_campaign_persists_every_item(self, tmp_path):
        store = CampaignStore(tmp_path)
        result = run_campaign(self._config(), store=store)
        assert result.store_hits == 0
        assert result.store_misses == 4
        assert len(store) == 4
        for item, run in zip(campaign_items(self._config()), result.runs):
            assert store.get(store_key(*item)) == run

    def test_resume_answers_from_store_without_recompute(
            self, tmp_path, monkeypatch):
        store = CampaignStore(tmp_path)
        cold = run_campaign(self._config(), store=store)
        monkeypatch.setattr(campaign_mod, "_worker", _never_compute)
        resumed = run_campaign(self._config(), store=store, resume=True)
        assert resumed.store_hits == 4
        assert resumed.store_misses == 0
        assert resumed.runs == cold.runs

    def test_partial_resume_computes_only_the_rest(self, tmp_path):
        store = CampaignStore(tmp_path)
        # Seed the store with the baseline half only.
        run_campaign(self._config(methods=(METHOD_BASELINE,)),
                     store=store)
        resumed = run_campaign(self._config(), store=store, resume=True)
        assert resumed.store_hits == 2
        assert resumed.store_misses == 2
        assert resumed.runs == run_campaign(self._config()).runs
        assert store.stats()["entries"] == 4

    def test_without_resume_store_is_write_only(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(self._config(), store=store)
        again = run_campaign(self._config(), store=store)
        assert again.store_hits == 0
        assert again.store_misses == 4

    def test_context_fingerprint_separates_entries(self, tmp_path):
        store = CampaignStore(tmp_path)
        config = self._config(methods=(METHOD_BASELINE,))
        run_campaign(config, store=store)
        with use_context(max_time=1):
            starved = run_campaign(config, store=store, resume=True)
        assert starved.store_hits == 0  # different result coordinates
        assert len(store) == 4

    def test_skip_aware_progress_reports_hits_first(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(self._config(methods=(METHOD_BASELINE,)),
                     store=store)
        seen = []

        def progress(index, total, run, skipped=False):
            seen.append((index, total, skipped))

        run_campaign(self._config(), store=store, resume=True,
                     progress=progress)
        assert seen == [(1, 4, True), (2, 4, True),
                        (3, 4, False), (4, 4, False)]

    def test_legacy_progress_counts_hits_as_completed_work(self,
                                                           tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(self._config(methods=(METHOD_BASELINE,)),
                     store=store)
        seen = []
        run_campaign(self._config(), store=store, resume=True,
                     progress=lambda i, n, run: seen.append((i, n)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_store_summary_renders_counters(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(self._config(), store=store)
        resumed = run_campaign(self._config(), store=store, resume=True)
        summary = render_store_summary(resumed)
        assert "skipped (store hits)      4" in summary
        assert "computed this run         0" in summary
        storeless = render_store_summary(run_campaign(self._config()))
        assert "computed this run         4" in storeless

    def test_store_dir_context_knob_opens_store(self, tmp_path):
        with use_context(store_dir=str(tmp_path)):
            run_campaign(self._config())
            resumed = run_campaign(self._config(), resume=True)
        assert resumed.store_hits == 4
        assert len(CampaignStore(tmp_path)) == 4

    def test_resume_leaves_warm_boot_snapshot(self, tmp_path):
        run_campaign(self._config(), store=CampaignStore(tmp_path))
        snapshot = CampaignStore(tmp_path).load_snapshot()
        assert snapshot is not None and snapshot
        assert snapshot.counts()["pair"] > 0

    def test_parallel_campaign_prewarms_once(self, monkeypatch, tmp_path):
        # A store run pre-warms once, before saving its snapshot; a
        # store-less pooled run leaves warming to the pool workers.
        calls = []
        prewarm = campaign_mod.prewarm_campaign_caches

        def counting_prewarm(task_ids):
            calls.append(tuple(task_ids))
            return prewarm(task_ids)

        class InlinePool:
            def map(self, fn, groups, chunksize=1):
                return map(fn, groups)

        monkeypatch.setattr(campaign_mod, "prewarm_campaign_caches",
                            counting_prewarm)
        monkeypatch.setattr(campaign_mod, "get_sim_pool",
                            lambda jobs, **kwargs: InlinePool())
        config = default_config(task_ids=self.TASKS, seeds=(0,),
                                methods=(METHOD_BASELINE,), n_jobs=2)
        stored = run_campaign(config, store=CampaignStore(tmp_path))
        assert calls == [self.TASKS]
        storeless = run_campaign(config)
        assert calls == [self.TASKS]
        assert stored.store_misses == 2
        assert stored.runs == storeless.runs


class TestStoreHeal:
    """A healed pool keeps completed items, with or without a store:
    only outstanding work replays, and progress stays monotonic."""

    TASKS = TestRetryProgress.TASKS

    @pytest.mark.parametrize("with_store", [True, False],
                             ids=["store", "no-store"])
    def test_completed_items_survive_the_heal(self, monkeypatch,
                                              tmp_path, with_store):
        config = default_config(task_ids=self.TASKS, seeds=(0,),
                                methods=(METHOD_BASELINE,), n_jobs=2)
        runs_by_task = {task_id: run_one(METHOD_BASELINE, task_id, seed=0)
                        for task_id in self.TASKS}
        pool = _FlakyPool(runs_by_task, fail_after=2)
        _patch_pool(monkeypatch, pool)
        store = CampaignStore(tmp_path) if with_store else None
        seen = []
        result = run_campaign(
            config, store=store,
            progress=lambda i, n, run: seen.append((i, n, run.task_id)))
        assert [r.task_id for r in result.runs] == list(self.TASKS)
        # Attempt 0 lands items 1..2; the healed retry maps only the
        # third, so the completed count is monotonic across the heal.
        assert pool.mapped == [3, 1]
        assert seen == [(1, 3, "cmb_and2"), (2, 3, "cmb_eq4"),
                        (3, 3, "seq_dff")]
        if with_store:
            assert len(store) == 3
            assert result.store_misses == 3


class TestShardedCampaign:
    TASKS = ("cmb_and2", "cmb_eq4", "seq_dff")

    def _config(self):
        return default_config(task_ids=self.TASKS, seeds=(0,),
                              methods=(METHOD_BASELINE, METHOD_AUTOBENCH),
                              n_jobs=1)

    def test_sharded_matches_unsharded(self, tmp_path):
        unsharded = run_campaign(self._config())
        sharded = run_sharded_campaign(self._config(), shards=2,
                                       store=CampaignStore(tmp_path))
        assert sharded.runs == unsharded.runs
        assert sharded.store_hits == 0
        assert sharded.store_misses == 6
        assert len(CampaignStore(tmp_path)) == 6

    def test_sharded_resume_skips_stored_items(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_sharded_campaign(self._config(), shards=2, store=store)
        seen = []
        again = run_sharded_campaign(
            self._config(), shards=2, store=store,
            progress=lambda i, n, run: seen.append((i, n)))
        assert again.store_hits == 6
        assert again.store_misses == 0
        assert seen == [(i, 6) for i in range(1, 7)]

    def test_store_required(self):
        with pytest.raises(StoreError, match="REPRO_STORE_DIR"):
            run_sharded_campaign(self._config(), shards=2)
        with pytest.raises(ValueError, match="shards"):
            run_sharded_campaign(self._config(), shards=0)

    def test_single_shard_degenerates_to_resume(self, tmp_path):
        store = CampaignStore(tmp_path)
        run_campaign(self._config(), store=store)
        result = run_sharded_campaign(self._config(), shards=1,
                                      store=store)
        assert result.store_hits == 6
        assert result.runs == run_campaign(self._config()).runs


# ----------------------------------------------------------------------
# Task-affine dispatch
# ----------------------------------------------------------------------
class TestTaskGroups:
    TASKS = ("cmb_and2", "cmb_eq4", "seq_dff", "seq_tff")

    def _items(self, tasks=TASKS, seeds=(0, 1)):
        return campaign_items(default_config(task_ids=tasks, seeds=seeds))

    def _groups(self, items, todo, tasks=TASKS, n_jobs=2):
        return campaign_mod._task_groups(items, todo, tasks, n_jobs)

    @pytest.mark.parametrize("n_jobs", [1, 2, 3, 4, 7, 16])
    def test_groups_partition_todo_in_canonical_order(self, n_jobs):
        items = self._items()
        todo = list(range(len(items)))
        groups = self._groups(items, todo, n_jobs=n_jobs)
        assert sorted(index for group in groups for index in group) == todo
        for group in groups:
            assert group == sorted(group)
            assert len({items[index][1] for index in group}) == 1

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_one_group_per_task_when_tasks_cover_the_workers(self, n_jobs):
        items = self._items()
        groups = self._groups(items, list(range(len(items))), n_jobs=n_jobs)
        assert [items[group[0]][1] for group in groups] == list(self.TASKS)
        assert [len(group) for group in groups] == [6] * 4  # 3 methods x 2

    @pytest.mark.parametrize("n_jobs", [2, 3, 5, 6])
    def test_few_tasks_split_across_the_workers(self, n_jobs):
        tasks = ("cmb_and2",) if n_jobs != 5 else ("cmb_and2", "seq_dff")
        items = self._items(tasks)
        groups = self._groups(items, list(range(len(items))), tasks, n_jobs)
        assert len(groups) >= n_jobs
        # Items are dealt round-robin, so group sizes differ by <= 1
        # within a task.
        for task_id in tasks:
            sizes = [len(group) for group in groups
                     if items[group[0]][1] == task_id]
            assert max(sizes) - min(sizes) <= 1

    def test_uneven_resume_groups_only_outstanding_items(self):
        items = self._items()
        # cmb_and2 is finished, cmb_eq4 has one item left, seq_dff all
        # six, seq_tff two: groups follow task order, skip the finished
        # task and hold exactly each task's outstanding items.
        left = {"cmb_eq4": 1, "seq_dff": 6, "seq_tff": 2}
        todo = []
        for index, item in enumerate(items):
            if left.get(item[1], 0) > 0:
                left[item[1]] -= 1
                todo.append(index)
        groups = self._groups(items, todo)
        assert [items[group[0]][1] for group in groups] == [
            "cmb_eq4", "seq_dff", "seq_tff"]
        assert [len(group) for group in groups] == [1, 6, 2]
        assert sorted(index for group in groups for index in group) == todo

    def test_one_task_left_still_fills_the_pool(self):
        items = self._items()
        todo = [index for index, item in enumerate(items)
                if item[1] == "seq_tff"]
        groups = self._groups(items, todo, n_jobs=2)
        assert groups == [todo[0::2], todo[1::2]]


def _payloads(runs):
    return [run.to_payload() for run in runs]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork")
class TestTaskAffinePool:
    TASKS = ("cmb_and2", "cmb_eq4")

    def test_each_task_builds_its_goldens_in_one_process(
            self, monkeypatch, tmp_path):
        log = tmp_path / "golden-builds.log"

        def logging_golden(task_id):
            misses = golden_artifacts.cache_info().misses
            golden = golden_artifacts(task_id)
            if golden_artifacts.cache_info().misses > misses:
                with open(log, "a") as handle:
                    handle.write(f"{os.getpid()} {task_id}\n")
            return golden

        config = default_config(
            task_ids=self.TASKS, seeds=(0, 1), n_jobs=2,
            context=current_context().evolve(start_method="fork"))
        # A fresh pool forks after the patch, from a parent holding no
        # golden artifacts.
        shutdown_sim_pool()
        golden_artifacts.cache_clear()
        monkeypatch.setattr(campaign_mod, "golden_artifacts", logging_golden)
        try:
            pooled = run_campaign(config)
        finally:
            shutdown_sim_pool()
        builds = [line.split() for line in log.read_text().splitlines()]
        assert sorted(task_id for _, task_id in builds) == list(self.TASKS)
        assert all(int(pid) != os.getpid() for pid, _ in builds)
        serial = run_campaign(default_config(task_ids=self.TASKS,
                                             seeds=(0, 1), n_jobs=1))
        assert _payloads(pooled.runs) == _payloads(serial.runs)

    def test_nested_pools_complete(self):
        # Campaign workers whose items ask for jobs=2 (per-mutant sweeps
        # fan batches out) must neither reuse the parent's forked pool
        # nor open pools they cannot shut down.
        code = (
            "import json\n"
            "from repro.eval import default_config, run_campaign\n"
            "from repro.hdl import current_context\n"
            "context = current_context().evolve(\n"
            "    jobs=2, start_method='fork', mutant_engine='per-mutant')\n"
            f"config = default_config(task_ids={self.TASKS!r}, seeds=(0,),\n"
            "    methods=('baseline', 'autobench'), n_jobs=2,\n"
            "    context=context)\n"
            "runs = run_campaign(config).runs\n"
            "print(json.dumps([run.to_payload() for run in runs]))\n")
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        process = subprocess.Popen(
            [sys.executable, "-c", code], env=env, cwd=root,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("nested-pool campaign hung")
        assert process.returncode == 0, err
        serial = run_campaign(default_config(
            task_ids=self.TASKS, seeds=(0,),
            methods=(METHOD_BASELINE, METHOD_AUTOBENCH), n_jobs=1))
        assert json.loads(out) == _payloads(serial.runs)


class TestPoolStartMethods:
    """A pooled campaign gives the serial run's results whichever start
    method made its workers: each worker builds its own caches."""

    TASKS = ("cmb_and2", "seq_dff")

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
    def test_pooled_campaign_matches_serial(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        config = default_config(
            task_ids=self.TASKS, seeds=(0,), n_jobs=2,
            context=current_context().evolve(start_method=start_method))
        shutdown_sim_pool()
        try:
            pooled = run_campaign(config)
            info = sim_pool_info()
        finally:
            shutdown_sim_pool()
        assert set(info) == {"alive", "workers", "pids", "start_method",
                             "queue_depth", "in_flight"}
        assert info["start_method"] == start_method
        serial = run_campaign(default_config(task_ids=self.TASKS,
                                             seeds=(0,), n_jobs=1))
        assert len(pooled.runs) == 6
        assert pooled.runs == serial.runs
