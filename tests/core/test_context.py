"""SimContext resolution, isolation and the cache facade.

Pins the configuration API: explicit ``context=`` argument > active
context > env-seeded root; nested activations restore; contexts
neither leak across threads nor into pool workers (work items carry
their own); no core or eval API takes a per-call engine / jobs
override; and the ``CacheRegistry`` facade fronts every cache layer.
"""

import inspect
import threading

import pytest

from repro.core import simulation
from repro.core.caches import CacheRegistry, caches
from repro.core.simulation import RUNTIME, run_driver, run_driver_batch
from repro.core.validator import ScenarioValidator
from repro.eval import campaign
from repro.eval.campaign import CampaignConfig
from repro.hdl import simulate
from repro.hdl.context import (ENGINE_COMPILED, ENGINE_INTERPRET,
                               LEXER_REFERENCE, MUTANT_LOCKSTEP,
                               MUTANT_PER_MUTANT, SimContext,
                               _context_from_env, current_context,
                               resolve_jobs, root_context, set_root_context,
                               use_context)
from repro.codegen import render_driver
from repro.problems import get_task

TB = 'module tb; initial begin $display("ok"); $finish; end endmodule'

LOOPY_TB = """
module tb;
    integer i;
    initial begin
        for (i = 0; i < 100000; i = i + 1) begin end
        $display("done");
        $finish;
    end
endmodule
"""


# ----------------------------------------------------------------------
# SimContext value semantics
# ----------------------------------------------------------------------
class TestSimContext:
    def test_defaults(self):
        context = SimContext()
        assert context.engine == ENGINE_COMPILED
        assert context.lexer == "master"
        assert context.jobs == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SimContext(engine="quantum")
        with pytest.raises(ValueError):
            SimContext(lexer="treebank")
        with pytest.raises(ValueError):
            SimContext(max_time=0)
        with pytest.raises(ValueError):
            SimContext(jobs=-2)

    @pytest.mark.parametrize("name", ["max_time", "max_stmts", "jobs"])
    def test_bool_is_not_an_integer_knob(self, name):
        # bool subclasses int: True must not pass as a budget of 1.
        with pytest.raises(ValueError, match=name):
            SimContext(**{name: True})

    def test_evolve_revalidates(self):
        context = SimContext()
        assert context.evolve(engine=ENGINE_INTERPRET).engine == \
            ENGINE_INTERPRET
        with pytest.raises(ValueError):
            context.evolve(engine="quantum")
        # evolve returns a new value; the original is untouched.
        assert context.engine == ENGINE_COMPILED

    def test_value_object(self):
        assert SimContext() == SimContext()
        assert hash(SimContext()) == hash(SimContext())
        import pickle
        context = SimContext(engine=ENGINE_INTERPRET, max_stmts=7)
        assert pickle.loads(pickle.dumps(context)) == context

    def test_warm_start_knobs(self):
        # Pool knobs validate; pools no longer have a warm-start knob.
        context = SimContext()
        assert context.start_method == "default"
        assert context.template_cache_size == 256
        assert context.evolve(start_method="spawn").start_method == "spawn"
        with pytest.raises(ValueError):
            SimContext(start_method="teleport")
        with pytest.raises(TypeError):
            SimContext(warm_start=True)
        with pytest.raises(ValueError):
            SimContext(template_cache_size=0)


# ----------------------------------------------------------------------
# Resolution + isolation
# ----------------------------------------------------------------------
class TestResolution:
    def test_nested_use_context_restores(self):
        base = current_context()
        with use_context(engine=ENGINE_INTERPRET) as outer:
            assert current_context() is outer
            with use_context(max_stmts=99) as inner:
                assert current_context() is inner
                assert inner.engine == ENGINE_INTERPRET  # inherited
                assert inner.max_stmts == 99
            assert current_context() is outer
        assert current_context() == base

    def test_use_context_restores_on_exception(self):
        base = current_context()
        with pytest.raises(RuntimeError):
            with use_context(engine=ENGINE_INTERPRET):
                raise RuntimeError("boom")
        assert current_context() == base

    def test_explicit_argument_beats_context(self):
        with use_context(max_stmts=50):
            # Explicit limit wins over the active context's tiny cap.
            result = simulate(LOOPY_TB, "tb", max_stmts=10_000_000)
            assert result.stdout == ["done"]

    def test_context_limits_apply(self):
        from repro.hdl.errors import SimulationLimit
        with use_context(max_stmts=50):
            with pytest.raises(SimulationLimit):
                simulate(LOOPY_TB, "tb")

    def test_threads_do_not_inherit_activation(self):
        seen = {}

        def probe():
            seen["engine"] = current_context().engine

        with use_context(engine=ENGINE_INTERPRET):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        # A fresh thread starts without an activation: it resolves to
        # the root, not to another thread's request context.
        assert seen["engine"] == root_context().engine

    def test_apis_take_no_per_call_overrides(self):
        # Above repro.hdl the context is the only way to pick an engine,
        # a worker count or a sweep strategy.
        # (The AutoEval entry points are pinned in test_autoeval.)
        apis = (simulation.run_driver, simulation.run_monolithic,
                simulation.DesignTemplate.run, simulation.run_driver_batch,
                simulation.run_monolithic_batch,
                simulation.run_mutant_sweep, ScenarioValidator,
                campaign.run_one, CampaignConfig)
        removed = {"engine", "jobs", "sim_jobs", "mutant_engine"}
        for api in apis:
            parameters = set(inspect.signature(api).parameters)
            assert not parameters & removed, api.__qualname__

    def test_set_root_context_type_checked(self):
        with pytest.raises(TypeError):
            set_root_context("compiled")


# ----------------------------------------------------------------------
# Environment seeding (the root context)
# ----------------------------------------------------------------------
class TestEnvSeeding:
    def test_full_seed(self):
        context, seeded = _context_from_env({
            "REPRO_SIM_ENGINE": "interpret",
            "REPRO_LEXER": "reference",
            "REPRO_JOBS": "3",
        })
        assert context == SimContext(
            engine=ENGINE_INTERPRET, lexer=LEXER_REFERENCE, jobs=3)
        assert seeded == {"engine", "lexer", "jobs"}

    def test_invalid_lexer_warns_and_falls_back(self, capsys):
        context, seeded = _context_from_env({"REPRO_LEXER": "treebank"})
        assert context.lexer == "master"
        assert "lexer" not in seeded
        assert "REPRO_LEXER" in capsys.readouterr().err

    def test_malformed_jobs_warns_and_falls_back(self, capsys):
        # Satellite fix: a malformed REPRO_JOBS used to raise ValueError
        # out of the campaign's job resolution; now it degrades like
        # REPRO_SIM_ENGINE does.
        context, seeded = _context_from_env({"REPRO_JOBS": "four"})
        assert context.jobs == 1
        assert "jobs" not in seeded
        err = capsys.readouterr().err
        assert "REPRO_JOBS" in err and "four" in err

    def test_jobs_zero_means_all_cores(self):
        import os
        context, seeded = _context_from_env({"REPRO_JOBS": "0"})
        assert context.jobs == (os.cpu_count() or 1)
        assert "jobs" in seeded

    def test_warm_start_knobs_seed(self):
        # REPRO_WARM_START is ignored: it seeds nothing.
        context, seeded = _context_from_env({
            "REPRO_START_METHOD": "spawn",
            "REPRO_WARM_START": "0",
            "REPRO_TEMPLATE_CACHE_SIZE": "64",
            "REPRO_TEMPLATE_CACHE_BUDGET": "512",
        })
        assert context.start_method == "spawn"
        assert context.template_cache_size == 64
        assert context.template_cache_budget == 512
        assert seeded == {"start_method", "template_cache_size",
                          "template_cache_budget"}

    def test_trace_dir_seeds(self, tmp_path):
        context, seeded = _context_from_env(
            {"REPRO_TRACE_DIR": str(tmp_path)})
        assert context.trace_dir == str(tmp_path)
        assert seeded == {"trace_dir"}
        # Unset means tracing stays off.
        assert _context_from_env({})[0].trace_dir == ""

    def test_store_dir_seeds(self, tmp_path):
        context, seeded = _context_from_env(
            {"REPRO_STORE_DIR": str(tmp_path)})
        assert context.store_dir == str(tmp_path)
        assert seeded == {"store_dir"}
        # Unset means campaigns run store-less.
        assert _context_from_env({})[0].store_dir == ""

    def test_mutant_engine_seeds(self):
        context, seeded = _context_from_env(
            {"REPRO_MUTANT_ENGINE": "per-mutant"})
        assert context.mutant_engine == MUTANT_PER_MUTANT
        assert seeded == {"mutant_engine"}
        # Unset means lockstep.
        assert _context_from_env({})[0].mutant_engine == MUTANT_LOCKSTEP

    def test_malformed_mutant_engine_warns_and_falls_back(self, capsys):
        context, seeded = _context_from_env(
            {"REPRO_MUTANT_ENGINE": "icarus"})
        assert context.mutant_engine == MUTANT_LOCKSTEP
        assert "mutant_engine" not in seeded
        err = capsys.readouterr().err
        assert "REPRO_MUTANT_ENGINE" in err and "icarus" in err

    def test_mutant_engine_validated(self):
        with pytest.raises(ValueError):
            SimContext(mutant_engine="schemata")

    def test_trace_and_budget_validated(self):
        with pytest.raises(ValueError):
            SimContext(trace_dir=123)
        with pytest.raises(ValueError):
            SimContext(store_dir=123)
        with pytest.raises(ValueError):
            SimContext(template_cache_budget=0)

    def test_llm_backend_validated(self):
        for spec in ("", "synthetic", "ollama", "openai", "hf",
                     "fixture", "fixture+synthetic", "fixture+hf"):
            assert SimContext(llm_backend=spec).llm_backend == spec
        for spec in ("bard", "fixture+fixture", "fixture+bard",
                     "ollama+fixture", 7):
            with pytest.raises(ValueError, match="llm_backend"):
                SimContext(llm_backend=spec)

    def test_llm_strings_validated(self):
        with pytest.raises(ValueError, match="llm_model"):
            SimContext(llm_model=3)
        with pytest.raises(ValueError, match="llm_base_url"):
            SimContext(llm_base_url=None)

    def test_llm_knobs_seed(self, tmp_path):
        context, seeded = _context_from_env({
            "REPRO_LLM_BACKEND": "fixture+ollama",
            "REPRO_LLM_MODEL": "qwen2.5:7b",
            "REPRO_LLM_BASE_URL": "http://gpu-box:11434",
            "REPRO_LLM_FIXTURE_DIR": str(tmp_path),
        })
        assert context.llm_backend == "fixture+ollama"
        assert context.llm_model == "qwen2.5:7b"
        assert context.llm_base_url == "http://gpu-box:11434"
        assert context.llm_fixture_dir == str(tmp_path)
        assert {"llm_backend", "llm_model", "llm_base_url",
                "llm_fixture_dir"} <= seeded
        # Unset means the synthetic tier.
        assert _context_from_env({})[0].llm_backend == ""

    def test_malformed_llm_backend_warns_and_falls_back(self, capsys):
        context, seeded = _context_from_env(
            {"REPRO_LLM_BACKEND": "bard"})
        assert context.llm_backend == ""
        assert "llm_backend" not in seeded
        err = capsys.readouterr().err
        assert "REPRO_LLM_BACKEND" in err and "bard" in err

    def test_malformed_warm_start_knobs_warn(self, capsys):
        context, seeded = _context_from_env({
            "REPRO_START_METHOD": "teleport",
            "REPRO_WARM_START": "maybe",
            "REPRO_TEMPLATE_CACHE_SIZE": "0",
            "REPRO_TEMPLATE_CACHE_BUDGET": "none",
        })
        assert context == SimContext()
        assert not seeded
        err = capsys.readouterr().err
        assert "REPRO_START_METHOD" in err
        assert "REPRO_WARM_START" not in err  # ignored, not warned about
        assert "REPRO_TEMPLATE_CACHE_SIZE" in err
        assert "REPRO_TEMPLATE_CACHE_BUDGET" in err

    def test_campaign_jobs_prefers_active_context(self):
        with use_context(jobs=5):
            assert resolve_jobs(default=1) == 5
        # Without an activation (and REPRO_JOBS unset in the test env)
        # the caller's default applies.
        assert resolve_jobs(default=7) == 7

    def test_campaign_jobs_honours_steered_root(self):
        original = root_context()
        try:
            set_root_context(original.evolve(jobs=6))
            assert resolve_jobs(default=4) == 6
        finally:
            set_root_context(original)
        assert resolve_jobs(default=4) == 4


# ----------------------------------------------------------------------
# Contexts travel to pool workers / don't leak between items
# ----------------------------------------------------------------------
class TestWorkerIsolation:
    def _driver_and_dut(self):
        task = get_task("cmb_and2")
        return (render_driver(task, task.canonical_scenarios()),
                task.golden_rtl())

    def test_batch_ships_context_to_workers(self):
        driver, dut = self._driver_and_dut()
        # A starved time budget must reach the worker processes: if
        # they fell back to their own root context the runs would
        # succeed.  (max_time starves reliably on both engines; the
        # compiled engine only charges max_stmts at loop back-edges.)
        with use_context(max_time=1, jobs=2):
            runs = run_driver_batch(driver, [dut, dut + " // v2"])
        assert all(run.status == RUNTIME for run in runs)
        # Outside the activation the same batch is healthy again, on
        # the same (persistent) workers.
        with use_context(jobs=2):
            runs = run_driver_batch(driver, [dut, dut + " // v2"])
        assert all(run.ok for run in runs)

    def test_serial_runs_do_not_leak_limits(self):
        driver, dut = self._driver_and_dut()
        with use_context(max_time=1):
            starved = run_driver(driver, dut)
        assert starved.status == RUNTIME
        assert run_driver(driver, dut).ok


# ----------------------------------------------------------------------
# CacheRegistry facade
# ----------------------------------------------------------------------
class TestCacheRegistry:
    def test_registered_layers(self):
        # "llm_responses" registers when repro.llm.backends loads (the
        # campaign module pulls it in), after the simulation layers.
        assert caches.names() == ("tokenize", "parse", "design", "pair",
                                  "failure", "programs", "union",
                                  "llm_responses")

    def test_stats_keys_follow_registration_order(self):
        # Traces and benches read this shape: one entry per
        # stats-capable layer, in registration order.
        assert tuple(caches.stats()) == caches.names()

    def test_selective_clear(self):
        registry = CacheRegistry()
        calls = []
        registry.register("a", clear=lambda: calls.append("a"),
                          stats=lambda: {"n": 1})
        registry.register("b", clear=lambda: calls.append("b"))
        registry.clear("a")
        registry.clear()
        assert calls == ["a", "a", "b"]
        # Entries without a stats fn are skipped by stats().
        assert registry.stats() == {"a": {"n": 1}}

    def test_unknown_names_rejected(self):
        registry = CacheRegistry()
        registry.register("a", clear=lambda: None)
        with pytest.raises(ValueError):
            registry.register("a", clear=lambda: None)
        with pytest.raises(KeyError):
            registry.clear("zz")
        with pytest.raises(KeyError):
            registry.stats("zz")
