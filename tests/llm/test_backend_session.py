"""End-to-end acceptance: every live adapter drives a full CorrectBench
correction session against the scripted stub server, offline.

The script is produced by a synthetic dry run of the same (task, seed):
its trace gives the exact response sequence the session consumes, and
because the pipeline's prompts are a pure function of the task and the
responses so far, serving those responses through a real HTTP adapter
reproduces the same session — same verdicts, same correction count,
and (the stub serves the recorded token tallies) the same Usage, byte
for byte.

The fault-sequence tests pin the resilience acceptance criteria: two
429s then a timeout then success completes a correction round without
surfacing an error; a spent retry budget fails with a typed
``BackendError``.

The live-campaign test runs a parallel campaign against the stub: its
items go to threads, never to the simulation process pool.
"""

import threading

import pytest
from stub_server import error, ok, stall

import repro.eval.campaign as campaign_mod
from repro.core.agent import CorrectBenchWorkflow
from repro.core.trace import MemoryTraceSink
from repro.core.validator import DEFAULT_CRITERION
from repro.eval import (METHOD_AUTOBENCH, METHOD_BASELINE, default_config,
                        run_campaign)
from repro.hdl.context import current_context
from repro.llm import MeteredClient, UsageMeter, get_profile
from repro.llm.backends import (BackendError, BudgetExhausted,
                                ResilientBackend, RetryPolicy,
                                create_backend)
from repro.llm.synthetic import SyntheticLLM
from repro.problems import get_task

TASK, SEED = "cmb_add16", 0  # this session takes 3 correction rounds

ADAPTERS = ("ollama", "openai", "hf")


@pytest.fixture(scope="module")
def dry_run():
    """The synthetic session whose responses script the stub."""
    sink = MemoryTraceSink()
    meter = UsageMeter()
    client = MeteredClient(
        SyntheticLLM(get_profile("gpt-4o-mini"), seed=SEED), meter)
    workflow = CorrectBenchWorkflow(client, get_task(TASK),
                                    DEFAULT_CRITERION, trace_sink=sink)
    result = workflow.run()
    assert result.corrections > 0, "the e2e session must correct"
    exchanges = [e for e in sink.events if e["type"] == "exchange"]
    return result, exchanges, meter


def _script_from(exchanges):
    return [ok(e["response"], e["usage"]["input_tokens"],
               e["usage"]["output_tokens"], model="stub-model")
            for e in exchanges]


def _run_session(client):
    meter = UsageMeter()
    workflow = CorrectBenchWorkflow(MeteredClient(client, meter),
                                    get_task(TASK), DEFAULT_CRITERION)
    return workflow.run(), meter


class TestAdapterSessions:
    @pytest.mark.parametrize("adapter", ADAPTERS)
    def test_full_correction_session_over_the_wire(self, adapter, stub,
                                                   dry_run):
        expected, exchanges, expected_meter = dry_run
        stub.script(_script_from(exchanges))
        backend = create_backend(adapter, "stub-model",
                                 base_url=stub.base_url, timeout=30.0)
        result, meter = _run_session(backend)

        assert result.validated == expected.validated
        assert result.corrections == expected.corrections
        assert result.reboots == expected.reboots
        # Usage replays byte-identically: the stub served the recorded
        # token tallies and the adapter parsed them off the wire.
        assert meter.total == expected_meter.total
        assert meter.by_kind() == expected_meter.by_kind()
        assert meter.request_count == len(exchanges)
        assert len(stub.requests) == len(exchanges)
        assert stub.unserved == 0

    def test_adapters_send_distinct_dialects(self, stub, dry_run):
        _, exchanges, _ = dry_run
        stub.script(_script_from(exchanges))
        backend = create_backend("ollama", "stub-model",
                                 base_url=stub.base_url, timeout=30.0)
        _run_session(backend)
        assert {r["path"] for r in stub.requests} == {"/api/chat"}


class TestFaultSequence:
    def test_429_429_timeout_then_success_completes_the_session(
            self, stub, dry_run):
        expected, exchanges, expected_meter = dry_run
        # The first exchange weathers two 429s and a read timeout
        # before its answer arrives; everything after runs clean.
        stub.script([error(429, retry_after=0.01), error(429),
                     stall(0.6)] + _script_from(exchanges))
        backend = create_backend("openai", "stub-model",
                                 base_url=stub.base_url, timeout=0.25)
        resilient = ResilientBackend(
            backend,
            policy=RetryPolicy(max_attempts=4, base_delay=0.01,
                               jitter=0.0))
        result, meter = _run_session(resilient)

        assert result.validated == expected.validated
        assert result.corrections == expected.corrections
        assert meter.total == expected_meter.total
        assert resilient.retries == 3  # 429, 429, timeout
        assert len(stub.requests) == len(exchanges) + 3
        assert stub.unserved == 0

    def test_spent_retry_budget_is_a_typed_backend_error(self, stub):
        stub.script([error(500)] * 3)
        backend = create_backend("ollama", "stub-model",
                                 base_url=stub.base_url, timeout=5.0)
        resilient = ResilientBackend(
            backend,
            policy=RetryPolicy(max_attempts=3, base_delay=0.01,
                               jitter=0.0))
        with pytest.raises(BudgetExhausted) as excinfo:
            _run_session(resilient)
        assert isinstance(excinfo.value, BackendError)
        assert excinfo.value.__cause__ is not None
        assert excinfo.value.__cause__.status == 500


class TestLiveCampaign:
    TASKS = ("cmb_and2", "cmb_eq4", "seq_dff")

    def test_parallel_live_campaign_runs_on_threads(
            self, stub, clean_response_cache, monkeypatch):
        # Every request gets the same reply, so the answers do not
        # depend on the order concurrent items reach the stub.
        golden = get_task("cmb_and2").golden_rtl()
        stub.script([ok(f"```verilog\n{golden}\n```", 10, 20)] * 400)
        context = current_context().evolve(
            llm_backend="openai", llm_model="stub-model",
            llm_base_url=stub.base_url)

        def no_pool(*args, **kwargs):
            raise AssertionError("live items must not use the sim pool")

        worker = campaign_mod._worker
        threads = set()

        def thread_recording_worker(item):
            threads.add(threading.current_thread().name)
            return worker(item)

        monkeypatch.setattr(campaign_mod, "get_sim_pool", no_pool)
        monkeypatch.setattr(campaign_mod, "_worker",
                            thread_recording_worker)

        def campaign(n_jobs):
            clean_response_cache.clear()
            config = default_config(
                task_ids=self.TASKS, seeds=(0,), n_jobs=n_jobs,
                methods=(METHOD_BASELINE, METHOD_AUTOBENCH),
                context=context)
            return run_campaign(config).runs

        serial = campaign(1)
        assert threads == {threading.current_thread().name}
        threads.clear()
        assert campaign(2) == serial
        assert threads and all(name.startswith("repro-llm")
                               for name in threads)
