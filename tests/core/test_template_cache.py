"""DesignTemplate caching layers: failure caching, LRU behavior under
campaign-scale churn, per-task scoping, the capacity knob, and
stamped-state isolation between concurrent checkouts."""

import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.simulation as sim
from repro.core.caches import caches, use_task_scope
from repro.core.simulation import ELABORATION, design_template, run_driver
from repro.codegen import render_driver
from repro.hdl import use_context
from repro.hdl.errors import ElaborationError, VerilogSyntaxError
from repro.problems import get_task

BAD_ELAB = ("module m(output o);\n"
            "assign o = ghost;\n"
            "endmodule")
BAD_SYNTAX = "module m(; endmodule"
GOOD = ("module m(output o);\n"
        "wire ghost = 1'b0;\n"
        "assign o = ghost;\n"
        "endmodule")


def _front_end_must_not_run(*args, **kwargs):
    raise AssertionError("front end re-ran for a cached failure")


class TestFailureCaching:
    def test_elaboration_failure_cached_with_fidelity(self, monkeypatch):
        caches.clear()
        with pytest.raises(ElaborationError) as first:
            design_template(BAD_ELAB, "m")
        hits_before = caches.stats()["failure"]["hits"]

        # The recorded failure must re-raise without re-elaborating.
        monkeypatch.setattr(sim, "elaborate", _front_end_must_not_run)
        with pytest.raises(ElaborationError) as second:
            design_template(BAD_ELAB, "m")
        assert type(second.value) is type(first.value)
        assert str(second.value) == str(first.value)
        assert caches.stats()["failure"]["hits"] \
            == hits_before + 1

    def test_syntax_failure_cached(self, monkeypatch):
        caches.clear()
        with pytest.raises(VerilogSyntaxError) as first:
            design_template(BAD_SYNTAX, "m")
        monkeypatch.setattr(sim, "parse_cached", _front_end_must_not_run)
        monkeypatch.setattr(sim, "elaborate", _front_end_must_not_run)
        with pytest.raises(VerilogSyntaxError) as second:
            design_template(BAD_SYNTAX, "m")
        assert str(second.value) == str(first.value)

    def test_repeated_hits_do_not_grow_traceback(self):
        """The cached exception instance is shared across hits; each
        re-raise must shed the previous traceback instead of chaining
        frames forever (a hit-proportional memory leak otherwise)."""
        caches.clear()
        depths = []
        for _ in range(5):
            try:
                design_template(BAD_ELAB, "m")
            except ElaborationError as exc:
                depth, tb = 0, exc.__traceback__
                while tb is not None:
                    depth += 1
                    tb = tb.tb_next
                depths.append(depth)
        assert len(depths) == 5
        # Every cache hit re-raises with the same, constant-depth
        # traceback — no growth across hits.
        assert len(set(depths[1:])) == 1

    def test_source_change_invalidates(self):
        """A fixed source is a new key: the failure for the broken text
        must not shadow the corrected design."""
        caches.clear()
        with pytest.raises(ElaborationError):
            design_template(BAD_ELAB, "m")
        template = design_template(GOOD, "m")
        result = template.run()
        assert result.design.signal("o").value.to_uint() == 0

    def test_clear_drops_cached_failures(self, monkeypatch):
        caches.clear()
        with pytest.raises(ElaborationError):
            design_template(BAD_ELAB, "m")
        assert caches.stats()["failure"]["size"] == 1
        caches.clear()
        assert caches.stats()["failure"]["size"] == 0
        # After clearing, the front end genuinely re-runs.
        with pytest.raises(ElaborationError):
            design_template(BAD_ELAB, "m")

    def test_pair_failures_cached_through_run_driver(self):
        """Non-elaborating mutants in a sweep hit the failure cache on
        every run after the first, with an identical detail string."""
        caches.clear()
        task = get_task("cmb_eq4")
        driver = render_driver(task, task.canonical_scenarios())
        bad_dut = ("module top_module(input x, output y);\n"
                   "assign y = x;\n"
                   "endmodule")
        first = run_driver(driver, bad_dut)
        assert first.status == ELABORATION
        hits_before = caches.stats()["failure"]["hits"]
        second = run_driver(driver, bad_dut)
        assert second.status == ELABORATION
        assert second.detail == first.detail
        assert caches.stats()["failure"]["hits"] > hits_before


# ----------------------------------------------------------------------
# LRU behavior under churn
# ----------------------------------------------------------------------
LRU_SIZE = 256


def _tiny_src(index: int) -> str:
    return ("module m;\n"
            f"    localparam V = {index};\n"
            "    wire [9:0] w = V;\n"
            "endmodule")


def test_eviction_order_is_lru():
    caches.clear()
    first = design_template(_tiny_src(0), "m")
    for index in range(1, LRU_SIZE + 1):
        design_template(_tiny_src(index), "m")
    # 257 distinct keys through a 256-entry LRU: the oldest fell out...
    assert design_template(_tiny_src(0), "m") is not first
    # ...and a recently-inserted key survived (identity preserved).
    recent = design_template(_tiny_src(LRU_SIZE), "m")
    assert design_template(_tiny_src(LRU_SIZE), "m") is recent


@settings(max_examples=5, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=299),
                min_size=1, max_size=320))
def test_lru_agrees_with_model(accesses):
    """Random access sequences against an explicit LRU model: a key the
    model still holds must return the identical template object; the
    model mirrors lru_cache's move-to-front-on-hit policy exactly."""
    caches.clear()
    model: OrderedDict = OrderedDict()
    for index in accesses:
        expected = model.get(index)
        template = design_template(_tiny_src(index), "m")
        if expected is not None:
            assert template is expected, \
                "cache dropped or replaced a live entry"
            model.move_to_end(index)
        else:
            model[index] = template
            if len(model) > LRU_SIZE:
                model.popitem(last=False)
    assert caches.stats()["design"]["size"] <= LRU_SIZE


# ----------------------------------------------------------------------
# Capacity knob + per-task scoping
# ----------------------------------------------------------------------
class TestCapacityKnob:
    def test_template_cache_size_applies(self):
        """``SimContext.template_cache_size`` bounds the active scope's
        bucket: a tiny capacity evicts at the knob, not at 256."""
        caches.clear()
        with use_context(template_cache_size=2):
            first = design_template(_tiny_src(0), "m")
            design_template(_tiny_src(1), "m")
            design_template(_tiny_src(2), "m")  # evicts index 0 (LRU)
            survivor = design_template(_tiny_src(2), "m")
            assert design_template(_tiny_src(2), "m") is survivor
            assert design_template(_tiny_src(0), "m") is not first

    def test_capacity_validated_on_context(self):
        with pytest.raises(ValueError):
            use_context(template_cache_size=0).__enter__()


class TestTaskScoping:
    def test_scopes_isolate_eviction(self):
        """A mutant flood in one task's scope must not evict another
        task's warm templates — the open-item scenario (156 tasks x
        mutants x judges interleaved by a campaign)."""
        caches.clear()
        with use_context(template_cache_size=2):
            with use_task_scope("task-a"):
                kept0 = design_template(_tiny_src(0), "m")
                kept1 = design_template(_tiny_src(1), "m")
            with use_task_scope("task-b"):  # churn far past capacity
                for index in range(2, 10):
                    design_template(_tiny_src(index), "m")
            with use_task_scope("task-a"):
                assert design_template(_tiny_src(0), "m") is kept0
                assert design_template(_tiny_src(1), "m") is kept1

    def test_same_key_distinct_per_scope(self):
        caches.clear()
        with use_task_scope("task-a"):
            in_a = design_template(_tiny_src(0), "m")
        with use_task_scope("task-b"):
            in_b = design_template(_tiny_src(0), "m")
        assert in_a is not in_b
        assert caches.stats()["design"]["scopes"] == 2

    def test_scope_bound_covers_full_dataset(self):
        """The outer scope LRU must hold at least the 156-task benchmark
        population, or a full-dataset campaign prewarm would evict its
        own earliest tasks before the pool ever snapshots them."""
        from repro.core.caches import DEFAULT_MAX_SCOPES
        caches.clear()
        assert DEFAULT_MAX_SCOPES >= 156
        for index in range(200):
            with use_task_scope(f"task-{index}"):
                design_template(_tiny_src(index % 4), "m")
        stats = caches.stats()["design"]
        assert stats["scopes"] == min(200, DEFAULT_MAX_SCOPES)
        # Churn past the bound retires whole scopes, oldest first.
        with use_task_scope("task-0"):
            fresh = design_template(_tiny_src(0), "m")
        with use_task_scope("task-199"):
            survivor = design_template(_tiny_src(199 % 4), "m")
            assert design_template(_tiny_src(199 % 4), "m") is survivor
        assert fresh is not None

    def test_default_scope_is_shared(self):
        caches.clear()
        template = design_template(_tiny_src(0), "m")
        with use_task_scope(None):
            assert design_template(_tiny_src(0), "m") is template


class TestGlobalBudget:
    """``SimContext.template_cache_budget`` bounds total resident
    entries across all scopes (the ROADMAP open item: per-scope LRUs
    alone admit ``capacity * max_scopes`` entries)."""

    def test_budget_sheds_cold_scopes(self):
        caches.clear()
        with use_context(template_cache_size=4,
                         template_cache_budget=5):
            with use_task_scope("cold"):
                cold = design_template(_tiny_src(0), "m")
                design_template(_tiny_src(1), "m")
            with use_task_scope("warm"):
                for index in range(2, 7):  # 4 resident + 2 cold > 5
                    design_template(_tiny_src(index), "m")
            stats = caches.stats()["design"]
            assert stats["size"] <= 5
            assert stats["shed_scopes"] >= 1
            # The cold scope paid the cost; revisiting re-elaborates.
            with use_task_scope("cold"):
                assert design_template(_tiny_src(0), "m") is not cold

    def test_inserting_scope_survives_shedding(self):
        caches.clear()
        with use_context(template_cache_size=8,
                         template_cache_budget=4):
            with use_task_scope("other"):
                design_template(_tiny_src(0), "m")
            with use_task_scope("active"):
                kept = [design_template(_tiny_src(index), "m")
                        for index in range(1, 7)]
                # Over budget with a single remaining scope: the active
                # bucket is never shed out from under its own insertion.
                for index, template in enumerate(kept, start=1):
                    assert design_template(_tiny_src(index), "m") \
                        is template
        stats = caches.stats()["design"]
        assert stats["scopes"] == 1
        assert stats["shed_scopes"] == 1

    def test_default_budget_covers_campaign_working_set(self):
        from repro.hdl.context import (DEFAULT_TEMPLATE_CACHE_BUDGET,
                                       SimContext)
        # A full-dataset prewarm (156 tasks, a handful of templates
        # each) must fit without shedding.
        assert DEFAULT_TEMPLATE_CACHE_BUDGET >= 156 * 8
        assert SimContext().template_cache_budget \
            == DEFAULT_TEMPLATE_CACHE_BUDGET

    def test_clear_resets_shed_counter(self):
        caches.clear()
        assert caches.stats()["design"]["shed_scopes"] == 0


@settings(max_examples=5, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["task-a", "task-b", None]),
                          st.integers(min_value=0, max_value=9)),
                min_size=1, max_size=120))
def test_scoped_lru_agrees_with_model(accesses):
    """The per-task scoping extension of ``test_lru_agrees_with_model``:
    each scope behaves as its own move-to-front LRU at the context's
    capacity, and accesses in one scope never disturb another's."""
    capacity = 4
    caches.clear()
    model: dict = {}
    with use_context(template_cache_size=capacity):
        for scope, index in accesses:
            bucket = model.setdefault(scope, OrderedDict())
            expected = bucket.get(index)
            with use_task_scope(scope):
                template = design_template(_tiny_src(index), "m")
            if expected is not None:
                assert template is expected, \
                    "cache dropped or replaced a live entry"
                bucket.move_to_end(index)
            else:
                bucket[index] = template
                if len(bucket) > capacity:
                    bucket.popitem(last=False)
    stats = caches.stats()["design"]
    assert stats["size"] == sum(len(b) for b in model.values())
    assert stats["scopes"] == len(model)


# ----------------------------------------------------------------------
# Stamped-state isolation between concurrent checkouts
# ----------------------------------------------------------------------
STATEFUL_TB = """
module tb;
    reg [7:0] count;
    integer i;
    initial begin
        count = 8'd1;
        for (i = 0; i < 5; i = i + 1) count = count + count;
        #3 $display("count=%d t=%0t", count, $time);
        $finish;
    end
endmodule
"""


def test_concurrent_checkouts_are_isolated():
    """Many threads re-running the same (and a second) template must
    each observe a full, uncontaminated run: the template's stamped
    state never leaks between checkouts."""
    caches.clear()
    template_a = design_template(STATEFUL_TB, "tb")
    template_b = design_template(STATEFUL_TB.replace("5", "3"), "tb")
    ref_a = template_a.run()
    ref_b = template_b.run()
    assert ref_a.stdout != ref_b.stdout  # genuinely different designs

    outcomes: list = []
    errors: list = []

    def worker(template, reference):
        try:
            for _ in range(8):
                result = template.run()
                outcomes.append(
                    (tuple(result.stdout), result.sim_time,
                     result.finished) ==
                    (tuple(reference.stdout), reference.sim_time, True))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(template_a, ref_a))
               for _ in range(3)]
    threads += [threading.Thread(target=worker, args=(template_b, ref_b))
                for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(outcomes) == 48
    assert all(outcomes)
