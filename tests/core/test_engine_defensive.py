"""Explicit regression tests for the engine's defensive paths.

PR 1 fixed ``$finish`` escaping ``_run_comb``, added ``RecursionError``
handling to the run_* wrappers and a fallback for an invalid
``REPRO_SIM_ENGINE`` — previously these were only exercised incidentally
(via the corpus fixture / one monolithic test).  This file pins each
path directly, on both engines where applicable.
"""

import pytest

import repro.core.simulation as sim
from repro.core.simulation import RUNTIME, run_driver, run_monolithic
from repro.hdl import simulate
from repro.hdl.context import (ENGINE_COMPILED, ENGINE_INTERPRET,
                               _context_from_env, current_context,
                               use_context)

FINISH_IN_COMB = """
module tb;
    reg go;
    always @(*) if (go) $finish;
    initial begin
        go = 0;
        #5 go = 1;
        #10 $display("unreachable");
    end
endmodule
"""

FINISH_IN_COMB_AT_T0 = """
module tb;
    reg stop;
    wire w = stop;
    always @(*) if (stop) $finish;
    initial stop = 1;
endmodule
"""


class TestFinishInsideCombProcess:
    @pytest.mark.parametrize("engine", [ENGINE_COMPILED, ENGINE_INTERPRET])
    def test_finish_ends_run_cleanly(self, engine):
        # $finish raised inside a combinational process must terminate
        # the run via finish_requested — not escape Simulator.run() as
        # an internal exception, and not execute later events.
        result = simulate(FINISH_IN_COMB, "tb", engine=engine)
        assert result.finished
        assert result.sim_time == 5
        assert result.stdout == []

    @pytest.mark.parametrize("engine", [ENGINE_COMPILED, ENGINE_INTERPRET])
    def test_finish_at_time_zero(self, engine):
        result = simulate(FINISH_IN_COMB_AT_T0, "tb", engine=engine)
        assert result.finished
        assert result.sim_time == 0


class _RecursionBoom:
    def run(self, **kwargs):
        raise RecursionError


class TestRecursionErrorHandling:
    TB = "module tb; initial $finish; endmodule"
    DUT = "module top_module(); endmodule"

    def test_run_monolithic_reports_runtime(self, monkeypatch):
        monkeypatch.setattr(sim, "_pair_template",
                            lambda *args: _RecursionBoom())
        run = run_monolithic(self.TB, self.DUT)
        assert run.status == RUNTIME
        assert "recursion" in run.detail

    def test_run_driver_reports_runtime(self, monkeypatch):
        # run_driver has the same defensive path as run_monolithic.
        monkeypatch.setattr(sim, "_pair_template",
                            lambda *args: _RecursionBoom())
        run = run_driver(self.TB, self.DUT)
        assert run.status == RUNTIME
        assert "recursion" in run.detail


class TestEngineSelectionFallback:
    def test_invalid_env_value_falls_back_with_warning(self, capsys):
        context, seeded = _context_from_env(
            {"REPRO_SIM_ENGINE": "warp-drive"})
        assert context.engine == ENGINE_COMPILED
        assert "engine" not in seeded
        err = capsys.readouterr().err
        assert "REPRO_SIM_ENGINE" in err
        assert "warp-drive" in err

    def test_valid_env_values_accepted(self, capsys):
        for engine in (ENGINE_COMPILED, ENGINE_INTERPRET):
            context, seeded = _context_from_env(
                {"REPRO_SIM_ENGINE": engine})
            assert context.engine == engine
            assert "engine" in seeded
        assert capsys.readouterr().err == ""

    def test_unset_env_defaults_to_compiled(self):
        context, seeded = _context_from_env({})
        assert context.engine == ENGINE_COMPILED
        assert not seeded

    def test_simulator_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            simulate(self_checking_src(), "tb", engine="quantum")
        with pytest.raises(ValueError):
            with use_context(engine="quantum"):
                pass

    def test_default_engine_roundtrip_after_fallback(self):
        # An activation selects the engine and restores the default on
        # exit.
        original = current_context().engine
        with use_context(engine=ENGINE_INTERPRET):
            result = simulate(self_checking_src(), "tb")
        assert result.finished
        assert current_context().engine == original


def self_checking_src() -> str:
    return "module tb; initial begin $display(\"ok\"); $finish; end endmodule"
