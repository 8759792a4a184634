"""Per-layer span tracer for the benchmark's traced run.

The traced run times calls *into* each layer's public functions from
the benchmark's own files: :func:`install` wraps every boundary named
in :data:`BOUNDARIES` on every module binding that holds it (a function
imported with ``from x import f`` lives on in the importing module, so
patching only the defining module would miss those call sites).
Methods are patched on their class once.

Each wrapped call is a span.  Spans nest on a per-thread stack; a
layer's *self time* is its span time minus the time of the spans it
directly contains, so the self times of all layers add up to the time
spent inside traced code.  Spans are aggregated as they close
(``calls`` and ``self_s`` per layer) instead of being kept one by one:
a campaign closes hundreds of thousands of them.

Counters recorded at the same boundaries (tokens, sweep lanes and
fallbacks, validator accepts, checker crashes) make the per-layer
ratios.  Forked pool workers start from a reset tracer and report
through :meth:`Tracer.dump`; :func:`merge` adds their tables back in.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

#: ``(layer, module, attribute)``; ``attribute`` is ``Class.method`` for
#: methods.  Order is the report order.
BOUNDARIES = (
    ("llm", "repro.llm.base", "MeteredClient.complete"),
    ("core.generator", "repro.core.generator", "AutoBenchGenerator.generate"),
    ("core.generator", "repro.core.baseline", "DirectBaseline.generate"),
    ("core.rtl_group", "repro.core.rtl_group", "build_rtl_group"),
    ("core.corrector", "repro.core.corrector", "Corrector.correct"),
    ("core.validator", "repro.core.validator", "ScenarioValidator.validate"),
    ("core.checker_runtime", "repro.core.checker_runtime", "run_checker"),
    ("core.simulation.sweep", "repro.core.simulation", "run_mutant_sweep"),
    ("core.simulation.driver", "repro.core.simulation", "run_driver"),
    ("core.simulation.driver", "repro.core.simulation", "run_driver_batch"),
    ("core.simulation.driver", "repro.core.simulation", "run_monolithic"),
    ("hdl.lockstep", "repro.hdl.lockstep", "build_union"),
    ("hdl.lexer", "repro.hdl.lexer", "tokenize"),
    ("hdl.parser", "repro.hdl.parser", "Parser.parse_source"),
    ("hdl.elaborate", "repro.hdl.elaborate", "elaborate"),
    ("hdl.compile", "repro.hdl.compile", "compile_spec"),
    ("hdl.simulator", "repro.hdl.simulator", "Simulator.run"),
    ("eval.autoeval", "repro.eval.autoeval", "evaluate"),
    ("eval.store", "repro.eval.store", "CampaignStore.put"),
    ("eval.store", "repro.eval.store", "CampaignStore.save_snapshot"),
    ("eval.campaign", "repro.eval.campaign", "prewarm_campaign_caches"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in BOUNDARIES))

#: Counters every traced run reports (zero when the layer never ran).
COUNTERS = ("llm.tokens", "core.validator.accepts",
            "core.checker_runtime.crashes",
            "core.simulation.sweep_hybrid",
            "core.simulation.sweep_lanes", "core.simulation.sweep_fallbacks",
            "core.simulation.sweep_limit_fallbacks",
            "core.simulation.sweep_limit_lanes",
            "core.simulation.sweeps_fallback_or_limit",
            "eval.campaign.pool_wait_s", "eval.store.bytes")


class Tracer:
    """Thread-aware span aggregator (one per process)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def reset(self) -> None:
        """Forget everything (a forked worker starts empty)."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _thread_state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = {}
            local.limits = []  # open sweeps' SimulationLimit messages
            with self._lock:
                self._tables.append(local.table)
        return local

    def span(self, layer: str, fn, args, kwargs):
        state = self._thread_state()
        stack = state.stack
        frame = [0.0]  # time covered by direct child spans
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            entry = state.table.get(layer)
            if entry is None:
                entry = state.table[layer] = [0, 0.0]
            entry[0] += 1
            entry[1] += elapsed - frame[0]

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def layers(self) -> dict:
        """``{layer: [calls, self_s]}`` summed over threads."""
        totals: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, (calls, self_s) in list(table.items()):
                entry = totals.setdefault(layer, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        return totals

    def dump(self) -> dict:
        with self._lock:
            counters = dict(self.counters)
        return {"layers": self.layers(), "counters": counters}


TRACER = Tracer()


def merge(total: dict, part: dict) -> dict:
    """Add one :meth:`Tracer.dump` into another (in place)."""
    for layer, (calls, self_s) in part["layers"].items():
        entry = total["layers"].setdefault(layer, [0, 0.0])
        entry[0] += calls
        entry[1] += self_s
    for name, value in part["counters"].items():
        total["counters"][name] = total["counters"].get(name, 0) + value
    return total


# ----------------------------------------------------------------------
# Result hooks: counters measured where the work happens
# ----------------------------------------------------------------------
def _after_llm(response, args, kwargs):
    usage = response.usage
    TRACER.count("llm.tokens", usage.input_tokens + usage.output_tokens)


def _after_validate(report, args, kwargs):
    if report.verdict:
        TRACER.count("core.validator.accepts")


def _after_checker(report, args, kwargs):
    if not report.ok:
        TRACER.count("core.checker_runtime.crashes")


def _sweep_span(layer, fn, args, kwargs):
    """A sweep span that also counts lanes, fallbacks and limit hits.

    A lane "hit a limit" when its run carries the message of a
    ``SimulationLimit`` raised by a simulation inside this sweep, which
    is how ``run_driver`` reports one; no message text is assumed.
    """
    from repro.hdl.errors import SimulationLimit

    state = TRACER._thread_state()
    messages: set = set()
    state.limits.append(messages)
    try:
        sweep = TRACER.span(layer, fn, args, kwargs)
    finally:
        state.limits.pop()
    lanes = list(sweep.runs) + ([sweep.golden] if sweep.golden else [])
    TRACER.count("core.simulation.sweep_lanes", len(lanes))
    kind = kwargs.get("kind", args[3] if len(args) > 3 else "hybrid")
    # Monolithic verdicts travel on stdout, so those sweeps always run
    # per-mutant by design: not a fallback of the lockstep engine.
    if kind != "monolithic":
        TRACER.count("core.simulation.sweep_hybrid")
        if sweep.fallback_reason:
            TRACER.count("core.simulation.sweep_fallbacks")
            # The reason is "<exception type>: <message>".
            if sweep.fallback_reason.startswith(SimulationLimit.__name__):
                TRACER.count("core.simulation.sweep_limit_fallbacks")
        if sweep.fallback_reason or messages:
            TRACER.count("core.simulation.sweeps_fallback_or_limit")
    TRACER.count("core.simulation.sweep_limit_lanes",
                 sum(1 for run in lanes if run.detail in messages))
    return sweep


def _simulator_span(layer, fn, args, kwargs):
    from repro.hdl.errors import SimulationLimit

    try:
        return TRACER.span(layer, fn, args, kwargs)
    except SimulationLimit as exc:
        for messages in TRACER._thread_state().limits:
            messages.add(str(exc))
        raise


_AFTER = {"MeteredClient.complete": _after_llm,
          "ScenarioValidator.validate": _after_validate,
          "run_checker": _after_checker}
_SPAN = {"run_mutant_sweep": _sweep_span, "Simulator.run": _simulator_span}


def _wrap(layer: str, name: str, fn):
    after = _AFTER.get(name)
    span = _SPAN.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if span is not None:
            return span(layer, fn, args, kwargs)
        result = TRACER.span(layer, fn, args, kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    traced.__bench_original__ = fn
    return traced


def install() -> dict:
    """Wrap every boundary; returns ``{attribute: bindings patched}``.

    Call after the program's modules are imported: bindings are found
    by scanning the loaded ``repro`` modules for the original object.
    """
    patched = {}
    for layer, module_name, attribute in BOUNDARIES:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(module, class_name)
            original = cls.__dict__[method]
            if hasattr(original, "__bench_original__"):
                raise RuntimeError(f"{attribute} is already traced")
            setattr(cls, method, _wrap(layer, attribute, original))
            patched[attribute] = 1
            continue
        original = getattr(module, attribute)
        if hasattr(original, "__bench_original__"):
            raise RuntimeError(f"{attribute} is already traced")
        traced = _wrap(layer, attribute, original)
        count = 0
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)
                    count += 1
        patched[attribute] = count
    os.register_at_fork(after_in_child=TRACER.reset)
    return patched


# ----------------------------------------------------------------------
# Campaign pool plumbing
# ----------------------------------------------------------------------
class _TimedPool:
    """Pool proxy: time the parent spends blocked on ``map`` results."""

    def __init__(self, pool):
        self._pool = pool

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def map(self, *args, **kwargs):
        results = self._pool.map(*args, **kwargs)

        def timed():
            while True:
                started = time.perf_counter()
                try:
                    item = TRACER.span("eval.campaign", next,
                                       (results,), {})
                except StopIteration:
                    return
                finally:
                    TRACER.count("eval.campaign.pool_wait_s",
                                 time.perf_counter() - started)
                yield item

        return timed()


def time_pool_waits() -> None:
    """Route the campaign's pool through :class:`_TimedPool`."""
    import repro.eval.campaign as campaign

    get_sim_pool = campaign.get_sim_pool

    @functools.wraps(get_sim_pool)
    def timed_get_sim_pool(*args, **kwargs):
        return _TimedPool(get_sim_pool(*args, **kwargs))

    campaign.get_sim_pool = timed_get_sim_pool


def cache_counts() -> dict:
    """``{layer: [hits, lookups]}`` from the cache registry."""
    from repro.core.caches import caches

    stats = caches.stats()
    counts = {}
    for layer in ("tokenize", "parse", "pair", "union", "design"):
        counts[layer] = [stats[layer]["hits"],
                         stats[layer]["hits"] + stats[layer]["misses"]]
    failure = stats["failure"]
    counts["failure"] = [failure["hits"],
                         failure["hits"] + failure["recorded"]]
    programs = stats["programs"]
    counts["program"] = [programs["programs_shared"],
                         programs["programs_shared"]
                         + programs["programs_compiled"]]
    return counts


def count_delta(after: dict, before: dict) -> dict:
    return {layer: [after[layer][0] - before[layer][0],
                    after[layer][1] - before[layer][1]] for layer in after}


def write_json(path: str, payload) -> None:
    """Atomically replace ``path`` with ``payload`` as JSON."""
    partial = f"{path}.{os.getpid()}.part"
    with open(partial, "w") as handle:
        json.dump(payload, handle)
    os.replace(partial, path)
