"""Simulation glue: run drivers/testbenches against DUT sources.

This module replaces the ``iverilog + vvp`` invocation of the original
system with the in-process :mod:`repro.hdl` simulator, and layers design
reuse on top of it:

- **parse cache** — text-keyed (:func:`parse_cached`); the validator
  simulates the same driver against 20 RTL samples and AutoEval runs the
  same testbench against 10 mutants.  A text-keyed *tokenize* cache sits
  underneath (:func:`repro.hdl.lexer.tokenize_cached`): mutants that
  only perturb a few tokens still re-lex (quickly, through the
  master-regex tokenizer), but repeated sources — including sources
  that lex and then fail to *parse* — skip the lexer entirely.
- **elaboration cache** — :func:`design_template` keys a fully
  elaborated + compiled design by ``(source_text, top)``.  The cached
  :class:`DesignTemplate` owns the design *structure* (signals, process
  closures); each run stamps out fresh runtime state (signal values,
  memory words, scheduler queues) before simulating, so repeated runs of
  the same design pay parse/elaborate/compile exactly once.  Failing
  ``(source, top)`` pairs are cached too: non-elaborating mutants
  re-raise their recorded error instead of re-running the front end.
- **batched execution** — :func:`run_driver_batch` /
  :func:`run_monolithic_batch` fan one shared testbench across many DUT
  variants, deduplicating identical sources and optionally spreading
  the work across the *persistent* worker pool (:func:`get_sim_pool`):
  created lazily, reused by every batch and campaign in the process,
  torn down atexit.  Only a top-level process opens that pool: a
  process started by :mod:`multiprocessing` (a campaign's pool worker,
  a shard) runs its batches in-process, because the pool it belongs to
  already fills the cores.

One layer below, :mod:`repro.hdl.compile` shares slot-indexed compiled
programs across elaborations, so even a *fresh* (driver, DUT) pairing
only re-binds the driver's programs instead of recompiling them.

The execution engine (``compiled`` closures vs the reference
``interpret`` walker), the mutant-sweep strategy, the simulation limits
and the batch worker count resolve through the
:class:`~repro.hdl.context.SimContext` (explicit ``context=`` argument >
``use_context`` activation > env-seeded root context); batch APIs ship
the resolved context to pool workers as part of each work item, so a
worker never falls back to its own process defaults.  All cache layers
register with :data:`repro.core.caches.caches`, the one handle for
clearing them (``caches.clear(...)``) and reading their counters
(``caches.stats()``).

Pool workers fill their own caches: a forked worker starts with a copy
of the parent's, a spawn/forkserver worker starts empty, and either
keeps what it builds for the life of the pool.  ``SimContext.start_method``
selects the start method; :func:`sim_pool_info` reports the live pool's
state.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import re
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..hdl import ast as hdl_ast
from ..hdl.compile import (begin_warm_start, clear_program_cache,
                           end_warm_start, program_cache_stats)
from ..hdl.context import (MUTANT_LOCKSTEP, MUTANT_PER_MUTANT,
                           START_METHOD_DEFAULT, SimContext,
                           current_context, use_context)
from ..hdl.elaborate import Design, elaborate
from ..hdl.errors import ElaborationError, HdlError, VerilogSyntaxError
from ..hdl.lexer import token_cache
from ..hdl.parser import parse_cache, parse_source_cached
from ..hdl.simulator import SimulationResult, Simulator
from ..hdl import lockstep as lockstep_mod
from ..hdl.lockstep import (LockstepUnsupported, build_union,
                            clear_lockstep_caches, lockstep_cache_stats)
from ..codegen.driver import DUMP_FILE
from .caches import ScopedLruCache, caches, use_task_scope

# Failure taxonomy used throughout evaluation:
SYNTAX = "syntax"          # does not parse (Eval0 fails)
ELABORATION = "elaboration"  # parses but does not elaborate
RUNTIME = "runtime"        # simulation crashed / no dump produced
OK = "ok"


# ----------------------------------------------------------------------
# Parse + elaboration caches
# ----------------------------------------------------------------------
def parse_cached(source: str) -> hdl_ast.SourceFile:
    """Parse with a text-keyed cache; raises VerilogSyntaxError."""
    return parse_source_cached(source)


def syntax_ok(source: str) -> bool:
    """Does ``source`` parse?  (Eval0's syntax half.)

    >>> syntax_ok("module m; endmodule")
    True
    >>> syntax_ok("module m(; endmodule")
    False
    """
    try:
        parse_cached(source)
    except VerilogSyntaxError:
        return False
    return True


class DesignTemplate:
    """A cached, compiled design plus the recipe for fresh run state.

    Elaboration produces mutable runtime objects (signal values, memory
    words) embedded in the design structure.  The template snapshots
    their post-elaboration state once; :meth:`run` restores that
    snapshot — and clears any event waiters left by a previous run —
    before simulating, so every run starts from an identical universe
    while sharing the parsed AST, the elaborated structure, and the
    compiled process closures.

    A lock serializes runs of one template: the design's runtime state
    is singular, so concurrent in-process runs must take turns (use the
    process-pool batch APIs for true parallelism).
    """

    __slots__ = ("design", "top", "_signal_init", "_memory_init", "_lock")

    def __init__(self, design: Design):
        self.design = design
        self.top = design.top
        self._signal_init = [(sig, sig.value)
                             for sig in design.signals.values()]
        self._memory_init = [(mem, list(mem.words))
                             for mem in design.memories.values()]
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Restore post-elaboration values and clear scheduler residue."""
        for sig, value in self._signal_init:
            sig.value = value
            if sig.waiters:
                sig.waiters.clear()
        for mem, words in self._memory_init:
            mem.words[:] = words
            if mem.waiters:
                mem.waiters.clear()

    def run(self, max_time: int | None = None,
            max_stmts: int | None = None,
            seed: int = 0) -> SimulationResult:
        """Reset state and simulate.

        The engine, and ``max_time`` / ``max_stmts`` left as ``None``,
        resolve through the active :class:`SimContext`.

        Note: the returned ``SimulationResult.design`` references the
        *shared* design — snapshot any final signal values you need
        before the next run of the same template.
        """
        with self._lock:
            self.reset()
            try:
                return Simulator(self.design, max_time=max_time,
                                 max_stmts=max_stmts, seed=seed).run()
            finally:
                # The simulator rebinds the design's runtime hooks to
                # itself; restore the defaults so this cached template
                # doesn't pin the finished Simulator (and its stdout /
                # dump buffers / generator frames) in memory.
                design = self.design
                design.runtime_time = lambda: 0
                design.runtime_random = lambda: 0
                design.runtime_fopen = lambda name: 0


# ----------------------------------------------------------------------
# Elaboration-failure caching
# ----------------------------------------------------------------------
# Mutation sweeps generate many variants that fail to parse or
# elaborate; lru_cache does not memoise exceptions, so without this
# layer every sweep re-lexes, re-parses and re-elaborates each broken
# variant on every call.  Only the exception's *shape* (type, args, and
# position attributes) is recorded — never the live instance — so no
# traceback frames are pinned, the original propagation is untouched,
# and every cache hit raises a fresh, identically-rendered instance
# (safe under concurrent hits).  A changed source text is a different
# key, so edits invalidate naturally.
_FAILURE_CACHE_SIZE = 1024
_failure_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_failure_lock = threading.Lock()
_failure_stats = {"hits": 0, "recorded": 0}

_FAILURE_ATTRS = ("line", "column", "bare_message")


def _raise_cached_failure(key: tuple) -> None:
    with _failure_lock:
        info = _failure_cache.get(key)
        if info is None:
            return
        _failure_cache.move_to_end(key)
        _failure_stats["hits"] += 1
    exc_type, args, attrs = info
    # Bypass __init__ (VerilogSyntaxError's would re-prefix "line L:C:"
    # onto the already-rendered message) and restore the stored shape.
    exc = exc_type.__new__(exc_type)
    exc.args = args
    for name, value in attrs:
        setattr(exc, name, value)
    raise exc


def _record_failure(key: tuple, exc: Exception) -> None:
    attrs = tuple((name, getattr(exc, name)) for name in _FAILURE_ATTRS
                  if hasattr(exc, name))
    with _failure_lock:
        if key not in _failure_cache:
            _failure_stats["recorded"] += 1
            while len(_failure_cache) >= _FAILURE_CACHE_SIZE:
                _failure_cache.popitem(last=False)
            _failure_cache[key] = (type(exc), exc.args, attrs)


# Template caches: per-task scoped LRUs (see repro.core.caches).  Under
# campaign churn — 156 tasks x mutants x judges — a single shared LRU
# let one task's mutant flood evict another task's warm goldens;
# campaign items now run under ``use_task_scope(task_id)``, giving each
# task its own eviction domain.  Capacity follows the active context's
# ``template_cache_size`` knob (read at insertion time); the global
# ``template_cache_budget`` knob bounds total resident entries across
# all scopes by shedding least-recently-used scope buckets.
def _template_capacity() -> int:
    return current_context().template_cache_size


def _template_budget() -> int:
    return current_context().template_cache_budget


_design_templates = ScopedLruCache(_template_capacity,
                                   total_budget=_template_budget)
_pair_templates = ScopedLruCache(_template_capacity,
                                 total_budget=_template_budget)
# Lockstep union templates: (driver, lane sources) -> compiled union
# design.  Keys are large (they embed every lane's text) but few — one
# per (driver, mutant-set) pairing — and repeated sweeps of the same
# pairing (R/S matrix reruns, benches) hit it.
_union_templates = ScopedLruCache(_template_capacity,
                                  total_budget=_template_budget)


def _cached_template(cache: ScopedLruCache, key: tuple,
                     build) -> DesignTemplate:
    """Template lookup guarded by the failure cache: a key whose build
    failed re-raises the recorded error without re-running the front
    end (or the union builder), and a fresh failure is recorded."""
    _raise_cached_failure(key)
    try:
        return cache.get_or_create(key, build)
    except (VerilogSyntaxError, ElaborationError,
            LockstepUnsupported) as exc:
        _record_failure(key, exc)
        raise


def design_template(source_text: str, top: str) -> DesignTemplate:
    """Elaboration cache: ``(source_text, top)`` -> compiled template.

    Failures are cached too: a pair that failed to parse or elaborate
    re-raises the recorded error without re-running the front end.

    >>> src = "module m(output o);\\nassign o = 1'b1;\\nendmodule"
    >>> template = design_template(src, "m")
    >>> design_template(src, "m") is template   # cached: same object
    True
    >>> template.run().design.signal("o").value.to_uint()
    1
    """
    return _cached_template(
        _design_templates, (source_text, top),
        lambda: DesignTemplate(elaborate(parse_cached(source_text), top)))


def _build_pair_template(dut_src: str, tb_src: str,
                         top: str) -> DesignTemplate:
    dut_ast = parse_cached(dut_src)
    tb_ast = parse_cached(tb_src)
    merged = hdl_ast.SourceFile(tuple(dut_ast.modules)
                                + tuple(tb_ast.modules))
    return DesignTemplate(elaborate(merged, top))


def _pair_template(dut_src: str, tb_src: str, top: str) -> DesignTemplate:
    """Elaboration cache for (DUT, testbench) pairs.

    Merges the two separately-cached ASTs at the module-tuple level (no
    re-parse of concatenated text).  DUT modules come first so testbench
    modules shadow same-named ones, exactly like the pre-cache merge.
    Failures are cached like :func:`design_template`'s.
    """
    return _cached_template(
        _pair_templates, (dut_src, tb_src, top),
        lambda: _build_pair_template(dut_src, tb_src, top))


def _clear_failure_cache() -> None:
    with _failure_lock:
        _failure_cache.clear()


def _failure_cache_stats() -> dict:
    with _failure_lock:
        return {"hits": _failure_stats["hits"],
                "recorded": _failure_stats["recorded"],
                "size": len(_failure_cache)}


def _export_failure_cache() -> dict:
    """Snapshot payload: ``{key: (exc_type, args, attrs)}`` — already
    shape-only (no live exception instances), so directly picklable."""
    with _failure_lock:
        return dict(_failure_cache)


def _import_failure_cache(entries: dict) -> int:
    added = 0
    with _failure_lock:
        for key, info in entries.items():
            if key not in _failure_cache:
                while len(_failure_cache) >= _FAILURE_CACHE_SIZE:
                    _failure_cache.popitem(last=False)
                _failure_cache[key] = info
                added += 1
    return added


# ----------------------------------------------------------------------
# Template warm-start (snapshot export/import)
# ----------------------------------------------------------------------
# A DesignTemplate owns compiled closures, which cannot pickle — so the
# template layers export only their *keys* (scope + source signature)
# and the importer re-elaborates each one locally, against the (already
# imported, hence warm) token and AST caches.  That front-loads the
# parse/elaborate/compile cost into the import of a store's snapshot,
# so a resumed run or a shard worker starts its first item warm.
def _import_design_keys(keys) -> int:
    return _rebuild_templates(keys, lambda key: design_template(*key))


def _import_pair_keys(keys) -> int:
    return _rebuild_templates(keys, lambda key: _pair_template(*key))


def _rebuild_templates(keys, build) -> int:
    from ..hdl.compile import compile_spec

    rebuilt = 0
    begin_warm_start()
    try:
        for scope, key in keys:
            with use_task_scope(scope):
                try:
                    template = build(key)
                    # Programs normally compile lazily on first run;
                    # force them now so the warm-up, not the worker's
                    # first batch, pays the lowering cost.
                    for spec in template.design.processes:
                        compile_spec(spec)
                except (VerilogSyntaxError, ElaborationError):
                    # The failure is (re-)recorded; the entry still
                    # warms the failure path.
                    pass
                except HdlError:  # pragma: no cover - defensive
                    # Late (run-time-class) lowering errors surface on
                    # the executed path instead; never kill a warm-up.
                    pass
                else:
                    rebuilt += 1
    finally:
        end_warm_start()
    return rebuilt


# Every caching layer registers with the shared facade; registration
# order fixes the key order of ``caches.stats()`` (a recorded shape that
# traces and benches read).  Layers whose contents are picklable plain
# data register export/import hooks and so participate in warm-start
# snapshots; the program cache holds closures and is deliberately
# snapshot-blind (its contents are re-derived by the template import
# above).
caches.register("tokenize", clear=token_cache.clear, stats=token_cache.stats,
                export=token_cache.export,
                import_=token_cache.import_entries)
caches.register("parse", clear=parse_cache.clear, stats=parse_cache.stats,
                export=parse_cache.export,
                import_=parse_cache.import_entries)
caches.register("design", clear=_design_templates.clear,
                stats=_design_templates.stats,
                export=_design_templates.export_keys,
                import_=_import_design_keys)
caches.register("pair", clear=_pair_templates.clear,
                stats=_pair_templates.stats,
                export=_pair_templates.export_keys,
                import_=_import_pair_keys)
caches.register("failure", clear=_clear_failure_cache,
                stats=_failure_cache_stats,
                export=_export_failure_cache,
                import_=_import_failure_cache)
caches.register("programs", clear=clear_program_cache,
                stats=program_cache_stats)


def _clear_union_layer() -> None:
    _union_templates.clear()
    clear_lockstep_caches()


def _union_layer_stats() -> dict:
    stats = dict(_union_templates.stats())
    stats["renamed_lanes"] = lockstep_cache_stats()["size"]
    return stats


# Union templates hold compiled closures (snapshot-blind, like the
# program cache); the lockstep rename cache rides on the same layer.
caches.register("union", clear=_clear_union_layer,
                stats=_union_layer_stats)


@dataclass(frozen=True)
class Record:
    """One parsed dump line: a check-point of one scenario."""

    scenario: int
    values: dict  # signal name -> decimal string ("x" when undefined)


@dataclass
class DriverRun:
    """Outcome of simulating driver + DUT."""

    status: str  # OK / SYNTAX / ELABORATION / RUNTIME
    records: list[Record] = field(default_factory=list)
    detail: str = ""
    stdout: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == OK


_RECORD_RE = re.compile(r"scenario:\s*(\d+)")
_FIELD_RE = re.compile(r"(\w+)\s*=\s*(x|-?\d+)")


def _parse_dump_line(line: str) -> Record | None:
    match = _RECORD_RE.search(line)
    if not match:
        return None
    values = {name: value for name, value in _FIELD_RE.findall(line)}
    return Record(scenario=int(match.group(1)), values=values)


def parse_dump(lines: list[str]) -> list[Record]:
    """Parse ``scenario: k, a = 1, ...`` dump lines into records.

    >>> parse_dump(["scenario: 2, q = 7, valid = x", "noise"])
    [Record(scenario=2, values={'q': '7', 'valid': 'x'})]
    """
    records = []
    for line in lines:
        record = _parse_dump_line(line)
        if record is not None:
            records.append(record)
    return records


# A widened dump line's value group parses directly when it sits in a
# plain ``name = <group>`` position: the literal before it ends with the
# field-name prefix, the literal after it cannot extend the value token,
# and every lane's token is exactly one field value.  Anything else
# (exotic formats) takes the slow path — reconstruct each lane's line
# and parse it like the per-mutant run would have.
_GROUP_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*$")
_GROUP_VALUE_RE = re.compile(r"\s*(x|-?\d+)")


def _demux_records(lines: list[str],
                   n_lanes: int) -> list[list[Record]]:
    """Per-lane records from a lockstep union run's widened dump.

    Equivalent to :func:`repro.hdl.lockstep.demux_lines` followed by
    :func:`parse_dump` per lane (the slow path does exactly that, line
    by line), but the common ``name = value`` shape parses the shared
    line skeleton once and patches only the per-lane group fields.
    """
    lanes: list[list[Record]] = [[] for _ in range(n_lanes)]
    for line in lines:
        parts = line.split(lockstep_mod.GROUP_DELIM)
        if len(parts) == 1:
            record = _parse_dump_line(line)
            if record is not None:
                for lane in lanes:
                    lane.append(record)
            continue
        groups = [part.split(lockstep_mod.LANE_DELIM) if i % 2 else part
                  for i, part in enumerate(parts)]

        patches: list[tuple[str, list[str]]] = []
        base_line_parts: list[str] = []
        simple = True
        for i, part in enumerate(groups):
            if not i % 2:
                base_line_parts.append(part)
                continue
            base_line_parts.append(part[0])
            name_match = _GROUP_NAME_RE.search(groups[i - 1])
            following = groups[i + 1] if i + 1 < len(groups) else ""
            if (name_match is None
                    or (following[:1].isalnum() or following[:1] == "_")):
                simple = False
                break
            tokens = []
            for token in part:
                value = _GROUP_VALUE_RE.fullmatch(token)
                if value is None:
                    simple = False
                    break
                tokens.append(value.group(1))
            if not simple:
                break
            patches.append((name_match.group(1), tokens))

        base = _parse_dump_line("".join(base_line_parts)) if simple \
            else None
        if base is not None:
            # parse_dump is last-occurrence-wins per field name; the
            # patch is only faithful if the group is the winning
            # occurrence, which lane 0's parse tells us directly.
            for name, tokens in patches:
                if base.values.get(name) != tokens[0]:
                    base = None
                    break
        if base is None:
            # Slow path: byte-faithful per-lane reconstruction.
            for k in range(n_lanes):
                record = _parse_dump_line("".join(
                    groups[i][k] if i % 2 else groups[i]
                    for i in range(len(groups))))
                if record is not None:
                    lanes[k].append(record)
            continue
        for k in range(n_lanes):
            values = dict(base.values)
            for name, tokens in patches:
                values[name] = tokens[k]
            lanes[k].append(Record(scenario=base.scenario, values=values))
    return lanes


def _run_pair(failed, tb_label: str, tb_src: str, dut_src: str):
    """The parse -> pair template -> run ladder shared by
    :func:`run_driver` and :func:`run_monolithic`.

    Returns ``(result, None)`` when the simulation ran, else
    ``(None, failed(status, detail=...))`` — ``failed`` is the caller's
    run type, and each stage's ``detail`` wording is part of the
    recorded reports (the validator quotes ``detail[:50]``).
    """
    for label, src in ((tb_label, tb_src), ("dut", dut_src)):
        try:
            parse_cached(src)
        except VerilogSyntaxError as exc:
            return None, failed(SYNTAX, detail=f"{label}: {exc}")
    try:
        template = _pair_template(dut_src, tb_src, "tb")
    except VerilogSyntaxError as exc:  # pragma: no cover - defensive
        return None, failed(SYNTAX, detail=str(exc))
    except ElaborationError as exc:
        return None, failed(ELABORATION, detail=str(exc))
    try:
        return template.run(), None
    except HdlError as exc:  # includes late elaboration-class errors
        return None, failed(RUNTIME, detail=str(exc))
    except RecursionError:  # pragma: no cover - defensive
        return None, failed(RUNTIME, detail="recursion limit")


def run_driver(driver_src: str, dut_src: str) -> DriverRun:
    """Simulate the hybrid-TB driver against a DUT, collect the dump."""
    result, failure = _run_pair(DriverRun, "driver", driver_src, dut_src)
    if failure is not None:
        return failure
    if not result.finished:
        return DriverRun(RUNTIME, detail="simulation ended without $finish")
    lines = result.files.get(DUMP_FILE, [])
    records = parse_dump(lines)
    if not records:
        return DriverRun(RUNTIME, detail="no check-points in dump",
                         stdout=result.stdout)
    return DriverRun(OK, records=records, stdout=result.stdout)


@dataclass
class MonolithicRun:
    """Outcome of simulating a self-checking (baseline) testbench."""

    status: str
    verdict: bool | None = None  # True = TB printed pass
    detail: str = ""


def run_monolithic(tb_src: str, dut_src: str) -> MonolithicRun:
    """Simulate a baseline testbench; parse its printed verdict."""
    from ..codegen.baseline import baseline_verdict

    result, failure = _run_pair(MonolithicRun, "tb", tb_src, dut_src)
    if failure is not None:
        return failure
    if not result.finished:
        return MonolithicRun(RUNTIME, detail="no $finish")
    verdict = baseline_verdict(result.stdout)
    if verdict is None:
        return MonolithicRun(RUNTIME, detail="testbench printed no verdict")
    return MonolithicRun(OK, verdict=verdict)


def dut_compiles(dut_src: str) -> tuple[bool, str]:
    """Check a bare DUT for syntax + elaboration errors (Eval0-style).

    >>> dut_compiles(
    ...     "module top_module(output o); assign o = 1'b0; endmodule")
    (True, '')
    """
    try:
        source = parse_cached(dut_src)
    except VerilogSyntaxError as exc:
        return False, f"{SYNTAX}: {exc}"
    try:
        elaborate(source, "top_module")
    except ElaborationError as exc:
        return False, f"{ELABORATION}: {exc}"
    except HdlError as exc:  # pragma: no cover - defensive
        return False, str(exc)
    return True, ""


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------
# One ProcessPoolExecutor is shared by every batch and campaign call in
# the process: created lazily on first use, grown monotonically to the
# largest worker count requested, recreated with the same configuration
# if a worker dies (see _pool_map), and torn down atexit.
#
# ``SimContext.start_method`` picks how workers start.  A forked worker
# inherits the parent's caches through copy-on-write memory; a spawn or
# forkserver worker starts as a blank interpreter.  Either way a worker
# builds what its own work items need and keeps it for the life of the
# pool: campaigns dispatch each task's items to one worker, so a task's
# goldens are built once per campaign.
#
# The pool belongs to the process that created it.  A forked child
# inherits the executor object (and possibly a held lock) but none of
# its threads, so _forget_inherited_pool drops both in the child; and
# _run_batch never opens a pool in a multiprocessing child at all
# (see _nested_pool_allowed).
_pool_lock = threading.Lock()
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_start_method = ""


def _forget_pool() -> None:
    """Reset the pool globals to "no pool" (the caller holds the lock,
    or is a freshly forked child)."""
    global _pool, _pool_workers, _pool_start_method
    _pool = None
    _pool_workers = 0
    _pool_start_method = ""


def _forget_inherited_pool() -> None:
    """After ``fork``, in the child: drop the parent's executor without
    shutting it down (its management thread and workers belong to the
    parent) and replace a lock that may have been held at fork time."""
    global _pool_lock
    _pool_lock = threading.Lock()
    _forget_pool()


os.register_at_fork(after_in_child=_forget_inherited_pool)


def _nested_pool_allowed() -> bool:
    """May this process fan a batch out over its own pool?

    Not in a process started by :mod:`multiprocessing`: that child is
    already one worker of a pool sized to the cores, so a nested pool
    only adds processes — and a child that opened one could not exit,
    since nothing shuts its pool down before the child joins its
    workers."""
    return multiprocessing.parent_process() is None


def _resolve_start_method(name: str | None) -> str:
    """Map a context ``start_method`` to a concrete multiprocessing
    start method, validating platform availability."""
    if name in (None, "", START_METHOD_DEFAULT):
        return multiprocessing.get_start_method()
    if name not in multiprocessing.get_all_start_methods():
        raise ValueError(
            f"start method {name!r} is not available on this platform; "
            f"available: {multiprocessing.get_all_start_methods()}")
    return name


def get_sim_pool(jobs: int,
                 start_method: str | None = None) -> ProcessPoolExecutor:
    """Return the shared persistent process pool.

    The pool grows if ``jobs`` exceeds its current worker count (it
    never shrinks) and is recreated if ``start_method`` (explicit
    argument, else the active context's) differs from the live pool's.
    """
    global _pool, _pool_workers, _pool_start_method
    jobs = max(1, int(jobs))
    method = _resolve_start_method(start_method
                                   or current_context().start_method)
    with _pool_lock:
        if _pool is not None and (_pool_workers < jobs
                                  or _pool_start_method != method):
            _pool.shutdown(wait=False)
            _pool = None
        if _pool is None:
            _pool = ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context(method))
            _pool_workers = jobs
            _pool_start_method = method
        return _pool


def _pool_load(pool) -> tuple[int, int]:
    """(queue_depth, in_flight) for a live executor.

    ``in_flight`` counts submitted-but-unfinished work items;
    ``queue_depth`` is the subset still parked in the inter-process
    call queue (not yet picked up by a worker).  Read from executor
    internals defensively — a private-attribute rename in a future
    stdlib degrades the counters to zero, never breaks telemetry.
    """
    pending = getattr(pool, "_pending_work_items", None)
    in_flight = len(pending) if pending is not None else 0
    call_queue = getattr(pool, "_call_queue", None)
    try:
        queue_depth = call_queue.qsize() if call_queue is not None else 0
    except (NotImplementedError, OSError):  # pragma: no cover - macOS
        queue_depth = 0
    return queue_depth, in_flight


def sim_pool_info() -> dict:
    """Telemetry: whether the shared pool is alive, its configured
    worker count, worker PIDs, the start method it was created with,
    and its current load (``queue_depth`` / ``in_flight``) — the
    counters the service telemetry endpoint and ``repro serve --status``
    report.
    """
    with _pool_lock:
        if _pool is None:
            return {"alive": False, "workers": 0, "pids": (),
                    "start_method": "", "queue_depth": 0, "in_flight": 0}
        processes = getattr(_pool, "_processes", None) or {}
        queue_depth, in_flight = _pool_load(_pool)
        return {"alive": True, "workers": _pool_workers,
                "pids": tuple(sorted(processes.keys())),
                "start_method": _pool_start_method,
                "queue_depth": queue_depth, "in_flight": in_flight}


def shutdown_sim_pool(wait: bool = True) -> None:
    """Tear down the shared pool.  Registered atexit so worker processes
    never outlive the interpreter; safe to call repeatedly."""
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=wait)
            _forget_pool()


atexit.register(shutdown_sim_pool)


def _pool_failure(error: RuntimeError, results) -> bool:
    """Does recreating the pool heal ``error``?

    ``results`` is what the failing ``pool.map(...)`` call returned, or
    None if the call itself raised.  A killed worker breaks the pool:
    :class:`BrokenProcessPool`, at submit time or while results stream.
    A concurrent :func:`get_sim_pool` grow request can shut the
    executor down between lookup and ``map``; ``Executor.map`` submits
    every item eagerly, so that race raises ``RuntimeError: cannot
    schedule new futures after shutdown`` from the call itself.  A
    RuntimeError raised while results stream is a worker's own error:
    it propagates instead of re-running the batch.
    """
    return isinstance(error, BrokenProcessPool) or results is None


def _pool_map(worker, items: list, jobs: int) -> list:
    """Map over the persistent pool; a pool failure (see
    :func:`_pool_failure`) discards and recreates the pool once before
    giving up."""
    for attempt in (0, 1):
        results = None
        try:
            results = get_sim_pool(jobs).map(worker, items)
            return list(results)
        except RuntimeError as error:
            if attempt or not _pool_failure(error, results):
                raise
            shutdown_sim_pool(wait=False)


# ----------------------------------------------------------------------
# Batched execution
# ----------------------------------------------------------------------
def _driver_batch_worker(item: tuple) -> DriverRun:
    driver_src, dut_src, context = item
    with use_context(context):
        return run_driver(driver_src, dut_src)


def _monolithic_batch_worker(item: tuple) -> MonolithicRun:
    tb_src, dut_src, context = item
    with use_context(context):
        return run_monolithic(tb_src, dut_src)


def _run_batch(worker, shared_src: str, dut_srcs,
               context: SimContext | None) -> list:
    """Shared fan-out: dedup identical DUTs, then run each unique pair.

    The shared testbench text is parsed once (cache) and each unique
    (testbench, DUT) design is elaborated + compiled once (template
    cache), so a batch amortizes every per-design cost across the runs.
    With the context's ``jobs > 1`` unique pairs spread over the
    *persistent* process pool (:func:`get_sim_pool`): workers survive
    across batch calls, so their caches stay warm and repeated small
    batches skip the pool spin-up entirely.  In a process that is itself
    a pool or shard worker the batch runs in-process instead
    (:func:`_nested_pool_allowed`).

    The resolved :class:`SimContext` travels inside each work item and
    is activated in whichever process runs it — pool workers have their
    own root context, so shipping plain work without the context would
    ignore any activation made in this (the parent) process.
    """
    context = context if context is not None else current_context()
    dut_list = list(dut_srcs)
    order = list(dict.fromkeys(dut_list))

    items = [(shared_src, dut, context) for dut in order]
    if context.jobs > 1 and len(order) > 1 and _nested_pool_allowed():
        unique_results = _pool_map(worker, items, context.jobs)
    else:
        unique_results = [worker(item) for item in items]

    by_src = dict(zip(order, unique_results))
    return [by_src[dut] for dut in dut_list]


def run_driver_batch(driver_src: str, dut_srcs,
                     context: SimContext | None = None) -> list[DriverRun]:
    """Run one hybrid-TB driver against many DUT variants.

    This is the validator/AutoEval hot path: the driver is compiled
    once, identical DUTs are simulated once, and a context with
    ``jobs > 1`` fans the unique runs across a process pool.
    ``context`` left unset resolves to the active :class:`SimContext`.
    """
    return _run_batch(_driver_batch_worker, driver_src, dut_srcs, context)


def run_monolithic_batch(tb_src: str, dut_srcs,
                         context: SimContext | None = None,
                         ) -> list[MonolithicRun]:
    """Run one self-checking testbench against many DUT variants."""
    return _run_batch(_monolithic_batch_worker, tb_src, dut_srcs, context)


# ----------------------------------------------------------------------
# Mutant sweeps (lockstep union engine with per-mutant fallback)
# ----------------------------------------------------------------------
@dataclass
class MutantSweep:
    """Outcome of one driver swept across N same-interface DUT variants.

    ``runs`` aligns with the ``dut_srcs`` argument
    (:class:`DriverRun` for hybrid sweeps, :class:`MonolithicRun` for
    monolithic ones).  ``engine`` reports the strategy that actually
    executed — ``"lockstep"`` or ``"per-mutant"`` — and
    ``fallback_reason`` is non-empty when lockstep was requested but the
    sweep fell back (unsupported driver shape, union build/run failure,
    monolithic stdout verdicts).

    When a ``golden_src`` was supplied, ``golden`` carries its run and
    ``retire_rounds[i]`` is the dump-record index at which variant ``i``
    first diverged from the golden lane (``None`` = never diverged, or
    no comparable records).  Both engines compute it from the same
    per-lane records, so the differential fuzz battery asserts equality.
    """

    runs: list
    golden: DriverRun | None = None
    retire_rounds: list = field(default_factory=list)
    engine: str = MUTANT_PER_MUTANT
    fallback_reason: str = ""


def _retire_round(golden_run: DriverRun | None,
                  run) -> int | None:
    """First record index where ``run`` diverges from the golden lane."""
    if golden_run is None or not golden_run.ok:
        return None
    if not getattr(run, "ok", False):
        return None
    records = getattr(run, "records", None)
    if records is None:
        return None
    for index, (golden_record, record) in enumerate(
            zip(golden_run.records, records)):
        if golden_record != record:
            return index
    if len(records) != len(golden_run.records):
        return min(len(records), len(golden_run.records))
    return None


def _per_mutant_sweep(driver_src: str, dut_list: list[str],
                      golden_src: str | None, context: SimContext,
                      fallback_reason: str = "") -> MutantSweep:
    lanes = ([golden_src] if golden_src is not None else []) + dut_list
    runs = run_driver_batch(driver_src, lanes, context=context)
    golden_run = runs[0] if golden_src is not None else None
    dut_runs = runs[1:] if golden_src is not None else runs
    return MutantSweep(
        runs=dut_runs, golden=golden_run,
        retire_rounds=[_retire_round(golden_run, run)
                       for run in dut_runs],
        engine=MUTANT_PER_MUTANT, fallback_reason=fallback_reason)


def _lockstep_sweep(driver_src: str, dut_list: list[str],
                    golden_src: str | None,
                    context: SimContext) -> MutantSweep:
    """Run the sweep as one union design.

    Raises :exc:`LockstepUnsupported` (or a front-end/runtime
    :exc:`~repro.hdl.errors.HdlError`) when the union cannot be built or
    run faithfully; the caller falls back to the per-mutant path.
    """
    lanes = ([golden_src] if golden_src is not None else []) + dut_list
    order = list(dict.fromkeys(lanes))
    n_lanes = len(order)

    template = _cached_template(
        _union_templates, ("union", driver_src, tuple(order)),
        lambda: DesignTemplate(
            elaborate(build_union(driver_src, order), "tb")))

    with use_context(context):
        # One run carries every lane's statements: scale the statement
        # budget so an N-lane union is budgeted like N single runs.
        result = template.run(max_stmts=context.max_stmts * n_lanes)
    if not result.finished:
        raise LockstepUnsupported("union run ended without $finish")

    lane_records = _demux_records(result.files.get(DUMP_FILE, []), n_lanes)
    runs_by_src: dict[str, DriverRun] = {}
    for lane_src, records in zip(order, lane_records):
        if records:
            runs_by_src[lane_src] = DriverRun(
                OK, records=records, stdout=list(result.stdout))
        else:
            runs_by_src[lane_src] = DriverRun(
                RUNTIME, detail="no check-points in dump",
                stdout=list(result.stdout))

    golden_run = (runs_by_src[golden_src]
                  if golden_src is not None else None)
    dut_runs = [runs_by_src[dut] for dut in dut_list]
    return MutantSweep(
        runs=dut_runs, golden=golden_run,
        retire_rounds=[_retire_round(golden_run, run)
                       for run in dut_runs],
        engine=MUTANT_LOCKSTEP)


def run_mutant_sweep(driver_src: str, dut_srcs,
                     golden_src: str | None = None,
                     kind: str = "hybrid",
                     context: SimContext | None = None) -> MutantSweep:
    """Sweep one shared testbench across many DUT variants of one
    design (AutoEval Eval2 mutant batches, validator R/S matrices).

    With the default ``lockstep`` strategy the driver and every variant
    merge into one union design executed in a single simulation — the
    driver's stimulus, clocking and scheduler costs are paid once per
    sweep instead of once per variant — and shapes the union cannot
    express fall back to the ``per-mutant`` path transparently
    (``MutantSweep.fallback_reason`` says why).  ``per-mutant`` is the
    behavioural oracle: it simulates each variant separately and is
    pinned against lockstep by a differential fuzz battery.

    ``kind="monolithic"`` sweeps a self-checking testbench
    (:class:`MonolithicRun` results); its verdicts travel on stdout,
    which a union run shares across lanes, so it always executes
    per-mutant.

    ``golden_src`` adds a golden reference lane: the sweep reports its
    run separately plus each variant's *retire round* — the dump-record
    index of first divergence from the golden lane.

    The strategy (``SimContext.mutant_engine``, env
    ``REPRO_MUTANT_ENGINE``), engine, limits and worker count come from
    ``context``, or the active :class:`SimContext` when it is unset.
    """
    context = context if context is not None else current_context()
    strategy = context.mutant_engine
    dut_list = list(dut_srcs)

    if kind == "monolithic":
        lanes = ([golden_src] if golden_src is not None else []) + dut_list
        runs = run_monolithic_batch(driver_src, lanes, context=context)
        golden_run = runs[0] if golden_src is not None else None
        return MutantSweep(
            runs=runs[1:] if golden_src is not None else runs,
            golden=golden_run,
            retire_rounds=[None] * len(dut_list),
            engine=MUTANT_PER_MUTANT,
            fallback_reason=("monolithic verdicts travel on stdout"
                             if strategy == MUTANT_LOCKSTEP else ""))
    if kind != "hybrid":
        raise ValueError(f"unknown sweep kind {kind!r}; "
                         f"expected 'hybrid' or 'monolithic'")

    if strategy == MUTANT_PER_MUTANT or not dut_list:
        return _per_mutant_sweep(driver_src, dut_list, golden_src, context)
    try:
        return _lockstep_sweep(driver_src, dut_list, golden_src, context)
    except (LockstepUnsupported, HdlError, RecursionError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        return _per_mutant_sweep(driver_src, dut_list, golden_src, context,
                                 fallback_reason=reason)
