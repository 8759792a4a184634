"""Campaign runner: methods x tasks x seeds -> evaluated results.

Reproduces the paper's experimental protocol: each method is applied to
every task, the experiment is repeated over several seeds ("we repeated
each experiment five times"), and every produced testbench is graded with
AutoEval.

Methods are pluggable: :func:`run_one` dispatches through the
:mod:`repro.eval.methods` registry, so a new strategy registered with
:func:`register_method` / :func:`campaign_method` runs through campaigns
and the CLI without touching this module.

Work items are referenced by ids (task ids, profile names) so campaigns
can fan out over a process pool — TaskSpec objects hold closures and are
deliberately never pickled.  Each item also carries the resolved
:class:`~repro.hdl.context.SimContext`, activated in whichever process
executes the item, so engine/lexer/limit choices neither depend on pool
workers' own defaults nor leak between serial items.
"""

from __future__ import annotations

import inspect
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterable, Sequence

from ..core.caches import caches, use_task_scope
from ..core.simulation import (get_sim_pool, shutdown_sim_pool,
                               _pair_template, _pool_failure,
                               _resolve_start_method)
from ..core.validator import CRITERIA, DEFAULT_CRITERION
from ..hdl.context import SimContext, current_context, use_context
from ..hdl.errors import HdlError
from ..llm.backends import is_live_backend, resolve_llm_client
from ..llm.base import MeteredClient, UsageMeter
from ..problems.dataset import get_task, load_dataset
from .golden import golden_artifacts
from .store import CampaignStore, StoreError, store_key
# The method registry (and TaskRun, which runners return) lives in
# repro.eval.methods; re-exported here (redundant-alias form) because
# this module is the historical import point for campaign types.
from .methods import ALL_METHODS as ALL_METHODS
from .methods import METHOD_AUTOBENCH as METHOD_AUTOBENCH
from .methods import METHOD_BASELINE as METHOD_BASELINE
from .methods import METHOD_CORRECTBENCH as METHOD_CORRECTBENCH
from .methods import MethodCall as MethodCall
from .methods import TaskRun as TaskRun
from .methods import campaign_method as campaign_method
from .methods import get_method
from .methods import register_method as register_method
from .methods import registered_methods as registered_methods
from .methods import unregister_method as unregister_method


@dataclass(frozen=True)
class CampaignConfig:
    task_ids: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    profile_name: str = "gpt-4o"
    criterion_name: str = DEFAULT_CRITERION.name
    methods: tuple[str, ...] = ALL_METHODS
    group_size: int = 20
    n_jobs: int = 1
    context: SimContext | None = None  # None = the caller's active context

    def __post_init__(self):
        for method in self.methods:
            get_method(method)  # raises ValueError listing the registry

    def resolved_context(self) -> SimContext:
        """The context campaign items will run under."""
        return (self.context if self.context is not None
                else current_context())


@dataclass
class CampaignResult:
    config: CampaignConfig
    runs: list[TaskRun] = field(default_factory=list)
    #: Items answered from the persistent artifact store (a resumed
    #: campaign's skipped work) vs items computed this run.  Zero/zero
    #: when the campaign ran without a store.
    store_hits: int = 0
    store_misses: int = 0

    def of_method(self, method: str) -> list[TaskRun]:
        return [run for run in self.runs if run.method == method]

    def of(self, method: str, seed: int) -> list[TaskRun]:
        return [run for run in self.runs
                if run.method == method and run.seed == seed]


def default_config(task_ids: Iterable[str] | None = None,
                   seeds: Sequence[int] = (0,), **overrides,
                   ) -> CampaignConfig:
    if task_ids is None:
        task_ids = [task.task_id for task in load_dataset()]
    return CampaignConfig(task_ids=tuple(task_ids), seeds=tuple(seeds),
                          **overrides)


# ----------------------------------------------------------------------
# Single work item (also the process-pool worker)
# ----------------------------------------------------------------------
def run_one(method: str, task_id: str, seed: int,
            profile_name: str = "gpt-4o",
            criterion_name: str = DEFAULT_CRITERION.name,
            group_size: int = 20,
            context: SimContext | None = None) -> TaskRun:
    """Run one registered method on one (task, seed) item.

    The item executes under ``context`` (default: the caller's active
    context) via :func:`use_context`, so the configuration applies in
    whichever process runs it and is restored afterwards — serial
    campaigns cannot leak an engine choice into later work.

    The model client resolves through
    :func:`repro.llm.backends.resolve_llm_client`: the context's
    ``llm_backend`` selects the synthetic tier (the default), a live
    adapter stack, or fixture record/replay — campaigns, the CLI, and
    the service all inherit the choice through this one point.
    """
    runner = get_method(method)
    if context is None:
        context = current_context()
    # The task scope gives this item its own template-cache bucket, so
    # one task's mutant churn cannot evict another's warm templates
    # (see repro.core.caches.ScopedLruCache).
    with use_context(context), use_task_scope(task_id):
        task = get_task(task_id)
        criterion = CRITERIA[criterion_name]
        meter = UsageMeter()
        inner = resolve_llm_client(profile_name, seed, context=context,
                                   task_id=task_id, method=method)
        client = MeteredClient(inner, meter)
        call = MethodCall(method=method, task=task, seed=seed,
                          client=client, meter=meter,
                          golden=golden_artifacts(task_id),
                          criterion=criterion, group_size=group_size)
        try:
            return runner(call)
        finally:
            close = getattr(inner, "close", None)
            if close is not None:  # flush a fixture recording's sink
                close()


def _worker(item: tuple) -> TaskRun:
    method, task_id, seed, profile, criterion, group_size, context = item
    return run_one(method, task_id, seed, profile, criterion, group_size,
                   context=context)


def _run_group(group: list[tuple]) -> list[TaskRun]:
    """Run one unit of executor work: items of one task, in order.

    ``_worker`` is looked up per call, so a patched module attribute
    takes effect (in forked pool workers too)."""
    return [_worker(item) for item in group]


def prewarm_campaign_caches(task_ids: Iterable[str]) -> int:
    """Warm this process's caches with each task's golden artifacts.

    For every task id the canonical (golden driver, golden RTL) pairing
    is parsed, elaborated and compiled into a pair template — the design
    every validator matrix and AutoEval sweep of that task re-simulates.
    Each task warms its own cache scope.  Returns the number of tasks
    warmed.

    Campaigns with a store call this before their first item and save
    the result as the store's snapshot, so a resumed run or a shard
    worker starts with the goldens built.  A task whose golden artifacts
    fail to build is skipped — the campaign item itself will surface
    the error.
    """
    from ..codegen import render_driver

    warmed = 0
    for task_id in task_ids:
        with use_task_scope(task_id):
            try:
                task = get_task(task_id)
                golden = task.golden_rtl()
                driver = render_driver(task, task.canonical_scenarios())
                _pair_template(golden, driver, "tb")
            except (KeyError, HdlError):  # pragma: no cover - defensive
                continue
            warmed += 1
    return warmed


# ----------------------------------------------------------------------
# Progress reporting
# ----------------------------------------------------------------------
def _accepts_keyword(progress, name: str) -> bool:
    """Does ``progress`` accept keyword ``name``?"""
    try:
        signature = inspect.signature(progress)
    except (TypeError, ValueError):  # builtins, odd callables
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if (parameter.name == name
                and parameter.kind is not inspect.Parameter.VAR_POSITIONAL):
            return True
    return False


def _reporter(progress, total: int):
    """``report(run, skipped=False)``: count one finished item and call
    ``progress(done, total, run)`` with the running count.

    Every item is reported exactly once, so ``done`` is strictly
    monotonic.  Callbacks that accept a ``skipped`` keyword also learn
    whether the item was a store hit.
    """
    done = 0
    skip_aware = progress is not None and _accepts_keyword(progress,
                                                           "skipped")

    def report(run: TaskRun, skipped: bool = False) -> None:
        nonlocal done
        done += 1
        if skip_aware:
            progress(done, total, run, skipped=skipped)
        elif progress is not None:
            progress(done, total, run)
    return report


def campaign_items(config: CampaignConfig,
                   context: SimContext | None = None) -> list[tuple]:
    """The campaign's work items, in canonical (reporting) order:
    method, then seed, then task.

    Each item tuple is positionally compatible with
    :func:`repro.eval.store.store_key`, so ``store_key(*item)`` is the
    item's persistent identity.  Items are reported (``runs[]``) in this
    order; :func:`run_campaign` *executes* them grouped by task (see
    :func:`_task_groups`).
    """
    if context is None:
        context = config.resolved_context()
    return [(method, task_id, seed, config.profile_name,
             config.criterion_name, config.group_size, context)
            for method in config.methods
            for seed in config.seeds
            for task_id in config.task_ids]


def _task_groups(items: list[tuple], todo: list[int],
                 task_ids: Sequence[str], n_jobs: int) -> list[list[int]]:
    """Split the outstanding item indices ``todo`` (ascending) into
    units of executor work.

    Each task's outstanding items form one group, so one worker builds
    the task's golden artifacts, mutants, parses and compiled programs
    once for all of its items.  Groups follow ``task_ids`` order, and
    items keep canonical order inside a group.  When fewer tasks are
    outstanding than ``n_jobs``, each task's items are dealt round-robin
    into ``ceil(n_jobs / tasks)`` groups, so every worker gets work.
    """
    by_task: dict[str, list[int]] = {task_id: [] for task_id in task_ids}
    for index in todo:
        by_task[items[index][1]].append(index)
    outstanding = [indices for indices in by_task.values() if indices]
    ways = -(-n_jobs // max(1, len(outstanding)))  # ceil division
    return [indices[way::ways] for indices in outstanding
            for way in range(min(ways, len(indices)))]


def _resolve_store(context: SimContext,
                   store: CampaignStore | None) -> CampaignStore | None:
    """An explicit ``store`` argument wins; otherwise the context's
    ``store_dir`` knob (seeded from ``REPRO_STORE_DIR``) opens one;
    otherwise the campaign runs store-less."""
    if store is not None:
        return store
    if context.store_dir:
        return CampaignStore(context.store_dir)
    return None


def _prewarm_and_snapshot(context: SimContext, task_ids,
                          store: CampaignStore) -> None:
    """Pre-warm this process's caches and save them as ``store``'s
    warm-boot snapshot.

    Saved right after the pre-warm, before any item runs, the snapshot
    carries only the goldens — small to load, everything a resumed run
    can reuse — and a campaign killed mid-flight still resumes warm.
    """
    with use_context(context):
        prewarm_campaign_caches(task_ids)
        store.save_snapshot(caches.export_snapshot())


def run_campaign(config: CampaignConfig, progress=None, *,
                 store: CampaignStore | None = None,
                 resume: bool = False) -> CampaignResult:
    """Run the full campaign: serially, on the shared process pool, or
    on threads for a live LLM backend.

    Parallel campaigns draw workers from the persistent simulation pool
    (:func:`repro.core.simulation.get_sim_pool`), so consecutive
    campaigns — and interleaved batch simulation calls — reuse the same
    worker processes and their warm caches instead of paying a pool
    spin-up per run.  Every work item carries the campaign's resolved
    :class:`SimContext`; its ``start_method`` selects how the pool
    starts workers, and each worker builds what its items need.
    Live-backend items are I/O-bound and their clients cannot cross a
    process boundary, so ``n_jobs > 1`` runs them on threads instead;
    wire concurrency stays bounded by the backends' global in-flight
    cap.

    Dispatch is task-affine: the outstanding items are grouped by task
    (:func:`_task_groups`) and each group is one unit of pool or thread
    work, so a task's golden artifacts, mutants and compiled programs
    are built in one worker rather than in every worker; a serial
    campaign simply runs its items task by task.  ``runs`` stays in
    canonical :func:`campaign_items` order either way.

    ``progress`` is called as ``progress(done, total, run)`` exactly
    once per item, in completion order, ``done`` counting up from 1; a
    callback accepting a ``skipped`` keyword can also tell store hits
    from computed results.

    With a ``store`` (explicit argument, or opened from the resolved
    context's ``store_dir`` / ``REPRO_STORE_DIR``), every completed item
    is persisted as soon as its result reaches this process — a killed
    campaign loses at most the work in flight (a serial campaign's
    current item; each pool worker's current task group).  Before its
    first outstanding item the campaign pre-warms the goldens and saves
    them as the store's snapshot (see :func:`prewarm_campaign_caches`).
    ``resume=True`` additionally boots the caches from the store's
    co-located snapshot (if one was saved) and answers already-stored
    items without resimulating them; hits are reported through
    ``progress`` first and counted in ``CampaignResult.store_hits``.

    A broken pool is healed once: the pool is recreated and only the
    items not yet recorded run again, regrouped by task, so completed
    work survives the heal with or without a store.
    """
    context = config.resolved_context()
    items = campaign_items(config, context)
    store = _resolve_store(context, store)
    report = _reporter(progress, len(items))
    runs: list[TaskRun | None] = [None] * len(items)
    n_jobs = config.n_jobs or 1
    threaded = n_jobs > 1 and is_live_backend(context.llm_backend)
    pooled = n_jobs > 1 and not threaded

    if store is not None and resume:
        for index, item in enumerate(items):
            runs[index] = store.get(store_key(*item))
            if runs[index] is not None:
                report(runs[index], skipped=True)
    result = CampaignResult(config)
    hits = sum(run is not None for run in runs)
    if store is not None:
        result.store_hits = hits
        result.store_misses = len(items) - hits
    if hits < len(items):
        if store is not None and resume:
            # Boot warm for the outstanding work; a fully
            # store-satisfied resume skips the import entirely.
            snapshot = store.load_snapshot()
            if snapshot is not None:
                with use_context(context):
                    caches.import_snapshot(snapshot)
        if store is not None:
            _prewarm_and_snapshot(context, config.task_ids, store)

    def record(index: int, run: TaskRun) -> None:
        runs[index] = run
        if store is not None:
            store.put(store_key(*items[index]), run)
        report(run)

    def start(groups: list[list[tuple]]):
        """An iterator of runs, one per item, in ``groups`` order."""
        # _worker and get_sim_pool are looked up here, per call, so a
        # patched module attribute takes effect.
        if threaded:
            return chain.from_iterable(threads.map(_run_group, groups))
        if pooled:
            pool = get_sim_pool(n_jobs, start_method=context.start_method)
            return chain.from_iterable(pool.map(_run_group, groups))
        return map(_worker, chain.from_iterable(groups))

    with (ThreadPoolExecutor(n_jobs, thread_name_prefix="repro-llm")
          if threaded else nullcontext()) as threads:
        for attempt in (0, 1):
            todo = [index for index, run in enumerate(runs) if run is None]
            if not todo:
                break
            groups = _task_groups(items, todo, config.task_ids, n_jobs)
            results = None
            try:
                results = start([[items[index] for index in group]
                                 for group in groups])
                for index, run in zip(chain.from_iterable(groups), results,
                                      strict=True):
                    record(index, run)
            except RuntimeError as error:
                if attempt or not _pool_failure(error, results):
                    raise
                shutdown_sim_pool(wait=False)

    result.runs = runs
    return result


# ----------------------------------------------------------------------
# Shard coordinator
# ----------------------------------------------------------------------
def _shard_worker(payload: tuple) -> tuple[int, int]:
    """One shard: open the shared store, boot warm from its snapshot
    (``resume=True`` imports it before the first item), run the task
    slice serially, persist every completed item.  Returns the shard's
    (store_hits, store_misses) pair for the coordinator's totals."""
    config, store_dir = payload
    store = CampaignStore(store_dir)
    result = run_campaign(config, store=store, resume=True)
    return result.store_hits, result.store_misses


def run_sharded_campaign(config: CampaignConfig, shards: int,
                         store: CampaignStore | None = None,
                         progress=None) -> CampaignResult:
    """Fan the campaign's task list out over ``shards`` worker
    processes sharing one persistent store.

    The coordinator pre-warms its caches and saves a
    :class:`~repro.core.caches.CacheSnapshot` into the store — the same
    step :func:`run_campaign` takes before its first item — then
    round-robins task slices to fresh worker processes; each worker
    imports the snapshot before its first item (via
    ``run_campaign(..., resume=True)``), runs its slice serially, and
    persists every completed item.  The final
    :class:`CampaignResult` is assembled from the store in canonical
    item order, so reports are identical to an unsharded run, and
    ``progress`` sees each item once, in that order, as
    ``progress(done, total, run)``.
    ``store_hits`` / ``store_misses`` aggregate the workers' counters —
    a resumed sharded campaign skips already-stored items exactly like
    an unsharded resume.

    A store is required (explicit argument, the context's
    ``store_dir``, or ``REPRO_STORE_DIR``): it is the only channel
    results travel back through.  Raises :class:`StoreError` without
    one, or if a worker exits leaving its slice incomplete.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    context = config.resolved_context()
    store = _resolve_store(context, store)
    if store is None:
        raise StoreError(
            "sharded campaigns need a persistent store: pass store=, "
            "set the context's store_dir, or export REPRO_STORE_DIR")
    if shards == 1:
        return run_campaign(config, progress, store=store, resume=True)

    _prewarm_and_snapshot(context, config.task_ids, store)

    slices = [config.task_ids[shard::shards] for shard in range(shards)]
    payloads = [(replace(config, task_ids=chunk, n_jobs=1,
                         context=context), str(store.root))
                for chunk in slices if chunk]
    mp_context = multiprocessing.get_context(
        _resolve_start_method(context.start_method))
    hits = misses = 0
    with ProcessPoolExecutor(max_workers=len(payloads),
                             mp_context=mp_context) as executor:
        for shard_hits, shard_misses in executor.map(_shard_worker,
                                                     payloads):
            hits += shard_hits
            misses += shard_misses

    items = campaign_items(config, context)
    result = CampaignResult(config, store_hits=hits, store_misses=misses)
    report = _reporter(progress, len(items))
    for item in items:
        run = store.get(store_key(*item))
        if run is None:
            raise StoreError(
                f"shard workers left item unwritten: method={item[0]!r} "
                f"task={item[1]!r} seed={item[2]!r}")
        result.runs.append(run)
        report(run)
    return result

