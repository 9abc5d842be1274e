"""Process-pool fan-out and result caching for studies and sweeps.

The paper's methodology is embarrassingly parallel: a study runs the
same application on five independent memory systems, a sweep runs one
system at many parameter values, and no run shares state with any
other.  This module exploits that structure:

* :class:`JobSpec` — a picklable description of one simulation run
  (application factory + memory system + :class:`MachineConfig`);
* :func:`execute_job` — runs one spec and returns a :class:`JobResult`
  whose payload (a :class:`SimResult` plus the traffic summary and
  z-machine counters) is itself picklable, so nothing heavyweight — in
  particular no :class:`~repro.runtime.context.Machine` — crosses the
  pool boundary;
* :func:`run_jobs` — fans specs out over the process's one shared
  ``ProcessPoolExecutor`` with deterministic result ordering, fallback
  to in-process execution when ``jobs == 1`` or a spec cannot be
  pickled, and an optional on-disk :class:`ResultCache`;
* :class:`ResultCache` — keyed by a stable hash of (job spec, code
  fingerprint), so repeated studies and sweeps are near-free while any
  change to the simulator's source invalidates every entry.

See docs/performance.md for the architecture and cache-invalidation
rules, and ``repro.core.bench`` for the measured speedups.
"""
# lint: ok-module[wall-clock] — measurement harness: wall-clock here times the
# host, never the simulation; simulated timing comes only from cycle counts.

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import sys
import tempfile
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import util
from pathlib import Path
from types import FunctionType

from ..apps.base import Application, run_machine
from ..apps.factory import APP_REGISTRY, AppFactory
from ..config import MachineConfig
from ..mem.systems import SYSTEM_REGISTRY
from ..mem.systems.zmachine import ZMachine
from ..obs import telemetry
from ..obs.log import configure as _configure_logger, get_logger
from ..sim.stats import SimResult

#: Environment variable overriding the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every cache entry independently of source changes.
#: 2: SimResult gained the ``ops`` field (manifests report events/sec).
CACHE_SCHEMA = 2


# ---------------------------------------------------------------------------
# job specification and execution


@dataclass(frozen=True)
class JobSpec:
    """One simulation run: application factory + system + configuration.

    ``factory`` should be an :class:`~repro.apps.factory.AppFactory`
    (or any picklable zero-argument callable) for the spec to run in a
    worker process and to be cacheable; an unpicklable factory (e.g. a
    lambda) still executes, just in-process and uncached.
    """

    factory: Callable[[], Application]
    system: str
    config: MachineConfig
    verify: bool = True
    max_ops: int | None = None

    def fingerprint(self) -> str:
        """Stable identity of this spec, for cache keying.

        Raises ``ValueError`` for factories with no stable identity.
        """
        if isinstance(self.factory, AppFactory):
            fact = repr(self.factory)
        else:
            try:
                fact = pickle.dumps(self.factory, protocol=4).hex()
            except Exception:
                raise ValueError(
                    f"factory {self.factory!r} is not picklable; "
                    "use repro.apps.AppFactory for cacheable jobs"
                ) from None
        return (
            f"schema={CACHE_SCHEMA};factory={fact};system={self.system};"
            f"config={self.config!r};verify={self.verify};max_ops={self.max_ops}"
        )


@dataclass
class JobResult:
    """Picklable payload of one run — everything a study/sweep needs.

    Shipping this instead of a ``Machine`` keeps the pool (and the
    cache) cheap: a :class:`SimResult` is a few KB of counters.
    """

    system: str
    result: SimResult
    #: Canonical application name (``Application.name``).
    app: str = ""
    #: ``memsys.traffic_summary()`` of the run's machine.
    traffic: dict[str, float] = field(default_factory=dict)
    #: z-machine-only counters (``shared_writes``, ``network_cycles``),
    #: ``None`` for the real memory systems.
    zstats: dict[str, float] | None = None
    #: Wall-clock seconds of the whole job (when freshly executed):
    #: constructing the app, running it and, if asked, ``verify()``.
    elapsed: float = 0.0
    #: Whether this result was served from the on-disk cache.
    cached: bool = False


def execute_job(spec: JobSpec) -> JobResult:
    """Run one :class:`JobSpec` in the current process."""
    t0 = time.perf_counter()
    app = spec.factory()
    machine, result = run_machine(
        app, spec.system, spec.config, verify=spec.verify, max_ops=spec.max_ops
    )
    zstats = None
    if isinstance(machine.memsys, ZMachine):
        zstats = {
            "shared_writes": machine.memsys.shared_writes,
            "network_cycles": machine.memsys.network_cycles,
        }
    return JobResult(
        system=machine.system_name,
        result=result,
        app=app.name,
        traffic=machine.memsys.traffic_summary(),
        zstats=zstats,
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# on-disk result cache


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file — the cache's code version.

    Any edit to the simulator invalidates all cached results, which is
    the conservative rule: results are only reused when the code that
    would recompute them is byte-identical.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


_CODE_FINGERPRINT: str | None = None


def cache_key(spec: JobSpec) -> str:
    """sha256 over (spec fingerprint, code fingerprint)."""
    text = f"{spec.fingerprint()}|code={code_fingerprint()}"
    return hashlib.sha256(text.encode()).hexdigest()


class ResultCache:
    """Directory of pickled :class:`JobResult`\\ s keyed by :func:`cache_key`.

    Entries carry the code fingerprint inside their key, so stale
    results are never *returned* — they are simply unreachable garbage
    that :meth:`clear` removes.
    """

    #: File inside the cache directory accumulating lifetime counters.
    STATS_FILE = "stats.json"

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory).expanduser()
        self.hits = 0
        self.misses = 0

    @classmethod
    def default(cls) -> ResultCache:
        """Cache at ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
        return cls(os.environ.get(CACHE_DIR_ENV, "~/.cache/repro"))

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, spec: JobSpec) -> JobResult | None:
        """Return the cached result for ``spec``, or ``None`` on a miss."""
        try:
            key = cache_key(spec)
        except ValueError:
            self.misses += 1
            return None
        try:
            with open(self._path(key), "rb") as fh:
                job = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        job.cached = True
        return job

    def put(self, spec: JobSpec, job: JobResult) -> None:
        """Store ``job`` under ``spec``'s key (atomic; best-effort)."""
        try:
            key = cache_key(spec)
        except ValueError:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(job, fh, protocol=4)
            os.replace(tmp, self._path(key))
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def size(self) -> tuple[int, int]:
        """(number of entries, total bytes) on disk."""
        entries = 0
        total_bytes = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                try:
                    total_bytes += path.stat().st_size
                    entries += 1
                except OSError:
                    pass
        return entries, total_bytes

    def _stats_path(self) -> Path:
        return self.directory / self.STATS_FILE

    def lifetime_stats(self) -> dict:
        """Accumulated hit/miss counters across every recorded session."""
        try:
            with open(self._stats_path()) as fh:
                doc = json.load(fh)
            return {"hits": int(doc.get("hits", 0)), "misses": int(doc.get("misses", 0))}
        except (OSError, ValueError):
            return {"hits": 0, "misses": 0}

    def persist_stats(self, hits: int, misses: int) -> None:
        """Fold a batch's hit/miss delta into the on-disk totals.

        Called by :func:`run_jobs` with the counters this batch added
        (session counters themselves stay untouched — manifests read
        them after the run).  Best-effort: a read-only cache directory
        must never fail a run.
        """
        if hits == 0 and misses == 0:
            return
        totals = self.lifetime_stats()
        totals["hits"] += hits
        totals["misses"] += misses
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(totals, fh)
            os.replace(tmp, self._stats_path())
        except OSError:
            pass


# ---------------------------------------------------------------------------
# fan-out


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a worker count: ``None``/``0`` means one per CPU this process may use."""
    if jobs is None or jobs == 0:
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
        return len(cpus) or os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _poolable(calls: Iterable) -> bool:
    """Whether every call survives a round-trip to a worker process."""
    try:
        pickle.dumps(list(calls), protocol=4)
        return True
    except Exception:
        return False


class JobCrashed(BrokenProcessPool):
    """A pooled call killed its worker even when it ran alone in a fresh pool."""


class _NoPool(OSError):
    """No worker pool could be started: the calls run in-process."""


_POOL: tuple[tuple, int, ProcessPoolExecutor] | None = None  #: (key, size, executor) of _pool
os.register_at_fork(after_in_child=lambda: globals().update(_POOL=None))  # a fork owns no pool


def _pool(nworkers: int, ncalls: int) -> ProcessPoolExecutor:
    """The shared pool, made by the first pooled batch and grown (up to ``nworkers``) for a
    larger one.  Its forked workers know the parent as it was then, so it is replaced when
    the worker count, an app or system registry or ``__main__``'s functions and classes change."""
    global _POOL
    ns = vars(sys.modules["__main__"]).items()
    own = [m for m in ns if isinstance(m[1], type | FunctionType) and m[1].__module__ == "__main__"]
    key = (nworkers, *APP_REGISTRY.items(), *SYSTEM_REGISTRY.items(), *own)
    size = min(nworkers, ncalls)
    if _POOL is not None and (_POOL[0] != key or _POOL[1] < size):
        _POOL[2].shutdown(wait=True, cancel_futures=True)
        _POOL = None
    if _POOL is None:
        try:
            pool = ProcessPoolExecutor(max_workers=size)
            pool.submit(int).result()  # start the workers now: an OSError here means no pool
        except OSError as err:
            raise _NoPool(*err.args) from err
        # A multiprocessing child joins its children when it exits: shut the workers down
        # first, ahead of the finalizers (priority 10) that close the queues to them.
        util.Finalize(None, pool.shutdown, exitpriority=100)
        _POOL = (key, size, pool)
    return _POOL[2]


#: The task context last applied in this worker process, and its queue.
_WORKER_CONTEXT = b""
_WORKER_QUEUE = None


def _in_worker(context: bytes, fn: Callable, *args):
    """Pool task: reapply the parent's logger state and telemetry queue if changed, call ``fn``."""
    global _WORKER_CONTEXT, _WORKER_QUEUE
    if context != _WORKER_CONTEXT:
        logger_state, _WORKER_QUEUE = pickle.loads(context)
        _configure_logger(**logger_state)
        _WORKER_CONTEXT = context
    return fn(*args)


def _spec_label(spec) -> tuple[str, str]:
    """(app, system) display names for a spec's heartbeat records."""
    factory = getattr(spec, "factory", None)
    app = (
        getattr(factory, "app", None)  # AppFactory("IS", ...)
        or getattr(factory, "name", None)
        or getattr(factory, "__name__", factory.__class__.__name__ if factory else "?")
    )
    return str(app), str(getattr(spec, "system", "?"))


def _emit_start(sink, index: int, spec) -> None:
    if sink is not None:
        app, system = _spec_label(spec)
        sink.put(telemetry.job_started(index, app, system))


def _emit_finish(sink, index: int, spec, job) -> None:
    if sink is not None:
        app, system = _spec_label(spec)
        result = getattr(job, "result", None)
        sink.put(
            telemetry.job_finished(
                index,
                app,
                system,
                events=getattr(result, "ops", 0) or 0,
                elapsed_s=getattr(job, "elapsed", 0.0),
                cached=bool(getattr(job, "cached", False)),
            )
        )


def _run_one(executor: Callable, index: int, spec):
    """One job, with heartbeats to the telemetry session (its queue, in a worker)."""
    sink = _WORKER_QUEUE if _WORKER_CONTEXT else telemetry.get_session()
    _emit_start(sink, index, spec)
    job = executor(spec)
    _emit_finish(sink, index, spec, job)
    return job


def _fan_out(calls: dict, nworkers: int, land: Callable, queue) -> list[int]:
    """Run ``calls[i] = (fn, *args)`` on the shared pool, ``land``-ing each value as it
    finishes.  Returns the indices a broken pool lost; an exception cancels unstarted calls."""
    global _POOL
    context = pickle.dumps((get_logger().state(), queue), protocol=4)
    pool, futures, lost = _pool(nworkers, len(calls)), {}, set(calls)
    try:
        with contextlib.suppress(BrokenProcessPool):  # calls not yet submitted are lost
            for i, call in calls.items():
                futures[pool.submit(_in_worker, context, *call)] = i
        for fut in as_completed(futures):
            if not isinstance(fut.exception(), BrokenProcessPool):
                land(futures[fut], fut.result())
                lost.remove(futures[fut])
    except BaseException:
        for fut in futures:
            fut.cancel()
        raise
    if lost:  # broken: let its threads finish, since a thread that holds a lock across a
        pool.shutdown(wait=True)  # fork leaves that lock held in the fresh pool's workers
        _POOL = None
    return sorted(lost)


def _run_calls(calls: dict, nworkers: int, land: Callable, label: Callable, queue=None) -> None:
    """``land(i, fn(*args))`` for each ``calls[i] = (fn, *args)``, pooled if two or more calls
    and workers and all pickle.  Calls a broken pool lost rerun together in a fresh one, then
    each alone; one that breaks its own pool is never run in the parent: :class:`JobCrashed`."""
    lost = list(calls)
    if nworkers > 1 and len(calls) > 1 and _poolable(calls.values()):
        try:
            lost = _fan_out(calls, nworkers, land, queue)
            lost = lost and _fan_out({i: calls[i] for i in lost}, nworkers, land, queue)
        except _NoPool:
            pass
        else:
            dead = [i for i in lost if _fan_out({i: calls[i]}, nworkers, land, queue)]
            if dead:
                raise JobCrashed(f"worker process died running {', '.join(map(label, dead))} alone")
            return
    for i in lost:
        fn, *args = calls[i]
        land(i, fn(*args))


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    executor: Callable = execute_job,
) -> list[JobResult]:
    """Execute ``specs`` and return their results *in spec order*.

    ``jobs > 1`` fans the cache misses out over the process's shared pool
    of that many workers (``None``/``0`` = one per CPU), caching each as it
    lands.  Execution falls back to the in-process path when ``jobs == 1``,
    when a spec cannot be pickled, or when no pool can be created — results
    are identical either way (simulations are deterministic), only wall-clock differs.

    ``executor`` maps one spec to one result and defaults to
    :func:`execute_job`; any module-level callable over specs that have
    a ``fingerprint()`` and results that have a ``cached`` attribute
    works (``repro.analysis.checkers.runner`` reuses this machinery for
    correctness checks).
    """
    specs = list(specs)
    tele = telemetry.get_session()
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0
    if tele is not None:
        tele.attach_total(len(specs))
    results: list[JobResult | None] = [None] * len(specs)
    calls: dict = {}
    for i, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            results[i] = hit
            _emit_finish(tele, i, spec, hit)
        else:
            calls[i] = (_run_one, executor, i, spec)

    def land(i: int, job: JobResult) -> None:
        results[i] = job
        if cache is not None:
            cache.put(specs[i], job)

    nworkers = resolve_jobs(jobs)
    if calls:
        queue = None if tele is None or nworkers < 2 or len(calls) < 2 else tele.remote_queue()
        _run_calls(calls, nworkers, land, lambda i: "/".join(_spec_label(specs[i])), queue)
        if tele is not None:
            tele.drain_pending()
    if cache is not None:
        cache.persist_stats(cache.hits - hits0, cache.misses - misses0)
    return [r for r in results if r is not None]


def parallel_map(
    fn: Callable,
    items: Iterable,
    jobs: int | None = 1,
) -> list:
    """Order-preserving ``map(fn, items)`` over the shared process pool.

    ``fn`` must be a module-level callable for ``jobs > 1``; falls back
    to a plain in-process map when no pool can be created or anything
    fails to pickle.
    """
    items = list(items)
    out = [None] * len(items)
    calls = {i: (fn, item) for i, item in enumerate(items)}
    _run_calls(calls, resolve_jobs(jobs), out.__setitem__, lambda i: repr(items[i]))
    return out


__all__ = [
    "CACHE_DIR_ENV",
    "JobCrashed",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "cache_key",
    "code_fingerprint",
    "execute_job",
    "parallel_map",
    "resolve_jobs",
    "run_jobs",
]
