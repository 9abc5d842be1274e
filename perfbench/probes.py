"""Layer probes: spans timed around calls into the ``repro`` package.

The probes live in the benchmark, not in the program: each one replaces a
public function or method of a layer with a wrapper that times the call.
A span's *self time* is its duration minus the durations of its direct
child spans, so the self times of every layer add up exactly (in integer
nanoseconds) to the durations of the root spans.

Two kinds of span share that arithmetic:

* coarse spans (workload construction, machine assembly, ``Machine.run``,
  ``verify``, cache I/O, CLI commands) happen a few times per cell; each
  is kept in :attr:`Tracer.spans` and written out when the run ends;
* per-call spans of the hot layers (``mem``, ``network``, ``sync``) happen
  millions of times per pass, so they only update the per-layer totals.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

#: Every layer a span can be charged to, in reporting order; ``bench`` is
#: the benchmark's own calibration kernel (see ``perfbench.calibrate``).
LAYERS = (
    "core", "workloads", "runtime", "sim", "mem", "network", "sync", "verify", "obs", "bench",
)

#: Memory-system methods the engine calls.
MEM_METHODS = (
    "read", "write", "acquire", "release", "publish", "self_invalidate",
    "sync_note", "phase_note",
)
#: Network entry points used by the memory systems and the sync manager.
NETWORK_METHODS = ("transfer", "fanout", "multicast")
#: SyncManager methods the engine calls.
SYNC_METHODS = ("acquire", "release", "barrier_wait", "flag_set", "flag_wait")
#: Tolerance of the per-cell balance check (see ``Probes.cell_executor``):
#: a share of the cell's own elapsed time, plus a floor in nanoseconds.
BALANCE_SLACK = 0.01
BALANCE_FLOOR_NS = 1_000_000


class Tracer:
    """Span stack with per-layer self time, inclusive time and call counts.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: Open spans as ``[child_ns, layer]``; the sentinel collects the
        #: durations of root spans.
        self._stack: list[list[Any]] = [[0, None]]
        self.self_ns = dict.fromkeys(LAYERS, 0)
        #: Durations of spans whose parent belongs to another layer, i.e.
        #: time inside the layer including what it called.
        self.incl_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: Kept spans: ``(layer, name, start_ns, end_ns, depth)``.
        self.spans: list[tuple[str, str, int, int, int]] = []

    @property
    def root_ns(self) -> int:
        """Summed duration of every closed root span."""
        return self._stack[0][0]

    def wrap(self, layer: str, fn: Callable, name: str = "", keep: bool = False) -> Callable:
        """Return ``fn`` wrapped in a ``layer`` span (kept when ``keep``)."""
        if layer not in self.self_ns:
            raise ValueError(f"unknown layer {layer!r}")
        stack = self._stack
        clock = self.clock
        self_ns = self.self_ns
        incl_ns = self.incl_ns
        calls = self.calls
        spans = self.spans
        label = name or getattr(fn, "__name__", layer)

        def probe(*args, **kwargs):
            frame = [0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1]
                parent[0] += dur
                if parent[1] != layer:
                    incl_ns[layer] += dur
                self_ns[layer] += dur - frame[0]
                calls[layer] += 1
                if keep:
                    spans.append((layer, label, t0, t1, len(stack) - 1))

        probe.__wrapped__ = fn  # type: ignore[attr-defined]
        return probe


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def set(self, obj: object, name: str, value: object) -> None:
        own = name in vars(obj)
        self._undo.append((obj, name, vars(obj).get(name), own))
        setattr(obj, name, value)

    def undo(self) -> None:
        while self._undo:
            obj, name, old, own = self._undo.pop()
            if own:
                setattr(obj, name, old)
            else:
                delattr(obj, name)


class MemoryProxy:
    """Memory-system proxy that routes each engine-facing call through a wrapper.

    ``wrap(name, fn)`` returns the wrapped method.  The proxy exposes the
    inner system's ``_hit_result``, so the engine keeps its flyweight hit
    fast path and ``res is hit`` still identifies a stall-free hit.  A
    method the inner system lacks stays missing, so the engine's
    ``getattr(memsys, "sync_note", None)`` sees the same answer as without
    the proxy.
    """

    def __init__(self, inner: Any, wrap: Callable[[str, Callable], Callable]):
        self._inner = inner
        self._hit_result = getattr(inner, "_hit_result", None)
        for name in MEM_METHODS:
            fn = getattr(inner, name, None)
            if fn is not None:
                setattr(self, name, wrap(name, fn))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class FastpathCount:
    """Read/write calls of one machine, and those answered by the flyweight hit."""

    def __init__(self) -> None:
        self.calls = 0
        self.hits = 0

    def counted(self, fn: Callable, hit: Any) -> Callable:
        def counted(proc, addr, now):
            res = fn(proc, addr, now)
            self.calls += 1
            if res is hit:
                self.hits += 1
            return res

        return counted


def instrument_machine(machine: Any, tracer: Tracer, patches: Patches) -> FastpathCount:
    """Install the per-call probes on one assembled machine, before it runs."""
    for name in SYNC_METHODS:
        patches.set(machine.sync, name, tracer.wrap("sync", getattr(machine.sync, name)))
    for name in NETWORK_METHODS:
        fn = getattr(machine.network, name, None)
        if fn is not None:
            patches.set(machine.network, name, tracer.wrap("network", fn))
    engine = machine.engine
    proxy = MemoryProxy(engine.memsys, lambda _name, fn: tracer.wrap("mem", fn))
    count = FastpathCount()
    proxy.read = count.counted(proxy.read, proxy._hit_result)
    proxy.write = count.counted(proxy.write, proxy._hit_result)
    patches.set(engine, "memsys", proxy)
    return count


class Probes:
    """The probe set of one traced pass, and what it saw.

    ``level`` selects how deep the probes go:

    * ``"core"`` — ``ResultCache.get``/``put`` only (what a pool pass
      runs in the client process);
    * ``"coarse"`` — also construction, assembly, ``Machine.run``,
      ``verify`` and the observability CLI entry points and writers;
    * ``"fine"`` — also every mem, network and sync call of each machine.
    """

    LEVELS = ("core", "coarse", "fine")

    def __init__(self, level: str, tracer: Tracer | None = None):
        if level not in self.LEVELS:
            raise ValueError(f"level must be one of {self.LEVELS}, got {level!r}")
        self.level = level
        self.tracer = tracer if tracer is not None else Tracer()
        #: One fast-path count per machine run under fine probes.
        self.fastpath_counts: list[FastpathCount] = []
        #: Cells whose layer self times did not add up to the cell's own
        #: elapsed time.
        self.unbalanced_cells = 0

    @contextmanager
    def installed(self) -> Iterator[Probes]:
        from repro import __main__ as cli
        from repro.apps.factory import APP_REGISTRY, AppFactory
        from repro.core.parallel import ResultCache
        from repro.obs.profile import HostProfiler
        from repro.runtime.context import Machine

        tr = self.tracer
        patches = Patches()
        try:
            patches.set(ResultCache, "get", tr.wrap("core", ResultCache.get, "cache_get", True))
            patches.set(ResultCache, "put", tr.wrap("core", ResultCache.put, "cache_put", True))
            if self.level != "core":
                patches.set(AppFactory, "__call__", tr.wrap("workloads", AppFactory.__call__,
                                                           "construct", True))
                patches.set(Machine, "__init__", tr.wrap("runtime", Machine.__init__,
                                                         "assemble", True))
                for cls in set(APP_REGISTRY.values()):
                    patches.set(cls, "setup", tr.wrap("runtime", cls.setup, "setup", True))
                    patches.set(cls, "verify", tr.wrap("verify", cls.verify, "verify", True))
                patches.set(Machine, "run", tr.wrap("sim", self._run_hook(Machine.run),
                                                    "run", True))
                for cmd in ("cmd_trace", "cmd_attribute", "cmd_profile"):
                    patches.set(cli, cmd, tr.wrap("obs", getattr(cli, cmd), cmd[4:], True))
                for writer in ("to_perfetto", "attribution_to_perfetto", "write_trace"):
                    patches.set(cli, writer, tr.wrap("obs", getattr(cli, writer),
                                                     "export", True))
                patches.set(HostProfiler, "to_perfetto",
                            tr.wrap("obs", HostProfiler.to_perfetto, "export", True))
            yield self
        finally:
            patches.undo()

    def _run_hook(self, run: Callable) -> Callable:
        if self.level != "fine":
            return run

        def instrumented_run(machine, worker):
            patches = Patches()
            self.fastpath_counts.append(instrument_machine(machine, self.tracer, patches))
            try:
                return run(machine, worker)
            finally:
                patches.undo()

        return instrumented_run

    def cell_executor(self, execute: Callable) -> Callable:
        """``execute`` as a kept ``core`` span named ``cell``, checked against
        the cell's own clock.

        The self times charged during the cell must add up to the
        ``elapsed`` that ``execute_job`` measures around its own body, up
        to the probe's entry and exit and the result's construction
        (BALANCE_SLACK of the cell, plus BALANCE_FLOOR_NS).  A cell outside
        that counts in :attr:`unbalanced_cells`: time the probes lost, or
        charged twice.
        """
        tracer = self.tracer
        cell = tracer.wrap("core", execute, "cell", keep=True)

        def checked(spec):
            before = sum(tracer.self_ns.values())
            job = cell(spec)
            charged = sum(tracer.self_ns.values()) - before
            own = job.elapsed * 1e9
            if not 0 <= charged - own <= BALANCE_SLACK * own + BALANCE_FLOOR_NS:
                self.unbalanced_cells += 1
            return job

        return checked

    def fastpath(self) -> tuple[int, int]:
        """(read/write calls, of which flyweight hits) over every probed machine."""
        return (
            sum(c.calls for c in self.fastpath_counts),
            sum(c.hits for c in self.fastpath_counts),
        )

    def span_seconds(self, name: str) -> float:
        """Summed duration of the kept spans called ``name``."""
        return sum(end - start for _, n, start, end, _ in self.tracer.spans if n == name) / 1e9


@contextmanager
def capture_runs(results: list) -> Iterator[None]:
    """Append every ``Machine.run`` result to ``results`` while active.

    One call per cell: it lets the benchmark digest the simulated
    statistics of runs made inside CLI commands, in traced and untraced
    passes alike.
    """
    from repro.runtime.context import Machine

    run = Machine.run

    def capturing_run(machine, worker):
        result = run(machine, worker)
        results.append((machine.system_name, result))
        return result

    patches = Patches()
    patches.set(Machine, "run", capturing_run)
    try:
        yield
    finally:
        patches.undo()
