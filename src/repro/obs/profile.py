"""Self-profiler: host wall-time attribution for the simulation engine.

The paper decomposes *simulated* cycles into overhead categories
relative to the zero-overhead z-machine.  This module gives the host
simulator the same story about itself: where do *wall-clock*
nanoseconds go while the engine runs?  Components:

``wheel``
    Event-wheel scheduling: the wheel's methods and the
    ``push_pop_peek`` inlined at a segment's exit.
``app``
    Application Python execution — the generator ``send`` that runs
    real workload code between two yielded ops.
``mem``
    Memory-system transaction handling (directory/cache protocol
    models), excluding time spent inside the network.
``network``
    Network routing/transfer calls, whether the memory system or the
    sync manager made them.
``tracer``
    Own code of attached memory-system decorators (TracingMemory,
    MetricsCollector, AttributionCollector, CheckedMemorySystem), not
    the memory system they wrap.  Zero when nothing is attached.
``sync``
    Synchronisation manager calls (locks, barriers, flags) including
    the wakes they trigger, and the engine's sync-op branches.
``observer``
    Engine-observer callbacks (interval metrics) on the data hot path.
``dispatch``
    Everything else inside the scheduler loop: op-class dispatch,
    stall-decomposition accounting, run-ahead checks, stale-entry
    discards.

The profiler is a statistical stack sampler.  While a
:class:`HostProfiler` context is active, ``SIGPROF`` fires every
:data:`INTERVAL_S` seconds of process CPU time and the handler charges
one sample to the component :func:`classify` derives from the
interrupted stack.  The engine runs its one and only op loop,
untouched, so simulated results are those of an unprofiled run by
construction.  ``SIGPROF`` (not ``SIGALRM``) leaves the real-time timer
free for other users, such as a benchmark's calibrator.

Typical use::

    machine = Machine(cfg, "RCinv")
    with HostProfiler() as prof:
        result = machine.run(app.worker)
    prof.ops = result.ops
    print(prof.table())
    write_trace("flame.json", prof.to_perfetto())
"""

from __future__ import annotations

import ast
import functools
import inspect
import math
import os
import signal
import textwrap
from time import perf_counter_ns
from types import FrameType

from ..sim.engine import Engine

#: Host-time components, in display order.
COMPONENTS = (
    "wheel", "app", "mem", "network", "tracer", "sync", "observer", "dispatch",
)

#: One-line description per component (for tables and docs).
COMPONENT_HELP = {
    "wheel": "event-wheel pop/push scheduling",
    "app": "application generator execution",
    "mem": "memory-system transaction handling",
    "network": "network routing/transfer",
    "tracer": "tracer/metrics/checker decorator overhead",
    "sync": "sync manager (locks/barriers/flags)",
    "observer": "engine-observer metric callbacks",
    "dispatch": "engine dispatch + cycle accounting",
}

#: Sampling period in seconds of process CPU time.  The kernel's timer
#: tick bounds the real rate (about 250 samples/s on a 250 Hz kernel).
INTERVAL_S = 0.001

_RUN_CODE = Engine.run.__code__
_PACKAGE = os.path.dirname(os.path.dirname(__file__)) + "/"
#: Module class by path below the package root, first match wins.
#: ``engine`` frames are classified by the line ``Engine.run`` is at;
#: the sampler's own frames (a sample that lands in the handler) are
#: skipped like frames outside the package.
_MODULE_CLASSES = (
    ("network/", "network"),
    ("mem/", "mem"),
    ("sim/wheel.py", "wheel"),
    ("runtime/sync.py", "sync"),
    ("sim/trace.py", "tracer"),
    ("obs/metrics.py", "tracer"),
    ("obs/attrib.py", "tracer"),
    ("analysis/checkers/", "tracer"),
    ("sim/", "engine"),
    ("obs/profile.py", None),
)
_SYNC_OPS = ("Acquire", "Release", "BarrierWait", "FlagSet", "FlagWait")


def _module_class(filename: str) -> str | None:
    """Class of a frame running code from ``filename``; None outside repro."""
    if not filename.startswith(_PACKAGE):
        return None
    rel = filename[len(_PACKAGE):]
    for prefix, cls in _MODULE_CLASSES:
        if rel.startswith(prefix):
            return cls
    return "app"


@functools.cache
def line_tags() -> dict[int, str]:
    """Component of each tagged source line of ``Engine.run``.

    Computed once, on first use, from the function's AST, so the tags
    follow the code when it moves: the ``if t > hz:`` block (the inlined
    ``push_pop_peek``) is ``wheel``, the bodies of the five sync-op
    branches are ``sync`` and every ``obs.on_*(...)`` call is
    ``observer``.  Untagged lines are ``dispatch``.
    """
    lines, first = inspect.getsourcelines(Engine.run)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    offset = first - 1
    tags: dict[int, str] = {}

    def tag(node: ast.AST, end: ast.AST, name: str) -> None:
        for line in range(node.lineno, end.end_lineno + 1):
            tags[line + offset] = name

    for node in ast.walk(tree):
        if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
            continue
        test = node.test
        left, right = test.left, test.comparators[0]
        if not (isinstance(left, ast.Name) and isinstance(right, ast.Name)):
            continue
        if isinstance(test.ops[0], ast.Is) and left.id == "cls" and right.id in _SYNC_OPS:
            tag(node.body[0], node.body[-1], "sync")
        elif isinstance(test.ops[0], ast.Gt) and (left.id, right.id) == ("t", "hz"):
            tag(node, node, "wheel")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "obs"
            and node.func.attr.startswith("on_")
        ):
            tag(node, node, "observer")
    return tags


_CLASS_CACHE: dict[str, str | None] = {}


def classify(frame: FrameType | None) -> str | None:
    """Component of a sample taken in ``frame``; None outside ``Engine.run``.

    Walks from ``frame`` up to the ``Engine.run`` frame, skipping frames
    outside the package.  A network frame anywhere below ``Engine.run``
    makes the sample ``network`` (also under the sync manager), else a
    memory-system frame makes it ``mem``.  Otherwise an ``obs.on_*``
    line of ``Engine.run`` makes it ``observer``, and the frame that
    ``Engine.run`` called decides: the wheel, the sync manager, a
    decorator, or application code.  In ``Engine.run``'s own frame, or
    an engine helper it called (``_charge``), the line decides through
    :func:`line_tags`.
    """
    cache = _CLASS_CACHE
    network = mem = False
    callee = None
    f = frame
    while f is not None:
        code = f.f_code
        if code is _RUN_CODE:
            break
        filename = code.co_filename
        try:
            cls = cache[filename]
        except KeyError:
            cls = cache[filename] = _module_class(filename)
        if cls is not None:
            if cls == "network":
                network = True
            elif cls == "mem":
                mem = True
            callee = cls
        f = f.f_back
    else:
        return None
    if network:
        return "network"
    if mem:
        return "mem"
    tag = line_tags().get(f.f_lineno, "dispatch")
    if tag == "observer" or callee is None or callee == "engine":
        return tag
    return callee


class HostProfiler:
    """Samples host time per simulator component while active.

    A context manager: on entry it installs a ``SIGPROF`` handler and an
    ``ITIMER_PROF`` timer of :data:`INTERVAL_S`; on exit it restores
    the previous handler and timer.  Signals are delivered to the main
    thread, so enter it there.
    """

    def __init__(self) -> None:
        #: Samples per component.
        self.counts: dict[str, int] = dict.fromkeys(COMPONENTS, 0)
        #: Wall time (ns) of the sampled block.
        self.wall_ns = 0
        #: Simulated ops of the sampled run, for ns/op; set by the caller.
        self.ops = 0
        self._saved: tuple = ()
        self._t0 = 0

    def _on_sample(self, _signum: int, frame: FrameType | None) -> None:
        cls = classify(frame)
        if cls is not None:
            self.counts[cls] += 1

    def __enter__(self) -> HostProfiler:
        line_tags()  # parse before the timer starts, not in the handler
        handler = signal.signal(signal.SIGPROF, self._on_sample)
        timer = signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._saved = (handler, timer)
        self._t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.wall_ns += perf_counter_ns() - self._t0
        handler, timer = self._saved
        signal.signal(signal.SIGPROF, handler)
        signal.setitimer(signal.ITIMER_PROF, *timer)

    # -- reporting -------------------------------------------------------
    @property
    def samples(self) -> int:
        """Samples taken inside ``Engine.run``."""
        return sum(self.counts.values())

    @property
    def ns(self) -> dict[str, int]:
        """Wall nanoseconds per component, by sample share.

        Sums exactly to :attr:`wall_ns` when any sample landed (the
        integer remainder goes to the most-sampled component); all zero
        otherwise.
        """
        n = self.samples
        if not n:
            return dict.fromkeys(COMPONENTS, 0)
        wall = self.wall_ns
        ns = {name: wall * self.counts[name] // n for name in COMPONENTS}
        ns[max(COMPONENTS, key=self.counts.__getitem__)] += wall - sum(ns.values())
        return ns

    def stderr_pp(self, name: str) -> float | None:
        """Binomial standard error of ``name``'s share, in percentage points."""
        n = self.samples
        if not n:
            return None
        p = self.counts[name] / n
        return 100.0 * math.sqrt(p * (1.0 - p) / n)

    def to_dict(self) -> dict:
        """JSON-ready attribution document."""
        wall = self.wall_ns
        n = self.samples
        ns = self.ns
        components = {}
        for name in COMPONENTS:
            err = self.stderr_pp(name)
            components[name] = {
                "ns": ns[name],
                "samples": self.counts[name],
                "pct": round(100.0 * self.counts[name] / n, 2) if n else 0.0,
                "stderr_pp": None if err is None else round(err, 2),
                "help": COMPONENT_HELP[name],
            }
        return {
            "schema": 2,
            "profile": "host-component-attribution",
            "wall_ns": wall,
            "attributed_ns": sum(ns.values()),
            "samples": n,
            "interval_s": INTERVAL_S,
            "ops": self.ops,
            "ns_per_op": round(wall / self.ops, 1) if self.ops else None,
            "components": components,
        }

    def table(self) -> str:
        """Human-readable per-component attribution table."""
        wall = self.wall_ns
        n = self.samples
        head = (
            f"host profile: {self.ops:,} ops in {wall / 1e9:.3f}s wall"
            + (f" ({wall / self.ops:,.0f} ns/op)" if self.ops else "")
            + f", {n:,} samples every {INTERVAL_S * 1e3:g} ms CPU"
        )
        if not n:
            return head + "\n(no samples: the run was shorter than one sampling tick)"
        lines = [head, f"{'component':>10s} {'time (ms)':>10s} {'share':>7s} {'±':>6s}  what"]
        ns = self.ns
        for name in COMPONENTS:
            pct = 100.0 * self.counts[name] / n
            lines.append(
                f"{name:>10s} {ns[name] / 1e6:>10.2f} {pct:>6.1f}% "
                f"{self.stderr_pp(name):>5.1f}pp  {COMPONENT_HELP[name]}"
            )
        return "\n".join(lines)

    def to_perfetto(self) -> dict:
        """Perfetto-compatible flame view of the attribution.

        Aggregate flame: one host lane with a root ``engine.run`` slice
        whose children are the components laid side by side, each sized
        by its estimated time (1 us of trace time per 1 us of host
        time).  Loadable in https://ui.perfetto.dev like any timeline.
        """
        wall_us = self.wall_ns / 1e3
        events: list[dict] = [
            {"ph": "M", "pid": 0, "tid": 0, "ts": 0, "name": "process_name",
             "args": {"name": "repro self-profile"}},
            {"ph": "M", "pid": 0, "tid": 0, "ts": 0, "name": "thread_name",
             "args": {"name": "host"}},
            {"ph": "X", "pid": 0, "tid": 0, "cat": "profile", "name": "engine.run",
             "ts": 0, "dur": wall_us,
             "args": {"ops": self.ops, "samples": self.samples}},
        ]
        cursor = 0.0
        for name, ns in self.ns.items():
            dur = ns / 1e3
            if dur <= 0.0:
                continue
            events.append(
                {"ph": "X", "pid": 0, "tid": 0, "cat": "profile", "name": name,
                 "ts": cursor, "dur": dur,
                 "args": {"help": COMPONENT_HELP[name], "samples": self.counts[name]}}
            )
            cursor += dur
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"profile": "host-component-attribution", "wall_ns": self.wall_ns},
        }


__all__ = ["COMPONENTS", "COMPONENT_HELP", "INTERVAL_S", "HostProfiler", "classify", "line_tags"]
