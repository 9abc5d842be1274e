"""Self-profiler tests: sample classification, signal hygiene, reporting.

The profiler is a ``SIGPROF`` stack sampler around ``machine.run``: the
engine runs its one op loop, so simulated results are bit-identical with
or without it.  How many samples land depends on the host, so no
assertion here depends on it: classification is checked on frames
captured deterministically from inside real calls, and the document
arithmetic on fixed sample counts.
"""

from __future__ import annotations

import inspect
import json
import math
import signal
import sys

import pytest

from repro import MachineConfig
from repro.apps import preset
from repro.obs.metrics import MetricsCollector
from repro.obs.profile import COMPONENTS, INTERVAL_S, HostProfiler, classify, line_tags
from repro.runtime.context import Machine
from repro.sim.engine import Engine
from repro.sim.trace import TracingMemory

from .golden import PROC_FIELDS, run_case

#: (app preset, system) cases for the bit-identity matrix: one cheap
#: app on three very different systems plus a sync-heavy app.
CASES = [
    ("IS", "z-mc"),
    ("IS", "RCinv"),
    ("Cholesky", "SCinv"),
    ("Nbody", "RCupd"),
]

SYNC_OPS = {"Acquire", "Release", "BarrierWait", "FlagSet", "FlagWait"}


def _machine(name: str, system: str):
    app = preset("smoke")[name][0]()
    machine = Machine(MachineConfig(nprocs=16), system)
    app.setup(machine)
    return app, machine


def _run(name: str, system: str, sampled: bool, tracer: bool = False):
    app, machine = _machine(name, system)
    if tracer:
        TracingMemory.attach(machine, max_events=100_000)
    if not sampled:
        return machine.run(app.worker), machine
    with HostProfiler():
        return machine.run(app.worker), machine


def _fingerprint(result, machine) -> dict:
    doc = {
        "total_time": result.total_time,
        "ops": result.ops,
        "network_messages": machine.network.stats.messages,
        "network_bytes": machine.network.stats.bytes,
    }
    for field in PROC_FIELDS:
        doc[field] = [getattr(p, field) for p in result.procs]
    return doc


@pytest.mark.parametrize("name,system", CASES)
def test_profiled_run_bit_identical(name, system):
    assert _fingerprint(*_run(name, system, sampled=False)) == _fingerprint(
        *_run(name, system, sampled=True)
    )


def test_profiled_run_bit_identical_under_tracer():
    assert _fingerprint(*_run("IS", "RCinv", sampled=False, tracer=True)) == _fingerprint(
        *_run("IS", "RCinv", sampled=True, tracer=True)
    )


def test_golden_results_match_unprofiled():
    """Spot-check three goldens: sampled == recorded unsampled run."""
    for name, system in (("IS", "z-mc"), ("IS", "RCinv"), ("Cholesky", "SCinv")):
        expected = run_case(preset("smoke")[name][0], system, verify=False)
        res, _ = _run(name, system, sampled=True)
        assert res.total_time == expected["total_time"]
        assert res.ops == expected["ops"]


# -- classification ----------------------------------------------------------


def _module(code) -> str:
    return code.co_filename.replace("\\", "/").rsplit("/repro/", 1)[-1]


def _stack(frame) -> list[str]:
    """Modules of the frames from ``frame`` up to ``Engine.run``."""
    mods = []
    while frame is not None and frame.f_code is not Engine.run.__code__:
        mods.append(_module(frame.f_code))
        frame = frame.f_back
    return mods


def _recorder(calls: list, fn):
    """``fn`` wrapped to classify its own frame on every call.

    The wrapper lives outside the package, so :func:`classify` skips its
    frame and judges the stack of real calls above it.
    """

    def record(*args, **kwargs):
        frame = sys._getframe()
        calls.append((frame.f_back.f_code, classify(frame), _stack(frame)))
        return fn(*args, **kwargs)

    return record


def _run_recorded(name: str, system: str, patch) -> list:
    app, machine = _machine(name, system)
    calls: list = []
    patch(machine, calls)
    machine.run(app.worker)
    return calls


def _record_transfers(machine, calls):
    net = machine.network
    net.transfer = _recorder(calls, net.transfer)


@pytest.mark.parametrize(
    "name,system,callers",
    [
        ("IS", "RCinv", {"mem", "sync", "network"}),  # barriers: sync -> multicast
        ("Cholesky", "RCupd", {"mem", "sync"}),  # locks
        ("Nbody", "z-mc", {"sync", "network"}),  # ideal network
    ],
)
def test_network_calls_classify_by_caller(name, system, callers):
    """A transfer is ``mem`` from the memory system, ``sync`` from the
    sync manager and ``network`` inside the network's own fan-outs, also
    when the sync manager called those (network under sync)."""
    calls = _run_recorded(name, system, _record_transfers)
    expected = {"mem/": "mem", "runtime/sync.py": "sync", "network/": "network"}
    seen = set()
    for caller, got, _ in calls:
        prefix = next(p for p in expected if _module(caller).startswith(p))
        assert got == expected[prefix], (_module(caller), caller.co_name)
        seen.add(got)
    assert seen == callers


def test_network_under_sync_is_network():
    """The barrier's departure multicast runs in the network, called
    from the sync manager: the sample is ``network``, not ``sync``."""
    calls = _run_recorded("IS", "RCinv", _record_transfers)
    under_sync = [
        got for caller, got, stack in calls
        if _module(caller).startswith("network/") and "runtime/sync.py" in stack
    ]
    assert under_sync and set(under_sync) == {"network"}


def test_decorator_frames_are_tracer_and_their_inner_calls_mem():
    """Tracer-over-mem: a memory-system frame below a decorator is
    ``mem``; the decorator's own call into its inner system is ``tracer``."""

    def patch(machine, calls):
        tracer = TracingMemory.attach(machine, max_events=100_000)
        inner = tracer.inner
        inner.read = _recorder(calls, inner.read)
        inner.write = _recorder(calls, inner.write)
        _record_transfers(machine, calls)

    calls = _run_recorded("IS", "RCinv", patch)
    by_caller: dict[str, set] = {}
    for caller, got, _ in calls:
        by_caller.setdefault(_module(caller).split("/")[0], set()).add(got)
    assert by_caller["sim"] == {"tracer"}  # sim/trace.py -> inner.read/write
    assert by_caller["mem"] == {"mem"}  # mem/ -> network.transfer under the tracer


def test_observer_callbacks_are_observer():
    run_code = Engine.run.__code__

    def patch(machine, calls):
        collector = MetricsCollector.attach(machine, interval=1000.0)
        for hook in ("on_access", "on_busy", "on_sync_wait", "on_stall", "on_phase"):
            setattr(collector, hook, _recorder(calls, getattr(collector, hook)))

    calls = _run_recorded("Cholesky", "RCinv", patch)
    direct = [got for caller, got, _ in calls if caller is run_code]
    assert direct and set(direct) == {"observer"}


def test_sync_manager_calls_are_sync():
    def patch(machine, calls):
        # The sync manager's calls back into the engine (wakes) run under it.
        machine.engine.wake = _recorder(calls, machine.engine.wake)

    calls = _run_recorded("Cholesky", "RCinv", patch)
    assert calls and {got for _, got, _ in calls} == {"sync"}


def test_classify_outside_engine_run_is_none():
    assert classify(sys._getframe()) is None
    assert classify(None) is None


def test_line_tags_follow_engine_run():
    """The AST tags find exactly the five sync-op branches, the wheel
    block and the observer lines.  Fails when ``Engine.run`` is
    refactored so these shapes move; update :func:`line_tags` then."""
    lines, first = inspect.getsourcelines(Engine.run)
    src = {first + i: text.strip() for i, text in enumerate(lines)}
    tags = line_tags()
    assert set(tags.values()) == {"wheel", "sync", "observer"}

    observer = {n for n, t in tags.items() if t == "observer"}
    assert observer == {n for n, s in src.items() if s.startswith("obs.on_")}

    wheel = sorted(n for n, t in tags.items() if t == "wheel")
    assert src[wheel[0]] == "if t > hz:"
    assert wheel == list(range(wheel[0], wheel[-1] + 1))
    assert any("heappushpop(" in src[n] for n in wheel)
    assert src[wheel[-1]] == "break"

    heads = sorted(n for n, s in src.items() if s.startswith(("if cls is ", "elif cls is ")))
    ends = heads[1:] + [next(n for n, s in src.items() if s == "else:" and n > heads[-1])]
    tagged_sync = set()
    for head, end in zip(heads, ends):
        name = src[head].split("cls is ")[1].rstrip(":")
        body = [n for n in range(head + 1, end) if src[n] and not src[n].startswith("#")]
        body_tags = {tags.get(n) for n in body}
        if name in SYNC_OPS:
            assert body_tags <= {"sync", "observer"} and "sync" in body_tags, name
            tagged_sync.add(name)
        else:
            assert "sync" not in body_tags, name
    assert tagged_sync == SYNC_OPS


# -- signal hygiene ----------------------------------------------------------


def test_previous_sigprof_handler_and_timer_restored():
    def previous(_signum, _frame):
        pass

    saved = signal.signal(signal.SIGPROF, previous)
    # A timer far beyond this test's CPU time: it never fires.
    signal.setitimer(signal.ITIMER_PROF, 1000.0, 500.0)
    try:
        with HostProfiler() as prof:
            assert signal.getsignal(signal.SIGPROF) == prof._on_sample
            assert signal.getitimer(signal.ITIMER_PROF)[1] == pytest.approx(INTERVAL_S)
        assert signal.getsignal(signal.SIGPROF) is previous
        delay, interval = signal.getitimer(signal.ITIMER_PROF)
        assert interval == pytest.approx(500.0)
        assert 990.0 < delay < 1001.0  # the kernel rounds up to its tick
        with pytest.raises(KeyError), HostProfiler():
            raise KeyError("body fails")
        assert signal.getsignal(signal.SIGPROF) is previous
        assert signal.getitimer(signal.ITIMER_PROF)[1] == pytest.approx(500.0)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, saved)


def test_no_timer_left_running():
    before = signal.getsignal(signal.SIGPROF)
    with HostProfiler():
        pass
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == before


# -- reporting ---------------------------------------------------------------


def _fixed(counts: dict[str, int], wall_ns: int = 1_000_003, ops: int = 1000) -> HostProfiler:
    prof = HostProfiler()
    prof.counts.update(counts)
    prof.wall_ns = wall_ns
    prof.ops = ops
    return prof


def test_to_dict_and_table():
    prof = _fixed({"app": 5, "mem": 3, "sync": 1})
    doc = json.loads(json.dumps(prof.to_dict()))
    assert doc["schema"] == 2
    assert doc["profile"] == "host-component-attribution"
    assert doc["samples"] == 9
    assert doc["interval_s"] == INTERVAL_S
    assert list(doc["components"]) == list(COMPONENTS)
    assert sum(c["ns"] for c in doc["components"].values()) == doc["attributed_ns"]
    assert doc["attributed_ns"] == doc["wall_ns"]
    for key in ("segments", "has_decorators", "unattributed_ns"):
        assert key not in doc
    app = doc["components"]["app"]
    assert app["samples"] == 5
    assert app["pct"] == pytest.approx(100 * 5 / 9, abs=0.01)
    assert app["stderr_pp"] == pytest.approx(100 * math.sqrt(5 / 9 * 4 / 9 / 9), abs=0.01)
    assert doc["components"]["wheel"]["stderr_pp"] == 0.0
    table = prof.table()
    assert "9 samples" in table
    for name in COMPONENTS:
        assert name in table
    assert "(untracked)" not in table


def test_zero_samples_give_a_valid_document():
    """A run shorter than one tick: no samples, no division by zero."""
    prof = _fixed({}, wall_ns=9_000_000)
    doc = prof.to_dict()
    json.dumps(doc, allow_nan=False)
    assert doc["samples"] == 0
    assert doc["attributed_ns"] == 0
    assert all(c["ns"] == 0 and c["pct"] == 0.0 for c in doc["components"].values())
    assert all(c["stderr_pp"] is None for c in doc["components"].values())
    assert "0 samples" in prof.table()
    flame = prof.to_perfetto()
    assert [e["name"] for e in flame["traceEvents"] if e["ph"] == "X"] == ["engine.run"]


def test_accounting_invariant():
    app, machine = _machine("IS", "RCinv")
    with HostProfiler() as prof:
        result = machine.run(app.worker)
    prof.ops = result.ops
    doc = prof.to_dict()
    assert doc["wall_ns"] > 0 and doc["ops"] == result.ops
    assert doc["samples"] == sum(c["samples"] for c in doc["components"].values())
    expected = doc["wall_ns"] if doc["samples"] else 0
    assert doc["attributed_ns"] == expected
    assert sum(c["ns"] for c in doc["components"].values()) == expected


def test_metrics_collector_composes():
    """Sampling a run with the metrics collector attached leaves both the
    simulated results and the collected interval metrics unchanged."""
    docs = []
    for sampled in (False, True):
        app, machine = _machine("IS", "RCinv")
        collector = MetricsCollector.attach(machine, interval=1000.0)
        if sampled:
            with HostProfiler():
                result = machine.run(app.worker)
        else:
            result = machine.run(app.worker)
        docs.append((_fingerprint(result, machine), collector.to_dict()))
    assert docs[0] == docs[1]


def test_to_perfetto_flame():
    prof = _fixed({"wheel": 2, "app": 4, "dispatch": 1})
    doc = prof.to_perfetto()
    events = doc["traceEvents"]
    root = [e for e in events if e.get("name") == "engine.run"]
    assert len(root) == 1
    slices = [e for e in events if e["ph"] == "X" and e["name"] != "engine.run"]
    assert [s["name"] for s in slices] == ["wheel", "app", "dispatch"]
    # Children tile the root without overlap and fill it.
    cursor = 0.0
    for s in sorted(slices, key=lambda e: e["ts"]):
        assert s["ts"] == pytest.approx(cursor)
        cursor += s["dur"]
    assert cursor == pytest.approx(root[0]["dur"])
    json.dumps(doc)  # must be serialisable
