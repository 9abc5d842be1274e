"""Replay cross-check of the memory-system and network layers.

One cell runs with its memory-system calls, and the network transfers
made outside them (the sync manager's traffic), recorded with a snapshot
of each result.  The recorded stream is then replayed once, in recorded
order, against a freshly assembled machine that no engine or application
drives, and each replayed result is compared with the recorded one.  A
result that differs is a mismatch: the layer depends on state that is
not in its call stream.  The replay also times the memory-system calls
(their network children included) with no engine, application or probe
around them, with the garbage collector off; the sync transfers are
replayed but not timed.
"""

from __future__ import annotations

import gc
import time
from typing import Any

from .probes import NETWORK_METHODS, MemoryProxy, Patches


def snapshot(res: Any) -> Any:
    """A comparable copy of a layer call's result (results may be flyweights)."""
    if hasattr(res, "read_stall"):
        return (res.time, res.read_stall, res.write_stall, res.buffer_flush, res.hit)
    if isinstance(res, dict):
        return dict(res)
    return res


class Recorder:
    """Records the outermost mem and network calls of one machine."""

    def __init__(self) -> None:
        #: ``(target, method, args, snapshot of the result)`` of every
        #: outermost call, in order.
        self.log: list[tuple[str, str, tuple, Any]] = []
        self._depth = 0

    def wrap(self, target: str, name: str, fn: Any) -> Any:
        log = self.log

        def recorded(*args):
            self._depth += 1
            try:
                res = fn(*args)
            finally:
                self._depth -= 1
            if self._depth == 0:
                log.append((target, name, args, snapshot(res)))
            return res

        return recorded


def record_cell(spec: Any) -> Recorder:
    """Run one cell with the recorder installed; returns the recorder."""
    from repro.runtime.context import Machine

    app = spec.factory()
    machine = Machine(spec.config, spec.system)
    app.setup(machine)
    recorder = Recorder()
    patches = Patches()
    for name in NETWORK_METHODS:
        fn = getattr(machine.network, name, None)
        if fn is not None:
            patches.set(machine.network, name, recorder.wrap("network", name, fn))
    machine.engine.memsys = MemoryProxy(
        machine.memsys, lambda name, fn: recorder.wrap("mem", name, fn)
    )
    try:
        machine.run(app.worker)
    finally:
        patches.undo()
    if spec.verify:
        app.verify()
    return recorder


def replay(spec: Any, log: list[tuple[str, str, tuple, Any]]) -> dict[str, float]:
    """Replay ``log`` against a freshly assembled machine; returns its counters."""
    from repro.runtime.context import Machine

    machine = Machine(spec.config, spec.system)
    targets = {"mem": machine.memsys, "network": machine.network}
    calls = [(t == "mem", getattr(targets[t], name), args) for t, name, args, _ in log]
    clock = time.perf_counter_ns
    mem_ns = 0
    replayed = []
    # The log and the snapshots hold millions of objects that the program
    # never holds; collections triggered by them would land in the timed
    # calls, so the collector is off while the replay runs.
    gc.collect()
    gc.disable()
    try:
        for timed, fn, args in calls:
            if timed:
                t0 = clock()
                res = fn(*args)
                mem_ns += clock() - t0
            else:
                res = fn(*args)
            replayed.append(snapshot(res))
    finally:
        gc.enable()
    counts = {"mem_calls": 0, "network_calls": 0, "mem_mismatches": 0, "network_mismatches": 0}
    for (target, _, _, recorded), res in zip(log, replayed):
        counts[f"{target}_calls"] += 1
        if res != recorded:
            counts[f"{target}_mismatches"] += 1
    counts["mem_replay_s"] = mem_ns / 1e9
    return counts


def cross_check(spec: Any) -> dict[str, float]:
    """Record one cell and replay it; returns the replay's counters."""
    return replay(spec, record_cell(spec).log)
