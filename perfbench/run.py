"""Benchmark of the repro simulator: end-to-end host metrics per workload,
and per-layer metrics from a separate traced run.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client process runs the workload's matrix pass after pass, back to
back, for ``--seconds`` (at least one pass).  With ``--trace 0`` nothing
is probed and the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
reported.  ``--workload all`` runs every workload in turn, each in its
own process.  Human-readable lines (metrics with units and sample
counts, cell digests) come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is nonzero when any correctness check fails.

See perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.calibrate import speed_factor  # noqa: E402
from perfbench.probes import Probes  # noqa: E402
from perfbench.replay import cross_check  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    ObservedWorkload,
    PassResult,
    reference_digests,
    sim_counts,
)

#: Scratch space inside the checkout: caches, CLI outputs, spans, digests.
WORK_DIR = ROOT / ".perfbench_work"
#: Timed set-up probes per run (after one untimed probe that warms the
#: bytecode cache, a cost users pay once, not per command).
SETUP_REPEATS = 11

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "import.s": "s",
    "workloads.construct_s": "s",
    "runtime.assemble_s": "s",
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.ns_per_event": "ns",
    "sim.cycles": "cycles",
    "mem.calls": "count",
    "mem.self_s": "s",
    "mem.ns_per_call": "ns",
    "mem.fastpath_frac": "ratio",
    "mem.read_misses": "count",
    "mem.stall_cycles": "cycles",
    "mem.replay_ns_per_call": "ns",
    "mem.replay_mismatches": "count",
    "network.calls": "count",
    "network.self_s": "s",
    "network.ns_per_call": "ns",
    "network.messages": "count",
    "network.bytes": "bytes",
    "network.replay_mismatches": "count",
    "sync.calls": "count",
    "sync.self_s": "s",
    "verify.s": "s",
    "verify.share": "ratio",
    "core.self_s": "s",
    "core.cache_get_s": "s",
    "core.cache_put_s": "s",
    "core.pool_speedup": "x",
    "obs.self_s": "s",
    "obs.trace_x": "x",
    "obs.attribute_x": "x",
    "obs.profile_x": "x",
    "obs.export_s": "s",
    "trace.overhead_x": "x",
}

#: Probe depth of each workload's traced passes.  A pool pass runs its
#: cells in worker processes, so only the client's cache I/O is probed;
#: the observability commands are compared against plain runs, so no
#: per-call probe may sit inside them.
TRACE_LEVEL = {"study-pool": "core", "observed": "coarse"}

#: One cell per app of scale-p64 for the replay cross-check.
REPLAY_CELLS = ("Cholesky/RCcomp", "IS/RCinv", "Maxflow/RCadapt")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> list[dict]:
    """Spawn fresh interpreters up to the first cell ready; one dict each.

    ``setup_s`` is the time from the spawn to the cell ready, less the
    probe's kernel runs before that moment, host-speed-normalised by the
    median of the probe's kernel times.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)]
    samples = []
    for i in range(repeats + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.splitlines()[0])
        raw = doc.pop("ready") - t0 - doc["kernel_before_ready_s"]
        doc["raw_setup_s"] = raw
        doc["setup_s"] = raw * speed_factor(statistics.median(doc["kernel_s"]))
        if i:
            samples.append(doc)
    return samples


def closed_loop(run_pass: Callable[[], PassResult], seconds: float) -> list[PassResult]:
    """Run passes back to back while the next one is expected to fit."""
    passes: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not passes or time.perf_counter() + last <= deadline:
        gc.collect()
        t0 = time.perf_counter()
        passes.append(run_pass())
        last = time.perf_counter() - t0
    return passes


def mismatches(reference: dict[str, str], other: dict[str, str], what: str) -> int:
    """Cells whose digest differs between two sets; each is reported."""
    bad = [label for label in reference if label in other and other[label] != reference[label]]
    for label in bad:
        print(f"digest mismatch ({what}): {label} {reference[label]} != {other[label]}",
              file=sys.stderr)
    return len(bad)


class DigestStore:
    """Cell digests of earlier runs in this checkout, keyed across workloads.

    The same cell (app, system, scale, P, seed) of the same code (the
    ``repro`` code fingerprint is part of the key) must give the same
    simulated statistics in every run: traced or not, pool or in-process,
    through the study path or the CLI.  Runs of different code are not
    compared; the exact-count metrics compare commits.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, keyed: dict[str, str]) -> int:
        bad = mismatches(self.known, keyed, "earlier run")
        for key, digest in keyed.items():
            self.known.setdefault(key, digest)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        os.replace(tmp, self.path)
        return bad


def run_untraced(workload, seed: int, seconds: float, work: Path) -> tuple[dict, int, int, list]:
    peak_rss = []

    def one_pass() -> PassResult:
        result = workload.run_pass(seed, work)
        if not peak_rss:
            # Up to the end of the first pass, so it does not depend on
            # how many passes fit.
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return result

    passes = closed_loop(one_pass, seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    first = passes[0].digests()
    for p in passes[1:]:
        failed += mismatches(first, p.digests(), "between passes")
    if isinstance(workload, ObservedWorkload) or getattr(workload, "pool", False):
        # The pool and CLI paths against a verified in-process run.
        ref = reference_digests(workload, seed)
        attempted += len(ref)
        failed += mismatches(ref, first, "in-process reference")
    samples = {
        "wall_s": [p.wall for p in passes],
        "events_per_s": [p.events / p.wall for p in passes if p.wall > 0],
        "peak_rss_mb": peak_rss,
    }
    return samples, attempted, failed, passes


def run_traced(workload, seed: int, seconds: float, work: Path) -> tuple[dict, int, int, list]:
    name = workload.name
    probes = Probes(TRACE_LEVEL.get(name, "fine"))
    observed = isinstance(workload, ObservedWorkload)
    untraced_kw = {"plain": True} if observed else {}
    pairs: list[tuple[PassResult, PassResult]] = []

    def pair() -> PassResult:
        plain = workload.run_pass(seed, work, **untraced_kw)
        gc.collect()
        traced = workload.run_pass(seed, work, probes=probes)
        pairs.append((plain, traced))
        return traced

    closed_loop(pair, seconds)
    inproc = None
    if getattr(workload, "pool", False):
        # After the pool passes, so their workers do not inherit modules
        # this in-process pass imports.
        inproc = workload.in_process().run_pass(seed, work)
    attempted = failed = 0
    first = pairs[0][0].digests()
    for plain, traced in pairs:
        attempted += plain.attempted + traced.attempted
        failed += plain.failed + traced.failed
        failed += mismatches(first, plain.digests(), "between passes")
        failed += mismatches(first, traced.digests(), "traced vs untraced")
    if inproc is not None:
        attempted += inproc.attempted
        failed += inproc.failed + mismatches(inproc.digests(), first, "pool vs in-process")
    failed += probes.unbalanced_cells
    replay = None
    if name == "scale-p64":
        replay = {}
        for label, spec in workload.cells(seed):
            if label in REPLAY_CELLS:
                for key, value in cross_check(spec).items():
                    replay[key] = replay.get(key, 0) + value
                attempted += 1
    metrics = layer_metrics(probes, pairs, inproc, replay)
    write_spans(work / f"spans-{name}-seed{seed}.json", probes)
    return metrics, attempted, failed, [t for _, t in pairs]


def layer_metrics(probes: Probes, pairs, inproc, replay) -> dict[str, float]:
    """Per-layer values of one traced run, per pass."""
    tr = probes.tracer
    n = len(pairs)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    counts = sim_counts(traced[0].sims)
    sec = {layer: ns / n / 1e9 for layer, ns in tr.self_ns.items()}
    calls = {layer: c // n for layer, c in tr.calls.items()}
    traced_wall = median([t.wall for t in traced])
    plain_wall = median([p.wall for p in plain])
    plain_raw = median([p.raw_wall for p in plain])
    data_calls, fast_hits = probes.fastpath()
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update({
        "workloads.construct_s": sec["workloads"],
        "runtime.assemble_s": sec["runtime"],
        "sim.events": counts["events"],
        "sim.self_s": sec["sim"],
        "sim.ns_per_event": tr.self_ns["sim"] / n / counts["events"] if counts["events"] else 0.0,
        "sim.cycles": counts["cycles"],
        "mem.calls": calls["mem"],
        "mem.self_s": sec["mem"],
        "mem.ns_per_call": tr.incl_ns["mem"] / tr.calls["mem"] if tr.calls["mem"] else 0.0,
        "mem.fastpath_frac": fast_hits / data_calls if data_calls else 0.0,
        "mem.read_misses": counts["read_misses"],
        "mem.stall_cycles": counts["stall_cycles"],
        "network.calls": calls["network"],
        "network.self_s": sec["network"],
        "network.ns_per_call": (
            tr.self_ns["network"] / tr.calls["network"] if tr.calls["network"] else 0.0
        ),
        "network.messages": counts["messages"],
        "network.bytes": counts["bytes"],
        "sync.calls": calls["sync"],
        "sync.self_s": sec["sync"],
        "verify.s": sec["verify"],
        # verify runs no probed call, so its span is compared with the
        # untraced pass as the clock read it.
        "verify.share": sec["verify"] / plain_raw,
        "core.self_s": sec["core"],
        "core.cache_get_s": probes.span_seconds("cache_get") / n,
        "core.cache_put_s": probes.span_seconds("cache_put") / n,
        "obs.self_s": sec["obs"],
        "obs.export_s": probes.span_seconds("export") / n,
        "trace.overhead_x": traced_wall / plain_wall,
    })
    if inproc is not None:
        m["core.pool_speedup"] = inproc.wall / median([p.extra["cold_s"] for p in plain])
    if "plain" in plain[0].extra:
        base = sum(p.extra["plain"] for p in plain)
        for command in ObservedWorkload.COMMANDS:
            m[f"obs.{command}_x"] = sum(p.extra[command] for p in plain) / base
    if replay is not None:
        m["mem.replay_ns_per_call"] = replay["mem_replay_s"] * 1e9 / replay["mem_calls"]
        m["mem.replay_mismatches"] = replay["mem_mismatches"]
        m["network.replay_mismatches"] = replay["network_mismatches"]
    return m


def write_spans(path: Path, probes: Probes) -> None:
    tr = probes.tracer
    doc = {
        "level": probes.level,
        "self_ns": tr.self_ns,
        "incl_ns": tr.incl_ns,
        "calls": tr.calls,
        "spans": [
            {"layer": layer, "name": name, "start_ns": t0, "end_ns": t1, "depth": depth}
            for layer, name, t0, t1, depth in tr.spans
        ],
    }
    path.write_text(json.dumps(doc) + "\n")
    print(f"spans written to {path} ({len(tr.spans)} kept spans)")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(WORK_DIR / "repro-cache")
    setup = measure_setup(name, seed)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported repro from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if trace:
        values, attempted, failed, passes = run_traced(workload, seed, seconds, WORK_DIR)
        values["import.s"] = median([s["import_s"] for s in setup])
        units = PER_LAYER
        samples = {key: len(passes) for key in values}
        samples["import.s"] = len(setup)
    else:
        series, attempted, failed, passes = run_untraced(workload, seed, seconds, WORK_DIR)
        series["setup_s"] = [s["setup_s"] for s in setup]
        values = {key: median(v) for key, v in series.items()}
        units = END_TO_END
        samples = {key: len(v) for key, v in series.items()}
    from repro.core.parallel import code_fingerprint

    code = code_fingerprint()[:16]
    keyed = {
        f"{code}/{workload.cell_key(label, seed)}": d for label, d in passes[0].digests().items()
    }
    failed += DigestStore(WORK_DIR / "digests.json").check(keyed)
    for label, digest in passes[0].digests().items():
        print(f"digest {name} seed={seed} {label} {digest}")
    print(f"{name} seed={seed} trace={int(trace)}: {len(passes)} passes, "
          f"{passes[0].events} simulated events per pass, {attempted} cells, {failed} failed")
    for key in units:
        print(f"  {key:<26} {values[key]:>16.6g} {units[key]:<9} (n={samples[key]})")
    if not trace:
        print("  wall_s per pass: " + " ".join(f"{p.wall:.3f}" for p in passes))
        print("  raw wall seconds per pass: " + " ".join(f"{p.raw_wall:.3f}" for p in passes))
        print("  raw setup seconds: " + " ".join(f"{s['raw_setup_s']:.3f}" for s in setup))
    print(f"  {'failed_frac':<26} {failed / max(attempted, 1):>16.6g} {'ratio':<9} "
          f"(n={attempted} cells)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, timeout=900,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
