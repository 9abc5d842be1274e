"""The benchmark's workloads: cell matrices and one pass over each.

A *cell* is one application on one memory system.  A *pass* runs every
cell of a workload's matrix once; the client runs passes back to back
(a closed loop with one client).  Every cell starts on a freshly
assembled machine, so the simulated caches start empty.

The seed reaches the program only as the ``seed`` argument of the IS and
Nbody constructors, which generate the keys and the bodies through
``repro.workloads``; their simulated work hardly depends on it.
Cholesky's input is a fixed grid Laplacian.  Maxflow keeps the preset's
graph: the push-relabel run is bimodal in the graph seed (on seeds 0-19
at n=48, P=16, nine graphs take about 330k events against 12-20k for the
rest; at n=150, P=64, 3.2-3.6M against 44-75k), so a seeded graph would
make the pass time depend on the seed by up to 25x.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .calibrate import Calibrator, kernel, speed_factor
from .probes import Patches, Probes, capture_runs

PAPER_APPS = ("Cholesky", "IS", "Maxflow", "Nbody")
#: Applications whose input the benchmark seed generates.
SEEDED_APPS = ("IS", "Nbody")


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def seeded_factory(app: str, scale: str, seed: int):
    """The preset factory of ``app`` at ``scale``, seeded when in SEEDED_APPS."""
    from repro.apps.factory import AppFactory
    from repro.apps.presets import preset

    kwargs = dict(preset(scale)[app][0].kwargs)
    if app in SEEDED_APPS:
        kwargs["seed"] = seed
    return AppFactory(app, **kwargs)


def sim_digest(result: Any) -> str:
    """Digest of a run's simulated statistics.

    Covers the total time, each processor's stall decomposition and op
    counts, the event count and the network counters; floats enter by
    ``repr``, so equal digests mean bit-identical statistics.
    """
    fields = [
        result.total_time, result.ops, result.network_messages,
        result.network_bytes, result.network_busy_cycles,
    ]
    fields.extend(dataclasses.astuple(p) for p in result.procs)
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


@dataclass
class PassResult:
    """One pass: its wall time, simulated results and failures.

    ``wall`` is host-speed-normalised (see ``perfbench.calibrate``);
    ``raw_wall`` is the same time as the clock read it.
    """

    wall: float
    raw_wall: float = 0.0
    #: ``(cell label, SimResult)`` in cell order.
    sims: list[tuple[str, Any]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Workload-specific normalised timings (per command, the cold pool pass).
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def events(self) -> int:
        return sum(r.ops for _, r in self.sims)

    def digests(self) -> dict[str, str]:
        return {label: sim_digest(r) for label, r in self.sims}


def sim_counts(sims: list[tuple[str, Any]]) -> dict[str, float]:
    """Exact simulated counters summed over a pass."""
    return {
        "events": sum(r.ops for _, r in sims),
        "cycles": sum(r.total_time for _, r in sims),
        "read_misses": sum(r.total_read_misses for _, r in sims),
        "stall_cycles": sum(
            p.read_stall + p.write_stall + p.buffer_flush for _, r in sims for p in r.procs
        ),
        "messages": sum(r.network_messages for _, r in sims),
        "bytes": sum(r.network_bytes for _, r in sims),
    }


class Workload:
    """A matrix of cells and the way a pass runs it."""

    def __init__(self, name: str, scale: str, nprocs: int, apps: tuple[str, ...], why: str):
        self.name = name
        self.scale = scale
        self.nprocs = nprocs
        self.apps = apps
        self.why = why

    def cells(self, seed: int) -> list[tuple[str, Any]]:
        """``(label, JobSpec)`` for every cell, apps outermost."""
        from repro.config import MachineConfig
        from repro.core.parallel import JobSpec
        from repro.mem.systems import PAPER_SYSTEMS

        cfg = MachineConfig(nprocs=self.nprocs)
        out = []
        for app in self.apps:
            factory = seeded_factory(app, self.scale, seed)
            for system in PAPER_SYSTEMS:
                out.append((f"{app}/{system}", JobSpec(factory, system, cfg, verify=True)))
        return out

    def cell_key(self, label: str, seed: int) -> str:
        """Identity of a cell across workloads and runs."""
        return f"{label}/{self.scale}/P{self.nprocs}/seed{seed}"

    def run_pass(self, seed: int, work: Path, probes: Probes | None = None) -> PassResult:
        raise NotImplementedError

    def _failed_pass(self, wall: float, cells: int) -> PassResult:
        traceback.print_exc(file=sys.stderr)
        return PassResult(wall=wall, raw_wall=wall, attempted=cells, failed=cells)


class StudyWorkload(Workload):
    """The study path: ``run_jobs`` over the matrix against a fresh cache.

    With ``pool`` the matrix runs at ``jobs = nproc`` against a cold
    cache and then again as a warm rerun; otherwise in-process at
    ``jobs = 1``.
    """

    def __init__(self, *args, pool: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.pool = pool

    def in_process(self) -> StudyWorkload:
        """The same matrix at ``jobs = 1``."""
        return StudyWorkload(self.name, self.scale, self.nprocs, self.apps, self.why)

    def run_pass(self, seed: int, work: Path, probes: Probes | None = None) -> PassResult:
        from repro.core.parallel import ResultCache, execute_job, run_jobs

        cells = self.cells(seed)
        specs = [spec for _, spec in cells]
        cal = Calibrator()
        mark = cal.mark
        run = run_jobs
        executor = execute_job
        if probes is not None:
            mark = probes.tracer.wrap("bench", cal.mark)
            run = probes.tracer.wrap("core", run_jobs, "pass", keep=True)
            executor = probes.cell_executor(execute_job)

        def calibrated(spec):
            mark()
            return executor(spec)

        if probes is not None:
            context = probes.installed()
        elif self.pool:
            context = contextlib.nullcontext()  # the workers run the kernel (pool_job)
        else:
            context = cal.sampling()
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
        cache = ResultCache(cache_dir)
        jobs = nproc() if self.pool else 1
        mark()
        t0 = time.perf_counter()
        try:
            with context:
                if self.pool:
                    results = run(specs, jobs=jobs, cache=cache, executor=pool_job)
                    t1 = time.perf_counter()
                    mark()
                    t2 = time.perf_counter()
                    warm = run(specs, jobs=jobs, cache=cache)
                else:
                    results = run(specs, jobs=jobs, cache=cache, executor=calibrated)
        except Exception:
            return self._failed_pass(time.perf_counter() - t0, len(cells))
        finally:
            t3 = time.perf_counter()
            mark()
            shutil.rmtree(cache_dir, ignore_errors=True)
        out = PassResult(
            wall=0.0,
            sims=[(label, job.result) for (label, _), job in zip(cells, results)],
            attempted=len(cells),
        )
        if not self.pool:
            out.raw_wall, out.wall = cal.scaled(t0, t3)
            return out
        # The cold pass ran in the workers, each cell after a kernel run on
        # its CPU: scale it by the cells' speed factors, weighted by cell
        # time, after taking out the kernels' share of the wall time.
        busy = sum(job.elapsed for job in results)
        factor = sum(job.elapsed * speed_factor(job.kernel_s) for job in results) / busy
        cold_raw = t1 - t0 - sum(job.kernel_s for job in results) / min(jobs, len(cells))
        warm_raw, warm_norm = cal.scaled(t2, t3)
        out.raw_wall = cold_raw + warm_raw
        out.wall = cold_raw * factor + warm_norm
        out.extra["cold_s"] = cold_raw * factor
        # The warm rerun must be served from the cache, unchanged.
        for (label, _), cold, hot in zip(cells, results, warm):
            if not hot.cached or sim_digest(hot.result) != sim_digest(cold.result):
                print(f"warm rerun differs: {label}", file=sys.stderr)
                out.failed += 1
        return out


def pool_job(spec):
    """``execute_job`` after one kernel run, recorded on the result.

    A pool worker runs it, so the kernel measures the speed of the CPU the
    cell runs on, just before the cell.
    """
    from repro.core.parallel import execute_job

    t0 = time.perf_counter()
    kernel()
    kernel_s = time.perf_counter() - t0
    job = execute_job(spec)
    job.kernel_s = kernel_s
    return job


class ObservedWorkload(Workload):
    """The default cells through ``repro trace``, ``attribute`` and ``profile``.

    Every command goes through the CLI ``main()`` into the run's work
    directory.  The pass time is the summed time of the commands.  With
    ``plain`` a plain run of each cell (construct, assemble, run) is
    timed before its commands, outside the pass time, as the base of
    the commands' time ratios.
    """

    COMMANDS = ("trace", "attribute", "profile")

    def _argv(self, command: str, app: str, system: str, out: Path) -> list[str]:
        argv = ["--quiet", "--nprocs", str(self.nprocs), command, app, system]
        if command == "trace":
            return argv + ["--out", str(out / "trace.json"), "--metrics", str(out / "metrics.json")]
        if command == "attribute":
            return argv + ["--out", str(out / "attribution.json")]
        return argv + ["--out", str(out / "profile.json"), "--flame", str(out / "flame.json")]

    def run_pass(
        self, seed: int, work: Path, probes: Probes | None = None, plain: bool = False
    ) -> PassResult:
        from repro import __main__ as cli
        from repro.runtime.context import Machine

        cells = self.cells(seed)
        out_dir = Path(tempfile.mkdtemp(prefix="obs-", dir=work))
        seeded = {
            app: (seeded_factory(app, self.scale, seed), reuse)
            for app, (_, reuse) in cli.APP_FACTORIES.items()
        }
        captured: list[tuple[str, Any]] = []
        cal = Calibrator()
        mark = cal.mark if probes is None else probes.tracer.wrap("bench", cal.mark)
        #: ``(what, start, end)`` of every timed command and plain run.
        timed: list[tuple[str, float, float]] = []
        result = PassResult(wall=0.0, attempted=len(cells))
        patches = Patches()
        patches.set(cli, "APP_FACTORIES", seeded)
        context = probes.installed() if probes is not None else cal.sampling()
        try:
            with capture_runs(captured), context:
                for label, spec in cells:
                    app, system = label.split("/")
                    if plain:
                        mark()
                        t0 = time.perf_counter()
                        application = spec.factory()
                        machine = Machine(spec.config, spec.system)
                        application.setup(machine)
                        machine.run(application.worker)
                        timed.append(("plain", t0, time.perf_counter()))
                        captured.pop()
                    digests = set()
                    ok = True
                    for command in self.COMMANDS:
                        argv = self._argv(command, app, system, out_dir)
                        before = len(captured)
                        mark()
                        t0 = time.perf_counter()
                        with contextlib.redirect_stdout(io.StringIO()):
                            rc = cli.main(argv)
                        timed.append((command, t0, time.perf_counter()))
                        runs = captured[before:]
                        ok = ok and rc == 0 and len(runs) == 1
                        digests.update(sim_digest(r) for _, r in runs)
                    report = json.loads((out_dir / "attribution.json").read_text())
                    if not ok or len(digests) != 1 or not report.get("exact"):
                        print(f"observed cell failed: {label}", file=sys.stderr)
                        result.failed += 1
                    result.sims.append((label, captured[-1][1]))
        except Exception:
            return self._failed_pass(sum(t1 - t0 for _, t0, t1 in timed), len(cells))
        finally:
            mark()
            patches.undo()
            shutil.rmtree(out_dir, ignore_errors=True)
        extra = dict.fromkeys((*self.COMMANDS, "plain"), 0.0)
        for what, t0, t1 in timed:
            raw, norm = cal.scaled(t0, t1)
            extra[what] += norm
            if what != "plain":
                result.raw_wall += raw
        result.wall = sum(extra[c] for c in self.COMMANDS)
        result.extra = extra
        # The pass simulated every cell once per command.
        result.sims = [(label, r) for label, r in result.sims for _ in self.COMMANDS]
        return result


def reference_digests(workload: Workload, seed: int) -> dict[str, str]:
    """Digests of every cell run in-process with ``execute_job`` and verified."""
    from repro.core.parallel import execute_job

    return {label: sim_digest(execute_job(spec).result) for label, spec in workload.cells(seed)}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        StudyWorkload(
            "study-default", "default", 16, PAPER_APPS,
            "The command users run most (repro study --app all); verify() is about a "
            "fifth of a pass, so a verify change shows here. Simulated caches start "
            "empty in every cell.",
        ),
        StudyWorkload(
            "scale-p64", "large", 64, ("Cholesky", "IS", "Maxflow"),
            "P=64 on an 8x8 mesh: sim, mem, network and sync carry ~98% of a pass, so a "
            "hot-path change shows most and a verify change not at all. Caches start "
            "empty per cell.",
        ),
        StudyWorkload(
            "study-pool", "default", 16, PAPER_APPS,
            "The study matrix at jobs=nproc, cold cache then warm rerun: the only "
            "workload with pool fan-out, pickling and cache I/O on the critical path. "
            "Caches start empty per cell.",
            pool=True,
        ),
        ObservedWorkload(
            "observed", "default", 16, PAPER_APPS,
            "The default cells through repro trace/attribute/profile: the observability "
            "collectors and exporters do most of the work here and none elsewhere. "
            "Caches start empty.",
        ),
    )
}
