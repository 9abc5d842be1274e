"""The parallel execution layer: pool fan-out, caching, determinism.

Covers the guarantees docs/performance.md documents: serial and
parallel execution produce bit-identical results in deterministic
order, every run payload is picklable, and the on-disk cache hits only
when (job spec, code fingerprint) both match.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import MachineConfig, run_study, table1
from repro.apps import AppFactory, smoke_scale
from repro.apps.factory import APP_REGISTRY
from repro.core import parallel
from repro.core.bench import run_bench
from repro.core.parallel import (
    JobCrashed,
    JobSpec,
    ResultCache,
    cache_key,
    code_fingerprint,
    execute_job,
    parallel_map,
    resolve_jobs,
    run_jobs,
)
from repro.core.sweep import sweep
from repro.obs.log import configure as configure_logger, get_logger

CFG = MachineConfig(nprocs=4)

IS_FACTORY = AppFactory("IS", n_keys=128, nbuckets=16)


def is_specs(systems=("z-mc", "RCinv", "RCupd")) -> list[JobSpec]:
    return [JobSpec(factory=IS_FACTORY, system=s, config=CFG) for s in systems]


# ---------------------------------------------------------------------------
# AppFactory


def test_app_factory_builds_fresh_instances():
    a, b = IS_FACTORY(), IS_FACTORY()
    assert a is not b
    assert a.name == "IS"


def test_app_factory_value_semantics():
    same = AppFactory("IS", nbuckets=16, n_keys=128)  # kwarg order irrelevant
    assert same == IS_FACTORY
    assert hash(same) == hash(IS_FACTORY)
    assert repr(same) == repr(IS_FACTORY)


def test_app_factory_pickle_roundtrip():
    clone = pickle.loads(pickle.dumps(IS_FACTORY))
    assert clone == IS_FACTORY
    assert clone().name == "IS"


def test_app_factory_rejects_unknown_app():
    with pytest.raises(ValueError, match="unknown application"):
        AppFactory("NoSuchApp")


def test_all_presets_are_picklable():
    for factory, _ in smoke_scale().values():
        pickle.loads(pickle.dumps(factory))()


# ---------------------------------------------------------------------------
# payload picklability (regression: nothing heavyweight crosses the pool)


def test_every_job_payload_is_picklable():
    for factory, _ in smoke_scale().values():
        spec = JobSpec(factory=factory, system="RCinv", config=CFG)
        job = execute_job(spec)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.result == job.result
        assert clone.traffic == job.traffic


def test_sweep_points_are_picklable():
    res = sweep(IS_FACTORY, "store_buffer_entries", [1, 4], base_config=CFG, jobs=2)
    for point in res.points:
        assert point.machine is None  # heavyweight machine not shipped
        clone = pickle.loads(pickle.dumps(point))
        assert clone.result == point.result


def test_sweep_in_process_still_attaches_machine():
    res = sweep(IS_FACTORY, "store_buffer_entries", [1, 4], base_config=CFG)
    assert all(p.machine is not None for p in res.points)


# ---------------------------------------------------------------------------
# serial/parallel equivalence and ordering


def test_parallel_results_bit_identical_to_serial():
    specs = is_specs()
    serial = run_jobs(specs, jobs=1)
    pooled = run_jobs(specs, jobs=2)
    assert [j.system for j in pooled] == [j.system for j in serial]
    for a, b in zip(serial, pooled):
        assert a.result == b.result  # SimResult/ProcStats dataclass equality
        assert a.traffic == b.traffic


def test_result_order_follows_spec_order():
    systems = ("RCupd", "z-mc", "RCinv")
    assert [j.system for j in run_jobs(is_specs(systems), jobs=2)] == list(systems)


def test_run_study_jobs_equivalence():
    serial = run_study(IS_FACTORY, CFG, jobs=1)
    pooled = run_study(IS_FACTORY, CFG, jobs=2)
    assert pooled.app_name == serial.app_name == "IS"
    assert pooled.systems == serial.systems


def test_table1_jobs_equivalence():
    factories = {"IS": IS_FACTORY}
    (serial,) = table1(factories, CFG, jobs=1)
    (pooled,) = table1(factories, CFG, jobs=2)
    assert pooled == serial
    assert pooled.app == "IS"


def test_unpicklable_factory_falls_back_in_process():
    # a lambda cannot cross the pool; run_jobs must still succeed
    baseline = run_jobs(is_specs(("z-mc",)), jobs=1)
    specs = [JobSpec(factory=lambda: IS_FACTORY(), system="z-mc", config=CFG)]
    jobs = run_jobs(specs, jobs=4)
    assert jobs[0].result == baseline[0].result


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def test_resolve_jobs_respects_cpu_affinity(monkeypatch):
    # A process pinned to one CPU (taskset, a cpuset) gets one worker.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_jobs(0) == 1
    assert resolve_jobs(None) == 1
    assert resolve_jobs(3) == 3


# ---------------------------------------------------------------------------
# the shared worker pool


def pid_job(spec):
    """``execute_job`` stamped with the worker's PID and logger state.

    The short sleep keeps a worker busy long enough that every worker of
    the pool takes a job of a four-job batch.
    """
    time.sleep(0.05)
    job = execute_job(spec)
    job.pid = os.getpid()
    job.logger = get_logger().state()
    return job


def sleepy_pid(_item):
    time.sleep(0.05)
    return os.getpid()


def crash_job(spec):
    """``pid_job`` that kills its worker on the RCupd spec."""
    if spec.system == "RCupd":
        if multiprocessing.parent_process() is None:
            raise RuntimeError("a crashing job was rerun in the parent")
        os._exit(1)
    return pid_job(spec)


def raising_job(spec):
    if spec.system == "RCupd":
        raise ValueError("bad spec")
    return pid_job(spec)


def worker_oserror_job(spec):
    """Fails with an OSError in a worker only, so a silent in-process
    rerun of the batch would hide the error."""
    if spec.system == "RCupd" and multiprocessing.parent_process() is not None:
        raise OSError("disk full in a worker")
    return execute_job(spec)


FOUR = ("z-mc", "RCinv", "RCupd", "RCadapt")


def pids(jobs) -> set[int]:
    return {job.pid for job in jobs}


def test_pool_reused_across_batches():
    serial = run_jobs(is_specs(FOUR), jobs=1)
    first = run_jobs(is_specs(FOUR), jobs=2, executor=pid_job)
    second = run_jobs(is_specs(FOUR), jobs=2, executor=pid_job)
    assert len(pids(first)) == 2 and os.getpid() not in pids(first)
    assert pids(second) == pids(first)
    for a, b in zip(serial, second):
        assert (a.system, a.result, a.traffic) == (b.system, b.result, b.traffic)


def test_pool_replaced_when_worker_count_changes():
    two = pids(run_jobs(is_specs(FOUR), jobs=2, executor=pid_job))
    three = pids(run_jobs(is_specs(FOUR), jobs=3, executor=pid_job))
    assert three.isdisjoint(two)
    assert pids(run_jobs(is_specs(FOUR), jobs=3, executor=pid_job)) == three


def test_logger_change_reaches_reused_pool():
    saved = get_logger().state()
    try:
        configure_logger(quiet=True)
        quiet = run_jobs(is_specs(FOUR), jobs=2, executor=pid_job)
        configure_logger(verbose=True)
        verbose = run_jobs(is_specs(FOUR), jobs=2, executor=pid_job)
    finally:
        configure_logger(**saved)
    assert pids(verbose) == pids(quiet)
    assert all(j.logger["quiet"] and not j.logger["verbose"] for j in quiet)
    assert all(j.logger["verbose"] and not j.logger["quiet"] for j in verbose)


def test_parallel_map_shares_the_pool():
    workers = pids(run_jobs(is_specs(FOUR), jobs=2, executor=pid_job))
    assert set(parallel_map(sleepy_pid, range(4), jobs=2)) == workers


def test_crashed_job_named_and_landed_results_kept(tmp_path):
    specs = is_specs(FOUR)
    serial = run_jobs(specs, jobs=1)
    cache = ResultCache(tmp_path)
    with pytest.raises(JobCrashed, match="IS/RCupd") as info:
        run_jobs(specs, jobs=2, cache=cache, executor=crash_job)
    assert "RCinv" not in str(info.value)
    for i in (0, 1, 3):
        assert cache.get(specs[i]).result == serial[i].result
    assert cache.get(specs[2]) is None
    # The broken pool was replaced: the next batch runs normally.
    again = run_jobs(specs, jobs=2, executor=pid_job)
    assert [j.result for j in again] == [j.result for j in serial]


@dataclass(frozen=True)
class CrashOnce:
    """A spec whose job kills its worker unless ``marker`` exists, creating it first."""

    spec: JobSpec
    marker: str = ""


def crash_once_job(item: CrashOnce):
    if item.marker and not os.path.exists(item.marker):
        Path(item.marker).touch()
        os._exit(1)
    return pid_job(item.spec)


def test_jobs_lost_by_a_broken_pool_rerun_together(tmp_path):
    specs = is_specs(FOUR * 2)
    serial = run_jobs(specs, jobs=1)
    marker = str(tmp_path / "crashed")
    items = [CrashOnce(s, marker if i == 0 else "") for i, s in enumerate(specs)]
    rerun = run_jobs(items, jobs=2, executor=crash_once_job)
    assert (tmp_path / "crashed").exists()
    assert [j.result for j in rerun] == [j.result for j in serial]
    # The crash broke the first pool before jobs 2-7 started.  They reran
    # together on both workers of one fresh pool, not one at a time.
    assert len(pids(rerun[2:])) == 2 and len(pids(rerun)) <= 4


def test_no_pool_for_the_rerun_runs_the_lost_jobs_in_process(tmp_path, monkeypatch):
    serial = run_jobs(is_specs(FOUR), jobs=1)
    real, made = parallel.ProcessPoolExecutor, []

    def first_only(*args, **kwargs):
        if made:
            raise OSError("no more processes")
        made.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", first_only)
    marker = str(tmp_path / "crashed")
    items = [CrashOnce(s, marker if i == 0 else "") for i, s in enumerate(is_specs(FOUR))]
    # Seven workers key a new pool, so the patched class makes it.
    rerun = run_jobs(items, jobs=7, executor=crash_once_job)
    assert [j.result for j in rerun] == [j.result for j in serial]
    assert os.getpid() in pids(rerun)


def test_pool_sized_by_the_batch_and_grown_for_a_larger_one():
    small = set(parallel_map(sleepy_pid, range(2), jobs=6))
    assert len(small) <= 2 and parallel._POOL[1] == 2
    large = set(parallel_map(sleepy_pid, range(8), jobs=6))
    assert parallel._POOL[1] == 6 and large.isdisjoint(small)
    assert set(parallel_map(sleepy_pid, range(2), jobs=6)) <= large


def test_app_registered_after_a_pooled_batch_reaches_the_workers(monkeypatch):
    run_jobs(is_specs(FOUR), jobs=2, executor=pid_job)
    monkeypatch.setitem(APP_REGISTRY, "IS-again", APP_REGISTRY["IS"])
    again = AppFactory("IS-again", n_keys=128, nbuckets=16)
    specs = [JobSpec(factory=again, system=s, config=CFG) for s in FOUR]
    pooled = run_jobs(specs, jobs=2, executor=pid_job)
    assert [j.result for j in pooled] == [j.result for j in run_jobs(is_specs(FOUR), jobs=1)]


def test_function_defined_in_main_after_a_pooled_batch_reaches_the_workers(monkeypatch):
    before = set(parallel_map(sleepy_pid, range(4), jobs=2))

    def late(x):
        return x * x

    late.__module__, late.__qualname__ = "__main__", "late_square"
    monkeypatch.setattr(sys.modules["__main__"], "late_square", late, raising=False)
    passes = []
    fan_out = parallel._fan_out
    monkeypatch.setattr(
        parallel, "_fan_out", lambda calls, *a: passes.append(len(calls)) or fan_out(calls, *a)
    )
    assert parallel_map(late, range(4), jobs=2) == [0, 1, 4, 9]
    # One pass: the pool was replaced before the batch, not broken by it.
    assert passes == [4]
    assert set(parallel_map(sleepy_pid, range(4), jobs=2)).isdisjoint(before)


def test_job_exception_propagates_and_pool_stays_usable():
    before = pids(run_jobs(is_specs(FOUR), jobs=2, executor=pid_job))
    with pytest.raises(ValueError, match="bad spec"):
        run_jobs(is_specs(FOUR), jobs=2, executor=raising_job)
    assert pids(run_jobs(is_specs(FOUR), jobs=2, executor=pid_job)) == before


def test_oserror_raised_by_a_job_is_not_hidden():
    with pytest.raises(OSError, match="disk full"):
        run_jobs(is_specs(FOUR), jobs=2, executor=worker_oserror_job)


def test_pool_that_cannot_start_falls_back_in_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise OSError("no semaphores here")

    serial = run_jobs(is_specs(FOUR), jobs=1)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    fallback = run_jobs(is_specs(FOUR), jobs=5)
    assert [j.result for j in fallback] == [j.result for j in serial]


NESTED = """
from repro.core.parallel import parallel_map
def inner(x): return x + 1
def outer(x): return sum(parallel_map(inner, range(x), jobs=2))
print(parallel_map(outer, [2, 3, 4], jobs=2))
"""


def test_pool_inside_a_pool_worker_lets_the_worker_exit(tmp_path):
    # A worker's own pool must be shut down before the worker exits, or
    # multiprocessing's exit handler waits on its workers forever.
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    with open(tmp_path / "out.txt", "w+") as out:
        proc = subprocess.Popen(
            [sys.executable, "-c", NESTED], env=env, stdout=out, stderr=out, start_new_session=True
        )
        try:
            proc.wait(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # any process left behind
        out.seek(0)
        text = out.read()
    assert proc.returncode == 0, text
    assert text.strip() == "[3, 6, 10]"


@pytest.mark.skipif(not Path("/proc/self/environ").exists(), reason="needs /proc")
def test_cli_pool_workers_exit_with_the_process(tmp_path):
    import repro

    marker = f"{os.getpid()}-{time.time_ns()}"
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PARALLEL_TEST_MARKER=marker)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "repro", "--quiet", "study", "--app", "IS"]
    # Files, not pipes: a leftover worker holding a pipe would hang the run.
    with open(tmp_path / "err.txt", "w+") as err:
        proc = subprocess.run(
            cmd + ["--jobs", "2", "--no-cache"],
            env=env, stdout=subprocess.DEVNULL, stderr=err, timeout=120,
        )
        err.seek(0)
        stderr = err.read()
    needle = f"PARALLEL_TEST_MARKER={marker}".encode()
    leftovers = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and needle in (entry / "environ").read_bytes():
                leftovers.append(int(entry.name))
        except OSError:
            continue
    for pid in leftovers:
        os.kill(pid, 9)
    assert proc.returncode == 0, stderr
    assert leftovers == []


# ---------------------------------------------------------------------------
# cache behavior


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    specs = is_specs(("z-mc",))
    first = run_jobs(specs, jobs=1, cache=cache)
    assert not first[0].cached and cache.hits == 0 and cache.misses == 1
    second = run_jobs(specs, jobs=1, cache=cache)
    assert second[0].cached and cache.hits == 1
    assert second[0].result == first[0].result


def test_cache_key_sensitive_to_spec(tmp_path):
    base = is_specs(("RCinv",))[0]
    assert cache_key(base) == cache_key(is_specs(("RCinv",))[0])
    assert cache_key(base) != cache_key(JobSpec(IS_FACTORY, "RCupd", CFG))
    assert cache_key(base) != cache_key(JobSpec(IS_FACTORY, "RCinv", CFG.replace(nprocs=8)))
    other_app = JobSpec(AppFactory("IS", n_keys=256, nbuckets=16), "RCinv", CFG)
    assert cache_key(base) != cache_key(other_app)


def test_cache_invalidated_by_code_change(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    specs = is_specs(("z-mc",))
    run_jobs(specs, jobs=1, cache=cache)
    monkeypatch.setattr(parallel, "_CODE_FINGERPRINT", "different-code-version")
    run_jobs(specs, jobs=1, cache=cache)
    assert cache.hits == 0 and cache.misses == 2


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    run_jobs(is_specs(("z-mc", "RCinv")), jobs=1, cache=cache)
    assert cache.clear() == 2
    assert cache.clear() == 0


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    (spec,) = is_specs(("z-mc",))
    run_jobs([spec], jobs=1, cache=cache)
    entry = next(tmp_path.glob("*.pkl"))
    entry.write_bytes(b"not a pickle")
    jobs = run_jobs([spec], jobs=1, cache=cache)
    assert not jobs[0].cached  # recomputed, not crashed


def test_lambda_specs_are_never_cached(tmp_path):
    cache = ResultCache(tmp_path)
    spec = JobSpec(factory=lambda: IS_FACTORY(), system="z-mc", config=CFG)
    run_jobs([spec], jobs=1, cache=cache)
    run_jobs([spec], jobs=1, cache=cache)
    assert cache.hits == 0  # no stable fingerprint -> recompute both times


def test_code_fingerprint_stable():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


def test_sweep_with_cache_hits(tmp_path):
    cache = ResultCache(tmp_path)
    kwargs = dict(base_config=CFG, system="RCupd", cache=cache)
    cold = sweep(IS_FACTORY, "merge_buffer_lines", [1, 2], **kwargs)
    warm = sweep(IS_FACTORY, "merge_buffer_lines", [1, 2], **kwargs)
    assert cache.hits == 2
    assert [p.result for p in warm.points] == [p.result for p in cold.points]


# ---------------------------------------------------------------------------
# bench harness


def test_run_bench_smoke(tmp_path):
    out = tmp_path / "BENCH_parallel.json"
    doc = run_bench(scale="smoke", jobs=2, out=out)
    assert out.is_file()
    assert doc["results_identical"] is True
    assert doc["cache_hit_rate"] == 1.0
    assert doc["n_runs"] == 20  # 4 apps x 5 paper systems
    assert set(doc["phases"]) == {"serial", "parallel", "cached"}
    assert doc["phases"]["cached"]["wall_s"] < doc["phases"]["serial"]["wall_s"]


def test_run_engine_bench_smoke(tmp_path):
    import json

    from repro.core.bench import format_engine_bench, run_engine_bench

    out = tmp_path / "BENCH_engine.json"
    doc = run_engine_bench(scale="smoke", nprocs=4, reps=2, out=out)
    assert out.is_file()
    assert json.loads(out.read_text()) == doc
    assert doc["bench"] == "engine-throughput"
    assert doc["scale"] == "smoke" and doc["nprocs"] == 4
    assert doc["events"] > 0
    assert doc["events_per_sec"] > 0
    assert len(doc["wall_s_all_reps"]) == 2
    assert doc["wall_s"] == min(doc["wall_s_all_reps"])
    assert "events/sec" in format_engine_bench(doc)


def test_engine_regression_check():
    from repro.core.bench import check_engine_regression

    base = {"scale": "default", "nprocs": 16, "events_per_sec": 100_000.0}
    ok, _ = check_engine_regression(
        {"scale": "default", "nprocs": 16, "events_per_sec": 85_000.0}, base
    )
    assert ok  # -15% is inside the 20% tolerance
    ok, msg = check_engine_regression(
        {"scale": "default", "nprocs": 16, "events_per_sec": 70_000.0}, base
    )
    assert not ok and "REGRESSION" in msg
    # Apples-to-oranges docs never fail the gate.
    ok, msg = check_engine_regression(
        {"scale": "smoke", "nprocs": 16, "events_per_sec": 1.0}, base
    )
    assert ok and "not comparable" in msg
    ok, msg = check_engine_regression(
        {"scale": "default", "nprocs": 64, "events_per_sec": 1.0}, base
    )
    assert ok and "not comparable" in msg
