"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import run  # noqa: E402
from perfbench.probes import Probes, Tracer  # noqa: E402
from perfbench.replay import cross_check  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    ObservedWorkload,
    StudyWorkload,
    sim_digest,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """Advances by one nanosecond per reading."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1
        return self.now


def test_self_time_arithmetic_on_nested_spans():
    tr = Tracer(clock=FakeClock())
    leaf = tr.wrap("network", lambda: None)
    inner = tr.wrap("network", lambda: leaf())  # same-layer nesting
    mem = tr.wrap("mem", lambda: (inner(), leaf()))
    root = tr.wrap("sim", lambda: (mem(), leaf()), "run", keep=True)
    root()
    # Clock readings: sim opens at 1, mem at 2, the outer network span
    # spans 3..6 around a leaf at 4..5, mem's own leaf is 7..8, mem closes
    # at 9, sim's leaf is 10..11 and sim closes at 12.
    assert tr.spans == [("sim", "run", 1, 12, 0)]
    assert tr.root_ns == 11
    assert tr.self_ns["sim"] == 11 - 7 - 1
    assert tr.self_ns["mem"] == 7 - 3 - 1
    assert tr.self_ns["network"] == 1 + 2 + 1 + 1
    assert sum(tr.self_ns.values()) == tr.root_ns
    assert tr.calls == {**dict.fromkeys(tr.calls, 0), "sim": 1, "mem": 1, "network": 4}
    # Inclusive time counts only spans entered from another layer.
    assert tr.incl_ns["network"] == 3 + 1 + 1
    assert tr.incl_ns["mem"] == 7


def test_self_time_survives_exceptions():
    tr = Tracer(clock=FakeClock())

    def fail():
        raise KeyError("boom")

    outer = tr.wrap("core", tr.wrap("verify", fail))
    with pytest.raises(KeyError):
        outer()
    assert sum(tr.self_ns.values()) == tr.root_ns == 3


def test_cell_balance_is_checked_against_the_cells_own_clock():
    import time
    from types import SimpleNamespace

    probes = Probes("core")

    def honest(_spec):
        t0 = time.perf_counter()
        time.sleep(0.002)
        return SimpleNamespace(elapsed=time.perf_counter() - t0)

    def lost(_spec):
        # Reports 50 ms of its own time while its span lasts about 2 ms:
        # the spans lost time the cell measured.
        time.sleep(0.002)
        return SimpleNamespace(elapsed=0.05)

    probes.cell_executor(honest)(None)
    assert probes.unbalanced_cells == 0
    probes.cell_executor(lost)(None)
    assert probes.unbalanced_cells == 1


def test_calibration_scales_only_time_between_kernel_runs():
    from perfbench import calibrate

    cal = calibrate.Calibrator()
    ref = calibrate.REFERENCE_S
    # Marks 10 s apart: each gap is scaled by the median of its two marks.
    # Kernel runs of ref and 3 * ref mean the host ran at half speed.
    cal.marks = [(0.0, ref), (10.0, 10.0 + 3 * ref), (20.0, 20.0 + ref)]
    raw, norm = cal.scaled(1.0, 10.0 + 3 * ref + 2.0)
    assert raw == pytest.approx(9.0 + 2.0)
    assert norm == pytest.approx((9.0 + 2.0) * 0.5**calibrate.SENSITIVITY)
    # A mark within the window joins the median: one slow mark among
    # three fast ones leaves the speed at the reference.
    cal.marks = [(0.0, ref), (0.5, 0.5 + 9 * ref), (0.9, 0.9 + ref), (1.0, 1.0 + ref)]
    assert cal.scaled(0.9 + ref, 1.0)[1] == pytest.approx(0.1 - ref)
    # Nothing before the first or after the last kernel run counts.
    assert cal.scaled(-5.0, 0.0) == (0.0, 0.0)
    assert cal.scaled(30.0, 40.0) == (0.0, 0.0)


def test_metric_names_and_units_match_the_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for table, spec in ((run.END_TO_END, doc["end_to_end"]), (run.PER_LAYER, doc["per_layer"])):
        assert {m["name"]: m["unit"] for m in spec} == table
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in doc["workloads"]]:
        assert NAME.fullmatch(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200


def smoke(workload):
    """The same workload at smoke scale on 4 processors."""
    cls = type(workload)
    kwargs = {"pool": workload.pool} if isinstance(workload, StudyWorkload) else {}
    return cls(workload.name, "smoke", 4, workload.apps, workload.why, **kwargs)


def test_memory_proxy_keeps_fast_path_and_digests(tmp_path):
    from repro.core.parallel import execute_job

    workload = smoke(WORKLOADS["study-default"])
    cells = workload.cells(seed=3)
    probes = Probes("fine")
    with probes.installed():
        traced = {label: sim_digest(execute_job(spec).result) for label, spec in cells}
    plain = {label: sim_digest(execute_job(spec).result) for label, spec in cells}
    assert traced == plain
    calls, hits = probes.fastpath()
    assert calls > 0 and 0 < hits < calls
    assert probes.tracer.calls["mem"] > 0 and probes.tracer.calls["network"] > 0


def test_memory_proxy_exposes_inner_hit_result():
    from repro.config import MachineConfig
    from repro.runtime.context import Machine

    from perfbench.probes import MemoryProxy

    machine = Machine(MachineConfig(nprocs=4), "RCinv")
    proxy = MemoryProxy(machine.memsys, lambda _name, fn: fn)
    assert proxy._hit_result is machine.memsys._hit_result
    zproxy = MemoryProxy(Machine(MachineConfig(nprocs=4), "z-mc").memsys, lambda _n, fn: fn)
    assert zproxy._hit_result is not None


def test_probes_are_removed_after_a_pass():
    from repro.core.parallel import ResultCache
    from repro.runtime.context import Machine

    before = (Machine.run, Machine.__init__, ResultCache.get)
    with Probes("fine").installed():
        assert Machine.run is not before[0]
    assert (Machine.run, Machine.__init__, ResultCache.get) == before


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_of_every_workload(name, trace, tmp_path):
    workload = smoke(WORKLOADS[name])
    runner = run.run_traced if trace else run.run_untraced
    values, attempted, failed, passes = runner(workload, 2, 0.0, tmp_path)
    assert failed == 0 and attempted >= len(workload.cells(2))
    assert passes and passes[0].events > 0
    if trace:
        assert set(values) == set(run.PER_LAYER)
        assert values["trace.overhead_x"] > 0
        if name == "observed":
            assert values["obs.trace_x"] > 1 and values["obs.export_s"] > 0
        if name in ("study-default", "scale-p64"):
            assert values["mem.calls"] > 0 and values["verify.s"] > 0
            assert 0 < values["mem.fastpath_frac"] < 1
    else:
        assert min(values["wall_s"]) > 0


def test_replay_cross_check_finds_no_hidden_state():
    workload = smoke(WORKLOADS["scale-p64"])
    for label, spec in workload.cells(seed=5):
        if label in run.REPLAY_CELLS:
            counts = cross_check(spec)
            assert counts["mem_calls"] > 0 and counts["network_calls"] > 0
            assert counts["mem_mismatches"] == 0 and counts["network_mismatches"] == 0
            assert counts["mem_replay_s"] > 0


def test_replay_counts_a_result_that_differs_from_the_recording():
    from perfbench.replay import record_cell, replay

    workload = smoke(WORKLOADS["scale-p64"])
    spec = dict(workload.cells(seed=5))["IS/RCinv"]
    log = record_cell(spec).log
    i = next(i for i, entry in enumerate(log) if entry[0] == "mem" and entry[1] == "read")
    target, name, args, (t, *rest) = log[i]
    log[i] = (target, name, args, (t + 1.0, *rest))
    counts = replay(spec, log)
    assert counts["mem_mismatches"] == 1 and counts["network_mismatches"] == 0


def test_digest_store_flags_a_changed_digest_of_the_same_key(tmp_path):
    store = run.DigestStore(tmp_path / "digests.json")
    assert store.check({"code1/IS/RCinv": "a"}) == 0
    assert store.check({"code1/IS/RCinv": "b"}) == 1
    assert store.check({"code2/IS/RCinv": "b"}) == 0


def test_seed_changes_inputs_not_the_matrix():
    workload = WORKLOADS["study-default"]
    a, b = workload.cells(1), workload.cells(2)
    assert [label for label, _ in a] == [label for label, _ in b]
    changed = {la.split("/")[0] for (la, sa), (_, sb) in zip(a, b) if sa.factory != sb.factory}
    assert changed == {"IS", "Nbody"}


def test_setup_probe_reports_every_phase():
    samples = run.measure_setup("study-default", 0, repeats=1)
    assert len(samples) == 1
    doc = samples[0]
    assert doc["raw_setup_s"] > doc["import_s"] > 0 and doc["setup_s"] > 0
    assert len(doc["kernel_s"]) == 6 and doc["kernel_before_ready_s"] > 0
    assert doc["construct_s"] > 0 and doc["assemble_s"] > 0


def test_observed_digests_match_the_study_path(tmp_path):
    study = smoke(WORKLOADS["study-default"]).run_pass(4, tmp_path)
    observed = smoke(WORKLOADS["observed"]).run_pass(4, tmp_path)
    assert isinstance(WORKLOADS["observed"], ObservedWorkload)
    assert study.failed == observed.failed == 0
    assert study.digests() == observed.digests()
