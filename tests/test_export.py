"""Run-artefact export: what ``repro trace`` and ``repro attribute`` write.

The fixture ``tests/fixtures/export_golden.json`` pins, for two smoke
cells at P=4, the sha256 and item count of every document the CLI
writes (the Perfetto trace, the interval metrics and the attribution
report), taken over ``json.dumps(parsed, sort_keys=True)`` so the pin
holds whatever the files' layout.  IS/RCinv covers phase lanes,
barrier flows and counter tracks; Cholesky/RCadapt covers lock
hand-offs.  Every written file must also be strict JSON: no
``Infinity``/``NaN`` constants.

Regenerate the fixture after an intentional engine/protocol change with
``PYTHONPATH=src python -m tests.test_export``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from unittest import mock

import pytest

from repro import __main__ as cli
from repro.apps.presets import smoke_scale
from repro.config import MachineConfig
from repro.obs import MetricsCollector, to_perfetto
from repro.obs.timeline import render_perfetto
from repro.runtime.context import Machine
from repro.sim.trace import TraceEvent, TracingMemory

FIXTURE = Path(__file__).parent / "fixtures" / "export_golden.json"
NPROCS = 4
CELLS = (("IS", "RCinv"), ("Cholesky", "RCadapt"))
#: Each written document and the list whose length the fixture pins.
DOCUMENTS = {"trace": "traceEvents", "metrics": "buckets", "attribution": "cells"}


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name} is not strict JSON")


def load_strict(path: Path):
    """Parse ``path`` as strict JSON (``Infinity``/``NaN`` rejected)."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def summarise(kind: str, doc: dict) -> dict:
    text = json.dumps(doc, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return {"sha256": digest, "count": len(doc[DOCUMENTS[kind]])}


def export_cell(app: str, system: str, out: Path) -> dict[str, dict]:
    """Run ``repro trace --metrics`` and ``repro attribute --out`` on one
    smoke cell; return each written document, strictly parsed."""
    paths = {kind: out / f"{kind}.json" for kind in DOCUMENTS}
    common = ["--quiet", "--nprocs", str(NPROCS)]
    with mock.patch.dict(cli.APP_FACTORIES, smoke_scale()), contextlib.redirect_stdout(
        io.StringIO()
    ):
        assert cli.main([*common, "trace", app, system, "--out", str(paths["trace"]),
                         "--metrics", str(paths["metrics"])]) == 0
        assert cli.main([*common, "attribute", app, system, "--scale", "smoke",
                         "--out", str(paths["attribution"])]) == 0
    return {kind: load_strict(path) for kind, path in paths.items()}


def build_fixture(out: Path) -> dict:
    cells = {}
    for app, system in CELLS:
        docs = export_cell(app, system, out)
        cells[f"{app}/{system}"] = {kind: summarise(kind, doc) for kind, doc in docs.items()}
    return {"nprocs": NPROCS, "scale": "smoke", "cells": cells}


@pytest.mark.parametrize("app,system", CELLS, ids=[f"{a}/{s}" for a, s in CELLS])
def test_written_documents_match_golden(app, system, tmp_path):
    expected = json.loads(FIXTURE.read_text())["cells"][f"{app}/{system}"]
    docs = export_cell(app, system, tmp_path)
    actual = {kind: summarise(kind, doc) for kind, doc in docs.items()}
    assert actual == expected, (
        "exported documents drifted from tests/fixtures/export_golden.json; if the "
        "change is intentional, regenerate with PYTHONPATH=src python -m tests.test_export"
    )
    # The dict API is the parsed form of the written trace.
    factory = smoke_scale()[app][0]
    application = factory()
    machine = Machine(MachineConfig(nprocs=NPROCS), system)
    application.setup(machine)
    tracer = TracingMemory.attach(machine)
    collector = MetricsCollector.attach(machine, interval=1000.0)
    result = machine.run(application.worker)
    metrics = collector.to_dict()
    assert metrics == docs["metrics"]
    doc = to_perfetto(
        tracer, NPROCS, total_time=result.total_time, app=app, system=system,
        sync_names=machine.sync.sync_names(), metrics=metrics,
    )
    assert doc == docs["trace"]


def test_profile_documents_are_strict_json(tmp_path):
    out, flame = tmp_path / "profile.json", tmp_path / "flame.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--quiet", "--nprocs", str(NPROCS), "profile", "intsort", "RCinv",
                         "--scale", "smoke", "--out", str(out), "--flame", str(flame)]) == 0
    assert load_strict(out)["app"] == "IS"
    assert load_strict(flame)["traceEvents"]


def _event(kind, proc, issue, complete, addr=None, stalls=(0.0, 0.0, 0.0), hit=True,
           sync=(None, None, None), label=None):
    return TraceEvent(kind, proc, addr, issue, complete, *stalls, hit, *sync, label=label)


SYNTHETIC = [
    _event("read", 0, 0.0, 4.0, addr=None, stalls=(3.0, 0.0, 0.0), hit=False),
    _event("write", 1, 1.0, 1.0, addr=64),
    _event("acquire", 0, 2.0, 2.5, sync=("lock", None, 0)),
    _event("release", 1, 2.0, 3.0, stalls=(0.0, 0.0, 1.5), sync=("barrier", 7, 0)),
    _event("release", 0, 5.0, 6.0, sync=("barrier", 7, 0)),
    _event("phase", 0, 0.5, 0.5, label='work "x"'),
]

#: The document :data:`SYNTHETIC` must render to, written out by hand.
SYNTHETIC_BODY = [
    {"ph": "X", "pid": 0, "tid": 0, "cat": "sim", "name": "read miss", "ts": 0.0,
     "dur": 4.0, "args": {"read_stall": 3.0}},
    {"ph": "X", "pid": 0, "tid": 1000, "cat": "phase", "name": 'work "x"',
     "ts": 0.5, "dur": 8.5},
    {"ph": "X", "pid": 0, "tid": 1, "cat": "sim", "name": "write hit", "ts": 1.0, "dur": 0.0,
     "args": {"addr": 64}},
    {"ph": "X", "pid": 0, "tid": 0, "cat": "sim", "name": "lock", "ts": 2.0, "dur": 0.5,
     "args": {"episode": 0}},
    {"ph": "X", "pid": 0, "tid": 1, "cat": "sim", "name": "barrier:#7", "ts": 2.0, "dur": 1.0,
     "args": {"buffer_flush": 1.5, "episode": 0}},
    {"ph": "s", "pid": 0, "tid": 1, "cat": "flow", "name": "barrier:#7", "id": "barrier7.e0",
     "ts": 2.0},
    {"ph": "X", "pid": 0, "tid": 0, "cat": "sim", "name": "barrier:#7", "ts": 5.0, "dur": 1.0,
     "args": {"episode": 0}},
    {"ph": "f", "pid": 0, "tid": 0, "cat": "flow", "name": "barrier:#7", "id": "barrier7.e0",
     "ts": 5.0, "bp": "e"},
]


def test_synthetic_events_render_exactly():
    text, count = render_perfetto(SYNTHETIC, 2, total_time=9.0, app="A", system="S")
    doc = json.loads(text, parse_constant=_reject_constant)
    assert len(doc["traceEvents"]) == count
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert len(meta) == 1 + 4 * 2  # process name + per-proc lane and phase-lane rows
    assert meta[0]["args"]["name"] == "repro A on S"
    assert doc["traceEvents"][len(meta):] == SYNTHETIC_BODY
    assert doc["otherData"] == {"app": "A", "system": "S", "total_time_cycles": 9.0}
    assert to_perfetto(SYNTHETIC, 2, total_time=9.0, app="A", system="S") == doc


def test_non_finite_values_are_written_as_json_dumps_writes_them():
    events = [
        _event("read", 0, 0.0, math.inf, addr=1, stalls=(math.inf, 0.0, 0.0), hit=False),
        _event("write", 0, 1.0, 1.0, addr=2, stalls=(0.0, math.nan, 0.0)),
        _event("phase", 0, 0.0, 0.0, label="x: inf"),
    ]
    text, _ = render_perfetto(events, 1, total_time=-math.inf)
    with pytest.raises(ValueError):
        json.loads(text, parse_constant=_reject_constant)
    doc = json.loads(text)
    assert json.dumps(doc) == text
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert slices[0]["dur"] == math.inf and slices[0]["args"]["read_stall"] == math.inf
    assert math.isnan(slices[2]["args"]["write_stall"])
    assert slices[1]["name"] == "x: inf" and slices[1]["dur"] == 0.0
    assert doc["otherData"]["total_time_cycles"] == -math.inf


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        fixture = build_fixture(Path(tmp))
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
