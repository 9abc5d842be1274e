"""Chrome trace-event / Perfetto JSON export of traced runs.

Converts :class:`repro.sim.trace.TracingMemory` event lists into the
`trace-event format <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
understood by ``chrome://tracing`` and https://ui.perfetto.dev:

- one lane (*thread*) per simulated processor carrying complete ("X")
  slices for every access, named by kind and hit/miss, with the stall
  decomposition in ``args``;
- one extra lane per processor carrying application ``phase`` spans;
- flow events ("s"/"t"/"f") stitching barrier episodes across the
  arriving processors and lock hand-offs from release to next acquire.

Simulated cycles are written as microsecond timestamps (1 cycle = 1 us)
— absolute units are meaningless in a simulator, relative extents are
what the timeline is for.
"""

from __future__ import annotations

import json
import re
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any

from ..analysis.naming import sync_label

#: tid offset for the per-processor phase lanes.
PHASE_LANE = 1000

_SyncNames = dict[tuple[str, int], str]

_issue = attrgetter("issue")
_ts = itemgetter(0)

#: A non-finite float written by ``repr`` in a value position.  A quote
#: inside a JSON string is always escaped, so an unescaped ``": `` can
#: only end a key.
_NON_FINITE = re.compile(r'(?<=[^\\]": )(-?inf|nan)\b')
_JSON_CONSTANTS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _sync_name(names: _SyncNames | None, kind: str, sync_id: int | None) -> str:
    if names is None or sync_id is None:
        return ""
    if kind.startswith("flag"):
        kind = "flag"
    return names.get((kind, sync_id), "")


def _slice_name(e, names: _SyncNames | None = None) -> str:
    if e.sync_kind is not None:
        if e.sync_id is None:
            return e.sync_kind
        return sync_label(e.sync_kind, _sync_name(names, e.sync_kind, e.sync_id), e.sync_id)
    if e.kind in ("read", "write"):
        return f"{e.kind} {'hit' if e.hit else 'miss'}"
    return e.kind


def render_perfetto(
    events,
    nprocs: int,
    total_time: float | None = None,
    app: str = "",
    system: str = "",
    sync_names: _SyncNames | None = None,
    metrics: dict[str, Any] | None = None,
) -> tuple[str, int]:
    """Render trace events as trace-event JSON text; returns ``(text, event count)``.

    ``events`` is a :class:`~repro.sim.trace.TracingMemory` or any
    iterable of :class:`~repro.sim.trace.TraceEvent`.  ``sync_names``
    (from :meth:`SyncManager.sync_names`) labels sync slices and flow
    events with their declaration names, matching the spelling used by
    the static analyzer's reports.  ``metrics`` (a
    :meth:`MetricsCollector.to_dict` document) adds per-bucket counter
    tracks — events/sec, event-wheel depth, store-buffer depth — above
    the processor lanes.

    One pass over the events writes each access slice as text and
    collects the phase markers, barrier arrivals and lock operations
    that the phase lanes and flows are drawn from; each distinct slice
    name is JSON-encoded once.  The body is stable-sorted on ``ts``.
    Numbers are written as ``json.dumps`` writes them, non-finite
    floats included, so the text parses to the same document.
    """
    source = events
    events = list(getattr(events, "events", events))
    if total_time is None:
        total_time = max((e.complete for e in events), default=0.0)
    dumps = json.dumps

    body: list[tuple[float, str]] = []
    emit = body.append
    names: dict[tuple, str] = {}
    phase_marks: dict[int, list] = {}
    barriers: dict[tuple[int, int], list] = {}
    locks: dict[int, list] = {}
    for e in events:
        kind, sync_kind = e.kind, e.sync_kind
        if kind == "phase":
            phase_marks.setdefault(e.proc, []).append(e)
            continue
        if sync_kind == "barrier" and kind == "release":
            barriers.setdefault((e.sync_id, e.episode or 0), []).append(e)
        elif sync_kind == "lock" and kind in ("acquire", "release"):
            locks.setdefault(e.sync_id, []).append(e)
        key = (kind, e.hit, sync_kind, e.sync_id)
        name = names.get(key)
        if name is None:
            name = names[key] = dumps(_slice_name(e, sync_names))
        args = ""
        if e.addr is not None:
            args = f', "addr": {e.addr!r}'
        if e.read_stall:
            args += f', "read_stall": {e.read_stall!r}'
        if e.write_stall:
            args += f', "write_stall": {e.write_stall!r}'
        if e.buffer_flush:
            args += f', "buffer_flush": {e.buffer_flush!r}'
        if e.episode is not None:
            args += f', "episode": {e.episode!r}'
        if args:
            args = f', "args": {{{args[2:]}}}'
        issue = e.issue
        emit((issue, f'{{"ph": "X", "pid": 0, "tid": {e.proc!r}, "cat": "sim", "name": {name}, '
                     f'"ts": {issue!r}, "dur": {e.complete - issue!r}{args}}}'))

    # -- application phase lanes ---------------------------------------
    for proc, marks in phase_marks.items():
        marks.sort(key=_issue)
        for i, mark in enumerate(marks):
            end = marks[i + 1].issue if i + 1 < len(marks) else total_time
            emit((mark.issue,
                  f'{{"ph": "X", "pid": 0, "tid": {PHASE_LANE + proc!r}, "cat": "phase", '
                  f'"name": {dumps(mark.label or "phase")}, "ts": {mark.issue!r}, '
                  f'"dur": {max(0.0, end - mark.issue)!r}}}'))

    # -- barrier flow events -------------------------------------------
    for (bar_id, episode), arrivals in barriers.items():
        if len(arrivals) < 2:
            continue
        arrivals.sort(key=_issue)
        bar_name = dumps(sync_label("barrier", _sync_name(sync_names, "barrier", bar_id), bar_id))
        for i, e in enumerate(arrivals):
            ph = "s" if i == 0 else ("f" if i == len(arrivals) - 1 else "t")
            emit(_flow(ph, e, bar_name, f"barrier{bar_id}.e{episode}"))

    # -- lock hand-off flow events -------------------------------------
    for lock_id, ops in locks.items():
        ops.sort(key=_issue)
        lock_name = dumps(sync_label("lock", _sync_name(sync_names, "lock", lock_id), lock_id))
        handoff = 0
        pending = None  # last unmatched release
        for e in ops:
            if e.kind == "release":
                pending = e
            elif pending is not None and e.proc != pending.proc:
                flow_id = f"lock{lock_id}.h{handoff}"
                handoff += 1
                emit(_flow("s", pending, lock_name, flow_id))
                emit(_flow("f", e, lock_name, flow_id))
                pending = None

    body.extend(_counter_events(metrics))
    body.sort(key=_ts)

    title = " ".join(x for x in (app, "on", system) if x) if (app or system) else "simulation"
    meta: list[dict[str, Any]] = [{"ph": "M", "pid": 0, "tid": 0, "ts": 0,
                                   "name": "process_name", "args": {"name": f"repro {title}"}}]
    for p in range(nprocs):
        lanes = [(p, f"proc {p}")]
        if phase_marks:
            lanes.append((PHASE_LANE + p, f"phases p{p}"))
        for sort_index, (tid, lane) in enumerate(lanes, start=2 * p):
            meta.append({"ph": "M", "pid": 0, "tid": tid, "ts": 0, "name": "thread_name",
                         "args": {"name": lane}})
            meta.append({"ph": "M", "pid": 0, "tid": tid, "ts": 0, "name": "thread_sort_index",
                         "args": {"sort_index": sort_index}})
    other: dict[str, Any] = {"app": app, "system": system, "total_time_cycles": total_time}
    # When the caller passed a TracingMemory (not a bare event list),
    # embed its hot-block rankings so the --out sidecar carries them.
    hottest = getattr(source, "hottest_blocks", None)
    if callable(hottest):
        other["hottest_blocks"] = hottest()
        accessed = getattr(source, "hottest_accessed", None)
        if callable(accessed):
            other["hottest_accessed"] = accessed()
        dropped = getattr(source, "dropped", 0)
        if dropped:
            other["dropped_events"] = dropped
    texts = [*map(dumps, meta), *(text for _, text in body)]
    text = (f'{{"traceEvents": [{", ".join(texts)}], "displayTimeUnit": "ms", '
            f'"otherData": {dumps(other)}}}')
    return _json_constants(text), len(texts)


def to_perfetto(
    events,
    nprocs: int,
    total_time: float | None = None,
    app: str = "",
    system: str = "",
    sync_names: _SyncNames | None = None,
    metrics: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The trace-event document of :func:`render_perfetto`, parsed."""
    text, _ = render_perfetto(events, nprocs, total_time, app, system, sync_names, metrics)
    return json.loads(text)


def _flow(ph: str, e, name: str, flow_id: str) -> tuple[float, str]:
    """One flow event (``s``/``t``/``f``) at ``e``; ``name`` is JSON-encoded."""
    bp = ', "bp": "e"' if ph == "f" else ""
    return e.issue, (f'{{"ph": "{ph}", "pid": 0, "tid": {e.proc!r}, "cat": "flow", '
                     f'"name": {name}, "id": "{flow_id}", "ts": {e.issue!r}{bp}}}')


def _json_constants(text: str) -> str:
    """``text`` with ``repr``'s non-finite floats spelt as ``json.dumps`` spells them."""
    if '": inf' in text or '": -inf' in text or '": nan' in text:
        text = _NON_FINITE.sub(lambda m: _JSON_CONSTANTS[m[1]], text)
    return text


def attribution_to_perfetto(report: dict[str, Any], top: int = 8) -> dict[str, Any]:
    """Perfetto counter heatmap from an attribution report.

    One ``"C"`` counter track per top-``top`` named region (ranked by
    attributed overhead) plus one machine-wide track per stall category,
    each sampled at the first mark of every application phase with the
    overhead cycles that region/category accumulated *inside that
    phase*.  Scrubbing the result next to a ``repro trace`` timeline of
    the same run shows where in simulated time each hot structure paid.
    """
    phases = {p["label"]: p["first_mark"] for p in report.get("phases", ())}
    hot = [r["key"] for r in report["dims"]["block"][:top]]
    per_cell: dict[tuple[str, str], float] = {}
    per_cat: dict[tuple[str, str], float] = {}
    for c in report["cells"]:
        key = c["key"] if c["kind"] == "data" else "(sync ops)"
        if key in hot:
            pair = (c["phase"], key)
            per_cell[pair] = per_cell.get(pair, 0.0) + (
                c["read_stall"] + c["write_stall"] + c["buffer_flush"]
            )
        for cat in ("read_stall", "write_stall", "buffer_flush"):
            if c[cat]:
                pair = (c["phase"], cat)
                per_cat[pair] = per_cat.get(pair, 0.0) + c[cat]

    title = " ".join(x for x in (report.get("app"), "on", report.get("system")) if x)
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": 0, "tid": 0, "ts": 0, "name": "process_name",
         "args": {"name": f"repro attribution {title}".rstrip()}}
    ]
    for (phase, key), overhead in per_cell.items():
        events.append(
            {"ph": "C", "pid": 0, "tid": 0, "cat": "attrib",
             "name": f"stall: {key}", "ts": phases.get(phase, 0.0),
             "args": {"value": round(overhead, 1)}}
        )
    for (phase, cat), overhead in per_cat.items():
        events.append(
            {"ph": "C", "pid": 0, "tid": 0, "cat": "attrib",
             "name": f"total {cat.replace('_', ' ')}", "ts": phases.get(phase, 0.0),
             "args": {"value": round(overhead, 1)}}
        )
    events.sort(key=lambda entry: (entry["ts"], entry["name"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "kind": "attribution-heatmap",
            "app": report.get("app", ""),
            "system": report.get("system", ""),
            "total_time_cycles": report.get("total_time"),
            "tracks": len(hot),
        },
    }


def _counter_events(metrics: dict[str, Any] | None) -> list[tuple[float, str]]:
    """Perfetto ``C`` counter tracks from an interval-metrics document.

    One sample per bucket, stamped at the bucket's start: simulated
    events per second (1 cycle = 1 us, so ``accesses / interval * 1e6``),
    the event-wheel (ready queue) depth and the machine-wide store- and
    merge-buffer depths sampled at the bucket crossing.  Returns
    ``(ts, text)`` pairs.
    """
    if not metrics:
        return []
    interval = metrics.get("interval") or 0.0
    out: list[tuple[float, str]] = []

    def counter(name: str, ts: float, value) -> None:
        out.append((ts, f'{{"ph": "C", "pid": 0, "tid": 0, "cat": "metrics", '
                        f'"name": {json.dumps(name)}, "ts": {ts!r}, '
                        f'"args": {{"value": {value!r}}}}}'))

    for bucket in metrics.get("buckets", ()):
        ts = bucket["t0"]
        accesses = bucket.get("accesses")
        if accesses is not None and interval > 0:
            counter("events/sec", ts, round(accesses / interval * 1e6, 1))
        wheel = bucket.get("wheel_depth")
        if wheel is not None:
            counter("wheel depth", ts, wheel)
        depths = bucket.get("buffer_depth")
        if depths:
            for kind, per_proc in depths.items():
                counter(f"{kind.replace('_', ' ')} depth", ts, sum(per_proc))
    return out


def write_trace(path: str | Path, document: str | dict[str, Any]) -> Path:
    """Write a trace-event document, rendered text or a dict, as JSON;
    returns the path written."""
    path = Path(path)
    text = document if isinstance(document, str) else json.dumps(document)
    path.write_text(text + "\n")
    return path
