"""Chrome/Perfetto ``trace_event`` JSON export and schema validation.

The output follows the Trace Event Format (the JSON flavour Perfetto's
legacy importer and ``chrome://tracing`` both load):

* every track becomes a named thread (``M``/``thread_name`` metadata) of a
  single process;
* properly nested sync spans become complete events (``ph: "X"``) with
  microsecond ``ts``/``dur`` on the simulated clock;
* overlapping spans (driver queue residencies) become async begin/end pairs
  (``ph: "b"``/``"e"``) keyed by ``id``;
* span ids and parent links ride in ``args`` (``span``/``parent``), which
  Perfetto surfaces in the selection panel.

:func:`validate_trace_events` is the schema check CI runs against generated
traces; it is deliberately dependency-free (no jsonschema in the image).
"""

from __future__ import annotations

import json
import pathlib
from typing import TYPE_CHECKING, Optional, Union

from repro.obs.registry import snapshot

if TYPE_CHECKING:
    from repro.machine import Machine
    from repro.obs.tracer import Span

#: single simulated machine = one perfetto process
PID = 1


def _microseconds(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def _span_event(span: "Span", tid: int) -> list[dict]:
    args = dict(span.args or {})
    args["span"] = span.id
    if span.parent is not None:
        args["parent"] = span.parent
    common = {"name": span.name, "cat": span.cat, "pid": PID, "tid": tid,
              "args": args}
    if span.async_id is None:
        return [{**common, "ph": "X", "ts": _microseconds(span.start),
                 "dur": _microseconds(span.duration)}]
    # async pair: same id groups begin and end
    ident = f"0x{span.async_id:x}"
    return [
        {**common, "ph": "b", "id": ident, "ts": _microseconds(span.start)},
        {"name": span.name, "cat": span.cat, "pid": PID, "tid": tid,
         "ph": "e", "id": ident, "ts": _microseconds(span.end)},
    ]


def trace_events(machine: "Machine", label: str = "") -> dict:
    """Render the machine's spans as a trace_event JSON document (a dict)."""
    tracer = machine.tracer
    tracks = tracer.tracks()
    tid_of = {track: index + 1 for index, track in enumerate(tracks)}
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": PID, "tid": 0,
         "args": {"name": label or "repro simulation"}}
    ]
    for track, tid in tid_of.items():
        events.append({"name": "thread_name", "ph": "M", "pid": PID,
                       "tid": tid, "args": {"name": track}})
    for span in tracer.spans:
        if not span.closed:
            continue
        events.extend(_span_event(span, tid_of[span.track]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated seconds (exported as microseconds)",
            "label": label,
            "metrics": snapshot(machine),
        },
    }


def write_trace(machine: "Machine", path: Union[str, pathlib.Path],
                label: str = "") -> pathlib.Path:
    """Write the trace_event JSON for *machine* to *path*; returns it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace_events(machine, label=label)) + "\n")
    return path


# ----------------------------------------------------------------------
# schema validation (the CI trace-smoke check)
# ----------------------------------------------------------------------
_PHASES_WITH_ID = {"b", "e", "n", "s", "t", "f"}
_KNOWN_PHASES = {"X", "B", "E", "M", "I", "C"} | _PHASES_WITH_ID


class TraceFormatError(ValueError):
    """The document is not valid trace_event JSON."""


def _fail(index: int, message: str, event: Optional[dict] = None) -> None:
    detail = f" in event {event!r}" if event is not None else ""
    raise TraceFormatError(f"traceEvents[{index}]: {message}{detail}")


def validate_trace_events(doc) -> int:
    """Check *doc* against the trace_event format; returns the event count.

    Raises :class:`TraceFormatError` naming the first offending event.
    Checks the subset of the spec our exporter uses plus the invariants
    Perfetto's importer actually relies on (numeric ``ts``, ``dur`` present
    and non-negative on complete events, ids on async events, metadata
    shape).
    """
    if not isinstance(doc, dict):
        raise TraceFormatError(f"top level must be an object, got {type(doc)}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise TraceFormatError("traceEvents must be a non-empty array")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            _fail(index, "event is not an object")
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            _fail(index, f"unknown phase {phase!r}", event)
        if not isinstance(event.get("name"), str) or not event["name"]:
            _fail(index, "missing or empty name", event)
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                _fail(index, f"missing integer {key}", event)
        if phase == "M":
            if not isinstance(event.get("args"), dict):
                _fail(index, "metadata event without args", event)
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            _fail(index, f"bad ts {ts!r}", event)
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                _fail(index, f"complete event with bad dur {dur!r}", event)
        if phase in _PHASES_WITH_ID and "id" not in event:
            _fail(index, f"{phase!r} event without id", event)
        if not isinstance(event.get("cat", ""), str):
            _fail(index, "non-string cat", event)
    return len(events)


def validate_trace_file(path: Union[str, pathlib.Path]) -> int:
    """Load and validate one JSON file; returns its event count."""
    with open(path) as handle:
        doc = json.load(handle)
    return validate_trace_events(doc)
