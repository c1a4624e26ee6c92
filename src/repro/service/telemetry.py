"""Structured telemetry: a lightweight event bus with JSONL persistence.

Every phase of a service request (mrrg-build, model-build, solve, route,
verify, cache-hit/miss, stage transitions) emits one
:class:`TelemetryEvent`.  Sinks are plain callables, so the bus works
in-memory (:class:`EventLog`), on disk (:class:`JsonlWriter`) or both at
once; ``repro-cgra service stats`` replays a JSONL file through
:func:`summarize_events`.

The bus is also the mapper-facing telemetry interface: mappers accept any
object with an ``emit(kind, duration=None, **fields)`` method and never
import this module, which keeps the dependency arrow pointing from the
service layer down into the mappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Any

#: Event kinds emitted by the built-in pipeline (extension kinds are fine).
KNOWN_KINDS = (
    "request",
    "mrrg-build",
    "cache-hit",
    "cache-miss",
    "cache-store",
    "stage-start",
    "stage-end",
    "stage-skipped",
    "pre-audit",
    "bounds-screen",
    "model-audit",
    "model-build",
    "model-compile",
    "solve",
    "route",
    "verify",
    "result",
)


@dataclasses.dataclass(frozen=True)
class TelemetryEvent:
    """One telemetry record.

    Attributes:
        kind: event type (see :data:`KNOWN_KINDS`).
        timestamp: wall-clock epoch seconds at emission.
        duration: elapsed seconds of the phase, when it is a timed phase.
        fields: free-form JSON-able payload (model sizes, statuses, ...).
    """

    kind: str
    timestamp: float
    duration: float | None = None
    fields: dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_json(self) -> str:
        payload: dict[str, Any] = {"kind": self.kind, "ts": self.timestamp}
        if self.duration is not None:
            payload["duration"] = self.duration
        if self.fields:
            payload["fields"] = self.fields
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TelemetryEvent":
        """Decode one line.

        Raises:
            ValueError, KeyError, TypeError: the line is not an event.
        """
        payload = json.loads(line)
        kind, fields = payload["kind"], payload.get("fields", {})
        if not isinstance(kind, str) or not isinstance(fields, dict):
            raise TypeError("not a telemetry event")
        duration = payload.get("duration")
        return cls(
            kind=kind,
            timestamp=float(payload["ts"]),
            duration=None if duration is None else float(duration),
            fields=fields,
        )


class EventBus:
    """Fan-out of telemetry events to any number of sinks.

    A sink is a callable taking one :class:`TelemetryEvent`; a failing
    sink is never allowed to break the mapping pipeline (exceptions from
    sinks propagate — register robust sinks).
    """

    def __init__(self) -> None:
        self._sinks: list[Callable[[TelemetryEvent], None]] = []

    def subscribe(self, sink: Callable[[TelemetryEvent], None]) -> None:
        self._sinks.append(sink)

    def emit(
        self, kind: str, duration: float | None = None, **fields: Any
    ) -> TelemetryEvent:
        # Log timestamps are the one legitimate wall-clock read: they
        # correlate events with the outside world.  Durations and
        # deadlines must use the monotonic clock (lint rule R006).
        event = TelemetryEvent(
            kind=kind,
            timestamp=time.time(),  # lint: allow(R006)
            duration=duration,
            fields=fields,
        )
        for sink in self._sinks:
            sink(event)
        return event

    @contextlib.contextmanager
    def timed(self, kind: str, **fields: Any) -> Iterator[dict[str, Any]]:
        """Time a phase; the yielded dict collects extra result fields.

        Durations come from the monotonic clock: ``time.time()`` can
        step backwards (NTP slew, manual clock changes) and would
        report negative or wildly wrong phase times.
        """
        extra: dict[str, Any] = {}
        start = time.monotonic()
        try:
            yield extra
        finally:
            elapsed = time.monotonic() - start
            self.emit(kind, duration=elapsed, **{**fields, **extra})


class EventLog:
    """In-memory sink: keeps every event, handy for tests and reports."""

    def __init__(self) -> None:
        self.events: list[TelemetryEvent] = []

    def __call__(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    def kinds(self) -> list[str]:
        return [event.kind for event in self.events]

    def of_kind(self, kind: str) -> list[TelemetryEvent]:
        return [event for event in self.events if event.kind == kind]


class JsonlWriter:
    """Append-only JSONL sink, flushed per event so interrupts lose nothing."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def __call__(self, event: TelemetryEvent) -> None:
        self._handle.write(event.to_json() + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


def read_events(path: str | Path) -> list[TelemetryEvent]:
    """Load a telemetry JSONL file.

    A line that does not hold an event (blank, torn by a writer killed
    mid-line, not UTF-8, not an event object) is skipped and costs only
    itself.
    """
    events = []
    with open(path, "rb") as handle:
        for line in handle:
            try:
                events.append(TelemetryEvent.from_json(line.decode("utf-8")))
            except (ValueError, KeyError, TypeError):
                continue  # JSON, UTF-8 and field errors alike
    return events


def summarize_events(events: Iterable[TelemetryEvent]) -> str:
    """Render the ``repro-cgra service stats`` report.

    Per event kind: count, total and mean duration.  Plus derived service
    health lines: cache hit rate, solve outcomes per stage, and model-size
    aggregates from ``model-build`` events.
    """
    events = list(events)
    if not events:
        return "no telemetry events\n"

    by_kind: dict[str, list[TelemetryEvent]] = {}
    for event in events:
        by_kind.setdefault(event.kind, []).append(event)

    lines = [f"telemetry: {len(events)} events", "", "per-phase timings:"]
    header = f"  {'kind':<14} {'count':>5} {'total_s':>9} {'mean_s':>9}"
    lines.append(header)
    for kind in sorted(by_kind):
        group = by_kind[kind]
        timed = [e.duration for e in group if e.duration is not None]
        total = sum(timed)
        mean = total / len(timed) if timed else 0.0
        lines.append(
            f"  {kind:<14} {len(group):>5} {total:>9.3f} {mean:>9.3f}"
        )

    hits = len(by_kind.get("cache-hit", ()))
    misses = len(by_kind.get("cache-miss", ()))
    if hits or misses:
        rate = hits / (hits + misses)
        lines += ["", f"cache: {hits} hits / {misses} misses "
                      f"({100.0 * rate:.1f}% hit rate)"]

    stage_ends = by_kind.get("stage-end", ())
    if stage_ends:
        lines += ["", "portfolio stages:"]
        per_stage: dict[tuple[str, str], int] = {}
        for event in stage_ends:
            key = (
                str(event.fields.get("stage", "?")),
                str(event.fields.get("status", "?")),
            )
            per_stage[key] = per_stage.get(key, 0) + 1
        for (stage, status), count in sorted(per_stage.items()):
            lines.append(f"  {stage:<14} {status:<12} x{count}")

    builds = by_kind.get("model-build", ())
    if builds:
        rows = [e.fields.get("constraints", 0) for e in builds]
        cols = [
            e.fields.get("f_vars", 0)
            + e.fields.get("r_vars", 0)
            + e.fields.get("r3_vars_distinct", 0)
            for e in builds
        ]
        lines += [
            "",
            f"models: {len(builds)} built, "
            f"avg {sum(cols) / len(builds):.0f} vars / "
            f"{sum(rows) / len(builds):.0f} constraints",
        ]

    return "\n".join(lines) + "\n"
