"""Structured run logging: schema-versioned JSONL event streams.

A :class:`RunLogger` appends one JSON object per line to a log file, flushing
after every event so a killed run still leaves a readable prefix.  Events are
schema-versioned and carry a monotonically-assigned run ID plus a per-run
sequence number, so multiple runs can share one log file and still be teased
apart afterwards.

The event vocabulary is the :data:`EVENTS` table: one row per event type
with its named fields, their checks, any cross-field invariant, the report
incident it feeds, and a one-line description.  :data:`EVENT_TYPES`, the
``RunLogger`` event methods, the per-field checks of
:func:`validate_run_log` and the incident counts of ``repro report`` are all
derived from it.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from inspect import Parameter, Signature
from pathlib import Path
from typing import (IO, Any, Callable, Dict, List, NamedTuple, Optional,
                    Tuple, Union)

from ..errors import TelemetryError

#: bump when the event record layout changes incompatibly
SCHEMA_VERSION = 1

#: decisions a canary_verdict event may record
CANARY_VERDICTS = ("promote", "rollback")

#: terminal states a trial_end event may record
TRIAL_STATUSES = ("completed", "failed", "interrupted")

#: circuit-breaker states and the transitions a valid serve log may record
BREAKER_STATES = ("closed", "open", "half_open")
BREAKER_TRANSITIONS = (
    ("closed", "open"),
    ("open", "half_open"),
    ("half_open", "closed"),
    ("half_open", "open"),
)


class Check(NamedTuple):
    """A per-field rule: a value that ``accepts`` rejects fails validation.

    ``problem`` completes the message ``"<event> <index> ..."`` and is
    formatted with the field's ``label`` and the offending ``value``.
    """

    accepts: Callable[[Any], bool]
    problem: str


def _int_from(low: int) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, int) and value >= low


INTEGER = Check(lambda value: isinstance(value, int),
                "has bad {label} {value!r}")
NON_NEGATIVE = Check(_int_from(0), "has bad {label} {value!r}")
COUNT = Check(_int_from(0), "has bad {label} count {value!r}")
POSITIVE = Check(_int_from(1), "has bad {label} {value!r}")
PRESENT = Check(bool, "is missing a {label}")


def one_of(choices: Tuple[str, ...]) -> Check:
    return Check(choices.__contains__,
                 "has bad {label} {value!r}; expected one of " + str(choices))


class Field(NamedTuple):
    """One named field of an event, in ``RunLogger`` argument order."""

    name: str
    check: Optional[Check] = None
    default: Any = Parameter.empty   # empty: the argument is required
    keyword_only: bool = False
    label: str = ""                  # noun for messages; default name


class EventSpec(NamedTuple):
    """One row of the event vocabulary."""

    doc: str
    fields: Tuple[Field, ...] = ()
    #: cross-field rule: (holds(record), problem formatted with the record)
    invariant: Optional[Tuple[Callable[[dict], bool], str]] = None
    #: report incident this event feeds; it adds 1, or the ``adds`` field
    incident: str = ""
    adds: str = ""
    #: name of the ``RunLogger`` method's ``**kwargs``
    rest: str = "fields"


_DIGEST = Field("digest", PRESENT, label="trial digest")

#: the event vocabulary, in canonical order
EVENTS: Dict[str, EventSpec] = {
    "run_start": EventSpec(
        "First event of a run; carries the command/config fingerprint."),
    "epoch_end": EventSpec(
        "One per training epoch: losses and wall-clock seconds.",
        (Field("epoch", INTEGER),
         Field("seconds", default=None, keyword_only=True)),
        rest="losses"),
    "checkpoint": EventSpec(
        "A training checkpoint was written (phase, epoch, path, loss)."),
    "rollback": EventSpec(
        "Recovery rolled a training phase back to a last-good epoch, or "
        "serving rolled a canary back (phase 'serving').",
        incident="rollbacks"),
    "stage_end": EventSpec(
        "One per completed pipeline stage/phase span.",
        (Field("stage"), Field("seconds"))),
    "eval_end": EventSpec(
        "Evaluation summary (a machine-readable Table 3 row)."),
    "admission": EventSpec(
        "Serve-phase batch admission (admitted/rejected/sanitized counts).",
        (Field("admitted", COUNT), Field("rejected", COUNT)),
        incident="rejected_inputs", adds="rejected"),
    "fallback": EventSpec(
        "One served clip degraded to the physics simulator, and why.",
        (Field("clip", INTEGER), Field("cause", PRESENT)),
        incident="fallbacks"),
    "breaker": EventSpec(
        "The serving circuit breaker changed state.",
        (Field("from_state"), Field("to_state")),
        incident="breaker_transitions"),
    "queue_full": EventSpec(
        "The serving work queue refused a push.",
        (Field("depth", NON_NEGATIVE), Field("capacity", NON_NEGATIVE)),
        invariant=(lambda record: record["depth"] >= record["capacity"],
                   "records depth {depth} below capacity {capacity} — the "
                   "queue was not full")),
    "shed": EventSpec(
        "A serving-loop request was refused or evicted.",
        (Field("request", INTEGER), Field("tenant", PRESENT),
         Field("reason", PRESENT)),
        incident="requests_shed"),
    "model_swap": EventSpec(
        "The serving model slot changed at a batch boundary "
        "(swap/promote/rollback/canary/shadow).",
        (Field("model", PRESENT), Field("version"), Field("previous"),
         Field("reason", PRESENT))),
    "canary_verdict": EventSpec(
        "A canary/shadow rollout decided, with both slots' bad rates.",
        (Field("model", PRESENT), Field("verdict", one_of(CANARY_VERDICTS)))),
    "data_quarantine": EventSpec(
        "A dataset integrity pass finished (reason tags, missing manifest).",
        (Field("quarantined", COUNT), Field("total", COUNT)),
        invariant=(lambda record: record["quarantined"] <= record["total"],
                   "quarantines {quarantined} of only {total} records"),
        incident="records_quarantined", adds="quarantined"),
    "data_repair": EventSpec(
        "Quarantined records were re-synthesized and hash-verified.",
        (Field("repaired", COUNT),),
        incident="records_repaired", adds="repaired"),
    "worker_crash": EventSpec(
        "A parallel fan-out worker died or timed out (task, detail).",
        (Field("shard", NON_NEGATIVE),),
        incident="worker_crashes"),
    "trial_start": EventSpec(
        "A sweep trial attempt began (attempt is 1-based).",
        (_DIGEST, Field("attempt", POSITIVE))),
    "trial_retry": EventSpec(
        "A failed sweep trial attempt is retried after a backoff delay.",
        (_DIGEST, Field("attempt", POSITIVE), Field("reason", PRESENT))),
    "trial_end": EventSpec(
        "A sweep trial reached a terminal state, with its attempt count.",
        (_DIGEST, Field("status", one_of(TRIAL_STATUSES)))),
    "ilt_start": EventSpec(
        "An inverse-lithography run began (clips, gradient steps per clip).",
        (Field("clips", POSITIVE), Field("steps", POSITIVE))),
    "ilt_step": EventSpec(
        "One ILT gradient step and its proxy loss.",
        (Field("step", NON_NEGATIVE),)),
    "ilt_end": EventSpec(
        "An ILT run finished: simulator verifications and mean EPEs.",
        (Field("verified", COUNT),)),
    "run_end": EventSpec(
        "Last event; carries status and total seconds.",
        (Field("status", default="ok"),)),
}

#: event types a well-formed run log may contain
EVENT_TYPES = tuple(EVENTS)

#: process-wide monotonic run-ID source
_RUN_COUNTER = itertools.count(1)


def next_run_id() -> str:
    """A monotonically increasing run identifier.

    The counter gives ordering within a process; the PID salt keeps IDs
    from colliding when several processes append to one shared log file.
    """
    return f"run-{os.getpid()}-{next(_RUN_COUNTER):04d}"


class RunLogger:
    """Incremental JSONL event writer for one run.

    Opens the file in append mode and flushes every record, so concurrent
    tails and post-crash reads both see a valid prefix of the stream.
    Safe to share between threads: ``seq`` assignment, the write and the
    flush happen under one lock.  Usable as a context manager; closing does
    *not* implicitly emit ``run_end`` — a missing terminal event is the
    signature of a killed run.  Each event type in :data:`EVENTS` has a
    method of the same name that takes its fields.
    """

    def __init__(self, path: Union[str, Path],
                 run_id: Optional[str] = None) -> None:
        self.path = Path(path)
        self.run_id = run_id if run_id is not None else next_run_id()
        self._seq = 0
        self._lock = threading.Lock()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle: Optional[IO[str]] = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            raise TelemetryError(
                f"cannot open run log {self.path}: {exc}"
            ) from exc
        self._handle = handle

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event record and flush; returns the record."""
        with self._lock:
            if self._handle is None:
                raise TelemetryError(
                    f"RunLogger for {self.path} is closed (run {self.run_id})"
                )
            if event not in EVENT_TYPES:
                raise TelemetryError(
                    f"unknown event type {event!r}; "
                    f"expected one of {EVENT_TYPES}"
                )
            record: Dict[str, Any] = {
                "schema_version": SCHEMA_VERSION,
                "run_id": self.run_id,
                "seq": self._seq,
                "time_unix": time.time(),
                "event": event,
            }
            record.update(fields)
            self._handle.write(json.dumps(record, sort_keys=False) + "\n")
            self._handle.flush()
            self._seq += 1
        return record

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None

    def __enter__(self) -> "RunLogger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _event_method(event: str, spec: EventSpec) -> Callable[..., Dict]:
    """The ``RunLogger`` method that emits ``event`` with its named fields
    first, in argument order, then any extra keyword fields."""
    signature = Signature(
        [Parameter("self", Parameter.POSITIONAL_OR_KEYWORD)]
        + [Parameter(field.name,
                     Parameter.KEYWORD_ONLY if field.keyword_only
                     else Parameter.POSITIONAL_OR_KEYWORD,
                     default=field.default)
           for field in spec.fields]
        + [Parameter(spec.rest, Parameter.VAR_KEYWORD)]
    )

    def method(self: RunLogger, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        fields = bound.arguments
        del fields["self"]
        extra = fields.pop(spec.rest)
        return self.emit(event, **fields, **extra)

    method.__name__ = event
    method.__qualname__ = f"RunLogger.{event}"
    method.__doc__ = spec.doc
    method.__signature__ = signature  # type: ignore[attr-defined]
    return method


for _event, _spec in EVENTS.items():
    setattr(RunLogger, _event, _event_method(_event, _spec))


def read_run_log(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL run log, tolerating a truncated final line.

    A run killed mid-write leaves at most one torn record at the end of the
    file; that trailing garbage is dropped, but corruption anywhere *else*
    raises :class:`TelemetryError` (it means something other than a crash
    mangled the log).
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    events: List[Dict[str, Any]] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # torn final write from a killed run
            raise TelemetryError(
                f"corrupt run log {path}: undecodable line {index + 1}"
            )
        if not isinstance(record, dict):
            raise TelemetryError(
                f"corrupt run log {path}: line {index + 1} is not an object"
            )
        events.append(record)
    return events


def split_runs(events: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    """Group a (possibly multi-run) event stream into per-run event lists.

    A new run begins at every ``run_start``; events before the first
    ``run_start`` (the tail of a previously truncated run) form their own
    leading group.
    """
    runs: List[List[Dict[str, Any]]] = []
    for record in events:
        if record.get("event") == "run_start" or not runs:
            runs.append([])
        runs[-1].append(record)
    return runs


def _check_fields(index: int, record: Dict[str, Any]) -> None:
    """Apply the :data:`EVENTS` field checks and invariant to one record."""
    event = record["event"]
    spec = EVENTS[event]
    for field in spec.fields:
        value = record.get(field.name)
        if field.check is not None and not field.check.accepts(value):
            raise TelemetryError(f"{event} {index} " + field.check.problem
                                 .format(label=field.label or field.name,
                                         value=value))
    if spec.invariant is not None:
        holds, problem = spec.invariant
        if not holds(record):
            raise TelemetryError(
                f"{event} {index} " + problem.format_map(record))


def validate_run_log(events: List[Dict[str, Any]],
                     require_run_end: bool = True) -> None:
    """Check that an event list is a well-formed single-run stream.

    Verifies: non-empty, consistent schema version and run ID, strictly
    increasing ``seq``, ``run_start`` first, every record's fields against
    its :data:`EVENTS` row, strictly increasing epochs per phase (except
    across a ``rollback`` event, which legitimately rewinds its phase's
    epoch counter), ``breaker`` transitions that follow the
    closed/open/half-open state machine from an initially closed breaker,
    and (unless ``require_run_end=False``, for crash-truncated logs) a
    terminal ``run_end``.  Raises :class:`TelemetryError` on the first
    violation.
    """
    if not events:
        raise TelemetryError("run log contains no events")
    first = events[0]
    if first.get("event") != "run_start":
        raise TelemetryError(
            f"run log must open with run_start, got {first.get('event')!r}"
        )
    run_id = first.get("run_id")
    last_seq = -1
    last_epoch: Dict[str, int] = {}
    breaker_state = "closed"  # a serve run always starts with a closed breaker
    for index, record in enumerate(events):
        for key in ("schema_version", "run_id", "seq", "event", "time_unix"):
            if key not in record:
                raise TelemetryError(f"event {index} missing {key!r}: {record}")
        if record["schema_version"] != SCHEMA_VERSION:
            raise TelemetryError(
                f"event {index} has schema_version {record['schema_version']}, "
                f"expected {SCHEMA_VERSION}"
            )
        if record["run_id"] != run_id:
            raise TelemetryError(
                f"event {index} belongs to run {record['run_id']!r}, "
                f"expected {run_id!r}"
            )
        if record["event"] not in EVENT_TYPES:
            raise TelemetryError(
                f"event {index} has unknown type {record['event']!r}"
            )
        if record["seq"] <= last_seq:
            raise TelemetryError(
                f"event {index} seq {record['seq']} not after {last_seq}"
            )
        last_seq = record["seq"]
        _check_fields(index, record)
        if record["event"] == "epoch_end":
            phase = str(record.get("phase", ""))
            epoch = record["epoch"]
            if epoch <= last_epoch.get(phase, 0):
                raise TelemetryError(
                    f"epoch_end {index} epoch {epoch} does not increase "
                    f"within phase {phase!r}"
                )
            last_epoch[phase] = epoch
        if record["event"] == "rollback":
            # Recovery rewound this phase; later epoch_end events may repeat
            # epochs after the restored one.
            phase = str(record.get("phase", ""))
            restored = record.get("epoch", 0)
            last_epoch[phase] = restored if isinstance(restored, int) else 0
        if record["event"] == "breaker":
            source = record.get("from_state")
            target = record.get("to_state")
            if (source, target) not in BREAKER_TRANSITIONS:
                raise TelemetryError(
                    f"breaker {index} records illegal transition "
                    f"{source!r} -> {target!r}"
                )
            if source != breaker_state:
                raise TelemetryError(
                    f"breaker {index} transitions from {source!r} but the "
                    f"breaker was {breaker_state!r}"
                )
            breaker_state = target
        if record["event"] == "run_end" and index != len(events) - 1:
            raise TelemetryError("run_end must be the final event")
    if require_run_end and events[-1]["event"] != "run_end":
        raise TelemetryError(
            f"run log ends with {events[-1]['event']!r}, expected run_end "
            "(pass require_run_end=False for crash-truncated logs)"
        )
