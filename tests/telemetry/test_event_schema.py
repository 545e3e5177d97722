"""The run-log event vocabulary, pinned event by event.

Every event type is exercised through its ``RunLogger`` method: the exact
record it writes (keys in order), its method signature, that a minimal
record validates, and that every per-field violation is rejected with a
message naming the event, its index and the field.  ``CompositeHook`` is
checked callback by callback, and ``RunLogger`` under concurrent emitters.
"""

import inspect
import sys
import threading

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    BREAKER_TRANSITIONS,
    CANARY_VERDICTS,
    EVENT_TYPES,
    SCHEMA_VERSION,
    TRIAL_STATUSES,
    CompositeHook,
    RunLogger,
    RunLoggerHook,
    TelemetryHook,
    build_report,
    read_run_log,
    validate_run_log,
)

#: event -> (method signature, sample args, sample kwargs, fields written)
SAMPLES = {
    "run_start": (
        "(**fields)", (), {"command": "train", "node": "N10"},
        {"command": "train", "node": "N10"}),
    "epoch_end": (
        "(epoch, *, seconds=None, **losses)",
        (2,), {"d_loss": 1.0, "seconds": 0.5, "phase": "cgan"},
        {"epoch": 2, "seconds": 0.5, "d_loss": 1.0, "phase": "cgan"}),
    "checkpoint": (
        "(**fields)", (), {"phase": "cgan", "epoch": 1, "path": "c.npz",
                           "loss": None},
        {"phase": "cgan", "epoch": 1, "path": "c.npz", "loss": None}),
    "rollback": (
        "(**fields)", (), {"phase": "cgan", "epoch": 1, "failed_epoch": 2,
                           "retries": 1, "reason": "nan"},
        {"phase": "cgan", "epoch": 1, "failed_epoch": 2, "retries": 1,
         "reason": "nan"}),
    "stage_end": (
        "(stage, seconds, **fields)", ("optical", 0.5), {"kind": "phase"},
        {"stage": "optical", "seconds": 0.5, "kind": "phase"}),
    "eval_end": (
        "(**fields)", (), {"ede_mean_nm": 1.5},
        {"ede_mean_nm": 1.5}),
    "admission": (
        "(admitted, rejected, **fields)", (3, 1), {"sanitized": 2},
        {"admitted": 3, "rejected": 1, "sanitized": 2}),
    "fallback": (
        "(clip, cause, **fields)", (4, "guard"), {},
        {"clip": 4, "cause": "guard"}),
    "breaker": (
        "(from_state, to_state, **fields)", ("closed", "open"),
        {"reason": "trip"},
        {"from_state": "closed", "to_state": "open", "reason": "trip"}),
    "queue_full": (
        "(depth, capacity, **fields)", (8, 8), {},
        {"depth": 8, "capacity": 8}),
    "shed": (
        "(request, tenant, reason, **fields)", (7, "opc", "quota"), {},
        {"request": 7, "tenant": "opc", "reason": "quota"}),
    "model_swap": (
        "(model, version, previous, reason, **fields)",
        ("litho", "2", "1", "swap"), {},
        {"model": "litho", "version": "2", "previous": "1",
         "reason": "swap"}),
    "canary_verdict": (
        "(model, verdict, **fields)", ("litho", "promote"),
        {"candidate_rate": 0.1, "samples": 16},
        {"model": "litho", "verdict": "promote", "candidate_rate": 0.1,
         "samples": 16}),
    "data_quarantine": (
        "(quarantined, total, **fields)", (2, 12),
        {"reasons": {"hash": 2}, "manifest_missing": False},
        {"quarantined": 2, "total": 12, "reasons": {"hash": 2},
         "manifest_missing": False}),
    "data_repair": (
        "(repaired, **fields)", (2,), {"indices": [1, 4]},
        {"repaired": 2, "indices": [1, 4]}),
    "worker_crash": (
        "(shard, **fields)", (1,), {"task": "mint", "detail": "boom"},
        {"shard": 1, "task": "mint", "detail": "boom"}),
    "trial_start": (
        "(digest, attempt, **fields)", ("d1", 1), {"trial": "t0"},
        {"digest": "d1", "attempt": 1, "trial": "t0"}),
    "trial_retry": (
        "(digest, attempt, reason, **fields)", ("d1", 1, "diverged"),
        {"trial": "t0", "delay_s": 0.5},
        {"digest": "d1", "attempt": 1, "reason": "diverged", "trial": "t0",
         "delay_s": 0.5}),
    "trial_end": (
        "(digest, status, **fields)", ("d1", "completed"),
        {"trial": "t0", "attempts": 1},
        {"digest": "d1", "status": "completed", "trial": "t0",
         "attempts": 1}),
    "ilt_start": (
        "(clips, steps, **fields)", (2, 5), {},
        {"clips": 2, "steps": 5}),
    "ilt_step": (
        "(step, **fields)", (0,), {"loss": 0.3},
        {"step": 0, "loss": 0.3}),
    "ilt_end": (
        "(verified, **fields)", (4,), {"epe_ilt_nm": 1.25, "improved": True},
        {"verified": 4, "epe_ilt_nm": 1.25, "improved": True}),
    "run_end": (
        "(status='ok', **fields)", (), {"seconds": 2.0},
        {"status": "ok", "seconds": 2.0}),
}

#: absent from the record entirely
MISSING = object()

#: (event, field, bad value) — every per-field rule the validator enforces
FIELD_VIOLATIONS = [
    ("epoch_end", "epoch", "2"),
    ("epoch_end", "epoch", MISSING),
    *[("admission", key, value)
      for key in ("admitted", "rejected") for value in (-1, "3", MISSING)],
    *[("data_quarantine", key, value)
      for key in ("quarantined", "total") for value in (-1, "a", MISSING)],
    ("data_repair", "repaired", -1),
    ("data_repair", "repaired", "three"),
    ("data_repair", "repaired", MISSING),
    ("worker_crash", "shard", -1),
    ("worker_crash", "shard", MISSING),
    *[(event, "digest", value)
      for event in ("trial_start", "trial_retry", "trial_end")
      for value in ("", MISSING)],
    *[(event, "attempt", value)
      for event in ("trial_start", "trial_retry")
      for value in (0, "1", MISSING)],
    ("trial_retry", "reason", ""),
    ("trial_retry", "reason", MISSING),
    ("trial_end", "status", "retrying"),
    ("trial_end", "status", MISSING),
    *[("ilt_start", key, value)
      for key in ("clips", "steps") for value in (0, "1", MISSING)],
    ("ilt_step", "step", -1),
    ("ilt_step", "step", MISSING),
    ("ilt_end", "verified", -1),
    ("ilt_end", "verified", MISSING),
    ("fallback", "clip", "4"),
    ("fallback", "clip", MISSING),
    ("fallback", "cause", ""),
    ("fallback", "cause", MISSING),
    *[("queue_full", key, value)
      for key in ("depth", "capacity") for value in (-1, "8", MISSING)],
    ("shed", "request", "7"),
    ("shed", "request", MISSING),
    ("shed", "tenant", ""),
    ("shed", "tenant", MISSING),
    ("shed", "reason", ""),
    ("shed", "reason", MISSING),
    ("model_swap", "model", ""),
    ("model_swap", "model", MISSING),
    ("model_swap", "reason", ""),
    ("model_swap", "reason", MISSING),
    ("canary_verdict", "model", ""),
    ("canary_verdict", "model", MISSING),
    ("canary_verdict", "verdict", "maybe"),
    ("canary_verdict", "verdict", MISSING),
]

#: (event, field overrides, message fragment) — cross-field invariants
INVARIANT_VIOLATIONS = [
    ("data_quarantine", {"quarantined": 13, "total": 12},
     "quarantines 13 of only 12 records"),
    ("queue_full", {"depth": 3, "capacity": 8},
     "records depth 3 below capacity 8"),
]

#: callback -> (sample args, sample kwargs), in the canonical call form
HOOK_CALLS = {
    "on_run_start": ((), {"command": "train"}),
    "on_epoch_end": ((1, 0.1, 0.2, 0.3, 0.4), {}),
    "on_aux_epoch_end": ((1, 0.5, 0.1), {"phase": "center-cnn"}),
    "on_checkpoint": (("cgan", 1, "c.npz"), {"loss": 0.2}),
    "on_rollback": (("cgan", 1, 2, 1, 1e-4, "nan"), {}),
    "on_phase_end": (("cgan", 1.0), {}),
    "on_stage_end": (("optical", 0.5), {}),
    "on_eval_end": ((), {"ede_mean_nm": 1.0}),
    "on_admission": ((3, 1), {"sanitized": 2}),
    "on_clip_served": ((4, "model", "ok", 0.01), {}),
    "on_fallback": ((4, "guard"), {}),
    "on_breaker": (("closed", "open"), {"reason": "trip"}),
    "on_queue_full": ((8, 8), {}),
    "on_shed": ((7, "opc", "quota"), {}),
    "on_queue_depth": ((3,), {}),
    "on_model_swap": (("litho", "2", "1", "swap"), {}),
    "on_canary_verdict": (("litho", "promote", 0.1, 0.2, 16), {}),
    "on_serve_rollback": (("litho", "2", "1", 0.5, 0.1),
                          {"reason": "canary_regression"}),
    "on_data_quarantine": ((2, 12),
                           {"reasons": {"hash": 2},
                            "manifest_missing": False}),
    "on_data_repair": ((2,), {"indices": (1, 4)}),
    "on_worker_crash": ((1,), {"task": "mint", "detail": "boom"}),
    "on_trial_start": (("d1", "t0", 1), {}),
    "on_trial_retry": (("d1", "t0", 1, "diverged", 0.5), {}),
    "on_trial_end": (("d1", "t0", "completed", 1),
                     {"reason": "", "seconds": 2.0}),
    "on_run_end": ((), {"status": "ok", "seconds": 1.0}),
}

#: index the event under test takes in :func:`_log_with`
INDEX = 2


def _plain_signature(function):
    signature = inspect.signature(function)
    return str(signature.replace(
        parameters=[p.replace(annotation=inspect.Parameter.empty)
                    for p in signature.parameters.values()],
        return_annotation=inspect.Signature.empty,
    ))


def _emit_sample(logger, event):
    _, args, kwargs, _ = SAMPLES[event]
    return getattr(logger, event)(*args, **kwargs)


def _log_with(path, event):
    """run_start, a filler stage_end, the sample event, run_end."""
    with RunLogger(path) as logger:
        if event == "run_start":
            _emit_sample(logger, event)
        else:
            logger.run_start(command="pin")
        logger.stage_end("filler", 0.0)
        if event not in ("run_start", "run_end"):
            _emit_sample(logger, event)
        if event == "run_end":
            _emit_sample(logger, event)
        else:
            logger.run_end()
    return read_run_log(path)


class TestVocabulary:
    def test_constants_are_pinned(self):
        assert EVENT_TYPES == (
            "run_start", "epoch_end", "checkpoint", "rollback", "stage_end",
            "eval_end", "admission", "fallback", "breaker", "queue_full",
            "shed", "model_swap", "canary_verdict",
            "data_quarantine", "data_repair", "worker_crash",
            "trial_start", "trial_retry", "trial_end",
            "ilt_start", "ilt_step", "ilt_end", "run_end",
        )
        assert CANARY_VERDICTS == ("promote", "rollback")
        assert TRIAL_STATUSES == ("completed", "failed", "interrupted")
        assert BREAKER_TRANSITIONS == (
            ("closed", "open"), ("open", "half_open"),
            ("half_open", "closed"), ("half_open", "open"),
        )

    def test_every_event_type_has_a_sample(self):
        assert tuple(SAMPLES) == EVENT_TYPES


@pytest.mark.parametrize("event", EVENT_TYPES)
class TestEventType:
    def test_method_signature(self, event):
        method = getattr(RunLogger, event)
        assert _plain_signature(method) == "(self, " + SAMPLES[event][0][1:]

    def test_record_keys_and_order(self, tmp_path, event):
        fields = SAMPLES[event][3]
        path = tmp_path / "run.jsonl"
        with RunLogger(path) as logger:
            returned = _emit_sample(logger, event)
        written = read_run_log(path)[0]
        expected = [("schema_version", SCHEMA_VERSION),
                    ("run_id", logger.run_id), ("seq", 0),
                    ("event", event), *fields.items()]
        for record in (returned, written):
            assert list(record) == ["schema_version", "run_id", "seq",
                                    "time_unix", "event", *fields]
            assert [(key, value) for key, value in record.items()
                    if key != "time_unix"] == expected

    def test_minimal_record_validates(self, tmp_path, event):
        validate_run_log(_log_with(tmp_path / "run.jsonl", event))


@pytest.mark.parametrize(
    "event, field, value", FIELD_VIOLATIONS,
    ids=[f"{e}-{f}-{'missing' if v is MISSING else repr(v)}"
         for e, f, v in FIELD_VIOLATIONS],
)
def test_field_violation_is_rejected(tmp_path, event, field, value):
    events = _log_with(tmp_path / "run.jsonl", event)
    assert events[INDEX]["event"] == event
    if value is MISSING:
        del events[INDEX][field]
    else:
        events[INDEX][field] = value
    with pytest.raises(TelemetryError) as raised:
        validate_run_log(events)
    message = str(raised.value)
    assert message.startswith(f"{event} {INDEX} "), message
    assert field in message, message


@pytest.mark.parametrize("event, overrides, fragment", INVARIANT_VIOLATIONS)
def test_invariant_violation_is_rejected(tmp_path, event, overrides,
                                         fragment):
    events = _log_with(tmp_path / "run.jsonl", event)
    events[INDEX].update(overrides)
    with pytest.raises(TelemetryError,
                       match=f"^{event} {INDEX} {fragment}"):
        validate_run_log(events)


class TestStatefulChecks:
    def _events(self, tmp_path, *transitions):
        with RunLogger(tmp_path / "run.jsonl") as logger:
            logger.run_start(command="serve")
            for source, target in transitions:
                logger.breaker(source, target)
            logger.run_end()
        return read_run_log(tmp_path / "run.jsonl")

    def test_breaker_cycle_validates(self, tmp_path):
        validate_run_log(self._events(
            tmp_path, ("closed", "open"), ("open", "half_open"),
            ("half_open", "open"), ("open", "half_open"),
            ("half_open", "closed")))

    def test_illegal_breaker_transition_rejected(self, tmp_path):
        events = self._events(tmp_path, ("closed", "half_open"))
        with pytest.raises(TelemetryError, match="^breaker 1 records illegal"):
            validate_run_log(events)

    def test_breaker_must_leave_its_current_state(self, tmp_path):
        events = self._events(tmp_path, ("closed", "open"),
                              ("half_open", "closed"))
        with pytest.raises(TelemetryError,
                           match="^breaker 2 transitions from 'half_open'"):
            validate_run_log(events)

    def test_rollback_rewinds_the_epoch_counter(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogger(path) as logger:
            logger.run_start(command="train")
            logger.epoch_end(1, phase="cgan")
            logger.epoch_end(2, phase="cgan")
            logger.rollback(phase="cgan", epoch=1, failed_epoch=2)
            logger.epoch_end(2, phase="cgan")
            logger.run_end()
        validate_run_log(read_run_log(path))


def test_report_counts_every_sample_event(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunLogger(path) as logger:
        for event in EVENT_TYPES:
            _emit_sample(logger, event)
    report = build_report(path).to_dict()
    assert report["incidents"] == {
        "breaker_transitions": 1, "fallbacks": 1, "records_quarantined": 2,
        "records_repaired": 2, "rejected_inputs": 1, "requests_shed": 1,
        "rollbacks": 1, "worker_crashes": 1,
    }
    assert report["serving"] == {
        "canary_verdicts": {"promote": 1, "rollback": 0},
        "rollbacks": 0, "sheds_by_tenant": {"opc": 1}, "swaps": 1,
    }
    assert report["sweep"] == {
        "completed": 1, "failed": 0, "interrupted": 0,
        "retries_by_reason": {"diverged": 1}, "trials": 1,
    }
    assert report["ilt"] == {
        "epe_ilt_nm": 1.25, "improved": 1, "runs": 1, "steps": 1,
        "verifications": 4,
    }
    assert report["stages"] == {"optical": {"count": 1, "seconds": 0.5}}
    assert report["unknown_events"] == 0
    assert report["runs"][0]["status"] == "ok"


class _Recorder(TelemetryHook):
    def __init__(self):
        self.calls = []


for _name in HOOK_CALLS:
    def _record(self, *args, _name=_name, **kwargs):
        self.calls.append((_name, args, kwargs))
    setattr(_Recorder, _name, _record)


class TestCompositeHook:
    def test_every_callback_has_a_sample(self):
        callbacks = {name for name in dir(TelemetryHook)
                     if name.startswith("on_")}
        assert callbacks == set(HOOK_CALLS)

    @pytest.mark.parametrize("callback", sorted(HOOK_CALLS))
    def test_forwards_arguments_unchanged_in_order(self, callback):
        args, kwargs = HOOK_CALLS[callback]
        first, second = _Recorder(), _Recorder()
        getattr(CompositeHook([first, second]), callback)(*args, **kwargs)
        assert first.calls == [(callback, args, kwargs)]
        assert second.calls == [(callback, args, kwargs)]

    @pytest.mark.parametrize("callback", sorted(HOOK_CALLS))
    def test_keeps_the_callback_signature(self, callback):
        assert _plain_signature(getattr(CompositeHook, callback)) \
            == _plain_signature(getattr(TelemetryHook, callback))

    @pytest.mark.parametrize("callback", sorted(HOOK_CALLS))
    def test_null_children_accept_the_call(self, callback):
        args, kwargs = HOOK_CALLS[callback]
        hook = CompositeHook([TelemetryHook(), TelemetryHook()])
        assert getattr(hook, callback)(*args, **kwargs) is None


def test_concurrent_emitters_write_a_valid_contiguous_log(tmp_path):
    """8 threads emit through one RunLoggerHook without tearing ``seq``."""
    path = tmp_path / "run.jsonl"
    threads, rounds = 8, 60
    start = threading.Barrier(threads, timeout=30)
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with RunLogger(path) as logger:
            hook = RunLoggerHook(logger=logger)
            hook.on_run_start(command="stress")

            def emit(worker):
                start.wait()
                for step in range(1, rounds + 1):
                    hook.on_aux_epoch_end(step, 0.1, 0.0,
                                          phase=f"w{worker}")
                    hook.on_shed(step, f"tenant{worker}", "quota")
                    hook.on_queue_full(4, 4)
                    hook.on_stage_end(f"w{worker}", 0.001)

            workers = [threading.Thread(target=emit, args=(worker,))
                       for worker in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
            hook.on_run_end(status="ok")
    finally:
        sys.setswitchinterval(switch_interval)
    events = read_run_log(path)
    assert len(events) == threads * rounds * 4 + 2
    assert [record["seq"] for record in events] == list(range(len(events)))
    validate_run_log(events)
