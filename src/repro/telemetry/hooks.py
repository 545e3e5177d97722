"""Training/simulation callback protocol.

:class:`TelemetryHook` is the null object: every method is a no-op, so hot
loops can call ``hook.on_epoch_end(...)`` unconditionally once a hook is
attached, while code paths with *no* hook attached (``hook=None``, the
default everywhere) skip even the call — telemetry is zero-cost when off.

:class:`RunLoggerHook` is the standard bridge: it forwards callbacks into a
:class:`~repro.telemetry.events.RunLogger` (JSONL events) and a
:class:`~repro.telemetry.metrics.MetricsRegistry` (latency histograms and
epoch counters).  :class:`CompositeHook` fans one callback stream out to
several hooks.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, Optional

from .events import RunLogger
from .metrics import MetricsRegistry


class TelemetryHook:
    """Base hook: all callbacks are no-ops.  Subclass what you need.

    Callbacks may arrive from any thread, concurrently.  Under
    ``InferenceServer`` the submitting thread reports sheds and queue
    depth, the batcher thread reports swaps, verdicts, rollbacks and served
    clips, and the watchdog thread reports the sheds of a wedge.  A hook
    that keeps state must guard it; :class:`RunLogger` serializes its own
    writes, so a shared run log stays well-formed.
    """

    def on_run_start(self, **fields: Any) -> None:
        """A run (training job, CLI invocation) began."""

    def on_epoch_end(self, epoch: int, d_loss: float, g_loss: float,
                     l1: float, seconds: float) -> None:
        """One CGAN training epoch finished (losses are epoch means)."""

    def on_aux_epoch_end(self, epoch: int, loss: float, seconds: float,
                         phase: str = "regression") -> None:
        """One supervised-regression epoch finished (center/threshold CNN)."""

    def on_checkpoint(self, phase: str, epoch: int, path: str,
                      loss: Optional[float] = None) -> None:
        """A training checkpoint was written to ``path``."""

    def on_rollback(self, phase: str, epoch: int, failed_epoch: int,
                    retries: int, learning_rate: float,
                    reason: str) -> None:
        """Divergence recovery rolled state back to ``epoch``."""

    def on_phase_end(self, phase: str, seconds: float) -> None:
        """A named training/simulation phase span finished."""

    def on_stage_end(self, stage: str, seconds: float) -> None:
        """A pipeline stage (rasterize/optical/resist/contour) finished."""

    def on_eval_end(self, **fields: Any) -> None:
        """An evaluation pass produced its summary metrics."""

    def on_admission(self, admitted: int, rejected: int,
                     sanitized: int = 0) -> None:
        """A serving batch finished input admission."""

    def on_clip_served(self, clip: int, provenance: str, verdict: str,
                       seconds: float) -> None:
        """One serving clip was answered (model or fallback path)."""

    def on_fallback(self, clip: int, cause: str) -> None:
        """A served clip degraded to the physics-simulator fallback."""

    def on_breaker(self, from_state: str, to_state: str,
                   reason: str = "") -> None:
        """The serving circuit breaker changed state."""

    def on_queue_full(self, depth: int, capacity: int) -> None:
        """The serving work queue refused a push because it was full."""

    def on_shed(self, request: int, tenant: str, reason: str) -> None:
        """A serving-loop request was shed (quota, eviction, or shutdown)."""

    def on_queue_depth(self, depth: int) -> None:
        """The serving-loop queue depth changed (sampled, post-transition)."""

    def on_model_swap(self, model: str, version: str, previous: str,
                      reason: str) -> None:
        """The serving model slot changed at a batch boundary."""

    def on_canary_verdict(self, model: str, verdict: str,
                          candidate_rate: float, incumbent_rate: float,
                          samples: int) -> None:
        """A canary rollout reached a promote/rollback decision."""

    def on_serve_rollback(self, model: str, from_version: str,
                          to_version: str, candidate_rate: float,
                          incumbent_rate: float,
                          reason: str = "canary_regression") -> None:
        """A canary candidate was automatically rolled back."""

    def on_data_quarantine(self, quarantined: int, total: int,
                           reasons: Optional[dict] = None,
                           manifest_missing: bool = False) -> None:
        """A dataset integrity pass quarantined ``quarantined`` records."""

    def on_data_repair(self, repaired: int,
                       indices: tuple = ()) -> None:
        """Quarantined records were re-synthesized and hash-verified."""

    def on_worker_crash(self, shard: int, task: str = "",
                        detail: str = "") -> None:
        """A parallel fan-out worker died, timed out, or raised."""

    def on_trial_start(self, digest: str, trial: str,
                       attempt: int) -> None:
        """A sweep trial attempt began (``attempt`` is 1-based)."""

    def on_trial_retry(self, digest: str, trial: str, attempt: int,
                       reason: str, delay_s: float) -> None:
        """A failed sweep trial attempt is being retried after backoff."""

    def on_trial_end(self, digest: str, trial: str, status: str,
                     attempts: int, reason: str = "",
                     seconds: float = 0.0) -> None:
        """A sweep trial reached a terminal state."""

    def on_run_end(self, status: str = "ok", **fields: Any) -> None:
        """The run finished (or failed, per ``status``)."""


#: shared stateless null hook, for callers that want a non-None default
NULL_HOOK = TelemetryHook()


class CompositeHook(TelemetryHook):
    """Fans every callback out to each child hook, in order.

    One forwarder per :class:`TelemetryHook` ``on_*`` callback is derived
    below; each passes its positional and keyword arguments through
    unchanged.
    """

    def __init__(self, hooks: Iterable[TelemetryHook]) -> None:
        self.hooks = tuple(hooks)


def _fan_out(callback: Callable[..., None]) -> Callable[..., None]:
    name = callback.__name__

    def forward(self: CompositeHook, *args: Any, **kwargs: Any) -> None:
        for hook in self.hooks:
            getattr(hook, name)(*args, **kwargs)

    functools.update_wrapper(forward, callback)
    forward.__qualname__ = f"CompositeHook.{name}"
    return forward


for _name, _callback in vars(TelemetryHook).items():
    if _name.startswith("on_"):
        setattr(CompositeHook, _name, _fan_out(_callback))


class RunLoggerHook(TelemetryHook):
    """Bridges hook callbacks into a run log and/or a metrics registry."""

    def __init__(self, logger: Optional[RunLogger] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.logger = logger
        self.registry = registry

    def on_run_start(self, **fields: Any) -> None:
        if self.logger is not None:
            self.logger.run_start(**fields)

    def _epoch_end(self, epoch: int, seconds: float, phase: str,
                   **losses: float) -> None:
        if self.logger is not None:
            self.logger.epoch_end(epoch, seconds=seconds, phase=phase,
                                  **losses)
        if self.registry is not None:
            labels = {"phase": phase}
            self.registry.histogram(
                "train_epoch_seconds", labels=labels).observe(seconds)
            self.registry.counter(
                "train_epochs_total", labels=labels).inc()

    def on_epoch_end(self, epoch: int, d_loss: float, g_loss: float,
                     l1: float, seconds: float) -> None:
        self._epoch_end(epoch, seconds, "cgan",
                        d_loss=d_loss, g_loss=g_loss, l1=l1)

    def on_aux_epoch_end(self, epoch: int, loss: float, seconds: float,
                         phase: str = "regression") -> None:
        self._epoch_end(epoch, seconds, phase, loss=loss)

    def on_checkpoint(self, phase: str, epoch: int, path: str,
                      loss: Optional[float] = None) -> None:
        if self.logger is not None:
            self.logger.checkpoint(
                phase=phase, epoch=epoch, path=path, loss=loss,
            )
        if self.registry is not None:
            self.registry.counter(
                "checkpoints_total", labels={"phase": phase}).inc()

    def on_rollback(self, phase: str, epoch: int, failed_epoch: int,
                    retries: int, learning_rate: float,
                    reason: str) -> None:
        if self.logger is not None:
            self.logger.rollback(
                phase=phase, epoch=epoch, failed_epoch=failed_epoch,
                retries=retries, learning_rate=learning_rate, reason=reason,
            )
        if self.registry is not None:
            self.registry.counter(
                "rollbacks_total", labels={"phase": phase}).inc()

    def on_phase_end(self, phase: str, seconds: float) -> None:
        if self.logger is not None:
            self.logger.stage_end(phase, seconds, kind="phase")
        if self.registry is not None:
            self.registry.histogram(
                "stage_seconds", labels={"stage": phase}).observe(seconds)

    def on_stage_end(self, stage: str, seconds: float) -> None:
        if self.logger is not None:
            self.logger.stage_end(stage, seconds)
        if self.registry is not None:
            self.registry.histogram(
                "stage_seconds", labels={"stage": stage}).observe(seconds)

    def on_eval_end(self, **fields: Any) -> None:
        if self.logger is not None:
            self.logger.eval_end(**fields)
        if self.registry is not None:
            self.registry.counter("evals_total").inc()

    def on_admission(self, admitted: int, rejected: int,
                     sanitized: int = 0) -> None:
        if self.logger is not None:
            self.logger.admission(admitted, rejected, sanitized=sanitized)
        if self.registry is not None:
            self.registry.counter("serve_admitted_total").inc(admitted)
            self.registry.counter("serve_rejected_total").inc(rejected)

    def on_clip_served(self, clip: int, provenance: str, verdict: str,
                       seconds: float) -> None:
        if self.registry is not None:
            labels = {"provenance": provenance}
            self.registry.counter("serve_clips_total", labels=labels).inc()
            self.registry.histogram("serve_clip_seconds").observe(seconds)

    def on_fallback(self, clip: int, cause: str) -> None:
        if self.logger is not None:
            self.logger.fallback(clip, cause)
        if self.registry is not None:
            self.registry.counter(
                "serve_fallbacks_total", labels={"cause": cause}).inc()

    def on_data_quarantine(self, quarantined: int, total: int,
                           reasons: Optional[dict] = None,
                           manifest_missing: bool = False) -> None:
        if self.logger is not None:
            self.logger.data_quarantine(
                quarantined, total, reasons=reasons or {},
                manifest_missing=manifest_missing,
            )
        if self.registry is not None:
            self.registry.counter(
                "data_records_quarantined_total").inc(quarantined)
            self.registry.counter("data_validations_total").inc()

    def on_data_repair(self, repaired: int,
                       indices: tuple = ()) -> None:
        if self.logger is not None:
            self.logger.data_repair(repaired, indices=list(indices))
        if self.registry is not None:
            self.registry.counter(
                "data_records_repaired_total").inc(repaired)

    def on_worker_crash(self, shard: int, task: str = "",
                        detail: str = "") -> None:
        if self.logger is not None:
            self.logger.worker_crash(shard, task=task, detail=detail)
        if self.registry is not None:
            self.registry.counter(
                "parallel_worker_failures_total",
                labels={"task": task}).inc()

    def on_trial_start(self, digest: str, trial: str,
                       attempt: int) -> None:
        if self.logger is not None:
            self.logger.trial_start(digest, attempt, trial=trial)

    def on_trial_retry(self, digest: str, trial: str, attempt: int,
                       reason: str, delay_s: float) -> None:
        if self.logger is not None:
            self.logger.trial_retry(
                digest, attempt, reason, trial=trial, delay_s=delay_s,
            )
        if self.registry is not None:
            self.registry.counter(
                "sweep_trials_retried_total",
                labels={"reason": reason}).inc()

    def on_trial_end(self, digest: str, trial: str, status: str,
                     attempts: int, reason: str = "",
                     seconds: float = 0.0) -> None:
        if self.logger is not None:
            self.logger.trial_end(
                digest, status, trial=trial, attempts=attempts,
                reason=reason, seconds=seconds,
            )
        if self.registry is not None:
            if status == "completed":
                self.registry.counter("sweep_trials_completed_total").inc()
            elif status == "failed":
                self.registry.counter("sweep_trials_failed_total").inc()

    def on_breaker(self, from_state: str, to_state: str,
                   reason: str = "") -> None:
        if self.logger is not None:
            self.logger.breaker(from_state, to_state, reason=reason)
        if self.registry is not None:
            state_code = {"closed": 0, "half_open": 1, "open": 2}
            self.registry.gauge("serve_breaker_state").set(
                state_code.get(to_state, -1)
            )
            self.registry.counter(
                "serve_breaker_transitions_total",
                labels={"to_state": to_state}).inc()

    def on_queue_full(self, depth: int, capacity: int) -> None:
        if self.logger is not None:
            self.logger.queue_full(depth, capacity)
        if self.registry is not None:
            self.registry.counter("serve_queue_full_total").inc()

    def on_shed(self, request: int, tenant: str, reason: str) -> None:
        if self.logger is not None:
            self.logger.shed(request, tenant, reason)
        if self.registry is not None:
            self.registry.counter(
                "serve_shed_total", labels={"tenant": tenant}).inc()

    def on_queue_depth(self, depth: int) -> None:
        if self.registry is not None:
            self.registry.gauge("serve_queue_depth").set(depth)

    def on_model_swap(self, model: str, version: str, previous: str,
                      reason: str) -> None:
        if self.logger is not None:
            self.logger.model_swap(model, version, previous, reason)
        if self.registry is not None:
            self.registry.counter(
                "serve_model_swaps_total", labels={"model": model}).inc()
            try:
                self.registry.gauge(
                    "serve_active_version", labels={"model": model}
                ).set(int(version))
            except (TypeError, ValueError):
                pass  # unversioned (inline) models have no numeric version

    def on_canary_verdict(self, model: str, verdict: str,
                          candidate_rate: float, incumbent_rate: float,
                          samples: int) -> None:
        if self.logger is not None:
            self.logger.canary_verdict(
                model, verdict, candidate_rate=candidate_rate,
                incumbent_rate=incumbent_rate, samples=samples,
            )
        if self.registry is not None:
            self.registry.counter(
                "serve_canary_verdicts_total",
                labels={"verdict": verdict}).inc()

    def on_serve_rollback(self, model: str, from_version: str,
                          to_version: str, candidate_rate: float,
                          incumbent_rate: float,
                          reason: str = "canary_regression") -> None:
        if self.logger is not None:
            self.logger.rollback(
                phase="serving", model=model, from_version=from_version,
                to_version=to_version, candidate_rate=candidate_rate,
                incumbent_rate=incumbent_rate, reason=reason,
            )
        if self.registry is not None:
            self.registry.counter(
                "serve_rollbacks_total", labels={"model": model}).inc()

    def on_run_end(self, status: str = "ok", **fields: Any) -> None:
        if self.logger is not None:
            self.logger.run_end(status=status, **fields)
