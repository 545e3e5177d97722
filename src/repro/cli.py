"""Command-line interface: ``repro-litho <command>``.

Every subcommand is a thin shell over the :mod:`repro.api` façade — the CLI
parses flags, narrates progress, and maps errors to exit codes, while all
actual work (synthesis, training, scoring, serving, sweeping) happens in
``repro.api`` so scripts and the CLI can never drift apart:

``mint``
    Synthesize a paired dataset through the rigorous pipeline and save it
    (``--workers N`` fans out deterministically; results are byte-identical
    for any worker count).
``train``
    Train LithoGAN on a saved dataset; saves model weights and the split.
``evaluate``
    Score saved LithoGAN weights on the held-out split (Table 3-style row).
``predict``
    Hardened batch inference through the serving ladder: admission, output
    guards, retries, and physics-simulator fallback (``repro.serving``).
``serve``
    The long-lived continuous-batching serving loop under a ramping
    synthetic load: per-tenant admission and fair shedding, request
    deadlines, a wedge watchdog, and drain-on-shutdown.  ``--soak`` audits
    the no-request-left-behind invariant (exit 5 on violation).
``registry``
    The versioned model registry (:mod:`repro.registry`): ``publish`` new
    manifested versions (``--inject-degenerate`` stages the drill's bad
    weights), ``list`` / ``verify`` them fail-closed, and ``promote`` /
    ``rollback`` the active pointer.
``sweep``
    Journaled multi-trial experiment sweeps (:mod:`repro.sweep`):
    ``run`` expands a parameter grid over the base config and supervises
    every trial (timeouts, typed retries, a fail-closed failure budget),
    ``status`` prints the journal's per-trial picture, and ``resume``
    replays the journal and re-runs only what never completed.
``process-window``
    Dose/defocus sweep of a synthesized clip (Bossung/DOF/latitude report).
``optimize``
    Inverse lithography (:mod:`repro.ilt`): gradient-descend the target
    mask through trained generator weights, verify candidates with the
    rigorous simulator, and report EPE vs. the unoptimized and rule-OPC
    baselines (exit 8 when nothing verifies).
``report``
    Correlate a run's event log (+ optional trace/metrics/profile artifacts)
    into one health report: per-stage time, worker utilization/skew,
    incident counts, hot layers.

Example session::

    repro-litho mint --node N10 --clips 120 --workers 4 --out n10.npz \\
        --log-json run.jsonl --trace-out trace.json --metrics-out metrics.json
    repro-litho train --dataset n10.npz --epochs 10 --out model/ \\
        --log-json run.jsonl
    repro-litho evaluate --dataset n10.npz --model model/ --log-json run.jsonl
    repro-litho predict --dataset n10.npz --model model/ --report serve.json \\
        --log-json run.jsonl --profile-out profile.json
    repro-litho report --log run.jsonl --trace trace.json \\
        --metrics metrics.json --profile profile.json

Shared flags (``--node``/``--seed``/``--log-json``/``--metrics-out``/
``--trace-out``, and ``--workers``/``--data-policy``/``--epochs``/
``--profile-out`` where they apply) live on parent parsers, so every
subcommand spells them identically.

Exit codes: 0 success, 1 pipeline error (including a crashed parallel
worker, reported as a :class:`~repro.errors.ParallelError` naming the
shard), 2 usage error, 3 missing or corrupted model weights (fail-closed),
4 dataset failed integrity validation or repair (fail-closed), 5 serve-soak
invariant violation (an unanswered request or an unfair shed spread), 6
model-registry failure (unresolvable ref, corrupt manifest, checksum
mismatch — the version is never served), 7 sweep failure (the sweep-level
failure budget was exhausted, or a journal/spec mismatch made a resume
unsafe — the journal names every failed trial), 8 inverse-lithography
failure (no candidate mask ever passed simulator verification — a
proxy-only result is never reported), 130 interrupted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import api
from .config import (
    DATA_POLICY_REPAIR,
    DATA_POLICY_SALVAGE,
    DATA_POLICY_STRICT,
    ExperimentConfig,
    N7,
    N10,
    reduced,
)
from .data import load_dataset
from .errors import (
    CheckpointError,
    DataIntegrityError,
    IltError,
    RegistryError,
    ReproError,
    SweepError,
)
from .eval import format_table3, render_table
from .layout import ArrayType
from .runtime import FaultPlan
from .telemetry import (
    LayerProfiler,
    MetricsRegistry,
    RunLogger,
    RunLoggerHook,
    Tracer,
    build_fingerprint,
    write_chrome_trace,
    write_metrics,
)


def _tech(name: str):
    return {"N10": N10, "N7": N7}[name]


def _config_for(args, num_clips: int) -> ExperimentConfig:
    config = reduced(
        _tech(args.node), num_clips=num_clips,
        epochs=getattr(args, "epochs", 10), seed=args.seed,
    )
    workers = getattr(args, "workers", None)
    if workers is not None:
        config = dataclasses.replace(
            config,
            parallel=dataclasses.replace(config.parallel, workers=workers),
        )
    return config


# ---------------------------------------------------------------------------
# Telemetry plumbing
# ---------------------------------------------------------------------------


class _RunTelemetry:
    """Per-invocation observability bundle behind the CLI telemetry flags.

    Owns the optional JSONL :class:`RunLogger` (``--log-json``), a
    :class:`MetricsRegistry` (exported by ``--metrics-out``), and a
    :class:`Tracer` for phase/stage spans.  ``finish()`` drains the tracer
    into events + metrics, writes the exports, and prints the one-line run
    summary every command ends with.
    """

    def __init__(self, command: str, args) -> None:
        self.command = command
        self.metrics_path = getattr(args, "metrics_out", None)
        self.trace_path = getattr(args, "trace_out", None)
        self.profile_path = getattr(args, "profile_out", None)
        log_path = getattr(args, "log_json", None)
        self.logger = RunLogger(log_path) if log_path else None
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.profiler = LayerProfiler() if self.profile_path else None
        self._start = time.perf_counter()
        if self.logger is not None:
            self.logger.run_start(
                command=command,
                node=getattr(args, "node", None),
                seed=getattr(args, "seed", None),
                build=build_fingerprint(),
            )

    def hook(self):
        """A training hook, or None when no telemetry sink is active."""
        if self.logger is None and self.metrics_path is None:
            return None
        return RunLoggerHook(logger=self.logger, registry=self.registry)

    @property
    def run_id(self):
        return self.logger.run_id if self.logger is not None else None

    def finish(self, status: str = "ok", **summary) -> None:
        seconds = time.perf_counter() - self._start
        self.tracer.record_into(self.registry)
        if self.logger is not None:
            for stage, total in sorted(self.tracer.totals().items()):
                self.logger.stage_end(
                    stage, total, count=self.tracer.count(stage)
                )
            self.logger.run_end(status=status, seconds=seconds, **summary)
            self.logger.close()
        if self.metrics_path:
            self.registry.gauge("run_seconds").set(seconds)
            write_metrics(self.metrics_path, self.registry)
        if self.trace_path:
            write_chrome_trace(self.trace_path, self.tracer)
        if self.profiler is not None and self.profile_path:
            self.profiler.report().save(self.profile_path)
        detail = " ".join(f"{key}={value}" for key, value in summary.items())
        run_part = f" run_id={self.run_id}" if self.run_id else ""
        print(
            f"run summary: command={self.command} seconds={seconds:.2f}"
            f"{run_part}{' ' + detail if detail else ''}"
        )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load_dataset_with_policy(args, telemetry):
    """Load ``args.dataset`` through :func:`repro.api.load_data`.

    The façade owns the validation/salvage/repair mechanics; this shell
    wires its callbacks to the CLI's prints and telemetry counters/events,
    so the observable behaviour (messages, metrics, exit codes) is exactly
    the pre-façade CLI's.
    """
    policy = getattr(args, "data_policy", None)
    if policy is None:
        return load_dataset(args.dataset)

    bridge = RunLoggerHook(logger=telemetry.logger,
                           registry=telemetry.registry)

    def on_report(report):
        bridge.on_data_quarantine(
            report.quarantined, report.num_records,
            reasons=report.counts_by_reason(),
            manifest_missing=report.manifest_missing,
        )

    def on_repair(repair_report):
        bridge.on_data_repair(len(repair_report.repaired_indices),
                              indices=repair_report.repaired_indices)

    def progress(message, warn=False):
        print(message, file=sys.stderr if warn else sys.stdout)

    return api.load_data(
        args.dataset, lambda num_records: _config_for(args, num_records),
        policy=policy, tracer=telemetry.tracer,
        on_report=on_report, on_repair=on_repair, progress=progress,
    )


def cmd_mint(args) -> int:
    telemetry = args.telemetry
    config = _config_for(args, args.clips)
    faults = None
    crash_shards = getattr(args, "inject_worker_crash", None) or []
    if crash_shards:
        faults = FaultPlan(seed=args.seed)
        for shard in crash_shards:
            faults.inject_worker_crash(shard)
        print(f"fault drill: crashing the worker for shard(s) "
              f"{sorted(set(crash_shards))}")
    workers = config.parallel.workers
    worker_part = f", workers {workers}" if workers > 1 else ""
    print(f"minting {args.clips} {args.node} clips "
          f"(seed {args.seed}{worker_part}) ...")
    result = api.mint(
        config, out=args.out, tracer=telemetry.tracer,
        faults=faults, hook=telemetry.hook(), registry=telemetry.registry,
    )
    telemetry.registry.counter("clips_processed_total").inc(len(result))
    print(f"wrote {len(result)} samples to {result.path}")
    telemetry.finish(clips=len(result), out=str(result.path))
    return 0


def _parse_fault_site(spec: str):
    """Parse a ``[PHASE:]EPOCH[:BATCH]`` fault-site spec (phase: cgan)."""
    parts = spec.split(":")
    phase = "cgan"
    if parts and not parts[0].lstrip("-").isdigit():
        phase = parts.pop(0)
    try:
        epoch = int(parts[0])
        batch = int(parts[1]) if len(parts) > 1 else 0
    except (IndexError, ValueError):
        raise ReproError(
            f"bad fault site {spec!r}; expected [PHASE:]EPOCH[:BATCH]"
        ) from None
    return phase, epoch, batch


def _build_fault_plan(args):
    """A FaultPlan from --inject-nan/--inject-interrupt, or None."""
    nan_specs = getattr(args, "inject_nan", None) or []
    kill_specs = getattr(args, "inject_interrupt", None) or []
    if not nan_specs and not kill_specs:
        return None
    plan = FaultPlan(seed=args.seed)
    for spec in nan_specs:
        phase, epoch, batch = _parse_fault_site(spec)
        plan.inject_nan(phase, epoch, batch=batch)
    for spec in kill_specs:
        phase, epoch, batch = _parse_fault_site(spec)
        plan.inject_interrupt(phase, epoch, batch=batch)
    return plan


def cmd_train(args) -> int:
    telemetry = args.telemetry
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        telemetry.finish(status="error", error="--resume without --checkpoint-dir")
        return 2
    faults = _build_fault_plan(args)
    dataset = _load_dataset_with_policy(args, telemetry)
    config = _config_for(args, len(dataset))
    if dataset.image_size != config.model.image_size:
        message = (
            f"dataset resolution {dataset.image_size} does not match "
            f"the reduced-model resolution {config.model.image_size}"
        )
        print(f"error: {message}", file=sys.stderr)
        telemetry.finish(status="error", error=message)
        return 2
    # The same deterministic cut PairedDataset.split makes — just for the
    # narration; the façade performs the actual split.
    cut = int(round(config.training.train_fraction * len(dataset)))
    cut = min(max(cut, 1), len(dataset) - 1)
    print(f"training LithoGAN on {cut} samples, "
          f"{config.training.epochs} epochs ...")
    if args.checkpoint_dir:
        print(f"checkpointing every {args.checkpoint_every} epoch(s) "
              f"to {args.checkpoint_dir}"
              + (" (resuming)" if args.resume else ""))
    result = api.train(
        config, dataset,
        checkpoints=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        recovery=bool(args.checkpoint_dir),
        out=args.out,
        faults=faults, hook=telemetry.hook(), tracer=telemetry.tracer,
        profiler=telemetry.profiler,
    )
    history = result.history
    telemetry.registry.counter(
        "clips_processed_total").inc(len(result.train_set))
    print(f"saved weights and history to {result.out_dir}/ "
          f"(final L1 {history.cgan.l1_loss[-1]:.3f})")
    telemetry.finish(
        epochs=history.cgan.epochs_trained,
        final_l1=round(history.cgan.l1_loss[-1], 4),
        samples=len(result.train_set),
    )
    return 0


def cmd_evaluate(args) -> int:
    telemetry = args.telemetry
    dataset = _load_dataset_with_policy(args, telemetry)
    config = _config_for(args, len(dataset))
    result = api.evaluate(config, dataset, args.model,
                          tracer=telemetry.tracer,
                          profiler=telemetry.profiler)
    telemetry.registry.counter("eval_samples_total").inc(result.samples)
    if telemetry.logger is not None:
        telemetry.logger.eval_end(**result.row)
    if args.json:
        print(json.dumps(result.row, indent=2))
    else:
        print(render_table(
            format_table3(dataset.tech_name or args.node,
                          [result.summary_stats])
        ))
        if result.summary_stats.center_error_nm is not None:
            print(f"center-prediction error: "
                  f"{result.summary_stats.center_error_nm:.2f} nm")
    telemetry.finish(
        samples=result.samples,
        ede_mean_nm=round(result.summary_stats.ede_mean_nm, 4),
    )
    return 0


def cmd_predict(args) -> int:
    """Hardened batch inference: every admitted clip is answered."""
    from .serving import serve_latency_quantiles

    telemetry = args.telemetry
    if args.inject_degenerate is not None and not (
            0.0 <= args.inject_degenerate <= 1.0):
        print(
            f"error: --inject-degenerate must lie in [0, 1], got "
            f"{args.inject_degenerate}", file=sys.stderr,
        )
        telemetry.finish(status="error", error="bad --inject-degenerate")
        return 2
    dataset = load_dataset(args.dataset)
    config = _config_for(args, len(dataset))
    policy = None
    if args.no_fallback:
        policy = dataclasses.replace(config.serving, fallback_enabled=False)
    model = api.load_model(args.model, config, seed=args.seed)

    masks = dataset.masks
    if args.limit is not None:
        masks = masks[:args.limit]

    faults = None
    injected = ()
    if args.inject_degenerate is not None:
        faults = FaultPlan(seed=args.seed)
        injected = faults.inject_random_degenerate(
            len(masks), args.inject_degenerate
        )
        print(f"fault drill: degrading {len(injected)} of {len(masks)} "
              f"generator outputs (clips {list(injected)})")

    serving = policy if policy is not None else config.serving
    print(f"serving {len(masks)} clips "
          f"(micro-batch {serving.micro_batch}, fallback "
          f"{'on' if serving.fallback_enabled else 'off'}) ...")
    serve_kwargs = {"faults": faults}
    if args.deadline is not None:
        serve_kwargs["deadline_s"] = args.deadline
    report = api.serve(
        model, masks, config=config, policy=policy,
        hook=telemetry.hook(), tracer=telemetry.tracer,
        profiler=telemetry.profiler, **serve_kwargs,
    )

    verdicts = report.verdicts()
    print(f"served {report.admitted}/{len(masks)} clips "
          f"({report.rejected} rejected, {report.sanitized} sanitized)")
    print(f"  verdicts: " + ", ".join(
        f"{name}={count}" for name, count in sorted(verdicts.items())
    ))
    print(f"  fallbacks: {report.fallbacks} {report.fallbacks_by_cause()}")
    print(f"  breaker: {report.breaker_state} "
          f"({len(report.breaker_transitions)} transitions)")
    if report.deadline_exceeded:
        print("  deadline exceeded: retries and fallback were skipped for "
              "late clips")
    quantiles = serve_latency_quantiles(telemetry.tracer)
    if quantiles:
        print("  per-clip latency: " + ", ".join(
            f"{name}={seconds * 1e3:.2f}ms"
            for name, seconds in quantiles.items()
        ))

    if args.report:
        payload = report.to_dict()
        payload["requested"] = len(masks)
        payload["injected_degenerate"] = list(injected)
        payload["latency_quantiles_s"] = quantiles
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote serve report to {args.report}")

    telemetry.registry.counter("clips_processed_total").inc(report.admitted)
    telemetry.finish(
        served=report.admitted, rejected=report.rejected,
        fallbacks=report.fallbacks, breaker=report.breaker_state,
    )
    return 0


def _parse_tenants(spec: str):
    """Parse ``NAME[:WEIGHT[:MAX_QUEUED]],...`` into TenantQuota objects."""
    from .serving import TenantQuota

    quotas = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        try:
            quotas.append(TenantQuota(
                name=fields[0],
                weight=float(fields[1]) if len(fields) > 1 else 1.0,
                max_queued=int(fields[2]) if len(fields) > 2 else None,
            ))
        except (ValueError, IndexError):
            raise ReproError(
                f"bad tenant spec {part!r}; expected "
                f"NAME[:WEIGHT[:MAX_QUEUED]]"
            ) from None
    if not quotas:
        raise ReproError(f"--tenants {spec!r} parsed to an empty list")
    return tuple(quotas)


def _parse_pair(spec: str, flag: str):
    """Parse an ``N:SECONDS`` fault spec into ``(int, float)``."""
    try:
        left, right = spec.split(":")
        return int(left), float(right)
    except ValueError:
        raise ReproError(
            f"bad {flag} {spec!r}; expected N:SECONDS"
        ) from None


def cmd_serve(args) -> int:
    """Soak the continuous-batching serving loop under a ramping load."""
    from .serving import (
        DEFAULT_TENANT,
        MODE_CANARY,
        MODE_SHADOW,
        PlaybackModel,
        run_soak,
    )

    telemetry = args.telemetry
    if args.inject_degenerate is not None and not (
            0.0 <= args.inject_degenerate <= 1.0):
        print(
            f"error: --inject-degenerate must lie in [0, 1], got "
            f"{args.inject_degenerate}", file=sys.stderr,
        )
        telemetry.finish(status="error", error="bad --inject-degenerate")
        return 2
    dataset = load_dataset(args.dataset)
    config = _config_for(args, len(dataset))
    overrides = {
        key: value for key, value in {
            "queue_capacity": args.queue_capacity,
            "max_batch": args.max_batch,
            "max_wait_ms": args.max_wait_ms,
            "default_deadline_s": args.deadline,
            "watchdog_s": args.watchdog,
        }.items() if value is not None
    }
    if overrides:
        config = dataclasses.replace(
            config, server=dataclasses.replace(config.server, **overrides),
        )

    if args.canary_fraction is not None and not (
            0.0 < args.canary_fraction <= 1.0):
        print(
            f"error: --canary-fraction must lie in (0, 1], got "
            f"{args.canary_fraction}", file=sys.stderr,
        )
        telemetry.finish(status="error", error="bad --canary-fraction")
        return 2
    if args.canary and not args.registry:
        print("error: --canary requires --registry", file=sys.stderr)
        telemetry.finish(status="error", error="--canary without --registry")
        return 2

    model_name, model_version = "model", None
    if args.model:
        if args.registry:
            # With a registry, --model is a name[@version|latest] ref,
            # resolved fail-closed (exit 6 on any damage).
            model, entry = api.resolve_model(
                args.model, config, registry=args.registry, seed=args.seed,
            )
            model_name, model_version = entry.name, entry.version
            print(f"registry: serving {entry.label} from {entry.path}")
        else:
            model = api.load_model(args.model, config, seed=args.seed)
    else:
        # Golden playback: un-faulted outputs always pass the guard, so the
        # drill's shed/fallback counts reflect only the injected faults.
        model = PlaybackModel(dataset)

    candidate = candidate_entry = None
    if args.canary:
        candidate, candidate_entry = api.resolve_model(
            args.canary, config, registry=args.registry, seed=args.seed,
        )
        print(f"registry: canary candidate {candidate_entry.label} "
              f"from {candidate_entry.path}")

    quotas = _parse_tenants(args.tenants) if args.tenants else ()
    tenant_names = tuple(q.name for q in quotas) or (DEFAULT_TENANT,)

    # Degenerate injection draws over the expected submission count; late
    # requests past the estimate are simply never poisoned.
    expected = max(1, int(round(
        args.duration * (args.qps_start + args.qps_end) / 2.0)))
    faults = None
    injected = ()
    if args.inject_degenerate:
        faults = FaultPlan(seed=args.seed)
        injected = faults.inject_random_degenerate(
            expected, args.inject_degenerate)
        print(f"fault drill: degrading {len(injected)} of ~{expected} "
              f"expected generator outputs")
    if args.inject_slow_every:
        every, seconds = _parse_pair(
            args.inject_slow_every, "--inject-slow-every")
        faults = faults or FaultPlan(seed=args.seed)
        faults.inject_slow_every(every, seconds)
        print(f"fault drill: stalling every {every}th forward batch "
              f"for {seconds:g}s")
    if args.inject_wedge:
        batch, seconds = _parse_pair(args.inject_wedge, "--inject-wedge")
        faults = faults or FaultPlan(seed=args.seed)
        faults.inject_wedge(batch, seconds)
        print(f"fault drill: wedging forward batch {batch} for {seconds:g}s")

    server_cfg = config.server
    print(
        f"serving loop: queue {server_cfg.queue_capacity}, batch <= "
        f"{server_cfg.max_batch} @ {server_cfg.max_wait_ms:g}ms, tenants "
        f"{', '.join(tenant_names)}; ramping "
        f"{args.qps_start:g}->{args.qps_end:g} qps over "
        f"{args.duration:g}s ..."
    )
    server = api.serve_loop(
        model, config=config, quotas=quotas, faults=faults,
        hook=telemetry.hook(), tracer=telemetry.tracer,
        model_name=model_name, model_version=model_version,
    )
    rollback_verdicts = []
    if candidate is not None:
        mode = MODE_SHADOW if args.shadow else MODE_CANARY
        label = server.start_canary(
            candidate,
            name=candidate_entry.name, version=candidate_entry.version,
            fraction=args.canary_fraction, mode=mode,
            on_rollback=rollback_verdicts.append,
        )
        if mode == MODE_SHADOW:
            print(f"canary: {label} shadowing all batches "
                  "(never answers live traffic)")
        else:
            fraction = (args.canary_fraction
                        if args.canary_fraction is not None
                        else config.registry.canary_fraction)
            print(f"canary: {label} taking {fraction:.0%} of batches "
                  f"(auto-rollback margin "
                  f"{config.registry.rollback_margin:g})")
    soak = run_soak(
        server, list(dataset.masks), duration_s=args.duration,
        qps_start=args.qps_start, qps_end=args.qps_end,
        tenants=tenant_names,
    )

    print(f"soak: {soak.served}/{soak.submitted} served, {soak.shed} shed, "
          f"{soak.deadline_expired} deadline-expired, "
          f"{soak.refused} refused, {soak.unanswered} unanswered "
          f"({soak.batches} batches{', wedged' if soak.wedged else ''})")
    print(f"  throughput: {soak.throughput_clips_per_s:.1f} clips/s, "
          f"latency p50={soak.latency_p50_ms:.2f}ms "
          f"p99={soak.latency_p99_ms:.2f}ms")
    if soak.shed_by_reason:
        print("  shed by reason: " + ", ".join(
            f"{name}={count}"
            for name, count in sorted(soak.shed_by_reason.items())))
    for name in sorted(soak.tenants):
        state = soak.tenants[name]
        print(f"  tenant {name}: submitted={state['submitted']} "
              f"served={state['served']} shed={state['shed']}")
    print(f"  fairness gap (max-min tenant shed rate): "
          f"{soak.fairness_gap():.3f}")
    stats = server.stats()
    if candidate_entry is not None or stats.swaps or stats.rollbacks:
        print(f"  model {stats.model}: swaps={stats.swaps} "
              f"rollbacks={stats.rollbacks}")
    if candidate_entry is not None:
        if rollback_verdicts:
            verdict = rollback_verdicts[-1]
            print(f"canary: automatic rollback of {candidate_entry.label} "
                  f"(candidate bad rate {verdict['candidate_rate']:.2f} vs "
                  f"incumbent {verdict['incumbent_rate']:.2f} over "
                  f"{verdict['candidate_samples']} samples)")
        elif stats.candidate is not None:
            print(f"canary: {stats.candidate} healthy after soak; promote "
                  f"it with 'repro-litho registry promote'")

    if args.report:
        payload = soak.to_dict()
        payload["injected_degenerate"] = list(injected)
        payload["canary_rollbacks"] = list(rollback_verdicts)
        payload["server"] = stats.to_dict()
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote soak report to {args.report}")

    telemetry.registry.counter("clips_processed_total").inc(soak.served)
    violations = []
    if args.soak:
        if soak.unanswered:
            violations.append(
                f"{soak.unanswered} admitted request(s) never answered")
        if soak.fairness_gap() > args.fairness_bound:
            violations.append(
                f"per-tenant shed spread {soak.fairness_gap():.3f} exceeds "
                f"--fairness-bound {args.fairness_bound:g}")
    if violations:
        for violation in violations:
            print(f"soak invariant violated: {violation}", file=sys.stderr)
        telemetry.finish(status="error", error="; ".join(violations))
        return 5
    telemetry.finish(
        submitted=soak.submitted, served=soak.served, shed=soak.shed,
        unanswered=soak.unanswered, wedged=soak.wedged,
    )
    return 0


def cmd_registry(args) -> int:
    """Publish / list / verify / promote / rollback registry versions.

    Every action is fail-closed: any unresolvable ref, corrupt manifest, or
    checksum mismatch raises :class:`~repro.errors.RegistryError`, which
    :func:`main` maps to exit code 6.
    """
    from .registry import MANIFEST_NAME, ModelRegistry, parse_model_ref

    telemetry = args.telemetry
    store = ModelRegistry(args.registry)

    if args.action == "publish":
        entry = api.publish_model(
            args.weights, args.name, registry=store,
            config=_config_for(args, 1),
            inject_degenerate=args.inject_degenerate,
        )
        drill = " (degenerate drill weights)" if args.inject_degenerate else ""
        print(f"published {entry.label}{drill}: {len(entry.files)} files "
              f"at {entry.path}")
        if args.promote:
            store.promote(entry.name, entry.version)
            print(f"promoted {entry.label} (now active)")
        telemetry.finish(model=entry.label, files=len(entry.files))
        return 0

    if args.action == "list":
        names = [args.name] if args.name else store.models()
        if not names:
            print(f"registry {store.root} holds no models")
        for name in names:
            active = store.active_version(name)
            versions = store.versions(name)
            if not versions:
                print(f"{name}: no published versions")
                continue
            for version in versions:
                marker = "*" if version == active else " "
                manifest_path = (store.root / name / f"v{version:06d}"
                                 / MANIFEST_NAME)
                try:
                    manifest = json.loads(manifest_path.read_text("utf-8"))
                    files = len(manifest.get("files", ()))
                    detail = f"{files} files"
                except (OSError, ValueError):
                    detail = "corrupt manifest"
                print(f"{marker} {name}@{version}  {detail}")
            if active is not None:
                print(f"  active: {name}@{active}")
        telemetry.finish(models=len(names))
        return 0

    if args.action == "verify":
        name, version = parse_model_ref(args.model)
        entry = store.verify(name, version)
        print(f"verified {entry.label}: {len(entry.files)} files, "
              f"all checksums match")
        telemetry.finish(model=entry.label)
        return 0

    if args.action == "promote":
        name, version = parse_model_ref(args.model)
        entry = store.promote(name, "latest" if version is None else version)
        print(f"promoted {entry.label} (now active)")
        if telemetry.logger is not None:
            telemetry.logger.model_swap(
                model=name, version=str(entry.version),
                previous="", reason="promote",
            )
        telemetry.finish(model=entry.label)
        return 0

    if args.action == "rollback":
        from_version, to_version = store.rollback(args.name)
        print(f"rolled back {args.name}: @{from_version} -> @{to_version}")
        if telemetry.logger is not None:
            telemetry.logger.rollback(
                phase="registry", model=args.name,
                from_version=from_version, to_version=to_version,
                reason="operator",
            )
        telemetry.finish(model=f"{args.name}@{to_version}")
        return 0

    raise ReproError(f"unknown registry action {args.action!r}")


def _parse_param(spec: str):
    """Parse a ``PATH=V1[,V2,...]`` sweep axis; values decode as JSON when
    they can (``0.5`` -> float, ``true`` -> bool) and stay strings otherwise.
    """
    path, sep, values = spec.partition("=")
    if not sep or not path or not values:
        raise ReproError(
            f"bad --param {spec!r}; expected PATH=V1[,V2,...] "
            "(e.g. training.seed=0,1,2)"
        )
    parsed = []
    for raw in values.split(","):
        raw = raw.strip()
        try:
            parsed.append(json.loads(raw))
        except json.JSONDecodeError:
            parsed.append(raw)
    return path, parsed


def _parse_trial_site(spec: str, flag: str):
    """Parse a ``TRIAL[:all]`` sweep fault site into ``(index, every)``.

    Without ``:all`` the fault fires on attempt 1 only, so the supervised
    retry runs clean and the trial lands — the drill proves recovery, not
    permanent damage.  ``:all`` poisons every attempt (the exit-7 drill).
    """
    every = spec.endswith(":all")
    body = spec[:-4] if every else spec
    try:
        index = int(body)
    except ValueError:
        raise ReproError(
            f"bad {flag} {spec!r}; expected TRIAL[:all]"
        ) from None
    if index < 0:
        raise ReproError(f"{flag} trial index must be >= 0, got {index}")
    return index, every


def _sweep_faults_for(args):
    """Build the supervisor's ``faults_for(index, attempt)`` callback."""
    nan_sites = [_parse_trial_site(spec, "--inject-nan")
                 for spec in (getattr(args, "inject_nan", None) or [])]
    crash_sites = [_parse_trial_site(spec, "--inject-worker-crash")
                   for spec in (getattr(args, "inject_worker_crash", None)
                                or [])]
    if not nan_sites and not crash_sites:
        return None

    def faults_for(index: int, attempt: int):
        plan = None
        for trial, every in nan_sites:
            if trial == index and (every or attempt == 1):
                plan = plan or FaultPlan(seed=args.seed)
                plan.inject_nan("cgan", 1)
        for trial, every in crash_sites:
            if trial == index and (every or attempt == 1):
                plan = plan or FaultPlan(seed=args.seed)
                plan.inject_worker_crash(0)
        return plan

    return faults_for


def _sweep_base_config(args) -> ExperimentConfig:
    """The sweep's base config: ``_config_for`` plus the supervision knobs."""
    from .config import SweepConfig

    config = _config_for(args, args.clips)
    return dataclasses.replace(config, sweep=SweepConfig(
        trial_timeout_s=args.trial_timeout,
        max_retries=args.max_retries,
        retry_delay_s=args.retry_delay,
        max_failed_trials=args.max_failed,
        isolation=args.isolation,
    ))


def _finish_sweep_run(args, telemetry, result) -> int:
    print(result.format_ranking(args.metric))
    if result.published is not None:
        print(f"published best trial as {result.published.label}")
    if args.report:
        Path(args.report).write_text(
            json.dumps(result.to_dict(), indent=2) + "\n")
        print(f"wrote sweep report to {args.report}")
    telemetry.finish(
        trials=len(result.trials),
        completed=len(result.completed),
        failed=len(result.failed),
    )
    return 0


def cmd_sweep(args) -> int:
    """Run, inspect, or resume a journaled multi-trial sweep.

    The journal at ``<out>/journal.jsonl`` is the sweep's only durable
    state: ``run`` refuses to clobber an existing one without ``--resume``,
    ``status`` reports from it alone, and ``resume`` reconstructs the full
    spec from its ``sweep_start`` record — no flags to repeat, no way to
    resume a different sweep against the wrong journal (digest-checked).
    """
    from .sweep import read_journal, replay_journal

    telemetry = args.telemetry
    sweep_dir = Path(args.out)
    journal_path = sweep_dir / "journal.jsonl"

    if args.action == "status":
        state = replay_journal(read_journal(journal_path))
        if state.sweep is None:
            raise SweepError(
                f"journal {journal_path} has no sweep_start record"
            )
        trials = {
            digest: {
                "trial": record.get("trial", "?"),
                "status": state.status_of(digest),
                "attempts": state.attempts.get(digest, 0),
                "retries": state.retries.get(digest, 0),
            }
            for digest, record in sorted(
                state.latest.items(),
                key=lambda item: item[1].get("index", 0),
            )
        }
        payload = {
            "sweep": state.sweep.get("digest"),
            "declared_trials": state.sweep.get("trials"),
            "journaled_trials": len(trials),
            "trials": trials,
        }
        if args.json:
            # Like ``repro report --json``: skip the telemetry summary so
            # stdout stays parseable by pipeline consumers.
            print(json.dumps(payload, indent=2))
            return 0
        print(f"sweep {payload['sweep'][:12]}: "
              f"{len(trials)}/{payload['declared_trials']} trials "
              "journaled")
        for digest, row in trials.items():
            print(f"  {row['trial']:<22} {row['status']:<12} "
                  f"attempts={row['attempts']} retries={row['retries']}")
        telemetry.finish(trials=len(trials))
        return 0

    if args.action == "resume":
        state = replay_journal(read_journal(journal_path))
        if state.sweep is None:
            raise SweepError(
                f"cannot resume: journal {journal_path} has no sweep_start "
                "record"
            )
        saved = state.sweep.get("spec") or {}
        if "grid" not in saved or "args" not in saved:
            raise SweepError(
                f"cannot resume: journal {journal_path} carries no sweep "
                "spec payload (was it started by an older writer?)"
            )
        # Rebuild the exact run invocation from the journal; only the
        # telemetry flags come from this command line.
        for key, value in saved["args"].items():
            setattr(args, key, value)
        # The grid is stored as ordered [path, values] pairs: the journal
        # writer sorts dict keys, and axis order decides trial order (and
        # therefore the sweep digest).
        grid = dict((path, values) for path, values in saved["grid"])
        print(f"resuming sweep {state.sweep.get('digest', '?')[:12]} "
              f"from {journal_path}")
        result = api.run_sweep(
            _sweep_base_config(args), grid,
            sweep_dir=sweep_dir, resume=True, metric=args.metric,
            publish_best=args.publish_best, registry=args.registry,
            hook=telemetry.hook(), progress=print,
            spec_payload=saved,
        )
        return _finish_sweep_run(args, telemetry, result)

    # action == "run"
    grid = dict(_parse_param(spec) for spec in (args.param or []))
    config = _sweep_base_config(args)
    spec_payload = {
        # ordered pairs, not a dict: the journal writer sorts dict keys,
        # and axis order is load-bearing (it decides trial order)
        "grid": [[path, list(values)] for path, values in grid.items()],
        "args": {
            "node": args.node, "seed": args.seed, "clips": args.clips,
            "epochs": args.epochs, "workers": args.workers,
            "trial_timeout": args.trial_timeout,
            "isolation": args.isolation, "max_retries": args.max_retries,
            "retry_delay": args.retry_delay, "max_failed": args.max_failed,
            "metric": args.metric,
        },
    }
    trials = 1
    for _, values in grid.items():
        trials *= len(values)
    print(f"sweep: {trials} trial(s) over {len(grid)} axis(es), "
          f"budget {args.max_failed} failed trial(s), "
          f"{args.max_retries} retry(ies)/trial ...")
    result = api.run_sweep(
        config, grid, sweep_dir=sweep_dir, resume=args.resume,
        metric=args.metric, publish_best=args.publish_best,
        registry=args.registry, faults_for=_sweep_faults_for(args),
        hook=telemetry.hook(), progress=print, spec_payload=spec_payload,
    )
    return _finish_sweep_run(args, telemetry, result)


def cmd_process_window(args) -> int:
    telemetry = args.telemetry
    config = _config_for(args, 1)
    window = api.process_window(
        config, array_type=args.array_type, tracer=telemetry.tracer,
    )
    telemetry.registry.counter("clips_processed_total").inc()
    print(f"nominal CD: {window.nominal_cd_nm:.1f} nm")
    defocus, cds = window.bossung_curve(1.0)
    for d, cd in zip(defocus, cds):
        shown = f"{cd:.1f}" if np.isfinite(cd) else "no print"
        print(f"  defocus {d:+6.0f} nm -> CD {shown} nm")
    print(f"depth of focus (+/-10% CD): "
          f"{window.depth_of_focus_nm():.0f} nm")
    print(f"exposure latitude (+/-10% CD): "
          f"{100 * window.exposure_latitude():.0f} %")
    telemetry.finish(nominal_cd_nm=round(window.nominal_cd_nm, 2))
    return 0


def cmd_optimize(args) -> int:
    """Inverse lithography: optimize masks through trained weights."""
    telemetry = args.telemetry
    config = _config_for(args, max(args.clips, 1))
    overrides = {}
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.verify_every is not None:
        overrides["verify_every"] = args.verify_every
    if args.learning_rate is not None:
        overrides["learning_rate"] = args.learning_rate
    if args.rigorous:
        overrides["rigorous"] = True
    if overrides:
        config = dataclasses.replace(
            config, ilt=dataclasses.replace(config.ilt, **overrides)
        )
    if args.registry:
        model, entry = api.resolve_model(
            args.model, config, registry=args.registry
        )
        label = f"{entry.name}@{entry.version}"
    else:
        model = api.load_model(args.model, config)
        label = str(args.model)
    print(f"optimizing {args.clips} clip(s) against {label} "
          f"({config.ilt.steps} steps, verify every "
          f"{config.ilt.verify_every})")
    result = api.optimize_mask(
        config, model, num_clips=args.clips,
        compare_process_window=args.process_window,
        tracer=telemetry.tracer, logger=telemetry.logger,
        metrics=telemetry.registry, profiler=telemetry.profiler,
        progress=lambda message: print(f"  {message}"),
    )
    print(f"mean EPE: ILT {result.epe_ilt_nm:.2f} nm | unoptimized "
          f"{result.epe_unoptimized_nm:.2f} nm | rule OPC "
          f"{result.epe_rule_opc_nm:.2f} nm")
    if result.process_windows:
        for index in sorted(result.process_windows, key=int):
            rows = result.process_windows[index]
            print(f"  clip {index} depth of focus: ILT "
                  f"{rows['ilt']['depth_of_focus_nm']:.0f} nm | rule OPC "
                  f"{rows['rule_opc']['depth_of_focus_nm']:.0f} nm")
    if args.report:
        Path(args.report).write_text(result.to_json())
        print(f"wrote optimize report to {args.report}")
    telemetry.finish(
        clips=result.clips,
        epe_ilt_nm=round(result.epe_ilt_nm, 4),
        epe_unoptimized_nm=round(result.epe_unoptimized_nm, 4),
        epe_rule_opc_nm=round(result.epe_rule_opc_nm, 4),
        improved=result.improved_vs_unoptimized,
    )
    return 0


def cmd_report(args) -> int:
    """Correlate a run's artifacts into one health report.

    Reads the JSONL event log (required) plus whatever of the trace /
    metrics / profile artifacts the run exported, and prints either the
    human-readable report or (``--json``) the machine-readable one.  Fails
    closed — exit 1 naming the offending path — when any input is corrupt,
    and intentionally skips the per-run telemetry summary so ``--json``
    output stays parseable.
    """
    rep = api.report(
        args.log, trace=args.trace, metrics=args.metrics,
        profile=args.profile,
    )
    if args.out:
        rep.save(args.out)
    if args.json:
        print(json.dumps(rep.to_dict(), indent=2, sort_keys=False))
    else:
        print(rep.format_text())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _common_parent() -> argparse.ArgumentParser:
    """Flags every subcommand shares: node, seed, telemetry sinks."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--node", choices=("N10", "N7"), default="N10")
    parent.add_argument("--seed", type=int, default=0)
    parent.add_argument(
        "--log-json", dest="log_json", metavar="PATH", default=None,
        help="append schema-versioned JSONL run events to PATH",
    )
    parent.add_argument(
        "--metrics-out", dest="metrics_out", metavar="PATH", default=None,
        help="write the run's metrics registry to PATH (.prom/.txt gets "
             "Prometheus exposition text, anything else JSON)",
    )
    parent.add_argument(
        "--trace-out", dest="trace_out", metavar="PATH", default=None,
        help="write the run's merged Chrome-trace-event JSON (one timeline, "
             "a lane per worker) to PATH; load in Perfetto or "
             "chrome://tracing",
    )
    return parent


def _workers_parent() -> argparse.ArgumentParser:
    """``--workers`` for the subcommands that fan work out."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan work out over N deterministic workers (results are "
             "byte-identical for any N; default: 1)",
    )
    return parent


def _epochs_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--epochs", type=int, default=10)
    return parent


def _profile_parent() -> argparse.ArgumentParser:
    """``--profile-out`` for the subcommands that run the networks."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--profile-out", dest="profile_out", metavar="PATH", default=None,
        help="profile every layer's forward/backward time, FLOPs, and "
             "activation bytes, and write the report as JSON to PATH "
             "(profiling is off — zero overhead — without this flag)",
    )
    return parent


def _data_policy_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--data-policy", dest="data_policy",
        choices=(DATA_POLICY_STRICT, DATA_POLICY_SALVAGE, DATA_POLICY_REPAIR),
        default=None,
        help="validate per-record dataset integrity before use: strict "
             "fails closed on any bad record (exit 4), salvage drops "
             "quarantined records, repair re-synthesizes them from the "
             "integrity manifest",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-litho",
        description="LithoGAN reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parent()
    workers = _workers_parent()
    epochs = _epochs_parent()
    data_policy = _data_policy_parent()
    profile = _profile_parent()

    mint = sub.add_parser(
        "mint", help="synthesize a paired dataset",
        parents=[common, workers],
    )
    mint.add_argument("--clips", type=int, default=120)
    mint.add_argument("--out", required=True, help="output .npz path")
    mint.add_argument(
        "--inject-worker-crash", dest="inject_worker_crash",
        action="append", type=int, metavar="SHARD", default=None,
        help="fault drill: crash the parallel worker assigned shard SHARD "
             "mid-mint (the run fails closed, naming the shard)",
    )
    mint.set_defaults(func=cmd_mint)

    train = sub.add_parser(
        "train", help="train LithoGAN on a dataset",
        parents=[common, epochs, data_policy, workers, profile],
    )
    train.add_argument("--dataset", required=True)
    train.add_argument("--out", required=True, help="output weight directory")
    train.add_argument(
        "--checkpoint-dir", dest="checkpoint_dir", metavar="DIR", default=None,
        help="write atomic per-epoch training checkpoints under DIR",
    )
    train.add_argument(
        "--checkpoint-every", dest="checkpoint_every", type=int, default=1,
        metavar="N", help="checkpoint every N epochs (default: 1)",
    )
    train.add_argument(
        "--resume", action="store_true",
        help="resume bit-exactly from the latest checkpoint in "
             "--checkpoint-dir",
    )
    train.add_argument(
        "--inject-nan", dest="inject_nan", action="append", metavar="SITE",
        default=None,
        help="fault drill: poison batch [PHASE:]EPOCH[:BATCH] with NaNs "
             "(phase defaults to cgan)",
    )
    train.add_argument(
        "--inject-interrupt", dest="inject_interrupt", action="append",
        metavar="SITE", default=None,
        help="fault drill: simulate a kill at [PHASE:]EPOCH[:BATCH]",
    )
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser(
        "evaluate", help="score saved weights",
        parents=[common, epochs, data_policy, workers, profile],
    )
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument(
        "--json", action="store_true",
        help="print the Table 3 row as machine-readable JSON",
    )
    evaluate.set_defaults(func=cmd_evaluate)

    predict = sub.add_parser(
        "predict", help="hardened batch inference with graceful degradation",
        parents=[common, epochs, workers, profile],
    )
    predict.add_argument("--dataset", required=True)
    predict.add_argument("--model", required=True)
    predict.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="serve only the first N clips of the dataset",
    )
    predict.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-batch deadline; once exceeded, retries and fallback are "
             "skipped and late clips are served best-effort",
    )
    predict.add_argument(
        "--no-fallback", dest="no_fallback", action="store_true",
        help="disable the physics-simulator fallback (degenerate outputs "
             "are served flagged instead)",
    )
    predict.add_argument(
        "--inject-degenerate", dest="inject_degenerate", type=float,
        default=None, metavar="FRACTION",
        help="fault drill: deterministically zero this fraction of "
             "generator outputs before the guard (seeded by --seed)",
    )
    predict.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the full per-clip serve report as JSON to PATH",
    )
    predict.set_defaults(func=cmd_predict)

    serve = sub.add_parser(
        "serve",
        help="soak the continuous-batching serving loop under ramping load",
        parents=[common],
    )
    serve.add_argument("--dataset", required=True)
    serve.add_argument(
        "--model", default=None, metavar="DIR|REF",
        help="serve trained weights from DIR — or, with --registry, the "
             "registry ref NAME[@VERSION|latest] (default: golden-playback "
             "model built from the dataset itself)",
    )
    serve.add_argument(
        "--registry", default=None, metavar="DIR",
        help="resolve --model/--canary as fail-closed registry refs "
             "against the model registry at DIR (exit 6 on any damage)",
    )
    serve.add_argument(
        "--canary", default=None, metavar="REF",
        help="roll out registry version REF as a canary: it serves "
             "--canary-fraction of batches and is rolled back "
             "automatically when its bad-output rate regresses past the "
             "incumbent's (requires --registry)",
    )
    serve.add_argument(
        "--canary-fraction", dest="canary_fraction", type=float,
        default=None, metavar="FRACTION",
        help="fraction of batches the canary serves "
             "(default: config.registry.canary_fraction)",
    )
    serve.add_argument(
        "--shadow", action="store_true",
        help="run --canary in shadow mode: the candidate mirrors incumbent "
             "batches for health stats but never answers live traffic",
    )
    serve.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS",
        help="soak duration (default: 5)",
    )
    serve.add_argument(
        "--qps-start", dest="qps_start", type=float, default=20.0,
        metavar="QPS", help="submission rate at t=0 (default: 20)",
    )
    serve.add_argument(
        "--qps-end", dest="qps_end", type=float, default=100.0,
        metavar="QPS", help="submission rate at t=duration (default: 100)",
    )
    serve.add_argument(
        "--tenants", default=None, metavar="SPEC",
        help="comma-separated NAME[:WEIGHT[:MAX_QUEUED]] tenant quotas; "
             "submissions round-robin across them (default: one "
             "unlimited tenant)",
    )
    serve.add_argument(
        "--queue-capacity", dest="queue_capacity", type=int, default=None,
        metavar="N", help="bounded admission queue size (default: 64)",
    )
    serve.add_argument(
        "--max-batch", dest="max_batch", type=int, default=None,
        metavar="N", help="coalesce at most N requests per forward batch "
             "(default: 8)",
    )
    serve.add_argument(
        "--max-wait-ms", dest="max_wait_ms", type=float, default=None,
        metavar="MS", help="close a non-full batch MS after its first "
             "request arrived (default: 5)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline from submission; expired requests are "
             "answered with a DeadlineError (default: none)",
    )
    serve.add_argument(
        "--watchdog", type=float, default=None, metavar="SECONDS",
        help="declare the executor wedged after SECONDS without progress "
             "while work is pending (default: 10)",
    )
    serve.add_argument(
        "--inject-degenerate", dest="inject_degenerate", type=float,
        default=None, metavar="FRACTION",
        help="fault drill: deterministically zero this fraction of "
             "generator outputs before the guard (seeded by --seed)",
    )
    serve.add_argument(
        "--inject-slow-every", dest="inject_slow_every", default=None,
        metavar="N:SECONDS",
        help="fault drill: stall every Nth forward batch for SECONDS "
             "(slow-worker soak)",
    )
    serve.add_argument(
        "--inject-wedge", dest="inject_wedge", default=None,
        metavar="BATCH:SECONDS",
        help="fault drill: wedge forward batch BATCH for SECONDS; the "
             "watchdog must fail its requests with typed errors",
    )
    serve.add_argument(
        "--soak", action="store_true",
        help="assert the soak invariants (zero unanswered requests, "
             "per-tenant shed spread within --fairness-bound); exit 5 "
             "on violation",
    )
    serve.add_argument(
        "--fairness-bound", dest="fairness_bound", type=float, default=0.5,
        metavar="GAP",
        help="--soak: max allowed spread between per-tenant shed rates "
             "(default: 0.5)",
    )
    serve.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the full soak report as JSON to PATH",
    )
    serve.set_defaults(func=cmd_serve)

    registry = sub.add_parser(
        "registry",
        help="publish, list, verify, promote, and roll back versioned "
             "model weights",
        parents=[common],
    )
    registry.add_argument(
        "--registry", required=True, metavar="DIR",
        help="the model-registry root directory",
    )
    registry_sub = registry.add_subparsers(dest="action", required=True)
    reg_publish = registry_sub.add_parser(
        "publish", help="publish a weight directory as the next version",
    )
    reg_publish.add_argument(
        "--name", required=True, help="model name to publish under",
    )
    reg_publish.add_argument(
        "--weights", required=True, metavar="DIR",
        help="the weight directory to publish (hashed and manifested)",
    )
    reg_publish.add_argument(
        "--inject-degenerate", dest="inject_degenerate",
        action="store_true",
        help="fault drill: zero the staged generator weights before "
             "manifesting, so the published version fails the output "
             "guard on every clip (the source directory is untouched)",
    )
    reg_publish.add_argument(
        "--promote", action="store_true",
        help="also point the active pointer at the new version",
    )
    reg_list = registry_sub.add_parser(
        "list", help="list models, versions, and the active pointer",
    )
    reg_list.add_argument(
        "--name", default=None, help="list only this model",
    )
    reg_verify = registry_sub.add_parser(
        "verify",
        help="re-hash every weight file of a version against its manifest",
    )
    reg_verify.add_argument(
        "--model", required=True, metavar="REF",
        help="NAME[@VERSION|latest] to verify (default version: the "
             "active/latest one)",
    )
    reg_promote = registry_sub.add_parser(
        "promote", help="point the active pointer at a verified version",
    )
    reg_promote.add_argument(
        "--model", required=True, metavar="REF",
        help="NAME[@VERSION|latest] to promote",
    )
    reg_rollback = registry_sub.add_parser(
        "rollback",
        help="walk the active pointer back one promotion (re-verified)",
    )
    reg_rollback.add_argument(
        "--name", required=True, help="model name to roll back",
    )
    for action_parser in (reg_publish, reg_list, reg_verify, reg_promote,
                          reg_rollback):
        action_parser.set_defaults(func=cmd_registry)
    registry.set_defaults(func=cmd_registry)

    sweep = sub.add_parser(
        "sweep",
        help="run, inspect, or resume a journaled multi-trial experiment "
             "sweep",
        parents=[common],
    )
    sweep.add_argument(
        "--out", required=True, metavar="DIR",
        help="the sweep directory: holds journal.jsonl and one "
             "trials/<name>/ directory per trial",
    )
    sweep_sub = sweep.add_subparsers(dest="action", required=True)
    sweep_run = sweep_sub.add_parser(
        "run", help="expand the parameter grid and supervise every trial",
        parents=[workers, epochs],
    )
    sweep_run.add_argument(
        "--param", action="append", metavar="PATH=V1[,V2,...]", default=None,
        help="one sweep axis: a dotted config path and its candidate "
             "values (repeatable; the Cartesian product is the trial "
             "list, e.g. --param training.seed=0,1,2)",
    )
    sweep_run.add_argument("--clips", type=int, default=24)
    sweep_run.add_argument(
        "--trial-timeout", dest="trial_timeout", type=float, default=None,
        metavar="SECONDS",
        help="wall-clock bound per trial attempt; a trial that overruns is "
             "killed and classified 'timeout' (requires --isolation "
             "thread|process)",
    )
    sweep_run.add_argument(
        "--isolation", choices=("none", "thread", "process"),
        default="none",
        help="where a trial attempt runs: inline (none), or inside a "
             "one-task worker pool that can enforce --trial-timeout",
    )
    sweep_run.add_argument(
        "--max-retries", dest="max_retries", type=int, default=1,
        metavar="N",
        help="failed-attempt retries per trial, on deterministic "
             "exponential backoff (default: 1)",
    )
    sweep_run.add_argument(
        "--retry-delay", dest="retry_delay", type=float, default=0.25,
        metavar="SECONDS",
        help="base backoff delay before a retry, doubling per attempt "
             "(default: 0.25)",
    )
    sweep_run.add_argument(
        "--max-failed", dest="max_failed", type=int, default=0,
        metavar="N",
        help="sweep failure budget: fail the whole sweep (exit 7) once "
             "more than N trials have exhausted their retries "
             "(default: 0)",
    )
    sweep_run.add_argument(
        "--metric", default="ede_mean_nm",
        help="ranking metric, lower is better (default: ede_mean_nm)",
    )
    sweep_run.add_argument(
        "--publish-best", dest="publish_best", metavar="NAME", default=None,
        help="publish the winning trial's weights into the model registry "
             "under NAME, stamped with the sweep/trial digests (requires "
             "--registry)",
    )
    sweep_run.add_argument(
        "--registry", default=None, metavar="DIR",
        help="the model-registry root --publish-best publishes into",
    )
    sweep_run.add_argument(
        "--inject-nan", dest="inject_nan", action="append",
        metavar="TRIAL[:all]", default=None,
        help="fault drill: poison trial TRIAL's first training batch with "
             "NaNs on attempt 1 (append ':all' to poison every attempt — "
             "the exit-7 drill)",
    )
    sweep_run.add_argument(
        "--inject-worker-crash", dest="inject_worker_crash", action="append",
        metavar="TRIAL[:all]", default=None,
        help="fault drill: crash the worker for shard 0 of trial TRIAL's "
             "mint fan-out on attempt 1 (':all' for every attempt; needs "
             "--workers >= 2 for the fan-out to exist)",
    )
    sweep_run.add_argument(
        "--resume", action="store_true",
        help="continue an existing journal instead of refusing to "
             "overwrite it (completed trials are not re-run)",
    )
    sweep_run.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the full per-trial sweep report as JSON to PATH",
    )
    sweep_run.set_defaults(func=cmd_sweep)
    sweep_status = sweep_sub.add_parser(
        "status", help="print the journal's per-trial picture",
    )
    sweep_status.add_argument(
        "--json", action="store_true",
        help="print the machine-readable status instead of the text one",
    )
    sweep_status.set_defaults(func=cmd_sweep)
    sweep_resume = sweep_sub.add_parser(
        "resume",
        help="replay the journal and re-run only what never completed "
             "(the spec comes from the journal itself)",
    )
    sweep_resume.add_argument(
        "--publish-best", dest="publish_best", metavar="NAME", default=None,
        help="publish the winning trial's weights under NAME once the "
             "sweep completes (requires --registry)",
    )
    sweep_resume.add_argument(
        "--registry", default=None, metavar="DIR",
        help="the model-registry root --publish-best publishes into",
    )
    sweep_resume.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the full per-trial sweep report as JSON to PATH",
    )
    sweep_resume.set_defaults(func=cmd_sweep)
    sweep.set_defaults(func=cmd_sweep)

    window = sub.add_parser(
        "process-window", help="dose/defocus sweep of one clip",
        parents=[common],
    )
    window.add_argument(
        "--array-type",
        choices=[t.value for t in ArrayType],
        default="isolated",
        dest="array_type",
    )
    window.set_defaults(func=cmd_process_window)

    optimize = sub.add_parser(
        "optimize",
        help="gradient-based inverse lithography through trained weights",
        parents=[common, profile],
    )
    optimize.add_argument(
        "--model", required=True, metavar="DIR|REF",
        help="trained weight directory — or, with --registry, the registry "
             "ref NAME[@VERSION|latest] (fail-closed, exit 6 on damage)",
    )
    optimize.add_argument(
        "--registry", default=None, metavar="DIR",
        help="resolve --model as a fail-closed registry ref against the "
             "model registry at DIR",
    )
    optimize.add_argument(
        "--clips", type=int, default=3, metavar="N",
        help="number of synthesized clips to optimize (default: 3; "
             "deterministic in --seed)",
    )
    optimize.add_argument(
        "--steps", type=int, default=None, metavar="N",
        help="gradient steps per clip (default: config.ilt.steps)",
    )
    optimize.add_argument(
        "--verify-every", dest="verify_every", type=int, default=None,
        metavar="N",
        help="simulator-verify the annealed candidate every N steps "
             "(default: config.ilt.verify_every)",
    )
    optimize.add_argument(
        "--learning-rate", dest="learning_rate", type=float, default=None,
        metavar="LR",
        help="descent step size in theta units (gradients are "
             "max-normalized; default: config.ilt.learning_rate)",
    )
    optimize.add_argument(
        "--rigorous", action="store_true",
        help="verify candidates with the rigorous Abbe simulator instead "
             "of the compact SOCS one (much slower)",
    )
    optimize.add_argument(
        "--process-window", dest="process_window", action="store_true",
        help="also sweep dose/defocus for the optimized vs. rule-OPC "
             "layouts and report depth of focus / exposure latitude",
    )
    optimize.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the full optimize report as JSON to PATH",
    )
    optimize.set_defaults(func=cmd_optimize)

    report = sub.add_parser(
        "report",
        help="correlate a run's log/trace/metrics/profile into one health "
             "report",
    )
    report.add_argument(
        "--log", required=True, metavar="PATH",
        help="the run's JSONL event log (from --log-json)",
    )
    report.add_argument(
        "--trace", metavar="PATH", default=None,
        help="the run's Chrome-trace JSON (from --trace-out)",
    )
    report.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="the run's metrics snapshot JSON (from --metrics-out)",
    )
    report.add_argument(
        "--profile", metavar="PATH", default=None,
        help="the run's layer-profile JSON (from --profile-out)",
    )
    report.add_argument(
        "--json", action="store_true",
        help="print the machine-readable report instead of the text one",
    )
    report.add_argument(
        "--out", metavar="PATH", default=None,
        help="also save the machine-readable report as JSON to PATH",
    )
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.telemetry = _RunTelemetry(args.command, args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except KeyboardInterrupt as exc:
        detail = str(exc) or "interrupted"
        print(f"interrupted: {detail}", file=sys.stderr)
        args.telemetry.finish(status="interrupted", error=detail)
        return 130
    except CheckpointError as exc:
        # Fail closed: a model that cannot be restored must not serve or
        # score, and scripted callers need to tell this apart from pipeline
        # errors — hence the dedicated exit code.
        print(f"error: {exc}", file=sys.stderr)
        args.telemetry.finish(status="error", error=str(exc))
        return 3
    except DataIntegrityError as exc:
        # Fail closed: a dataset that cannot be validated (or repaired) must
        # not train or score.  Must precede the ReproError clause, since
        # DataIntegrityError subclasses DataError subclasses ReproError.
        print(f"error: {exc}", file=sys.stderr)
        args.telemetry.finish(status="error", error=str(exc))
        return 4
    except RegistryError as exc:
        # Fail closed: a registry version that cannot be verified — corrupt
        # manifest, checksum mismatch, unresolvable ref — must never be
        # served.  Must precede the ReproError clause.
        print(f"error: {exc}", file=sys.stderr)
        args.telemetry.finish(status="error", error=str(exc))
        return 6
    except SweepError as exc:
        # Fail closed: the sweep-level failure budget was exhausted (or a
        # journal/spec mismatch made a resume unsafe).  The journal still
        # accounts for every trial, so a resume retries exactly the failed
        # ones.  Must precede the ReproError clause.
        print(f"error: {exc}", file=sys.stderr)
        args.telemetry.finish(status="error", error=str(exc))
        return 7
    except IltError as exc:
        # Fail closed: a mask the rigorous simulator never validated is not
        # a solution, however good the proxy thought it was.  Must precede
        # the ReproError clause.
        print(f"error: {exc}", file=sys.stderr)
        args.telemetry.finish(status="error", error=str(exc))
        return 8
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        args.telemetry.finish(status="error", error=str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
