"""ilt: ``repro.ilt.optimize_clip`` with the default ``IltConfig``.

Runs on the same set-up-trained reduced model as ``serve``.  It is the only
caller of ``Sequential.input_gradient`` and of the running-stats BatchNorm
backward, so ``repro.nn`` runs here differently from ``train-paper`` (no
parameter gradients) and from ``serve`` (backward to the input), plus a
little ``repro.sim`` for verification.

The timed loop cycles over ``CLIPS`` seeded clips; every repeat of a clip
must reproduce its first result exactly, and the quality figures are over
the distinct clips, so they depend on the seed only.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext

import numpy as np

from repro.ilt import MaskVerifier, optimize_clip
from repro.layout import generate_clips

from harness import Result, SpanRecorder, bracketed, coverage, \
    self_time_by_name
from reduced_model import set_up

#: distinct clips optimized per run, after one warm-up clip
CLIPS = 6

ROOT_SPAN = "ilt.clip"


def _fingerprint(outcome) -> tuple:
    best = outcome.best
    return (best.step, best.epe_nm, best.mask.tobytes(),
            outcome.proxy_losses, outcome.epe_rule_opc_nm)


def run(ctx) -> Result:
    config, trained, setup_s = set_up(ctx)
    model = trained.model
    rng = np.random.default_rng([ctx.seed, 1])
    warm, *clips = generate_clips(config.tech, rng, count=CLIPS + 1)
    verifier = MaskVerifier(config, rigorous=config.ilt.rigorous)
    started = time.perf_counter()
    optimize_clip(config, model, warm, verifier=verifier)
    warm_s = time.perf_counter() - started
    setup_s = [s + warm_s for s in setup_s]

    recorder = SpanRecorder() if ctx.trace else None
    patches = recorder.patched([
        (model.cgan.generator, "input_gradient", "nn.input_gradient"),
        (verifier, "verify", "ilt.verify"),
    ]) if ctx.trace else nullcontext()
    first, repeats, clip_s = {}, {}, []
    with patches:
        ctx.reference.sample(warm_s)
        begun = time.perf_counter()
        while len(clip_s) < CLIPS or time.perf_counter() - begun < ctx.seconds:
            index = len(clip_s) % CLIPS
            with recorder.span(ROOT_SPAN) if ctx.trace else nullcontext():
                started = time.perf_counter()
                outcome = optimize_clip(config, model, clips[index],
                                        verifier=verifier)
                clip_s.append(time.perf_counter() - started)
            ctx.reference.sample(clip_s[-1])
            if index in first:
                repeats.setdefault(index, outcome)
            else:
                first[index] = outcome
    for index in range(CLIPS):
        if index not in repeats:
            repeats[index] = optimize_clip(config, model, clips[index],
                                           verifier=verifier)

    outcomes = [first[i] for i in range(CLIPS)]
    ctx.check("no_worse_than_rule_opc",
              all(o.epe_ilt_nm <= o.epe_rule_opc_nm for o in outcomes),
              [round(o.epe_ilt_nm - o.epe_rule_opc_nm, 4) for o in outcomes])
    ctx.check("deterministic",
              all(_fingerprint(first[i]) == _fingerprint(repeats[i])
                  for i in range(CLIPS)),
              "every clip optimized twice, bit-identical")
    clip_ref = bracketed(clip_s, ctx.reference.samples)
    result = Result(
        setup_body_s=setup_s,
        attempted=len(clip_s),
        failed=0,
        items_per_ref=len(clip_s) / sum(clip_ref),
        items_per_s=len(clip_s) / sum(clip_s),
        op_p50_ref=statistics.median(clip_ref),
        op_p50_ms=1000.0 * statistics.median(clip_s),
        info={"clips": len(clip_s), "clip_s": clip_s,
              "epe_nm": [o.epe_ilt_nm for o in outcomes],
              "epe_rule_opc_nm": [o.epe_rule_opc_nm for o in outcomes]},
    )
    if ctx.trace:
        spans = recorder.spans
        own = self_time_by_name(spans)
        gradients = recorder.named("nn.input_gradient")
        verifies = recorder.named("ilt.verify")
        result.per_layer.update({
            "nn.input_gradient_ms":
                1000.0 * own["nn.input_gradient"] / len(gradients),
            "ilt.verify_ms": 1000.0 * own["ilt.verify"] / len(verifies),
            "ilt.verifications_per_clip": len(verifies) / len(clip_s),
            "ilt.descent_self_ms": 1000.0 * own[ROOT_SPAN] / len(clip_s),
            "ilt.improved_share": statistics.mean(
                o.epe_ilt_nm < o.epe_rule_opc_nm for o in outcomes),
            "ilt.epe_nm": statistics.mean(o.epe_ilt_nm for o in outcomes),
            "trace.coverage": coverage(spans, ROOT_SPAN),
        })
    return result
