"""train-paper: back-to-back ``CganModel.train_step`` at paper scale.

256x256 images, base width 64, batch 4 (``paper_n10()``): im2col, GEMM and
Adam over 61M parameters, with no serving code and no simulator in the
timed loop.  The first step is a warm-up and belongs to set-up.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from contextlib import nullcontext

import numpy as np

from repro import api
from repro.config import paper_n10, tiny
from repro.core.cgan import CganModel
from repro.errors import TrainingError
from repro.telemetry import LayerProfiler, profiled

from harness import Result, SpanRecorder, bracketed, coverage, \
    digest_arrays, self_time_by_name

#: minted paper-scale clips the steps cycle through (two batches of 4)
CLIPS = 8

ROOT_SPAN = "core.train_step"

#: per-layer metric -> op names of ``repro.nn`` layers it sums
OP_GROUPS = {
    "nn.BN.s": ("BN",),
    "nn.act.s": ("ReLU", "LReLU", "Sigmoid", "Tanh"),
    "nn.Dropout.s": ("Dropout",),
}


def instrument(model: CganModel, recorder: SpanRecorder):
    """Span every call ``train_step`` makes into a network or optimizer."""
    return recorder.patched([
        (model, "train_step", ROOT_SPAN),
        (model.generator, "forward", "nn.generator.forward"),
        (model.generator, "backward", "nn.generator.backward"),
        (model.discriminator, "forward", "nn.discriminator.forward"),
        (model.discriminator, "backward", "nn.discriminator.backward"),
        (model.opt_g, "step", "nn.optim.adam"),
        (model.opt_d, "step", "nn.optim.adam"),
    ])


def _batches(count: int, batch: int, rng: np.random.Generator):
    order = rng.permutation(count)
    return [order[start:start + batch] for start in range(0, count, batch)]


def _set_up(ctx):
    config = paper_n10()
    config = config.replace(
        tech=dataclasses.replace(config.tech, num_clips=CLIPS),
        training=dataclasses.replace(config.training, seed=ctx.seed),
        parallel=ctx.kernel_cache(),
    )
    ctx.build_kernels(config)
    dataset = api.mint(config, workers=1).dataset
    rng = np.random.default_rng(ctx.seed)
    model = CganModel(config.model, config.training, rng)
    targets = model.expand_targets(dataset.recentered_resists())
    batches = _batches(CLIPS, config.training.batch_size, rng)
    return model, dataset.masks, targets, batches


def _tracing_is_transparent(seed: int) -> bool:
    """Two same-seed tiny models: one plain, one under the same spans and
    layer profiler as the timed run.  Their losses must be bit-identical."""
    config = tiny(seed=seed)
    rng = np.random.default_rng(seed)
    masks = rng.random((2, 3, 32, 32), dtype=np.float32)
    resists = (rng.random((2, 1, 32, 32)) > 0.5).astype(np.float32)
    losses = []
    for traced in (False, True):
        model = CganModel(config.model, config.training,
                          np.random.default_rng(seed))
        targets = model.expand_targets(resists)
        if traced:
            with instrument(model, SpanRecorder()), profiled(
                    LayerProfiler(), model.generator, model.discriminator):
                losses.append([model.train_step(masks, targets)
                               for _ in range(2)])
        else:
            losses.append([model.train_step(masks, targets)
                           for _ in range(2)])
    return losses[0] == losses[1]


def run(ctx) -> Result:
    started = time.perf_counter()
    model, masks, targets, batches = _set_up(ctx)
    warm_up = time.perf_counter()
    model.train_step(masks[batches[0]], targets[batches[0]])
    warm_s = time.perf_counter() - warm_up
    setup_s = time.perf_counter() - started

    recorder = SpanRecorder() if ctx.trace else None
    profiler = LayerProfiler()
    step_s, losses, failed = [], [], 0
    step = 1
    with (instrument(model, recorder) if ctx.trace else nullcontext()), \
            (profiled(profiler, model.generator, model.discriminator)
             if ctx.trace else nullcontext()):
        ctx.reference.sample(warm_s)
        begun = time.perf_counter()
        while not step_s or time.perf_counter() - begun < ctx.seconds:
            index = batches[step % len(batches)]
            step += 1
            started = time.perf_counter()
            try:
                loss = model.train_step(masks[index], targets[index])
            except TrainingError:  # a diverged step is a failed operation
                failed += 1
                loss = (float("nan"),) * 3
            step_s.append(time.perf_counter() - started)
            losses.append(loss)
            ctx.reference.sample(step_s[-1])

    batch = len(batches[0])
    step_ref = bracketed(step_s, ctx.reference.samples)
    ctx.check("losses_finite", bool(np.all(np.isfinite(losses))),
              f"{len(losses)} steps")
    ctx.check("tracing_transparent", _tracing_is_transparent(ctx.seed),
              "traced and untraced tiny-model losses are bit-identical")
    result = Result(
        setup_body_s=[setup_s],
        attempted=len(step_s),
        failed=failed,
        items_per_ref=batch * len(step_s) / sum(step_ref),
        items_per_s=batch * len(step_s) / sum(step_s),
        op_p50_ref=statistics.median(step_ref),
        op_p50_ms=1000.0 * statistics.median(step_s),
        info={
            "steps": len(step_s),
            "batch": batch,
            "step_s": step_s,
            "loss_sha256": digest_arrays([np.asarray(losses)]),
        },
    )
    if ctx.trace:
        result.per_layer.update(_per_layer(recorder, profiler, len(step_s)))
    return result


def _per_layer(recorder: SpanRecorder, profiler: LayerProfiler,
               steps: int) -> dict:
    """Per-step layer split.  FLOPs are ``Layer.flops`` forward counts;
    activation MB is summed from output tensor sizes, not measured."""
    own = self_time_by_name(recorder.spans)
    values = {
        "nn.generator.forward_s": own.get("nn.generator.forward", 0.0),
        "nn.generator.backward_s": own.get("nn.generator.backward", 0.0),
        "nn.discriminator.forward_s": own.get("nn.discriminator.forward", 0.0),
        "nn.discriminator.backward_s":
            own.get("nn.discriminator.backward", 0.0),
        "nn.optim.adam_s": own.get("nn.optim.adam", 0.0),
        "core.train_step.self_s": own.get(ROOT_SPAN, 0.0),
    }
    report = profiler.report()
    by_op = {}
    for row in report.rows:
        fwd, bwd, flops = by_op.get(row.op, (0.0, 0.0, 0))
        by_op[row.op] = (fwd + row.forward_s, bwd + row.backward_s,
                         flops + row.flops)
    for op in ("Conv", "Deconv"):
        fwd, bwd, _ = by_op.get(op, (0.0, 0.0, 0))
        values[f"nn.{op}.forward_s"] = fwd
        values[f"nn.{op}.backward_s"] = bwd
    for name, ops in OP_GROUPS.items():
        values[name] = sum(sum(by_op.get(op, (0.0, 0.0, 0))[:2])
                           for op in ops)
    values = {name: value / steps for name, value in values.items()}
    conv_fwd_s, _, conv_flops = by_op.get("Conv", (0.0, 0.0, 0))
    values["nn.Conv.gflops_per_s"] = (
        conv_flops / conv_fwd_s / 1e9 if conv_fwd_s > 0 else 0.0)
    values["nn.flops_per_step"] = report.flops / steps
    values["nn.activation_mb_per_step"] = sum(
        row.activation_bytes for row in report.rows) / steps / 1e6
    values["trace.coverage"] = coverage(recorder.spans, ROOT_SPAN)
    return values

