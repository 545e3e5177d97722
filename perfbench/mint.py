"""mint: ``api.mint`` with model-based OPC at reduced N10 scale, one worker.

Layout, OPC, optics and resist do all the work and ``repro.nn`` does none,
so a kernel change must leave this workload unmoved.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from contextlib import nullcontext

import numpy as np

import repro.data.synthesis as synthesis
import repro.sim.pipeline as pipeline
from repro import api
from repro.config import N10, reduced
from repro.errors import DataIntegrityError
from repro.sim import LithographySimulator

from harness import Result, SpanRecorder, bracketed, coverage, \
    self_time_by_name, total_time

#: clips per timed ``api.mint`` call
CLIPS = 16
#: set-up is cheap here, so it is repeated and its median reported
SETUP_REPEATS = 3

ROOT_SPAN = "data.mint"


def _config(seed: int, call: int, parallel):
    """Call ``call`` of a run mints its own clips, all derived from ``seed``."""
    base_seed = int(np.random.SeedSequence([seed, call]).generate_state(1)[0])
    return reduced(N10, num_clips=CLIPS, seed=base_seed).replace(
        parallel=parallel)


def _set_up(ctx):
    """Fresh kernel cache, then the optical kernels every clip images with."""
    parallel = ctx.kernel_cache()
    ctx.build_kernels(_config(ctx.seed, 0, parallel))
    return parallel


def instrument(recorder: SpanRecorder):
    sim = LithographySimulator
    return recorder.patched([
        (synthesis, "generate_clip", "layout"),
        (pipeline, "build_mask_layout", "layout"),
        (synthesis, "render_mask_rgb", "layout"),
        (sim, "aerial_image", "optics.aerial"),
        (sim, "develop_pattern", "resist.develop"),
        (sim, "golden_window", "sim.contour"),
        (sim, "printed_window_bbox", "sim.contour"),
        (sim, "refine_target_opc", "sim.opc"),
    ])


def _archive(ctx, config) -> tuple:
    """Mint to disk; returns the archive's SHA-256 and whether it loads
    under the strict integrity policy."""
    path = api.mint(config, workers=1, model_based_opc=True,
                    out=ctx.fresh_dir("archive") / "clips.npz").path
    try:
        api.load_data(path, config, policy="strict")
        intact = True
    except DataIntegrityError:
        intact = False
    return hashlib.sha256(path.read_bytes()).hexdigest(), intact


def run(ctx) -> Result:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        parallel = _set_up(ctx)
        setup_s.append(time.perf_counter() - started)

    recorder = SpanRecorder() if ctx.trace else None
    call_s, datasets = [], []
    with instrument(recorder) if ctx.trace else nullcontext():
        ctx.reference.sample()
        begun = time.perf_counter()
        while not call_s or time.perf_counter() - begun < ctx.seconds:
            config = _config(ctx.seed, len(call_s), parallel)
            with recorder.span(ROOT_SPAN) if ctx.trace else nullcontext():
                started = time.perf_counter()
                minted = api.mint(config, workers=1, model_based_opc=True)
                call_s.append(time.perf_counter() - started)
            datasets.append(minted.dataset)
            ctx.reference.sample(call_s[-1])

    first = _config(ctx.seed, 0, parallel)
    digests = [_archive(ctx, first) for _ in range(2)]
    ctx.check("archive_intact", all(intact for _, intact in digests),
              "strict integrity verification of two archives")
    ctx.check("archive_deterministic", digests[0][0] == digests[1][0],
              digests[0][0])
    again = api.mint(first, workers=1, model_based_opc=True).dataset
    ctx.check("timed_mint_matches",
              np.array_equal(again.masks, datasets[0].masks)
              and np.array_equal(again.resists, datasets[0].resists),
              "timed call 0 equals an untimed re-mint of its seed")

    clips = CLIPS * len(call_s)
    attempts = sum(max(d.provenance.attempts) + 1 for d in datasets)
    call_ref = bracketed(call_s, ctx.reference.samples)
    result = Result(
        setup_body_s=setup_s,
        attempted=clips,
        failed=0,
        items_per_ref=clips / sum(call_ref),
        items_per_s=clips / sum(call_s),
        op_p50_ref=statistics.median(call_ref) / CLIPS,
        op_p50_ms=1000.0 * statistics.median(call_s) / CLIPS,
        info={"calls": len(call_s), "clips": clips, "call_s": call_s},
    )
    if ctx.trace:
        spans = recorder.spans
        own = self_time_by_name(spans)
        aerial = recorder.named("optics.aerial")
        develop = recorder.named("resist.develop")
        result.per_layer.update({
            "layout.ms_per_clip": 1000.0 * total_time(spans, "layout") / clips,
            "optics.aerial_ms": 1000.0 * own["optics.aerial"] / len(aerial),
            "optics.aerial_calls_per_clip": len(aerial) / clips,
            "resist.develop_ms":
                1000.0 * own["resist.develop"] / len(develop),
            "sim.opc_ms_per_clip": 1000.0 * total_time(spans, "sim.opc") / clips,
            "data.attempt_yield": clips / attempts,
            "trace.coverage": coverage(spans, ROOT_SPAN),
        })
    return result
