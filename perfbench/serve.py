"""serve: the set-up-trained reduced LithoGAN behind ``api.serve_loop``.

Two phases over the held-out masks:

* open loop at a fixed ``RATE`` (about 40% of capacity on a 2-core host):
  independent users, each request timed from when it was *due*, so a stall
  also counts against the requests scheduled behind it.  At 40 clips/s the
  p50 swung 58-124 ms between runs; 20 clips/s keeps it steady;
* closed loop with ``IN_FLIGHT`` requests outstanding (twice
  ``max_batch``), which measures capacity.

Each phase runs in segments; between two segments the server is idle and
the host reference is timed, so each segment's figures can be put in
reference units.

This exercises the small-batch eval forward, admission, queueing,
coalescing and the guard ladder, with no backward pass.  The server gets
no run logger and no tracer of the program's: the traced run records its
own spans, thread by thread.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque
from contextlib import ExitStack

import numpy as np

from repro import api
from repro.serving import PROVENANCE_FALLBACK, PROVENANCE_MODEL
from repro.sim import LithographySimulator

from harness import Result, SpanRecorder, finite, map_requests_to_batches, \
    run_open_loop, tail_percentile
from reduced_model import set_up

RATE = 20.0
#: twice ``ServerConfig.max_batch``, so a full batch is queued whenever a
#: forward ends.  With only ``max_batch`` outstanding the server can take a
#: partial batch while the client is still resubmitting, and capacity then
#: depends on thread timing
IN_FLIGHT = 16
#: share of ``--seconds`` given to the open loop; the rest is closed loop
OPEN_SHARE = 0.5
#: open-loop requests at least: p90 then has >= 10 samples beyond it
MIN_OPEN = 120
#: open-loop requests per segment (1 s at ``RATE``)
OPEN_SEGMENT = 20
MIN_CLOSED_S = 2.0
#: closed-loop seconds per segment, at most
CLOSED_SEGMENT_S = 0.75
WARMUP = 8
#: a model-served clip may differ from a direct ``predict_resist`` of the
#: same mask in this many pixels (of 64x64): batch composition changes the
#: float summation order, which can flip a pixel sitting at the threshold
TOLERANCE_PX = 4
ANSWER_TIMEOUT_S = 60.0


def _closed_loop(submit, masks, seconds: float, first: int = 0):
    """Keep ``IN_FLIGHT`` requests outstanding for ``seconds``; request
    ``i`` carries mask ``i % len(masks)``, counting from ``first``."""
    pending, done, sent = deque(), [], first
    start = time.perf_counter()
    while len(pending) < IN_FLIGHT:
        pending.append((sent, submit(masks[sent % len(masks)])))
        sent += 1
    while pending:
        index, future = pending.popleft()
        future.wait(ANSWER_TIMEOUT_S)
        done.append((index, future))
        if time.perf_counter() - start < seconds:
            pending.append((sent, submit(masks[sent % len(masks)])))
            sent += 1
    return done


def _turns(finished) -> list:
    """Times between a completion and the one ``IN_FLIGHT`` later, i.e.
    full turns of the in-flight window.  ``IN_FLIGHT`` over their median is
    the capacity; the median keeps a stall of the host from setting it."""
    finished = sorted(finished)
    return [later - earlier for earlier, later
            in zip(finished, finished[IN_FLIGHT:])]


def run(ctx) -> Result:
    config, trained, setup_s = set_up(ctx)
    model = trained.model
    masks = trained.test_set.masks
    simulator = LithographySimulator(config)
    n_open = OPEN_SEGMENT * math.ceil(
        max(MIN_OPEN, RATE * OPEN_SHARE * ctx.seconds) / OPEN_SEGMENT)
    closed_s = max(MIN_CLOSED_S, ctx.seconds - n_open / RATE)
    n_closed = math.ceil(closed_s / CLOSED_SEGMENT_S)
    reference = ctx.reference

    recorder = SpanRecorder() if ctx.trace else None
    forwarded = []
    with ExitStack() as stack:
        if ctx.trace:
            stack.enter_context(recorder.patched([
                (model, "predict_raw", "models.forward"),
                (model.cgan, "predict_mono", "models.generator"),
                (model, "predict_centers", "models.center_cnn"),
                (simulator, "simulate_mask_image", "sim.fallback"),
            ]))
            timed = model.predict_raw

            def capture(batch):
                forwarded.append(batch)
                return timed(batch)

            model.predict_raw = capture  # removed with the patches
        with api.serve_loop(model, config=config,
                            simulator=simulator) as server:
            warm = [server.submit(masks[i % len(masks)])
                    for i in range(WARMUP)]
            for future in warm:
                future.wait(ANSWER_TIMEOUT_S)
            open_segments = []
            reference.sample(OPEN_SEGMENT / RATE)
            for first in range(0, n_open, OPEN_SEGMENT):
                payloads = [masks[i % len(masks)]
                            for i in range(first, first + OPEN_SEGMENT)]
                segment = run_open_loop(server.submit, payloads, RATE)
                for future in segment[2]:
                    future.wait(ANSWER_TIMEOUT_S)
                open_segments.append(segment)
                reference.sample(OPEN_SEGMENT / RATE)
            open_refs = reference.samples[-len(open_segments) - 1:]
            closed_segments = []
            for _ in range(n_closed):
                closed_segments.append(_closed_loop(
                    server.submit, masks, closed_s / n_closed,
                    sum(map(len, closed_segments))))
                reference.sample(closed_s / n_closed)
            closed_refs = reference.samples[-n_closed - 1:]

    due = [d for segment in open_segments for d in segment[0]]
    sent = [s for segment in open_segments for s in segment[1]]
    opened = [f for segment in open_segments for f in segment[2]]
    closed = [done for segment in closed_segments for done in segment]

    requests = (
        [(i % len(masks), f) for i, f in enumerate(warm)]
        + [(i % len(masks), f) for i, f in enumerate(opened)]
        + [(i % len(masks), f) for i, f in closed]
    )
    unanswered = sum(not f.done() for _, f in requests)
    errors = sum(f.done() and f.error() is not None for _, f in requests)
    ctx.check("all_answered", unanswered == 0, f"{unanswered} unanswered")
    answered = [(m, f.result()) for m, f in requests
                if f.done() and f.error() is None]
    expected = model.predict_resist(masks)
    direct = [(m, clip) for m, clip in answered
              if clip.provenance == PROVENANCE_MODEL
              and clip.attempts == (PROVENANCE_MODEL,)]
    worst = max((int(np.sum(clip.resist != expected[m]))
                 for m, clip in direct), default=0)
    ctx.check("served_matches_model", worst <= TOLERANCE_PX,
              f"{len(direct)} first-rung clips, worst {worst} px differ")

    latencies = [
        f.resolved_at - d if f.done() and f.error() is None else math.inf
        for d, f in zip(due, opened)
    ]
    # a segment's figures are divided by the mean of the two reference
    # samples around it
    open_ref = [0.5 * (before + after) for before, after
                in zip(open_refs, open_refs[1:]) for _ in range(OPEN_SEGMENT)]
    turns, turns_ref, closed_figures = [], [], []
    for segment, before, after in zip(closed_segments, closed_refs,
                                      closed_refs[1:]):
        own = _turns(f.resolved_at for _, f in segment if f.done())
        turns.extend(own)
        turns_ref.extend(turn / (0.5 * (before + after)) for turn in own)
        closed_figures.append((IN_FLIGHT / statistics.median(own), after))
    served = [clip for _, clip in answered]
    result = Result(
        setup_body_s=setup_s,
        attempted=len(requests),
        failed=unanswered + errors,
        items_per_ref=IN_FLIGHT / statistics.median(turns_ref),
        items_per_s=IN_FLIGHT / statistics.median(turns),
        op_p50_ref=finite(statistics.median(
            latency / ref for latency, ref in zip(latencies, open_ref))),
        op_p50_ms=finite(1000.0 * statistics.median(latencies)),
        info={
            "open_requests": n_open,
            "closed_requests": len(closed),
            "closed_turns": len(turns),
            # per segment: raw capacity (clips/s) and the reference sample
            # (s) that closed it
            "closed_segments": closed_figures,
            "open_segments": [
                (statistics.median(latencies[k:k + OPEN_SEGMENT]), ref)
                for k, ref in zip(range(0, n_open, OPEN_SEGMENT),
                                  open_refs[1:])],
            "fallbacks": sum(c.provenance == PROVENANCE_FALLBACK
                             for c in served),
            "retries": sum(len(c.attempts) > 1 for c in served),
        },
    )
    if ctx.trace:
        open_wall = sum(max(f.resolved_at for f in segment[2]) - segment[0][0]
                        for segment in open_segments)
        result.per_layer.update(_per_layer(
            ctx, recorder, forwarded, requests, masks, due, sent, opened,
            latencies, served, open_wall))
    return result


def _per_layer(ctx, recorder, forwarded, requests, masks, due, sent, opened,
               latencies, served, open_wall) -> dict:
    forwards = recorder.named("models.forward")
    ok = [(m, f) for m, f in requests if f.done() and f.error() is None]
    try:
        batch_of = map_requests_to_batches([masks[m] for m, _ in ok],
                                           forwarded)
        mapped = ctx.check("request_batch_mapping", True,
                           f"{len(ok)} requests in {len(forwarded)} batches")
    except ValueError as exc:
        mapped = ctx.check("request_batch_mapping", False, str(exc))
    values = {"trace.coverage": 0.0}
    if mapped and len(ok) == len(requests):
        first_open = WARMUP
        open_batches = sorted(set(batch_of[first_open:first_open
                                           + len(opened)]))
        queue, post, stages, walls = [], [], 0.0, 0.0
        for k, (d, f) in enumerate(zip(due, opened)):
            span = forwards[batch_of[first_open + k]]
            queue.append(span.start - d)
            post.append(f.resolved_at - span.end)
            stages += max(0.0, span.start - d) + span.duration \
                + max(0.0, f.resolved_at - span.end)
            walls += f.resolved_at - d
        open_ids = {forwards[b].id for b in open_batches}
        child = {name: [s.duration for s in recorder.named(name)
                        if s.parent in open_ids]
                 for name in ("models.generator", "models.center_cnn")}
        closed_batches = sorted(set(batch_of[first_open + len(opened):]))
        values.update({
            "serving.queue_wait_ms_p50": 1000.0 * statistics.median(queue),
            "serving.post_forward_ms_p50": 1000.0 * statistics.median(post),
            "models.forward_ms_per_batch": 1000.0 * statistics.mean(
                forwards[b].duration for b in open_batches),
            "models.generator_ms_per_batch":
                1000.0 * statistics.mean(child["models.generator"]),
            "models.center_cnn_ms_per_batch":
                1000.0 * statistics.mean(child["models.center_cnn"]),
            "serving.batch_size_mean": statistics.mean(
                len(forwarded[b]) for b in closed_batches),
            # forward time over the open-loop segments' wall time
            "serving.busy_share": sum(
                forwards[b].duration for b in open_batches) / open_wall,
            # per request, queue wait + forward + post-forward against
            # due->resolved latency: short of 1 when the mapping is wrong
            "trace.coverage": stages / walls,
        })
    fallbacks = recorder.named("sim.fallback")
    values.update({
        "serving.fallback_share": sum(
            c.provenance == PROVENANCE_FALLBACK for c in served) / len(served),
        "serving.retry_share": sum(
            c.provenance == PROVENANCE_MODEL and len(c.attempts) > 1
            for c in served) / len(served),
        "sim.fallback_ms": 1000.0 * statistics.mean(
            s.duration for s in fallbacks) if fallbacks else 0.0,
        "serving.sender_lag_ms_max": 1000.0 * max(
            s - d for s, d in zip(sent, due)),
        "serving.latency_p90_ms": finite(
            1000.0 * tail_percentile(latencies, 0.9)),
    })
    return values
