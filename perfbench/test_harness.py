"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    HostReference,
    Span,
    SpanRecorder,
    bracketed,
    coverage,
    map_requests_to_batches,
    run_open_loop,
    self_times,
    tail_percentile,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


# -- percentiles ---------------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1, 101), 0.9) == 90
    with pytest.raises(ValueError):
        tail_percentile(range(1, 100), 0.9)


def test_failed_requests_count_as_infinitely_late():
    values = [1.0] * 100 + [float("inf")] * 20
    assert tail_percentile(values, 0.9) == float("inf")
    assert tail_percentile(values, 0.5) == 1.0


# -- open loop -----------------------------------------------------------------


def test_open_loop_requests_are_due_on_schedule():
    clock = FakeClock()
    due, sent, futures = run_open_loop(lambda p: p * 10, [1, 2, 3, 4], 20.0,
                                       clock=clock, sleep=clock.sleep)
    assert due == pytest.approx([100.0, 100.05, 100.10, 100.15])
    assert sent == pytest.approx(due)
    assert futures == [10, 20, 30, 40]


def test_a_slow_submit_shows_as_sender_lag_not_a_later_due_time():
    clock = FakeClock()

    def submit(payload):
        clock.now += 0.12 if payload == 0 else 0.0  # the first one stalls
        return payload

    due, sent, _ = run_open_loop(submit, [0, 1, 2, 3], 20.0,
                                 clock=clock, sleep=clock.sleep)
    assert due == pytest.approx([100.0, 100.05, 100.10, 100.15])
    lag = [s - d for s, d in zip(sent, due)]
    assert lag == pytest.approx([0.0, 0.07, 0.02, 0.0])


# -- reference units -----------------------------------------------------------


def test_an_operation_is_divided_by_the_references_around_it():
    assert bracketed([3.0, 8.0], [1.0, 2.0, 6.0]) == pytest.approx([2.0, 2.0])
    with pytest.raises(ValueError, match="3 reference samples"):
        bracketed([3.0, 8.0], [1.0, 2.0])


def test_a_reference_sample_lasts_a_share_of_the_operation_before_it():
    clock = FakeClock()
    reference = HostReference(clock=clock)
    reference.work = lambda: clock.sleep(2.0)
    assert reference.sample() == pytest.approx(2.0)  # REPEATS runs: 10 s
    assert clock.now == pytest.approx(110.0)
    # after a 150 s operation: at least 15 s, so 8 runs of 2 s
    assert reference.sample(after_s=150.0) == pytest.approx(2.0)
    assert clock.now == pytest.approx(126.0)
    assert reference.samples == pytest.approx([2.0, 2.0])


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "b", 3.0, 5.0, 0, 1),  # overlaps a: covered once
        Span(3, "leaf", 1.5, 2.0, 1, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(2.5)
    assert own[2] == pytest.approx(2.0)
    assert coverage(spans, "root") == pytest.approx(0.4)


def test_recorder_parents_spans_per_thread_and_restores_patches():
    class Net:
        def forward(self, x):
            return x + 1

    net = Net()
    recorder = SpanRecorder()
    with recorder.patched([(net, "forward", "net.forward")]):
        with recorder.span("root"):
            assert net.forward(1) == 2
    assert "forward" not in vars(net)
    root, = recorder.named("root")
    child, = recorder.named("net.forward")
    assert child.parent == root.id and root.parent is None


# -- request-to-batch mapping --------------------------------------------------


def _masks(count):
    return [np.full((3, 4, 4), i, dtype=np.float32) for i in range(count)]


def test_requests_map_to_batches_by_fifo_position():
    masks = _masks(5)
    batches = [np.stack(masks[:1]), np.stack(masks[1:4]), np.stack(masks[4:])]
    assert map_requests_to_batches(masks, batches) == [0, 1, 1, 1, 2]


def test_mapping_fails_when_a_row_holds_another_mask():
    masks = _masks(3)
    batches = [np.stack([masks[1], masks[0]]), np.stack(masks[2:])]
    with pytest.raises(ValueError, match="request 0"):
        map_requests_to_batches(masks, batches)


def test_mapping_fails_when_counts_differ():
    masks = _masks(3)
    with pytest.raises(ValueError, match="forwarded rows"):
        map_requests_to_batches(masks, [np.stack(masks[:2])])
