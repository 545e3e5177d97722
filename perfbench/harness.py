"""Measurement helpers shared by the benchmark's workloads.

Everything here lives on the benchmark's side of the program boundary:
spans are recorded around calls *into* ``repro`` layers (by temporarily
wrapping the called function), never from inside ``src/``.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import platform
import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One timed call into a layer: who called it, on which thread, when."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; each thread has its own stack of open spans,
    so a span's parent is always the innermost open span of *its* thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident()))

    @contextmanager
    def patched(self, targets: Sequence[Tuple[object, str, str]]):
        """Time every call of ``owner.attr`` as span ``name`` for a block.

        ``owner`` may be a module, a class or an instance; the original
        attribute is restored (or the instance override removed) on exit.
        """
        undo = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                own = attr in vars(owner)
                setattr(owner, attr, self._timed(original, name))
                undo.append((owner, attr, original, own))
            yield self
        finally:
            for owner, attr, original, own in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def _timed(self, function, name: str):
        def timed(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return timed

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals


def total_time(spans: Sequence[Span], name: str) -> float:
    return sum(span.duration for span in spans if span.name == name)


def coverage(spans: Sequence[Span], root: str) -> float:
    """Share of the ``root`` spans' wall time covered by named layer spans.

    The root's own self time is the part no layer span accounts for.
    """
    roots = [span for span in spans if span.name == root]
    wall = sum(span.duration for span in roots)
    if wall <= 0:
        return 0.0
    own = self_times(spans)
    return 1.0 - sum(own[span.id] for span in roots) / wall


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(values: Sequence[float], q: float,
                    min_beyond: int = 10) -> float:
    """Nearest-rank ``q`` quantile, refused unless ``min_beyond`` samples
    lie above it (a tail read off fewer samples is noise)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < min_beyond:
        raise ValueError(
            f"p{100 * q:g} of {len(ordered)} samples has only "
            f"{len(ordered) - rank} beyond it; need {min_beyond}"
        )
    return ordered[rank - 1]


def finite(value: float, ceiling: float = 1e12) -> float:
    """Failed requests count as infinitely late; JSON has no infinity."""
    return value if math.isfinite(value) else ceiling


# ---------------------------------------------------------------------------
# Host speed reference
# ---------------------------------------------------------------------------


class HostReference:
    """Times a fixed piece of NumPy work that owes nothing to ``repro``.

    The benchmark runs on a few cores of a shared host whose speed drifts
    by a third for minutes at a time.  Process CPU time tracks wall time
    through such a slowdown (nothing is stolen that could be subtracted)
    and no hardware counters are exposed, so wall time alone measures the
    neighbours as much as the program.  Timing this reference just before
    and just after each operation gives the operation's cost in *reference
    units*: a host slowdown moves the operation and the reference alike,
    a change to the program moves the operation only.

    The work mixes what the workloads spend their time on: 2-D FFTs,
    element-wise array passes, small float32 GEMMs and interpreted Python.
    It runs on one thread with small arrays: a version with a 384x384 GEMM
    on the BLAS threads and 128x128 FFTs followed the workloads' own speed
    less closely.
    """

    #: timed runs per sample, at least
    REPEATS = 5
    #: a sample taken after an operation of ``d`` seconds lasts at least
    #: ``SHARE * d``, so the reference gets about this share of a run
    SHARE = 0.1

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        rng = np.random.default_rng(0)
        self._image = rng.standard_normal((64, 64))
        self._kernel = np.fft.fft2(rng.standard_normal((64, 64)))
        self._matrix = rng.standard_normal((96, 96), dtype=np.float32)
        self.clock = clock
        #: seconds of each sample, in the order taken
        self.samples: List[float] = []
        self.work()  # warm-up, not a sample

    def work(self) -> int:
        image = self._image
        for _ in range(24):
            blurred = np.fft.ifft2(np.fft.fft2(image) * self._kernel).real
            image = np.tanh(blurred / (1e-9 + np.abs(blurred).max()))
            sum(float(value) for value in image[0, :16])
        for _ in range(8):
            self._matrix @ self._matrix
        state, table = 0, {}
        for step in range(20000):
            table[step & 255] = state
            state = (state * 31 + step) % 1000003
        return state

    def sample(self, after_s: float = 0.0) -> float:
        """Seconds per run of the work, averaged over ``REPEATS`` runs and
        on until ``SHARE * after_s`` has passed.

        The host flips between a fast and a slow speed many times a second
        and an operation pays the mix of the two over its whole length; a
        mean over a span in proportion to the operation follows that mix,
        where a median of a few runs lands on one speed or the other.
        """
        runs, started = 0, self.clock()
        while (runs < self.REPEATS
               or self.clock() - started < self.SHARE * after_s):
            self.work()
            runs += 1
        self.samples.append((self.clock() - started) / runs)
        return self.samples[-1]


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and so every thread it starts from now on,
    to the lowest CPU it may run on; returns that CPU.

    The shared host slows its CPUs unevenly, so ``HostReference`` is timed
    on the CPU that runs the benchmark's own thread and the serving loop.
    Threads started earlier, such as the BLAS workers NumPy starts when it
    loads, keep every CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def bracketed(durations: Sequence[float],
              references: Sequence[float]) -> List[float]:
    """Each duration in reference units.

    Operation ``i`` ran between reference samples ``i`` and ``i + 1``, so
    ``references`` holds one sample more than ``durations``; the operation
    is divided by the mean of the two samples around it.
    """
    if len(references) != len(durations) + 1:
        raise ValueError(f"{len(durations)} operations need "
                         f"{len(durations) + 1} reference samples, "
                         f"got {len(references)}")
    return [duration / (0.5 * (before + after)) for duration, before, after
            in zip(durations, references, references[1:])]


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


def run_open_loop(submit: Callable, payloads: Sequence, rate: float,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep):
    """Send ``payloads`` on a fixed schedule, whatever the server does.

    Returns ``(due, sent, futures)``: request ``i`` is due at
    ``start + i / rate``; ``sent[i] - due[i]`` is how late the sender was.
    Latency is measured from ``due``, so a stall also delays the requests
    scheduled behind it.
    """
    start = clock()
    due, sent, futures = [], [], []
    for index, payload in enumerate(payloads):
        when = start + index / rate
        now = clock()
        if when > now:
            sleep(when - now)
        sent.append(clock())
        due.append(when)
        futures.append(submit(payload))
    return due, sent, futures


def map_requests_to_batches(request_masks: Sequence[np.ndarray],
                            batches: Sequence[np.ndarray]) -> List[int]:
    """Batch index of each request, by FIFO position, checked by content.

    The server pops its queue in order, so the ``k``-th forwarded request
    is row ``k`` of the concatenated forward batches.  Raises ValueError
    when the counts differ or a row does not hold the request's mask.
    """
    sizes = [len(batch) for batch in batches]
    if sum(sizes) != len(request_masks):
        raise ValueError(
            f"{len(request_masks)} requests but {sum(sizes)} forwarded rows"
        )
    mapping = []
    position = 0
    for index, batch in enumerate(batches):
        for row in batch:
            if not np.array_equal(np.asarray(request_masks[position],
                                             dtype=np.float32),
                                  np.asarray(row, dtype=np.float32)):
                raise ValueError(
                    f"request {position} does not match row of batch {index}"
                )
            mapping.append(index)
            position += 1
    return mapping


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sgemm_gflops(n: int = 2048, repeats: int = 3) -> float:
    """Best float32 matrix-multiply rate of this host, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - started)
    return 2.0 * n ** 3 / best / 1e9


def _blas_threads() -> Optional[int]:
    """OpenBLAS's thread count, read from the library NumPy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, so a result names the exact code
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_fingerprint(src: Path, sgemm: float, pinned_cpu: int) -> dict:
    from repro.telemetry import build_fingerprint

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "build": build_fingerprint(),
        "source_sha256": source_digest(src),
        "sgemm_gflops": round(sgemm, 3),
    }


def digest_arrays(arrays: Sequence[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@dataclass
class Result:
    """What one workload measured; ``run.py`` turns it into metrics."""

    #: seconds of each repetition of the workload's set-up body
    setup_body_s: List[float]
    attempted: int
    failed: int
    #: throughput in items per reference unit (``HostReference``), and as
    #: measured in items per second of wall time
    items_per_ref: float
    items_per_s: float
    #: median operation in reference units, and in wall-time milliseconds
    op_p50_ref: float
    op_p50_ms: float
    per_layer: Dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
