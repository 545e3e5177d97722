"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

run from the root of a checkout (it imports ``repro`` from ``src/``).  The
workload seed builds every input; the program only receives the generated
inputs.  ``BENCHMARK.json`` at the checkout root names the workloads and
the metrics with their units; this script prints, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics, measured with
no instrumentation attached; with ``--trace 1`` they are the per-layer
metrics, taken by timing the calls into each layer from this directory's
code (a layer a workload never calls reads 0).  The line before it is an
``info`` object: host fingerprint, checks and workload details.

End-to-end metrics are the same five on every workload, each read off
that workload's own operation:

=================  ===================  ==============  ==============  ==============
metric             train-paper          serve           mint            ilt
=================  ===================  ==============  ==============  ==============
``items_per_ref``  samples per ref      clips per ref   clips minted    clips optimized
                   over the timed       in the closed   per ref         per ref
                   train steps          loop
``op_p50_ref``     median train step    open-loop p50,  median per      median per
                                        due->resolved   minted clip     optimized clip
``setup_s``        interpreter start to the first timed operation (imports plus the
                   median of the workload's repeated set-up body), in seconds
``peak_rss_mb``    peak resident memory of the process
``ok_share``       1 - failed / attempted; operations plus correctness checks
=================  ===================  ==============  ==============  ==============

Throughput and latency are in *reference units* ("ref"): each timed
operation (or serving segment) is divided by the time a fixed NumPy
reference took just before and just after it on the same host
(``harness.HostReference``).  The host is shared and its speed drifts by
a third over minutes; the reference drifts with it, the program's own
changes do not move it.  The reference is timed on the thread that runs
the workload, pinned with every thread it starts to one CPU.  The same
figures in wall time (``items_per_s``, ``op_p50_ms``) and the reference's
own time are in the ``info`` line.

Every run makes its working files (kernel cache, archives, temp files)
in a fresh directory under ``.perfbench-work/`` of the checkout and
deletes it at exit; nothing under the user's home directory is read.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: workload name -> module in this directory whose ``run(ctx)`` measures it
WORKLOADS = {
    "train-paper": "train_paper",
    "serve": "serve",
    "mint": "mint",
    "ilt": "ilt",
}

#: a traced run fails its accounting check when layer spans cover less
#: than this share of the timed phase
MIN_COVERAGE = 0.9


class Context:
    """What a workload gets: its inputs' seed, its budget, and a place to
    record correctness checks and scratch files."""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path):
        self.seed = seed % 2 ** 32
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.checks = {}
        from harness import HostReference

        #: timed between operations; see ``HostReference``
        self.reference = HostReference()
        #: seconds of each cold build of the optical kernels
        self.kernel_build_s = []
        self._dirs = 0

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.checks[name] = {"ok": bool(ok), "detail": detail}
        return bool(ok)

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{label}-{self._dirs}"
        path.mkdir()
        return path

    def kernel_cache(self):
        """Point the optics kernel cache at a new empty directory and drop
        the in-process imagers, so every set-up builds its kernels."""
        from repro.config import ParallelConfig
        from repro.optics import configure_kernel_cache
        from repro.optics.imaging import clear_imager_cache

        parallel = ParallelConfig(
            kernel_cache_dir=str(self.fresh_dir("kernels")))
        configure_kernel_cache(parallel)
        clear_imager_cache()
        return parallel

    def build_kernels(self, config) -> None:
        """Build (and time) the optical kernels ``config`` images with."""
        from repro.optics.imaging import get_imager

        started = time.perf_counter()
        get_imager(config.optical, config.tech.cropped_clip_nm,
                   config.optical.grid_size)
        self.kernel_build_s.append(time.perf_counter() - started)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}; run "
                         "from the root of a checkout")
    with open(spec_path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    os.environ["REPRO_KERNEL_CACHE_DIR"] = str(workdir / "default-kernels")
    sys.path.insert(0, str(SRC))
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def measure(args, spec: dict, workdir: Path) -> int:
    import numpy  # noqa: F401  (imports are part of set-up)
    import repro  # noqa: F401

    import harness

    workload = importlib.import_module(WORKLOADS[args.workload])
    imported_s = time.perf_counter() - STARTED
    pinned_cpu = harness.pin_to_one_cpu()
    ctx = Context(args.seed, args.seconds, bool(args.trace), workdir)
    result = workload.run(ctx)

    sgemm = harness.sgemm_gflops()
    reference_ms = 1000.0 * statistics.median(ctx.reference.samples)
    if ctx.trace:
        covered = result.per_layer["trace.coverage"]
        ctx.check("trace_accounting", covered >= MIN_COVERAGE,
                  f"layer spans cover {covered:.3f} of the timed phase")
    failed_checks = sum(not c["ok"] for c in ctx.checks.values())
    attempted = result.attempted + len(ctx.checks)
    failed = result.failed + failed_checks

    if ctx.trace:
        values = {item["name"]: 0.0 for item in spec["per_layer"]}
        values.update(result.per_layer)
        values["optics.kernel_build_s"] = statistics.median(
            ctx.kernel_build_s)
        values["host.sgemm_gflops"] = sgemm
        values["host.reference_ms"] = reference_ms
        values["trace.op_p50_ref"] = result.op_p50_ref
        units = {item["name"]: item["unit"] for item in spec["per_layer"]}
    else:
        values = {
            "setup_s": imported_s + statistics.median(result.setup_body_s),
            "peak_rss_mb": harness.peak_rss_mb(),
            "ok_share": 1.0 - failed / attempted,
            "items_per_ref": result.items_per_ref,
            "op_p50_ref": result.op_p50_ref,
        }
        units = {item["name"]: item["unit"] for item in spec["end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} do not match "
            "BENCHMARK.json"
        )
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": ctx.trace,
        "host": harness.host_fingerprint(SRC, sgemm, pinned_cpu),
        "checks": ctx.checks,
        "wall": {"items_per_s": result.items_per_s,
                 "op_p50_ms": result.op_p50_ms,
                 "reference_ms": reference_ms},
        "details": result.info,
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in sorted(values)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
