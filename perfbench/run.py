"""lipmaps benchmark: run one workload for a fixed time and report its metrics.

Usage, from the root of a lipmaps checkout::

    python3 perfbench/run.py --workload pipeline-1024 --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``pipeline-1024``,
``kernel-rings``, ``batch-random``.  The package is imported from the
checkout's ``src/``; the run fails with exit code 2 if it is not there.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer split
(see ``tracer.py``), the tracing overhead and the time no layer accounts for.

Output: one line per metric (name, value, unit), a JSON line with the
environment, computed counts and failures, and as the last line the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"

SETUP_REPEATS = 4  # before and again after the measured loop, so both ends are sampled
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import lipmaps.cli; "
    "lipmaps.cli._build_parser(); print(time.perf_counter() - t0)"
)

END_TO_END = (
    ("setup_s", "s"),
    ("iter_s_p50", "s"),
    ("iter_s_tail", "s"),
    ("map_mpx_s", "Mpx/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.self_s", "s"),
    ("raster_io.read_s", "s"),
    ("raster_io.write_s", "s"),
    ("raster_io.read_bytes", "B"),
    ("raster_io.write_bytes", "B"),
    ("asplund.map_mult_s", "s"),
    ("asplund.map_add_s", "s"),
    ("asplund.link_s", "s"),
    ("asplund.self_s", "s"),
    ("asplund.offset_passes", "count"),
    ("asplund.probe_cells", "count"),
    ("asplund.probe_runs", "count"),
    ("morphology.dilate_s", "s"),
    ("morphology.erode_s", "s"),
    ("morphology.mask_s", "s"),
    ("morphology.offset_passes", "count"),
    ("morphology.bytes_moved", "B"),
    ("lip.transform_s", "s"),
    ("lip.calls", "count"),
    ("rasters.regime_s", "s"),
    ("rasters.container_s", "s"),
    ("probing.detect_s", "s"),
    ("probing.hits", "count"),
    ("trace.iter_s_p50", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


def setup_times(warm: bool) -> list:
    """Seconds for fresh interpreters to import lipmaps.cli and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + warm):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if i or not warm:  # the first start may compile bytecode
            times.append(float(done.stdout))
    return times


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or the max if none has."""
    xs, n = sorted(samples), len(samples)
    if n < 11:
        return xs[-1], f"max (n={n} < 11, no percentile has 10 samples beyond)"
    k = n - 11
    return xs[k], f"p{100.0 * (k + 1) / n:.1f} (n={n})"


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = sys.modules["numpy"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload, seconds, tracer):
    """Closed loop of iterations for ``seconds``; with a tracer, every second one is traced."""
    untraced, traced, failures = [], [], []
    attempted = 0
    start = perf_counter()
    while True:
        done = untraced + traced
        enough = tracer is None or (untraced and traced)
        if done and enough and perf_counter() - start + statistics.median(done) > seconds:
            break
        on = tracer is not None and len(done) % 2 == 1
        if on:
            tracer.install()
        try:
            outcome = workload.iterate()
        finally:
            if on:
                tracer.uninstall()
        (traced if on else untraced).append(outcome.seconds)
        attempted += outcome.attempted
        failures += outcome.failures
    return untraced, traced, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lipmaps" / "__init__.py").is_file():
        print(f"perfbench: no lipmaps package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    lipmaps = importlib.import_module("lipmaps")
    if Path(lipmaps.__file__).resolve().parent != SRC / "lipmaps":
        print(f"perfbench: imported lipmaps from {lipmaps.__file__}, not {SRC}", file=sys.stderr)
        return 2
    importlib.import_module("lipmaps.cli")

    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        setup = [] if args.trace else setup_times(warm=True)
        workload = cls(lipmaps, args.seed, workdir)
        untraced, traced, attempted, failures = measure(workload, args.seconds, tracer)
        if not args.trace:
            setup += setup_times(warm=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORKDIR.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = not failures
    details = {"env": environment(args), "iterations": len(untraced) + len(traced)}
    if tracer is None:
        tail_s, tail_label = tail(untraced)
        values = {
            "setup_s": statistics.median(setup),
            "iter_s_p50": statistics.median(untraced),
            "iter_s_tail": tail_s,
            "map_mpx_s": cls.map_mpx * len(untraced) / sum(untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        details["iter_s_tail"] = tail_label
    else:
        n = len(traced)
        layer_self = tracer.layer_self_s()
        unattributed = sum(traced) - tracer.top_s
        # Self times partition every top-level span, so they must add up to
        # the top-level time, which cannot exceed the timed iterations.
        added_up = abs(sum(layer_self.values()) - tracer.top_s) <= 1e-6 * max(1.0, tracer.top_s)
        if not added_up or unattributed < -1e-6:
            correct = False
            details["trace_check"] = f"layer self times {layer_self} exceed {sum(traced)} s traced"
        values = {key: 0 for key, _ in PER_LAYER}
        values.update({key: secs / n for key, secs in tracer.self_s.items() if key in values})
        values.update({key: count / n for key, count in tracer.counts.items() if key in values})
        values["asplund.self_s"] = layer_self.get("asplund", 0.0) / n
        values["trace.iter_s_p50"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values["trace.unattributed_s"] = unattributed / n
        units = dict(PER_LAYER)
        details["traced_iterations"] = n
        details["layer_self_s"] = {layer: secs / n for layer, secs in sorted(layer_self.items())}
        details["computed_counts_per_iteration"] = {k: v / n for k, v in sorted(tracer.counts.items())}
        if tracer.missing:
            details["untraced_missing_functions"] = sorted(tracer.missing)

    failed = len(failures)
    details["fail_ratio"] = failed / attempted
    details["failures"] = failures[:20]
    for key, value in values.items():
        computed = "  (computed)" if units[key] in ("B", "count") else ""
        print(f"{key:<28} {value!r:>24} {units[key]}{computed}")
    print(f"{'fail_ratio':<28} {failed / attempted!r:>24} ratio ({failed}/{attempted})")
    print(json.dumps(details))
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
