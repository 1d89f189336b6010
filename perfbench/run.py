"""Benchmark runner for tnforms.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tn_sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it sets up (import, input generation, cache warm-up),
runs the workload's closed loop for ``--seconds`` with tracing off and
prints the end-to-end metrics.  With ``--trace 1`` it runs the workload's
first ``trace_ops`` operations once untraced and once under the tracer,
and prints the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (sample counts, percentiles, set-up parts).

The library is imported from ``src/`` of the checkout that holds this file
and from nowhere else, so the runner fails without printing a result when
the sources are missing.
"""

import os

# One thread for every BLAS/OpenMP pool, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "traces"
SETUP_REPEATS = 7
WINDOW_S = 1.0
CALIBRATE_EVERY_S = 0.01
KERNEL_SHARE = 0.1
# Times the import in a fresh interpreter, then the calibration kernel (which needs numpy).
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); import tnforms; "
    "t = time.perf_counter() - t; import calibrate; print(t / calibrate.speed_factor())"
)


def load_library():
    """Import tnforms from this checkout's src/ and the benchmark modules beside this file."""
    if not (SRC / "tnforms" / "__init__.py").is_file():
        raise SystemExit(f"error: no tnforms sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tnforms

    if Path(tnforms.__file__).resolve().parent != (SRC / "tnforms").resolve():
        raise SystemExit(f"error: imported tnforms from {tnforms.__file__}, not from {SRC}")
    import workloads

    return tnforms, workloads


def clear_caches(tnforms):
    for layer in LAYERS:
        for obj in vars(getattr(tnforms, layer)).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def import_seconds() -> float:
    """Median time of importing tnforms (numpy included) in a fresh interpreter, reference-scaled."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def set_up(tnforms, workload, seed: int):
    """Set up SETUP_REPEATS times from cold caches; return the last inputs and the scaled times."""
    times = []
    for _ in range(SETUP_REPEATS):
        clear_caches(tnforms)
        before = calibrate.speed_factor()
        t0 = perf_counter()
        inputs = workload.generate(seed)
        workload.warm_up(inputs)
        seconds = perf_counter() - t0
        times.append(seconds / ((before + calibrate.speed_factor()) / 2.0))
    return inputs, times


def attempt(workload, inputs, op, call=None):
    """Run and check one operation: (verified, seconds, residual, error)."""
    t0 = perf_counter()
    try:
        out = call(workload.run, inputs, op) if call else workload.run(inputs, op)
    except Exception as exc:  # every library failure is counted, and the loop goes on
        return False, perf_counter() - t0, math.inf, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    residual = workload.check(inputs, op, out)
    return residual <= workload.tol, seconds, residual, None


class Tally:
    """Latencies and residuals of verified ops; counts of attempted and failed ones."""

    def __init__(self):
        self.latencies: list[float] = []
        self.worst = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}

    def add(self, verified: bool, seconds: float, residual: float, error):
        self.attempted += 1
        if verified:
            self.latencies.append(seconds)
            self.worst = max(self.worst, residual)
            return
        self.failed += 1
        key = error or f"residual {residual:.3e} over tolerance"
        self.errors[key[:160]] = self.errors.get(key[:160], 0) + 1

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies) if self.latencies else 0.0


def timed_loop(workload, inputs, seconds: float) -> tuple[Tally, list[float], list[float]]:
    """Closed loop for ``seconds``; returns the tally, the scaled op times and the kernel times.

    After every ``CALIBRATE_EVERY_S`` of op time the calibration kernel runs
    for ``KERNEL_SHARE`` of that time (at least once), outside the op
    timings, so it samples the machine's speed in step with the ops.  Each
    verified op time is divided by the kernel's mean time in its window of
    ``WINDOW_S`` over ``REFERENCE_S``, giving its time at the reference speed.
    """
    tally = Tally()
    schedule = inputs.schedule
    scaled: list[float] = []
    kernel_times: list[float] = []
    window: list[float] = []
    first = 0
    since_kernel = 0.0
    gc.collect()
    start = perf_counter()
    deadline = start + seconds
    window_end = start + WINDOW_S
    i = 0
    while True:
        now = perf_counter()
        if now >= window_end or now >= deadline:
            factor = statistics.fmean(window) / calibrate.REFERENCE_S
            scaled.extend(t / factor for t in tally.latencies[first:])
            kernel_times.extend(window)
            window, first, window_end = [], len(tally.latencies), now + WINDOW_S
            if now >= deadline:
                return tally, scaled, kernel_times
        verified, seconds_taken, residual, error = attempt(workload, inputs, schedule[i % len(schedule)])
        tally.add(verified, seconds_taken, residual, error)
        i += 1
        since_kernel += seconds_taken
        if since_kernel >= CALIBRATE_EVERY_S or not window:
            budget_end = perf_counter() + KERNEL_SHARE * since_kernel
            while True:
                t0 = perf_counter()
                calibrate.kernel()
                t1 = perf_counter()
                window.append(t1 - t0)
                if t1 >= budget_end:
                    break
            since_kernel = 0.0


def end_to_end(tnforms, workload, seed: int, seconds: float):
    import_s = import_seconds()
    inputs, setup_times = set_up(tnforms, workload, seed)
    tally, scaled, kernel_times = timed_loop(workload, inputs, seconds)
    if not scaled:
        raise SystemExit(f"error: no operation verified; failures: {tally.errors}")
    q = workload.tail_percentile
    tail = float(np.percentile(scaled, q))
    digits_floor = 1e-18  # a worst residual of exactly 0 would give infinite digits
    metrics = {
        "ops_per_s": (len(scaled) / math.fsum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "verified_frac": (len(scaled) / tally.attempted, "frac"),
        "accuracy_digits": (-math.log10(max(tally.worst, digits_floor)), "digits"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "verified_ops": len(scaled),
        "failed_frac": tally.failed / tally.attempted,
        "errors": tally.errors,
        "op_tail_percentile": q,
        "op_tail_samples_beyond": sum(1 for t in scaled if t > tail),
        "wall_ops_per_s": tally.ops_per_s,
        "wall_op_p50_ms": statistics.median(tally.latencies) * 1e3,
        "timed_wall_s": math.fsum(tally.latencies),
        "kernel_runs": len(kernel_times),
        "kernel_mean_ms": statistics.fmean(kernel_times) * 1e3,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "worst_residual": tally.worst,
    }
    if hasattr(workload, "probe_planted"):
        detail["planted"] = workload.probe_planted(seed, attempt)
    return tally, metrics, detail


def traced(tnforms, workloads, workload, seed: int):
    inputs, _ = set_up(tnforms, workload, seed)
    ops = [inputs.schedule[i % len(inputs.schedule)] for i in range(workload.trace_ops)]
    poly_caches = [o for o in vars(tnforms.poly).values() if hasattr(o, "cache_info")]
    tracer = Tracer(tnforms, callers=[workloads])
    plain, under = Tally(), Tally()
    # Each op runs once untraced and once traced, alternating which goes
    # first, so both see the same machine noise and the overhead compares like with like.
    for n, op in enumerate(ops):
        for on in ((False, True) if n % 2 == 0 else (True, False)):
            if on:
                with tracer:
                    under.add(*attempt(workload, inputs, op, functools.partial(tracer.run_op, n)))
            else:
                plain.add(*attempt(workload, inputs, op))
    tracer.save(TRACE_DIR / f"spans-{workload.name}.npz")

    summary = tracer.summary()
    hits = sum(c.cache_info().hits for c in poly_caches)
    misses = sum(c.cache_info().misses for c in poly_caches)
    probe = workloads.CellFrames().probe_planted(seed, attempt)
    values = {
        "exterior.wedge.pair_visits": (tracer.pair_visits, "count"),
        "simplex.tangent_basis.repeat_frac": (
            tracer.tangent_repeats / tracer.tangent_calls if tracer.tangent_calls else 0.0, "frac"
        ),
        "poly.cache_hit_frac": (hits / (hits + misses) if hits + misses else 0.0, "frac"),
        "simplex.planted_tiny_failed": (probe["tiny_failed"], "count"),
        "simplex.planted_sliver_failed": (probe["sliver_failed"], "count"),
        "simplex.sliver_gradient_error": (probe["sliver_gradient_error"], "ratio"),
        "trace.overhead_ops_per_s": (plain.ops_per_s - under.ops_per_s, "1/s"),
        "trace.overhead_frac": (1.0 - under.ops_per_s / plain.ops_per_s, "frac"),
        "trace.spans": (len(tracer.span_name), "count"),
    }
    for key, value in summary.items():
        values[key] = (value, "s" if key.endswith(".self_s") else "count")
    tally = Tally()
    for part in (plain, under):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.errors.update(part.errors)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace_ops": len(ops),
        "untraced_ops_per_s": plain.ops_per_s,
        "traced_ops_per_s": under.ops_per_s,
        "planted": probe,
        "errors": tally.errors,
    }
    return tally, values, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    tnforms, workloads = load_library()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        tally, metrics, detail = traced(tnforms, workloads, workload, args.seed)
        names = [m["name"] for m in _spec()["per_layer"]]
    else:
        tally, metrics, detail = end_to_end(tnforms, workload, args.seed, args.seconds)
        names = [m["name"] for m in _spec()["end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
            }
        )
    )


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    main()
