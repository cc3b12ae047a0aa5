"""Benchmark entry point for micromacro.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The metrics, their units and the workloads
are those of ``BENCHMARK.json`` at that root.  The command:

1. starts ``workload.py`` SETUP_SAMPLES times, each a fresh interpreter that
   imports micromacro from ``src/`` and generates the seeded inputs; set-up
   time is spawn to ready and ``setup_s`` the median of the samples;
2. untraced (``--trace 0``), the last MEASURE_PROCESSES of them measure the
   workload for an equal share of ``--seconds`` each, with its calibration
   kernel timed between the calls, and check their outputs; their per-call
   times are pooled, so that a process that happens to run slow (thread
   placement differs from process to process) weighs a third;
   traced (``--trace 1``), only the last one traces a fixed amount of work;
3. prints the machine, a readable summary, and last the JSON result line
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 1`` the set-up interpreters run under ``-X importtime``,
which gives the ``import.*`` metrics; the span file of the traced run is
written to ``.perfbench_out/``.  All children get BLAS pinned to one thread.
It exits 2 without a result when the checkout has no ``src/micromacro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD = os.path.join(HERE, "workload.py")
SETUP_SAMPLES = 5
MEASURE_PROCESSES = 3
DEADLINE_S = 170.0
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child(args, env, timeout):
    """Run a workload.py child and return (its last JSON line, its stderr).

    The child leads its own process group, so that on a timeout the CLI
    processes it may have started are killed with it.
    """
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"child {args} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        fail(f"child {args} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"child {args} printed nothing")
    return json.loads(lines[-1]), stderr


def import_times(importtime_stderr):
    """Cumulative import seconds of numpy, scipy and micromacro from ``-X importtime``.

    scipy is the sum over its outermost submodules (``scipy.linalg``,
    ``scipy.special``), so it counts only what micromacro pulls in and reads
    0 once micromacro no longer imports scipy.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        cumulative, name = parts[1].strip(), parts[2]
        if cumulative.isdigit():
            depth = len(name) - len(name.lstrip())
            entries.append((name.strip(), depth, int(cumulative) * 1e-6))
    first = {}
    for name, _, seconds in entries:
        first.setdefault(name, seconds)
    scipy = [(depth, s) for name, depth, s in entries if name.split(".")[0] == "scipy"]
    top = min((depth for depth, _ in scipy), default=None)
    return {
        "import.numpy_s": first.get("numpy", 0.0),
        "import.scipy_s": sum(s for depth, s in scipy if depth == top),
        "import.micromacro_s": first.get("micromacro", 0.0),
    }


def p90(times):
    """90th percentile of ``times``, interpolated."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def call_stat(calls, stat):
    """``stat`` of the seconds per call, from ``[kind, seconds]`` pairs.

    Where calls are of several kinds (the CLI commands), ``stat`` is taken
    per kind and the kinds are averaged, so that each counts once whatever
    mix of kinds a run happens to reach.
    """
    by_kind = {}
    for kind, seconds in calls:
        by_kind.setdefault(kind, []).append(seconds)
    return statistics.fmean(stat(times) for times in by_kind.values())


def call_metrics(results):
    """End-to-end call metrics from the pooled calls of the measuring processes.

    The gated figure is ``call_per_cal_p50``: the median call at one worker
    over the median run of the workload's calibration kernel, timed between
    the same calls.  This shared 2-vCPU VM runs all code up to 2x slower for
    seconds to minutes at a time as other tenants load its host; the kernel
    slows with it, so the quotient follows the program and not the host.
    The raw times go to the summary.
    """
    pooled = {
        mode: [c for r in results for c in r["metrics"]["calls"][mode]] for mode in ("w1", "w2")
    }
    calibration = statistics.median(c for r in results for c in r["metrics"]["calibration"])
    items = results[0]["items_per_call"]
    raw = {
        "peak_rss_mb": max(r["metrics"]["peak_rss_mb"] for r in results),
        "calibration_ms_p50": calibration * 1e3,
    }
    for mode, suffix in (("w1", ""), ("w2", "_w2")):
        if pooled[mode]:
            p50 = call_stat(pooled[mode], statistics.median)
            raw[f"call_per_cal_p50{suffix}"] = p50 / calibration
            raw[f"call_ms_p50{suffix}"] = p50 * 1e3
            raw[f"call_ms_p90{suffix}"] = call_stat(pooled[mode], p90) * 1e3
            raw[f"items_per_s{suffix}"] = items / p50
        raw[f"calls_{mode}"] = len(pooled[mode])
    return raw


def machine(versions):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None):
    started = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="micromacro benchmark")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "micromacro", "__init__.py")):
        fail(f"no micromacro sources under {ROOT}/src; run from a checkout root")

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({name: BLAS_THREADS for name in BLAS_VARIABLES})
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    interpreter = ["-X", "importtime"] if args.trace else []

    measuring = 1 if args.trace else MEASURE_PROCESSES
    setups, imports, results = [], [], []
    for n in range(SETUP_SAMPLES):
        if n < SETUP_SAMPLES - measuring:
            argv = [*interpreter, WORKLOAD, *common, "--setup-only"]
            timeout = 60.0
        else:
            seconds = args.seconds / measuring
            argv = [WORKLOAD, *common, "--seconds", str(seconds), "--trace", str(args.trace)]
            timeout = (DEADLINE_S - (time.monotonic() - started)) / (SETUP_SAMPLES - n)
        spawned = time.monotonic()
        result, stderr = child(argv, env, timeout)
        setups.append(result["ready"] - spawned)
        if "--setup-only" in argv:
            if args.trace:
                imports.append(import_times(stderr))
        else:
            results.append(result)

    raw = {"setup_s": statistics.median(setups)}
    if args.trace:
        raw.update(results[0]["metrics"])
        for key in imports[0]:
            raw[key] = statistics.median(m[key] for m in imports)
    else:
        raw.update(call_metrics(results))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if missing:
        fail(f"workload did not produce {missing}")
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"machine": machine(results[0]["versions"])}))
    summary = {"workload": args.workload, "seed": args.seed, "error_rate": failed / attempted}
    summary.update({k: v for k, v in raw.items() if k not in metrics})
    print(json.dumps({"summary": summary}))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
