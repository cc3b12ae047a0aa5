"""Quick self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the checkout root (about a minute).  Every workload runs at a tiny
size on shipped seed 0 and must report no failed operation; the same run
with one output deliberately corrupted must report at least one, so the
checks behind ``failed`` / error_rate are shown to bite.  One traced run
checks that every per-layer metric of ``BENCHMARK.json`` is produced.  Exits 1
if any of this does not hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

TINY_SECONDS = "0.4"


def main():
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    env.update({name: run.BLAS_THREADS for name in run.BLAS_VARIABLES})
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = [run.WORKLOAD, "--workload", workload, "--seed", "0", "--seconds", TINY_SECONDS]
        clean, _ = run.child(base, env, 120.0)
        corrupt, _ = run.child(base + ["--corrupt"], env, 120.0)
        print(
            f"{workload}: attempted {clean['attempted']}, failed {clean['failed']} clean, "
            f"{corrupt['failed']} with one output corrupted"
        )
        if clean["failed"] != 0:
            problems.append(f"{workload} fails its checks on clean outputs")
        if corrupt["failed"] == 0:
            problems.append(f"{workload} does not notice a corrupted output")
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "gauss-grid",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    produced = set(json.loads(lines[-1])["metrics"]) if proc.returncode == 0 and lines else set()
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    if missing:
        problems.append(f"traced run lacks {missing}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
