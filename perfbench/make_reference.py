"""Write ``reference.json``: the outputs of the current code for the shipped seeds.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Run from the checkout root on the commit whose outputs define "correct".
The Gaussian workloads are stored for seeds 0-31, the Fock workload for seeds
0-23 and their first FOCK_REFERENCE_SWEEPS sweeps (one run never reaches
further at that commit's speed), the CLI outputs once (they do not depend on
the seed).  The whole file is rewritten every time.  ``checks.py`` compares
runs against this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import checks
import inputs
from micromacro import protocol as pr
from micromacro import sweep as sw

GAUSS_SEEDS = range(32)
FOCK_SEEDS = range(24)
FOCK_REFERENCE_SWEEPS = 24


def gauss_grid(seed):
    return checks.digest(sw.run_sweep(inputs.gauss_grid(seed))[0])


def gauss_thresholds(seed):
    return [
        pr.find_threshold(config, parameter, bracket, tol=tol)
        for config, parameter, bracket, tol in inputs.gauss_thresholds(seed)
    ]


def fock_grid(seed):
    sweeps = inputs.FockSweeps(seed)
    return [
        checks.csv_values(sw.run_sweep(sweeps[i])[0], 1) for i in range(FOCK_REFERENCE_SWEEPS)
    ]


def cli_cold(tmp):
    table = {}
    for name, template in inputs.CLI_COMMANDS:
        out = os.path.join(tmp, f"{name}.csv")
        argv = [a.replace("{out}", out) for a in template]
        proc = subprocess.run(
            [sys.executable, "-m", "micromacro.cli", *argv],
            capture_output=True, text=True, check=True,
        )
        if name in ("fig2", "fig5"):
            with open(out, encoding="utf-8") as handle:
                table[name] = checks.digest(handle.read())
        elif name in ("fig3", "fig4"):
            with open(out, encoding="utf-8") as handle:
                rows = handle.read().splitlines()
            table[name] = {"shape": [len(rows), len(rows[0].split(","))]}
        elif name == "threshold":
            tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else 1e-5
            table[name] = {"value": float(proc.stdout.split("=")[1]), "tol": tol}
        else:
            table[name] = checks.digest(proc.stdout)
        if os.path.exists(out):
            os.remove(out)
    return table


def main():
    tmp = os.path.join(os.getcwd(), ".perfbench_tmp", "reference")
    os.makedirs(tmp, exist_ok=True)
    table = {"cli-cold": cli_cold(tmp)}
    os.rmdir(tmp)
    with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for name, func, seeds in (
            ("gauss-grid", gauss_grid, GAUSS_SEEDS),
            ("gauss-thresholds", gauss_thresholds, GAUSS_SEEDS),
            ("fock-grid", fock_grid, FOCK_SEEDS),
        ):
            table[name] = {str(s): out for s, out in zip(seeds, pool.map(func, seeds))}
            print(f"{name}: {len(seeds)} seeds", file=sys.stderr)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
