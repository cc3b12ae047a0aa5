"""One workload in a fresh interpreter: set up, measure, check, report JSON.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workload.py --workload NAME --seed N --setup-only

``run.py`` starts this script (with ``PYTHONPATH`` pointing at the checkout's
``src``) and reads the JSON object it prints last.  Set-up is the interpreter
start, ``import micromacro`` and the input generation; ``ready`` marks its end
on the ``time.monotonic`` clock, which the parent shares.

Untraced (``--trace 0``) runs are closed loops: after one warm-up call, for
``--seconds`` seconds, blocks of calls in the workload's timed modes take
turns (1-worker and 2-worker calls on gauss-grid, 1-worker calls elsewhere),
each call issued as soon as the previous one returns.  The workload's
calibration kernel runs between the 1-worker calls.
Traced runs (``--trace 1``) do a fixed amount of work instead, so span counts
repeat exactly: a unit of work untraced and then traced, a few times over,
and the unit once more, traced, at 2 workers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy

import checks
import inputs
import tracing
from micromacro import protocol as pr
from micromacro import sweep as sw

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BLOCK_CALLS = 5
BLOCK_MIN_S = 1.0
# Calibration time after each 1-worker call, as a share of the call's time.
CALIBRATION_SHARE = 0.25
_SMALL = numpy.linspace(-1.0, 1.0, 16).reshape(4, 4)
_SMALL = _SMALL + _SMALL.T
_LARGE = numpy.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)
_COMPLEX = numpy.exp(1j * numpy.linspace(0.0, 7.0, 256 * 256)).reshape(256, 256) / 16.0


def cpu_calibration():
    """Seconds for a fixed piece of work that uses no micromacro code.

    Its mix follows the library's: Python-level loops over 4x4 NumPy linear
    algebra, and a few single-threaded 128x128 matrix products.  Timed next
    to the calls, it gives the speed of the machine at that moment.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(800):
        small = _SMALL * (1.0 + 1e-6 * i)
        total += float(numpy.linalg.eigvalsh(small)[0]) + float((small @ small).trace())
        total += sum(j * 0.5 for j in range(20))
    for _ in range(4):
        total += float((_LARGE @ _LARGE)[0, 0])
    if not numpy.isfinite(total):
        raise ArithmeticError("calibration kernel gave a non-finite value")
    return time.perf_counter() - start


def blas_calibration():
    """Seconds for fixed dense complex algebra that uses no micromacro code.

    Its mix follows the Fock engine's: single-threaded 256x256 complex
    matrix products (16 levels on two modes) and a four-index einsum.
    """
    start = time.perf_counter()
    product = _COMPLEX
    for _ in range(6):
        product = (product @ _COMPLEX) * 0.5
    block = _COMPLEX[:16, :16]
    tensor = numpy.einsum(
        "ab,bcde,fd->acfe", block, _COMPLEX.reshape(16, 16, 16, 16), block.conj(), optimize=True
    )
    if not (numpy.isfinite(product).all() and numpy.isfinite(tensor).all()):
        raise ArithmeticError("calibration kernel gave a non-finite value")
    return time.perf_counter() - start


def process_calibration():
    """Seconds for a fresh interpreter that imports NumPy and exits (no micromacro)."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], capture_output=True, check=True, timeout=60
    )
    return time.perf_counter() - start


def _check_library_origin():
    import micromacro

    expected = os.path.join(ROOT, "src", "micromacro")
    if os.path.dirname(os.path.abspath(micromacro.__file__)) != expected:
        raise SystemExit(f"micromacro imported from {micromacro.__file__}, not {expected}")


class Workload:
    """Calls of one workload.

    A call is keyed ``(mode, k)``: the k-th call made in mode "w1" (one
    worker) or "w2" (two workers).  ``index(key)`` picks its input.
    """

    timed_modes = ("w1",)  # modes the untraced run times, block by block
    clients_w2 = 1  # concurrent callers in mode w2
    trace_repeats = 3
    trace_calls = 1  # calls per mode in the traced unit of work
    block_calls = 1  # fewest calls a block makes, whatever its deadline

    def __init__(self, generated, seed):
        self.inputs = generated
        self.seed = seed
        self.tracing = False
        self.child_spans = []

    def index(self, key):
        return key[1] % len(self.inputs)

    def source(self, key):
        return self.inputs[self.index(key)]

    def items(self, key):
        """Work items in a call (sweep points, or 1)."""
        return 1

    def kind(self, key):
        """Which kind of call this is, where a workload mixes kinds of unequal cost."""
        return None

    calibrate = staticmethod(cpu_calibration)

    def close(self):
        pass


class Grid(Workload):
    """A call is one ``run_sweep``; mode w2 passes ``workers=2``."""

    def __init__(self, generated, seed):
        super().__init__(generated, seed)
        self.points = inputs.grid_points(generated[0])

    def items(self, key):
        return self.points

    def call(self, key):
        return sw.run_sweep(self.source(key), workers=2 if key[0] == "w2" else 1)[0]


class GaussGrid(Grid):
    """The same sweep every call; every CSV must be byte-identical."""

    name = "gauss-grid"
    timed_modes = ("w1", "w2")

    def __init__(self, generated, seed):
        super().__init__([generated], seed)

    def wrong(self, outputs):
        reference = checks.load_reference("gauss-grid", self.seed)
        verdicts = {}
        failed = 0
        first = next((out for _, out in outputs if out is not None), None)
        for _, out in outputs:
            if out is None or out != first:
                failed += self.points
                continue
            if out not in verdicts:
                verdicts[out] = checks.grid_csv(out, self.inputs[0], reference)
            failed += verdicts[out]
        return failed


class FockGrid(Grid):
    """w1 calls take the even sweeps and w2 calls the odd ones; none repeats."""

    name = "fock-grid"
    trace_repeats = 2
    trace_calls = 2

    @staticmethod
    def calibrate():
        return blas_calibration() + cpu_calibration()

    def index(self, key):
        mode, k = key
        return 2 * k + (mode == "w2")

    def wrong(self, outputs):
        reference = checks.load_reference("fock-grid", self.seed) or []
        failed = 0
        for key, out in outputs:
            if out is None:
                failed += self.points
                continue
            k = self.index(key)
            failed += checks.fock_csv(out, reference[k] if k < len(reference) else None)
        return failed


class GaussThresholds(Workload):
    name = "gauss-thresholds"
    clients_w2 = 2
    trace_calls = inputs.THRESHOLD_BATCH

    def call(self, key):
        config, parameter, bracket, tol = self.source(key)
        return pr.find_threshold(config, parameter, bracket, tol=tol)

    def wrong(self, outputs):
        reference = checks.load_reference("gauss-thresholds", self.seed)
        first = {}
        failed = 0
        for key, value in outputs:
            k = self.index(key)
            if value is None:
                failed += 1
                continue
            if k not in first:
                ref = reference[k] if reference is not None else None
                first[k] = (value, checks.threshold(self.inputs[k], value, ref))
            known, verdict = first[k]
            failed += verdict if value == known else 1
        return failed


class CliCold(Workload):
    name = "cli-cold"
    clients_w2 = 2
    trace_repeats = 2
    trace_calls = len(inputs.CLI_COMMANDS)
    block_calls = len(inputs.CLI_COMMANDS)  # every command is timed in every block

    def __init__(self, generated, seed):
        super().__init__(generated, seed)
        self.tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
        os.makedirs(self.tmp, exist_ok=True)
        self.lock = threading.Lock()

    def call(self, key):
        name, template = self.source(key)
        stem = os.path.join(self.tmp, "{}-{}".format(*key))
        out = stem + ".csv"
        argv = [a.replace("{out}", out) for a in template]
        if self.tracing:
            command = [sys.executable, os.path.join(HERE, "trace_cli.py"), stem + ".spans.json"]
        else:
            command = [sys.executable, "-m", "micromacro.cli"]
        proc = subprocess.run(
            command + argv, capture_output=True, text=True, cwd=ROOT, timeout=120
        )
        if self.tracing and proc.returncode == 0:
            with open(stem + ".spans.json", encoding="utf-8") as handle:
                spans = tracing.relabel(json.load(handle), "cli-{}-{}".format(*key))
            with self.lock:
                self.child_spans.extend(spans)
        text = ""
        if "{out}" in template and os.path.exists(out):
            with open(out, encoding="utf-8") as handle:
                text = handle.read()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        return name, proc.returncode, proc.stdout, text

    def kind(self, key):
        return self.source(key)[0]

    calibrate = staticmethod(process_calibration)

    def wrong(self, outputs):
        reference = checks.load_reference("cli-cold", self.seed)
        failed = 0
        for _, out in outputs:
            failed += 1 if out is None else checks.cli_output(*out, reference)
        return failed

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class Calibration:
    """Runs of a calibration kernel, interleaved with the calls they scale.

    After a call of t seconds, ``after(t)`` runs the kernel until it has
    had CALIBRATION_SHARE x t seconds since it last ran, carrying any excess
    forward.  So the calibration samples the same moments as the calls.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.times = []
        self.owed = 0.0

    def after(self, seconds):
        self.owed += CALIBRATION_SHARE * seconds
        while self.owed > 0.0:
            self.times.append(self.kernel())
            self.owed -= self.times[-1]


def drive(workload, keys, clients=1, deadline=None, min_calls=1, calibration=None):
    """Make the calls ``keys`` on ``clients`` concurrent callers.

    Each caller takes the next key as soon as its previous call returns.  It
    stops when the keys run out, or once ``deadline`` has passed, it has made
    a call and at least ``min_calls`` calls have been started in all.
    With one caller, ``calibration.after`` runs after each call.  Returns
    ``(key, seconds, output)`` records; a call that raises gives output None.
    """
    lock = threading.Lock()
    keys = iter(keys)
    records = []
    started = 0

    def client():
        nonlocal started
        first = True
        while True:
            with lock:
                late = deadline is not None and time.perf_counter() >= deadline
                if late and not first and started >= min_calls:
                    return
                key = next(keys, None)
                if key is None:
                    return
                started += 1
            first = False
            start = time.perf_counter()
            try:
                out = workload.call(key)
            except Exception as exc:  # counted as a failed call, the run goes on
                print(f"call {key} failed: {exc!r}", file=sys.stderr)
                out = None
            elapsed = time.perf_counter() - start
            with lock:
                records.append((key, elapsed, out))
            if calibration is not None and clients == 1:
                calibration.after(elapsed)

    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return records


def measure(workload, seconds):
    """Closed loop for ``seconds`` after one warm-up call.

    The time is cut into blocks that take the workload's ``timed_modes`` in
    turn (w1 and w2 alternately on gauss-grid), so that both modes see the
    same machine conditions.  A block lasts about BLOCK_CALLS warm-up calls
    and at least BLOCK_MIN_S, so that only a few calls per block pay for the
    switch of mode, and makes at least ``block_calls`` calls.  The
    workload's calibration kernel runs between the 1-worker calls.
    """
    modes = workload.timed_modes
    counters = {"w1": itertools.count(), "w2": itertools.count()}
    warm_up = drive(workload, [("w1", next(counters["w1"]))])
    block = max(BLOCK_MIN_S, max(BLOCK_CALLS, workload.block_calls) * warm_up[0][1])
    blocks = len(modes) * max(1, int(seconds / (len(modes) * block)))
    start = time.perf_counter()
    timed = {"w1": [], "w2": []}
    calibration = Calibration(workload.calibrate)
    for b in range(blocks):
        mode = modes[b % len(modes)]
        clients = workload.clients_w2 if mode == "w2" else 1
        keys = ((mode, k) for k in counters[mode])
        deadline = start + seconds * (b + 1) / blocks
        timed[mode] += drive(
            workload, keys, clients, deadline, workload.block_calls,
            calibration if mode == "w1" else None,
        )
    outputs = [(key, out) for batch in (warm_up, timed["w1"], timed["w2"]) for key, _, out in batch]
    calls = {
        mode: [[workload.kind(key), seconds] for key, seconds, _ in records]
        for mode, records in timed.items()
    }
    return outputs, {"calls": calls, "calibration": calibration.times, "blocks": blocks}


def traced(workload, seed):
    """Fixed work: (untraced unit, traced unit) x trace_repeats, then a traced w2 unit.

    The unit is ``trace_calls`` calls; the same keys run untraced and traced.
    """
    unit = [("w1", k) for k in range(workload.trace_calls)]
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    outputs = []
    for _ in range(workload.trace_repeats):
        for on in (False, True):
            workload.tracing = on
            if on:
                tracer.install()
            start = time.perf_counter()
            records = drive(workload, unit)
            walls[on].append(time.perf_counter() - start)
            tracer.uninstall()
            outputs += [(key, out) for key, _, out in records]
    w1_spans = tracer.take() + workload.child_spans
    workload.child_spans = []
    workload.tracing = True
    tracer.install()
    start = time.perf_counter()
    records = drive(workload, [("w2", k) for k in range(workload.trace_calls)], workload.clients_w2)
    w2_wall = time.perf_counter() - start
    tracer.uninstall()
    workload.tracing = False
    outputs += [(key, out) for key, _, out in records]
    w2_spans = tracer.take() + workload.child_spans
    os.makedirs(OUT_DIR, exist_ok=True)
    tracing.write_spans(
        os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.json.gz"),
        {"w1": w1_spans, "w2": w2_spans},
    )
    metrics = tracing.layer_metrics(w1_spans, w2_spans, w2_wall)
    metrics["trace.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    )
    return outputs, metrics


WORKLOADS = {
    "gauss-grid": GaussGrid,
    "gauss-thresholds": GaussThresholds,
    "fock-grid": FockGrid,
    "cli-cold": CliCold,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--corrupt", action="store_true", help="alter one output before checking (self-check)"
    )
    args = parser.parse_args(argv)

    _check_library_origin()
    generated = inputs.GENERATORS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    workload = WORKLOADS[args.workload](generated, args.seed)
    try:
        if args.trace:
            outputs, metrics = traced(workload, args.seed)
        else:
            outputs, metrics = measure(workload, args.seconds)
        if args.corrupt:
            outputs[-1] = (outputs[-1][0], _corrupt(outputs[-1][1]))
        failed = workload.wrong(outputs)
    finally:
        workload.close()
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "ready": ready,
        "attempted": sum(workload.items(key) for key, _ in outputs),
        "failed": failed,
        "items_per_call": workload.items(("w1", 0)),
        "metrics": dict(metrics, peak_rss_mb=usage / 1024.0),
        "versions": {"numpy": numpy.__version__, "scipy": _version("scipy")},
    }
    print(json.dumps(result))
    return 0


def _corrupt(output):
    """A wrong output of the same type: a shifted threshold, a negative CSV cell."""
    if isinstance(output, float):
        return output * 1.5 + 1.0
    if isinstance(output, str):
        lines = output.splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",-0.5"
        return "\n".join(lines) + "\n"
    name, code, stdout, text = output
    return name, code, stdout + "corrupted", _corrupt(text) if text else text


def _version(package):
    from importlib import metadata

    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


if __name__ == "__main__":
    sys.exit(main())
