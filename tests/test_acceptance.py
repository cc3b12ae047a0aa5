"""Acceptance gate: ten numbered criteria covering the whole library.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line with the measured
numbers (run ``pytest tests/test_acceptance.py -s`` to see the lines on a
green run; on a red run pytest shows them in the captured output) and then
asserts, so the suite is green exactly when the gate is met.  Tolerances and
runtime budgets are pinned in the assertions.
"""

import dataclasses
import math
import time

import numpy as np

from micromacro import cli
from micromacro import fock as fk
from micromacro import gaussian as ga
from micromacro import protocol as pr
from micromacro import sweep as sw


IDEAL = pr.ProtocolConfig(
    N_D=0.0, y=1e-9, x=0.0, N_in=0.0, N_th=0.0, sigma=0.0,
    eta1=1.0, eta2=1.0, eta_c=1.0,
)


def _report(criterion, failures, detail_on_pass):
    ok = not failures
    detail = detail_on_pass if ok else "; ".join(failures)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:02d}: {detail}")
    assert ok, f"criterion {criterion:02d}: {detail}"


def test_criterion_01_ideal_pipeline_analytic_entanglement():
    # E_N = 2r through the lossless, noiseless pipeline, each call < 10 ms.
    failures = []
    timings = []
    errors = []
    for r in (0.1, 0.5, 1.0):
        config = dataclasses.replace(IDEAL, r=r)
        pr.run_gaussian_protocol(config)  # warm-up
        start = time.perf_counter()
        result = pr.run_gaussian_protocol(config)
        timings.append(time.perf_counter() - start)
        errors.append(abs(result.log_negativity - 2.0 * r))
        if errors[-1] > 1e-10:
            failures.append(f"r={r}: |E_N - 2r| = {errors[-1]:.3g} > 1e-10")
    if max(timings) >= 0.010:
        failures.append(f"slowest call {max(timings) * 1e3:.2f} ms >= 10 ms")
    _report(
        1, failures,
        f"max |E_N - 2r| = {max(errors):.3g} (tol 1e-10), "
        f"slowest call {max(timings) * 1e3:.3f} ms (< 10 ms)",
    )


def test_criterion_02_channel_coefficient_closure():
    # c1^2 + c2^2 + f1^2 + f2^2 = 1 across the parameter square.
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(0.0, 1.0)
        y = rng.uniform(0.01, 0.99)
        worst = max(worst, abs(ga.channel_coefficients(x, y).closure_defect))
    failures = [] if worst <= 1e-12 else [f"max closure defect {worst:.3g} > 1e-12"]
    _report(2, failures, f"max closure defect {worst:.3g} over 1000 draws (tol 1e-12)")


def test_criterion_03_mechanical_noise_threshold():
    # With the fig4 configuration at N_th = 10 the product N_th * x* sits in
    # the detectability band [0.1, 0.4].
    base = dataclasses.replace(sw.preset_base("fig4"), N_th=10.0)
    start = time.perf_counter()
    x_star = pr.find_threshold(base, "x", (0.0, 1.0))
    elapsed = time.perf_counter() - start
    product = 10.0 * x_star
    failures = []
    if not 0.1 <= product <= 0.4:
        failures.append(f"N_th*x* = {product:.4f} outside [0.1, 0.4]")
    if elapsed >= 1.0:
        failures.append(f"threshold search took {elapsed:.2f} s >= 1 s")
    _report(3, failures, f"N_th*x* = {product:.4f} in [0.1, 0.4], {elapsed * 1e3:.0f} ms")


def test_criterion_04_transmission_threshold():
    # With the fig5 configuration at eta2 = 0.8 the eta1 threshold is of
    # order 0.4.
    base = dataclasses.replace(sw.preset_base("fig5"), eta2=0.8)
    start = time.perf_counter()
    eta1_star = pr.find_threshold(base, "eta1", (0.0, 1.0))
    elapsed = time.perf_counter() - start
    failures = []
    if not 0.3 <= eta1_star <= 0.5:
        failures.append(f"eta1* = {eta1_star:.4f} outside [0.3, 0.5]")
    if elapsed >= 1.0:
        failures.append(f"threshold search took {elapsed:.2f} s >= 1 s")
    _report(4, failures, f"eta1* = {eta1_star:.4f} in [0.3, 0.5], {elapsed * 1e3:.0f} ms")


def test_criterion_05_phase_noise_displacement_thresholds():
    # sigma = 0 makes E_N independent of N_D; sigma > 0 makes it strictly
    # decreasing with a finite vanishing point N_D* that shrinks as sigma
    # grows.
    failures = []
    base = sw.preset_base("fig3")
    quiet = dataclasses.replace(base, sigma=0.0)
    reference = [
        pr.entanglement_metric(dataclasses.replace(quiet, N_D=n_d))
        for n_d in (0.0, 5000.0, 1e8)
    ]
    spread = max(reference) - min(reference)
    if spread > 1e-12:
        failures.append(f"sigma=0 spread over N_D = {spread:.3g} > 1e-12")
    thresholds = []
    for sigma in (0.005, 0.01, 0.02):
        noisy = dataclasses.replace(base, sigma=sigma)
        n_d_star = pr.find_threshold(noisy, "N_D", (1.0, 1e7), tol=1.0)
        thresholds.append(n_d_star)
        if not math.isfinite(n_d_star):
            failures.append(f"sigma={sigma}: no finite N_D*")
            continue
        grid = np.geomspace(1.0, 0.9 * n_d_star, 6)
        values = [
            pr.entanglement_metric(dataclasses.replace(noisy, N_D=n_d))
            for n_d in grid
        ]
        if not all(a > b for a, b in zip(values, values[1:])):
            failures.append(f"sigma={sigma}: E_N not strictly decreasing in N_D")
    if not (thresholds[0] > thresholds[1] > thresholds[2]):
        failures.append(f"N_D* not strictly decreasing in sigma: {thresholds}")
    _report(
        5, failures,
        f"sigma=0 spread {spread:.2g}; N_D* = "
        + ", ".join(f"{t:.0f}" for t in thresholds)
        + " for sigma = 0.005, 0.01, 0.02",
    )


def test_criterion_06_coupling_threshold_structure():
    # E_N(y) positive at strong coupling, with the vanishing point y* strictly
    # decreasing in the initial occupation N_in.  For N_in > 0 the noise
    # c2^2 N_in ~ 2(1 - y) swamps the signal c1^2 ~ 4(1 - y)^2, so E_N = 0
    # at weak coupling.  For N_in = 0 the channel near y = 1 is an attenuator
    # whose added noise scales with its transmission, and the output stays
    # entangled up to the domain edge y = 1 iff
    #     (4/3) x N_th + eta1 N_D sigma^2 < eta1
    # (README, "Criterion 6 and the weak-coupling limit").
    failures = []
    base = sw.preset_base("fig2")
    thresholds = []
    for n_in in (0.0, 1.0, 10.0):
        config = dataclasses.replace(base, N_in=n_in)
        strong = pr.entanglement_metric(dataclasses.replace(config, y=0.05))
        weak = pr.entanglement_metric(dataclasses.replace(config, y=0.99))
        if not strong > 0.0:
            failures.append(f"E_N(y=0.05, N_in={n_in:g}) = {strong:.3g}, expected > 0")
        if n_in > 0.0 and weak != 0.0:
            failures.append(f"E_N(y=0.99, N_in={n_in:g}) = {weak:.3g}, expected 0")
        thresholds.append(pr.find_threshold(config, "y", (0.05, 1.0)))
    if not (thresholds[0] > thresholds[1] > thresholds[2]):
        failures.append(f"y* not strictly decreasing in N_in: {thresholds}")
    if not thresholds[0] > 1.0 - 1e-5:
        failures.append(f"y*(N_in=0) = {thresholds[0]:.6f}, expected the edge y = 1")

    vacuum = dataclasses.replace(base, N_in=0.0)
    limit = 4.0 / 3.0 * vacuum.x * vacuum.N_th + vacuum.eta1 * vacuum.N_D * vacuum.sigma**2
    sigma_c = math.sqrt(
        (vacuum.eta1 - 4.0 / 3.0 * vacuum.x * vacuum.N_th) / (vacuum.eta1 * vacuum.N_D)
    )
    weak = pr.entanglement_metric(dataclasses.replace(vacuum, y=0.99))
    if (weak > 0.0) != (limit < vacuum.eta1):
        failures.append(
            f"E_N(y=0.99, N_in=0) = {weak:.3g} contradicts the limit "
            f"{limit:.4f} vs eta1 = {vacuum.eta1:g}"
        )
    past = pr.entanglement_metric(dataclasses.replace(vacuum, y=0.99, sigma=1.01 * sigma_c))
    if past != 0.0:
        failures.append(f"E_N(y=0.99, N_in=0, sigma=1.01 sigma_c) = {past:.3g}, expected 0")
    sigma_star = pr.find_threshold(
        dataclasses.replace(vacuum, y=0.999), "sigma", (0.0, 0.05), tol=1e-7
    )
    if abs(sigma_star / sigma_c - 1.0) > 1e-3:
        failures.append(
            f"sigma*(y=0.999) = {sigma_star:.7f} differs from sigma_c = {sigma_c:.7f} "
            "by > 1e-3 relative"
        )
    _report(
        6, failures,
        "y* = " + ", ".join(f"{t:.4f}" for t in thresholds) + " for N_in = 0, 1, 10; "
        f"N_in = 0 limit {limit:.4f} vs eta1 = {vacuum.eta1:g}, E_N(y=0.99) = {weak:.3g}; "
        f"sigma*(y=0.999) = {sigma_star:.7f} vs sigma_c = {sigma_c:.7f}",
    )


def test_criterion_07_cross_engine_moment_agreement():
    # The truncated number-basis channel reproduces the covariance-matrix
    # channel's first and second moments entry by entry.
    rng = np.random.default_rng(424242)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(20):
        x = rng.uniform(0.0, 0.1)
        y = rng.uniform(0.1, 0.9)
        n_in = rng.uniform(0.0, 0.5)
        n_th = rng.uniform(0.0, 0.5)
        r = rng.uniform(0.05, 0.3)
        coeffs = ga.channel_coefficients(x, y)
        g_state = ga.storage_retrieval_channel(ga.tmsv_state(r), coeffs, n_in, n_th)
        rho = fk.linear_channel_apply(
            fk.two_mode_squeezed_state(r, (16, 16)), coeffs, n_in, n_th
        )
        mean, cov = fk.quadrature_moments(rho)
        worst = max(
            worst,
            float(np.max(np.abs(mean - g_state.mean))),
            float(np.max(np.abs(cov - g_state.cov))),
        )
    elapsed = time.perf_counter() - start
    failures = []
    if worst >= 1e-4:
        failures.append(f"worst moment mismatch {worst:.3g} >= 1e-4")
    if elapsed >= 30.0:
        failures.append(f"20 configs took {elapsed:.1f} s >= 30 s")
    _report(
        7, failures,
        f"worst moment mismatch {worst:.3g} (tol 1e-4) over 20 configs, "
        f"{elapsed:.1f} s (< 30 s)",
    )


def test_criterion_08_single_photon_concurrence():
    # Number-basis pipeline: unit concurrence in the imperfection-free limit,
    # N_D-independence at sigma = 0, and a finite vanishing displacement
    # N_D* that decreases as sigma grows.
    failures = []
    ideal = dataclasses.replace(IDEAL, engine="fock")
    c_ideal = pr.run_fock_protocol(ideal).concurrence
    if abs(c_ideal - 1.0) > 1e-6:
        failures.append(f"ideal concurrence {c_ideal:.8f} differs from 1 by > 1e-6")
    base = sw.preset_base("figA1")
    quiet = dataclasses.replace(base, sigma=0.0)
    reference = [
        pr.entanglement_metric(dataclasses.replace(quiet, N_D=n_d))
        for n_d in (0.0, 5000.0, 1e8)
    ]
    spread = max(reference) - min(reference)
    if spread > 1e-10:
        failures.append(f"sigma=0 spread over N_D = {spread:.3g} > 1e-10")
    # the N_D bracket and tol of the figA1 preset's own threshold axis
    thresholds = [
        pr.find_threshold(dataclasses.replace(base, sigma=sigma), "N_D", (1.0, 1e7), tol=1.0)
        for sigma in (0.005, 0.01, 0.02)
    ]
    if not all(math.isfinite(t) for t in thresholds):
        failures.append(f"non-finite N_D*: {thresholds}")
    elif not (thresholds[0] > thresholds[1] > thresholds[2]):
        failures.append(f"N_D* not strictly decreasing in sigma: {thresholds}")
    _report(
        8, failures,
        f"ideal concurrence {c_ideal:.10f}; sigma=0 spread {spread:.2g}; N_D* = "
        + ", ".join(f"{t:.0f}" for t in thresholds)
        + " for sigma = 0.005, 0.01, 0.02",
    )


def test_criterion_09_feasibility_arithmetic():
    # Published operating points for the two reference platforms.
    failures = []
    nano = pr.feasibility(pr.FEASIBILITY_PRESETS["nanobeam"])
    g_hz = nano.G / (2.0 * math.pi)
    if abs(g_hz - 3.2e6) > 0.02 * 3.2e6:
        failures.append(f"nanobeam G/2pi = {g_hz:.4g} Hz outside 3.2 MHz +-2%")
    if abs(nano.N_th - 10.8) > 0.02 * 10.8:
        failures.append(f"nanobeam N_th = {nano.N_th:.4f} outside 10.8 +-2%")
    if not nano.suppression < 0.02:
        failures.append(f"nanobeam suppression {nano.suppression:.4f} >= 0.02")
    tramp = pr.feasibility(pr.FEASIBILITY_PRESETS["trampoline"])
    if abs(tramp.decoherence_time - 7.6e-3) > 0.05 * 7.6e-3:
        failures.append(
            f"trampoline decoherence time {tramp.decoherence_time:.4g} s "
            "outside 7.6 ms +-5%"
        )
    _report(
        9, failures,
        f"nanobeam G/2pi = {g_hz:.4g} Hz, N_th = {nano.N_th:.3f}, "
        f"suppression = {nano.suppression:.4f}; trampoline decoherence "
        f"time = {tramp.decoherence_time * 1e3:.2f} ms",
    )


def test_criterion_10_sweep_determinism(tmp_path):
    # The fig2 sweep is byte-identical at 1 and 8 workers.
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    failures = []
    if cli.main(["sweep", "--preset", "fig2", "--parallel", "1", "--out", str(serial)]):
        failures.append("serial sweep exited nonzero")
    if cli.main(["sweep", "--preset", "fig2", "--parallel", "8", "--out", str(threaded)]):
        failures.append("threaded sweep exited nonzero")
    if not failures and serial.read_bytes() != threaded.read_bytes():
        failures.append("CSV bytes differ between 1 and 8 workers")
    size = serial.stat().st_size if serial.exists() else 0
    _report(10, failures, f"fig2 CSV byte-identical at 1 and 8 workers ({size} bytes)")
