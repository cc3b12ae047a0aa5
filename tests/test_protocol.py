"""Tests for the pipeline composition, threshold search and feasibility math."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from micromacro import fock as fk
from micromacro import gaussian as ga
from micromacro import protocol as pr

# Regression pins for the default configuration (12+ digits, frozen).
EN_DEFAULT_PROPAGATED = 0.11930577440575094
EN_DEFAULT_LITERAL = 0.08653035316830768
NOMINAL_RESIDUAL_DEFAULT = 20.584158415841586
FOCK_BASE = dict(engine="fock", N_th=0.3, sigma=0.0, eta_c=1.0)
# Converged in the cutoff: the same to 16 digits at 12, 16 and 24 levels.
FOCK_BASE_CONCURRENCE = 0.7021978740339806
FOCK_BASE_PROJECTION = 0.9925585247989921

IDEAL = dict(
    N_D=0.0, y=1e-9, x=0.0, N_in=0.0, N_th=0.0, sigma=0.0,
    eta1=1.0, eta2=1.0, eta_c=1.0,
)


def test_config_defaults_and_validation():
    config = pr.ProtocolConfig()
    assert config.engine == "gaussian"
    assert (config.r, config.N_D, config.y, config.x) == (0.5, 5000.0, 0.1, 0.01)
    assert (config.N_in, config.N_th, config.sigma) == (1.0, 10.0, 0.01)
    assert (config.eta1, config.eta2, config.eta_c) == (0.8, 0.8, 0.8)
    for bad in (
        dict(r=-1.0), dict(N_D=-1.0), dict(y=0.0), dict(y=1.2), dict(x=-0.1),
        dict(N_in=-1.0), dict(sigma=-0.1), dict(eta1=1.5), dict(engine="other"),
        dict(phase_noise_convention="guess"), dict(fock_dims=1), dict(fock_dims=8.5),
        *(
            {name: value}
            for name in ("r", "N_D", "x", "N_in", "N_th", "sigma")
            for value in (math.nan, math.inf)
        ),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            pr.ProtocolConfig(**bad)
    assert type(pr.ProtocolConfig(fock_dims=12.0).fock_dims) is int


def test_config_mapping_round_trip():
    config = pr.ProtocolConfig(engine="fock", N_th=0.2, sigma=0.003, fock_dims=12)
    mapping = pr.config_to_mapping(config)
    rebuilt = pr.config_from_mapping({k: str(v) for k, v in mapping.items()})
    assert rebuilt == config
    with pytest.raises(KeyError):
        pr.config_from_mapping({"unknown_field": "1"})
    # Integer fields parse like ProtocolConfig(fock_dims=8.0) and an axis value.
    assert pr.config_from_mapping({"fock_dims": "8.0"}).fock_dims == 8
    with pytest.raises(ValueError, match="fock_dims=8.5 must be an integer"):
        pr.config_from_mapping({"fock_dims": "8.5"})


def test_phase_noise_amplitude_conventions():
    config = pr.ProtocolConfig()
    coeffs = ga.channel_coefficients(config.x, config.y)
    literal = dataclasses.replace(config, phase_noise_convention="paper_literal")
    assert abs(
        pr.phase_noise_amplitude_sq(literal, coeffs) - 5000.0 * (1 - 0.01) ** 2
    ) < 1e-9
    propagated = pr.phase_noise_amplitude_sq(config, coeffs)
    assert abs(propagated - 0.8 * coeffs.c1**2 * 5000.0) < 1e-9
    # The conventions coincide for a lossless input and undamped mechanics.
    clean = pr.ProtocolConfig(eta1=1.0, x=0.0, y=0.3)
    clean_coeffs = ga.channel_coefficients(0.0, 0.3)
    lit = dataclasses.replace(clean, phase_noise_convention="paper_literal")
    assert abs(
        pr.phase_noise_amplitude_sq(lit, clean_coeffs)
        - pr.phase_noise_amplitude_sq(clean, clean_coeffs)
    ) < 1e-9


def test_ideal_gaussian_pipeline_gives_two_r():
    for r in (0.1, 0.5, 1.0):
        result = pr.run_gaussian_protocol(pr.ProtocolConfig(r=r, **IDEAL))
        assert abs(result.log_negativity - 2.0 * r) < 1e-10
        assert result.mean_residual == 0.0
        assert abs(result.nu_min - 0.5 * math.exp(-2.0 * r)) < 1e-10


def test_gaussian_default_config_regression_pins():
    config = pr.ProtocolConfig()
    assert abs(pr.run_gaussian_protocol(config).log_negativity - EN_DEFAULT_PROPAGATED) < 1e-12
    literal = dataclasses.replace(config, phase_noise_convention="paper_literal")
    assert abs(pr.run_gaussian_protocol(literal).log_negativity - EN_DEFAULT_LITERAL) < 1e-12


def test_gaussian_undisplacement_modes():
    config = pr.ProtocolConfig()
    exact = pr.run_gaussian_protocol(config)
    nominal = pr.run_gaussian_protocol(config, undisplacement="nominal")
    assert exact.mean_residual == 0.0
    assert abs(nominal.mean_residual - NOMINAL_RESIDUAL_DEFAULT) < 1e-9
    # The metric depends only on the covariance, not the residual mean.
    assert nominal.log_negativity == exact.log_negativity
    # Without losses or damping the nominal back-displacement is exact too.
    clean = pr.ProtocolConfig(
        N_D=100.0, y=0.3, x=0.0, N_in=0.5, N_th=0.5, sigma=0.0,
        eta1=1.0, eta2=1.0, eta_c=1.0,
    )
    assert pr.run_gaussian_protocol(clean, undisplacement="nominal").mean_residual < 1e-10
    with pytest.raises(ValueError):
        pr.run_gaussian_protocol(config, undisplacement="other")


def test_engine_dispatch_errors():
    with pytest.raises(ValueError):
        pr.run_gaussian_protocol(pr.ProtocolConfig(engine="fock", N_th=0.1))
    with pytest.raises(ValueError):
        pr.run_fock_protocol(pr.ProtocolConfig())
    with pytest.raises(ValueError, match="engine='fock'"):
        pr.run_gaussian_protocol([pr.ProtocolConfig(), pr.ProtocolConfig(engine="fock")])
    with pytest.raises(ValueError, match="no configs"):
        pr.run_gaussian_protocol([])


def random_gaussian_configs(n, seed):
    """Seeded configs over the whole domain, with the edges where a channel
    is the identity or degenerate drawn often: eta1/eta2/eta_c = 1, sigma = 0,
    y = 1, N_D = 0, x = 0, r = 0, and both phase-noise conventions."""
    rng = np.random.default_rng(seed)

    def draw(edge, lo, hi):
        return edge if rng.random() < 0.2 else float(rng.uniform(lo, hi))

    return [
        pr.ProtocolConfig(
            r=draw(0.0, 0.0, 2.0),
            N_D=draw(0.0, 0.0, 1e5),
            y=draw(1.0, 1e-3, 1.0),
            x=draw(0.0, 0.0, 0.3),
            N_in=float(rng.uniform(0.0, 3.0)),
            N_th=float(rng.uniform(0.0, 30.0)),
            sigma=draw(0.0, 0.0, 0.02),
            eta1=draw(1.0, 0.0, 1.0),
            eta2=draw(1.0, 0.0, 1.0),
            eta_c=draw(1.0, 0.0, 1.0),
            phase_noise_convention=pr.PHASE_NOISE_CONVENTIONS[int(rng.integers(2))],
        )
        for _ in range(n)
    ]



def test_gaussian_batch_is_bit_identical_to_single_points():
    configs = random_gaussian_configs(1200, seed=20261018)
    for edge in (
        lambda c: c.eta1 == 1.0, lambda c: c.eta2 == 1.0, lambda c: c.eta_c == 1.0,
        lambda c: c.sigma == 0.0, lambda c: c.y == 1.0,
        lambda c: c.phase_noise_convention == "paper_literal",
    ):
        assert sum(map(edge, configs)) >= 100
    for undisplacement in ("propagated", "nominal"):
        batch = pr.run_gaussian_protocol(configs, undisplacement=undisplacement)
        assert batch.log_negativity.shape == batch.nu_min.shape == (len(configs),)
        assert batch.output_state.cov.shape == (len(configs), 4, 4)
        for i, config in enumerate(configs):
            single = pr.run_gaussian_protocol(config, undisplacement=undisplacement)
            assert single.log_negativity == batch.log_negativity[i], config
            assert single.nu_min == batch.nu_min[i], config
            assert np.array_equal(single.output_state.cov, batch.output_state.cov[i]), config
            assert np.array_equal(single.output_state.mean, batch.output_state.mean[i]), config
            assert single.mean_residual == batch.mean_residual[i], config
        # both entangled and separable outputs are covered
        assert 100 < np.count_nonzero(batch.log_negativity) < len(configs) - 100


def scalar_reference(config):
    """(E_N, nu_min, output covariance) from the single-point pipeline that
    preceded batching, kept as a test-only reference: Python floats and math
    for every per-point scalar, one 4x4 covariance, the same operations in
    the same order."""
    a_, c_ = slice(0, 2), slice(2, 4)

    def update(cov, own, other, amplitude, power, noise):
        cov = cov.copy()
        cov[own, own] = power * cov[own, own] + noise
        cov[own, other] *= amplitude
        cov[other, own] *= amplitude
        return cov

    def loss(cov, own, other, eta):
        if eta == 1.0:
            return cov
        return update(cov, own, other, math.sqrt(eta), eta, (1.0 - eta) * (0.5 * np.eye(2)))

    coeffs = ga.channel_coefficients(config.x, config.y)
    d = math.sinh(config.r) ** 2 + 0.5
    c = math.sinh(config.r) * math.cosh(config.r)
    cov = np.array([[d, 0.0, c, 0.0], [0.0, d, 0.0, -c], [c, 0.0, d, 0.0], [0.0, -c, 0.0, d]])
    cov = loss(cov, a_, c_, config.eta1)
    added = (
        coeffs.c2_mag**2 * (config.N_in + 0.5)
        + coeffs.f1**2 * 0.5
        + coeffs.f2**2 * (config.N_th + 0.5)
    )
    cov = update(cov, a_, c_, -coeffs.c1, coeffs.c1 * coeffs.c1, added * np.eye(2))
    added = 2.0 * pr.phase_noise_amplitude_sq(config, coeffs) * config.sigma * config.sigma
    cov[1, 1] += added
    cov = loss(cov, a_, c_, config.eta2)
    cov = loss(cov, c_, a_, config.eta_c)
    a, b = np.linalg.det(cov[a_, a_]), np.linalg.det(cov[c_, c_])
    v, cross = np.linalg.det(cov), np.linalg.det(cov[a_, c_])
    sigma = a + b - 2.0 * cross
    root = math.sqrt(max(sigma * sigma - 4.0 * v, 0.0))
    nu = math.sqrt(max(0.5 * (sigma - root), 0.0))
    return max(0.0, -math.log(2.0 * nu)), nu, cov


def test_gaussian_batch_is_bit_identical_to_scalar_reference():
    configs = random_gaussian_configs(3000, seed=7)
    batch = pr.run_gaussian_protocol(configs)
    for i, config in enumerate(configs):
        log_negativity, nu, cov = scalar_reference(config)
        assert batch.log_negativity[i] == log_negativity, config
        assert batch.nu_min[i] == nu, config
        assert np.array_equal(batch.output_state.cov[i], cov), config


def test_fock_pipeline_regression_and_leakage():
    config = pr.ProtocolConfig(**FOCK_BASE)
    result = pr.run_fock_protocol(config)
    assert abs(result.concurrence - FOCK_BASE_CONCURRENCE) < 1e-12
    assert abs(result.projection_probability - FOCK_BASE_PROJECTION) < 1e-12
    assert abs(result.leakage) < 1e-14


def _square_companion_pipeline(config, d):
    """run_fock_protocol composed from the public channels at dims (d, d)."""
    coeffs = ga.channel_coefficients(config.x, config.y)
    rho = fk.single_photon_entangled_input(0.0, (d, d))
    rho = fk.pure_loss_channel(rho, 0, config.eta1)
    rho = fk.linear_channel_apply(rho, coeffs, config.N_in, config.N_th)
    variance = 2.0 * pr.phase_noise_amplitude_sq(config, coeffs) * config.sigma**2
    rho = fk.phase_noise_average(rho, variance, 0)
    leakage = fk.truncation_error(rho)
    rho = fk.pure_loss_channel(rho, 0, config.eta2)
    rho = fk.pure_loss_channel(rho, 1, config.eta_c)
    qubits = fk.qubit_project(rho)
    return fk.concurrence(qubits), qubits.projection_probability, leakage


@pytest.mark.parametrize("d", [8, 16])
def test_fock_two_level_companion_is_bit_identical(d):
    # Only loss acts on mode C, so it never leaves {0, 1}: the pipeline on
    # dims (d, 2) gives the same bits as on (d, d).  leakage sums a shorter
    # trace, so it may differ in the last bit.
    rng = np.random.default_rng(1000 + d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fk.TruncationWarning)
        for _ in range(12):
            config = pr.ProtocolConfig(
                engine="fock", fock_dims=d, N_D=10 ** rng.uniform(0, 4),
                y=rng.uniform(0.01, 0.9), x=rng.uniform(0, 0.05), N_in=rng.uniform(0, 1),
                N_th=rng.uniform(0, 5), sigma=rng.uniform(0, 0.01),
                eta1=rng.uniform(0.5, 1), eta2=rng.uniform(0.5, 1), eta_c=rng.uniform(0.5, 1),
                phase_noise_convention=pr.PHASE_NOISE_CONVENTIONS[rng.integers(2)],
            )
            concurrence, projection, leakage = _square_companion_pipeline(config, d)
            result = pr.run_fock_protocol(config)
            assert result.concurrence == concurrence, config
            assert result.projection_probability == projection, config
            assert abs(result.leakage - leakage) <= 1e-15, config


def test_fock_ideal_concurrence():
    result = pr.run_fock_protocol(pr.ProtocolConfig(engine="fock", **IDEAL))
    assert abs(result.concurrence - 1.0) < 1e-6
    assert abs(result.projection_probability - 1.0) < 1e-9


def test_fock_concurrence_independent_of_displacement_at_zero_noise():
    config = pr.ProtocolConfig(**FOCK_BASE)
    values = [
        pr.run_fock_protocol(dataclasses.replace(config, N_D=nd)).concurrence
        for nd in (0.0, 5000.0, 1e8)
    ]
    assert max(values) - min(values) < 1e-12


def test_fock_concurrence_non_increasing_in_sigma():
    config = pr.ProtocolConfig(**FOCK_BASE)
    values = []
    for sigma in (0.0, 0.002, 0.005, 0.01):
        probe = dataclasses.replace(config, sigma=sigma)
        values.append(pr.run_fock_protocol(probe).concurrence)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), values


def test_fock_convergence_warning_fires_past_validity():
    # Far past the threshold the kicked states reach the cutoff: mode A holds
    # 0.062 of its weight in the top level, reported as a TruncationWarning.
    config = pr.ProtocolConfig(**FOCK_BASE)
    config = dataclasses.replace(config, sigma=0.05, N_D=10000.0)
    with pytest.warns(fk.TruncationWarning):
        result = pr.run_fock_protocol(config)
    assert 0.05 < result.leakage < 0.08
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pr.run_fock_protocol(dataclasses.replace(config, sigma=0.005))


def test_entanglement_metric_dispatch():
    assert pr.entanglement_metric(pr.ProtocolConfig()) == EN_DEFAULT_PROPAGATED
    fock_config = pr.ProtocolConfig(**FOCK_BASE)
    assert abs(pr.entanglement_metric(fock_config) - FOCK_BASE_CONCURRENCE) < 1e-12


def test_find_threshold_damping_band_and_monotone_consistency():
    config = pr.ProtocolConfig()
    critical = pr.find_threshold(config, "x", (1e-6, 1.0))
    assert 0.01 <= critical <= 0.04
    # Beyond the critical damping the metric must stay exactly zero.
    for x in np.linspace(critical * 1.01, 1.0, 10):
        probe = dataclasses.replace(config, x=float(x))
        assert pr.entanglement_metric(probe) == 0.0, f"x={x}"
    # And is deterministic.
    assert pr.find_threshold(config, "x", (1e-6, 1.0)) == critical


def test_find_threshold_handles_zero_low_edge():
    # eta1 sweeps have the zero-metric side at the LOW bracket edge.
    config = pr.ProtocolConfig()
    critical = pr.find_threshold(config, "eta1", (0.1, 0.9))
    assert 0.3 <= critical <= 0.5
    below = dataclasses.replace(config, eta1=critical - 0.01)
    above = dataclasses.replace(config, eta1=critical + 0.01)
    assert pr.entanglement_metric(below) == 0.0
    assert pr.entanglement_metric(above) > 0.0


@pytest.mark.parametrize("convention", pr.PHASE_NOISE_CONVENTIONS)
def test_find_threshold_matches_closed_form_displacement_root(convention):
    # Phase noise adds delta proportional to N_D to one diagonal entry of the
    # output covariance, so f = det V - Sigma/4 + 1/16 (zero where the PPT
    # eigenvalue nu_min reaches 1/2) is linear in N_D, and its root is N_D*.
    def margin(config):
        cov = pr.run_gaussian_protocol(config).output_state.cov
        a, b, c, v = (np.linalg.det(m) for m in (cov[:2, :2], cov[2:, 2:], cov[:2, 2:], cov))
        return v - (a + b - 2.0 * c) / 4.0 + 1.0 / 16.0

    for sigma in (0.005, 0.01, 0.02):
        config = pr.ProtocolConfig(sigma=sigma, phase_noise_convention=convention)
        f0 = margin(dataclasses.replace(config, N_D=0.0))
        slope = margin(dataclasses.replace(config, N_D=1.0)) - f0
        root = -f0 / slope
        f_root = margin(dataclasses.replace(config, N_D=root))
        assert abs(f_root) < 1e-9 * abs(f0), f"margin not linear in N_D at sigma={sigma}"
        critical = pr.find_threshold(config, "N_D", (1.0, 1e7), tol=1.0)
        assert abs(critical - root) <= 0.5, f"sigma={sigma}: {critical} vs {root}"


def test_find_threshold_bracket_errors():
    config = pr.ProtocolConfig()
    with pytest.raises(ValueError):
        pr.find_threshold(config, "y", (0.2, 0.3))  # positive at both ends
    zero_config = dataclasses.replace(config, eta1=0.05)
    with pytest.raises(ValueError):
        pr.find_threshold(zero_config, "N_D", (1.0, 2.0))  # zero at both ends
    with pytest.raises(ValueError):
        pr.find_threshold(config, "y", (0.9, 0.1))  # decreasing bracket


# (bracket, tol) per searched parameter, as in the benchmark's threshold batch
THRESHOLD_SEARCHES = {
    "N_D": ((1.0, 1e7), 1.0),
    "x": ((1e-6, 1.0), 1e-5),
    "eta1": ((0.0, 1.0), 1e-5),
    "sigma": ((0.0, 0.1), 1e-6),
}


def _entangled(config, parameter, value):
    probe = dataclasses.replace(config, **{parameter: value})
    return pr.entanglement_metric(probe) > pr.ZERO_METRIC_TOL


def _bisected_crossing(config, parameter, bracket, tol):
    """Reference crossing: the bisection find_threshold ran before Brent's method."""
    lo, hi = bracket
    lo_entangled = _entangled(config, parameter, lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _entangled(config, parameter, mid) == lo_entangled:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_threshold_contract(critical, config, parameter, bracket, tol):
    """A find_threshold result lies within tol/2 of the crossing and splits the verdicts."""
    crossing = _bisected_crossing(config, parameter, bracket, tol / 1000)
    # the reference is itself within tol/2000 of the crossing
    assert abs(critical - crossing) <= 0.5 * tol + tol / 2000, (parameter, critical, crossing)
    below = _entangled(config, parameter, max(bracket[0], critical - 0.5 * tol))
    above = _entangled(config, parameter, min(bracket[1], critical + 0.5 * tol))
    assert below != above, (parameter, critical, config)


def _count_runs(monkeypatch, name):
    calls = []
    run = getattr(pr, name)

    def counted(config, *args, **kwargs):
        calls.append(config)
        return run(config, *args, **kwargs)

    monkeypatch.setattr(pr, name, counted)
    return calls


@pytest.mark.parametrize("convention", pr.PHASE_NOISE_CONVENTIONS)
def test_find_threshold_lies_within_half_tol_of_bisected_crossing(convention, monkeypatch):
    rng = np.random.default_rng(20261018)
    calls = _count_runs(monkeypatch, "run_gaussian_protocol")
    evaluations = bisection_evaluations = 0
    for parameter, (bracket, tol) in THRESHOLD_SEARCHES.items():
        found = 0
        while found < 6:
            config = pr.ProtocolConfig(
                r=rng.uniform(0.3, 1.0), N_D=10 ** rng.uniform(2, 4), y=rng.uniform(0.02, 0.5),
                x=rng.uniform(0.0, 0.05), N_in=rng.uniform(0.0, 2.0), N_th=rng.uniform(1.0, 20.0),
                sigma=rng.uniform(0.0, 0.01), eta1=rng.uniform(0.6, 1.0),
                eta2=rng.uniform(0.6, 1.0), eta_c=rng.uniform(0.6, 1.0),
                phase_noise_convention=convention,
            )
            lo, hi = (_entangled(config, parameter, end) for end in bracket)
            if lo == hi:
                continue
            found += 1
            del calls[:]
            critical = pr.find_threshold(config, parameter, bracket, tol)
            evaluations += len(calls)
            _check_threshold_contract(critical, config, parameter, bracket, tol)
            bisection_evaluations += 2 + math.ceil(math.log2((bracket[1] - bracket[0]) / tol))
    # the witness sets the steps: bisection would take 19 to 26 evaluations per search
    assert evaluations <= 0.5 * bisection_evaluations, (evaluations, bisection_evaluations)


@pytest.mark.filterwarnings("ignore::micromacro.fock.TruncationWarning")
@pytest.mark.parametrize("fock_dims", [6, 8])
def test_fock_find_threshold_lies_within_half_tol_of_bisected_crossing(fock_dims, monkeypatch):
    rng = np.random.default_rng(fock_dims)
    calls = _count_runs(monkeypatch, "run_fock_protocol")
    evaluations = []
    for _ in range(2):
        config = pr.ProtocolConfig(
            engine="fock", fock_dims=fock_dims, x=rng.uniform(0.0, 0.02),
            N_th=rng.uniform(0.1, 0.5), N_in=rng.uniform(0.0, 0.5), eta1=rng.uniform(0.8, 1.0),
            eta2=rng.uniform(0.8, 1.0), eta_c=rng.uniform(0.8, 1.0),
        )
        for parameter, bracket, tol in (("N_D", (1.0, 1e5), 1.0), ("sigma", (0.0, 0.05), 1e-6)):
            del calls[:]
            critical = pr.find_threshold(config, parameter, bracket, tol)
            evaluations.append(len(calls))
            _check_threshold_contract(critical, config, parameter, bracket, tol)
    # 8 to 10 with the Wootters difference setting the steps; bisection takes 19 and 18
    assert max(evaluations) <= 12, evaluations


def test_find_threshold_fig3_displacement_search_takes_few_evaluations(monkeypatch):
    # The gaussian witness is linear in N_D, so the secant step from the two
    # bracket ends lands on the crossing and one step of tol/2 closes the
    # bracket.  Bisection took 26 evaluations here.
    calls = _count_runs(monkeypatch, "run_gaussian_protocol")
    critical = pr.find_threshold(pr.ProtocolConfig(sigma=0.005), "N_D", (1.0, 1e7), tol=1.0)
    assert len(calls) <= 5, [c.N_D for c in calls]
    assert abs(critical - 48636.945) < 0.5


def test_engine_consistency_on_entanglement_verdict():
    # Whenever the covariance engine sees entanglement, the projected qubit
    # pair of the fock engine must fail the positive-partial-transpose test,
    # and vice versa (20 random draws in the truncation-honest box).
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(0, 0.1)
        y = rng.uniform(0.1, 0.9)
        n_in = rng.uniform(0, 0.5)
        n_th = rng.uniform(0, 0.5)
        r = rng.uniform(0.05, 0.3)
        coeffs = ga.channel_coefficients(x, y)
        gauss = ga.storage_retrieval_channel(ga.tmsv_state(r), coeffs, n_in, n_th)
        gauss_entangled = ga.log_negativity(gauss) > 1e-10
        rho = fk.linear_channel_apply(
            fk.two_mode_squeezed_state(r, (16, 16)), coeffs, n_in, n_th
        )
        m = fk.qubit_project(rho).matrix.reshape(2, 2, 2, 2)
        partial_transpose = m.transpose(0, 3, 2, 1).reshape(4, 4)
        fock_entangled = np.linalg.eigvalsh(partial_transpose)[0] < -1e-10
        assert gauss_entangled == fock_entangled, (x, y, n_in, n_th, r)


def test_vacuum_mechanics_weak_coupling_limit_oracle():
    # With N_in = 0 the channel near y = 1 is an attenuator tau = c1^2 whose
    # added noise and phase-noise variance are both proportional to tau, so
    # the state stays entangled as y -> 1 iff
    #     (4/3) x N_th + eta1 N_D sigma^2 < eta1        (propagated_mean)
    #     (4/3) x N_th + N_D sigma^2 (1 + x)^2 < eta1   (paper_literal)
    # independent of r, eta2 and eta_c.  Draws within 5 % of equality are
    # left out, since the condition is exact only in the limit.
    rng = np.random.default_rng(20261018)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        base = pr.ProtocolConfig(
            r=rng.uniform(0.1, 1.0), N_D=10 ** rng.uniform(2, 4), y=0.999,
            x=rng.uniform(0, 0.1), N_in=0.0, N_th=rng.uniform(0, 10),
            sigma=rng.uniform(0, 0.02), eta1=rng.uniform(0.2, 1.0),
            eta2=rng.uniform(0.2, 1.0), eta_c=rng.uniform(0.2, 1.0),
        )
        for convention in pr.PHASE_NOISE_CONVENTIONS:
            config = dataclasses.replace(base, phase_noise_convention=convention)
            if convention == "paper_literal":
                gain = (1.0 + config.x) ** 2
            else:
                gain = config.eta1
            limit = 4.0 / 3.0 * config.x * config.N_th + gain * config.N_D * config.sigma**2
            if abs(limit / config.eta1 - 1.0) < 0.05:
                continue
            predicted = limit < config.eta1
            assert (pr.entanglement_metric(config) > 0.0) == predicted, config
            verdicts[predicted] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_feasibility_presets_frozen_values():
    report = pr.feasibility(pr.FEASIBILITY_PRESETS["nanobeam"])
    assert abs(report.G - 2.0 * math.pi * 3.2e6) < 1e-3
    assert abs(report.x - 0.0109375) < 1e-12
    assert abs(report.N_th - 10.7704352251) < 1e-9
    assert abs(report.suppression - (5.0 / 37.0) ** 2) < 1e-15
    assert abs(report.y_G - 0.1339057214) < 1e-9
    assert report.resolved_sideband and report.adiabatic and report.detectable
    report = pr.feasibility(pr.FEASIBILITY_PRESETS["trampoline"])
    assert abs(report.decoherence_time - 7.64e-3) < 0.05e-3
    assert abs(report.N_th - 2083.16) < 0.01


def test_feasibility_flags_and_ratio_threshold():
    nanobeam = pr.FEASIBILITY_PRESETS["nanobeam"]
    # omega_m / kappa = 7.4 and kappa / g = 12.5: both pass at 5x, the
    # sideband flag drops at a 10x requirement.
    strict = pr.feasibility(nanobeam, ratio_threshold=10.0)
    assert not strict.resolved_sideband and strict.adiabatic
    assert any("tau" in note for note in strict.notes)


def test_feasibility_input_validation():
    with pytest.raises(ValueError):
        pr.FeasibilityInput(omega_m=-1.0, kappa=1.0, g=1.0, tau=1.0, T=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        pr.FeasibilityInput(omega_m=1.0, kappa=1.0, g=1.0, tau=1.0, T=1.0)
    with pytest.raises(ValueError):
        pr.FeasibilityInput(
            omega_m=1.0, kappa=1.0, g=1.0, tau=1.0, T=1.0, gamma=1.0, Q=1e6
        )
    via_q = pr.FeasibilityInput(omega_m=10.0, kappa=1.0, g=1.0, tau=1.0, T=1.0, Q=100.0)
    assert abs(via_q.damping_rate - 0.1) < 1e-15
