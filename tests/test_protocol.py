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
    ):
        with pytest.raises(ValueError):
            pr.ProtocolConfig(**bad)
    assert type(pr.ProtocolConfig(fock_dims=12.0).fock_dims) is int


def test_config_mapping_round_trip():
    config = pr.ProtocolConfig(engine="fock", N_th=0.2, sigma=0.003, fock_dims=12)
    mapping = pr.config_to_mapping(config)
    rebuilt = pr.config_from_mapping({k: str(v) for k, v in mapping.items()})
    assert rebuilt == config
    with pytest.raises(KeyError):
        pr.config_from_mapping({"unknown_field": "1"})


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


def test_fock_pipeline_regression_and_leakage():
    config = pr.ProtocolConfig(**FOCK_BASE)
    result = pr.run_fock_protocol(config)
    assert abs(result.concurrence - FOCK_BASE_CONCURRENCE) < 1e-12
    assert abs(result.projection_probability - FOCK_BASE_PROJECTION) < 1e-12
    assert abs(result.leakage) < 1e-14


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


def test_find_threshold_bracket_errors():
    config = pr.ProtocolConfig()
    with pytest.raises(ValueError):
        pr.find_threshold(config, "y", (0.2, 0.3))  # positive at both ends
    zero_config = dataclasses.replace(config, eta1=0.05)
    with pytest.raises(ValueError):
        pr.find_threshold(zero_config, "N_D", (1.0, 2.0))  # zero at both ends
    with pytest.raises(ValueError):
        pr.find_threshold(config, "y", (0.9, 0.1))  # decreasing bracket


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
