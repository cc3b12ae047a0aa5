"""Closed-form oracle for the Fock pipeline's {0,1}^2 block.

The A arm of the pipeline (loss eta1, storage channel, phase noise, loss
eta2) is one single-mode Gaussian channel: gain t = -c1 sqrt(eta1 eta2) and
diagonal added noise (n_x, n_p).  Mode C is pure loss.  The elements
<m|Phi(|j><k|)|n> with j, k, m, n <= 1 are then short algebraic forms in t,
n_x and n_p (README, "The Fock engine's closed-form oracle"); here they are
checked against the truncated engine and its analytic limits.
"""

import dataclasses
import itertools
import math
import random
import warnings

import numpy as np

from micromacro import fock as fk
from micromacro import gaussian as ga
from micromacro import protocol as pr

IDEAL = pr.ProtocolConfig(
    engine="fock", N_D=0.0, y=1e-9, x=0.0, N_in=0.0, N_th=0.0, sigma=0.0,
    eta1=1.0, eta2=1.0, eta_c=1.0,
)


def gaussian_channel_elements(t, n_x, n_p):
    """<m|Phi(|j><k|)|n> at index [j, k, m, n], j, k, m, n in {0, 1}.

    Phi maps X -> t X and P -> t P and adds noise variances n_x and n_p
    (vacuum variance 1/2).  Each element is the coefficient of the monomial
    in (alpha, beta-bar, gamma-bar, delta) <-> (j, k, m, n) of c exp(Q): 1 for
    none, the pair term for two, the sum over the three pairings for four.
    """
    a_x = (1.0 + t * t) / 2.0 + n_x
    a_p = (1.0 + t * t) / 2.0 + n_p
    c = 1.0 / math.sqrt(a_x * a_p)
    p, q = 1.0 / (4.0 * a_p), 1.0 / (4.0 * a_x)
    pair = np.zeros((4, 4))
    pair[0, 1] = 1.0 - 2.0 * t * t * (p + q)
    pair[2, 3] = 1.0 - 2.0 * (p + q)
    pair[0, 2] = pair[1, 3] = 2.0 * t * (p + q)
    pair[0, 3] = pair[1, 2] = 2.0 * t * (q - p)
    out = np.zeros((2, 2, 2, 2))
    for index in itertools.product((0, 1), repeat=4):
        present = [v for v in range(4) if index[v]]
        if not present:
            out[index] = c
        elif len(present) == 2:
            out[index] = c * pair[present[0], present[1]]
        elif len(present) == 4:
            out[index] = c * (
                pair[0, 1] * pair[2, 3] + pair[0, 2] * pair[1, 3] + pair[0, 3] * pair[1, 2]
            )
    return out


def closed_form_block(config):
    """Unnormalized {0,1}^2 block of the pipeline's output, basis |a c>."""
    coeffs = ga.channel_coefficients(config.x, config.y)
    variance = 2.0 * pr.phase_noise_amplitude_sq(config, coeffs) * config.sigma**2
    stored = (
        coeffs.c1**2 * (1.0 - config.eta1) / 2.0
        + coeffs.c2_mag**2 * (config.N_in + 0.5)
        + coeffs.f1**2 / 2.0
        + coeffs.f2**2 * (config.N_th + 0.5)
    )
    n_x = config.eta2 * stored + (1.0 - config.eta2) / 2.0
    gain = -coeffs.c1 * math.sqrt(config.eta1 * config.eta2)
    arm_a = gaussian_channel_elements(gain, n_x, n_x + config.eta2 * variance)
    # pure loss: gain sqrt(eta) and vacuum noise (1 - eta)/2 in both quadratures
    loss_c = (1.0 - config.eta_c) / 2.0
    arm_c = gaussian_channel_elements(math.sqrt(config.eta_c), loss_c, loss_c)
    # input (|1 0> + |0 1>)/sqrt(2): |j><k| on A comes with |1-j><1-k| on C
    return 0.5 * np.einsum("jkmn,jkab->manb", arm_a, arm_c[::-1, ::-1]).reshape(4, 4)


def closed_form(config):
    """(concurrence, projection probability) of the pipeline in closed form."""
    block = closed_form_block(config)
    p = float(np.trace(block))
    return fk.concurrence(block / p), p


def _engine(config):
    result = pr.run_fock_protocol(config)
    return result.concurrence, result.projection_probability


def _seeded_configs(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        yield pr.ProtocolConfig(
            engine="fock", N_D=math.exp(rng.uniform(0.0, math.log(3e4))),
            y=rng.uniform(0.01, 0.9), x=rng.uniform(0.0, 0.02), N_in=rng.uniform(0.0, 1.0),
            N_th=rng.uniform(0.1, 20.0), sigma=rng.uniform(0.0, 0.01),
            eta1=rng.uniform(0.5, 1.0), eta2=rng.uniform(0.5, 1.0), eta_c=rng.uniform(0.5, 1.0),
            phase_noise_convention=rng.choice(pr.PHASE_NOISE_CONVENTIONS),
        )


def test_closed_form_matches_truncated_engine_at_40_levels():
    worst, entangled = 0.0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fk.TruncationWarning)
        for config in _seeded_configs(20261018, 60):
            concurrence, projection = closed_form(config)
            result = pr.run_fock_protocol(dataclasses.replace(config, fock_dims=40))
            worst = max(
                worst,
                abs(concurrence - result.concurrence),
                abs(projection - result.projection_probability),
            )
            entangled += concurrence > 0.0
    assert worst < 1e-12, worst
    assert entangled >= 30, entangled


def test_closed_form_pure_loss_limit():
    # sigma = 0 with vacuum mechanics: every channel is pure loss, so the
    # photon stays in the block: T = c1^2 eta1 eta2 on A, the parity flip
    # turns the coherence negative, and C = 2 |rho_{01,10}|.  The concurrence
    # of this rank-2 block resolves only to ~1e-8: it takes square roots of
    # eigenvalues that are zero up to rounding.
    rng = random.Random(7)
    for _ in range(20):
        config = dataclasses.replace(
            IDEAL, y=rng.uniform(0.01, 0.99), x=rng.uniform(0.0, 0.5),
            eta1=rng.uniform(0.0, 1.0), eta2=rng.uniform(0.0, 1.0), eta_c=rng.uniform(0.0, 1.0),
            N_D=rng.uniform(0.0, 1e4),
        )
        c1 = ga.channel_coefficients(config.x, config.y).c1
        transmission = c1**2 * config.eta1 * config.eta2
        coherence = -c1 * math.sqrt(config.eta1 * config.eta2 * config.eta_c) / 2.0
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0 - (transmission + config.eta_c) / 2.0
        expected[1, 1] = config.eta_c / 2.0
        expected[2, 2] = transmission / 2.0
        expected[1, 2] = expected[2, 1] = coherence
        assert np.max(np.abs(closed_form_block(config) - expected)) < 1e-15, config
        for concurrence, projection in (closed_form(config), _engine(config)):
            assert abs(concurrence - 2.0 * abs(coherence)) < 1e-8, config
            assert abs(projection - 1.0) < 1e-14, config


def test_closed_form_product_state_and_ideal_limits():
    # eta1 = 0 loses mode A's photon before storage: a product state.
    rng = random.Random(11)
    for config in _seeded_configs(3, 10):
        config = dataclasses.replace(config, eta1=0.0, N_th=rng.uniform(0.0, 1.0))
        assert closed_form(config)[0] == 0.0
        assert pr.run_fock_protocol(config).concurrence == 0.0
    concurrence, projection = closed_form(IDEAL)
    assert abs(concurrence - 1.0) < 1e-12
    assert abs(projection - 1.0) < 1e-12
