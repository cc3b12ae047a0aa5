"""The closed-form Fock engine against the truncated channels it replaced.

`run_fock_protocol` composes mode A's stages (loss eta1, storage channel,
phase noise, loss eta2) into one single-mode Gaussian channel and reads the
{0,1}^2 block out in closed form (README, "The Fock engine's closed form").
Here it is checked against the public truncated channels composed at a
finite cutoff, which converge to it as the cutoff grows, and against its
analytic limits.
"""

import dataclasses
import math
import random

import pytest

from micromacro import fock as fk
from micromacro import gaussian as ga
from micromacro import protocol as pr

IDEAL = pr.ProtocolConfig(
    engine="fock", N_D=0.0, y=1e-9, x=0.0, N_in=0.0, N_th=0.0, sigma=0.0,
    eta1=1.0, eta2=1.0, eta_c=1.0,
)


def truncated_pipeline(config, dims):
    """(concurrence, projection probability) of the pipeline composed from the
    public truncated channels on `dims` levels of modes (A, C)."""
    coeffs = ga.channel_coefficients(config.x, config.y)
    rho = fk.single_photon_entangled_input(0.0, dims)
    rho = fk.pure_loss_channel(rho, 0, config.eta1)
    rho = fk.linear_channel_apply(rho, coeffs, config.N_in, config.N_th)
    variance = 2.0 * pr.phase_noise_amplitude_sq(config, coeffs) * config.sigma**2
    rho = fk.phase_noise_average(rho, variance, 0)
    rho = fk.pure_loss_channel(rho, 0, config.eta2)
    rho = fk.pure_loss_channel(rho, 1, config.eta_c)
    qubits, probability = fk.qubit_project(rho)
    return fk.concurrence(qubits), probability


def _engine(config):
    result = pr.run_fock_protocol(config)
    return result.concurrence, result.projection_probability


def _seeded_configs(seed, n, n_th_max=20.0, n_d_max=3e4):
    rng = random.Random(seed)
    for _ in range(n):
        yield pr.ProtocolConfig(
            engine="fock", N_D=math.exp(rng.uniform(0.0, math.log(n_d_max))),
            y=rng.uniform(0.01, 0.9), x=rng.uniform(0.0, 0.02), N_in=rng.uniform(0.0, 1.0),
            N_th=rng.uniform(0.1, n_th_max), sigma=rng.uniform(0.0, 0.01),
            eta1=rng.uniform(0.5, 1.0), eta2=rng.uniform(0.5, 1.0), eta_c=rng.uniform(0.5, 1.0),
            phase_noise_convention=rng.choice(pr.PHASE_NOISE_CONVENTIONS),
        )


def _worst_difference(configs, dims):
    worst = 0.0
    for config in configs:
        engine, truncated = _engine(config), truncated_pipeline(config, dims)
        worst = max(worst, *(abs(e - t) for e, t in zip(engine, truncated)))
    return worst


@pytest.mark.parametrize("d", [8, 12, 16])
def test_engine_matches_truncated_composition(d):
    # The truncated channels on (d, d) levels converge to the closed form as
    # d grows: on these configs the worst difference is 3.3e-6, 2.0e-9 and
    # 9.9e-13 at 8, 12 and 16 levels, under bounds of 1e-4, 1e-7 and 1e-10.
    configs = _seeded_configs(1, 12, n_th_max=1.0, n_d_max=1e4)
    assert _worst_difference(configs, (d, d)) < 10.0 ** (2.0 - 0.75 * d)


def test_closed_form_matches_truncated_engine_at_40_levels():
    # Mode C only loses its photon, so two levels hold it exactly.
    configs = list(_seeded_configs(20261018, 60))
    assert _worst_difference(configs, (40, 2)) < 1e-12
    assert sum(_engine(config)[0] > 0.0 for config in configs) >= 30


def test_closed_form_pure_loss_limit():
    # sigma = 0 with vacuum mechanics: every channel is pure loss, so the
    # photon stays in the block: T = c1^2 eta1 eta2 on A, the parity flip
    # turns the coherence negative, and C = 2 |rho_{01,10}|.  The block is
    # rank 2: rho_44 and rho_14 vanish.  So the concurrence resolves only to
    # ~1e-8: it takes the square root of rho_11 rho_44, zero up to rounding.
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
        block = pr._qubit_block(pr._point(config), config.phase_noise_convention)
        assert abs(sum(block[i][i] for i in range(4)) - 1.0) < 1e-15, config
        assert abs(block[3][3]) < 1e-15 and block[0][3] == 0.0, config
        assert abs(block[1][1] - config.eta_c / 2.0) < 1e-15, config
        assert abs(block[2][2] - transmission / 2.0) < 1e-15, config
        assert abs(block[1][2] - coherence) < 1e-15, config
        concurrence, projection = _engine(config)
        assert abs(concurrence - 2.0 * abs(coherence)) < 1e-8, config
        assert abs(projection - 1.0) < 1e-14, config


def test_witness_is_the_wootters_difference_of_the_projected_block():
    # The projected block is an X-state, so the pipeline reads its witness in
    # closed form (Yu & Eberly).  Where the state is entangled that is the
    # general Wootters difference l1 - l2 - l3 - l4; on the separable side
    # the two differ but are both negative.
    configs = list(_seeded_configs(20261019, 200, n_th_max=40.0))
    entangled = 0
    for config in configs:
        witness = pr.run_fock_protocol(config).witness
        block = pr._qubit_block(pr._point(config), config.phase_noise_convention)
        qubits, _ = fk.qubit_project(fk.FockDensityMatrix((2, 2), block))
        reference = fk.wootters_difference(qubits)
        assert (witness > 0.0) == (reference > 0.0), config
        if reference > 0.0:
            entangled += 1
            assert abs(witness - reference) < 1e-12, config
    assert 50 <= entangled <= len(configs) - 50, entangled


def test_closed_form_product_state_and_ideal_limits():
    # eta1 = 0 loses mode A's photon before storage: a product state.
    rng = random.Random(11)
    for config in _seeded_configs(3, 10):
        config = dataclasses.replace(config, eta1=0.0, N_th=rng.uniform(0.0, 1.0))
        assert pr.run_fock_protocol(config).concurrence == 0.0
    concurrence, projection = _engine(IDEAL)
    assert abs(concurrence - 1.0) < 1e-12
    assert abs(projection - 1.0) < 1e-12

