"""Tests for the covariance-matrix engine.

Reference values were computed independently (30-digit arithmetic on the
closed forms) and are frozen as literals; property checks run over seeded
random parameter draws.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from micromacro import channel as ch
from micromacro import gaussian as ga
from micromacro import protocol as pr

# Frozen closed-form references (30-digit evaluation, truncated to double).
TMSV_DIAG_R05 = 0.771540317407622  # sinh(0.5)^2 + 1/2
TMSV_CROSS_R05 = 0.587600596821901  # sinh(0.5) cosh(0.5)
LOSSY_DIAG_R05 = 0.717232253926098  # 0.8 * diag + 0.2 * 0.5
LOSSY_CROSS_R05 = 0.525565951245287  # sqrt(0.8) * cross
C1_REF = 0.99 / 1.01
C2_REF = 0.09900495037128094
F1_REF = 0.103985557593030
F2_REF = 0.136370325182291
CHANNEL_DIAG_REF = 0.956663357492504  # TMSV(0.5) through coeffs(0.01, 0.1), N_in=1, N_th=10
CHANNEL_CROSS_REF = -0.575964941439289


def test_vacuum_state():
    state = ga.vacuum_state()
    assert np.array_equal(state.mean, np.zeros(4))
    assert np.array_equal(state.cov, 0.5 * np.eye(4))


def test_tmsv_covariance_entries():
    state = ga.tmsv_state(0.5)
    assert np.allclose(np.diag(state.cov), TMSV_DIAG_R05, atol=1e-14)
    assert abs(state.cov[0, 2] - TMSV_CROSS_R05) < 1e-14
    assert abs(state.cov[1, 3] + TMSV_CROSS_R05) < 1e-14
    assert state.cov[0, 1] == 0.0 and state.cov[0, 3] == 0.0


def test_tmsv_is_pure_and_zero_squeezing_is_vacuum():
    # For pure states Delta^2 - 4 det V cancels exactly; in doubles the
    # closed form resolves the degenerate pair only to ~sqrt(eps).
    nus = ga.symplectic_eigenvalues(ga.tmsv_state(0.8))
    assert abs(nus[0] - 0.5) < 1e-7 and abs(nus[1] - 0.5) < 1e-7
    assert np.allclose(ga.tmsv_state(0.0).cov, ga.vacuum_state().cov)


def test_tmsv_rejects_bad_squeezing():
    with pytest.raises(ValueError):
        ga.tmsv_state(-0.1)
    with pytest.raises(ValueError):
        ga.tmsv_state(25.0)


def test_displace_shifts_mean_only():
    state = ga.tmsv_state(0.3)
    shifted = ga.displace(state, "A", 2.0 - 1.5j)
    assert np.allclose(shifted.mean, [2.0 * math.sqrt(2), -1.5 * math.sqrt(2), 0, 0])
    assert np.array_equal(shifted.cov, state.cov)
    both = ga.displace(shifted, "C", 1.0j)
    assert np.allclose(both.mean[2:], [0.0, math.sqrt(2)])


def test_displace_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ga.displace(ga.vacuum_state(), "B", 1.0)


@pytest.mark.parametrize("mode", ["Z", "B", 0])
def test_channels_reject_bad_mode(mode):
    # eta = 1 and zero added variance leave a state alone, but not with a bad mode
    state = ga.tmsv_state(0.5)
    coeffs = ga.channel_coefficients(0.01, 0.1)
    for eta in (0.5, 1.0):
        with pytest.raises(ValueError, match="unknown mode"):
            ga.loss_channel(state, mode, eta)
    for sigma in (0.01, 0.0):
        with pytest.raises(ValueError, match="unknown mode"):
            ga.phase_noise(state, sigma, 5000.0, mode=mode)
    with pytest.raises(ValueError, match="unknown mode"):
        ga.storage_retrieval_channel(state, coeffs, 1.0, 10.0, mode=mode)


ONE = ga.tmsv_state(0.5)
PAIR = np.array([0.25, 0.5])
COEFFS = ga.channel_coefficients(0.01, 0.1)


def batch():
    """Two states stacked, which GaussianTwoModeState rejects."""
    return ga.GaussianTwoModeState(np.zeros((2, 4)), np.stack([ONE.cov, ONE.cov]))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: ga.tmsv_state(PAIR), id="tmsv_state-r"),
        pytest.param(lambda: ga.displace(batch(), "A", 1.0), id="displace-state"),
        pytest.param(lambda: ga.displace(ONE, "A", PAIR), id="displace-alpha"),
        pytest.param(lambda: ga.loss_channel(batch(), "A", 0.5), id="loss_channel-state"),
        pytest.param(lambda: ga.loss_channel(ONE, "A", PAIR), id="loss_channel-eta"),
        pytest.param(
            lambda: ga.storage_retrieval_channel(batch(), COEFFS, 1.0, 10.0),
            id="storage_retrieval_channel-state",
        ),
        pytest.param(
            lambda: ga.storage_retrieval_channel(ONE, [COEFFS, COEFFS], 1.0, 10.0),
            id="storage_retrieval_channel-coeffs",
        ),
        pytest.param(
            lambda: ga.storage_retrieval_channel(ONE, COEFFS, PAIR, 10.0),
            id="storage_retrieval_channel-n_initial",
        ),
        pytest.param(
            lambda: ga.storage_retrieval_channel(ONE, COEFFS, 1.0, PAIR),
            id="storage_retrieval_channel-n_bath",
        ),
        pytest.param(lambda: ga.phase_noise(batch(), 0.01, 5000.0), id="phase_noise-state"),
        pytest.param(lambda: ga.phase_noise(ONE, PAIR, 5000.0), id="phase_noise-sigma"),
        pytest.param(lambda: ga.phase_noise(ONE, 0.01, PAIR), id="phase_noise-amp_sq"),
        pytest.param(lambda: ga.symplectic_eigenvalues(batch()), id="symplectic_eigenvalues"),
        pytest.param(lambda: ga.physicality_check(batch()), id="physicality_check-state"),
        pytest.param(lambda: ga.physicality_check(ONE, PAIR), id="physicality_check-tol"),
        pytest.param(lambda: ga.ppt_minimum_eigenvalue(batch()), id="ppt_minimum_eigenvalue"),
        pytest.param(lambda: ga.ppt_witness(batch()), id="ppt_witness"),
        pytest.param(lambda: ga.log_negativity(batch()), id="log_negativity"),
        pytest.param(lambda: ga.negativity_from_nu(PAIR), id="negativity_from_nu"),
    ],
)
def test_operations_reject_batches(call):
    # The operations act on one state and scalar parameters: an array
    # parameter would be broadcast or sliced along its axis, and a batch of
    # states cannot be built, so either fails loudly, naming the shape.
    with pytest.raises(ValueError, match=r"^(expected|mean must have) .* shape \((2, 4|2,)\)$"):
        call()


@pytest.mark.parametrize(
    "mean_shape, cov_shape, message",
    [
        ((2, 4), (2, 4, 4), "mean must have shape (4,), got shape (2, 4)"),
        ((4,), (2, 4, 4), "cov must have shape (4, 4), got shape (2, 4, 4)"),
    ],
    ids=["batch-mean", "batch-cov"],
)
def test_state_holds_exactly_one_state(mean_shape, cov_shape, message):
    # the shapes are checked first, so the entries do not matter
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ga.GaussianTwoModeState(np.zeros(mean_shape), np.zeros(cov_shape))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: ga.phase_noise(ga.vacuum_state(), -0.1, 1.0),
            "phase jitter sigma=-0.1 must be finite and >= 0",
        ),
        (
            lambda: ga.phase_noise(ga.vacuum_state(), 0.1, -1.0),
            "amplitude photon number -1.0 must be finite and >= 0",
        ),
        (
            lambda: ga.component_variance(1.5, 1.0),
            "Fock index n=1.5 must be a non-negative integer",
        ),
        (
            lambda: ga.component_variance(1, -1.0),
            "displacement photon number -1.0 must be >= 0",
        ),
    ],
    ids=["phase-sigma", "phase-amp-sq", "component-n", "component-n-displaced"],
)
def test_scalar_inputs_rejected_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_each_operation_builds_one_checked_state(monkeypatch):
    # every operation's output, and the single pipeline run's, passes the
    # class's checks exactly once; an identity stage returns its input
    built = []
    original = ga.GaussianTwoModeState.__post_init__

    def counting(state):
        built.append(np.shape(state.cov))
        original(state)

    monkeypatch.setattr(ga.GaussianTwoModeState, "__post_init__", counting)
    calls = (
        ga.vacuum_state,
        lambda: ga.tmsv_state(0.5),
        lambda: ga.displace(ONE, "A", 1.0 - 0.5j),
        lambda: ga.loss_channel(ONE, "C", 0.5),
        lambda: ga.storage_retrieval_channel(ONE, COEFFS, 1.0, 10.0),
        lambda: ga.phase_noise(ONE, 0.01, 5000.0),
        lambda: pr.run_gaussian_protocol(pr.ProtocolConfig()),
    )
    for call in calls:
        built.clear()
        call()
        assert built == [(4, 4)]
    built.clear()
    assert ga.loss_channel(ONE, "A", 1.0) is ONE and ga.phase_noise(ONE, 0.0, 5000.0) is ONE
    assert built == []


def test_component_variance_macroscopicity():
    # Photon-number variance of a displaced number state: (2n + 1) |alpha|^2.
    assert ga.component_variance(0, 5000.0) == 5000.0
    assert ga.component_variance(1, 5000.0) == 15000.0
    delta = ga.component_variance(1, 2500.0) - ga.component_variance(0, 2500.0)
    assert delta == 5000.0


def test_loss_channel_frozen_values():
    state = ga.loss_channel(ga.tmsv_state(0.5), "A", 0.8)
    assert abs(state.cov[0, 0] - LOSSY_DIAG_R05) < 1e-14
    assert abs(state.cov[2, 2] - TMSV_DIAG_R05) < 1e-14  # other mode untouched
    assert abs(state.cov[0, 2] - LOSSY_CROSS_R05) < 1e-14


def test_loss_channel_limits():
    state = ga.displace(ga.tmsv_state(0.4), "A", 3.0)
    assert ga.loss_channel(state, "A", 1.0) is state
    dark = ga.loss_channel(state, "A", 0.0)
    assert np.allclose(dark.mean[:2], 0.0)
    assert np.allclose(dark.cov[:2, :2], 0.5 * np.eye(2))
    assert np.allclose(dark.cov[0:2, 2:4], 0.0)
    with pytest.raises(ValueError):
        ga.loss_channel(state, "A", 1.2)


def test_loss_channel_preserves_physicality():
    rng = np.random.default_rng(42)
    for _ in range(50):
        state = ga.tmsv_state(rng.uniform(0, 1.5))
        state = ga.displace(state, "A", complex(rng.normal(), rng.normal()))
        state = ga.loss_channel(state, "A", rng.uniform(0, 1))
        state = ga.loss_channel(state, "C", rng.uniform(0, 1))
        ok, nus = ga.physicality_check(state)
        assert ok, f"unphysical state, nu_min = {nus[0]}"


def test_channel_coefficients_frozen_values():
    coeffs = ga.channel_coefficients(0.01, 0.1)
    assert abs(coeffs.c1 - C1_REF) < 1e-15
    assert abs(coeffs.c2_mag - C2_REF) < 1e-15
    assert abs(coeffs.f1 - F1_REF) < 1e-14
    assert abs(coeffs.f2 - F2_REF) < 1e-14


def test_channel_coefficients_special_cases():
    # Full transfer, no damping: the channel is a clean (sign-flipped) relay.
    coeffs = ga.channel_coefficients(0.0, 0.5)
    assert abs(coeffs.c1 - 0.75) < 1e-15
    assert abs(coeffs.f1 - 0.5) < 1e-15
    assert coeffs.f2 == 0.0
    # y = 1: nothing is written into the mechanics; pure vacuum swap.
    coeffs = ga.channel_coefficients(0.3, 1.0)
    assert (coeffs.c1, coeffs.c2_mag, coeffs.f1, coeffs.f2) == (0.0, 0.0, 1.0, 0.0)


def test_channel_coefficients_closure_property():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(1000):
        coeffs = ga.channel_coefficients(rng.uniform(0, 1), rng.uniform(0.01, 0.99))
        worst = max(worst, coeffs.closure_defect)
    assert worst < 1e-12, f"worst closure defect {worst}"


def test_channel_coefficients_closure_up_to_y_one():
    # Where 1 - y^2 < SERIES_BELOW the coefficients take 1 - y^2, y^2 and ln y
    # from the exact 1 - y.  From y * y and log(y) the closure failed its
    # 1e-10 check here, by 7.0e-10 at (0.5, 1 - 3.16e-9), and c1 was off by
    # up to 3.7e-9 relative.  1 - y is drawn log-uniform in [1e-17, 3.2e-3],
    # inside that branch.
    rng = np.random.default_rng(2718)
    worst = ga.channel_coefficients(0.5, 0.9999999968377223).closure_defect
    for _ in range(2000):
        x = float(10.0 ** rng.uniform(-6.0, 1.0))
        y = 1.0 - float(10.0 ** rng.uniform(-17.0, -2.5))
        coeffs = ga.channel_coefficients(x, y)
        worst = max(worst, coeffs.closure_defect)
        exact = float((1 - Fraction(y) ** 2) / (1 + Fraction(x)))
        assert abs(coeffs.c1 - exact) <= 1e-15 * exact, (x, y, coeffs.c1, exact)
    assert worst < 1e-15, f"worst closure defect {worst}"


def test_channel_coefficients_weak_coupling_noise_ratio():
    # As y -> 1 the bath noise f2^2 and the signal c1^2 both vanish as u^2,
    # u = 1 - y^2, with f2^2 / c1^2 = x (1 + sum_{n>=2} 2 u^(n-2) / (n (n+1)))
    # = (4/3) x (1 + u/8 + ...).  The closed form loses digits to cancellation
    # (2.8e-12 relative at y = 0.99, 1.6e-3 at y = 0.99999); the series branch
    # below u = 1e-2 keeps the ratio exact to rounding.
    for x in (0.01, 0.1, 1.0):
        for y in (0.99, 0.999, 0.9999, 0.99999):
            u = 1.0 - y * y
            tail = math.fsum(2.0 * u ** (n - 2) / (n * (n + 1)) for n in range(2, 30))
            series = x * (1.0 + tail)
            coeffs = ga.channel_coefficients(x, y)
            ratio = coeffs.f2**2 / coeffs.c1**2
            assert abs(ratio / series - 1.0) < 1e-11, (x, y, ratio, series)


def test_channel_coefficients_domain_errors():
    with pytest.raises(ValueError):
        ga.channel_coefficients(-0.1, 0.5)
    with pytest.raises(ValueError):
        ga.channel_coefficients(0.1, 0.0)
    with pytest.raises(ValueError):
        ga.channel_coefficients(0.1, 1.5)


def test_storage_retrieval_channel_frozen_values():
    coeffs = ga.channel_coefficients(0.01, 0.1)
    state = ga.storage_retrieval_channel(ga.tmsv_state(0.5), coeffs, 1.0, 10.0)
    assert abs(state.cov[0, 0] - CHANNEL_DIAG_REF) < 1e-14
    assert abs(state.cov[1, 1] - CHANNEL_DIAG_REF) < 1e-14
    assert abs(state.cov[0, 2] - CHANNEL_CROSS_REF) < 1e-14
    assert abs(state.cov[1, 3] + CHANNEL_CROSS_REF) < 1e-14
    assert abs(state.cov[2, 2] - TMSV_DIAG_R05) < 1e-14


def test_storage_retrieval_channel_flips_mean_sign():
    coeffs = ga.channel_coefficients(0.01, 0.1)
    state = ga.displace(ga.vacuum_state(), "A", 2.0)
    out = ga.storage_retrieval_channel(state, coeffs, 0.0, 0.0)
    assert abs(out.mean[0] + coeffs.c1 * 2.0 * math.sqrt(2)) < 1e-14
    assert out.mean[1] == 0.0


def test_storage_retrieval_channel_y1_breaks_entanglement():
    coeffs = ga.channel_coefficients(0.2, 1.0)
    out = ga.storage_retrieval_channel(ga.tmsv_state(1.0), coeffs, 0.0, 5.0)
    assert np.allclose(out.cov[0:2, 2:4], 0.0)
    assert ga.log_negativity(out) == 0.0


def test_storage_retrieval_channel_preserves_physicality():
    rng = np.random.default_rng(2718)
    for _ in range(50):
        coeffs = ga.channel_coefficients(rng.uniform(0, 1), rng.uniform(0.05, 0.99))
        state = ga.storage_retrieval_channel(
            ga.tmsv_state(rng.uniform(0, 1.2)), coeffs,
            rng.uniform(0, 5), rng.uniform(0, 20),
        )
        ok, nus = ga.physicality_check(state)
        assert ok, f"unphysical output, nu_min = {nus[0]}"


def test_storage_retrieval_channel_rejects_bad_inputs():
    coeffs = ga.channel_coefficients(0.01, 0.1)
    with pytest.raises(ValueError):
        ga.storage_retrieval_channel(ga.vacuum_state(), coeffs, -1.0, 0.0)
    broken = ga.ChannelCoefficients(x=0.01, y=0.1, c1=0.9, c2_mag=0.9, f1=0.9, f2=0.9)
    with pytest.raises(ValueError):
        ga.storage_retrieval_channel(ga.vacuum_state(), broken, 0.0, 0.0)


def test_storage_retrieval_channel_names_closure_and_occupation_failures():
    coeffs = ga.channel_coefficients(0.01, 0.1)
    # f1^2 raised by 1e-9 breaks the closure identity by about that much
    broken = ga.ChannelCoefficients(
        x=coeffs.x, y=coeffs.y, c1=coeffs.c1, c2_mag=coeffs.c2_mag,
        f1=math.sqrt(coeffs.f1**2 + 1e-9), f2=coeffs.f2,
    )
    with pytest.raises(ValueError, match=r"^channel coefficients violate closure by ") as error:
        ga.storage_retrieval_channel(ga.tmsv_state(0.5), broken, 1.0, 10.0)
    assert float(str(error.value).rsplit(" ", 1)[1]) == pytest.approx(1e-9, rel=1e-3)
    for n_initial, n_bath in ((-1.0, 0.0), (0.0, -1e-300)):
        with pytest.raises(ValueError, match=r"^thermal occupations must be >= 0$"):
            ga.storage_retrieval_channel(ga.tmsv_state(0.5), coeffs, n_initial, n_bath)


def test_phase_noise_adds_momentum_variance_only():
    state = ga.tmsv_state(0.5)
    noisy = ga.phase_noise(state, 0.01, 5000.0, mode="A")
    expected = state.cov.copy()
    expected[1, 1] += 2.0 * 5000.0 * 0.01**2
    assert np.array_equal(noisy.cov, expected)
    assert np.array_equal(noisy.mean, state.mean)


def test_phase_noise_zero_is_identity():
    state = ga.tmsv_state(0.5)
    assert ga.phase_noise(state, 0.0, 5000.0) is state
    assert ga.phase_noise(state, 0.01, 0.0) is state


def test_symplectic_eigenvalues_thermal():
    # A thermal-times-vacuum product state has nus (n + 1/2, 1/2).
    cov = np.diag([3.5, 3.5, 0.5, 0.5])
    state = ga.GaussianTwoModeState(np.zeros(4), cov)
    nus = ga.symplectic_eigenvalues(state)
    assert abs(nus[0] - 0.5) < 1e-12 and abs(nus[1] - 3.5) < 1e-12


def test_physicality_check_flags_overclaimed_squeezing():
    state = ga.GaussianTwoModeState(np.zeros(4), np.diag([0.1, 0.1, 0.5, 0.5]))
    ok, nus = ga.physicality_check(state)
    assert not ok and nus[0] < 0.5


def test_log_negativity_is_two_r():
    for r in (0.1, 0.5, 1.0):
        value = ga.log_negativity(ga.tmsv_state(r))
        assert abs(value - 2.0 * r) < 1e-12, f"r={r}: {value}"
    # Strong squeezing conditions the PPT closed form at ~(nu+/nu-)^2 eps.
    value = ga.log_negativity(ga.tmsv_state(2.0))
    assert abs(value - 4.0) < 1e-9, f"r=2: {value}"


def test_log_negativity_zero_for_separable():
    assert ga.log_negativity(ga.vacuum_state()) == 0.0
    thermal = ga.GaussianTwoModeState(np.zeros(4), np.diag([2.5, 2.5, 0.5, 0.5]))
    assert ga.log_negativity(thermal) == 0.0


def test_ppt_eigenvalue_against_direct_diagonalization():
    # Independent oracle: |eigenvalues of i Omega V_pt| where the partial
    # transpose flips P of the second mode.
    omega = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    rng = np.random.default_rng(99)
    for _ in range(30):
        coeffs = ga.channel_coefficients(rng.uniform(0, 0.5), rng.uniform(0.05, 0.99))
        state = ga.storage_retrieval_channel(
            ga.tmsv_state(rng.uniform(0.05, 1.0)), coeffs,
            rng.uniform(0, 2), rng.uniform(0, 10),
        )
        state = ga.loss_channel(state, "A", rng.uniform(0.3, 1.0))
        vpt = flip @ state.cov @ flip
        direct = np.min(np.abs(np.linalg.eigvals(1j * omega @ vpt)))
        closed = ga.ppt_minimum_eigenvalue(state)
        assert abs(direct - closed) < 1e-9, f"{direct} vs {closed}"


def test_ppt_witness_factorizes_and_signs_entanglement():
    # Sigma/4 - det V - 1/16 = (1/4 - nu_-^2)(nu_+^2 - 1/4) over the partially
    # transposed symplectic eigenvalues: (1 - e^{-4r})(e^{4r} - 1)/16 for a
    # two-mode squeezed vacuum, 0 for the vacuum, (1/4 - 9/4)(25/4 - 1/4)
    # for a product of thermal modes with nu = 3/2 and 5/2.
    for r in (0.1, 0.5, 1.0):
        expected = -math.expm1(-4.0 * r) * math.expm1(4.0 * r) / 16.0
        assert abs(ga.ppt_witness(ga.tmsv_state(r)) - expected) < 1e-12 * expected
    assert ga.ppt_witness(ga.vacuum_state()) == 0.0
    thermal = ga.GaussianTwoModeState(np.zeros(4), np.diag([2.5, 2.5, 1.5, 1.5]))
    assert abs(ga.ppt_witness(thermal) + 12.0) < 1e-12
    # on 400 channel outputs it is positive exactly where E_N is
    rng = np.random.default_rng(5)
    n = 400
    coeffs = [
        ga.channel_coefficients(rng.uniform(0, 0.5), rng.uniform(0.05, 0.99)) for _ in range(n)
    ]
    draws = zip(coeffs, rng.uniform(0.05, 1.0, n), rng.uniform(0, 2, n), rng.uniform(0, 10, n))
    witness, entangled = [], []
    for k, r, n_initial, n_bath in draws:
        state = ga.storage_retrieval_channel(ga.tmsv_state(r), k, n_initial, n_bath)
        witness.append(ga.ppt_witness(state))
        entangled.append(ga.log_negativity(state) > 0.0)
    witness, entangled = np.array(witness), np.array(entangled)
    assert witness.shape == (n,) and 50 < entangled.sum() < n - 50
    assert np.array_equal(witness > 0.0, entangled)


def test_ppt_readout_nu_is_nu_pair_nu_minus_bit_for_bit():
    # The readout computes nu_- alone.  nu_+'s radicand 0.5 (Sigma + root)
    # is at least nu_-'s 0.5 (Sigma - root) and shares its clamp band, so
    # nu_+ cannot fail where nu_- passes, and skipping it changes no outcome.
    def readout(total, det_v):
        try:
            return ch._ppt_readout(total, det_v)[0].hex()
        except ArithmeticError as error:
            return str(error)

    def pair(total, det_v):
        try:
            nu = ch._nu_pair(total, det_v)[0]
        except ArithmeticError as error:
            return str(error)
        # the readout's E_N rejects a zero nu_-
        return nu.hex() if nu > 0.0 else f"degenerate PPT symplectic eigenvalue {nu}"

    rng = np.random.default_rng(21)
    pairs = []
    for nu_minus, ratio in zip(rng.uniform(0.05, 3.0, 500), rng.uniform(1.0, 50.0, 500)):
        nu_plus = nu_minus * ratio
        pairs.append((nu_minus**2 + nu_plus**2, (nu_minus * nu_plus) ** 2))
    # the root's radicand Sigma^2 - 4 det V at the edge of its clamp band
    edges = []
    for total in rng.uniform(0.1, 10.0, 100):
        square = total * total
        det_v = (square + ch.RADICAND_CLAMP * max(square, 1.0)) / 4.0
        for ulps in range(-4, 5):
            edges.append((total, det_v + ulps * math.ulp(det_v)))
    # nu_-'s radicand 0.5 (Sigma - root) at the edge of its band: Sigma
    # itself where det V = 0, about det V / Sigma where det V < 0
    for edge in (-ch.RADICAND_CLAMP, -1.5 * ch.RADICAND_CLAMP):
        for ulps in range(-4, 5):
            edges.append((edge + ulps * math.ulp(edge), 0.0))
            edges.append((2.0, 2.0 * (edge + ulps * math.ulp(edge))))
    nan, inf = math.nan, math.inf
    special = [(nan, 0.25), (1.0, nan), (inf, 1.0), (1.0, 1.0), (0.5, 0.0625), (0.0, 0.0)]
    for case in (pairs, edges, special):
        assert [readout(*p) for p in case] == [pair(*p) for p in case]
    assert [readout(*p) for p in special] == [
        "radicand nan below clamp band",
        "radicand nan below clamp band",
        "radicand nan below clamp band",
        "radicand -3.0 below clamp band",
        (0.5).hex(),
        "degenerate PPT symplectic eigenvalue 0.0",
    ]
    # both sides of each band edge are covered
    below = sum(readout(*p).endswith("below clamp band") for p in edges)
    assert 50 < below < len(edges) - 50


def test_state_validation_rejects_asymmetric_covariance():
    cov = 0.5 * np.eye(4)
    cov[0, 1] = 1e-6
    with pytest.raises(ValueError):
        ga.GaussianTwoModeState(np.zeros(4), cov)


def test_state_arrays_are_read_only():
    state = ga.vacuum_state()
    with pytest.raises(ValueError):
        state.cov[0, 0] = 9.0
    with pytest.raises(ValueError):
        state.mean[0] = 1.0
