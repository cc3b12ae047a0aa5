"""Tests for the truncated Fock-space engine.

The covariance-matrix engine serves as the independent oracle for every
channel: any Gaussian operation realized here on number-basis density
matrices must reproduce its first and second quadrature moments.  The
storage channel is also checked against the three-beam-splitter cascade it
replaced, and the photon-shift Kraus sums against the dense (d, d, d) Kraus
stacks they replaced; both are kept below as test-only references.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from micromacro import fock as fk
from micromacro import gaussian as ga
from micromacro import protocol as pr

# Frozen references (30-digit evaluation of the closed forms).
TMSV_P00_R05 = 0.786447732965927  # 1 - tanh(0.5)^2
TMSV_P11_R05 = 0.167947696278681
TMSV_P22_R05 = 0.0358656112834621
THERMAL1_MEAN_16 = 0.9997558556496529  # renormalized over 16 levels
THERMAL1_QUBIT_WEIGHT = 0.7500114442664225
THERMAL10_LEAKAGE_16 = 0.2176291357901488  # (10/11)^16
FOCK_BASE = dict(engine="fock", N_th=0.3, sigma=0.0, eta_c=1.0)


def _expm_antihermitian(gen):
    """exp(gen) for an anti-Hermitian gen, from the eigensystem of i gen."""
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


def beam_splitter_unitary(theta, phi, dims):
    """Two-mode beam splitter exp(theta (e^{i phi} a b^dag - e^{-i phi} a^dag b)).

    In the Heisenberg picture U^dag a U = cos(theta) a - e^{-i phi} sin(theta) b
    and U^dag b U = cos(theta) b + e^{i phi} sin(theta) a.  The generator
    conserves total photon number, so number sectors below the cutoff evolve
    exactly.
    """
    da, db = dims
    a = np.kron(fk.annihilation_matrix(da), np.eye(db))
    b = np.kron(np.eye(da), fk.annihilation_matrix(db))
    gen = np.exp(1j * phi) * (a @ b.conj().T) - np.exp(-1j * phi) * (a.conj().T @ b)
    return _expm_antihermitian(theta * gen)


def cascade_linear_channel(rho, coeffs, n_initial, n_bath, env_levels=None):
    """The storage channel as three beam splitters into truncated environments.

    Mixes mode A with B_in (thermal at n_initial), dA (vacuum) and dB
    (thermal at n_bath) in turn, tracing each environment out after it has
    interacted; the angles are solved triangularly from the coefficients,
    theta_1 carries the -1 on c1 and the phases (-pi/2, pi, pi) give the -i
    rotation and the +f1/+f2 signs.  Converges to the exact channel only as
    both cutoffs grow.
    """
    d_sys = rho.dims[0]
    de = d_sys if env_levels is None else int(env_levels)
    c1, c2, f1, f2 = coeffs.c1, coeffs.c2_mag, coeffs.f1, coeffs.f2
    sin3 = min(max(f2, 0.0), 1.0)
    cos3 = math.sqrt(max(1.0 - sin3 * sin3, 0.0))
    sin2 = min(f1 / cos3, 1.0) if cos3 > 1e-12 else 0.0
    steps = [
        (math.atan2(c2, -c1), -math.pi / 2.0, fk.thermal_weights(n_initial, de)),
        (math.asin(sin2), math.pi, fk.thermal_weights(0.0, de)),
        (math.asin(sin3), math.pi, fk.thermal_weights(n_bath, de)),
    ]
    r4 = rho.data.reshape(rho.dims * 2)
    for theta, phi, weights in steps:
        u4 = beam_splitter_unitary(theta, phi, (d_sys, de)).reshape(d_sys, de, d_sys, de)
        t = np.einsum("ajbm,m,fjdm->afbd", u4, weights, u4.conj(), optimize=True)
        r4 = np.einsum("afbd,bcde->acfe", t, r4, optimize=True)
    n = rho.data.shape[0]
    return fk.FockDensityMatrix(rho.dims, r4.reshape(n, n))


def kraus_stack_apply(rho, kraus, mode):
    """rho -> sum_k K_k rho K_k^dag on one mode, contracting the dense stack kraus[k]."""
    r4 = rho.data.reshape(rho.dims * 2)
    if mode == 0:
        out = np.einsum("kab,bcde,kfd->acfe", kraus, r4, kraus.conj(), optimize=True)
    else:
        out = np.einsum("kab,cbed,kfd->caef", kraus, r4, kraus.conj(), optimize=True)
    return fk.FockDensityMatrix(rho.dims, out.reshape(rho.data.shape))


def loss_kraus_stack(eta, d):
    """<n-k|K_k|n> = sqrt(C(n,k) eta^{n-k} (1-eta)^k) as a dense (d, d, d) stack."""
    kraus = np.zeros((d, d, d))
    for k in range(d):
        for n in range(k, d):
            kraus[k, n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
    return kraus


def dense_linear_channel(rho, coeffs, n_initial, n_bath):
    """The storage channel from dense Kraus stacks: parity flip, loss c1^2/G,
    then the amplifier <m+k|A_k|m> = sqrt(C(m+k, k)) ((G-1)/G)^{k/2} G^{-(m+1)/2}."""
    d = rho.dims[0]
    gain = 1.0 + coeffs.c2_mag**2 * n_initial + coeffs.f2**2 * n_bath
    ratio = (gain - 1.0) / gain
    amplifier = np.zeros((d, d, d))
    for k in range(d):
        for m in range(d - k):
            amplifier[k, m + k, m] = math.sqrt(math.comb(m + k, k) * ratio**k * gain ** -(m + 1))
    out = kraus_stack_apply(rho, np.diag((-1.0) ** np.arange(d))[None], 0)
    out = kraus_stack_apply(out, loss_kraus_stack(coeffs.c1**2 / gain, d), 0)
    return kraus_stack_apply(out, amplifier, 0)


def random_state(dims, seed):
    """A full-rank random density matrix on the given dims."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return fk.FockDensityMatrix(dims, rho / np.trace(rho).real)


def test_annihilation_matrix_entries():
    a = fk.annihilation_matrix(4)
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2.0)
    expected[2, 3] = math.sqrt(3.0)
    assert np.array_equal(a, expected)
    with pytest.raises(ValueError):
        fk.annihilation_matrix(1)


def test_cached_operators_are_read_only():
    a = fk.annihilation_matrix(6)
    with pytest.raises(ValueError):
        a[0, 0] = 5.0


def test_displacement_matrix_is_unitary_and_coherent():
    d = fk.displacement_matrix(0.5, 24)
    assert np.allclose(d @ d.conj().T, np.eye(24), atol=1e-12)
    ket = d[:, 0]
    n_mean = float(np.sum(np.arange(24) * np.abs(ket) ** 2))
    assert abs(n_mean - 0.25) < 1e-10  # Poisson mean |alpha|^2
    p0 = abs(ket[0]) ** 2
    assert abs(p0 - math.exp(-0.25)) < 1e-10


def test_beam_splitter_identity_and_swap():
    u0 = beam_splitter_unitary(0.0, 0.3, (5, 5))
    assert np.allclose(u0, np.eye(25), atol=1e-12)
    swap = beam_splitter_unitary(math.pi / 2.0, 0.0, (5, 5))
    ket10 = np.zeros(25)
    ket10[5] = 1.0  # |1, 0>
    out = swap @ ket10
    amp01 = out[1]  # |0, 1>
    assert abs(abs(amp01) - 1.0) < 1e-12


def test_beam_splitter_5050_amplitudes():
    for phi in (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi):
        u = beam_splitter_unitary(math.pi / 4.0, phi, (4, 4))
        ket10 = np.zeros(16)
        ket10[4] = 1.0
        out = u @ ket10
        assert abs(out[4] - 1.0 / math.sqrt(2)) < 1e-12
        assert abs(out[1] - np.exp(1j * phi) / math.sqrt(2)) < 1e-12


def test_beam_splitter_conserves_total_photon_number():
    rng = np.random.default_rng(5)
    n_tot = np.kron(fk.number_matrix(6), np.eye(6)) + np.kron(np.eye(6), fk.number_matrix(6))
    for _ in range(5):
        u = beam_splitter_unitary(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi), (6, 6))
        assert np.max(np.abs(u @ n_tot - n_tot @ u)) < 1e-12
        assert np.max(np.abs(u @ u.conj().T - np.eye(36))) < 1e-12


def test_thermal_state_vacuum_and_mean():
    vac = fk.thermal_state(0.0, 16)
    assert abs(vac.data[0, 0] - 1.0) < 1e-15
    th = fk.thermal_state(1.0, 16)
    n_mean = float(np.real(np.trace(th.data @ fk.number_matrix(16).astype(complex))))
    assert abs(n_mean - THERMAL1_MEAN_16) < 1e-12
    assert abs(th.trace - 1.0) < 1e-12


def test_thermal_state_truncation_leakage():
    kept = fk.thermal_weights(10.0, 16, renormalize=False)
    assert abs((1.0 - kept.sum()) - THERMAL10_LEAKAGE_16) < 1e-15


def test_single_photon_entangled_input_structure():
    rho = fk.single_photon_entangled_input(0.0, (8, 8))
    assert abs(rho.trace - 1.0) < 1e-12
    purity = float(np.real(np.trace(rho.data @ rho.data)))
    assert abs(purity - 1.0) < 1e-10
    # Reduced state of the companion mode is an even photon mixture.
    r4 = rho.data.reshape(8, 8, 8, 8)
    reduced_c = np.einsum("abad->bd", r4)
    assert abs(reduced_c[0, 0] - 0.5) < 1e-12
    assert abs(reduced_c[1, 1] - 0.5) < 1e-12
    assert abs(reduced_c[0, 1]) < 1e-12
    qubits = fk.qubit_project(rho)
    assert abs(qubits.projection_probability - 1.0) < 1e-12
    assert abs(fk.concurrence(qubits) - 1.0) < 1e-10


def test_two_mode_squeezed_state_weights():
    # Renormalization over the cutoff shifts the weights by the discarded
    # tail, tanh(0.5)^32 ~ 2e-11, relative to the untruncated references.
    rho = fk.two_mode_squeezed_state(0.5, (16, 16))
    diag = np.real(np.diag(rho.data)).reshape(16, 16)
    assert abs(diag[0, 0] - TMSV_P00_R05) < 1e-10
    assert abs(diag[1, 1] - TMSV_P11_R05) < 1e-10
    assert abs(diag[2, 2] - TMSV_P22_R05) < 1e-10
    assert abs(np.sum(diag) - 1.0) < 1e-12


def test_two_mode_squeezed_state_moments_match_gaussian():
    for r in (0.1, 0.3):
        mean, cov = fk.quadrature_moments(fk.two_mode_squeezed_state(r, (16, 16)))
        ref = ga.tmsv_state(r)
        assert np.max(np.abs(mean - ref.mean)) < 1e-8
        assert np.max(np.abs(cov - ref.cov)) < 1e-6


def test_linear_channel_y1_replaces_input_with_vacuum():
    coeffs = ga.channel_coefficients(0.2, 1.0)
    rho = fk.single_photon_entangled_input(0.0, (12, 12))
    out = fk.linear_channel_apply(rho, coeffs, 0.0, 0.0)
    n_a = np.kron(fk.number_matrix(12), np.eye(12)).astype(complex)
    assert abs(np.real(np.trace(out.data @ n_a))) < 1e-10
    assert abs(out.trace - 1.0) < 1e-10


def test_linear_channel_single_photon_transmission():
    # x = 0, y = 0.1 on |1>_A: the retrieved mean photon number is c1^2.
    coeffs = ga.channel_coefficients(0.0, 0.1)
    one = np.zeros((12, 12), dtype=complex)
    one[1, 1] = 1.0
    vac_c = np.zeros((12, 12), dtype=complex)
    vac_c[0, 0] = 1.0
    rho = fk.FockDensityMatrix((12, 12), np.kron(one, vac_c))
    out = fk.linear_channel_apply(rho, coeffs, 0.0, 0.0)
    n_a = np.kron(fk.number_matrix(12), np.eye(12)).astype(complex)
    n_mean = float(np.real(np.trace(out.data @ n_a)))
    assert abs(n_mean - 0.9801) < 1e-10  # c1^2 = 0.99^2


def test_linear_channel_moments_match_gaussian():
    rng = np.random.default_rng(17)
    for _ in range(6):
        x = rng.uniform(0, 0.1)
        y = rng.uniform(0.1, 0.9)
        n_in = rng.uniform(0, 0.5)
        n_th = rng.uniform(0, 0.5)
        r = rng.uniform(0.02, 0.3)
        coeffs = ga.channel_coefficients(x, y)
        rho = fk.linear_channel_apply(
            fk.two_mode_squeezed_state(r, (16, 16)), coeffs, n_in, n_th
        )
        assert abs(rho.trace - 1.0) < 1e-3
        mean, cov = fk.quadrature_moments(rho)
        ref = ga.storage_retrieval_channel(ga.tmsv_state(r), coeffs, n_in, n_th)
        assert np.max(np.abs(mean - ref.mean)) < 1e-4
        assert np.max(np.abs(cov - ref.cov)) < 1e-4


def test_linear_channel_vacuum_gives_thermal_state():
    # Vacuum through the storage channel is the thermal state with the added
    # noise N = c2^2 N_in + f2^2 N_th; the truncated amplifier keeps the
    # untruncated weights below the cutoff, so the renormalized thermal state
    # differs only by the trace it reports lost.
    d = 12
    vac = np.zeros((d * d, d * d), dtype=complex)
    vac[0, 0] = 1.0
    for x, y, n_in, n_th in ((0.1, 0.3, 1.0, 5.0), (0.01, 0.1, 0.5, 0.3), (0.05, 0.6, 0.0, 20.0)):
        coeffs = ga.channel_coefficients(x, y)
        out = fk.linear_channel_apply(fk.FockDensityMatrix((d, d), vac), coeffs, n_in, n_th)
        n_add = coeffs.c2_mag**2 * n_in + coeffs.f2**2 * n_th
        thermal = fk.thermal_state(n_add, d).data
        untruncated = np.diag(fk.thermal_weights(n_add, d, renormalize=False))
        vac_c = np.zeros((d, d))
        vac_c[0, 0] = 1.0
        # the trace missing from 1 plus mode A's weight in its top level
        lost = 1.0 - out.trace + float(np.real(np.trace(out.data.reshape(d, d, d, d)[-1, :, -1])))
        assert np.max(np.abs(out.data - np.kron(thermal, vac_c))) <= lost + 1e-15
        assert np.max(np.abs(out.data - np.kron(untruncated, vac_c))) < 1e-15
        assert lost >= 1.0 - out.trace


def test_linear_channel_matches_beam_splitter_cascade():
    # The cascade approximates the same channel with truncated environments;
    # at the regression configuration, on 16 levels, it sits 6.8e-7 below
    # the closed-form engine.  There sigma = 0 and eta_c = 1, so the phase
    # noise and the loss on C are the identity.
    config = pr.ProtocolConfig(**FOCK_BASE)
    coeffs = ga.channel_coefficients(config.x, config.y)
    rho = fk.pure_loss_channel(fk.single_photon_entangled_input(0.0, (16, 2)), 0, config.eta1)
    rho = cascade_linear_channel(rho, coeffs, config.N_in, config.N_th)
    cascade = fk.concurrence(fk.qubit_project(fk.pure_loss_channel(rho, 0, config.eta2)))
    assert abs(pr.run_fock_protocol(config).concurrence - cascade) < 1e-6


@pytest.mark.parametrize("dims", [(5, 7), (7, 5)], ids=["5x7", "7x5"])
def test_channels_match_dense_kraus_stacks_on_non_square_dims(dims):
    # Unequal cutoffs catch a mix-up of the two modes' axes.
    rho = random_state(dims, seed=31)
    for mode in (0, 1):
        for eta in (0.0, 0.35, 0.9):
            exact = fk.pure_loss_channel(rho, mode, eta)
            reference = kraus_stack_apply(rho, loss_kraus_stack(eta, dims[mode]), mode)
            assert np.max(np.abs(exact.data - reference.data)) < 1e-13, (mode, eta)
    for x, y, n_in, n_th in ((0.01, 0.1, 1.0, 0.3), (0.1, 0.5, 0.0, 2.0), (0.0, 0.3, 0.0, 0.0)):
        coeffs = ga.channel_coefficients(x, y)
        exact = fk.linear_channel_apply(rho, coeffs, n_in, n_th)
        reference = dense_linear_channel(rho, coeffs, n_in, n_th)
        assert np.max(np.abs(exact.data - reference.data)) < 1e-13, (x, y, n_in, n_th)


def per_element_shift_sum(t, step, term):
    """The photon-shift Kraus sum with each weight sqrt(C(m+k, k) term(k, m))
    computed element by element in Python."""
    d = t.shape[-1]
    out = np.zeros_like(t)
    for k in range(d):
        w = np.array([math.sqrt(math.comb(m + k, k) * term(k, m)) for m in range(d - k)])
        lo, hi = slice(0, d - k), slice(k, d)
        src, dst = (hi, lo) if step < 0 else (lo, hi)
        out[..., dst, dst] += np.multiply.outer(w, w) * t[..., src, src]
    return out


def test_kraus_weights_are_the_per_element_doubles():
    # The channels build their Kraus weights from a cached C(m+k, k) table
    # and two vectors of powers; every output bit must match the element by
    # element weights, so that no pin can move with the table.
    dims = (11, 3)
    rho = random_state(dims, seed=5)

    def on_a(data):
        return data.reshape(dims * 2).transpose(1, 3, 0, 2)

    for eta in (0.0, 0.37, 0.9):
        expected = per_element_shift_sum(
            on_a(rho.data), -1, lambda k, m: eta**m * (1.0 - eta) ** k
        )
        assert np.array_equal(on_a(fk.pure_loss_channel(rho, 0, eta).data), expected)
    for x, y, n_in, n_th in ((0.01, 0.1, 1.0, 0.3), (0.1, 0.5, 0.4, 2.0)):
        coeffs = ga.channel_coefficients(x, y)
        gain = 1.0 + coeffs.c2_mag**2 * n_in + coeffs.f2**2 * n_th
        ratio = (gain - 1.0) / gain
        n = np.arange(dims[0])
        t = on_a(rho.data) * (-1.0) ** np.add.outer(n, n)
        eta = coeffs.c1**2 / gain
        t = per_element_shift_sum(t, -1, lambda k, m: eta**m * (1.0 - eta) ** k)
        t = per_element_shift_sum(t, +1, lambda k, m: ratio**k * gain ** -(m + 1))
        out = fk.linear_channel_apply(rho, coeffs, n_in, n_th)
        assert np.array_equal(on_a(out.data), t), (x, y)


@pytest.mark.parametrize("mode", [2, -1])
def test_channels_reject_bad_mode(mode):
    rho = fk.single_photon_entangled_input(0.0, (6, 6))
    # eta = 1 and variance = 0 leave a state alone, but not with a bad mode
    for eta in (0.5, 1.0):
        with pytest.raises(ValueError, match="mode index"):
            fk.pure_loss_channel(rho, mode, eta)
    for variance in (0.5, 0.0):
        with pytest.raises(ValueError, match="mode index"):
            fk.phase_noise_average(rho, variance, mode=mode)
    assert fk.pure_loss_channel(rho, 1, 1.0) is rho
    assert fk.phase_noise_average(rho, 0.0, mode=1) is rho


def test_each_channel_builds_one_density_matrix(monkeypatch):
    built = []
    original = fk._built

    def counting(dims, data):
        built.append(data)
        return original(dims, data)

    monkeypatch.setattr(fk, "_built", counting)
    rho = random_state((6, 6), seed=3)
    coeffs = ga.channel_coefficients(0.01, 0.1)
    calls = (
        lambda: fk.pure_loss_channel(rho, 1, 0.5),
        lambda: fk.linear_channel_apply(rho, coeffs, 1.0, 0.3),
        lambda: fk.phase_noise_average(rho, 0.5, mode=0),
    )
    for call in calls:
        built.clear()
        call()
        assert len(built) == 1


def test_linear_channel_rejects_closure_violation():
    broken = ga.ChannelCoefficients(x=0.0, y=0.1, c1=0.9, c2_mag=0.9, f1=0.9, f2=0.9)
    rho = fk.single_photon_entangled_input(0.0, (8, 8))
    with pytest.raises(ValueError):
        fk.linear_channel_apply(rho, broken, 0.0, 0.0)


def test_phase_noise_average_zero_variance_is_identity():
    rho = fk.single_photon_entangled_input(0.0, (8, 8))
    assert fk.phase_noise_average(rho, 0.0) is rho


def test_phase_noise_average_adds_momentum_variance():
    # On a (small) coherent state the average adds exactly `variance` to <P^2>;
    # 32 levels keep the kicked states far from the cutoff.
    d = fk.displacement_matrix(0.3, 32)
    ket = np.kron(d[:, 0], np.eye(4)[0])
    rho = fk.FockDensityMatrix((32, 4), np.outer(ket, ket.conj()))
    noisy = fk.phase_noise_average(rho, 0.8, mode=0)
    _, cov0 = fk.quadrature_moments(rho)
    mean1, cov1 = fk.quadrature_moments(noisy)
    assert abs((cov1[1, 1] - cov0[1, 1]) - 0.8) < 1e-6
    assert abs(cov1[0, 0] - cov0[0, 0]) < 1e-6
    assert abs(mean1[0] - 0.3 * math.sqrt(2)) < 1e-6
    assert abs(noisy.trace - 1.0) < 1e-8


def test_phase_noise_kernel_matches_quadrature():
    # The eigenbasis kernel is the exact Gaussian average of the truncated
    # displacements, so an 81-node Gauss-Hermite average of them agrees.
    rng = np.random.default_rng(11)
    dims = (10, 3)
    ket = rng.normal(size=30) + 1j * rng.normal(size=30)
    ket /= np.linalg.norm(ket)
    rho = fk.FockDensityMatrix(dims, np.outer(ket, ket.conj()))
    variance = 0.7
    nodes, weights = np.polynomial.hermite.hermgauss(81)
    weights = weights / math.sqrt(math.pi)
    for mode in (0, 1):
        d = dims[mode]
        r4 = rho.data.reshape(dims * 2)
        avg = np.zeros_like(r4)
        for t, w in zip(nodes, weights):
            disp = fk.displacement_matrix(1j * math.sqrt(variance) * t, d)
            if mode == 0:
                avg += w * np.einsum("ab,bcde,fd->acfe", disp, r4, disp.conj())
            else:
                avg += w * np.einsum("ab,cbed,fd->caef", disp, r4, disp.conj())
        exact = fk.phase_noise_average(rho, variance, mode=mode)
        assert np.max(np.abs(exact.data - avg.reshape(30, 30))) < 1e-12


def test_phase_noise_average_mixes_pure_states():
    # Random momentum kicks mix the state (purity drops) while the linear
    # moment <a> is preserved exactly (the kicks have zero mean) and <P^2>
    # grows by the kick variance.
    ket = np.zeros(32 * 4, dtype=complex)
    ket[0] = ket[4] = 1.0 / math.sqrt(2)  # (|0> + |1>)_A |0>_C
    rho = fk.FockDensityMatrix((32, 4), np.outer(ket, ket.conj()))
    noisy = fk.phase_noise_average(rho, 1.0, mode=0)
    purity = float(np.real(np.trace(noisy.data @ noisy.data)))
    assert purity < 0.7
    assert abs(noisy.trace - 1.0) < 1e-8
    mean0, cov0 = fk.quadrature_moments(rho)
    mean1, cov1 = fk.quadrature_moments(noisy)
    assert np.max(np.abs(mean1 - mean0)) < 1e-7
    assert abs((cov1[1, 1] - cov0[1, 1]) - 1.0) < 1e-6


def test_phase_noise_average_concurrence_non_increasing_in_variance():
    coeffs = ga.channel_coefficients(0.01, 0.1)
    rho = fk.linear_channel_apply(
        fk.single_photon_entangled_input(0.0, (16, 16)), coeffs, 1.0, 0.3
    )
    values = []
    for variance in (0.0, 0.5, 1.0, 2.0, 4.0, 6.0):
        noisy = fk.phase_noise_average(rho, variance, mode=0)
        values.append(fk.concurrence(fk.qubit_project(noisy)))
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), values


def test_pure_loss_channel_single_photon():
    one = np.zeros((6, 6), dtype=complex)
    one[1, 1] = 1.0
    vac = np.zeros((6, 6), dtype=complex)
    vac[0, 0] = 1.0
    rho = fk.FockDensityMatrix((6, 6), np.kron(one, vac))
    out = fk.pure_loss_channel(rho, 0, 0.8)
    diag = np.real(np.diag(out.data)).reshape(6, 6)
    assert abs(diag[1, 0] - 0.8) < 1e-12
    assert abs(diag[0, 0] - 0.2) < 1e-12


def test_pure_loss_channel_identity_and_commutation():
    rho = fk.two_mode_squeezed_state(0.2, (10, 10))
    assert fk.pure_loss_channel(rho, 0, 1.0) is rho
    ab = fk.pure_loss_channel(fk.pure_loss_channel(rho, 0, 0.7), 1, 0.4)
    ba = fk.pure_loss_channel(fk.pure_loss_channel(rho, 1, 0.4), 0, 0.7)
    assert np.max(np.abs(ab.data - ba.data)) < 1e-12
    with pytest.raises(ValueError):
        fk.pure_loss_channel(rho, 0, -0.1)


def test_pure_loss_channel_moments_match_gaussian():
    rng = np.random.default_rng(23)
    for _ in range(5):
        r = rng.uniform(0.05, 0.3)
        eta = rng.uniform(0.1, 0.95)
        rho = fk.pure_loss_channel(fk.two_mode_squeezed_state(r, (16, 16)), 0, eta)
        mean, cov = fk.quadrature_moments(rho)
        ref = ga.loss_channel(ga.tmsv_state(r), "A", eta)
        assert np.max(np.abs(mean - ref.mean)) < 1e-6
        assert np.max(np.abs(cov - ref.cov)) < 1e-5
        assert abs(rho.trace - 1.0) < 1e-10


def test_qubit_project_thermal_weight():
    th = fk.thermal_state(1.0, 16)
    vac = np.zeros((16, 16), dtype=complex)
    vac[0, 0] = 1.0
    rho = fk.FockDensityMatrix((16, 16), np.kron(th.data, vac))
    qubits = fk.qubit_project(rho)
    assert abs(qubits.projection_probability - THERMAL1_QUBIT_WEIGHT) < 1e-12
    assert abs(np.real(np.trace(qubits.matrix)) - 1.0) < 1e-12


def test_qubit_project_degenerate_error():
    two = np.zeros((6, 6), dtype=complex)
    two[2, 2] = 1.0
    rho = fk.FockDensityMatrix((6, 6), np.kron(two, two))
    with pytest.raises(ArithmeticError):
        fk.qubit_project(rho)


def test_concurrence_bell_product_and_werner():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2)
    assert abs(fk.concurrence(np.outer(bell, bell.conj())) - 1.0) < 1e-12
    product = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert fk.concurrence(product) == 0.0
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = rng.uniform(0, 1)
        werner = p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4.0
        difference = (3.0 * p - 1.0) / 2.0
        assert abs(fk.wootters_difference(werner) - difference) < 1e-10, f"p={p}"
        assert abs(fk.concurrence(werner) - max(0.0, difference)) < 1e-10, f"p={p}"
    with pytest.raises(ValueError):
        fk.concurrence(np.eye(3))


def test_quadrature_moments_vacuum():
    vac = np.zeros((6 * 6, 6 * 6), dtype=complex)
    vac[0, 0] = 1.0
    mean, cov = fk.quadrature_moments(fk.FockDensityMatrix((6, 6), vac))
    assert np.max(np.abs(mean)) < 1e-14
    assert np.max(np.abs(cov - 0.5 * np.eye(4))) < 1e-14


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        fk.FockDensityMatrix((4, 4), np.eye(15, dtype=complex))
    bad = np.eye(16, dtype=complex)
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        fk.FockDensityMatrix((4, 4), bad)
    # NaN fails the Hermiticity comparison; inf makes the difference NaN
    nan, inf = math.nan, math.inf
    for data in ([[nan, 0], [0, 1]], [[inf, 0], [0, 1]], [[0.5, nan], [nan, 0.5]]):
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="^non-finite entry in density matrix$"
        ):
            fk.FockDensityMatrix((2,), data)


def test_import_does_not_load_scipy():
    # A fresh interpreter, pointed at the package under test, imports NumPy
    # only, and a Fock sweep asked for 8 workers still starts no thread pool.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, micromacro\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "from micromacro import protocol as pr, sweep as sw\n"
        "base = pr.ProtocolConfig(engine='fock')\n"
        "sw.run_sweep(sw.SweepSpec(base, sw.AxisSpec('y', (0.1, 0.3))), workers=8)\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.split() == ["[]", "False"]
