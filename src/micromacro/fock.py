"""Fock-space engine for the single-photon-level description.

The protocol projects its closed-form {0,1}^2 block with ``qubit_project``,
which returns the renormalized 4x4 matrix and its weight.
``wootters_difference`` and the truncated channels are its references; the
channels work with density matrices on a photon-number basis truncated at
n_levels per mode, each channel on one mode: loss and quantum-limited
amplification as photon-shift Kraus sums (each Kraus operator moves the
photon number by a fixed k, with binomial weights), Gaussian
dephasing as an elementwise kernel in the eigenbasis of the truncated X
quadrature.  Loss and dephasing preserve the trace at any cutoff; the
amplifier drops the weight it pushes past the cutoff.  Mode ordering for
two-mode states is (A, C), A the mode that enters the mechanical channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch

HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density operator on a truncated multi-mode Fock space.

    Attributes
    ----------
    dims : tuple of int
        Number of retained levels per mode (n_max + 1 each).
    data : ndarray
        Complex matrix of size prod(dims) x prod(dims); row/column indices
        run over the tensor basis |n_0, n_1, ...> with the *last* mode index
        varying fastest (numpy kron order).
    """

    dims: tuple
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 2 for d in dims):
            raise ValueError(f"every mode needs >= 2 levels, got {dims}")
        n = math.prod(dims)
        data = np.array(self.data, dtype=complex)
        if data.shape != (n, n):
            raise ValueError(f"data shape {data.shape} does not match dims {dims}")
        # NaN fails every comparison, so `not ... <= tol` rejects it too
        if not np.max(np.abs(data - data.conj().T)) <= HERMITICITY_TOL:
            if not np.all(np.isfinite(data)):
                raise ValueError("non-finite entry in density matrix")
            raise ValueError("density matrix is not Hermitian")
        data.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)

    @property
    def trace(self):
        return float(np.real(np.trace(self.data)))


def annihilation_matrix(n_levels):
    """Truncated annihilation operator: a|n> = sqrt(n)|n-1>."""
    if n_levels < 2:
        raise ValueError("need at least 2 levels")
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), k=1)


def number_matrix(n_levels):
    return np.diag(np.arange(float(n_levels)))


def displacement_matrix(alpha, n_levels):
    """Truncated displacement D(alpha) = exp(alpha a^dag - alpha* a).

    Computed from the eigendecomposition of the Hermitian i (alpha a^dag -
    alpha* a), so it is exactly unitary at any cutoff; accurate as long as the
    displaced support stays below the cutoff (|alpha|^2 well under n_levels).
    """
    a = annihilation_matrix(n_levels)
    alpha = complex(alpha)
    w, v = np.linalg.eigh(1j * (alpha * a.T - alpha.conjugate() * a))
    return (v * np.exp(-1j * w)) @ v.conj().T


def position_eigensystem(n_levels):
    """Eigenvalues and real orthogonal eigenvectors of the truncated X = (a + a^dag)/sqrt(2)."""
    a = annihilation_matrix(n_levels)
    return np.linalg.eigh((a + a.T) / math.sqrt(2.0))


def thermal_weights(n_mean, n_levels, renormalize=True):
    """Diagonal Fock weights of a truncated thermal state with mean occupation n_mean.

    Geometric distribution p_n = N^n / (N+1)^{n+1}.  The weight lost past the
    cutoff is (N/(N+1))^n_levels; with renormalize=True (default) the
    retained weights are rescaled to unit sum.
    """
    if n_mean < 0:
        raise ValueError(f"thermal occupation {n_mean} must be >= 0")
    n = np.arange(n_levels)
    if n_mean == 0:
        p = np.zeros(n_levels)
        p[0] = 1.0
        return p
    ratio = n_mean / (n_mean + 1.0)
    p = ratio**n / (n_mean + 1.0)
    if renormalize:
        p = p / p.sum()
    return p


def thermal_state(n_mean, n_levels, renormalize=True):
    """Single-mode truncated thermal density matrix (see thermal_weights)."""
    p = thermal_weights(n_mean, n_levels, renormalize=renormalize)
    return FockDensityMatrix((n_levels,), np.diag(p.astype(complex)))


def two_mode_squeezed_state(r, dims):
    """Pure two-mode squeezed vacuum, psi_n = tanh(r)^n / cosh(r) on |n, n>.

    Renormalized after truncation; for r <= 0.5 and 16 levels the discarded
    weight is below 1e-10.
    """
    da, dc = dims
    t = math.tanh(r)
    psi = np.zeros((da, dc), dtype=complex)
    for n in range(min(da, dc)):
        psi[n, n] = t**n
    vec = psi.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return FockDensityMatrix(dims, np.outer(vec, vec.conj()))


def single_photon_entangled_input(alpha, dims):
    """Displaced single-photon path-entangled state on modes (A, C).

    (1/sqrt(2)) (D_A(alpha)|1, 0> + D_A(alpha)|0, 1>): one photon delocalized
    between the two modes, with the bright displacement carried by mode A.
    The pipeline works in the displaced frame (alpha = 0) and accounts for the
    displacement analytically, so nonzero alpha here is only for small-alpha
    checks: accuracy requires |alpha|^2 well below dims[0].
    """
    da, dc = dims
    d = displacement_matrix(alpha, da) if alpha != 0 else np.eye(da, dtype=complex)
    c = np.eye(dc)
    # D|1>_A |0>_C + D|0>_A |1>_C, with D|n> the n-th column of D
    vec = (np.kron(d[:, 1], c[0]) + np.kron(d[:, 0], c[1])) / math.sqrt(2.0)
    return FockDensityMatrix(dims, np.outer(vec, vec.conj()))


def _as_tensor(rho):
    return rho.data.reshape(rho.dims * 2)


def _check_mode(mode):
    if mode not in (0, 1):
        raise ValueError(f"mode index {mode} out of range for a two-mode state")


def _on_mode(rho, mode, fn):
    """Apply `fn` to one mode of a two-mode state and wrap the result.

    `fn` receives the state as a (d_other, d_other, d, d) array, the mode's
    row and column axes last, and returns an array of the same shape.
    """
    _check_mode(mode)
    t = np.moveaxis(_as_tensor(rho), (mode, mode + 2), (2, 3))
    out = np.moveaxis(fn(t), (2, 3), (mode, mode + 2))
    return FockDensityMatrix(rho.dims, out.reshape(rho.data.shape))


def _binomial_table(d):
    """d x d float table of C(m + k, k), rows k and columns m.

    Only m + k < d is ever used; the rest of the table is 0.
    """
    return np.array(
        [[float(math.comb(m + k, k)) if m + k < d else 0.0 for m in range(d)] for k in range(d)]
    )


def _shift_kraus_sum(t, step, k_powers, m_powers):
    """sum_k K_k t K_k^dag on the last two axes for photon-shift Kraus operators.

    K_k moves |m + k> to |m> (step -1) or |m> to |m + k> (step +1) with
    amplitude sqrt(C(m+k, k) m_powers[m] k_powers[k]).  The powers come in as
    Python floats, so every weight is the same double as the per-element
    product.  Each K_k is a single off-diagonal, so its term is one scaled
    slice of `t`; shifts past the cutoff are dropped.
    """
    d = t.shape[-1]
    weights = np.sqrt(_binomial_table(d) * np.multiply.outer(k_powers, m_powers))
    out = np.zeros_like(t)
    for k in range(d):
        w = weights[k, : d - k]
        lo, hi = slice(0, d - k), slice(k, d)
        src, dst = (hi, lo) if step < 0 else (lo, hi)
        out[..., dst, dst] += np.multiply.outer(w, w) * t[..., src, src]
    return out


def _loss(t, eta):
    """Photon loss with transmission eta on the last two axes of `t`."""
    d = t.shape[-1]
    return _shift_kraus_sum(
        t, -1, [(1.0 - eta) ** k for k in range(d)], [eta**m for m in range(d)]
    )


def linear_channel_apply(rho, coeffs, n_initial, n_bath):
    """Storage/retrieval channel on mode A of a two-mode (A, C) state.

    Realizes the Heisenberg relation
        A_out = -c1 A - i c2_mag B_in + f1 dA + f2 dB
    with B_in thermal at n_initial, dA vacuum and dB thermal at n_bath.  All
    three inputs are phase symmetric, so the channel is the parity flip
    a -> -a followed by a thermal attenuator with transmission c1^2 and
    N_add = c2^2 n_initial + f2^2 n_bath added photons, as in the gaussian
    engine.  The attenuator is pure loss with transmission c1^2 / G followed
    by a quantum-limited amplifier of gain G = 1 + N_add, <m+k|A_k|m> =
    sqrt(C(m+k, k)) ((G-1)/G)^{k/2} G^{-(m+1)/2} (Caruso, Giovannetti & Holevo,
    NJP 8, 310 (2006); Ivan, Sabapathy & Simon, PRA 84, 042311 (2011)).  The
    amplifier drops the weight it pushes past the cutoff, so 1 - trace of the
    result is that truncation error.  The closure check and the squares
    c1^2, c2^2 and f2^2 are the Gaussian channel's (channel._storage_channel).
    """
    _, c1_sq, c2_sq, _, f2_sq = ch._storage_channel(coeffs)
    if n_initial < 0 or n_bath < 0:
        raise ValueError("thermal occupations must be >= 0")
    gain = 1.0 + c2_sq * n_initial + f2_sq * n_bath
    ratio = (gain - 1.0) / gain

    def storage(t):
        n = np.arange(t.shape[-1])
        t = t * (-1.0) ** np.add.outer(n, n)  # the parity flip a -> -a
        t = _loss(t, c1_sq / gain)
        if gain > 1.0:
            d = t.shape[-1]
            t = _shift_kraus_sum(
                t, +1, [ratio**k for k in range(d)], [gain ** -(m + 1) for m in range(d)]
            )
        return t

    return _on_mode(rho, 0, storage)


def pure_loss_channel(rho, mode, eta):
    """Transmission eta on one mode via the photon-loss Kraus sum.

    K_k removes k photons: <n-k|K_k|n> = sqrt(C(n,k) eta^{n-k} (1-eta)^k).
    Trace is preserved exactly (binomial theorem).
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"transmission eta={eta} outside [0, 1]")
    _check_mode(mode)
    if eta == 1.0:
        return rho
    return _on_mode(rho, mode, lambda t: _loss(t, eta))


def phase_noise_average(rho, variance, mode=0):
    """Average over Gaussian momentum kicks of the given variance on one mode.

    Phase noise on a bright displaced mode looks, in the displaced frame, like
    a random displacement along P with variance 2 |alpha_eff|^2 sigma^2, where
    |alpha_eff|^2 is the convention's squared amplitude
    (``protocol.phase_noise_amplitude_sq``); this routine averages
    D(i dp/sqrt(2)) rho D^dag over dp ~ N(0, variance).
    The truncated D(i dp/sqrt(2)) = exp(i dp X) is diagonal in the eigenbasis
    {x_k} of the truncated X, so the average is exact: the state's matrix
    elements in that basis are multiplied by exp(-variance (x_k - x_l)^2 / 2).
    Second moments gain exactly `variance` in P up to truncation.
    """
    if variance < 0:
        raise ValueError(f"variance {variance} must be >= 0")
    _check_mode(mode)
    if variance == 0.0:
        return rho

    def dephase(t):
        x, v = position_eigensystem(t.shape[-1])
        kernel = np.exp(-0.5 * variance * np.subtract.outer(x, x) ** 2)
        return v @ ((v.T @ t @ v) * kernel) @ v.T

    return _on_mode(rho, mode, dephase)


def qubit_project(rho):
    """Project a two-mode state onto the {|0>,|1>} x {|0>,|1>} subspace.

    Returns the pair (matrix, probability): the renormalized 4x4 block, basis
    order |a c> = 00, 01, 10, 11, and the weight it carried.  Raises if
    essentially no weight survives.
    """
    r4 = _as_tensor(rho)
    block = r4[:2, :2, :2, :2].reshape(4, 4)
    p = float(np.real(np.trace(block)))
    if p < 1e-12:
        raise ArithmeticError(f"qubit projection weight {p} is degenerate")
    return block / p, p


_Y_Y = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
).real  # (sigma_y x sigma_y) is real in this basis


def wootters_difference(matrix):
    """Unclamped Wootters difference l1 - l2 - l3 - l4 of a 4x4 two-qubit density matrix.

    l_i are the decreasing square roots of the eigenvalues of
    rho (Y x Y) rho* (Y x Y) (Wootters, PRL 80, 2245 (1998)).  Positive iff
    the state is entangled, and then equal to its concurrence.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {m.shape}")
    spin_flipped = _Y_Y @ m.conj() @ _Y_Y
    ev = np.linalg.eigvals(m @ spin_flipped)
    if np.min(ev.real) < -1e-9:
        raise ArithmeticError(f"eigenvalue {np.min(ev.real)} too negative in concurrence")
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    lam[::-1].sort()
    return float(lam[0] - lam[1] - lam[2] - lam[3])


def concurrence(matrix):
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4) of a 4x4 two-qubit density matrix.

    1 for Bell states, 0 for separable states; a Werner state
    p|Psi-><Psi-| + (1-p) I/4 gives max(0, (3p-1)/2).  See wootters_difference.
    """
    return max(0.0, wootters_difference(matrix))


def quadrature_moments(rho):
    """Mean vector and symmetrized covariance of a two-mode Fock state.

    Uses X = (a + a^dag)/sqrt(2), P = -i(a - a^dag)/sqrt(2) (vacuum variance
    1/2), ordering (X_A, P_A, X_C, P_C) — directly comparable with the
    Gaussian engine.
    """
    ops = []
    for mode in (0, 1):
        a = annihilation_matrix(rho.dims[mode])
        for op in ((a + a.T) / math.sqrt(2.0), -1j * (a - a.T) / math.sqrt(2.0)):
            factors = [np.eye(d) for d in rho.dims]
            factors[mode] = op
            ops.append(np.kron(*factors))
    mean = np.array([np.real(np.trace(rho.data @ o)) for o in ops])
    cov = np.zeros((4, 4))
    for i in range(4):
        for j in range(i, 4):
            sym = 0.5 * (ops[i] @ ops[j] + ops[j] @ ops[i])
            cov[i, j] = cov[j, i] = np.real(np.trace(rho.data @ sym)) - mean[i] * mean[j]
    return mean, cov
