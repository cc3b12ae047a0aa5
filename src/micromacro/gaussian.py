"""Two-mode Gaussian states and the operations used by the storage/retrieval pipeline.

Conventions
-----------
Quadratures are X = (a + a^dag)/sqrt(2), P = -i(a - a^dag)/sqrt(2), so the
vacuum variance is 1/2 and [X, P] = i.  A two-mode state is described by the
mean vector (X_A, P_A, X_C, P_C) and the symmetrized 4x4 covariance matrix in
the same ordering.  Mode A is the bright/stored mode, mode C is the companion
mode that never enters the mechanical channel.

A ``GaussianTwoModeState`` holds exactly one state, and every operation
builds its output through the class's checked constructor.  The operations
take one state and scalar parameters, and reject an array parameter.  They
check their arguments, apply the helpers of each stage (``_tmsv_entries``,
``_loss_terms``, ``_storage_channel`` and ``_storage_added``, ``_phase_variance``)
to the 4x4 arrays and read out through ``_ppt_minors``, whose blocks
need not be diagonal.  The protocol pipeline applies the same helpers to
the five nonzero covariance entries of each config (``protocol._mode_a``),
takes Sigma from them in closed form, NumPy's determinant of a diagonal
2x2 bit for bit, stacks a call's covariances for det V alone, and reads
each point out through the per-point ``_ppt_readout``, which computes
nu_- alone (``protocol._gaussian_batch``).  Those helpers,
``channel_coefficients`` and the constants live in :mod:`micromacro.channel`,
which needs no NumPy; ``channel_coefficients``, ``ChannelCoefficients`` and
the constants are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    RADICAND_CLAMP,
    SERIES_BELOW,
    VACUUM_VARIANCE,
    ChannelCoefficients,
    _loss_terms,
    _negativity,
    _nu_pair,
    _phase_variance,
    _ppt_witness,
    _storage_added,
    _storage_channel,
    _tmsv_entries,
    channel_coefficients,
)

# numerical guard band (see GaussianTwoModeState)
SYMMETRY_TOL = 1e-12

# each mode's (own, other) slices of the (X_A, P_A, X_C, P_C) ordering
_MODE_SLICES = {"A": (slice(0, 2), slice(2, 4)), "C": (slice(2, 4), slice(0, 2))}


def _mode_slices(mode):
    try:
        return _MODE_SLICES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}, expected 'A' or 'C'") from None


def _one(*arguments):
    """Reject an array parameter, which an operation on one state would
    broadcast or slice along its axis."""
    for value in arguments:
        if np.ndim(value):
            raise ValueError(f"expected a scalar parameter, got shape {np.shape(value)}")


@dataclass(frozen=True)
class GaussianTwoModeState:
    """Mean vector and covariance matrix of one two-mode Gaussian state.

    Attributes
    ----------
    mean : ndarray, shape (4,)
        First moments (X_A, P_A, X_C, P_C).
    cov : ndarray, shape (4, 4)
        Symmetrized covariance matrix, vacuum variance 1/2 on the diagonal.

    Construction copies both arrays, makes them read-only and rejects any
    other shape, a non-finite entry and an asymmetric covariance.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.shape != (4,):
            raise ValueError(f"mean must have shape (4,), got shape {mean.shape}")
        if cov.shape != (4, 4):
            raise ValueError(f"cov must have shape (4, 4), got shape {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("non-finite entry in mean or cov")
        if np.abs(cov - cov.T).max() > SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def vacuum_state():
    """Two-mode vacuum: zero mean, cov = (1/2) * identity."""
    return GaussianTwoModeState(np.zeros(4), VACUUM_VARIANCE * np.eye(4))


def tmsv_state(r):
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    All four diagonal variances equal sinh(r)^2 + 1/2; the correlations are
    <X_A X_C> = +sinh(r)cosh(r) and <P_A P_C> = -sinh(r)cosh(r), so the state
    approaches an ideal EPR pair for large r and is exactly vacuum at r = 0.
    """
    _one(r)
    d, c = _tmsv_entries(r)
    m = 0.0 - c  # +0.0 at r = 0, as the pipeline's k_p
    cov = np.array([[d, 0.0, c, 0.0], [0.0, d, 0.0, m], [c, 0.0, d, 0.0], [0.0, m, 0.0, d]])
    return GaussianTwoModeState(np.zeros(4), cov)


def displace(state, mode, alpha):
    """Apply a phase-space displacement D(alpha) to one mode.

    Shifts the mean of the chosen mode by (sqrt(2) Re alpha, sqrt(2) Im alpha)
    and leaves the covariance matrix untouched.
    """
    _one(alpha)
    alpha = complex(alpha)
    x = _mode_slices(mode)[0].start  # the mode's X quadrature, P follows it
    mean = state.mean.copy()
    mean[x] += math.sqrt(2.0) * alpha.real
    mean[x + 1] += math.sqrt(2.0) * alpha.imag
    return GaussianTwoModeState(mean, state.cov)


def _update_mode(mean, cov, mode, amplitude, power, added):
    """One mode's mean and cross-blocks scale by `amplitude`; its own 2x2
    block maps to power * block + added * I."""
    own, other = _mode_slices(mode)
    mean, cov = mean.copy(), cov.copy()
    mean[own] *= amplitude
    cov[own, other] *= amplitude
    cov[other, own] *= amplitude
    cov[own, own] = power * cov[own, own] + added * np.eye(2)
    return mean, cov


def component_variance(n, n_displaced):
    """Photon-number variance (2n + 1)|alpha|^2 of a displaced Fock state D(alpha)|n>.

    `n_displaced` is |alpha|^2, the mean photon number of the displacement.
    This is the size indicator for the displaced single-photon superposition:
    the variance grows linearly with the displacement photon number.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"Fock index n={n} must be a non-negative integer")
    if n_displaced < 0:
        raise ValueError(f"displacement photon number {n_displaced} must be >= 0")
    return (2 * int(n) + 1) * float(n_displaced)


def loss_channel(state, mode, eta):
    """Pure transmission loss with efficiency eta on one mode.

    Mean scales by sqrt(eta); the mode's 2x2 covariance block maps to
    eta*block + (1 - eta)*(1/2)*I and the cross-correlation block scales by
    sqrt(eta).  eta = 1 is the identity, eta = 0 replaces the mode by vacuum.
    """
    _one(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission eta={eta} outside [0, 1]")
    _mode_slices(mode)  # a bad mode fails even where eta = 1 leaves the state alone
    if eta == 1.0:
        return state
    return GaussianTwoModeState(*_update_mode(state.mean, state.cov, mode, *_loss_terms(eta)))


def storage_retrieval_channel(state, coeffs, n_initial, n_bath, mode="A"):
    """Send one mode through the mechanical storage/retrieval channel.

    Implements the Heisenberg relation
        A_out = -c1 A_in - i c2_mag B_in + f1 dA + f2 dB
    with B_in thermal at occupation `n_initial`, dA vacuum and dB thermal at
    `n_bath`.  In quadratures the -i rotation feeds +c2_mag*P_B into X and
    -c2_mag*X_B into P; since the noise modes are phase symmetric their joint
    contribution to the covariance is isotropic:

        block_out = c1^2 * block_in
                    + [c2^2 (n_initial + 1/2) + f1^2/2 + f2^2 (n_bath + 1/2)] * I

    The treated mode's mean maps to -c1 * mean, cross-correlations with the
    untouched mode scale by -c1, and the untouched mode is unchanged.
    """
    _one(coeffs, n_initial, n_bath)
    if n_initial < 0 or n_bath < 0:
        raise ValueError("thermal occupations must be >= 0")
    channel = _storage_channel(coeffs)
    added = _storage_added(channel, n_initial, n_bath)
    return GaussianTwoModeState(*_update_mode(state.mean, state.cov, mode, *channel[:2], added))


def phase_noise(state, sigma, amp_sq, mode="A"):
    """Dephasing of a bright mode by a small random optical phase.

    A Gaussian phase jitter of standard deviation `sigma` (radians, sigma << 1)
    on a mode with mean photon number `amp_sq` adds 2 * amp_sq * sigma^2 to the
    P-quadrature variance (the noise enhancement is quadratic in the bright
    amplitude; the non-enhanced O(sigma^2) corrections are dropped).  The mean
    and every other covariance entry are unchanged.
    """
    _one(sigma, amp_sq)
    if not 0.0 <= sigma < math.inf:  # NaN fails too
        raise ValueError(f"phase jitter sigma={sigma} must be finite and >= 0")
    if not 0.0 <= amp_sq < math.inf:
        raise ValueError(f"amplitude photon number {amp_sq} must be finite and >= 0")
    p = _mode_slices(mode)[0].start + 1  # the mode's P quadrature
    added = _phase_variance(sigma, amp_sq)
    if added == 0.0:
        return state
    cov = state.cov.copy()
    cov[p, p] += added
    return GaussianTwoModeState(state.mean, cov)


def _minors(cov):
    """det A, det B, det C and det V of one covariance, or of a stack of them."""
    det = np.linalg.det
    return det(cov[..., :2, :2]), det(cov[..., 2:, 2:]), det(cov[..., :2, 2:]), det(cov)


def _ppt_minors(cov):
    """Sigma = det A + det B - 2 det C of the partially transposed state, and det V."""
    a, b, c, v = _minors(cov)
    return a + b - 2.0 * c, v


def symplectic_eigenvalues(state):
    """Both symplectic eigenvalues of the covariance matrix (nu_-, nu_+).

    Uses the two-mode closed form with Delta = det A + det B + 2 det C:
    nu_+- = sqrt((Delta +- sqrt(Delta^2 - 4 det V)) / 2).  A state is physical
    iff nu_- >= 1/2 (uncertainty principle) and pure iff both equal 1/2.
    """
    a, b, c, v = _minors(state.cov)
    return _nu_pair(a + b + 2.0 * c, v)


def physicality_check(state, tol=1e-9):
    """Return (is_physical, (nu_minus, nu_plus)) for a two-mode state.

    `is_physical` is True when the smaller symplectic eigenvalue satisfies
    nu_- >= 1/2 - tol.
    """
    _one(tol)
    nus = symplectic_eigenvalues(state)
    return nus[0] >= VACUUM_VARIANCE - tol, nus


def ppt_minimum_eigenvalue(state):
    """Smallest symplectic eigenvalue nu_min of the partially transposed state.

    Partial transposition flips the sign of P_C, i.e. det C -> -det C, so
    nu_min follows from Sigma = det A + det B - 2 det C via
    nu_min = sqrt((Sigma - sqrt(Sigma^2 - 4 det V)) / 2).  The two-mode state
    is entangled iff nu_min < 1/2.
    """
    return _nu_pair(*_ppt_minors(state.cov))[0]


def ppt_witness(state):
    """Signed PPT witness Sigma/4 - det V - 1/16, positive iff the state is entangled.

    With Sigma = det A + det B - 2 det C it equals (1/4 - nu_-^2)(nu_+^2 - 1/4)
    for the partially transposed symplectic eigenvalues; a physical state has
    nu_+ >= 1/2, so the witness is positive exactly where nu_min < 1/2
    (Simon, PRL 84, 2726 (2000)).  Unlike E_N it is not clamped at 0 on the
    separable side, and it is linear in a variance added to one quadrature
    before further loss (Serafini, Illuminati & De Siena, J. Phys. B 37, L21
    (2004)), as the phase noise is.
    """
    return float(_ppt_witness(*_ppt_minors(state.cov)))


def log_negativity(state):
    """Logarithmic negativity E_N = max(0, -ln(2 nu_min)).

    For a pure two-mode squeezed state with squeezing r this evaluates to
    exactly 2r (nu_min = exp(-2r)/2).
    """
    return negativity_from_nu(ppt_minimum_eigenvalue(state))


def negativity_from_nu(nu):
    """E_N = max(0, -ln(2 nu)) of one PPT minimum symplectic eigenvalue `nu`."""
    _one(nu)
    return _negativity(nu)
