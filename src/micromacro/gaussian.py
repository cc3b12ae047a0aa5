"""Two-mode Gaussian states and the operations used by the storage/retrieval pipeline.

Conventions
-----------
Quadratures are X = (a + a^dag)/sqrt(2), P = -i(a - a^dag)/sqrt(2), so the
vacuum variance is 1/2 and [X, P] = i.  A two-mode state is described by the
mean vector (X_A, P_A, X_C, P_C) and the symmetrized 4x4 covariance matrix in
the same ordering.  Mode A is the bright/stored mode, mode C is the companion
mode that never enters the mechanical channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VACUUM_VARIANCE = 0.5

# numerical guard bands (see physicality_check / log_negativity)
SYMMETRY_TOL = 1e-12
RADICAND_CLAMP = 1e-9

# each mode's (own, other) slices of the (X_A, P_A, X_C, P_C) ordering
_MODE_SLICES = {"A": (slice(0, 2), slice(2, 4)), "C": (slice(2, 4), slice(0, 2))}


def _mode_slices(mode):
    try:
        return _MODE_SLICES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}, expected 'A' or 'C'") from None


@dataclass(frozen=True)
class GaussianTwoModeState:
    """Mean vector and covariance matrix of a two-mode Gaussian state.

    Attributes
    ----------
    mean : ndarray, shape (4,)
        First moments (X_A, P_A, X_C, P_C).
    cov : ndarray, shape (4, 4)
        Symmetrized covariance matrix, vacuum variance 1/2 on the diagonal.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.shape != (4,):
            raise ValueError(f"mean must have shape (4,), got {mean.shape}")
        if cov.shape != (4, 4):
            raise ValueError(f"cov must have shape (4, 4), got {cov.shape}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("non-finite entry in mean or cov")
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
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
    if not (0 <= r < 20):
        raise ValueError(f"squeezing parameter r={r} outside [0, 20)")
    d = math.sinh(r) ** 2 + VACUUM_VARIANCE
    c = math.sinh(r) * math.cosh(r)
    cov = np.array(
        [
            [d, 0.0, c, 0.0],
            [0.0, d, 0.0, -c],
            [c, 0.0, d, 0.0],
            [0.0, -c, 0.0, d],
        ]
    )
    return GaussianTwoModeState(np.zeros(4), cov)


def displace(state, mode, alpha):
    """Apply a phase-space displacement D(alpha) to one mode.

    Shifts the mean of the chosen mode by (sqrt(2) Re alpha, sqrt(2) Im alpha)
    and leaves the covariance matrix untouched.
    """
    x = _mode_slices(mode)[0].start  # the mode's X quadrature, P follows it
    alpha = complex(alpha)
    mean = state.mean.copy()
    mean[x] += math.sqrt(2.0) * alpha.real
    mean[x + 1] += math.sqrt(2.0) * alpha.imag
    return GaussianTwoModeState(mean, state.cov)


def _update_mode(state, mode, amplitude, power, noise):
    """One mode's mean and cross-blocks scale by `amplitude`; its own 2x2
    block maps to power * block + noise."""
    own, other = _mode_slices(mode)
    mean = state.mean.copy()
    mean[own] *= amplitude
    cov = state.cov.copy()
    cov[own, own] = power * cov[own, own] + noise
    cov[own, other] *= amplitude
    cov[other, own] *= amplitude
    return GaussianTwoModeState(mean, cov)


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
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"transmission eta={eta} outside [0, 1]")
    if eta == 1.0:
        return state
    noise = (1.0 - eta) * (VACUUM_VARIANCE * np.eye(2))
    return _update_mode(state, mode, math.sqrt(eta), eta, noise)


@dataclass(frozen=True)
class ChannelCoefficients:
    """Input/output coefficients of the mechanical storage/retrieval channel.

    The retrieved mode is
        A_out = -c1 A_in - i c2_mag B_in + f1 dA + f2 dB,
    where B_in is the initial mechanical mode, dA the optical vacuum noise and
    dB the mechanical bath noise.  Commutator preservation requires
    c1^2 + c2_mag^2 + f1^2 + f2^2 = 1 (the closure identity).
    """

    x: float
    y: float
    c1: float
    c2_mag: float
    f1: float
    f2: float

    @property
    def closure_defect(self):
        """|c1^2 + c2_mag^2 + f1^2 + f2^2 - 1|, zero for a valid channel."""
        return abs(
            self.c1**2 + self.c2_mag**2 + self.f1**2 + self.f2**2 - 1.0
        )


def channel_coefficients(x, y):
    """Coefficients of the storage/retrieval channel at noise ratio x and coupling y.

    Parameters
    ----------
    x : float
        Mechanical noise parameter gamma/G (>= 0).
    y : float
        Residual-excitation parameter exp(-G' tau) in (0, 1]; y -> 0 is
        perfect transfer, y = 1 means the light never couples.

    Notes
    -----
    With G' tau = -ln(y) the coefficients reduce to closed forms in (x, y):

        c1     = (1 - y^2) / (1 + x)
        c2_mag = y * sqrt((1 - y^2) / (1 + x))
        f1     = sqrt(x^2 + y^2 - 4 x y^2 ln(y)/(1 - y^2)) / (1 + x)
        f2     = sqrt(x(1 + y^2) + x(1 - y^2)^2 + 4 x y^2 ln(y)/(1 - y^2)) / (1 + x)

    The closure identity holds exactly in exact arithmetic; floating point
    leaves a defect below 1e-12 over the whole admissible domain.
    """
    if x < 0 or not np.isfinite(x):
        raise ValueError(f"noise parameter x={x} must be finite and >= 0")
    if not (0.0 < y <= 1.0):
        raise ValueError(f"coupling parameter y={y} outside (0, 1]")
    if y == 1.0:
        # no light-mechanics exchange: the output is pure optical vacuum noise
        return ChannelCoefficients(x=x, y=y, c1=0.0, c2_mag=0.0, f1=1.0, f2=0.0)
    y2 = y * y
    one = 1.0 - y2
    c1 = one / (1.0 + x)
    c2 = y * math.sqrt(one / (1.0 + x))
    log_term = 4.0 * x * y2 * math.log(y) / one  # <= 0 for y in (0, 1)
    rad1 = x * x + y2 - log_term
    rad2 = x * (1.0 + y2) + x * one * one + log_term
    for rad in (rad1, rad2):
        if rad < -RADICAND_CLAMP:
            raise ArithmeticError(f"negative radicand {rad} in channel coefficients")
    f1 = math.sqrt(max(rad1, 0.0)) / (1.0 + x)
    f2 = math.sqrt(max(rad2, 0.0)) / (1.0 + x)
    return ChannelCoefficients(x=x, y=y, c1=c1, c2_mag=c2, f1=f1, f2=f2)


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
    if n_initial < 0 or n_bath < 0:
        raise ValueError("thermal occupations must be >= 0")
    if coeffs.closure_defect > 1e-10:
        raise ValueError(f"channel coefficients violate closure by {coeffs.closure_defect}")
    c1 = coeffs.c1
    added = (
        coeffs.c2_mag**2 * (n_initial + VACUUM_VARIANCE)
        + coeffs.f1**2 * VACUUM_VARIANCE
        + coeffs.f2**2 * (n_bath + VACUUM_VARIANCE)
    )
    return _update_mode(state, mode, -c1, c1 * c1, added * np.eye(2))


def phase_noise(state, sigma, amp_sq, mode="A"):
    """Dephasing of a bright mode by a small random optical phase.

    A Gaussian phase jitter of standard deviation `sigma` (radians, sigma << 1)
    on a mode with mean photon number `amp_sq` adds 2 * amp_sq * sigma^2 to the
    P-quadrature variance (the noise enhancement is quadratic in the bright
    amplitude; the non-enhanced O(sigma^2) corrections are dropped).  The mean
    and every other covariance entry are unchanged.
    """
    if sigma < 0 or not np.isfinite(sigma):
        raise ValueError(f"phase jitter sigma={sigma} must be finite and >= 0")
    if amp_sq < 0 or not np.isfinite(amp_sq):
        raise ValueError(f"amplitude photon number {amp_sq} must be finite and >= 0")
    added = 2.0 * amp_sq * sigma * sigma
    if added == 0.0:
        return state
    p = _mode_slices(mode)[0].start + 1  # the mode's P quadrature
    cov = state.cov.copy()
    cov[p, p] += added
    return GaussianTwoModeState(state.mean, cov)


def _minors(cov):
    a = np.linalg.det(cov[0:2, 0:2])
    b = np.linalg.det(cov[2:4, 2:4])
    c = np.linalg.det(cov[0:2, 2:4])
    v = np.linalg.det(cov)
    return a, b, c, v


def _clamped_sqrt(value, scale):
    if value < -RADICAND_CLAMP * max(scale, 1.0):
        raise ArithmeticError(f"radicand {value} below clamp band")
    return math.sqrt(max(value, 0.0))


def symplectic_eigenvalues(state):
    """Both symplectic eigenvalues of the covariance matrix (nu_-, nu_+).

    Uses the two-mode closed form with Delta = det A + det B + 2 det C:
    nu_+- = sqrt((Delta +- sqrt(Delta^2 - 4 det V)) / 2).  A state is physical
    iff nu_- >= 1/2 (uncertainty principle) and pure iff both equal 1/2.
    """
    a, b, c, v = _minors(state.cov)
    delta = a + b + 2.0 * c
    root = _clamped_sqrt(delta * delta - 4.0 * v, delta * delta)
    lo = _clamped_sqrt(0.5 * (delta - root), delta)
    hi = _clamped_sqrt(0.5 * (delta + root), delta)
    return lo, hi


def physicality_check(state, tol=1e-9):
    """Return (is_physical, (nu_minus, nu_plus)) for a two-mode state.

    `is_physical` is True when the smaller symplectic eigenvalue satisfies
    nu_- >= 1/2 - tol.
    """
    nus = symplectic_eigenvalues(state)
    return nus[0] >= VACUUM_VARIANCE - tol, nus


def ppt_minimum_eigenvalue(state):
    """Smallest symplectic eigenvalue nu_min of the partially transposed state.

    Partial transposition flips the sign of P_C, i.e. det C -> -det C, so
    nu_min follows from Sigma = det A + det B - 2 det C via
    nu_min = sqrt((Sigma - sqrt(Sigma^2 - 4 det V)) / 2).  The two-mode state
    is entangled iff nu_min < 1/2.
    """
    a, b, c, v = _minors(state.cov)
    sigma = a + b - 2.0 * c
    root = _clamped_sqrt(sigma * sigma - 4.0 * v, sigma * sigma)
    return _clamped_sqrt(0.5 * (sigma - root), sigma)


def log_negativity(state):
    """Logarithmic negativity E_N = max(0, -ln(2 nu_min)).

    For a pure two-mode squeezed state with squeezing r this evaluates to
    exactly 2r (nu_min = exp(-2r)/2).
    """
    nu = ppt_minimum_eigenvalue(state)
    if nu <= 0.0:
        raise ArithmeticError(f"degenerate PPT symplectic eigenvalue {nu}")
    return max(0.0, -math.log(2.0 * nu))
