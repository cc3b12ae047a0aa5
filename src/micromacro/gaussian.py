"""Two-mode Gaussian states and the operations used by the storage/retrieval pipeline.

Conventions
-----------
Quadratures are X = (a + a^dag)/sqrt(2), P = -i(a - a^dag)/sqrt(2), so the
vacuum variance is 1/2 and [X, P] = i.  A two-mode state is described by the
mean vector (X_A, P_A, X_C, P_C) and the symmetrized 4x4 covariance matrix in
the same ordering.  Mode A is the bright/stored mode, mode C is the companion
mode that never enters the mechanical channel.

Batches
-------
Every operation also acts on a batch of states: means of shape (..., 4) and
covariances of shape (..., 4, 4), the leading axes being the batch shape.
A per-point parameter is then one value for every point or an array of the
batch shape.  The 4x4 arithmetic runs on the whole batch in NumPy with the
same operations, in the same order, as for one state, so each point of a
batch is bit-identical to the same point evaluated alone.  Per-point scalars
that NumPy and the math module may round differently (sinh, powers, log)
are computed point by point with the math module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VACUUM_VARIANCE = 0.5

# numerical guard bands (see physicality_check / log_negativity)
SYMMETRY_TOL = 1e-12
RADICAND_CLAMP = 1e-9
# channel_coefficients takes f2^2 from its series where 1 - y^2 is below this
SERIES_BELOW = 1e-2

# the two-mode squeezed vacuum's covariance is d * _TMSV_VARIANCES + c * _TMSV_CORRELATIONS
_TMSV_VARIANCES = np.eye(4)
_TMSV_CORRELATIONS = np.array(
    [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]]
)
_IDENTITY_BLOCK = np.eye(2)
_VACUUM_BLOCK = VACUUM_VARIANCE * np.eye(2)
# cov[..., _BLOCK_ROWS, _BLOCK_COLUMNS] stacks the 2x2 blocks A, B and C
_BLOCK_ROWS = np.array([[0, 1], [2, 3], [0, 1]])[:, :, None]
_BLOCK_COLUMNS = np.array([[0, 1], [2, 3], [2, 3]])[:, None, :]

# each mode's (own, other) slices of the (X_A, P_A, X_C, P_C) ordering
_MODE_SLICES = {"A": (slice(0, 2), slice(2, 4)), "C": (slice(2, 4), slice(0, 2))}


def _mode_slices(mode):
    try:
        return _MODE_SLICES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}, expected 'A' or 'C'") from None


def _per_point(fn, nout, *args):
    """`fn` applied at every point to Python floats (and other per-point objects).

    Arguments broadcast as in NumPy.  Returns float arrays of the broadcast
    shape, a tuple of `nout` of them when `nout` > 1; 0-d for scalar arguments.
    An exception raised by `fn` propagates from the first failing point.
    """
    out = np.frompyfunc(fn, len(args), nout)(*args)
    if nout == 1:
        return np.asarray(out, dtype=float)
    return tuple(np.asarray(o, dtype=float) for o in out)


def _require(values, ok, message):
    """`values` as a float array; ValueError naming the first value where `ok` is False."""
    values = np.asarray(values, dtype=float)
    good = ok(values)
    if not good.all():
        raise ValueError(message.format(values[~good].flat[0]))
    return values


def _in_unit_interval(values):
    return (0.0 <= values) & (values <= 1.0)


def _finite_non_negative(values):
    return np.isfinite(values) & (values >= 0)


def _scalar(values):
    """A 0-d result as a Python float; a batch result as it is."""
    return float(values) if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class GaussianTwoModeState:
    """Mean vector and covariance matrix of a two-mode Gaussian state, or a batch.

    Attributes
    ----------
    mean : ndarray, shape (..., 4)
        First moments (X_A, P_A, X_C, P_C).
    cov : ndarray, shape (..., 4, 4)
        Symmetrized covariance matrix, vacuum variance 1/2 on the diagonal.

    The leading axes are the batch shape, () for a single state.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim < 1 or mean.shape[-1] != 4:
            raise ValueError(f"mean must have shape (..., 4), got {mean.shape}")
        if cov.shape != mean.shape[:-1] + (4, 4):
            raise ValueError(f"cov must have shape {mean.shape[:-1] + (4, 4)}, got {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("non-finite entry in mean or cov")
        if cov.size and np.abs(cov - cov.swapaxes(-1, -2)).max() > SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def point(self, index):
        """The state at `index` of a batch, sharing this batch's arrays."""
        return _frozen(self.mean[index], self.cov[index])


def _frozen(mean, cov):
    """A state on arrays an operation built from a valid state: frozen in place,
    not copied.  The operations keep the covariance symmetric entry by entry."""
    mean.setflags(write=False)
    cov.setflags(write=False)
    state = object.__new__(GaussianTwoModeState)
    object.__setattr__(state, "mean", mean)
    object.__setattr__(state, "cov", cov)
    return state


def _finite(state):
    """`state`, after checking that an operation that adds to it did not overflow."""
    if not (np.isfinite(state.mean).all() and np.isfinite(state.cov).all()):
        raise ValueError("non-finite entry in mean or cov")
    return state


def vacuum_state():
    """Two-mode vacuum: zero mean, cov = (1/2) * identity."""
    return GaussianTwoModeState(np.zeros(4), VACUUM_VARIANCE * np.eye(4))


def _tmsv_entries(r):
    if not (0 <= r < 20):
        raise ValueError(f"squeezing parameter r={r} outside [0, 20)")
    return math.sinh(r) ** 2 + VACUUM_VARIANCE, math.sinh(r) * math.cosh(r)


def tmsv_state(r):
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    All four diagonal variances equal sinh(r)^2 + 1/2; the correlations are
    <X_A X_C> = +sinh(r)cosh(r) and <P_A P_C> = -sinh(r)cosh(r), so the state
    approaches an ideal EPR pair for large r and is exactly vacuum at r = 0.
    An array of r gives the batch of states of that shape.
    """
    d, c = _per_point(_tmsv_entries, 2, r)
    # exact: each entry is d, c or -c plus products with zero
    cov = d[..., None, None] * _TMSV_VARIANCES + c[..., None, None] * _TMSV_CORRELATIONS
    return _frozen(np.zeros(d.shape + (4,)), cov)  # finite for r < 20


def displace(state, mode, alpha):
    """Apply a phase-space displacement D(alpha) to one mode.

    Shifts the mean of the chosen mode by (sqrt(2) Re alpha, sqrt(2) Im alpha)
    and leaves the covariance matrix untouched.  `alpha` may be an array of
    the batch shape.
    """
    x = _mode_slices(mode)[0].start  # the mode's X quadrature, P follows it
    alpha = np.asarray(alpha, dtype=complex)
    mean = state.mean.copy()
    mean[..., x] += math.sqrt(2.0) * alpha.real
    mean[..., x + 1] += math.sqrt(2.0) * alpha.imag
    return _finite(_frozen(mean, state.cov))


def _update_mode(state, mode, amplitude, power, noise):
    """One mode's mean and cross-blocks scale by `amplitude`; its own 2x2
    block maps to power * block + noise.  `amplitude` and `power` are per
    point, `noise` is a (..., 2, 2) block."""
    own = _mode_slices(mode)[0]
    scale = np.ones(np.shape(amplitude) + (4,))
    scale[..., own] = np.asarray(amplitude)[..., None]
    mean = state.mean * scale
    # the other mode's block gains 1 * 1, its cross-blocks amplitude * 1; the
    # own block is then overwritten
    cov = state.cov * (scale[..., :, None] * scale[..., None, :])
    cov[..., own, own] = np.asarray(power)[..., None, None] * state.cov[..., own, own] + noise
    return _frozen(mean, cov)


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
    `eta` may be an array of the batch shape.
    """
    eta = _require(eta, _in_unit_interval, "transmission eta={} outside [0, 1]")
    _mode_slices(mode)  # a bad mode fails even where eta = 1 leaves the state alone
    if (eta == 1.0).all():
        return state
    noise = (1.0 - eta[..., None, None]) * _VACUUM_BLOCK
    # a mix of a finite state and vacuum: finite
    return _update_mode(state, mode, np.sqrt(eta), eta, noise)


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
    leaves a defect below 1e-12 over the whole admissible domain.  Where
    u = 1 - y^2 < SERIES_BELOW, f2's radicand comes from its series in u,
    because the closed form cancels terms of order x down to x u^2.
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
    if one < SERIES_BELOW:
        # rad2 = x u^2 (1 + sum_{n>=2} 2 u^(n-2) / (n (n+1))); ten terms
        # leave a remainder below 1e-21 relative
        series = sum(2.0 * one ** (n - 2) / (n * (n + 1)) for n in range(2, 12))
        rad2 = x * one * one * (1.0 + series)
    else:
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

    For a batch, `coeffs` may be a sequence of ChannelCoefficients and the
    occupations arrays, one entry per point.
    """
    amplitude, power, added = _per_point(_storage_terms, 3, coeffs, n_initial, n_bath)
    noise = added[..., None, None] * _IDENTITY_BLOCK
    return _finite(_update_mode(state, mode, amplitude, power, noise))


def _storage_terms(coeffs, n_initial, n_bath):
    """One point's (amplitude, power, added noise) of the storage channel."""
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
    return -c1, c1 * c1, added


def phase_noise(state, sigma, amp_sq, mode="A"):
    """Dephasing of a bright mode by a small random optical phase.

    A Gaussian phase jitter of standard deviation `sigma` (radians, sigma << 1)
    on a mode with mean photon number `amp_sq` adds 2 * amp_sq * sigma^2 to the
    P-quadrature variance (the noise enhancement is quadratic in the bright
    amplitude; the non-enhanced O(sigma^2) corrections are dropped).  The mean
    and every other covariance entry are unchanged.  `sigma` and `amp_sq` may
    be arrays of the batch shape.
    """
    sigma = _require(sigma, _finite_non_negative, "phase jitter sigma={} must be finite and >= 0")
    amp_sq = _require(
        amp_sq, _finite_non_negative, "amplitude photon number {} must be finite and >= 0"
    )
    p = _mode_slices(mode)[0].start + 1  # the mode's P quadrature
    added = 2.0 * amp_sq * sigma * sigma
    if not added.any():
        return state
    cov = state.cov.copy()
    cov[..., p, p] += added
    return _finite(_frozen(state.mean, cov))


def _minors(cov):
    """det A, det B, det C and det V of the covariance's 2x2 blocks and the whole."""
    blocks = np.linalg.det(cov[..., _BLOCK_ROWS, _BLOCK_COLUMNS])
    return blocks[..., 0], blocks[..., 1], blocks[..., 2], np.linalg.det(cov)


def _clamped_sqrt(value, scale):
    below = value < -RADICAND_CLAMP * np.maximum(scale, 1.0)
    if below.any():
        raise ArithmeticError(f"radicand {np.asarray(value)[below].flat[0]} below clamp band")
    return np.sqrt(np.maximum(value, 0.0))


def _nu_pair(total, det_v):
    """nu_-+ = sqrt((total -+ sqrt(total^2 - 4 det V)) / 2), radicands clamped."""
    square = total * total
    root = _clamped_sqrt(square - 4.0 * det_v, square)
    return _clamped_sqrt(0.5 * (total - root), total), _clamped_sqrt(0.5 * (total + root), total)


def symplectic_eigenvalues(state):
    """Both symplectic eigenvalues of the covariance matrix (nu_-, nu_+).

    Uses the two-mode closed form with Delta = det A + det B + 2 det C:
    nu_+- = sqrt((Delta +- sqrt(Delta^2 - 4 det V)) / 2).  A state is physical
    iff nu_- >= 1/2 (uncertainty principle) and pure iff both equal 1/2.
    """
    a, b, c, v = _minors(state.cov)
    lo, hi = _nu_pair(a + b + 2.0 * c, v)
    return _scalar(lo), _scalar(hi)


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
    return _scalar(_nu_pair(a + b - 2.0 * c, v)[0])


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
    a, b, c, v = _minors(state.cov)
    return _scalar((a + b - 2.0 * c) / 4.0 - v - 1.0 / 16.0)


def log_negativity(state):
    """Logarithmic negativity E_N = max(0, -ln(2 nu_min)).

    For a pure two-mode squeezed state with squeezing r this evaluates to
    exactly 2r (nu_min = exp(-2r)/2).
    """
    return negativity_from_nu(ppt_minimum_eigenvalue(state))


def _negativity(nu):
    if nu <= 0.0:
        raise ArithmeticError(f"degenerate PPT symplectic eigenvalue {nu}")
    return max(0.0, -math.log(2.0 * nu))


def negativity_from_nu(nu):
    """E_N = max(0, -ln(2 nu)) of PPT minimum symplectic eigenvalues `nu`,
    a float or an array (the logarithm is taken point by point)."""
    return _scalar(_per_point(_negativity, 1, nu))
