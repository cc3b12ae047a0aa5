"""Per-point channel algebra shared by both engines, on Python floats only.

Quadratures are X = (a + a^dag)/sqrt(2), P = -i(a - a^dag)/sqrt(2), so the
vacuum variance is 1/2.  Each helper computes one point's terms of one
pipeline stage: the squeezed input's entries (``_tmsv_entries``), pure loss
(``_loss_terms``), the mechanical storage/retrieval channel
(``channel_coefficients`` and ``_storage_terms``), phase noise
(``_phase_variance``), and the PPT readout of a two-mode covariance from its
Sigma and det V (``_ppt_readout``).  The public Gaussian operations
(:mod:`micromacro.gaussian`) apply them to 4x4 arrays, and the protocol
pipeline composes them per config for both engines.  Nothing here imports
NumPy, so the CLI's feasibility report and argument handling never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

VACUUM_VARIANCE = 0.5

# numerical guard band (see gaussian.physicality_check / log_negativity)
RADICAND_CLAMP = 1e-9
# channel_coefficients takes f2^2 from its series where 1 - y^2 is below this
SERIES_BELOW = 1e-2


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
    if x < 0 or not math.isfinite(x):
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


def _tmsv_entries(r):
    """The squeezed vacuum's variance sinh(r)^2 + 1/2 and correlation sinh(r)cosh(r)."""
    if not (0 <= r < 20):
        raise ValueError(f"squeezing parameter r={r} outside [0, 20)")
    return math.sinh(r) ** 2 + VACUUM_VARIANCE, math.sinh(r) * math.cosh(r)


def _loss_terms(eta):
    """One point's (amplitude, power, added noise) of pure loss; eta = 1 gives (1, 1, 0)."""
    return math.sqrt(eta), eta, (1.0 - eta) * VACUUM_VARIANCE


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


def _phase_variance(sigma, amp_sq):
    """The P variance 2 amp_sq sigma^2 a phase jitter adds."""
    return 2.0 * amp_sq * sigma * sigma


def _ppt_witness(total, det_v):
    return total / 4.0 - det_v - 1.0 / 16.0


def _clamped_sqrt(value, scale):
    # NaN fails every comparison, so `not value >= ...` rejects it too
    if not value >= -RADICAND_CLAMP * max(scale, 1.0):
        raise ArithmeticError(f"radicand {value} below clamp band")
    return math.sqrt(max(value, 0.0))


def _nu_pair(total, det_v):
    """One point's nu_-+ = sqrt((total -+ sqrt(total^2 - 4 det V)) / 2), radicands clamped."""
    square = total * total
    root = _clamped_sqrt(square - 4.0 * det_v, square)
    return _clamped_sqrt(0.5 * (total - root), total), _clamped_sqrt(0.5 * (total + root), total)


def _negativity(nu):
    if not nu > 0.0:  # NaN included
        raise ArithmeticError(f"degenerate PPT symplectic eigenvalue {nu}")
    return max(0.0, -math.log(2.0 * nu))


def _ppt_readout(total, det_v):
    """One point's (nu_min, witness, E_N) from the partially transposed Sigma and det V."""
    nu = _nu_pair(total, det_v)[0]
    return nu, _ppt_witness(total, det_v), _negativity(nu)
