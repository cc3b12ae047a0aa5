"""Per-point channel algebra shared by both engines, on Python floats only.

Quadratures are X = (a + a^dag)/sqrt(2), P = -i(a - a^dag)/sqrt(2), so the
vacuum variance is 1/2.  Each helper computes one point's terms of one
pipeline stage: the squeezed input's entries (``_tmsv_entries``), pure loss
(``_loss_terms``), the mechanical storage/retrieval channel, phase noise
(``_phase_variance``), and the PPT readout of a two-mode covariance from its
Sigma and det V (``_ppt_readout``).

The storage channel's coefficients (c1, c2, f1, f2) of (x, y) come from one
core, ``_coefficients``, and its closure-checked per-channel terms
(-c1, c1^2, c2^2, f1^2 / 2, f2^2) from one function of them, ``_terms``.
The public ``channel_coefficients``, ``ChannelCoefficients.closure_defect``
and ``_storage_channel(coeffs)`` are built on the two; the protocol pipeline
takes a channel's terms as one tuple from ``_channel(x, y)``, which
builds no ``ChannelCoefficients``, and adds each point's noise with
``_storage_added``.  The public Gaussian operations
(:mod:`micromacro.gaussian`) apply the helpers to 4x4 arrays, and the
protocol pipeline composes them per config for both engines, in one
generator per sweep or threshold search (``protocol._mode_a``).  Nothing
here imports NumPy, so the CLI's feasibility report and argument handling
never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

VACUUM_VARIANCE = 0.5

# numerical guard band (see gaussian.physicality_check / log_negativity)
RADICAND_CLAMP = 1e-9
# where 1 - y^2 is below this, channel_coefficients takes 1 - y^2, y^2 and
# ln y from the exact 1 - y, and f2^2 from its series
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
        return _closure(self.c1, self.c2_mag, self.f1, self.f2)[0]


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
    u = 1 - y^2 < SERIES_BELOW, u, y^2 and ln y come from the exact
    d = 1 - y, as u = d (1 + y), y^2 = 1 - u and ln y = log1p(-d): from
    y * y and log(y) they would disagree by the rounding of y * y over u,
    which breaks the closure near y = 1.  There f2's radicand comes from
    its series in u, because the closed form cancels terms of order x down
    to x u^2.  Where x * x overflows (x > 1.34e154), both radicands are
    taken over x^2 and 1 + x over x, so every finite x runs; below that the
    arithmetic is the closed forms' above.
    """
    return ChannelCoefficients(x, y, *_coefficients(x, y))


def _coefficients(x, y):
    """channel_coefficients' (c1, c2_mag, f1, f2) as a tuple of floats."""
    if x < 0 or not math.isfinite(x):
        raise ValueError(f"noise parameter x={x} must be finite and >= 0")
    if not (0.0 < y <= 1.0):
        raise ValueError(f"coupling parameter y={y} outside (0, 1]")
    if y == 1.0:
        # no light-mechanics exchange: the output is pure optical vacuum noise
        return 0.0, 0.0, 1.0, 0.0
    y2 = y * y
    one = 1.0 - y2
    near_one = one < SERIES_BELOW
    if near_one:
        # 1 - y is exact here (Sterbenz's lemma)
        d = 1.0 - y
        one = d * (1.0 + y)
        y2 = 1.0 - one
        log_y = math.log1p(-d)
    else:
        log_y = math.log(y)
    c1 = one / (1.0 + x)
    c2 = y * math.sqrt(one / (1.0 + x))
    if near_one:
        # rad2 = x u^2 (1 + sum_{n>=2} 2 u^(n-2) / (n (n+1))); ten terms
        # leave a remainder below 1e-21 relative
        series = 1.0 + sum(2.0 * one ** (n - 2) / (n * (n + 1)) for n in range(2, 12))
    if x * x < math.inf:
        log_term = 4.0 * x * y2 * log_y / one  # <= 0 for y in (0, 1)
        rad1 = x * x + y2 - log_term
        if near_one:
            rad2 = x * one * one * series
        else:
            rad2 = x * (1.0 + y2) + x * one * one + log_term
        divisor = 1.0 + x
    else:
        # x * x overflows (x > 1.34e154): both radicands over x^2 and 1 + x
        # over x, with -log_term / x = 4 y^2 |ln y| / (1 - y^2) in [0, 2]
        slope = -4.0 * y2 * log_y / one
        rad1 = 1.0 + (y2 / x + slope) / x
        if near_one:
            rad2 = one * one * series / x
        else:
            rad2 = ((1.0 + y2) + one * one - slope) / x
        divisor = (1.0 + x) / x
    for rad in (rad1, rad2):
        if rad < -RADICAND_CLAMP:
            raise ArithmeticError(f"negative radicand {rad} in channel coefficients")
    f1 = math.sqrt(max(rad1, 0.0)) / divisor
    f2 = math.sqrt(max(rad2, 0.0)) / divisor
    return c1, c2, f1, f2


def _tmsv_entries(r):
    """The squeezed vacuum's variance sinh(r)^2 + 1/2 and correlation sinh(r)cosh(r)."""
    if not (0 <= r < 20):
        raise ValueError(f"squeezing parameter r={r} outside [0, 20)")
    return math.sinh(r) ** 2 + VACUUM_VARIANCE, math.sinh(r) * math.cosh(r)


def _loss_terms(eta):
    """One point's (amplitude, power, added noise) of pure loss; eta = 1 gives (1, 1, 0)."""
    return math.sqrt(eta), eta, (1.0 - eta) * VACUUM_VARIANCE


def _closure(c1, c2, f1, f2):
    """(|c1^2 + c2^2 + f1^2 + f2^2 - 1|, c2^2, f1^2, f2^2): the closure defect
    and the squares it shares with the per-channel terms."""
    c2_sq, f1_sq, f2_sq = c2**2, f1**2, f2**2
    return abs(c1**2 + c2_sq + f1_sq + f2_sq - 1.0), c2_sq, f1_sq, f2_sq


def _terms(c1, c2, f1, f2):
    """Closure-checked per-channel terms (-c1, c1 c1, c2^2, f1^2 / 2, f2^2).

    c1 enters the closure sum as c1**2 and the power as c1 * c1, as in the
    4x4 operations: the two can differ in the last bit."""
    defect, c2_sq, f1_sq, f2_sq = _closure(c1, c2, f1, f2)
    if defect > 1e-10:
        raise ValueError(f"channel coefficients violate closure by {defect}")
    return -c1, c1 * c1, c2_sq, f1_sq * VACUUM_VARIANCE, f2_sq


def _storage_channel(coeffs):
    """The per-channel terms (``_terms``) of a ChannelCoefficients."""
    return _terms(coeffs.c1, coeffs.c2_mag, coeffs.f1, coeffs.f2)


def _channel(x, y):
    """The pipeline's storage channel at (x, y): its per-channel terms,
    ``_storage_channel(channel_coefficients(x, y))``, without building a
    ChannelCoefficients.  Its c1 is the negated first term."""
    return _terms(*_coefficients(x, y))


def _storage_added(channel, n_initial, n_bath):
    """One point's added noise c2^2 (n_initial + 1/2) + f1^2 / 2 + f2^2 (n_bath + 1/2)."""
    _, _, c2_sq, f1_term, f2_sq = channel
    return c2_sq * (n_initial + VACUUM_VARIANCE) + f1_term + f2_sq * (n_bath + VACUUM_VARIANCE)


def _phase_variance(sigma, amp_sq):
    """The P variance 2 amp_sq sigma^2 a phase jitter adds.  The exact
    doubling comes last, so sigma = 0 gives 0 where 2 amp_sq overflows."""
    return amp_sq * sigma * sigma * 2.0


def _ppt_witness(total, det_v):
    return total / 4.0 - det_v - 1.0 / 16.0


def _clamped_sqrt(value, scale):
    # NaN fails every comparison, so `not value >= ...` rejects it too.
    # max(a, b) is written out as `b if b > a else a`, the builtin's choice
    # for signed zeros and NaN too, because its call costs more than the rest.
    if not value >= -RADICAND_CLAMP * (1.0 if 1.0 > scale else scale):
        raise ArithmeticError(f"radicand {value} below clamp band")
    return math.sqrt(0.0 if 0.0 > value else value)


def _nu_pair(total, det_v):
    """One point's nu_-+ = sqrt((total -+ sqrt(total^2 - 4 det V)) / 2), radicands clamped."""
    square = total * total
    root = _clamped_sqrt(square - 4.0 * det_v, square)
    return _clamped_sqrt(0.5 * (total - root), total), _clamped_sqrt(0.5 * (total + root), total)


def _negativity(nu):
    if not nu > 0.0:  # NaN included
        raise ArithmeticError(f"degenerate PPT symplectic eigenvalue {nu}")
    negativity = -math.log(2.0 * nu)
    return negativity if negativity > 0.0 else 0.0


def _ppt_readout(total, det_v):
    """One point's (nu_min, witness, E_N) from the partially transposed Sigma and det V.

    nu_min is ``_nu_pair``'s nu_- by the same two clamped roots.  Skipping
    nu_+ skips no failure: its radicand 0.5 (Sigma + root) is at least
    nu_-'s 0.5 (Sigma - root), under the same clamp band."""
    square = total * total
    nu = _clamped_sqrt(0.5 * (total - _clamped_sqrt(square - 4.0 * det_v, square)), total)
    return nu, _ppt_witness(total, det_v), _negativity(nu)
