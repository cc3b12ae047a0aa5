"""End-to-end protocol pipeline, threshold finding and feasibility arithmetic.

The pipeline prepares micro-macro entanglement by displacing one arm of an
entangled state by a macroscopic amplitude (N_D photons), storing that bright
mode in a mechanical oscillator and retrieving it, undoing the displacement,
and quantifying the surviving entanglement.  Two engines implement it:

* ``gaussian`` — two-mode squeezed vacuum input, covariance-matrix evolution,
  log-negativity output (exact at any N_D);
* ``fock`` — displaced single-photon path-entangled input evaluated in the
  displaced frame, Wootters concurrence of the light-light state projected
  onto the {vacuum, one-photon} qubit subspace.  That {0,1}^2 block is an
  X-state read out in closed form (Yu & Eberly, QIC 7, 459 (2007)): mode A's
  stages compose into one Gaussian channel and mode C only sees loss
  (Weedbrook et al., RMP 84, 621 (2012)).

Both engines evaluate in the displaced frame and run mode A's stages through
one function (``_through_mode_a``).  The macroscopic
displacement never touches the simulated state and enters only through the
phase-noise variance picked up by the bright beam, proportional to
N_D sigma^2.  ``entanglement_metric``, ``find_threshold`` and sweeps reach
the engines through one dispatch, ``_evaluate``, which takes a base config
and its points: each point is the tuple of its ten float fields in
``_FLOAT_FIELDS`` order, and the engine and phase-noise convention are the
base's.  A call's gaussian points run as one private batch
(``_gaussian_batch``), fock points one at a time.  ``run_gaussian_protocol``
and ``run_fock_protocol`` each take one config.

Both engines compose the per-point terms of :mod:`micromacro.channel`, which
needs no NumPy.  Each engine runner imports NumPy and its engine module when
it runs, so configs, feasibility and threshold bookkeeping load neither, and
a gaussian run never loads the fock engine.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import channel as ch

if TYPE_CHECKING:
    from . import gaussian as ga

# CODATA: hbar = h / (2 pi) with h exact; k_B exact (SI definition).
HBAR = 1.05457181765e-34  # J s, 12 significant digits
KB = 1.380649e-23  # J / K, exact

ENGINES = ("gaussian", "fock")
PHASE_NOISE_CONVENTIONS = ("paper_literal", "propagated_mean")
ZERO_METRIC_TOL = 1e-12
# find_threshold's |f| where a probe's witness is 0 or disagrees with its verdict
_TINY = 1e-300


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete parameter set for one pipeline evaluation.

    Attributes
    ----------
    r : float
        Input squeezing (gaussian engine input strength), in [0, 20).
    N_D : float
        Macroscopic displacement photon number |alpha|^2, finite, >= 0.
    y : float
        Storage/retrieval coupling parameter e^{-G' tau}, in (0, 1]; small y
        means (nearly) complete write-in and read-out.
    x : float
        Mechanical damping ratio gamma/G, finite, >= 0.
    N_in : float
        Initial mechanical occupation, finite, >= 0.
    N_th : float
        Mechanical bath occupation, finite, >= 0.
    sigma : float
        Phase-noise standard deviation in radians, finite, >= 0.
    eta1, eta2, eta_c : float
        Transmission before storage, after retrieval, and on the companion
        mode, each in [0, 1].
    engine : str
        "gaussian" or "fock".
    phase_noise_convention : str
        How the bright-beam amplitude entering the phase-noise variance is
        computed: "paper_literal" uses N_D (1 - y^2)^2, "propagated_mean"
        (default) uses the actual squared mean amplitude at the point the
        noise acts, eta1 c1^2 N_D.  See the module docstring of
        :mod:`micromacro.gaussian` for the pipeline order.

    Construction, and so ``dataclasses.replace``, checks every field against
    the one per-field table ``_CHECKS`` and raises ValueError naming the
    first field that fails.  A config is the validated type at the API
    boundary; inside the pipeline a point is the tuple of its ten float
    fields (``_point``).  Sweeps and threshold searches build no config per
    point: each new value passes its field's check once (``_checked``) and
    is written into the valid base config's tuple, which so equals the tuple
    of the constructor's config for the same fields.
    """

    r: float = 0.5
    N_D: float = 5000.0
    y: float = 0.1
    x: float = 0.01
    N_in: float = 1.0
    N_th: float = 10.0
    sigma: float = 0.01
    eta1: float = 0.8
    eta2: float = 0.8
    eta_c: float = 0.8
    engine: str = "gaussian"
    phase_noise_convention: str = "propagated_mean"

    def __post_init__(self):
        for name in _CHECKS:
            _checked(name, getattr(self, name))


def _finite_non_negative(value):
    return 0.0 <= value < math.inf


def _unit_interval(value):
    return 0.0 <= value <= 1.0


# field -> (accepts(value), message with {} for the value): ProtocolConfig's
# checks, in field order.  NaN fails every chained comparison, so it is
# rejected too.
_CHECKS = {
    # the squeezed input's own limit (channel._tmsv_entries)
    "r": (lambda value: 0.0 <= value < 20.0, "squeezing r={} outside [0, 20)"),
    "N_D": (
        _finite_non_negative, "displacement photon number N_D={} must be finite and >= 0"
    ),
    "y": (lambda value: 0.0 < value <= 1.0, "coupling parameter y={} outside (0, 1]"),
    "x": (_finite_non_negative, "damping ratio x={} must be finite and >= 0"),
    "N_in": (_finite_non_negative, "initial occupation N_in={} must be finite and >= 0"),
    "N_th": (_finite_non_negative, "bath occupation N_th={} must be finite and >= 0"),
    "sigma": (_finite_non_negative, "phase-noise sigma={} must be finite and >= 0"),
    "eta1": (_unit_interval, "transmission eta1={} outside [0, 1]"),
    "eta2": (_unit_interval, "transmission eta2={} outside [0, 1]"),
    "eta_c": (_unit_interval, "transmission eta_c={} outside [0, 1]"),
    "engine": (ENGINES.__contains__, f"engine {{!r}} not one of {ENGINES}"),
    "phase_noise_convention": (
        PHASE_NOISE_CONVENTIONS.__contains__,
        f"phase_noise_convention {{!r}} not one of {PHASE_NOISE_CONVENTIONS}",
    ),
}


def _checked(name, value):
    """`value` if config field `name` accepts it; else the ValueError that
    ProtocolConfig raises for it."""
    accepts, message = _CHECKS[name]
    if not accepts(value):
        raise ValueError(message.format(value))
    return value


def _integer(name, value):
    """`value` as an int; ValueError if it is not integral."""
    if not float(value).is_integer():
        raise ValueError(f"{name}={value} must be an integer")
    return int(value)


def _number(name, raw):
    """`raw` as a float; ValueError naming the field if float() rejects it."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{name}={raw!r} is not a number") from None


_FLOAT_FIELDS = (
    "r", "N_D", "y", "x", "N_in", "N_th", "sigma", "eta1", "eta2", "eta_c",
)
_STR_FIELDS = ("engine", "phase_noise_convention")
CONFIG_FIELDS = _FLOAT_FIELDS + _STR_FIELDS
# a config's point: the tuple of its float fields, in _FLOAT_FIELDS order
_point = operator.attrgetter(*_FLOAT_FIELDS)


def config_to_mapping(config):
    """Flat name -> value mapping of a config, field names as in ProtocolConfig."""
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}


def config_from_mapping(mapping):
    """Build a ProtocolConfig from string-or-native values over the defaults.

    Unknown keys raise KeyError; numeric fields accept anything float() accepts
    and raise ValueError naming the field otherwise.
    """
    values = config_to_mapping(ProtocolConfig())
    for key, raw in mapping.items():
        if key in _STR_FIELDS:
            values[key] = str(raw).strip()
        elif key in CONFIG_FIELDS:
            values[key] = _number(key, raw)
        else:
            raise KeyError(f"unknown config field {key!r}")
    return ProtocolConfig(**values)


def phase_noise_amplitude_sq(config, coeffs):
    """Squared bright-beam amplitude |alpha_eff|^2 entering the phase-noise variance.

    ``paper_literal`` keeps the initial amplitude attenuated by the ideal
    storage/retrieval envelope, N_D (1 - y^2)^2.  ``propagated_mean`` uses the
    squared magnitude of the actual first moment at the point where the noise
    acts (after the input loss eta1 and the channel): eta1 c1^2 N_D.  The two
    agree as eta1 -> 1 and x -> 0.
    """
    _, N_D, y, _, _, _, _, eta1, _, _ = _point(config)
    return _amplitude_sq(config.phase_noise_convention, N_D, y, eta1, coeffs)


def _amplitude_sq(convention, N_D, y, eta1, coeffs):
    """phase_noise_amplitude_sq of one point's values."""
    if convention == "paper_literal":
        return N_D * (1.0 - y**2) ** 2
    return eta1 * coeffs.c1**2 * N_D


def _through_mode_a(point, convention, coeffs, channel, a_x, a_p, k_x, k_p):
    """(a_x, a_p, k_x, k_p) after mode A's stages: loss eta1, the storage
    channel with the phase noise that follows it, and loss eta2.  Each stage
    maps X -> amplitude X, so a variance v -> power v + added, plus the phase
    noise's jitter on P's, and a correlation k -> k amplitude.  `point` is
    the point's float tuple (``_point``), `coeffs` its storage channel's
    coefficients and `channel` their per-channel terms,
    ``channel._storage_channel(coeffs)``."""
    _, N_D, y, _, N_in, N_th, sigma, eta1, eta2, _ = point
    amplitude, power, added = ch._loss_terms(eta1)
    a_x, a_p = power * a_x + added, power * a_p + added
    k_x, k_p = k_x * amplitude, k_p * amplitude
    amplitude, power = channel[:2]
    added = ch._storage_added(channel, N_in, N_th)
    jitter = ch._phase_variance(sigma, _amplitude_sq(convention, N_D, y, eta1, coeffs))
    a_x, a_p = power * a_x + added, power * a_p + added + jitter
    k_x, k_p = k_x * amplitude, k_p * amplitude
    amplitude, power, added = ch._loss_terms(eta2)
    return power * a_x + added, power * a_p + added, k_x * amplitude, k_p * amplitude


@dataclass(frozen=True)
class GaussianProtocolResult:
    """Outcome of one gaussian-engine pipeline run.

    The output state is in the displaced frame, so its mean is zero.
    ``witness`` is the signed, unclamped PPT witness of the output covariance
    (gaussian.ppt_witness).
    """

    log_negativity: float
    nu_min: float
    output_state: ga.GaussianTwoModeState
    witness: float


@dataclass(frozen=True)
class FockProtocolResult:
    """Outcome of one fock-engine pipeline run.

    ``witness`` is the unclamped X-state concurrence of the projected qubit
    pair (run_fock_protocol), negative on the separable side; ``concurrence``
    is max(0, witness).
    """

    concurrence: float
    projection_probability: float
    witness: float


def _gaussian_batch(points, convention):
    """Each gaussian point's (nu_min, witness, log_negativity), as Python
    floats, and the (n, 4, 4) array of their output covariances.  `points`
    are float tuples (``_point``) of valid configs that share the phase-noise
    `convention`.

    Every stage on mode A acts on each quadrature separately and mode C only
    sees loss, so the covariance keeps the form [[a_x, 0, k_x, 0],
    [0, a_p, 0, k_p], [k_x, 0, b, 0], [0, k_p, 0, b]].  Each point propagates
    these five Python floats with the helpers of the public operations, by
    the same IEEE operations in the same order as their 4x4 arithmetic,
    whose other entries only ever multiply or add zeros; what points share
    runs once per distinct (x, y) or r in a call.  The call's covariances
    are then read out by the same determinants, and each point's
    (Sigma, det V) pair, as Python floats, by the public operations'
    per-point readout ``channel._ppt_readout``.  So every value is bit for
    bit what the composed public operations give, signed zeros of the
    covariance included, whatever else the call holds.
    """
    import numpy as np

    from . import gaussian as ga

    # the storage channel's per-channel terms (and closure check) once per
    # (x, y), the squeezed entries once per r and sign: -0.0 == 0.0 as a key,
    # but r = -0.0 gives k = -0.0
    channels, squeezed, entries = {}, {}, []
    for point in points:
        r, _, y, x, _, _, _, _, _, eta_c = point
        storage = channels.get((x, y))
        if storage is None:
            coeffs = ch.channel_coefficients(x, y)
            storage = channels[x, y] = coeffs, ch._storage_channel(coeffs)
        signed_r = r, math.copysign(1.0, r)
        tmsv = squeezed.get(signed_r)
        if tmsv is None:
            tmsv = squeezed[signed_r] = ch._tmsv_entries(r)
        # a stage at eta = 1 or without noise leaves every entry bit for bit
        # as it is (1 a + 0 = a, 1 k = k), so none is skipped
        b, k = tmsv
        a_x, a_p, k_x, k_p = _through_mode_a(point, convention, *storage, b, b, k, 0.0 - k)
        amplitude, power, added = ch._loss_terms(eta_c)
        b, k_x, k_p = power * b + added, k_x * amplitude, k_p * amplitude
        # the zeros carry the 4x4 operations' signs: the storage channel's
        # -c1 makes the cross-blocks' zeros -0.0
        entries += (a_x, 0.0, k_x, -0.0, 0.0, a_p, -0.0, k_p, k_x, -0.0, b, 0.0, -0.0, k_p, 0.0, b)
    cov = np.fromiter(entries, float, len(entries)).reshape(-1, 4, 4)
    # valid points: only an overflow can make an entry non-finite
    if not np.isfinite(cov).all():
        raise ValueError("non-finite entry in mean or cov")
    total, det_v = ga._ppt_minors(cov)
    return list(map(ch._ppt_readout, total.tolist(), det_v.tolist())), cov


def run_gaussian_protocol(config):
    """Run the covariance-matrix pipeline on one config and quantify output entanglement.

    Order: squeezed input -> loss eta1 on A -> storage/retrieval channel ->
    phase noise on A -> loss eta2 on A -> loss eta_c on C -> log-negativity.
    The state is followed in the displaced frame: every stage is a Gaussian
    channel, covariant under displacement (Weedbrook et al., RMP 84, 621
    (2012)), so displacing A by sqrt(N_D) and back leaves the covariance as
    it is and N_D enters only through the phase-noise variance.  The output
    mean is zero.

    `config` must be one ProtocolConfig with engine == "gaussian"; a list or
    a tuple of configs raises TypeError.  The run is ``_gaussian_batch`` on
    the config's one point, so every field is bit for bit what the composed
    public operations give and what a sweep or a search reads for the same
    config.
    """
    if not isinstance(config, ProtocolConfig):
        raise TypeError(
            f"run_gaussian_protocol takes one ProtocolConfig, got {type(config).__name__}; "
            "a sequence of configs is no longer run as a batch"
        )
    if config.engine != "gaussian":
        raise ValueError(f"gaussian pipeline called with engine={config.engine!r}")
    import numpy as np

    from . import gaussian as ga

    ((nu_min, witness, log_negativity),), cov = _gaussian_batch(
        [_point(config)], config.phase_noise_convention
    )
    state = ga.GaussianTwoModeState(np.zeros(4), cov[0])
    return GaussianProtocolResult(log_negativity, nu_min, state, witness)


def _pair_terms(t, n_x, n_p):
    """The README's c and pair terms (P01, P23, P02 = P13, P03 = P12, P4) of the
    channel X -> t X, P -> t P that adds noise variances n_x and n_p."""
    a_x = (1.0 + t * t) / 2.0 + n_x
    a_p = (1.0 + t * t) / 2.0 + n_p
    p, q = 1.0 / (4.0 * a_p), 1.0 / (4.0 * a_x)
    p01, p23 = 1.0 - 2.0 * t * t * (p + q), 1.0 - 2.0 * (p + q)
    p02, p03 = 2.0 * t * (p + q), 2.0 * t * (q - p)
    return 1.0 / math.sqrt(a_x * a_p), p01, p23, p02, p03, p01 * p23 + p02 * p02 + p03 * p03


def _qubit_block(point, convention):
    """The output's unnormalized {0,1}^2 block over |a c> = 00, 01, 10, 11, an
    X-state: each entry is two products of pair terms, P's of A's composed
    channel and Q's of C's loss (README, "The Fock engine's closed form").
    `point` is a valid config's float tuple (``_point``), `convention` its
    phase-noise convention."""
    _, _, y, x, _, _, _, _, _, eta_c = point
    coeffs = ch.channel_coefficients(x, y)
    channel = ch._storage_channel(coeffs)
    n_x, n_p, gain, _ = _through_mode_a(point, convention, coeffs, channel, 0.0, 0.0, 1.0, 1.0)
    amplitude, _, added = ch._loss_terms(eta_c)
    c_a, p01, p23, p02, p03, p4 = _pair_terms(gain, n_x, n_p)
    c_c, q01, q23, q02, q03, q4 = _pair_terms(amplitude, added, added)
    scale = 0.5 * c_a * c_c
    r14 = scale * (p03 * q02 + p02 * q03)
    r23 = scale * (p03 * q03 + p02 * q02)
    return [
        [scale * (q01 + p01), 0.0, 0.0, r14],
        [0.0, scale * (q4 + p01 * q23), r23, 0.0],
        [0.0, r23, scale * (p23 * q01 + p4), 0.0],
        [r14, 0.0, 0.0, scale * (p23 * q4 + p4 * q23)],
    ]


def run_fock_protocol(config):
    """Run the single-photon pipeline and compute the concurrence, in closed form.

    In the displaced frame the input is (|1 0> + |0 1>)/sqrt(2) on modes
    (A, C), N_D enters only through the phase-noise variance and the
    undisplacement is the identity.  Mode A's stages (`_through_mode_a`)
    compose into one Gaussian channel (gain t, added noise n_x and n_p) and C
    is pure loss, so `_qubit_block` gives the output's {0,1}^2 block exactly;
    fock.qubit_project reads its weight and renormalizes it.  The witness is
    2 max(|rho_23| - sqrt(rho_11 rho_44), |rho_14| - sqrt(rho_22 rho_33)) of
    that X-state (Yu & Eberly), its roots clamped by channel._clamped_sqrt.
    """
    if config.engine != "fock":
        raise ValueError(f"fock pipeline called with engine={config.engine!r}")
    return FockProtocolResult(*_fock_readout(_point(config), config.phase_noise_convention))


def _fock_readout(point, convention):
    """run_fock_protocol's (concurrence, projection probability, witness) of
    one point's float tuple (``_point``) under the phase-noise `convention`."""
    from . import fock as fk

    block = fk.FockDensityMatrix((2, 2), _qubit_block(point, convention))
    qubits, probability = fk.qubit_project(block)
    rho = qubits.real.tolist()
    witness = 2.0 * max(
        abs(rho[1][2]) - ch._clamped_sqrt(rho[0][0] * rho[3][3], 1.0),
        abs(rho[0][3]) - ch._clamped_sqrt(rho[1][1] * rho[2][2], 1.0),
    )
    return max(0.0, witness), probability, witness


def _evaluate(base, points):
    """Each point's (metric, witness) as Python floats.

    `base` is a valid ProtocolConfig that sets the engine and the
    phase-noise convention; `points` are float tuples in ``_FLOAT_FIELDS``
    order (``_point``) whose every value has passed its field's check, as
    the base's own tuple does.  Gaussian points run as one
    ``_gaussian_batch`` call, fock points one at a time, each bit for bit
    the config's run_gaussian_protocol or run_fock_protocol."""
    convention = base.phase_noise_convention
    if base.engine == "gaussian":
        return [(e_n, witness) for _, witness, e_n in _gaussian_batch(points, convention)[0]]
    return [(c, witness) for c, _, witness in (_fock_readout(p, convention) for p in points)]


def entanglement_metric(config):
    """Scalar entanglement figure of merit for the configured engine.

    Log-negativity for the gaussian engine, concurrence of the projected qubit
    pair for the fock engine.  Both are exactly zero for separable outputs.
    """
    return _evaluate(config, [_point(config)])[0][0]


def find_threshold(config, parameter, bracket, tol=1e-5):
    """Find the parameter value where the entanglement metric reaches zero.

    The metric must be positive (> ZERO_METRIC_TOL) at one bracket end and
    zero at the other.  Brent's method (zeroin: Brent, "Algorithms for
    Minimization without Derivatives", 1973, ch. 4) keeps a bracket whose ends
    have opposite verdicts and shrinks it by secant, inverse quadratic
    interpolation or bisection steps until it is at most max(tol, 4 eps |b|)
    wide (b its end nearer the crossing, eps the float epsilon), then returns
    its midpoint, which lies within half that width of the crossing.  Each
    probe's sign is its verdict; the magnitude, which only sets the step, is
    the engine's signed witness from the same run where it agrees with the
    verdict, and a tiny positive number where it does not: the PPT witness
    of the gaussian output covariance (gaussian.ppt_witness) or the fock
    engine's unclamped X-state concurrence.  The gaussian witness is linear
    in a variance added to one quadrature (Serafini, Illuminati & De Siena,
    J. Phys. B 37, L21 (2004)), and sigma enters both engines only through
    the phase-noise variance 2 |alpha_eff|^2 sigma^2.  So the steps of a sigma
    search are taken on u = sigma^2 (width, step floor and midpoint stay in
    sigma), and an N_D or sigma search converges after one secant step.  The
    two bracket ends run as one ``_evaluate`` call, bit-identical to two
    single runs.  Each probe is `config`'s float tuple with the probed value
    written in after it passes the parameter's field check, so no config is
    built per probe and a bracket end outside the field's domain raises
    ProtocolConfig's ValueError.  Deterministic: no randomness, fixed
    iteration pattern.

    Raises
    ------
    ValueError
        If the metric has the same signedness at both bracket ends, if a
        bracket end is outside the parameter's domain, or (before any probe
        runs) the parameter is not a float config field, the bracket is not
        increasing, or tol is NaN.
    """
    if parameter not in _FLOAT_FIELDS:
        raise ValueError(f"parameter {parameter!r} is not a float config field")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError(f"bracket [{lo}, {hi}] must be increasing")
    if math.isnan(tol):
        raise ValueError("tol=nan must be a number")
    square = parameter == "sigma"  # steps on u = sigma^2, where the witness is linear
    point, index = list(_point(config)), _FLOAT_FIELDS.index(parameter)

    def probe(v):
        point[index] = _checked(parameter, v)
        return tuple(point)

    def coord(v):
        return v * v if square else v

    def value(u):
        return math.sqrt(u) if square else u

    def signed(*values):
        out = []
        for metric, witness in _evaluate(config, [probe(v) for v in values]):
            entangled = metric > ZERO_METRIC_TOL
            magnitude = max(float(witness if entangled else -witness), _TINY)
            out.append(magnitude if entangled else -magnitude)
        return out

    fa, fb = signed(lo, hi)
    a, b = coord(lo), coord(hi)
    if (fa > 0) == (fb > 0):
        state = "positive" if fa > 0 else "zero"
        raise ValueError(
            f"no entanglement threshold in [{lo}, {hi}]: metric is {state} at both ends"
        )
    # [b, c] brackets the crossing, b has the smaller |f|, a is the previous b
    c, fc = a, fa
    step = previous = b - a
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            step = previous = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        # zeroin's tol1, in the parameter's units: no step below the float
        # spacing at b, so any tol ends
        vb, vc = value(b), value(c)
        min_step = max(0.5 * tol, 2.0 * math.ulp(1.0) * abs(vb), math.ulp(0.0))
        if abs(vc - vb) <= 2.0 * min_step:
            return 0.5 * (vb + vc)
        # the step floor in u, by the bracket's du/dv (exactly 1 unless square)
        min_du = min_step * ((c - b) / (vc - vb))
        half = 0.5 * (c - b)
        if abs(previous) >= min_du and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * half * q - abs(min_du * q), abs(previous * q)):
                previous, step = step, p / q
            else:
                previous = step = half
        else:
            previous = step = half
        a, fa = b, fb
        b = b + step if abs(step) > min_du else coord(vb + math.copysign(min_step, half))
        (fb,) = signed(value(b))


@dataclass(frozen=True)
class FeasibilityInput:
    """Physical platform parameters (angular frequencies in rad/s, tau in s, T in K).

    Exactly one of gamma (mechanical damping rate) or Q (quality factor,
    gamma = omega_m / Q) must be provided; every value given must be finite
    and > 0.
    """

    omega_m: float
    kappa: float
    g: float
    tau: float
    T: float
    gamma: float = None
    Q: float = None

    def __post_init__(self):
        for name in ("omega_m", "kappa", "g", "tau", "T", "gamma", "Q"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name}={value} must be finite and > 0")
        if (self.gamma is None) == (self.Q is None):
            raise ValueError("provide exactly one of gamma or Q")
        if not 0.0 < self.damping_rate < math.inf:
            raise ValueError(f"mechanical damping {self.damping_rate} must be finite and > 0")

    @property
    def damping_rate(self):
        return self.gamma if self.gamma is not None else self.omega_m / self.Q


@dataclass(frozen=True)
class FeasibilityReport:
    """Derived operating point and regime flags for a physical platform."""

    G: float
    x: float
    y_G: float
    y_Gprime: float
    N_th: float
    suppression: float
    decoherence_time: float
    resolved_sideband: bool
    adiabatic: bool
    detectable: bool
    notes: tuple


RATIO_THRESHOLD = 5.0
DETECTABLE_LIMIT = 0.2


def feasibility(params):
    """Derive the channel operating point from physical platform parameters.

    Outputs: adiabatic coupling G = g^2 / kappa; damping ratio x = gamma / G;
    coupling parameters y_G = e^{-G tau} and y_G' = e^{-(G + gamma) tau};
    bath occupation N_th from the Bose-Einstein distribution at (omega_m, T);
    counter-rotating suppression (kappa / omega_m)^2; thermal decoherence time
    1 / (N_th gamma).  Regime flags use RATIO_THRESHOLD (5x) for the "much
    greater than" conditions and DETECTABLE_LIMIT (0.2) for N_th * x.

    A bath so cold that hbar omega_m / (k_B T) overflows expm1, or k_B T
    underflows, has N_th = exp(-hbar omega_m / (k_B T)), 0.0 once that
    underflows, and a decoherence time of inf when N_th gamma is 0.0.  Where
    hbar omega_m underflows to 0, N_th is inf (and the decoherence time 0.0);
    where (kappa / omega_m)^2 overflows, the suppression is inf.  A G outside
    the float range raises ValueError.
    """
    gamma = params.damping_rate
    try:
        G = params.g**2 / params.kappa
    except OverflowError:
        G = math.inf
    if not 0.0 < G < math.inf:
        raise ValueError(
            f"G = g^2/kappa = {G} is outside the float range for g={params.g}, "
            f"kappa={params.kappa}"
        )
    x = gamma / G
    y_G = math.exp(-G * params.tau)
    y_Gprime = math.exp(-(G + gamma) * params.tau)
    thermal_energy = KB * params.T
    z = HBAR * params.omega_m / thermal_energy if thermal_energy else math.inf
    try:
        N_th = 1.0 / math.expm1(z)
    except ZeroDivisionError:  # hbar omega_m underflows to z = 0
        N_th = math.inf
    except OverflowError:  # z > ln(DBL_MAX), where 1/expm1(z) = exp(-z) in doubles
        N_th = math.exp(-z)
    try:
        suppression = (params.kappa / params.omega_m) ** 2
    except OverflowError:
        suppression = math.inf
    rate = N_th * gamma
    decoherence_time = 1.0 / rate if rate else math.inf
    notes = (
        f"pulse duration tau = {params.tau:.6g} s gives y_G = {y_G:.4g}; "
        f"y_G = 0.1 would require tau = {math.log(10.0) / G:.4g} s",
    )
    return FeasibilityReport(
        G=G,
        x=x,
        y_G=y_G,
        y_Gprime=y_Gprime,
        N_th=N_th,
        suppression=suppression,
        decoherence_time=decoherence_time,
        resolved_sideband=params.omega_m >= RATIO_THRESHOLD * params.kappa,
        adiabatic=params.kappa >= RATIO_THRESHOLD * params.g,
        detectable=N_th * x <= DETECTABLE_LIMIT,
        notes=notes,
    )


TWO_PI = 2.0 * math.pi

FEASIBILITY_PRESETS = {
    # Silicon nanobeam: GHz mechanics, sideband-resolved microwave-rate cavity.
    "nanobeam": FeasibilityInput(
        omega_m=TWO_PI * 3.7e9,
        kappa=TWO_PI * 500e6,
        g=TWO_PI * 40e6,
        gamma=TWO_PI * 35e3,
        tau=100e-9,
        T=2.0,
    ),
    # Trampoline membrane: kHz mechanics, very high Q, millikelvin bath.
    "trampoline": FeasibilityInput(
        omega_m=TWO_PI * 10e3,
        kappa=TWO_PI * 1.5e3,
        g=TWO_PI * math.sqrt(200.0 * 1500.0),
        Q=1e6,
        tau=1.83e-3,
        T=1e-3,
    ),
}
