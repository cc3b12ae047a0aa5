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

Both engines evaluate in the displaced frame and run mode A's stages from
one list of per-stage terms (``_mode_a_stages``).  The macroscopic
displacement never touches the simulated state and enters only through the
phase-noise variance picked up by the bright beam, proportional to
N_D sigma^2.  ``entanglement_metric``, ``find_threshold`` and sweeps reach
the engines through one dispatch, ``_evaluate``.

Both engines compose the per-point terms of :mod:`micromacro.channel`, which
needs no NumPy.  Each engine runner imports NumPy and its engine module when
it runs, so configs, feasibility and threshold bookkeeping load neither, and
a gaussian run never loads the fock engine.
"""

from __future__ import annotations

import dataclasses
import math
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
    first field that fails.  Sweeps and threshold searches build their many
    configs from one valid config instead: each new value passes its field's
    check once (``_checked``), and ``_derived`` copies the valid config with
    the checked values, running no check.  A derived config equals the
    constructed one field for field, under ``==`` and ``hash`` too.
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


def _derived(config, changes):
    """`config` with the fields in `changes` replaced, without running a check.

    The unchecked counterpart of dataclasses.replace: `config` must be valid
    and every changed value must have passed `_checked`, so the result equals
    the constructor's config for the same fields.
    """
    derived = object.__new__(ProtocolConfig)
    derived.__dict__.update(config.__dict__)
    derived.__dict__.update(changes)
    return derived


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
    if config.phase_noise_convention == "paper_literal":
        return config.N_D * (1.0 - config.y**2) ** 2
    return config.eta1 * coeffs.c1**2 * config.N_D


def _mode_a_stages(config, coeffs):
    """Mode A's stages, loss eta1, storage channel with the phase noise that
    follows it, and loss eta2, as per-point (amplitude, power, added, jitter):
    X -> amplitude X, a variance v -> power v + added, plus jitter on P's."""
    variance = ch._phase_variance(config.sigma, phase_noise_amplitude_sq(config, coeffs))
    return (
        (*ch._loss_terms(config.eta1), 0.0),
        (*ch._storage_terms(coeffs, config.N_in, config.N_th), variance),
        (*ch._loss_terms(config.eta2), 0.0),
    )


@dataclass(frozen=True)
class GaussianProtocolResult:
    """Outcome of one gaussian-engine pipeline run, or of a batch of runs.

    For a batch every field is an array with one entry per config, and
    ``output_state`` is the batch of output states.  The output state is in
    the displaced frame, so its mean is zero.  ``witness`` is the signed,
    unclamped PPT witness of the output covariance (gaussian.ppt_witness).
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


def run_gaussian_protocol(config):
    """Run the covariance-matrix pipeline and quantify output entanglement.

    Order: squeezed input -> loss eta1 on A -> storage/retrieval channel ->
    phase noise on A -> loss eta2 on A -> loss eta_c on C -> log-negativity.
    The state is followed in the displaced frame: every stage is a Gaussian
    channel, covariant under displacement (Weedbrook et al., RMP 84, 621
    (2012)), so displacing A by sqrt(N_D) and back leaves the covariance as
    it is and N_D enters only through the phase-noise variance.  The output
    mean is zero.

    Parameters
    ----------
    config : ProtocolConfig or sequence of ProtocolConfig
        Each must have engine == "gaussian".  A sequence runs as one batch,
        the only batched Gaussian path, and gives a result whose fields are
        arrays, one entry per config; each entry is bit-identical to that
        config run alone, which is the batch of size 1.

    Every stage on mode A acts on each quadrature separately and mode C only
    sees loss, so the covariance keeps the form [[a_x, 0, k_x, 0],
    [0, a_p, 0, k_p], [k_x, 0, b, 0], [0, k_p, 0, b]].  Each config propagates
    these five Python floats with the per-point helpers of the public
    operations, by the same IEEE operations in the same order as their 4x4
    arithmetic, whose other entries only ever multiply or add zeros.  The
    batch's covariances are then read out by the same determinants, and each
    config's (Sigma, det V) pair, as Python floats, by the public operations'
    per-point readout ``channel._ppt_readout``.  So every field is bit for bit
    what the composed public operations give, signed zeros of the covariance
    included.
    """
    import numpy as np

    from . import gaussian as ga

    single = isinstance(config, ProtocolConfig)
    configs = [config] if single else list(config)
    if not configs:
        raise ValueError("no configs to evaluate")
    for c in configs:
        if c.engine != "gaussian":
            raise ValueError(f"gaussian pipeline called with engine={c.engine!r}")

    channels = {}  # one channel_coefficients call per distinct (x, y)
    covs = []
    for c in configs:
        coeffs = channels.get((c.x, c.y))
        if coeffs is None:
            coeffs = channels[c.x, c.y] = ch.channel_coefficients(c.x, c.y)
        # a stage at eta = 1 or without noise leaves every entry bit for bit
        # as it is (1 a + 0 = a, 1 k = k), so none is skipped
        d, k = ch._tmsv_entries(c.r)
        a_x = a_p = b = d
        k_x, k_p = k, 0.0 - k
        for amplitude, power, added, jitter in _mode_a_stages(c, coeffs):
            a_x, a_p = power * a_x + added, power * a_p + added + jitter
            k_x, k_p = k_x * amplitude, k_p * amplitude
        amplitude, power, added = ch._loss_terms(c.eta_c)
        b, k_x, k_p = power * b + added, k_x * amplitude, k_p * amplitude
        # the zeros carry the 4x4 operations' signs: the storage channel's
        # -c1 makes the cross-blocks' zeros -0.0
        covs.append(
            (a_x, 0.0, k_x, -0.0, 0.0, a_p, -0.0, k_p, k_x, -0.0, b, 0.0, -0.0, k_p, 0.0, b)
        )
    cov = np.array(covs).reshape(-1, 4, 4)
    # valid configs: only an overflow can make an entry non-finite
    state = ga._finite(np.zeros(cov.shape[:-1]), cov)
    total, det_v = ga._ppt_minors(cov)
    nu_min, witness, log_negativity = zip(
        *map(ch._ppt_readout, total.tolist(), det_v.tolist())
    )
    if single:
        return GaussianProtocolResult(
            log_negativity[0], nu_min[0], ga._frozen(state.mean[0], cov[0]), witness[0]
        )
    return GaussianProtocolResult(
        np.array(log_negativity), np.array(nu_min), state, np.array(witness)
    )


def _pair_terms(t, n_x, n_p):
    """The README's c and pair terms (P01, P23, P02 = P13, P03 = P12, P4) of the
    channel X -> t X, P -> t P that adds noise variances n_x and n_p."""
    a_x = (1.0 + t * t) / 2.0 + n_x
    a_p = (1.0 + t * t) / 2.0 + n_p
    p, q = 1.0 / (4.0 * a_p), 1.0 / (4.0 * a_x)
    p01, p23 = 1.0 - 2.0 * t * t * (p + q), 1.0 - 2.0 * (p + q)
    p02, p03 = 2.0 * t * (p + q), 2.0 * t * (q - p)
    return 1.0 / math.sqrt(a_x * a_p), p01, p23, p02, p03, p01 * p23 + p02 * p02 + p03 * p03


def _qubit_block(config):
    """The output's unnormalized {0,1}^2 block over |a c> = 00, 01, 10, 11, an
    X-state: each entry is two products of pair terms, P's of A's composed
    channel and Q's of C's loss (README, "The Fock engine's closed form")."""
    coeffs = ch.channel_coefficients(config.x, config.y)
    gain, n_x, n_p = 1.0, 0.0, 0.0
    for amplitude, power, added, jitter in _mode_a_stages(config, coeffs):
        gain, n_x, n_p = gain * amplitude, power * n_x + added, power * n_p + added + jitter
    amplitude, _, added = ch._loss_terms(config.eta_c)
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
    undisplacement is the identity.  `_mode_a_stages` compose into one
    Gaussian channel (gain t, added noise n_x and n_p) and C is pure loss, so
    `_qubit_block` gives the output's {0,1}^2 block exactly;
    fock.qubit_project reads its weight and renormalizes it.  The witness is
    2 max(|rho_23| - sqrt(rho_11 rho_44), |rho_14| - sqrt(rho_22 rho_33)) of
    that X-state (Yu & Eberly), its roots clamped by channel._clamped_sqrt.
    """
    from . import fock as fk

    if config.engine != "fock":
        raise ValueError(f"fock pipeline called with engine={config.engine!r}")
    qubits = fk.qubit_project(fk.FockDensityMatrix((2, 2), _qubit_block(config)))
    rho = qubits.matrix.real.tolist()
    witness = 2.0 * max(
        abs(rho[1][2]) - ch._clamped_sqrt(rho[0][0] * rho[3][3], 1.0),
        abs(rho[0][3]) - ch._clamped_sqrt(rho[1][1] * rho[2][2], 1.0),
    )
    return FockProtocolResult(max(0.0, witness), qubits.projection_probability, witness)


def _evaluate(configs):
    """Each config's (metric, witness), from the engine of the first config:
    gaussian configs run as one batch, fock configs one at a time.  A config
    of another engine is rejected by that engine's pipeline."""
    if configs[0].engine == "gaussian":
        batch = run_gaussian_protocol(configs)
        return list(zip(batch.log_negativity.tolist(), batch.witness.tolist()))
    return [(r.concurrence, r.witness) for r in map(run_fock_protocol, configs)]


def entanglement_metric(config):
    """Scalar entanglement figure of merit for the configured engine.

    Log-negativity for the gaussian engine, concurrence of the projected qubit
    pair for the fock engine.  Both are exactly zero for separable outputs.
    """
    return _evaluate([config])[0][0]


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
    two bracket ends run as one gaussian batch, bit-identical to two single
    runs.  Each probe's config is derived from `config` (ProtocolConfig's
    ``_derived``) after its value passes the parameter's field check, so a
    bracket end outside the field's domain raises ProtocolConfig's
    ValueError.  Deterministic: no randomness, fixed iteration pattern.

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

    def coord(v):
        return v * v if square else v

    def value(u):
        return math.sqrt(u) if square else u

    def signed(*values):
        out = []
        for metric, witness in _evaluate(
            [_derived(config, {parameter: _checked(parameter, v)}) for v in values]
        ):
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
    ratio_threshold: float
    notes: tuple


def feasibility(params, ratio_threshold=5.0, detectable_limit=0.2):
    """Derive the channel operating point from physical platform parameters.

    Outputs: adiabatic coupling G = g^2 / kappa; damping ratio x = gamma / G;
    coupling parameters y_G = e^{-G tau} and y_G' = e^{-(G + gamma) tau};
    bath occupation N_th from the Bose-Einstein distribution at (omega_m, T);
    counter-rotating suppression (kappa / omega_m)^2; thermal decoherence time
    1 / (N_th gamma).  Regime flags use ratio_threshold (default 5x) for the
    "much greater than" conditions and detectable_limit (default 0.2) for
    N_th * x.

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
        resolved_sideband=params.omega_m >= ratio_threshold * params.kappa,
        adiabatic=params.kappa >= ratio_threshold * params.g,
        detectable=N_th * x <= detectable_limit,
        ratio_threshold=ratio_threshold,
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
