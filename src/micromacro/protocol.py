"""End-to-end protocol pipeline, threshold finding and feasibility arithmetic.

The pipeline prepares micro-macro entanglement by displacing one arm of an
entangled state by a macroscopic amplitude (N_D photons), storing that bright
mode in a mechanical oscillator and retrieving it, undoing the displacement,
and quantifying the surviving entanglement.  Two engines implement it:

* ``gaussian`` — two-mode squeezed vacuum input, covariance-matrix evolution,
  log-negativity output (exact at any N_D);
* ``fock`` — displaced single-photon path-entangled input evaluated in the
  displaced frame, truncated density-matrix evolution, Wootters concurrence of
  the light-light state after projecting onto the {vacuum, one-photon} qubit
  subspace.

In both engines the macroscopic displacement is handled analytically: it never
touches the simulated state directly and enters only through the phase-noise
variance picked up by the bright beam, proportional to N_D sigma^2.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fock as fk
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
        Input squeezing (gaussian engine input strength), finite, >= 0.
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
    fock_dims : int
        Retained Fock levels of mode A (fock engine only).  Mode C keeps two
        levels: only loss acts on it, so it never holds more than one photon.
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
    fock_dims: int = 16

    def __post_init__(self):
        # chained comparisons: NaN fails every one of them, so it is rejected too
        if not 0.0 <= self.r < math.inf:
            raise ValueError(f"squeezing r={self.r} must be finite and >= 0")
        if not 0.0 <= self.N_D < math.inf:
            raise ValueError(f"displacement photon number N_D={self.N_D} must be finite and >= 0")
        if not 0.0 < self.y <= 1.0:
            raise ValueError(f"coupling parameter y={self.y} outside (0, 1]")
        if not 0.0 <= self.x < math.inf:
            raise ValueError(f"damping ratio x={self.x} must be finite and >= 0")
        if not 0.0 <= self.N_in < math.inf:
            raise ValueError(f"initial occupation N_in={self.N_in} must be finite and >= 0")
        if not 0.0 <= self.N_th < math.inf:
            raise ValueError(f"bath occupation N_th={self.N_th} must be finite and >= 0")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"phase-noise sigma={self.sigma} must be finite and >= 0")
        for name in ("eta1", "eta2", "eta_c"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"transmission {name}={value} outside [0, 1]")
        if self.engine not in ENGINES:
            raise ValueError(f"engine {self.engine!r} not one of {ENGINES}")
        if self.phase_noise_convention not in PHASE_NOISE_CONVENTIONS:
            raise ValueError(
                f"phase_noise_convention {self.phase_noise_convention!r} "
                f"not one of {PHASE_NOISE_CONVENTIONS}"
            )
        object.__setattr__(self, "fock_dims", _integer("fock_dims", self.fock_dims))
        if self.fock_dims < 2:
            raise ValueError(f"fock_dims={self.fock_dims} must be >= 2")


def _integer(name, value):
    """`value` as an int; ValueError if it is not integral."""
    if not float(value).is_integer():
        raise ValueError(f"{name}={value} must be an integer")
    return int(value)


_FLOAT_FIELDS = (
    "r", "N_D", "y", "x", "N_in", "N_th", "sigma", "eta1", "eta2", "eta_c",
)
_INT_FIELDS = ("fock_dims",)
_STR_FIELDS = ("engine", "phase_noise_convention")
CONFIG_FIELDS = _FLOAT_FIELDS + _STR_FIELDS + _INT_FIELDS


def config_to_mapping(config):
    """Flat name -> value mapping of a config, field names as in ProtocolConfig."""
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}


def config_from_mapping(mapping, base=None):
    """Build a ProtocolConfig from string-or-native values over an optional base.

    Unknown keys raise KeyError; numeric fields accept anything float()
    accepts, and ProtocolConfig rejects a non-integral ``fock_dims``.
    """
    values = config_to_mapping(base if base is not None else ProtocolConfig())
    for key, raw in mapping.items():
        if key in _STR_FIELDS:
            values[key] = str(raw).strip()
        elif key in CONFIG_FIELDS:
            values[key] = float(raw)
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


@dataclass(frozen=True)
class GaussianProtocolResult:
    """Outcome of one gaussian-engine pipeline run, or of a batch of runs.

    For a batch every field is an array with one entry per config, and
    ``output_state`` is the batch of output states.
    """

    log_negativity: float
    nu_min: float
    output_state: ga.GaussianTwoModeState
    mean_residual: float


@dataclass(frozen=True)
class FockProtocolResult:
    """Outcome of one fock-engine pipeline run.

    ``witness`` is the unclamped Wootters difference of the projected qubit
    pair, negative on the separable side; ``concurrence`` is max(0, witness).
    """

    concurrence: float
    projection_probability: float
    leakage: float
    witness: float


def run_gaussian_protocol(config, undisplacement="propagated"):
    """Run the covariance-matrix pipeline and quantify output entanglement.

    Order: squeezed input -> displace A by sqrt(N_D) -> loss eta1 on A ->
    storage/retrieval channel -> phase noise on A -> loss eta2 on A ->
    undisplacement (mean shift only) -> loss eta_c on C -> log-negativity.

    Parameters
    ----------
    config : ProtocolConfig or sequence of ProtocolConfig
        Each must have engine == "gaussian".  A sequence runs as one batch
        through the batched Gaussian operations and gives a result whose
        fields are arrays, one entry per config; each entry is bit-identical
        to that config run alone, which is the batch of size 1.
    undisplacement : str
        "propagated" (default) removes the exact propagated mean, so
        mean_residual == 0 by construction; "nominal" displaces back by the
        loss-free retrieved amplitude (1 - y^2) sqrt(N_D), leaving the
        residual caused by eta1, eta2 and mechanical damping visible.
    """
    single = isinstance(config, ProtocolConfig)
    configs = [config] if single else list(config)
    if not configs:
        raise ValueError("no configs to evaluate")
    for c in configs:
        if c.engine != "gaussian":
            raise ValueError(f"gaussian pipeline called with engine={c.engine!r}")
    if undisplacement not in ("propagated", "nominal"):
        raise ValueError(f"unknown undisplacement mode {undisplacement!r}")

    r, n_d, eta1, n_in, n_th, sigma, eta2, eta_c = np.array(
        [(c.r, c.N_D, c.eta1, c.N_in, c.N_th, c.sigma, c.eta2, c.eta_c) for c in configs]
    ).T
    coeffs = [ga.channel_coefficients(c.x, c.y) for c in configs]
    state = ga.tmsv_state(r)
    state = ga.displace(state, "A", np.sqrt(n_d))
    state = ga.loss_channel(state, "A", eta1)
    state = ga.storage_retrieval_channel(state, coeffs, n_in, n_th)
    amp_sq = [phase_noise_amplitude_sq(c, k) for c, k in zip(configs, coeffs)]
    state = ga.phase_noise(state, sigma, amp_sq, mode="A")
    state = ga.loss_channel(state, "A", eta2)
    if undisplacement == "propagated":
        # real division per quadrature (NumPy's complex division multiplies
        # by the reciprocal, which rounds differently)
        back = (-state.mean[:, 0:2] / math.sqrt(2.0)).view(complex)[:, 0]
    else:
        back = np.array([(1.0 - c.y**2) * math.sqrt(c.N_D) for c in configs])
    state = ga.displace(state, "A", back)
    state = ga.loss_channel(state, "C", eta_c)
    nu_min = ga.ppt_minimum_eigenvalue(state)
    log_negativity = ga.negativity_from_nu(nu_min)
    mean_residual = np.hypot(state.mean[:, 0], state.mean[:, 1])
    if single:
        return GaussianProtocolResult(
            log_negativity=float(log_negativity[0]),
            nu_min=float(nu_min[0]),
            output_state=state.point(0),
            mean_residual=float(mean_residual[0]),
        )
    return GaussianProtocolResult(log_negativity, nu_min, state, mean_residual)


def run_fock_protocol(config):
    """Run the truncated density-matrix pipeline and compute the concurrence.

    Works in the displaced frame: the input is the alpha = 0 single-photon
    path-entangled state and N_D enters only through the phase-noise variance
    2 |alpha_eff|^2 sigma^2.  Order matches the gaussian engine; the
    undisplacement is the identity in this frame.  Mode A keeps
    ``config.fock_dims`` levels and mode C two: only loss acts on C, so it
    never holds more than the input's one photon; concurrence and projection
    probability are bit for bit those of a square cutoff.

    ``leakage`` is the truncation error measured on the computed state after
    the phase noise: the trace the storage channel's amplifier pushed past the
    cutoff plus mode A's weight in its top level.  Above LEAKAGE_WARN it is
    reported as a TruncationWarning.
    """
    if config.engine != "fock":
        raise ValueError(f"fock pipeline called with engine={config.engine!r}")
    dims = (config.fock_dims, 2)
    coeffs = ga.channel_coefficients(config.x, config.y)

    rho = fk.single_photon_entangled_input(0.0, dims)
    rho = fk.pure_loss_channel(rho, 0, config.eta1)
    rho = fk.linear_channel_apply(rho, coeffs, config.N_in, config.N_th)
    variance = 2.0 * phase_noise_amplitude_sq(config, coeffs) * config.sigma**2
    rho = fk.phase_noise_average(rho, variance, 0)
    leakage = fk.truncation_error(rho)
    if leakage > fk.LEAKAGE_WARN:
        warnings.warn(
            f"fock state loses {leakage:.3g} of its weight past "
            f"{config.fock_dims} levels",
            fk.TruncationWarning,
            stacklevel=2,
        )
    rho = fk.pure_loss_channel(rho, 0, config.eta2)
    rho = fk.pure_loss_channel(rho, 1, config.eta_c)
    qubits = fk.qubit_project(rho)
    witness = fk.wootters_difference(qubits)
    return FockProtocolResult(
        concurrence=max(0.0, witness),
        projection_probability=qubits.projection_probability,
        leakage=leakage,
        witness=witness,
    )


def entanglement_metric(config):
    """Scalar entanglement figure of merit for the configured engine.

    Log-negativity for the gaussian engine, concurrence of the projected qubit
    pair for the fock engine.  Both are exactly zero for separable outputs.
    """
    if config.engine == "gaussian":
        return run_gaussian_protocol(config).log_negativity
    return run_fock_protocol(config).concurrence


def find_threshold(config, parameter, bracket, tol=1e-5):
    """Find the parameter value where the entanglement metric reaches zero.

    The metric must be positive (> ZERO_METRIC_TOL) at one bracket end and
    zero at the other.  Brent's method (zeroin: Brent, "Algorithms for
    Minimization without Derivatives", 1973, ch. 4) keeps a bracket whose ends
    have opposite verdicts and shrinks it by secant, inverse quadratic
    interpolation or bisection steps until it is at most `tol` wide, then
    returns its midpoint, which lies within tol/2 of the crossing.  Each
    probe's sign is its verdict; the magnitude, which only sets the step, is
    the engine's signed witness from the same run where it agrees with the
    verdict, and a tiny positive number where it does not: the PPT witness
    of the gaussian output covariance (gaussian.ppt_witness) or the fock
    engine's unclamped Wootters difference.  The gaussian witness is linear
    in N_D, so an N_D search converges after one secant step.
    Deterministic: no randomness, fixed iteration pattern.

    Raises
    ------
    ValueError
        If the metric has the same signedness at both bracket ends.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError(f"bracket [{lo}, {hi}] must be increasing")

    def signed(value):
        probe = dataclasses.replace(config, **{parameter: value})
        if probe.engine == "gaussian":
            result = run_gaussian_protocol(probe)
            entangled = result.log_negativity > ZERO_METRIC_TOL
            witness = ga.ppt_witness(result.output_state)
        else:
            result = run_fock_protocol(probe)
            entangled = result.concurrence > ZERO_METRIC_TOL
            witness = result.witness
        magnitude = max(witness if entangled else -witness, _TINY)
        return magnitude if entangled else -magnitude

    a, fa = lo, signed(lo)
    b, fb = hi, signed(hi)
    if (fa > 0) == (fb > 0):
        state = "positive" if fa > 0 else "zero"
        raise ValueError(
            f"no entanglement threshold in [{lo}, {hi}]: metric is {state} at both ends"
        )
    # [b, c] brackets the crossing, b has the smaller |f|, a is the previous b
    c, fc = a, fa
    step = previous = b - a
    min_step = 0.5 * tol
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            step = previous = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if abs(c - b) <= tol:
            return 0.5 * (b + c)
        half = 0.5 * (c - b)
        if abs(previous) >= min_step and abs(fa) > abs(fb):
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
            if 2.0 * p < min(3.0 * half * q - abs(min_step * q), abs(previous * q)):
                previous, step = step, p / q
            else:
                previous = step = half
        else:
            previous = step = half
        a, fa = b, fb
        b += step if abs(step) > min_step else math.copysign(min_step, half)
        fb = signed(b)


@dataclass(frozen=True)
class FeasibilityInput:
    """Physical platform parameters (angular frequencies in rad/s, tau in s, T in K).

    Exactly one of gamma (mechanical damping rate) or Q (quality factor,
    gamma = omega_m / Q) must be provided.
    """

    omega_m: float
    kappa: float
    g: float
    tau: float
    T: float
    gamma: float = None
    Q: float = None

    def __post_init__(self):
        for name in ("omega_m", "kappa", "g", "tau", "T"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name}={value} must be > 0")
        if (self.gamma is None) == (self.Q is None):
            raise ValueError("provide exactly one of gamma or Q")
        rate = self.gamma if self.gamma is not None else self.omega_m / self.Q
        if not rate > 0:
            raise ValueError(f"mechanical damping {rate} must be > 0")

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
    """
    gamma = params.damping_rate
    G = params.g**2 / params.kappa
    x = gamma / G
    y_G = math.exp(-G * params.tau)
    y_Gprime = math.exp(-(G + gamma) * params.tau)
    N_th = 1.0 / math.expm1(HBAR * params.omega_m / (KB * params.T))
    suppression = (params.kappa / params.omega_m) ** 2
    decoherence_time = 1.0 / (N_th * gamma)
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
