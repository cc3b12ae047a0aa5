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


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete parameter set for one pipeline evaluation.

    Attributes
    ----------
    r : float
        Input squeezing (gaussian engine input strength), >= 0.
    N_D : float
        Macroscopic displacement photon number |alpha|^2, >= 0.
    y : float
        Storage/retrieval coupling parameter e^{-G' tau}, in (0, 1]; small y
        means (nearly) complete write-in and read-out.
    x : float
        Mechanical damping ratio gamma/G, >= 0.
    N_in : float
        Initial mechanical occupation, >= 0.
    N_th : float
        Mechanical bath occupation, >= 0.
    sigma : float
        Phase-noise standard deviation in radians, >= 0.
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
        Retained Fock levels per mode (fock engine only).
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
        if self.r < 0:
            raise ValueError(f"squeezing r={self.r} must be >= 0")
        if self.N_D < 0:
            raise ValueError(f"displacement photon number N_D={self.N_D} must be >= 0")
        if not 0.0 < self.y <= 1.0:
            raise ValueError(f"coupling parameter y={self.y} outside (0, 1]")
        if self.x < 0:
            raise ValueError(f"damping ratio x={self.x} must be >= 0")
        if self.N_in < 0 or self.N_th < 0:
            raise ValueError("occupations N_in, N_th must be >= 0")
        if self.sigma < 0:
            raise ValueError(f"phase-noise sigma={self.sigma} must be >= 0")
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

    Unknown keys raise KeyError; numeric fields accept anything float()/int()
    accepts.
    """
    values = config_to_mapping(base if base is not None else ProtocolConfig())
    for key, raw in mapping.items():
        if key in _FLOAT_FIELDS:
            values[key] = float(raw)
        elif key in _INT_FIELDS:
            values[key] = int(str(raw))
        elif key in _STR_FIELDS:
            values[key] = str(raw).strip()
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
    """Outcome of one gaussian-engine pipeline run."""

    log_negativity: float
    nu_min: float
    output_state: ga.GaussianTwoModeState
    mean_residual: float


@dataclass(frozen=True)
class FockProtocolResult:
    """Outcome of one fock-engine pipeline run."""

    concurrence: float
    projection_probability: float
    leakage: float


def run_gaussian_protocol(config, undisplacement="propagated"):
    """Run the covariance-matrix pipeline and quantify output entanglement.

    Order: squeezed input -> displace A by sqrt(N_D) -> loss eta1 on A ->
    storage/retrieval channel -> phase noise on A -> loss eta2 on A ->
    undisplacement (mean shift only) -> loss eta_c on C -> log-negativity.

    Parameters
    ----------
    config : ProtocolConfig
        Must have engine == "gaussian".
    undisplacement : str
        "propagated" (default) removes the exact propagated mean, so
        mean_residual == 0 by construction; "nominal" displaces back by the
        loss-free retrieved amplitude (1 - y^2) sqrt(N_D), leaving the
        residual caused by eta1, eta2 and mechanical damping visible.
    """
    if config.engine != "gaussian":
        raise ValueError(f"gaussian pipeline called with engine={config.engine!r}")
    if undisplacement not in ("propagated", "nominal"):
        raise ValueError(f"unknown undisplacement mode {undisplacement!r}")
    coeffs = ga.channel_coefficients(config.x, config.y)
    state = ga.tmsv_state(config.r)
    state = ga.displace(state, "A", math.sqrt(config.N_D))
    state = ga.loss_channel(state, "A", config.eta1)
    state = ga.storage_retrieval_channel(state, coeffs, config.N_in, config.N_th)
    amp_sq = phase_noise_amplitude_sq(config, coeffs)
    state = ga.phase_noise(state, config.sigma, amp_sq, mode="A")
    state = ga.loss_channel(state, "A", config.eta2)
    if undisplacement == "propagated":
        back = -complex(state.mean[0], state.mean[1]) / math.sqrt(2.0)
    else:
        back = complex((1.0 - config.y**2) * math.sqrt(config.N_D), 0.0)
    state = ga.displace(state, "A", back)
    state = ga.loss_channel(state, "C", config.eta_c)
    nu_min = ga.ppt_minimum_eigenvalue(state)
    return GaussianProtocolResult(
        log_negativity=ga.log_negativity(state),
        nu_min=nu_min,
        output_state=state,
        mean_residual=float(np.hypot(state.mean[0], state.mean[1])),
    )


def run_fock_protocol(config):
    """Run the truncated density-matrix pipeline and compute the concurrence.

    Works in the displaced frame: the input is the alpha = 0 single-photon
    path-entangled state and N_D enters only through the phase-noise variance
    2 |alpha_eff|^2 sigma^2.  Order matches the gaussian engine; the
    undisplacement is the identity in this frame.

    ``leakage`` is the truncation error measured on the computed state after
    the phase noise: the trace the storage channel's amplifier pushed past the
    cutoff plus mode A's weight in its top level.  Above LEAKAGE_WARN it is
    reported as a TruncationWarning.
    """
    if config.engine != "fock":
        raise ValueError(f"fock pipeline called with engine={config.engine!r}")
    dims = (config.fock_dims, config.fock_dims)
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
    return FockProtocolResult(
        concurrence=fk.concurrence(qubits),
        projection_probability=qubits.projection_probability,
        leakage=leakage,
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
    """Bisect for the parameter value where the entanglement metric reaches zero.

    The metric must be positive at one bracket end and zero (< 1e-12) at the
    other; the bisection narrows the bracket to width `tol` and returns its
    midpoint.  Deterministic: no randomness, fixed iteration pattern.

    Raises
    ------
    ValueError
        If the metric has the same signedness at both bracket ends.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError(f"bracket [{lo}, {hi}] must be increasing")

    def entangled(value):
        probe = dataclasses.replace(config, **{parameter: value})
        return entanglement_metric(probe) > ZERO_METRIC_TOL

    lo_ent = entangled(lo)
    hi_ent = entangled(hi)
    if lo_ent == hi_ent:
        state = "positive" if lo_ent else "zero"
        raise ValueError(
            f"no entanglement threshold in [{lo}, {hi}]: metric is {state} at both ends"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if entangled(mid) == lo_ent:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
