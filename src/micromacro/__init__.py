"""Micro-macro entanglement pipeline: Gaussian and Fock engines, sweeps, CLI.

A light mode entangled with a companion is displaced to macroscopic amplitude,
stored in and retrieved from a mechanical oscillator, displaced back, and the
surviving entanglement is quantified — by log-negativity on covariance
matrices (gaussian engine, exact at any displacement) or by the concurrence of
the projected qubit pair on truncated density matrices (fock engine).
"""

from .gaussian import (
    ChannelCoefficients,
    GaussianTwoModeState,
    channel_coefficients,
    component_variance,
    displace,
    log_negativity,
    loss_channel,
    phase_noise,
    physicality_check,
    ppt_minimum_eigenvalue,
    storage_retrieval_channel,
    symplectic_eigenvalues,
    tmsv_state,
    vacuum_state,
)
from .fock import (
    FockDensityMatrix,
    TruncationWarning,
    TwoQubitState,
    concurrence,
    displacement_matrix,
    linear_channel_apply,
    phase_noise_average,
    pure_loss_channel,
    quadrature_moments,
    qubit_project,
    single_photon_entangled_input,
    thermal_state,
    two_mode_squeezed_state,
)
from .protocol import (
    FeasibilityInput,
    FeasibilityReport,
    FockProtocolResult,
    GaussianProtocolResult,
    ProtocolConfig,
    FEASIBILITY_PRESETS,
    entanglement_metric,
    feasibility,
    find_threshold,
    run_fock_protocol,
    run_gaussian_protocol,
)
from .sweep import AxisSpec, SweepSpec, linear_grid, log_grid, preset, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "ChannelCoefficients",
    "FEASIBILITY_PRESETS",
    "FeasibilityInput",
    "FeasibilityReport",
    "FockDensityMatrix",
    "FockProtocolResult",
    "GaussianProtocolResult",
    "GaussianTwoModeState",
    "ProtocolConfig",
    "SweepSpec",
    "TruncationWarning",
    "TwoQubitState",
    "channel_coefficients",
    "component_variance",
    "concurrence",
    "displace",
    "displacement_matrix",
    "entanglement_metric",
    "feasibility",
    "find_threshold",
    "linear_channel_apply",
    "linear_grid",
    "log_grid",
    "log_negativity",
    "loss_channel",
    "phase_noise",
    "phase_noise_average",
    "physicality_check",
    "ppt_minimum_eigenvalue",
    "preset",
    "pure_loss_channel",
    "quadrature_moments",
    "qubit_project",
    "run_fock_protocol",
    "run_gaussian_protocol",
    "run_sweep",
    "single_photon_entangled_input",
    "storage_retrieval_channel",
    "symplectic_eigenvalues",
    "thermal_state",
    "tmsv_state",
    "two_mode_squeezed_state",
    "vacuum_state",
]
