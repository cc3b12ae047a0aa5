"""Micro-macro entanglement pipeline: Gaussian and Fock engines, sweeps, CLI.

A light mode entangled with a companion is displaced to macroscopic amplitude,
stored in and retrieved from a mechanical oscillator, displaced back, and the
surviving entanglement is quantified — by log-negativity on covariance
matrices (gaussian engine, exact at any displacement) or by the concurrence of
the projected qubit pair, read out in closed form (fock engine).

The names below and the submodules load on first access (PEP 562), so
``import micromacro`` loads neither engine nor NumPy; each name is the object
its module defines.
"""

import importlib

__version__ = "0.1.0"

# each submodule's exported names
_NAMES = {
    "channel": ("ChannelCoefficients", "channel_coefficients"),
    "gaussian": (
        "GaussianTwoModeState",
        "component_variance",
        "displace",
        "log_negativity",
        "loss_channel",
        "negativity_from_nu",
        "phase_noise",
        "physicality_check",
        "ppt_minimum_eigenvalue",
        "storage_retrieval_channel",
        "symplectic_eigenvalues",
        "tmsv_state",
        "vacuum_state",
    ),
    "fock": (
        "FockDensityMatrix",
        "TwoQubitState",
        "concurrence",
        "displacement_matrix",
        "linear_channel_apply",
        "phase_noise_average",
        "pure_loss_channel",
        "quadrature_moments",
        "qubit_project",
        "single_photon_entangled_input",
        "thermal_state",
        "two_mode_squeezed_state",
    ),
    "protocol": (
        "FeasibilityInput",
        "FeasibilityReport",
        "FockProtocolResult",
        "GaussianProtocolResult",
        "ProtocolConfig",
        "FEASIBILITY_PRESETS",
        "entanglement_metric",
        "feasibility",
        "find_threshold",
        "run_fock_protocol",
        "run_gaussian_protocol",
    ),
    "sweep": ("AxisSpec", "SweepSpec", "linear_grid", "log_grid", "preset", "run_sweep"),
}
# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = (*_NAMES, "cli")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
