"""Deterministic parameter sweeps, figure presets, and CSV rendering.

A sweep evaluates the engine's entanglement metric over a 1-D or 2-D grid of
config parameters, optionally fanning out into one column per value of a
"series" parameter.  Points are evaluated in one fixed order on the calling
thread and numbers are formatted one fixed way, so the CSV output is
byte-identical across runs.
"""

from __future__ import annotations

import dataclasses
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from . import gaussian as ga
from . import protocol as pr

SWEEPABLE_FIELDS = pr._FLOAT_FIELDS + pr._INT_FIELDS
PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "figA1")


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter and its ordered value grid."""

    parameter: str
    values: tuple

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_FIELDS:
            raise ValueError(
                f"parameter {self.parameter!r} is not a sweepable config field"
            )
        if self.parameter in pr._INT_FIELDS:
            values = tuple(pr._integer(self.parameter, v) for v in self.values)
        else:
            values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError(f"axis {self.parameter!r} has an empty grid")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"axis {self.parameter!r} grid must be strictly increasing")
        object.__setattr__(self, "values", values)


def linear_grid(lo, hi, n):
    """n equally spaced values from lo to hi (n = 1 gives just lo)."""
    return tuple(float(v) for v in np.linspace(lo, hi, int(n)))


def log_grid(lo, hi, n):
    """n logarithmically spaced values from lo to hi (both > 0)."""
    if lo <= 0 or hi <= 0:
        raise ValueError(f"log grid endpoints ({lo}, {hi}) must be > 0")
    return tuple(float(v) for v in np.geomspace(lo, hi, int(n)))


@dataclass(frozen=True)
class SweepSpec:
    """Base config plus one or two axes and an optional series parameter."""

    base: pr.ProtocolConfig
    axis1: AxisSpec
    axis2: AxisSpec = None
    series: AxisSpec = None

    def __post_init__(self):
        names = [self.axis1.parameter]
        if self.axis2 is not None:
            names.append(self.axis2.parameter)
        if self.series is not None:
            names.append(self.series.parameter)
        if len(set(names)) != len(names):
            raise ValueError(f"sweep parameters {names} must be distinct")


def _metric_name(config):
    return "log_negativity" if config.engine == "gaussian" else "concurrence"


def _format(value):
    return f"{value:.12g}"


def warning_lines(caught):
    """Sorted, de-duplicated "Category: message" lines of recorded warnings."""
    return tuple(sorted({f"{w.category.__name__}: {w.message}" for w in caught}))


def run_sweep(spec, workers=1):
    """Evaluate a sweep and render it as CSV.

    Returns (csv_text, warnings): the CSV document (LF line endings, header
    row, 12-significant-digit values) and a sorted, de-duplicated tuple of
    warning strings emitted by the evaluations (truncation reports and the
    like), suitable for a sidecar log.

    A gaussian sweep runs as one batch through ``run_gaussian_protocol``; a
    fock sweep evaluates its points one at a time in sweep order.  Both run on
    the calling thread.  `workers` is accepted for compatibility and must be
    >= 1, but has no effect, so output cannot depend on it.

    A point that raises is re-raised with its sweep coordinates prepended;
    where a batch fails, its points are re-run one at a time to name the
    first failing point in sweep order.
    """
    if workers < 1:
        raise ValueError(f"workers={workers} must be >= 1")
    axis2_values = spec.axis2.values if spec.axis2 is not None else (None,)
    series_values = spec.series.values if spec.series is not None else (None,)

    points = []
    for v2 in axis2_values:
        for v1 in spec.axis1.values:
            for vs in series_values:
                override = {spec.axis1.parameter: v1}
                if v2 is not None:
                    override[spec.axis2.parameter] = v2
                if vs is not None:
                    override[spec.series.parameter] = vs
                points.append(override)

    def evaluate(override):
        try:
            config = dataclasses.replace(spec.base, **override)
            return pr.entanglement_metric(config)
        except Exception as exc:
            coords = ", ".join(f"{k}={_format(v)}" for k, v in override.items())
            raise RuntimeError(f"sweep point ({coords}) failed: {exc}") from exc

    def evaluate_batch():
        try:
            configs = [dataclasses.replace(spec.base, **override) for override in points]
            return pr.run_gaussian_protocol(configs).log_negativity.tolist()
        except Exception:
            for override in points:
                evaluate(override)
            raise

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        if spec.base.engine == "gaussian":
            results = evaluate_batch()
        else:
            results = [evaluate(p) for p in points]

    metric = _metric_name(spec.base)
    header = []
    if spec.axis2 is not None:
        header.append(spec.axis2.parameter)
    header.append(spec.axis1.parameter)
    if spec.series is not None:
        header.extend(
            f"{metric}[{spec.series.parameter}={_format(v)}]" for v in spec.series.values
        )
    else:
        header.append(metric)

    lines = [",".join(header)]
    n_series = len(series_values)
    idx = 0
    for v2 in axis2_values:
        for v1 in spec.axis1.values:
            row = []
            if v2 is not None:
                row.append(_format(v2))
            row.append(_format(v1))
            row.extend(_format(results[idx + k]) for k in range(n_series))
            idx += n_series
            lines.append(",".join(row))
    return "\n".join(lines) + "\n", warning_lines(caught)


def _threshold_axis(base, parameter, bracket, n, scale="linear", tol=None):
    """Axis from 0 (or bracket lo) to 1.5x the entanglement-vanishing threshold."""
    if tol is None:
        tol = max(1e-5, 1e-5 * (bracket[1] - bracket[0]))
    critical = pr.find_threshold(base, parameter, bracket, tol=tol)
    if scale == "log":
        return AxisSpec(parameter, log_grid(bracket[0], 1.5 * critical, n))
    return AxisSpec(parameter, linear_grid(0.0, 1.5 * critical, n))


def preset_base(name):
    """Base ProtocolConfig of a named preset, without building its axes."""
    base = pr.ProtocolConfig()
    if name in ("fig2", "fig3", "fig4", "fig5"):
        return base
    if name == "figA1":
        return dataclasses.replace(base, engine="fock", eta_c=1.0)
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def preset(name):
    """Named sweep configurations reproducing the library's standard figures.

    fig2: metric vs coupling parameter y, one column per initial mechanical
    occupation N_in.  fig3: metric vs displacement photon number N_D (log
    axis), one column per phase-noise sigma.  fig4: metric vs damping ratio x,
    one column per bath occupation N_th.  fig5: metric vs input transmission
    eta1, one column per output transmission eta2.  figA1: the fock-engine
    analogue of fig3 (concurrence vs N_D per sigma).

    Bounded parameters (y, eta1) sweep their full domain; unbounded ones (x,
    N_D) sweep [0 or 1, 1.5x the entanglement-vanishing threshold], which
    find_threshold's Brent search discovers when the preset is built (4 and 7
    pipeline evaluations for fig3 and fig4, 9 for figA1).
    """
    base = preset_base(name)
    if name == "fig2":
        return SweepSpec(
            base=base,
            axis1=AxisSpec("y", linear_grid(0.01, 0.99, 50)),
            series=AxisSpec("N_in", (0.0, 1.0, 10.0)),
        )
    if name == "fig3":
        probe = dataclasses.replace(base, sigma=0.005)
        return SweepSpec(
            base=base,
            axis1=_threshold_axis(probe, "N_D", (1.0, 1e7), 40, scale="log", tol=1.0),
            series=AxisSpec("sigma", (0.005, 0.01, 0.02)),
        )
    if name == "fig4":
        return SweepSpec(
            base=base,
            axis1=_threshold_axis(base, "x", (1e-6, 1.0), 40),
            series=AxisSpec("N_th", (1.0, 10.0, 100.0)),
        )
    if name == "fig5":
        return SweepSpec(
            base=base,
            axis1=AxisSpec("eta1", linear_grid(0.0, 1.0, 50)),
            series=AxisSpec("eta2", (0.6, 0.8, 1.0)),
        )
    if name == "figA1":
        probe = dataclasses.replace(base, sigma=0.005)
        # Bound the search so the phase-noise variance stays within the
        # truncation-valid zone of the fock engine (variance <= 6 at the top).
        coeffs = ga.channel_coefficients(probe.x, probe.y)
        amp_unit = pr.phase_noise_amplitude_sq(dataclasses.replace(probe, N_D=1.0), coeffs)
        hi = 6.0 / (2.0 * amp_unit * probe.sigma**2)
        axis = _threshold_axis(probe, "N_D", (1.0, hi), 12, scale="log", tol=hi * 1e-4)
        return SweepSpec(
            base=base,
            axis1=axis,
            series=AxisSpec("sigma", (0.005, 0.01, 0.02)),
        )
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
