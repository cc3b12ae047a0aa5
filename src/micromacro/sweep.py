"""Deterministic parameter sweeps, figure presets, and CSV rendering.

A sweep evaluates the engine's entanglement metric over a 1-D or 2-D grid of
config parameters, optionally fanning out into one column per value of a
"series" parameter.  Points are evaluated in one fixed order on the calling
thread and numbers are formatted one fixed way, so the CSV output is
byte-identical across runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from dataclasses import dataclass

from . import protocol as pr

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "figA1")


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter and its value grid, strictly increasing (no NaN)."""

    parameter: str
    values: tuple

    def __post_init__(self):
        if self.parameter not in pr._FLOAT_FIELDS:
            raise ValueError(
                f"parameter {self.parameter!r} is not a sweepable config field"
            )
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError(f"axis {self.parameter!r} has an empty grid")
        # NaN fails every comparison, so `not b > a` rejects it too
        if any(not b > a for a, b in zip(values, values[1:])) or math.isnan(values[0]):
            raise ValueError(f"axis {self.parameter!r} grid must be strictly increasing")
        object.__setattr__(self, "values", values)


def linear_grid(lo, hi, n):
    """n equally spaced values from lo to hi (n = 1 gives just lo).

    The values are i * step + lo, ending on exactly hi, by the IEEE operations
    of numpy.linspace in its order, so they equal it bit for bit.  The
    endpoints must be finite and n an integer >= 0.
    """
    n = pr._integer("n", n)
    if n < 0:
        raise ValueError(f"number of grid values n={n} must be >= 0")
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid endpoints ({lo}, {hi}) must be finite")
    delta = hi - lo
    if n < 2:
        return tuple(0.0 * delta + lo for _ in range(n))
    step = delta / (n - 1)
    if step == 0.0:  # a zero or underflowed step: linspace scales i / (n - 1)
        values = [i / (n - 1) * delta + lo for i in range(n - 1)]
    else:
        values = [i * step + lo for i in range(n - 1)]
    return (*values, hi)


def log_grid(lo, hi, n):
    """n logarithmically spaced values from lo to hi (both finite and > 0).

    Each value is 10 ** e for e in linear_grid(log10 lo, log10 hi, n), and
    the ends are exactly lo and hi.  Values can differ from numpy.geomspace's
    in the last bits.
    """
    lo, hi = float(lo), float(hi)
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise ValueError(f"log grid endpoints ({lo}, {hi}) must be finite and > 0")
    exponents = linear_grid(math.log10(lo), math.log10(hi), n)
    return (lo, *(10.0**e for e in exponents[1:-1]), hi)[: len(exponents)]


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


def run_sweep(spec, workers=1):
    """Evaluate a sweep and render it as CSV.

    Returns (csv_text, ()): the CSV document (LF line endings, header row,
    12-significant-digit values) and an empty tuple.  The benchmark
    (perfbench) reads the CSV as the pair's first element, so the empty
    tuple stays until ROADMAP item 1 changes that read.

    Each axis value passes its field's ProtocolConfig check once, and no
    config is built per point: each point is the base's float tuple
    (``protocol._point``) with its axis values written in.  All points are
    evaluated by one ``protocol._evaluate`` call on the calling thread, which
    takes the engine and phase-noise convention from the base: one private
    batch readout (``protocol._gaussian_batch``) for the gaussian engine,
    bit for bit each point's ``run_gaussian_protocol``, and one run at a
    time in sweep order for the fock engine.  `workers` is accepted for
    compatibility and must be >= 1, but has no effect, so output cannot
    depend on it.

    Where a check or that call raises, the points are re-run one at a time,
    each config built by ProtocolConfig's constructor, and the first failing
    point in sweep order is re-raised with its sweep coordinates prepended
    and the error as its cause.
    """
    if workers < 1:
        raise ValueError(f"workers={workers} must be >= 1")
    axis2_values = spec.axis2.values if spec.axis2 is not None else (None,)
    series_values = spec.series.values if spec.series is not None else (None,)
    # sweep order: axis2 outermost, then axis1, then the series
    axes = [axis for axis in (spec.axis2, spec.axis1, spec.series) if axis is not None]
    coordinates = list(itertools.product(*(axis.values for axis in axes)))

    def evaluate(values):
        override = {axis.parameter: v for axis, v in zip(axes, values)}
        try:
            return pr.entanglement_metric(dataclasses.replace(spec.base, **override))
        except Exception as exc:
            coords = ", ".join(
                f"{axis.parameter}={_format(override[axis.parameter])}"
                for axis in filter(None, (spec.axis1, spec.axis2, spec.series))
            )
            raise RuntimeError(f"sweep point ({coords}) failed: {exc}") from exc

    try:
        for axis in axes:
            for value in axis.values:
                pr._checked(axis.parameter, value)
        # a point is the base's float tuple with its axis values written in:
        # an axis's field is read from the values appended after the base's
        appended = {axis.parameter: len(pr._FLOAT_FIELDS) + k for k, axis in enumerate(axes)}
        pick = operator.itemgetter(
            *(appended.get(name, i) for i, name in enumerate(pr._FLOAT_FIELDS))
        )
        base_point = pr._point(spec.base)
        points = [pick(base_point + values) for values in coordinates]
        results = [metric for metric, _ in pr._evaluate(spec.base, points)]
    except Exception:
        for values in coordinates:
            evaluate(values)
        raise

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
    return "\n".join(lines) + "\n", ()


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
    probes in 3 and 6 pipeline calls for fig3 and fig4, 14 fock runs for figA1).
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
        return SweepSpec(
            base=base,
            axis1=_threshold_axis(probe, "N_D", (1.0, 1e7), 12, scale="log", tol=1.0),
            series=AxisSpec("sigma", (0.005, 0.01, 0.02)),
        )
