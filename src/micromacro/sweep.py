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


_format = "{:.12g}".format


def run_sweep(spec, workers=1):
    """Evaluate a sweep and render it as CSV.

    Returns (csv_text, ()): the CSV document (LF line endings, header row,
    12-significant-digit values) and an empty tuple.  The benchmark
    (perfbench) reads the CSV as the pair's first element, so the empty
    tuple stays until ROADMAP item 1 changes that read.

    Each axis value passes its field's ProtocolConfig check once, and no
    config is built per point: each point is the base's float tuple
    (``protocol._point``) with its axis values written in.  All points are
    evaluated by one call of a new pipeline stream (``protocol._stream``) on
    the calling thread, which takes the engine and phase-noise convention
    from the base: one batch readout for the gaussian engine, bit for bit
    each point's ``run_gaussian_protocol``, and one run at a time in sweep
    order for the fock engine.  Every point's unvaried fields are the base's
    own float objects, and each axis value one object, so the call reuses
    each stage's inputs by ``protocol._mode_a``'s rule.
    `workers` is accepted for compatibility and must be >= 1, but has no
    effect, so output cannot depend on it.

    The rows are rendered in one pass: one ``%`` on a template of
    "%.12g" cells, which formats every float as "{:.12g}".format does.

    Where a check or that call raises, the points are re-run one at a time
    in sweep order, each point's ten fields checked in ``_FLOAT_FIELDS``
    order (ProtocolConfig's order) before it runs alone through a stream of
    its own, so no config is built on failure either.  The first failing
    point is re-raised with its sweep coordinates (axis1, axis2, series)
    prepended and the error as its cause; if no point fails alone, the
    batch's error is.
    """
    if workers < 1:
        raise ValueError(f"workers={workers} must be >= 1")
    # sweep order: axis2 outermost, then axis1, then the series
    axes = [axis for axis in (spec.axis2, spec.axis1, spec.series) if axis is not None]
    coordinates = list(itertools.product(*(axis.values for axis in axes)))
    # a point is the base's float tuple with its axis values written in: an
    # axis's field is read from the values appended after the base's
    appended = {axis.parameter: len(pr._FLOAT_FIELDS) + k for k, axis in enumerate(axes)}
    pick = operator.itemgetter(
        *(appended.get(name, i) for i, name in enumerate(pr._FLOAT_FIELDS))
    )
    base_point = pr._point(spec.base)
    points = [pick(base_point + values) for values in coordinates]
    try:
        for axis in axes:
            for value in axis.values:
                pr._checked(axis.parameter, value)
        results = [metric for metric, _ in pr._stream(spec.base)(points)]
    except Exception:
        named = [a.parameter for a in (spec.axis1, spec.axis2, spec.series) if a is not None]
        for values, point in zip(coordinates, points):
            try:
                for name, value in zip(pr._FLOAT_FIELDS, point):
                    pr._checked(name, value)
                pr._stream(spec.base)([point])
            except Exception as exc:
                value_of = dict(zip((axis.parameter for axis in axes), values))
                coords = ", ".join(f"{name}={_format(value_of[name])}" for name in named)
                raise RuntimeError(f"sweep point ({coords}) failed: {exc}") from exc
        raise

    # a row is its axis2 and axis1 values, then the results of its series
    n_keys = len(axes) - (spec.series is not None)
    n_series = len(spec.series.values) if spec.series is not None else 1
    metric = "log_negativity" if spec.base.engine == "gaussian" else "concurrence"
    header = [axis.parameter for axis in axes[:n_keys]]
    if spec.series is not None:
        header.extend(
            f"{metric}[{spec.series.parameter}={_format(v)}]" for v in spec.series.values
        )
    else:
        header.append(metric)
    # "%.12g" % v is _format(v) for every float, so one % renders every row
    cells = []
    for i in range(0, len(coordinates), n_series):
        cells += coordinates[i][:n_keys]
        cells += results[i : i + n_series]
    row = ",".join(["%.12g"] * (n_keys + n_series)) + "\n"
    rows = (row * (len(coordinates) // n_series)) % tuple(cells)
    return ",".join(header) + "\n" + rows, ()


def preset_base(name):
    """Base ProtocolConfig of a named preset, without building its axes."""
    if name in ("fig2", "fig3", "fig4", "fig5"):
        return pr.ProtocolConfig()
    if name == "figA1":
        return pr.ProtocolConfig(engine="fock", eta_c=1.0)
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def preset(name):
    """Named sweep configurations reproducing the library's standard figures.

    fig2: metric vs coupling parameter y, one column per initial mechanical
    occupation N_in.  fig3: metric vs displacement photon number N_D (log
    axis), one column per phase-noise sigma.  fig4: metric vs damping ratio x,
    one column per bath occupation N_th.  fig5: metric vs input transmission
    eta1, one column per output transmission eta2.  figA1: the fock-engine
    analogue of fig3 (concurrence vs N_D per sigma), on a 12-value axis.

    Bounded parameters (y, eta1) sweep their full domain.  Unbounded ones
    sweep up to 1.5x the entanglement-vanishing threshold, which
    find_threshold's Brent search finds when the preset is built: N_D on a
    log grid from 1, searched at sigma = 0.005, and x on a linear grid
    from 0.
    """
    base = preset_base(name)
    if name == "fig2":
        axis1 = AxisSpec("y", linear_grid(0.01, 0.99, 50))
        series = AxisSpec("N_in", (0.0, 1.0, 10.0))
    elif name in ("fig3", "figA1"):
        probe = dataclasses.replace(base, sigma=0.005)
        critical = pr.find_threshold(probe, "N_D", (1.0, 1e7), tol=1.0)
        axis1 = AxisSpec("N_D", log_grid(1.0, 1.5 * critical, 40 if name == "fig3" else 12))
        series = AxisSpec("sigma", (0.005, 0.01, 0.02))
    elif name == "fig4":
        critical = pr.find_threshold(base, "x", (1e-6, 1.0), tol=1e-5)
        axis1 = AxisSpec("x", linear_grid(0.0, 1.5 * critical, 40))
        series = AxisSpec("N_th", (1.0, 10.0, 100.0))
    else:  # fig5
        axis1 = AxisSpec("eta1", linear_grid(0.0, 1.0, 50))
        series = AxisSpec("eta2", (0.6, 0.8, 1.0))
    return SweepSpec(base=base, axis1=axis1, series=series)
