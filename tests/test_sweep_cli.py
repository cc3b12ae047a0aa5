"""Tests for the sweep engine, figure presets, config parsing and the CLI."""

import dataclasses
import itertools
import math
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from micromacro import channel as ch
from micromacro import cli
from micromacro import protocol as pr
from micromacro import sweep as sw

DATA = Path(__file__).parent / "data"
FOCK_BASE = dict(engine="fock", N_th=0.3, sigma=0.0, eta_c=1.0)
# the damping ratio at which _violate_closure breaks the storage channel
BROKEN_X = 0.0123


def _violate_closure(monkeypatch):
    """Give the storage channel f1 = 1 at x = BROKEN_X, so its coefficients
    violate closure there: an engine failure that no field check catches."""
    core = ch._coefficients

    def coefficients(x, y):
        c1, c2, f1, f2 = core(x, y)
        return (c1, c2, 1.0, f2) if x == BROKEN_X else (c1, c2, f1, f2)

    monkeypatch.setattr(ch, "_coefficients", coefficients)


def test_axis_spec_validation():
    with pytest.raises(ValueError):
        sw.AxisSpec("not_a_field", (0.1, 0.2))
    with pytest.raises(ValueError):
        sw.AxisSpec("y", ())
    with pytest.raises(ValueError):
        sw.AxisSpec("y", (0.3, 0.2))
    with pytest.raises(ValueError):
        sw.AxisSpec("y", (0.2, 0.2))
    # NaN fails every comparison, so it would pass a `b <= a` order check
    nan = math.nan
    for values in ((5.0, nan, 1.0), (nan, 1.0), (1.0, nan), (nan,)):
        with pytest.raises(ValueError, match="^axis 'N_D' grid must be strictly increasing$"):
            sw.AxisSpec("N_D", values)
    axis = sw.AxisSpec("y", [0.1, 0.5])
    assert axis.values == (0.1, 0.5)
    for parameter in ("fock_dims", "engine"):
        with pytest.raises(ValueError, match=f"'{parameter}' is not a sweepable config field"):
            sw.AxisSpec(parameter, (8, 12))


def test_grids():
    assert sw.linear_grid(0.0, 1.0, 5) == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert sw.linear_grid(0.3, 0.9, 1) == (0.3,)
    assert sw.log_grid(1.0, 100.0, 3) == (1.0, 10.0, 100.0)
    assert sw.log_grid(2.0, 3.0, 0) == () and sw.log_grid(2.0, 3.0, 1) == (2.0,)
    assert sw.log_grid(2.0, 3.0, 2) == (2.0, 3.0)
    inf, nan = math.inf, math.nan
    for grid, lo, hi, n, message in (
        (sw.log_grid, 0.0, 10.0, 3, r"log grid endpoints \(0.0, 10.0\) must be finite and > 0"),
        (sw.log_grid, 1.0, inf, 3, r"log grid endpoints \(1.0, inf\) must be finite and > 0"),
        (sw.log_grid, nan, 1.0, 3, r"log grid endpoints \(nan, 1.0\) must be finite and > 0"),
        (sw.log_grid, 1.0, 10.0, -3, r"number of grid values n=-3 must be >= 0"),
        (sw.linear_grid, 0.0, inf, 3, r"grid endpoints \(0.0, inf\) must be finite"),
        (sw.linear_grid, -inf, 0.0, 3, r"grid endpoints \(-inf, 0.0\) must be finite"),
        (sw.linear_grid, nan, 1.0, 3, r"grid endpoints \(nan, 1.0\) must be finite"),
        (sw.linear_grid, 0.0, 1.0, -1, r"number of grid values n=-1 must be >= 0"),
        (sw.linear_grid, 0.0, 1.0, 2.7, r"n=2.7 must be an integer"),
        (sw.linear_grid, 0.0, 1.0, nan, r"n=nan must be an integer"),
        (sw.log_grid, 1.0, 10.0, 2.7, r"n=2.7 must be an integer"),
        (sw.log_grid, 1.0, 10.0, nan, r"n=nan must be an integer"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            grid(lo, hi, n)


def test_log_grid_matches_exact_values():
    # Against the exact lo (hi/lo)^(i/(n-1)) in 40-digit decimals, not against
    # numpy.geomspace, which rounds differently in the last bits.  Each value
    # is 10 ** e with e = i * step + log10(lo): the exponent's rounding is a
    # few eps * max|log10|, which the power scales by ln 10, plus the power's
    # own rounding; 20 eps * max|log10| + 2 eps covers both.
    rng = np.random.default_rng(17)
    eps = sys.float_info.epsilon
    cases = [(1.0, 1e7, 40), (1e-300, 1e300, 25), (0.5, 0.5000001, 9)]
    for _ in range(300):
        lo, hi = sorted(10.0 ** rng.uniform(-300.0, 300.0, 2))
        cases.append((float(lo), float(hi), int(rng.integers(2, 60))))
    with localcontext() as context:
        context.prec = 40
        for lo, hi, n in cases:
            grid = sw.log_grid(lo, hi, n)
            assert len(grid) == n and (grid[0], grid[-1]) == (lo, hi), (lo, hi, n)
            assert all(a < b for a, b in zip(grid, grid[1:])), (lo, hi, n)
            scale = max(abs(math.log10(lo)), abs(math.log10(hi)), 1.0)
            low, high = Decimal(lo).ln(), Decimal(hi).ln()
            for i, value in enumerate(grid):
                exact = (low + (high - low) * i / (n - 1)).exp()
                error = abs(Decimal(value) / exact - 1)
                assert error <= Decimal((20.0 * scale + 2.0) * eps), (lo, hi, n, i)


def test_linear_grid_equals_linspace():
    rng = np.random.default_rng(15)
    cases = [
        (0.0, 1.0, 1), (0.0, 1.0, 2), (-3.0, -1.0, 7), (-2.5, 4.0, 11), (1.0, -1.0, 5),
        (0.99, 0.01, 50), (2.0, 2.0, 4), (0.0, -0.0, 3), (5e-324, 1e-323, 7),
    ]
    for _ in range(2000):
        lo, hi = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.integers(-8, 9, 2)
        cases.append((float(lo), float(hi), int(rng.integers(1, 300))))
    for lo, hi, n in cases:
        grid = sw.linear_grid(lo, hi, n)
        reference = np.linspace(lo, hi, n)
        assert grid == tuple(reference.tolist()), (lo, hi, n)
        assert np.array(grid).tobytes() == reference.tobytes(), (lo, hi, n)  # signed zeros
    assert sw.linear_grid(0.0, 1.0, 0) == ()
    for grid in (sw.linear_grid, np.linspace):
        with pytest.raises(ValueError):
            grid(0.0, 1.0, -1)


def test_sweep_spec_rejects_duplicate_parameters():
    base = pr.ProtocolConfig()
    axis = sw.AxisSpec("y", (0.1, 0.2))
    with pytest.raises(ValueError):
        sw.SweepSpec(base=base, axis1=axis, series=sw.AxisSpec("y", (1.0, 2.0)))


def test_run_sweep_single_point_ideal():
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(
            N_D=0.0, y=1e-9, x=0.0, N_in=0.0, N_th=0.0, sigma=0.0,
            eta1=1.0, eta2=1.0, eta_c=1.0,
        ),
        axis1=sw.AxisSpec("r", (0.5,)),
    )
    csv_text, sidecar = sw.run_sweep(spec)
    lines = csv_text.splitlines()
    assert lines[0] == "r,log_negativity"
    assert lines[1] == "0.5,1"
    assert len(lines) == 2
    assert csv_text.endswith("\n")
    assert sidecar == ()


def test_run_sweep_layout_and_ordering():
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(sigma=0.0),
        axis1=sw.AxisSpec("y", (0.1, 0.2)),
        axis2=sw.AxisSpec("x", (0.0, 0.01)),
        series=sw.AxisSpec("N_in", (0.0, 1.0)),
    )
    csv_text, _ = sw.run_sweep(spec)
    lines = csv_text.splitlines()
    assert lines[0] == "x,y,log_negativity[N_in=0],log_negativity[N_in=1]"
    # axis2 is the outer loop
    first = [line.split(",")[:2] for line in lines[1:]]
    assert first == [["0", "0.1"], ["0", "0.2"], ["0.01", "0.1"], ["0.01", "0.2"]]
    # Every value must equal a direct evaluation.
    probe = dataclasses.replace(pr.ProtocolConfig(sigma=0.0), x=0.01, y=0.2, N_in=1.0)
    assert lines[4].split(",")[3] == f"{pr.entanglement_metric(probe):.12g}"


def test_run_sweep_deterministic_across_workers():
    gaussian = sw.SweepSpec(
        base=pr.ProtocolConfig(),
        axis1=sw.AxisSpec("y", sw.linear_grid(0.05, 0.6, 8)),
        series=sw.AxisSpec("N_in", (0.0, 1.0, 10.0)),
    )
    # Gaussian sweeps run as one batch and Fock sweeps point by point, both
    # on one thread.
    fock = sw.SweepSpec(
        base=pr.ProtocolConfig(**FOCK_BASE),
        axis1=sw.AxisSpec("y", (0.1, 0.3)),
        series=sw.AxisSpec("N_th", (0.3, 20.0)),
    )
    for spec in (gaussian, fock):
        serial = sw.run_sweep(spec, workers=1)
        for workers in (2, 8):
            assert sw.run_sweep(spec, workers=workers) == serial
        with pytest.raises(ValueError):
            sw.run_sweep(spec, workers=0)


def test_run_sweep_reports_failing_coordinates(monkeypatch):
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(**FOCK_BASE),
        axis1=sw.AxisSpec("y", (0.5, 1.5)),  # y > 1 is rejected
    )
    with pytest.raises(RuntimeError, match=r"\(y=1.5\) failed: coupling parameter y=1.5"):
        sw.run_sweep(spec)
    # an engine failure, not a config rejection: the storage channel's
    # coefficients violate closure at x = BROKEN_X
    _violate_closure(monkeypatch)
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(**FOCK_BASE),
        axis1=sw.AxisSpec("y", (0.1, 0.5)),
        series=sw.AxisSpec("x", (0.01, BROKEN_X)),
    )
    with pytest.raises(
        RuntimeError,
        match=r"^sweep point \(y=0.1, x=0.0123\) failed: channel coefficients violate closure by .*$",
    ) as caught:
        sw.run_sweep(spec)
    assert isinstance(caught.value.__cause__, ValueError)


def test_gaussian_batch_reports_first_failing_coordinates():
    # a phase jitter whose variance overflows fails the batch's finiteness
    # check; the error names the first failing point in sweep order, with the
    # single-point message as cause.
    spec = sw.SweepSpec(base=pr.ProtocolConfig(), axis1=sw.AxisSpec("sigma", (0.01, 1e200)))
    with pytest.raises(RuntimeError, match=r"\(sigma=1e\+200\) failed: non-finite entry"):
        sw.run_sweep(spec)
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(),
        axis1=sw.AxisSpec("y", (0.1, 0.5)),
        series=sw.AxisSpec("sigma", (0.01, 1e200, 1e250)),
    )
    with pytest.raises(RuntimeError, match=r"\(y=0.1, sigma=1e\+200\) failed") as caught:
        sw.run_sweep(spec)
    assert isinstance(caught.value.__cause__, ValueError)


@pytest.mark.parametrize(
    "base, axes, message, cause",
    [
        # the engine failure at the second point comes before the bad y
        (
            {},
            dict(axis2=("y", (0.1, 1.5)), axis1=("sigma", (0.01, 1e200))),
            r"\(sigma=1e\+200, y=0.1\) failed: non-finite entry in mean or cov",
            ValueError,
        ),
        (
            FOCK_BASE,
            dict(axis1=("y", (0.1, 1.5)), series=("x", (0.01, BROKEN_X))),
            r"\(y=0.1, x=0.0123\) failed: channel coefficients violate closure by .*",
            ValueError,
        ),
        # one point with two bad values: the first in field order is named,
        # though the batch checks the axis2 value first
        (
            {},
            dict(axis2=("eta1", (2.0,)), axis1=("y", (1.5,))),
            r"\(y=1.5, eta1=2\) failed: coupling parameter y=1.5 outside \(0, 1\]",
            ValueError,
        ),
    ],
    ids=["gaussian-engine-before-field", "fock-engine-before-field", "two-bad-fields"],
)
def test_run_sweep_reports_the_first_failure_in_sweep_order(monkeypatch, base, axes, message, cause):
    # only the fock case sweeps x through BROKEN_X
    _violate_closure(monkeypatch)
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(**base),
        **{role: sw.AxisSpec(*axis) for role, axis in axes.items()},
    )
    with pytest.raises(RuntimeError, match=f"^sweep point {message}$") as caught:
        sw.run_sweep(spec)
    assert isinstance(caught.value.__cause__, cause)


def test_run_sweep_reports_a_warning_raised_as_error():
    # tier-1 runs with warnings as errors: the overflowed determinant's
    # RuntimeWarning fails the batch, and the point-by-point re-run names
    # the first point that raises it, with the warning as cause
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(),
        axis1=sw.AxisSpec("y", (0.1, 0.5)),
        series=sw.AxisSpec("N_th", (1.0, 1e200)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            RuntimeError,
            match=r"^sweep point \(y=0.1, N_th=1e\+200\) failed: overflow encountered in det$",
        ) as caught:
            sw.run_sweep(spec)
    assert isinstance(caught.value.__cause__, RuntimeWarning)


def test_run_sweep_reraises_a_batch_error_that_no_point_repeats(monkeypatch):
    # where every point runs alone without error, the batch's own error is
    # re-raised unchanged
    evaluate = pr._evaluate

    def batch_fails(base, points):
        if len(points) > 1:
            raise ArithmeticError("batch only")
        return evaluate(base, points)

    monkeypatch.setattr(pr, "_evaluate", batch_fails)
    spec = sw.SweepSpec(base=pr.ProtocolConfig(), axis1=sw.AxisSpec("y", (0.1, 0.5)))
    with pytest.raises(ArithmeticError, match="^batch only$"):
        sw.run_sweep(spec)


def test_gaussian_sweep_cells_equal_single_point_metrics():
    base = pr.ProtocolConfig(phase_noise_convention="paper_literal", eta2=1.0)
    spec = sw.SweepSpec(
        base=base,
        axis1=sw.AxisSpec("y", sw.linear_grid(0.05, 1.0, 7)),
        axis2=sw.AxisSpec("x", (0.0, 0.02, 0.05)),
        series=sw.AxisSpec("sigma", (0.0, 0.005, 0.01)),
    )
    rows = [line.split(",") for line in sw.run_sweep(spec)[0].splitlines()[1:]]
    expected = [
        [
            f"{pr.entanglement_metric(dataclasses.replace(base, x=x, y=y, sigma=s)):.12g}"
            for s in spec.series.values
        ]
        for x in spec.axis2.values
        for y in spec.axis1.values
    ]
    assert [row[2:] for row in rows] == expected


def _per_cell_csv(spec):
    """A sweep's CSV with every cell formatted on its own, by "{:.12g}".format,
    from each point's entanglement_metric."""
    fmt = "{:.12g}".format
    keys = [axis for axis in (spec.axis2, spec.axis1) if axis is not None]
    metric = "log_negativity" if spec.base.engine == "gaussian" else "concurrence"
    if spec.series is None:
        series, columns = [{}], [metric]
    else:
        name = spec.series.parameter
        series = [{name: v} for v in spec.series.values]
        columns = [f"{metric}[{name}={fmt(v)}]" for v in spec.series.values]
    lines = [",".join([axis.parameter for axis in keys] + columns)]
    for values in itertools.product(*(axis.values for axis in keys)):
        config = dataclasses.replace(spec.base, **dict(zip((a.parameter for a in keys), values)))
        metrics = [pr.entanglement_metric(dataclasses.replace(config, **s)) for s in series]
        lines.append(",".join(map(fmt, (*values, *metrics))))
    return "\n".join(lines) + "\n"


def test_run_sweep_renders_the_bytes_of_per_cell_formatting():
    # sigma = 0 adds no phase noise, so N_D may take any finite value;
    # x = -0.0 is a valid coordinate and renders as "-0"
    rng = np.random.default_rng(20261020)
    base = pr.ProtocolConfig(sigma=0.0, N_th=rng.uniform(0.0, 20.0))
    n_d = sw.AxisSpec("N_D", (0.0, 5e-324, *sorted(10.0 ** rng.uniform(-3, 6, 5)), 1e300))
    x = sw.AxisSpec("x", (-0.0, *sorted(rng.uniform(0.0, 0.3, 4))))
    y = sw.AxisSpec("y", sorted(rng.uniform(0.01, 1.0, 6)))
    specs = [
        sw.SweepSpec(base=base, axis1=n_d),
        sw.SweepSpec(base=base, axis1=y, axis2=x),
        sw.SweepSpec(base=base, axis1=x, series=n_d),
        sw.SweepSpec(base=base, axis1=y, axis2=n_d, series=sw.AxisSpec("N_in", (0.0, 1.0, 10.0))),
        sw.SweepSpec(base=pr.ProtocolConfig(**FOCK_BASE), axis1=y, series=x),
    ]
    cells = set()
    for spec in specs:
        csv_text = sw.run_sweep(spec)[0]
        assert csv_text.encode() == _per_cell_csv(spec).encode(), spec
        cells.update(cell for line in csv_text.splitlines()[1:] for cell in line.split(","))
    # the special values reach the CSV, and so do separable points' zeros
    assert {"-0", "0", "4.94065645841e-324", "1e+300"} <= cells


def test_preset_fig2_matches_documented_base():
    spec = sw.preset("fig2")
    base = spec.base
    assert (base.x, base.N_th, base.sigma, base.N_D, base.r, base.y) == (
        0.01, 10.0, 0.01, 5000.0, 0.5, 0.1,
    )
    assert (base.eta1, base.eta2, base.eta_c) == (0.8, 0.8, 0.8)
    assert base.N_in == 1.0
    assert spec.axis1.parameter == "y"
    assert spec.axis1.values[0] == 0.01 and spec.axis1.values[-1] == 0.99
    assert len(spec.axis1.values) == 50
    assert spec.series.parameter == "N_in"
    assert spec.series.values == (0.0, 1.0, 10.0)


def test_preset_fig3_axis_covers_threshold():
    spec = sw.preset("fig3")
    assert spec.axis1.parameter == "N_D"
    assert spec.series.values == (0.005, 0.01, 0.02)
    # Axis runs 1.5x past the sigma = 0.005 vanishing threshold, so the
    # metric must be zero at the top of the axis for every series value.
    top = dataclasses.replace(spec.base, N_D=spec.axis1.values[-1], sigma=0.005)
    assert pr.entanglement_metric(top) == 0.0
    mid = dataclasses.replace(spec.base, N_D=spec.axis1.values[0], sigma=0.005)
    assert pr.entanglement_metric(mid) > 0.0


def test_preset_fig4_axis_brackets_documented_crossing():
    spec = sw.preset("fig4")
    assert spec.axis1.parameter == "x"
    assert spec.series.parameter == "N_th"
    assert spec.series.values == (1.0, 10.0, 100.0)
    assert spec.axis1.values[0] == 0.0
    # The N_th = 10 column crosses zero inside (0.01, 0.04).
    assert 0.015 <= spec.axis1.values[-1] <= 0.06
    csv_text, _ = sw.run_sweep(spec)
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    mid_column = [(float(r[0]), float(r[2])) for r in rows]
    crossings = [
        0.5 * (x0 + x1)
        for (x0, v0), (x1, v1) in zip(mid_column, mid_column[1:])
        if v0 > 0.0 and v1 == 0.0
    ]
    assert len(crossings) == 1 and 0.01 < crossings[0] < 0.04


def test_preset_fig5_full_domain():
    spec = sw.preset("fig5")
    assert spec.axis1.parameter == "eta1"
    assert spec.axis1.values[0] == 0.0 and spec.axis1.values[-1] == 1.0
    assert spec.series.parameter == "eta2"
    assert spec.series.values == (0.6, 0.8, 1.0)


def test_preset_figA1_structure():
    spec = sw.preset("figA1")
    assert spec.base.engine == "fock"
    assert spec.base.eta_c == 1.0
    assert spec.axis1.parameter == "N_D"
    assert spec.series.values == (0.005, 0.01, 0.02)
    # the axis runs to 1.5x the sigma = 0.005 threshold, searched as fig3's is
    probe = dataclasses.replace(spec.base, sigma=0.005)
    critical = pr.find_threshold(probe, "N_D", (1.0, 1e7), tol=1.0)
    assert spec.axis1.values[-1] == sw.log_grid(1.0, 1.5 * critical, 12)[-1]


def _csv_cells(lines):
    return np.array([[float(cell) for cell in line.split(",")] for line in lines])


@pytest.mark.parametrize("name", sw.PRESET_NAMES)
def test_preset_output_matches_pinned_csv(name):
    # tests/data holds `micromacro sweep --preset NAME` output.  The header
    # must match as text; axis and metric cells within 1e-10 relative, so that
    # other NumPy/BLAS builds pass.
    expected = (DATA / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    csv_text, _ = sw.run_sweep(sw.preset(name))
    lines = csv_text.splitlines()
    assert lines[0] == expected[0]
    assert len(lines) == len(expected)
    np.testing.assert_allclose(_csv_cells(lines[1:]), _csv_cells(expected[1:]), rtol=1e-10, atol=0)


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        sw.preset("fig9")
    with pytest.raises(ValueError):
        sw.preset_base("fig9")


def test_parse_config_text():
    text = "# comment\n r = 0.25 \n\nengine = gaussian # trailing\n"
    mapping = cli.parse_config_text(text)
    assert mapping == {"r": "0.25", "engine": "gaussian"}
    with pytest.raises(ValueError):
        cli.parse_config_text("just some words\n")


def test_cli_sweep_stdout_and_config_file(tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    conf.write_text(
        "sigma = 0\naxis1 = y\naxis1_values = 0.1, 0.3\nseries = N_in\n"
        "series_values = 0, 1\n",
        encoding="utf-8",
    )
    assert cli.main(["sweep", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "y,log_negativity[N_in=0],log_negativity[N_in=1]"
    assert len(lines) == 3
    probe = pr.ProtocolConfig(sigma=0.0, y=0.3, N_in=1.0)
    assert lines[2].split(",")[2] == f"{pr.entanglement_metric(probe):.12g}"


def test_cli_override_precedence(tmp_path, capsys):
    # --set beats the config file, which beats the preset default.
    conf = tmp_path / "over.conf"
    conf.write_text("sigma = 0.02\naxis1 = y\naxis1_values = 0.1\n", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(conf), "--set", "sigma=0.03"]) == 0
    value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
    expected = pr.entanglement_metric(pr.ProtocolConfig(sigma=0.03, y=0.1))
    assert value == expected
    # Without --set the config file's value applies.
    assert cli.main(["sweep", "--config", str(conf)]) == 0
    value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
    expected = pr.entanglement_metric(pr.ProtocolConfig(sigma=0.02, y=0.1))
    assert value == expected


def test_cli_axis_group_is_replaced_before_it_is_built(tmp_path, capsys):
    # The file's axis1 group alone is incomplete; --set names axis1 again and
    # replaces the whole group, so only the complete group is ever built.
    conf = tmp_path / "partial.conf"
    conf.write_text("axis1 = x\naxis1_lo = 0.1\n", encoding="utf-8")
    assert cli.main(["sweep", "--preset", "fig2", "--config", str(conf)]) == 1
    assert capsys.readouterr().err == "error: axis 'axis1' needs axis1_values or axis1_hi\n"
    code = cli.main([
        "sweep", "--preset", "fig2", "--config", str(conf),
        "--set", "axis1=y", "--set", "axis1_values=0.1,0.2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    # the preset's series group is kept as it is
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(),
        axis1=sw.AxisSpec("y", (0.1, 0.2)),
        series=sw.preset("fig2").series,
    )
    assert out == sw.run_sweep(spec)[0]


def test_cli_preset_axis_override(tmp_path):
    # Overriding one axis key replaces the whole preset axis group.
    out = tmp_path / "mini.csv"
    code = cli.main([
        "sweep", "--preset", "fig2",
        "--set", "axis1=y", "--set", "axis1_values=0.1,0.2",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3  # header + two axis points
    assert lines[1].startswith("0.1,")


@pytest.mark.parametrize(
    "n, error", [("4.0", None), ("4.5", "axis1_n=4.5 must be an integer"),
                 ("0", "axis1_n=0 must be >= 1"), ("-3", "axis1_n=-3 must be >= 1")],
)
def test_cli_axis_count_is_parsed_as_an_integer(tmp_path, capsys, n, error):
    conf = tmp_path / "count.conf"
    conf.write_text(
        f"axis1 = y\naxis1_lo = 0.1\naxis1_hi = 0.4\naxis1_n = {n}\n", encoding="utf-8"
    )
    code = cli.main(["sweep", "--config", str(conf)])
    captured = capsys.readouterr()
    if error is None:
        assert code == 0
        axis = [line.split(",")[0] for line in captured.out.splitlines()]
        assert axis == ["y", "0.1", "0.2", "0.3", "0.4"]
    else:
        assert code == 1
        assert captured.err == f"error: {error}\n"


def test_cli_sweep_without_warnings_writes_no_sidecar(tmp_path, capsys):
    # No engine warns, so figA1 writes its CSV alone and nothing to stderr.
    out = tmp_path / "figA1.csv"
    assert cli.main(["sweep", "--preset", "figA1", "--out", str(out)]) == 0
    assert out.exists() and not (tmp_path / "figA1.csv.log").exists()
    assert capsys.readouterr() == ("", "")


def test_cli_sweep_determinism_across_workers(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(["sweep", "--preset", "fig2", "--out", str(first)]) == 0
    assert cli.main([
        "sweep", "--preset", "fig2", "--parallel", "8", "--out", str(second)
    ]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_threshold_command(capsys):
    code = cli.main([
        "threshold", "--preset", "fig5", "--param", "eta1", "--lo", "0.1", "--hi", "0.9",
    ])
    assert code == 0
    out, err = capsys.readouterr()
    value = pr.find_threshold(pr.ProtocolConfig(), "eta1", (0.1, 0.9))
    assert (out, err) == (f"eta1_threshold = {value:.12g}\n", "")
    assert 0.3 <= value <= 0.5


@pytest.mark.parametrize(
    "args, field",
    [
        (["threshold", "--set", "engine=fock", "--param", "fock_dims", "--lo", "2",
          "--hi", "40"], "'fock_dims' is not a float config field"),
        (["threshold", "--preset", "fig2", "--param", "foo", "--lo", "0", "--hi", "1"],
         "'foo' is not a float config field"),
        (["sweep", "--preset", "fig2", "--set", "fock_dims=8"],
         "unknown config field 'fock_dims'"),
    ],
)
def test_cli_rejects_a_field_that_is_not_a_config_number(capsys, args, field):
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and field in err


def test_cli_threshold_bracket_error(capsys):
    code = cli.main([
        "threshold", "--preset", "fig2", "--param", "y", "--lo", "0.2", "--hi", "0.3",
    ])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: no entanglement threshold in [0.2, 0.3]: metric is positive at both ends\n"
    )


def test_cli_threshold_rejects_nan_tol(capsys):
    code = cli.main([
        "threshold", "--preset", "fig5", "--param", "eta1", "--lo", "0", "--hi", "1",
        "--tol", "nan",
    ])
    assert code == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: tol=nan must be a number\n")


def test_cli_threshold_reports_a_warning_raised_as_error(capsys):
    # with warnings as errors, the overflowed determinant's RuntimeWarning
    # is an exception: the command reports it as an error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([
            "threshold", "--set", "N_th=1e200", "--param", "eta1", "--lo", "0", "--hi", "1",
        ])
    assert code == 1
    assert capsys.readouterr() == ("", "error: overflow encountered in det\n")


def test_cli_feasibility_preset(capsys):
    assert cli.main(["feasibility", "--preset", "nanobeam"]) == 0
    out = capsys.readouterr().out
    assert "G_over_2pi_Hz = 3200000" in out
    assert "resolved_sideband = true" in out


def test_cli_feasibility_config_file(tmp_path, capsys):
    conf = tmp_path / "platform.conf"
    conf.write_text(
        "omega_m = 2.324778563656e10\nkappa = 3.14159265359e9\n"
        "g = 2.51327412287e8\ngamma = 2.19911485751e5\ntau = 1e-7\nT = 2.0\n",
        encoding="utf-8",
    )
    assert cli.main(["feasibility", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "N_th = " in out and "decoherence_time_s = " in out


def test_cli_feasibility_config_file_overlays_the_preset(tmp_path, capsys):
    # the file's fields replace the preset's, the others stay the preset's
    assert cli.main(["feasibility", "--preset", "nanobeam"]) == 0
    preset = capsys.readouterr().out
    assert "\nN_th = 10.7704352251\n" in preset
    conf = tmp_path / "warm.conf"
    conf.write_text("T = 50\n", encoding="utf-8")
    assert cli.main(["feasibility", "--preset", "nanobeam", "--config", str(conf)]) == 0
    out, err = capsys.readouterr()
    warm = dataclasses.replace(pr.FEASIBILITY_PRESETS["nanobeam"], T=50.0)
    assert f"\nN_th = {pr.feasibility(warm).N_th:.12g}\n" in out and err == ""
    assert "\nN_th = 10.7704352251\n" not in out
    # G, x and the flags other than `detectable` follow from the untouched fields
    changed = {a.split(" = ")[0] for a, b in zip(preset.splitlines(), out.splitlines()) if a != b}
    assert changed == {"N_th", "decoherence_time_s", "detectable"}, changed


def test_cli_feasibility_config_file_cannot_add_q_to_a_gamma_preset(tmp_path, capsys):
    conf = tmp_path / "q.conf"
    conf.write_text("Q = 1e6\n", encoding="utf-8")
    assert cli.main(["feasibility", "--preset", "nanobeam", "--config", str(conf)]) == 1
    assert capsys.readouterr() == ("", "error: provide exactly one of gamma or Q\n")


@pytest.mark.parametrize("name", ["omega_m", "T", "gamma"])
def test_cli_feasibility_rejects_infinite_values(tmp_path, capsys, name):
    fields = dict(omega_m="2.3e10", kappa="3.1e9", g="2.5e8", gamma="2.2e5", tau="1e-7", T="2.0")
    fields[name] = "inf"
    conf = tmp_path / "platform.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()), encoding="utf-8")
    assert cli.main(["feasibility", "--config", str(conf)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {name}=inf must be finite and > 0\n")


NANOBEAM_CONF = dict(
    omega_m="2.324778563656e10", kappa="3.14159265359e9", g="2.51327412287e8",
    gamma="2.19911485751e5", tau="1e-7", T="2.0",
)


@pytest.mark.parametrize("T", ["1e-5", "1e-310"])
def test_cli_feasibility_reports_a_frozen_bath(tmp_path, capsys, T):
    # expm1 overflows at 1e-5 K and k_B T underflows at 1e-310 K
    conf = tmp_path / "platform.conf"
    fields = dict(NANOBEAM_CONF, T=T)
    conf.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()), encoding="utf-8")
    assert cli.main(["feasibility", "--config", str(conf)]) == 0
    out, err = capsys.readouterr()
    assert "\nN_th = 0\n" in out and "\ndecoherence_time_s = inf\n" in out
    assert "\ndetectable = true\n" in out and err == ""


@pytest.mark.parametrize(
    "fields, lines",
    [
        # hbar omega_m underflows to 0
        (dict(omega_m="1e-300"), ("N_th = inf", "suppression = inf", "decoherence_time_s = 0")),
        # G is about 1e30, finite, but (kappa / omega_m)^2 overflows
        (dict(g="1e100", kappa="1e170"), ("y_G = 0", "suppression = inf")),
    ],
    ids=["hbar-omega-underflows", "suppression-overflows"],
)
def test_cli_feasibility_reports_infinite_values(tmp_path, capsys, fields, lines):
    conf = tmp_path / "platform.conf"
    fields = dict(NANOBEAM_CONF, **fields)
    conf.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()), encoding="utf-8")
    assert cli.main(["feasibility", "--config", str(conf)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    for line in lines:
        assert f"\n{line}\n" in out, line


def test_cli_feasibility_rejects_coupling_that_underflows(tmp_path, capsys):
    conf = tmp_path / "platform.conf"
    fields = dict(NANOBEAM_CONF, g="1e-170", kappa="1e200")
    conf.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()), encoding="utf-8")
    assert cli.main(["feasibility", "--config", str(conf)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: G = g^2/kappa = 0.0 is outside the float range for g=1e-170, kappa=1e+200\n"
    )


@pytest.mark.parametrize(
    "args, conf, error",
    [
        (["sweep", "--preset", "fig2", "--set", "r=abc"], None, "r='abc' is not a number"),
        (["sweep", "--preset", "fig2", "--set", "foo=1"], None, "unknown config field 'foo'"),
        (["sweep", "--preset", "fig2", "--set", "axis1=y", "--set", "axis1_lo=0",
          "--set", "axis1_hi=1", "--set", "axis1_n=many"], None,
         "axis1_n='many' is not a number"),
        (["sweep", "--preset", "fig2", "--set", "axis1=y", "--set", "axis1_lo=0",
          "--set", "axis1_n=3"], None, "axis 'axis1' needs axis1_values or axis1_hi"),
        (["feasibility"], dict(NANOBEAM_CONF, foo="1"), "unknown feasibility field 'foo'"),
        (["feasibility"], dict(NANOBEAM_CONF, T="cold"), "T='cold' is not a number"),
        (["feasibility"], {k: v for k, v in NANOBEAM_CONF.items() if k != "tau"},
         "missing feasibility field 'tau'"),
        (["sweep", "--preset", "fig2", "--set", "r=25"], None,
         "squeezing r=25.0 outside [0, 20)"),
    ],
    ids=["set-not-a-number", "set-unknown", "axis-not-a-number", "axis-missing-key",
         "feasibility-unknown", "feasibility-not-a-number", "feasibility-missing",
         "set-r-outside-domain"],
)
def test_cli_config_errors_name_the_field(tmp_path, capsys, args, conf, error):
    if conf is not None:
        path = tmp_path / "platform.conf"
        path.write_text("".join(f"{k} = {v}\n" for k, v in conf.items()), encoding="utf-8")
        args = [*args, "--config", str(path)]
    assert cli.main(args) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_cli_feasibility_needs_source(capsys):
    assert cli.main(["feasibility"]) == 2


def test_cli_sweep_needs_source(capsys):
    assert cli.main(["sweep"]) == 2


def test_cli_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--preset", "nonexistent"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["bogus-command"])
    assert info.value.code == 2
    capsys.readouterr()
    # --parallel N has no effect, but an N below 1 is rejected as usage
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--preset", "fig2", "--parallel", "0"])
    assert info.value.code == 2
    assert "argument --parallel: '0' is not an integer >= 1" in capsys.readouterr().err


def test_cli_missing_config_file_is_domain_error(capsys):
    assert cli.main(["sweep", "--config", "/nonexistent/path.conf"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "feasibility"])
def test_cli_names_the_missing_source(capsys, command):
    assert cli.main([command]) == 2
    assert capsys.readouterr() == ("", f"{command} needs --preset or --config\n")


@pytest.mark.parametrize("command", [[], ["sweep"], ["threshold"], ["feasibility"], ["selftest"]])
def test_cli_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as info:
        cli.main([*command, "--help"])
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(" ".join(["usage: micromacro", *command])) and err == ""


def test_cli_parallel_must_be_an_integer(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--preset", "fig2", "--parallel", "abc"])
    assert info.value.code == 2
    assert "argument --parallel: 'abc' is not an integer >= 1" in capsys.readouterr().err


def test_cli_log_scale_axis(tmp_path, capsys):
    conf = tmp_path / "log.conf"
    conf.write_text(
        "axis1 = N_D\naxis1_lo = 1\naxis1_hi = 100\naxis1_n = 3\naxis1_scale = log\n",
        encoding="utf-8",
    )
    assert cli.main(["sweep", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert [line.split(",")[0] for line in out.splitlines()] == ["N_D", "1", "10", "100"]
    spec = sw.SweepSpec(pr.ProtocolConfig(), sw.AxisSpec("N_D", sw.log_grid(1.0, 100.0, 3)))
    assert out == sw.run_sweep(spec)[0]


@pytest.mark.parametrize(
    "args, conf, error",
    [
        (["sweep", "--preset", "fig2", "--set", "axis1=y", "--set", "axis1_lo=0.1",
          "--set", "axis1_hi=0.2", "--set", "axis1_n=2", "--set", "axis1_scale=cubic"], None,
         "axis1_scale must be linear or log, got 'cubic'"),
        (["sweep", "--preset", "fig2", "--set", "series_values=1,2"], None,
         "['series_values'] given without 'series = <parameter>'"),
        (["sweep", "--preset", "fig2", "--set", "r"], None, "--set expects key=value, got 'r'"),
        (["threshold", "--preset", "fig5", "--set", "axis1_values=0.1", "--set", "axis1=y",
          "--param", "eta1", "--lo", "0", "--hi", "1"], None,
         "axis keys ['axis1', 'axis1_values'] are not valid here"),
        (["threshold", "--param", "eta1", "--lo", "0", "--hi", "1"], "series = N_in\n",
         "axis keys ['series'] are not valid here"),
        (["sweep"], "sigma = 0\n", "sweep needs an axis1 (from a preset or axis1 keys)"),
        # of several bad inputs the first is reported: axis1 is built first,
        # then the config, then axis2 and the series
        (["sweep", "--preset", "fig2", "--set", "r=abc", "--set", "axis1=y",
          "--set", "axis1_lo=0"], None,
         "axis 'axis1' needs axis1_values or axis1_hi"),
        (["sweep", "--preset", "fig2", "--set", "r=abc", "--set", "axis2=x",
          "--set", "axis2_lo=0"], None, "r='abc' is not a number"),
        (["sweep", "--preset", "fig2", "--set", "r=abc", "--set", "series=N_in",
          "--set", "series_lo=0"], None, "r='abc' is not a number"),
        (["sweep", "--preset", "fig2", "--set", "axis2=x", "--set", "axis2_lo=0",
          "--set", "series=N_in", "--set", "series_lo=0"], None,
         "axis 'axis2' needs axis2_values or axis2_hi"),
        # a preset's fields come first, in field order; without a preset the
        # keys are checked in the order they are given
        (["sweep", "--preset", "fig2", "--set", "foo=1", "--set", "r=abc"], None,
         "r='abc' is not a number"),
        (["sweep"], "axis1 = y\naxis1_values = 0.1\nfoo = 1\nr = abc\n",
         "unknown config field 'foo'"),
        (["sweep", "--set", "r=abc"], "axis1 = y\naxis1_values = 0.1\nfoo = 1\n",
         "unknown config field 'foo'"),
        # both sources are split before any key is read: the file first
        (["sweep", "--preset", "fig2", "--set", "r"], "oops\n",
         "line 1: expected 'key = value', got 'oops'"),
        (["threshold", "--set", "r", "--param", "eta1", "--lo", "0", "--hi", "1"],
         "axis1 = y\n", "--set expects key=value, got 'r'"),
        (["threshold", "--set", "axis2=x", "--param", "eta1", "--lo", "0", "--hi", "1"],
         "axis1 = y\n", "axis keys ['axis1'] are not valid here"),
        (["feasibility", "--preset", "nanobeam"], "foo = 1\nT = cold\n",
         "unknown feasibility field 'foo'"),
        (["feasibility", "--preset", "nanobeam"], "T = cold\nfoo = 1\n",
         "T='cold' is not a number"),
    ],
    ids=["bad-scale", "group-without-parameter", "set-without-equals", "threshold-axis-set",
         "threshold-axis-file", "config-without-axis1", "axis1-before-config",
         "config-before-axis2", "config-before-series", "axis2-before-series", "preset-field-order", "file-key-order", "file-before-set",
         "file-split-first", "set-split-before-keys", "file-axis-keys-first",
         "feasibility-unknown-first", "feasibility-number-first"],
)
def test_cli_input_errors(tmp_path, capsys, args, conf, error):
    if conf is not None:
        path = tmp_path / "input.conf"
        path.write_text(conf, encoding="utf-8")
        args = [*args, "--config", str(path)]
    assert cli.main(args) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


SELFTEST_CASES = (
    "channel coefficient closure (32x32 grid)",
    "ideal pipeline log-negativity = 2r",
    "N_D threshold = closed-form witness root",
    "fock pure-loss concurrence",
)


def test_cli_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"ok   {n}" for n in SELFTEST_CASES]
    assert lines[-1] == "selftest: 4/4 passed"


def _closure_defect(monkeypatch):
    build = ch.channel_coefficients

    def broken(x, y):
        coeffs = build(x, y)
        return dataclasses.replace(coeffs, c1=coeffs.c1 * (1.0 + 1e-9))

    monkeypatch.setattr(ch, "channel_coefficients", broken)


def _squeezing_scaled(monkeypatch):
    tmsv = ch._tmsv_entries
    monkeypatch.setattr(ch, "_tmsv_entries", lambda r: tmsv(1.001 * r))


def _threshold_shifted(monkeypatch):
    find = pr.find_threshold
    monkeypatch.setattr(pr, "find_threshold", lambda *args, **kw: find(*args, **kw) + 1.0)


def _concurrence_off(monkeypatch):
    run = pr.run_fock_protocol

    def broken(config):
        result = run(config)
        return dataclasses.replace(result, concurrence=result.concurrence + 1e-6)

    monkeypatch.setattr(pr, "run_fock_protocol", broken)


@pytest.mark.parametrize(
    "fault, case",
    zip((_closure_defect, _squeezing_scaled, _threshold_shifted, _concurrence_off),
        SELFTEST_CASES),
    ids=["closure", "2r", "threshold", "pure-loss"],
)
def test_cli_selftest_fails_on_a_broken_closed_form(monkeypatch, capsys, fault, case):
    fault(monkeypatch)
    assert cli.main(["selftest"]) == 1
    assert f"\nFAIL {case}: " in "\n" + capsys.readouterr().out
