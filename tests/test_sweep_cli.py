"""Tests for the sweep engine, figure presets, config parsing and the CLI."""

import dataclasses
import math
import sys
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


def test_run_sweep_reports_failing_coordinates():
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(**FOCK_BASE),
        axis1=sw.AxisSpec("y", (0.5, 1.5)),  # y > 1 is rejected
    )
    with pytest.raises(RuntimeError, match=r"\(y=1.5\) failed: coupling parameter y=1.5"):
        sw.run_sweep(spec)
    # an engine failure, not a config rejection: at N_th = 1e15 the qubit
    # block's weight is below the projection's floor
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(**FOCK_BASE),
        axis1=sw.AxisSpec("y", (0.1, 0.5)),
        series=sw.AxisSpec("N_th", (0.3, 1e15)),
    )
    with pytest.raises(
        RuntimeError,
        match=r"^sweep point \(y=0.1, N_th=1e\+15\) failed: qubit projection weight .* is degenerate$",
    ) as caught:
        sw.run_sweep(spec)
    assert isinstance(caught.value.__cause__, ArithmeticError)


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


def test_cli_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--preset", "nonexistent"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["bogus-command"])
    assert info.value.code == 2


def test_cli_missing_config_file_is_domain_error(capsys):
    assert cli.main(["sweep", "--config", "/nonexistent/path.conf"]) == 1
    assert "error:" in capsys.readouterr().err


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
