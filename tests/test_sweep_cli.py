"""Tests for the sweep engine, figure presets, config parsing and the CLI."""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

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
    axis = sw.AxisSpec("y", [0.1, 0.5])
    assert axis.values == (0.1, 0.5)
    with pytest.raises(ValueError, match="integer"):
        sw.AxisSpec("fock_dims", (8, 8.5))
    axis = sw.AxisSpec("fock_dims", (8.0, 12))
    assert axis.values == (8, 12)
    assert all(type(v) is int for v in axis.values)


def test_grids():
    assert sw.linear_grid(0.0, 1.0, 5) == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert sw.linear_grid(0.3, 0.9, 1) == (0.3,)
    log = sw.log_grid(1.0, 100.0, 3)
    assert abs(log[1] - 10.0) < 1e-12
    with pytest.raises(ValueError):
        sw.log_grid(0.0, 10.0, 3)


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
    # Gaussian sweeps run as one batch; the thread pool serves Fock points,
    # and 6 levels at N_th = 20 make the sidecar report truncation.
    fock = sw.SweepSpec(
        base=pr.ProtocolConfig(**dict(FOCK_BASE, fock_dims=6)),
        axis1=sw.AxisSpec("y", (0.1, 0.3)),
        series=sw.AxisSpec("N_th", (0.3, 20.0)),
    )
    for spec in (gaussian, fock):
        serial = sw.run_sweep(spec, workers=1)
        for workers in (2, 8):
            assert sw.run_sweep(spec, workers=workers) == serial
        with pytest.raises(ValueError):
            sw.run_sweep(spec, workers=0)
    assert sw.run_sweep(fock)[1], "expected truncation warnings in the sidecar"


def test_run_sweep_reports_failing_coordinates():
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(engine="fock", N_th=0.3, sigma=0.0, eta_c=1.0),
        axis1=sw.AxisSpec("fock_dims", (1.0, 8.0)),  # one level is rejected
    )
    with pytest.raises(RuntimeError, match="fock_dims=1"):
        sw.run_sweep(spec)


def test_gaussian_batch_reports_first_failing_coordinates():
    # tmsv_state rejects r >= 20 inside the batch; the error names the first
    # failing point in sweep order, with the single-point message as cause.
    spec = sw.SweepSpec(base=pr.ProtocolConfig(), axis1=sw.AxisSpec("r", (0.5, 25.0)))
    with pytest.raises(RuntimeError, match=r"\(r=25\) failed: squeezing parameter r=25"):
        sw.run_sweep(spec)
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(),
        axis1=sw.AxisSpec("y", (0.1, 0.5)),
        series=sw.AxisSpec("r", (0.5, 21.0, 25.0)),
    )
    with pytest.raises(RuntimeError, match=r"\(y=0.1, r=21\) failed") as caught:
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


def test_run_sweep_over_fock_cutoff_converges():
    # FOCK_BASE has converged by 8 levels: every cutoff prints the same
    # 12-digit concurrence (the values agree to ~3e-14 from 8 to 24 levels).
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(**FOCK_BASE),
        axis1=sw.AxisSpec("fock_dims", (8, 12, 16)),
    )
    csv_text, sidecar = sw.run_sweep(spec)
    rows = [line.split(",") for line in csv_text.splitlines()]
    assert rows[0] == ["fock_dims", "concurrence"]
    assert [row[0] for row in rows[1:]] == ["8", "12", "16"]
    assert len({row[1] for row in rows[1:]}) == 1, rows
    assert sidecar == ()


def test_cli_sweep_over_fock_cutoff(tmp_path):
    out = tmp_path / "cutoff.csv"
    code = cli.main([
        "sweep", "--config", "/dev/null",
        "--set", "engine=fock", "--set", "axis1=fock_dims", "--set", "axis1_values=8,12",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines] == ["fock_dims", "8", "12"]


def test_run_sweep_collects_truncation_warnings():
    spec = sw.SweepSpec(
        # A hot bath: the storage channel's amplifier pushes 0.81 of the
        # trace past the cutoff at y = 0.5.
        base=pr.ProtocolConfig(
            engine="fock", N_th=1000.0, x=0.1, sigma=0.0, eta_c=1.0,
        ),
        axis1=sw.AxisSpec("y", (0.1, 0.5)),
    )
    csv_text, sidecar = sw.run_sweep(spec)
    assert len(csv_text.splitlines()) == 3
    assert any("TruncationWarning" in line for line in sidecar)


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


@pytest.mark.filterwarnings("ignore::micromacro.fock.TruncationWarning")
def test_preset_figA1_structure():
    spec = sw.preset("figA1")
    assert spec.base.engine == "fock"
    assert spec.base.eta_c == 1.0
    assert spec.axis1.parameter == "N_D"
    assert spec.series.values == (0.005, 0.01, 0.02)


def _csv_cells(lines):
    return np.array([[float(cell) for cell in line.split(",")] for line in lines])


@pytest.mark.filterwarnings("ignore::micromacro.fock.TruncationWarning")
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


def test_preset_bases_serialize_round_trip():
    for name in sw.PRESET_NAMES:
        base = sw.preset_base(name)
        text = cli.format_config(base)
        rebuilt = pr.config_from_mapping(cli.parse_config_text(text))
        assert rebuilt == base, name


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


def test_cli_sweep_writes_sidecar_log(tmp_path):
    out = tmp_path / "fock.csv"
    code = cli.main([
        "sweep", "--config", "/dev/null",
        "--set", "engine=fock", "--set", "N_th=1000", "--set", "x=0.1",
        "--set", "sigma=0", "--set", "eta_c=1.0",
        "--set", "axis1=y", "--set", "axis1_values=0.5",
        "--out", str(out),
    ])
    assert code == 0
    log = tmp_path / "fock.csv.log"
    assert log.exists()
    assert "TruncationWarning" in log.read_text(encoding="utf-8")


def test_cli_preset_threshold_warnings_go_to_sidecar(tmp_path, capsys):
    # figA1 bisects its N_D axis while the spec is assembled, before the
    # sweep runs; those warnings belong in the sidecar too, never on stderr.
    out = tmp_path / "figA1.csv"
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        assert cli.main(["sweep", "--preset", "figA1", "--out", str(out)]) == 0
    assert leaked == []
    assert capsys.readouterr().err == ""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        csv_text, sweep_lines = sw.run_sweep(sw.preset("figA1"))
    assert out.read_bytes() == csv_text.encode("utf-8")
    log = (tmp_path / "figA1.csv.log").read_text(encoding="utf-8").splitlines()
    assert log == sorted(set(log))
    assert set(sweep_lines) < set(log)
    assert all(line.startswith("TruncationWarning: ") for line in log)


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
    out = capsys.readouterr().out
    value = float(out.split("=")[1])
    assert 0.3 <= value <= 0.5


def test_cli_threshold_bracket_error(capsys):
    code = cli.main([
        "threshold", "--preset", "fig2", "--param", "y", "--lo", "0.2", "--hi", "0.3",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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


def test_cli_selftest_passes():
    assert cli.main(["selftest"]) == 0
