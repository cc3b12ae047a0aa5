"""Command-line front end: sweeps, threshold finding, feasibility, selftest.

Subcommands
-----------
sweep        evaluate a figure preset or a config-file-defined sweep to CSV
threshold    find the parameter value where entanglement vanishes (Brent search)
feasibility  derive the channel operating point from platform parameters
selftest     run the built-in invariant suite

Config files are flat UTF-8 ``key = value`` text with ``#`` comments.  Keys
are ProtocolConfig field names, plus (for sweeps) axis descriptors:
``axis1 = y`` with either ``axis1_values = 0.1,0.2,0.3`` or
``axis1_lo/axis1_hi/axis1_n`` (and optional ``axis1_scale = linear|log``),
the same for ``axis2``, and ``series``/``series_values``.  Override
precedence: ``--set key=value`` beats the config file, which beats the
preset.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
import warnings

import numpy as np

from . import fock as fk
from . import gaussian as ga
from . import protocol as pr
from . import sweep as sw

_AXIS_PREFIXES = ("axis1", "axis2", "series")
_AXIS_SUFFIXES = ("", "_values", "_lo", "_hi", "_n", "_scale")
AXIS_KEYS = tuple(p + s for p in _AXIS_PREFIXES for s in _AXIS_SUFFIXES)


def parse_config_text(text):
    """Parse flat ``key = value`` text (# comments, blank lines) to a str dict."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def format_config(config):
    """Serialize a ProtocolConfig as flat key = value text (round-trip exact)."""
    lines = []
    for name, value in pr.config_to_mapping(config).items():
        if isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"


def _axis_group(prefix, axis):
    if axis is None:
        return {}
    return {
        prefix: axis.parameter,
        f"{prefix}_values": ",".join(repr(v) for v in axis.values),
    }


def _merge_axis_keys(target, overlay):
    """Overlay axis keys group-wise: any key of a prefix replaces that whole group."""
    for prefix in _AXIS_PREFIXES:
        if any(k == prefix or k.startswith(prefix + "_") for k in overlay):
            for key in list(target):
                if key == prefix or key.startswith(prefix + "_"):
                    del target[key]
    target.update(overlay)


def _build_axis(prefix, mapping):
    parameter = mapping.get(prefix)
    group_keys = [k for k in mapping if k == prefix or k.startswith(prefix + "_")]
    if parameter is None:
        if group_keys:
            raise ValueError(f"{group_keys} given without '{prefix} = <parameter>'")
        return None
    if f"{prefix}_values" in mapping:
        values = tuple(
            float(tok) for tok in str(mapping[f"{prefix}_values"]).split(",") if tok.strip()
        )
        return sw.AxisSpec(parameter, values)
    try:
        lo = float(mapping[f"{prefix}_lo"])
        hi = float(mapping[f"{prefix}_hi"])
        n = pr._integer(f"{prefix}_n", float(mapping[f"{prefix}_n"]))
    except KeyError as missing:
        raise ValueError(f"axis '{prefix}' needs {prefix}_values or {missing} ") from None
    if n < 1:
        raise ValueError(f"{prefix}_n={n} must be >= 1")
    scale = str(mapping.get(f"{prefix}_scale", "linear"))
    if scale == "log":
        return sw.AxisSpec(parameter, sw.log_grid(lo, hi, n))
    if scale == "linear":
        return sw.AxisSpec(parameter, sw.linear_grid(lo, hi, n))
    raise ValueError(f"{prefix}_scale must be linear or log, got {scale!r}")


def _split_keys(mapping):
    axis = {k: v for k, v in mapping.items() if k in AXIS_KEYS}
    config = {k: v for k, v in mapping.items() if k not in AXIS_KEYS}
    return axis, config


def _parse_set_pairs(pairs):
    mapping = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _assemble_sweep_spec(ns):
    axis_keys, config_keys = {}, {}
    if ns.preset:
        built = sw.preset(ns.preset)
        config_keys.update(pr.config_to_mapping(built.base))
        for prefix, axis in (
            ("axis1", built.axis1), ("axis2", built.axis2), ("series", built.series)
        ):
            axis_keys.update(_axis_group(prefix, axis))
    for source in (_file_mapping(ns.config), _parse_set_pairs(ns.set)):
        overlay_axis, overlay_config = _split_keys(source)
        _merge_axis_keys(axis_keys, overlay_axis)
        config_keys.update(overlay_config)
    axis1 = _build_axis("axis1", axis_keys)
    if axis1 is None:
        raise ValueError("sweep needs an axis1 (from a preset or axis1 keys)")
    return sw.SweepSpec(
        base=pr.config_from_mapping(config_keys),
        axis1=axis1,
        axis2=_build_axis("axis2", axis_keys),
        series=_build_axis("series", axis_keys),
    )


def _file_mapping(path):
    if not path:
        return {}
    with open(path, encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def _cmd_sweep(ns):
    # a preset's threshold axis runs the engine while the spec is assembled;
    # its warnings join the sweep's own in the sidecar
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = _assemble_sweep_spec(ns)
    csv_text, sidecar = sw.run_sweep(spec, workers=ns.parallel)
    sidecar = tuple(sorted(set(sidecar + sw.warning_lines(caught))))
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(csv_text)
        if sidecar:
            with open(ns.out + ".log", "w", encoding="utf-8") as handle:
                handle.write("\n".join(sidecar) + "\n")
    else:
        sys.stdout.write(csv_text)
        for line in sidecar:
            print(line, file=sys.stderr)
    return 0


def _base_config_from(ns):
    config_keys = {}
    if ns.preset:
        config_keys.update(pr.config_to_mapping(sw.preset_base(ns.preset)))
    for source in (_file_mapping(ns.config), _parse_set_pairs(ns.set)):
        axis_keys, overlay = _split_keys(source)
        if axis_keys:
            raise ValueError(f"axis keys {sorted(axis_keys)} are not valid here")
        config_keys.update(overlay)
    return pr.config_from_mapping(config_keys)


def _cmd_threshold(ns):
    config = _base_config_from(ns)
    value = pr.find_threshold(config, ns.param, (ns.lo, ns.hi), tol=ns.tol)
    print(f"{ns.param}_threshold = {value:.12g}")
    return 0


def _cmd_feasibility(ns):
    if ns.preset:
        params = pr.FEASIBILITY_PRESETS[ns.preset]
    elif ns.config:
        raw = _file_mapping(ns.config)
        params = pr.FeasibilityInput(
            **{key: float(value) for key, value in raw.items()}
        )
    else:
        print("feasibility needs --preset or --config", file=sys.stderr)
        return 2
    report = pr.feasibility(params)
    print(f"G_rad_per_s = {report.G:.12g}")
    print(f"G_over_2pi_Hz = {report.G / (2.0 * math.pi):.12g}")
    print(f"x = {report.x:.12g}")
    print(f"y_G = {report.y_G:.12g}")
    print(f"y_Gprime = {report.y_Gprime:.12g}")
    print(f"N_th = {report.N_th:.12g}")
    print(f"suppression = {report.suppression:.12g}")
    print(f"decoherence_time_s = {report.decoherence_time:.12g}")
    print(f"resolved_sideband = {'true' if report.resolved_sideband else 'false'}")
    print(f"adiabatic = {'true' if report.adiabatic else 'false'}")
    print(f"detectable = {'true' if report.detectable else 'false'}")
    for note in report.notes:
        print(f"# {note}")
    return 0


def _selftest_cases():
    def closure():
        rng = np.random.default_rng(20240117)
        worst = 0.0
        for _ in range(1000):
            coeffs = ga.channel_coefficients(rng.uniform(0, 1), rng.uniform(0.01, 0.99))
            worst = max(worst, coeffs.closure_defect)
        assert worst < 1e-12, f"worst closure defect {worst}"
        return f"worst defect {worst:.2e}"

    def ideal_pipeline():
        config = pr.ProtocolConfig(
            r=0.5, N_D=0.0, y=1e-9, x=0.0, N_in=0.0, N_th=0.0,
            sigma=0.0, eta1=1.0, eta2=1.0, eta_c=1.0,
        )
        value = pr.run_gaussian_protocol(config).log_negativity
        assert abs(value - 1.0) < 1e-10, f"log-negativity {value}"
        return f"log-negativity {value:.12f}"

    def threshold_bands():
        base = pr.ProtocolConfig()
        x_star = pr.find_threshold(base, "x", (1e-6, 1.0))
        eta_star = pr.find_threshold(base, "eta1", (0.1, 0.9))
        assert 0.1 <= base.N_th * x_star <= 0.4, f"N_th*x* = {base.N_th * x_star}"
        assert 0.3 <= eta_star <= 0.5, f"eta1* = {eta_star}"
        return f"N_th*x* = {base.N_th * x_star:.4f}, eta1* = {eta_star:.4f}"

    def cross_engine():
        coeffs = ga.channel_coefficients(0.05, 0.3)
        rho = fk.two_mode_squeezed_state(0.2, (16, 16))
        rho = fk.linear_channel_apply(rho, coeffs, 0.2, 0.5)
        mean_f, cov_f = fk.quadrature_moments(rho)
        state = ga.storage_retrieval_channel(ga.tmsv_state(0.2), coeffs, 0.2, 0.5)
        delta = max(np.max(np.abs(mean_f - state.mean)), np.max(np.abs(cov_f - state.cov)))
        assert delta < 1e-4, f"moment delta {delta}"
        return f"moment delta {delta:.2e}"

    def fock_ideal():
        config = pr.ProtocolConfig(
            engine="fock", N_D=0.0, y=1e-9, x=0.0, N_in=0.0, N_th=0.0,
            sigma=0.0, eta1=1.0, eta2=1.0, eta_c=1.0,
        )
        value = pr.run_fock_protocol(config).concurrence
        assert abs(value - 1.0) < 1e-6, f"concurrence {value}"
        return f"concurrence {value:.9f}"

    def sweep_determinism():
        # One thread, one order: the unused worker count cannot change output.
        gaussian = sw.SweepSpec(
            base=pr.ProtocolConfig(),
            axis1=sw.AxisSpec("y", sw.linear_grid(0.05, 0.5, 5)),
            series=sw.AxisSpec("N_in", (0.0, 1.0)),
        )
        fock = sw.SweepSpec(
            base=pr.ProtocolConfig(engine="fock", sigma=0.0, eta_c=1.0, fock_dims=6),
            axis1=sw.AxisSpec("y", (0.1, 0.3)),
            series=sw.AxisSpec("N_th", (0.3, 20.0)),
        )
        lines = 0
        for spec in (gaussian, fock):
            serial = sw.run_sweep(spec, workers=1)
            for workers in (2, 8):
                parallel = sw.run_sweep(spec, workers=workers)
                assert parallel == serial, f"{workers} workers changed the CSV or sidecar"
            lines += len(serial[0].splitlines())
        return f"{lines} identical lines at 1, 2 and 8 workers"

    return (
        ("channel coefficient closure (1000 random points)", closure),
        ("ideal pipeline log-negativity = 2r", ideal_pipeline),
        ("damping and loss threshold bands", threshold_bands),
        ("fock/gaussian moment agreement", cross_engine),
        ("ideal fock concurrence", fock_ideal),
        ("sweep determinism across workers", sweep_determinism),
    )


def _cmd_selftest(_ns):
    failures = 0
    for name, case in _selftest_cases():
        start = time.perf_counter()
        try:
            detail = case()
            status = "ok"
        except AssertionError as exc:
            detail = str(exc)
            status = "FAIL"
            failures += 1
        elapsed = time.perf_counter() - start
        print(f"{status:4s} {name}: {detail} [{elapsed:.2f}s]")
    total = len(_selftest_cases())
    print(f"selftest: {total - failures}/{total} passed")
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="micromacro",
        description="Micro-macro entanglement pipeline: sweeps, thresholds, feasibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter sweep to CSV")
    p_sweep.add_argument("--preset", choices=sw.PRESET_NAMES, help="figure preset")
    p_sweep.add_argument("--config", metavar="FILE", help="flat key = value sweep file")
    p_sweep.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a single key"
    )
    p_sweep.add_argument("--out", metavar="FILE", help="CSV output path (default stdout)")
    p_sweep.add_argument("--parallel", type=int, default=1, metavar="N", help="no effect (N >= 1)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_thr = sub.add_parser("threshold", help="find where entanglement vanishes")
    p_thr.add_argument("--preset", choices=sw.PRESET_NAMES, help="base config preset")
    p_thr.add_argument("--config", metavar="FILE", help="base config file")
    p_thr.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_thr.add_argument("--param", required=True, help="config field to search")
    p_thr.add_argument("--lo", required=True, type=float, help="bracket lower edge")
    p_thr.add_argument("--hi", required=True, type=float, help="bracket upper edge")
    p_thr.add_argument("--tol", type=float, default=1e-5, help="bracket width target")
    p_thr.set_defaults(handler=_cmd_threshold)

    p_feas = sub.add_parser("feasibility", help="platform operating-point report")
    p_feas.add_argument(
        "--preset", choices=sorted(pr.FEASIBILITY_PRESETS), help="built-in platform"
    )
    p_feas.add_argument("--config", metavar="FILE", help="platform parameter file")
    p_feas.set_defaults(handler=_cmd_feasibility)

    p_self = sub.add_parser("selftest", help="run the built-in invariant suite")
    p_self.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "sweep" and not (ns.preset or ns.config):
        print("sweep needs --preset or --config", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings():
            if ns.command != "sweep":
                warnings.simplefilter("default")
            return ns.handler(ns)
    except (ValueError, KeyError, ArithmeticError, RuntimeError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
