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
the same for ``axis2``, and ``series``/``series_values``.

Each command reads its inputs once as layers (``_layers``): the
``--config`` file's mapping, then the ``--set key=value`` pairs'
(``feasibility`` has none), both split before any key is read.  ``sweep``
and ``threshold`` overlay them on the preset's config or the defaults,
``feasibility`` on the preset's platform or on nothing; a later layer wins,
and replaces an axis group whole.  Of several bad inputs the first reported
is, in this order: a source that does not split (the file first), axis keys
where none are taken, axis1's group, the config's keys (a preset's in field
order, then as given), axis2's group, the series group.  Exit codes: 0
success, 1 domain error, 2 usage error.

``run`` is the process entry (``micromacro`` and ``python -m micromacro.cli``);
``main`` is the in-process API.  ``run`` freezes the garbage collector when
``main`` returns or raises: interpreter shutdown runs full collections over
every object still alive, most of them left by NumPy's import, and skips
frozen ones.  ``main`` never touches the collector, since a caller that goes on
running (a test, a script, the benchmark's tracer) still needs it to collect
what it leaves.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import sys
import time

from . import channel as ch
from . import protocol as pr
from . import sweep as sw

_AXIS_PREFIXES = ("axis1", "axis2", "series")
_AXIS_SUFFIXES = ("", "_values", "_lo", "_hi", "_n", "_scale")
AXIS_KEYS = tuple(p + s for p in _AXIS_PREFIXES for s in _AXIS_SUFFIXES)


def _pairs(entries):
    """The str dict of ``key = value`` entries, each split at its first '='
    and stripped; an entry is (its text, the message of the ValueError that
    an entry without '=' raises)."""
    mapping = {}
    for text, message in entries:
        if "=" not in text:
            raise ValueError(message)
        key, value = text.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def parse_config_text(text):
    """Parse flat ``key = value`` text (# comments, blank lines) to a str dict."""
    return _pairs(
        (line, f"line {lineno}: expected 'key = value', got {raw!r}")
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0].strip())
    )


def _layers(path, pairs=None):
    """A command's input layers, in overlay order: the mapping of the config
    file at `path` (if any), then that of the ``--set`` `pairs`.  Both are
    split before any key is read."""
    layers = []
    if path:
        with open(path, encoding="utf-8") as handle:
            layers.append(parse_config_text(handle.read()))
    layers.append(_pairs((pair, f"--set expects key=value, got {pair!r}") for pair in pairs or ()))
    return layers


def _build_axis(prefix, mapping):
    """The AxisSpec of one prefix's key group (`mapping` holds only that group)."""
    parameter = mapping.get(prefix)
    if parameter is None:
        raise ValueError(f"{list(mapping)} given without '{prefix} = <parameter>'")
    if f"{prefix}_values" in mapping:
        values = tuple(
            pr._number(f"{prefix}_values", tok.strip())
            for tok in str(mapping[f"{prefix}_values"]).split(",")
            if tok.strip()
        )
        return sw.AxisSpec(parameter, values)
    try:
        lo = pr._number(f"{prefix}_lo", mapping[f"{prefix}_lo"])
        hi = pr._number(f"{prefix}_hi", mapping[f"{prefix}_hi"])
        n = pr._integer(f"{prefix}_n", pr._number(f"{prefix}_n", mapping[f"{prefix}_n"]))
    except KeyError as missing:
        raise ValueError(f"axis '{prefix}' needs {prefix}_values or {missing.args[0]}") from None
    if n < 1:
        raise ValueError(f"{prefix}_n={n} must be >= 1")
    scale = str(mapping.get(f"{prefix}_scale", "linear"))
    if scale == "log":
        return sw.AxisSpec(parameter, sw.log_grid(lo, hi, n))
    if scale == "linear":
        return sw.AxisSpec(parameter, sw.linear_grid(lo, hi, n))
    raise ValueError(f"{prefix}_scale must be linear or log, got {scale!r}")


def _overlay(keys, layers, axes=None):
    """`keys` (config field -> value) overlaid by each of `layers` in turn.

    Axis keys are valid only where `axes` (prefix -> AxisSpec or None) is
    given: per prefix, the last layer that names any key of its group
    replaces the whole group, and `axes` then holds that layer's keys.
    """
    for layer in layers:
        axis_keys = [key for key in layer if key in AXIS_KEYS]
        if axis_keys and axes is None:
            raise ValueError(f"axis keys {sorted(axis_keys)} are not valid here")
        for prefix in _AXIS_PREFIXES:
            group = {key: layer[key] for key in axis_keys if key.startswith(prefix)}
            if group:
                axes[prefix] = group
        keys.update((key, value) for key, value in layer.items() if key not in AXIS_KEYS)
    return keys


def _cmd_sweep(ns):
    # a preset's axes stay AxisSpecs unless a layer replaces their group
    axes = dict.fromkeys(_AXIS_PREFIXES)
    keys = {}
    if ns.preset:
        built = sw.preset(ns.preset)
        keys = dataclasses.asdict(built.base)
        axes.update(axis1=built.axis1, axis2=built.axis2, series=built.series)
    keys = _overlay(keys, _layers(ns.config, ns.set), axes)

    def axis(prefix):
        group = axes[prefix]
        return _build_axis(prefix, group) if isinstance(group, dict) else group

    axis1 = axis("axis1")
    if axis1 is None:
        raise ValueError("sweep needs an axis1 (from a preset or axis1 keys)")
    # of several bad inputs the first in this order is reported: axis1, the
    # config, axis2, the series
    spec = sw.SweepSpec(
        base=pr.config_from_mapping(keys),
        axis1=axis1,
        axis2=axis("axis2"),
        series=axis("series"),
    )
    csv_text, _ = sw.run_sweep(spec)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_threshold(ns):
    keys = dataclasses.asdict(sw.preset_base(ns.preset)) if ns.preset else {}
    base = pr.config_from_mapping(_overlay(keys, _layers(ns.config, ns.set)))
    value = pr.find_threshold(base, ns.param, (ns.lo, ns.hi), ns.tol)
    print(f"{ns.param}_threshold = {value:.12g}")
    return 0


def _cmd_feasibility(ns):
    fields = dataclasses.fields(pr.FeasibilityInput)
    # the file's fields overlay the preset's
    values = dataclasses.asdict(pr.FEASIBILITY_PRESETS[ns.preset]) if ns.preset else {}
    for layer in _layers(ns.config):
        for key, raw in layer.items():
            if key not in {field.name for field in fields}:
                raise ValueError(f"unknown feasibility field {key!r}")
            values[key] = pr._number(key, raw)
    missing = [
        field.name for field in fields
        if field.default is dataclasses.MISSING and field.name not in values
    ]
    if missing:
        raise ValueError(f"missing feasibility field {', '.join(map(repr, missing))}")
    report = pr.feasibility(pr.FeasibilityInput(**values))
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
    """(name, check) pairs; each check compares an engine with a closed form."""

    def closure():
        worst = 0.0
        for x in sw.linear_grid(0.0, 1.0, 32):
            for y in sw.linear_grid(0.01, 0.99, 32):
                worst = max(worst, ch.channel_coefficients(x, y).closure_defect)
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

    def n_d_threshold():
        # N_D enters only the phase-noise variance, where the witness is
        # linear: its root follows from the witness at N_D = 0 and N_D = N_1
        base = pr.ProtocolConfig()
        w0 = pr.run_gaussian_protocol(dataclasses.replace(base, N_D=0.0)).witness
        w1 = pr.run_gaussian_protocol(base).witness
        root = -w0 * base.N_D / (w1 - w0)
        found = pr.find_threshold(base, "N_D", (1.0, 1e7), tol=1.0)
        assert abs(found - root) <= 0.5, f"N_D* = {found}, closed form {root}"
        return f"N_D* = {found:.2f}, closed form {root:.2f}"

    def fock_pure_loss():
        # without noise every stage is pure loss: C = (1 - y^2) sqrt(eta1 eta2 eta_c)
        config = pr.ProtocolConfig(
            engine="fock", y=0.3, x=0.0, N_in=0.0, N_th=0.0,
            sigma=0.0, eta1=0.9, eta2=0.8, eta_c=0.7,
        )
        value = pr.run_fock_protocol(config).concurrence
        exact = (1.0 - 0.3**2) * math.sqrt(0.9 * 0.8 * 0.7)
        assert abs(value - exact) < 1e-8, f"concurrence {value}, closed form {exact}"
        return f"concurrence {value:.9f}, closed form {exact:.9f}"

    return (
        ("channel coefficient closure (32x32 grid)", closure),
        ("ideal pipeline log-negativity = 2r", ideal_pipeline),
        ("N_D threshold = closed-form witness root", n_d_threshold),
        ("fock pure-loss concurrence", fock_pure_loss),
    )


def _cmd_selftest(_ns):
    cases = _selftest_cases()
    failures = 0
    for name, case in cases:
        start = time.perf_counter()
        try:
            detail = case()
            status = "ok"
        except Exception as exc:  # a check that raises fails, as one that asserts
            detail = str(exc)
            status = "FAIL"
            failures += 1
        elapsed = time.perf_counter() - start
        print(f"{status:4s} {name}: {detail} [{elapsed:.2f}s]")
    print(f"selftest: {len(cases) - failures}/{len(cases)} passed")
    return 0 if failures == 0 else 1


def _positive_int(text):
    """argparse type of --parallel: an integer >= 1, else a usage error."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")


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
    p_sweep.add_argument(
        "--parallel", type=_positive_int, default=1, metavar="N", help="no effect (N >= 1)"
    )
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
    if ns.command in ("sweep", "feasibility") and not (ns.preset or ns.config):
        print(f"{ns.command} needs --preset or --config", file=sys.stderr)
        return 2
    try:
        return ns.handler(ns)
    # a Warning arrives as an exception when warnings are errors (PYTHONWARNINGS=error)
    except (
        ValueError, KeyError, ArithmeticError, RuntimeError, OSError, TypeError, Warning
    ) as exc:
        # str() of a KeyError is the repr of its message: print the message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def run(argv=None):
    """Process entry: ``main(argv)``'s exit code, with the collector frozen
    on every way out, so that shutdown's full collections skip what exists."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
