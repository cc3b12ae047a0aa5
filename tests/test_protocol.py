"""Tests for the pipeline composition, threshold search and feasibility math."""

import ast
import dataclasses
import gc
import itertools
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from micromacro import channel as ch
from micromacro import fock as fk
from micromacro import gaussian as ga
from micromacro import protocol as pr
from micromacro import sweep as sw

# Regression pins for the default configuration (12+ digits, frozen).
EN_DEFAULT_PROPAGATED = 0.11930577440575094
EN_DEFAULT_LITERAL = 0.08653035316830768
FOCK_BASE = dict(engine="fock", N_th=0.3, sigma=0.0, eta_c=1.0)
# Pinned from the truncated engine, converged at 12, 16 and 24 levels; the
# closed form lies within 1.6e-14 of them.
FOCK_BASE_CONCURRENCE = 0.7021978740339806
FOCK_BASE_PROJECTION = 0.9925585247989921

IDEAL = dict(
    N_D=0.0, y=1e-9, x=0.0, N_in=0.0, N_th=0.0, sigma=0.0,
    eta1=1.0, eta2=1.0, eta_c=1.0,
)


def test_config_defaults_and_validation():
    config = pr.ProtocolConfig()
    assert config.engine == "gaussian"
    assert (config.r, config.N_D, config.y, config.x) == (0.5, 5000.0, 0.1, 0.01)
    assert (config.N_in, config.N_th, config.sigma) == (1.0, 10.0, 0.01)
    assert (config.eta1, config.eta2, config.eta_c) == (0.8, 0.8, 0.8)
    for bad in (
        dict(r=-1.0), dict(N_D=-1.0), dict(y=0.0), dict(y=1.2), dict(x=-0.1),
        dict(N_in=-1.0), dict(sigma=-0.1), dict(eta1=1.5), dict(engine="other"),
        dict(phase_noise_convention="guess"),
        *(
            {name: value}
            for name in ("r", "N_D", "x", "N_in", "N_th", "sigma")
            for value in (math.nan, math.inf)
        ),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            pr.ProtocolConfig(**bad)
    assert len(dataclasses.fields(pr.ProtocolConfig)) == 12


def test_config_rejects_squeezing_the_input_cannot_take():
    # the squeezed input takes r in [0, 20); a config outside it fails where
    # it is built, for either engine, not at its first pipeline run
    for engine in pr.ENGINES:
        for r in (20.0, 25.0):
            with pytest.raises(ValueError, match=rf"^squeezing r={r} outside \[0, 20\)$"):
                pr.ProtocolConfig(r=r, engine=engine)
    assert pr.ProtocolConfig(r=19.9).r == 19.9


def test_config_mapping_round_trip():
    config = pr.ProtocolConfig(engine="fock", N_th=0.2, sigma=0.003)
    mapping = dataclasses.asdict(config)
    rebuilt = pr.config_from_mapping({k: str(v) for k, v in mapping.items()})
    assert rebuilt == config
    for unknown in ("unknown_field", "fock_dims"):
        with pytest.raises(KeyError, match=unknown):
            pr.config_from_mapping({unknown: "8"})


# a value outside each float field's domain
OUT_OF_DOMAIN = {
    "r": 25.0, "N_D": -1.0, "y": 1.5, "x": -1.0, "N_in": -1.0, "N_th": -1.0,
    "sigma": -1.0, "eta1": 1.5, "eta2": 1.5, "eta_c": 1.5,
}


def _rejection(build):
    with pytest.raises(ValueError) as caught:
        build()
    return str(caught.value)


@pytest.mark.parametrize("field", pr._FLOAT_FIELDS)
def test_derived_configs_reject_what_the_constructor_rejects(field):
    # A sweep checks each axis value once and a threshold search each bracket
    # end, then builds points without checking: both must reject a bad value
    # with the constructor's message, whatever axis carries it.
    assert set(OUT_OF_DOMAIN) == set(pr._FLOAT_FIELDS)
    base = pr.ProtocolConfig(N_th=0.3)
    valid = getattr(base, field)
    other = "N_th" if field != "N_th" else "N_in"
    for bad in (OUT_OF_DOMAIN[field], math.nan):
        message = _rejection(lambda: pr.ProtocolConfig(**{field: bad}))
        assert re.fullmatch(rf"\S.* {field}={bad} .*", message), message
        assert _rejection(lambda: dataclasses.replace(base, **{field: bad})) == message
        values = (bad, valid) if bad < valid else (valid, bad)  # an axis and a bracket
        if math.isnan(bad):  # a NaN fails the axis's and the bracket's order checks first
            order = rf"^axis '{field}' grid must be strictly increasing$"
            with pytest.raises(ValueError, match=order):
                sw.AxisSpec(field, values)
            continue
        shown = f"{field}={bad:.12g}"
        for role, axes, coords in (
            ("axis1", dict(series=(other, (0.1, 0.2))), f"{shown}, {other}=0.1"),
            ("axis2", dict(axis1=(other, (0.1, 0.2))), f"{other}=0.1, {shown}"),
            ("series", dict(axis1=(other, (0.1, 0.2))), f"{other}=0.1, {shown}"),
        ):
            axes[role] = (field, values)
            spec = sw.SweepSpec(base=base, **{k: sw.AxisSpec(*v) for k, v in axes.items()})
            with pytest.raises(RuntimeError) as caught:
                sw.run_sweep(spec)
            assert str(caught.value) == f"sweep point ({coords}) failed: {message}", role
            assert type(caught.value.__cause__) is ValueError, role
            assert str(caught.value.__cause__) == message, role
        assert _rejection(lambda: pr.find_threshold(base, field, values)) == message


def test_phase_noise_amplitude_conventions():
    config = pr.ProtocolConfig()
    coeffs = ga.channel_coefficients(config.x, config.y)
    literal = dataclasses.replace(config, phase_noise_convention="paper_literal")
    assert abs(
        pr.phase_noise_amplitude_sq(literal, coeffs) - 5000.0 * (1 - 0.01) ** 2
    ) < 1e-9
    propagated = pr.phase_noise_amplitude_sq(config, coeffs)
    assert abs(propagated - 0.8 * coeffs.c1**2 * 5000.0) < 1e-9
    # The conventions coincide for a lossless input and undamped mechanics.
    clean = pr.ProtocolConfig(eta1=1.0, x=0.0, y=0.3)
    clean_coeffs = ga.channel_coefficients(0.0, 0.3)
    lit = dataclasses.replace(clean, phase_noise_convention="paper_literal")
    assert abs(
        pr.phase_noise_amplitude_sq(lit, clean_coeffs)
        - pr.phase_noise_amplitude_sq(clean, clean_coeffs)
    ) < 1e-9


def test_paper_literal_amplitude_is_exact_to_rounding_near_y_one():
    # Where 1 - y^2 < SERIES_BELOW, (1 - y^2)^2 comes from the exact d = 1 - y
    # as (d (1 + y))^2: 1 + y rounds by at most 0.56 units of roundoff, and
    # d (1 + y), its square and the product with N_D by one each, 5.1 units
    # to first order; 1 - y * y would carry y * y's rounding, 1e-9 relative
    # at d = 1e-9
    rng = random.Random(35)
    unit, checked = 2.0**-53, 0
    for i in range(4000):
        y = 1.0 - 10.0 ** rng.uniform(-17.0, -2.0)
        n_d = 1.0 if i % 2 else 10.0 ** rng.uniform(-6.0, 6.0)
        config = pr.ProtocolConfig(N_D=n_d, y=y, phase_noise_convention="paper_literal")
        got = pr.phase_noise_amplitude_sq(config, ch.channel_coefficients(config.x, y))
        exact = Fraction(n_d) * (1 - Fraction(y) ** 2) ** 2
        if 1.0 - y**2 >= ch.SERIES_BELOW:
            continue
        checked += 1
        assert abs(Fraction(got) - exact) <= 6 * unit * exact, (n_d, y)
    assert checked > 3800


@pytest.mark.parametrize("engine", pr.ENGINES)
def test_zero_sigma_adds_no_jitter_where_twice_the_amplitude_overflows(engine):
    # at N_D = 1e308 both conventions' 2 |alpha_eff|^2 overflows; sigma = 0
    # still adds no variance (not inf * 0 = NaN), so every run and search is
    # the N_D = 0 one
    for convention in pr.PHASE_NOISE_CONVENTIONS:
        config = pr.ProtocolConfig(
            engine=engine, N_D=1e308, sigma=0.0, eta1=1.0, phase_noise_convention=convention
        )
        coeffs = ch.channel_coefficients(config.x, config.y)
        assert 2.0 * pr.phase_noise_amplitude_sq(config, coeffs) == math.inf
        dark = dataclasses.replace(config, N_D=0.0)
        assert pr.entanglement_metric(config) == pr.entanglement_metric(dark) > 0.0
        found = pr.find_threshold(config, "eta1", (0.0, 1.0))
        assert found == pr.find_threshold(dark, "eta1", (0.0, 1.0)), convention


def test_ideal_gaussian_pipeline_gives_two_r():
    for r in (0.1, 0.5, 1.0):
        result = pr.run_gaussian_protocol(pr.ProtocolConfig(r=r, **IDEAL))
        assert abs(result.log_negativity - 2.0 * r) < 1e-10
        assert np.all(result.output_state.mean == 0.0)
        assert abs(result.nu_min - 0.5 * math.exp(-2.0 * r)) < 1e-10


def test_gaussian_default_config_regression_pins():
    config = pr.ProtocolConfig()
    assert abs(pr.run_gaussian_protocol(config).log_negativity - EN_DEFAULT_PROPAGATED) < 1e-12
    literal = dataclasses.replace(config, phase_noise_convention="paper_literal")
    assert abs(pr.run_gaussian_protocol(literal).log_negativity - EN_DEFAULT_LITERAL) < 1e-12


def test_engine_dispatch_errors():
    with pytest.raises(ValueError, match="engine='fock'"):
        pr.run_gaussian_protocol(pr.ProtocolConfig(engine="fock", N_th=0.1))
    with pytest.raises(ValueError, match="engine='gaussian'"):
        pr.run_fock_protocol(pr.ProtocolConfig())


@pytest.mark.parametrize("configs", [list, tuple], ids=["list", "tuple"])
def test_run_gaussian_protocol_takes_one_config(configs):
    # many points run through a pipeline stream; the public run takes exactly one
    batch = configs([pr.ProtocolConfig(), pr.ProtocolConfig(y=0.5)])
    message = rf"^run_gaussian_protocol takes one ProtocolConfig, got {configs.__name__};"
    with pytest.raises(TypeError, match=message):
        pr.run_gaussian_protocol(batch)


def random_gaussian_configs(n, seed):
    """Seeded configs over the whole domain, with the edges where a channel
    is the identity or degenerate drawn often: eta1/eta2/eta_c = 1, sigma = 0,
    y = 1, N_D = 0, x = 0, r = 0, and both phase-noise conventions."""
    rng = np.random.default_rng(seed)

    def draw(edge, lo, hi):
        return edge if rng.random() < 0.2 else float(rng.uniform(lo, hi))

    return [
        pr.ProtocolConfig(
            r=draw(0.0, 0.0, 2.0),
            N_D=draw(0.0, 0.0, 1e5),
            y=draw(1.0, 1e-3, 1.0),
            x=draw(0.0, 0.0, 0.3),
            N_in=float(rng.uniform(0.0, 3.0)),
            N_th=float(rng.uniform(0.0, 30.0)),
            sigma=draw(0.0, 0.0, 0.02),
            eta1=draw(1.0, 0.0, 1.0),
            eta2=draw(1.0, 0.0, 1.0),
            eta_c=draw(1.0, 0.0, 1.0),
            phase_noise_convention=pr.PHASE_NOISE_CONVENTIONS[int(rng.integers(2))],
        )
        for _ in range(n)
    ]



def configs_of(base, points):
    """The constructor's configs of `points`, float tuples in _FLOAT_FIELDS
    order, over the engine and convention of `base`."""
    return [dataclasses.replace(base, **dict(zip(pr._FLOAT_FIELDS, p))) for p in points]


def bits(point):
    """A float tuple's values by float.hex, signed zeros included."""
    return tuple(map(float.hex, point))


def _spy_runs(monkeypatch, spy):
    """Route every pipeline call through spy(base, points, evaluate),
    evaluate being the call itself on the points: the calls of the
    protocol._stream of each sweep, search and entanglement_metric."""
    stream = pr._stream

    def spied(base):
        run = stream(base)
        return lambda points: spy(base, points, run)

    monkeypatch.setattr(pr, "_stream", spied)


def _record_runs(monkeypatch):
    """The (base, point, (metric, witness)) of every point that reaches the
    engines (_spy_runs)."""
    runs = []

    def recorded(base, points, evaluate):
        out = evaluate(points)
        runs.extend((base, p, pair) for p, pair in zip(points, out))
        return out

    _spy_runs(monkeypatch, recorded)
    return runs


def test_sweep_and_search_points_equal_constructed_configs(monkeypatch):
    # Sweeps and threshold searches write checked values into a valid base's
    # float tuple; each point must be the tuple of the config the constructor
    # builds from the same fields, bit for bit, run under the base's engine
    # and convention.
    def same(point, built):
        assert type(point) is tuple and {type(v) for v in point} == {float}
        assert bits(point) == bits(pr._point(built))

    seen = _record_runs(monkeypatch)
    rng = np.random.default_rng(23)
    for base in random_gaussian_configs(12, seed=23):
        fields = [str(f) for f in rng.choice(pr._FLOAT_FIELDS, 3, replace=False)]
        draws = random_gaussian_configs(3, seed=int(rng.integers(2**31)))
        axes = [sw.AxisSpec(f, sorted({getattr(c, f) for c in draws})) for f in fields]
        del seen[:]
        sw.run_sweep(sw.SweepSpec(base, *axes))
        mapping = dataclasses.asdict(base)
        built = [
            pr.ProtocolConfig(**{**mapping, fields[0]: v1, fields[1]: v2, fields[2]: vs})
            for v2 in axes[1].values
            for v1 in axes[0].values
            for vs in axes[2].values
        ]
        assert len(seen) == len(built)
        for (passed, point, _), config in zip(seen, built):
            assert passed is base
            same(point, config)
    for parameter, (bracket, tol) in THRESHOLD_SEARCHES.items():
        base = pr.ProtocolConfig(sigma=0.005)
        del seen[:]
        pr.find_threshold(base, parameter, bracket, tol)
        assert len(seen) >= 3
        index = pr._FLOAT_FIELDS.index(parameter)
        for passed, point, _ in seen:
            assert passed is base
            same(point, dataclasses.replace(base, **{parameter: point[index]}))


def test_a_sweep_builds_no_config_per_point(monkeypatch):
    # A 768-point sweep runs on float tuples: it constructs no ProtocolConfig,
    # and none is alive beyond those that were alive before it ran.
    def alive():
        return sum(isinstance(o, pr.ProtocolConfig) for o in gc.get_objects())

    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(),
        axis1=sw.AxisSpec("y", sw.linear_grid(0.01, 0.95, 16)),
        axis2=sw.AxisSpec("x", sw.linear_grid(0.0, 0.05, 16)),
        series=sw.AxisSpec("N_in", (0.0, 1.0, 10.0)),
    )
    built, counts, stream = [], [], pr._stream
    check = pr.ProtocolConfig.__post_init__
    monkeypatch.setattr(
        pr.ProtocolConfig, "__post_init__", lambda self: built.append(1) or check(self)
    )

    def counted(base):
        run = stream(base)
        return lambda points: counts.append((len(points), alive())) or run(points)

    monkeypatch.setattr(pr, "_stream", counted)
    gc.collect()  # configs that earlier tests left in cycles
    before = alive()
    sw.run_sweep(spec)
    assert counts == [(768, before)] and built == []
    assert not hasattr(pr, "_derived")


def test_a_failing_sweep_builds_no_config(monkeypatch):
    # The failure report re-runs the batch's own float tuples one at a time:
    # it names the first failing point without building a ProtocolConfig or
    # reading a point through entanglement_metric.
    spec = sw.SweepSpec(
        base=pr.ProtocolConfig(),
        axis1=sw.AxisSpec("y", (0.1, 0.5, 1.5)),
        series=sw.AxisSpec("N_in", (0.0, 1.0)),
    )
    built, read = [], []
    check, metric = pr.ProtocolConfig.__post_init__, pr.entanglement_metric
    monkeypatch.setattr(
        pr.ProtocolConfig, "__post_init__", lambda self: built.append(1) or check(self)
    )
    monkeypatch.setattr(pr, "entanglement_metric", lambda c: read.append(1) or metric(c))
    with pytest.raises(
        RuntimeError,
        match=r"^sweep point \(y=1.5, N_in=0\) failed: coupling parameter y=1.5 outside \(0, 1\]$",
    ) as caught:
        sw.run_sweep(spec)
    assert type(caught.value.__cause__) is ValueError
    assert (len(built), len(read)) == (0, 0)


def sweep_configs(spec):
    """The constructor's config of each sweep point, in sweep order: axis2
    outermost, then axis1, then the series."""
    axes = [a for a in (spec.axis2, spec.axis1, spec.series) if a is not None]
    return [
        dataclasses.replace(spec.base, **{a.parameter: v for a, v in zip(axes, values)})
        for values in itertools.product(*(a.values for a in axes))
    ]


def single_run(config):
    """(metric, witness) of the public run on one config."""
    if config.engine == "gaussian":
        result = pr.run_gaussian_protocol(config)
        return result.log_negativity, result.witness
    result = pr.run_fock_protocol(config)
    return result.concurrence, result.witness


def _assert_sweep_equals_single_runs(spec, runs):
    expected = sweep_configs(spec)
    assert len(runs) == len(expected)
    for (base, point, pair), config in zip(runs, expected):
        assert base is spec.base
        assert bits(point) == bits(pr._point(config)), config
        assert bits(pair) == bits(single_run(config)), config


@pytest.mark.parametrize("engine", pr.ENGINES)
def test_paper_literal_sweep_and_search_equal_single_runs(engine, monkeypatch):
    # A point carries no convention: the pipeline takes it from the base, so
    # a paper_literal sweep and search give, point for point, the bits of
    # the public runs on the constructor's configs.
    base = pr.ProtocolConfig(engine=engine, sigma=0.005, phase_noise_convention="paper_literal")
    if engine == "fock":
        base = dataclasses.replace(base, eta_c=1.0)
    spec = sw.SweepSpec(
        base=base,
        axis1=sw.AxisSpec("y", sw.linear_grid(0.05, 0.95, 5)),
        axis2=sw.AxisSpec("x", (0.0, 0.02)),
        series=sw.AxisSpec("N_D", (0.0, 2e4, 1e5)),
    )
    runs = _record_runs(monkeypatch)
    literal = sw.run_sweep(spec)[0]
    _assert_sweep_equals_single_runs(spec, runs)
    # the convention reaches the pipeline: the propagated mean reads otherwise
    propagated = dataclasses.replace(base, phase_noise_convention="propagated_mean")
    assert sw.run_sweep(dataclasses.replace(spec, base=propagated))[0] != literal
    searches = [("N_D", (1.0, 1e7), 1.0), ("sigma", (0.0, 0.1), 1e-6)]
    batched = []
    for parameter, bracket, tol in searches:
        del runs[:]
        batched.append(pr.find_threshold(base, parameter, bracket, tol))
        assert len(runs) >= 3, parameter
        index = pr._FLOAT_FIELDS.index(parameter)
        for passed, point, pair in runs:
            assert passed is base
            config = dataclasses.replace(base, **{parameter: point[index]})
            assert bits(point) == bits(pr._point(config)), config
            assert bits(pair) == bits(single_run(config)), config
    _spy_runs(monkeypatch, lambda b, points, _: [single_run(c) for c in configs_of(b, points)])
    singles = [pr.find_threshold(base, *search) for search in searches]
    assert bits(singles) == bits(batched)


@pytest.mark.parametrize("engine", pr.ENGINES)
def test_sweep_points_keep_signed_zeros_of_axis_values(engine, monkeypatch):
    # 0.0 == -0.0, but r = -0.0 gives the correlation k = -0.0: a point's
    # tuple must carry each axis value's sign, on every axis role.
    base = pr.ProtocolConfig(engine=engine, N_th=0.3)
    runs = _record_runs(monkeypatch)
    tops = {"r": 0.5, "x": 0.01, "N_D": 5000.0, "sigma": 0.01, "N_in": 1.0}
    for names in (("r", "x", "sigma"), ("N_D", "N_in", "r"), ("sigma", "N_D", "N_in")):
        axes = [sw.AxisSpec(name, (-0.0, tops[name])) for name in names]
        spec = sw.SweepSpec(base, *axes)
        del runs[:]
        sw.run_sweep(spec)
        _assert_sweep_equals_single_runs(spec, runs)
        # the signs reach the points
        assert {math.copysign(1.0, p[pr._FLOAT_FIELDS.index(names[0])]) for _, p, _ in runs} == {
            1.0, -1.0
        }


def batch_readout(points, convention):
    """protocol._gaussian_readout's rows and covariances of `points`, as the
    one call of a new stream."""
    return pr._gaussian_readout(pr._gaussian_entries(pr._mode_a(points, convention, True)))


def gaussian_batch(configs):
    """E_N, nu_min, witness and output covariance of each config in one
    gaussian call per phase-noise convention, as arrays with one entry per
    config: E_N and the witness as a new stream returns them, nu_min and the
    covariances from the batch readout that the stream reads them from."""
    evaluated, readouts = [None] * len(configs), [None] * len(configs)
    cov = np.empty((len(configs), 4, 4))
    for convention in pr.PHASE_NOISE_CONVENTIONS:
        index = [i for i, c in enumerate(configs) if c.phase_noise_convention == convention]
        if not index:
            continue
        points = [pr._point(configs[i]) for i in index]
        pairs = pr._stream(configs[index[0]])(points)
        rows, cov[index] = batch_readout(points, convention)
        for i, pair, row in zip(index, pairs, rows):
            evaluated[i], readouts[i] = pair, row
    assert {type(v) for pair in evaluated for v in pair} == {float}
    assert [(e.hex(), w.hex()) for e, w in evaluated] == [
        (e.hex(), w.hex()) for _, w, e in readouts
    ]
    log_negativity, witness = map(np.array, zip(*evaluated))
    nu_min = np.array([nu for nu, _, _ in readouts])
    return SimpleNamespace(log_negativity=log_negativity, nu_min=nu_min, witness=witness, cov=cov)


def test_gaussian_batch_is_bit_identical_to_single_points():
    configs = random_gaussian_configs(1200, seed=20261018)
    for edge in (
        lambda c: c.eta1 == 1.0, lambda c: c.eta2 == 1.0, lambda c: c.eta_c == 1.0,
        lambda c: c.sigma == 0.0, lambda c: c.y == 1.0,
        lambda c: c.phase_noise_convention == "paper_literal",
    ):
        assert sum(map(edge, configs)) >= 100
    batch = gaussian_batch(configs)
    assert batch.log_negativity.shape == batch.nu_min.shape == (len(configs),)
    assert batch.cov.shape == (len(configs), 4, 4)
    for i, config in enumerate(configs):
        single = pr.run_gaussian_protocol(config)
        assert single.log_negativity == batch.log_negativity[i], config
        assert single.nu_min == batch.nu_min[i], config
        assert single.witness == batch.witness[i], config
        assert single.output_state.cov.tobytes() == batch.cov[i].tobytes(), config
        assert np.all(single.output_state.mean == 0.0), config
    # both entangled and separable outputs are covered
    assert 100 < np.count_nonzero(batch.log_negativity) < len(configs) - 100


def scalar_reference(config):
    """(E_N, nu_min, output covariance) from the single-point pipeline that
    preceded batching, kept as a test-only reference: Python floats and math
    for every per-point scalar, one 4x4 covariance, the same operations in
    the same order."""
    a_, c_ = slice(0, 2), slice(2, 4)

    def update(cov, own, other, amplitude, power, noise):
        cov = cov.copy()
        cov[own, own] = power * cov[own, own] + noise
        cov[own, other] *= amplitude
        cov[other, own] *= amplitude
        return cov

    def loss(cov, own, other, eta):
        if eta == 1.0:
            return cov
        return update(cov, own, other, math.sqrt(eta), eta, (1.0 - eta) * (0.5 * np.eye(2)))

    coeffs = ga.channel_coefficients(config.x, config.y)
    d = math.sinh(config.r) ** 2 + 0.5
    c = math.sinh(config.r) * math.cosh(config.r)
    cov = np.array([[d, 0.0, c, 0.0], [0.0, d, 0.0, -c], [c, 0.0, d, 0.0], [0.0, -c, 0.0, d]])
    cov = loss(cov, a_, c_, config.eta1)
    added = (
        coeffs.c2_mag**2 * (config.N_in + 0.5)
        + coeffs.f1**2 * 0.5
        + coeffs.f2**2 * (config.N_th + 0.5)
    )
    cov = update(cov, a_, c_, -coeffs.c1, coeffs.c1 * coeffs.c1, added * np.eye(2))
    added = 2.0 * pr.phase_noise_amplitude_sq(config, coeffs) * config.sigma * config.sigma
    cov[1, 1] += added
    cov = loss(cov, a_, c_, config.eta2)
    cov = loss(cov, c_, a_, config.eta_c)
    a, b = np.linalg.det(cov[a_, a_]), np.linalg.det(cov[c_, c_])
    v, cross = np.linalg.det(cov), np.linalg.det(cov[a_, c_])
    sigma = a + b - 2.0 * cross
    root = math.sqrt(max(sigma * sigma - 4.0 * v, 0.0))
    nu = math.sqrt(max(0.5 * (sigma - root), 0.0))
    return max(0.0, -math.log(2.0 * nu)), nu, cov


def test_gaussian_batch_is_bit_identical_to_scalar_reference():
    configs = random_gaussian_configs(3000, seed=7)
    batch = gaussian_batch(configs)
    for i, config in enumerate(configs):
        log_negativity, nu, cov = scalar_reference(config)
        assert batch.log_negativity[i] == log_negativity, config
        assert batch.nu_min[i] == nu, config
        assert np.array_equal(batch.cov[i], cov), config


def public_state(c):
    """The output state of one config from the public operations composed in
    the pipeline's order, in the displaced frame."""
    coeffs = ga.channel_coefficients(c.x, c.y)
    state = ga.tmsv_state(c.r)
    state = ga.loss_channel(state, "A", c.eta1)
    state = ga.storage_retrieval_channel(state, coeffs, c.N_in, c.N_th)
    amp_sq = pr.phase_noise_amplitude_sq(c, coeffs)
    state = ga.phase_noise(state, c.sigma, amp_sq, mode="A")
    state = ga.loss_channel(state, "A", c.eta2)
    return ga.loss_channel(state, "C", c.eta_c)


def public_pipeline(configs):
    """(E_N, nu_min, witness, output states) of a list of configs from the
    public, argument-checking operations composed in the pipeline's order,
    in the displaced frame, one config at a time, stacked into arrays; the
    states' means and covariances are stacked as `.mean` and `.cov`."""
    rows = []
    for state in map(public_state, configs):
        nu_min = ga.ppt_minimum_eigenvalue(state)
        rows.append((ga.negativity_from_nu(nu_min), nu_min, ga.ppt_witness(state), state))
    log_negativity, nu_min, witness, states = zip(*rows)
    state = SimpleNamespace(
        mean=np.array([s.mean for s in states]), cov=np.array([s.cov for s in states])
    )
    return np.array(log_negativity), np.array(nu_min), np.array(witness), state


def test_gaussian_pipeline_equals_composed_public_operations():
    # The pipeline runs the operations' helpers without their argument checks;
    # the public operations, composed one config at a time, must give the
    # same bits to a batch and to single runs, and so must the scalar reference.
    configs = random_gaussian_configs(1200, seed=20261019)
    batch = gaussian_batch(configs)
    log_negativity, nu_min, witness, state = public_pipeline(configs)
    assert np.array_equal(batch.log_negativity, log_negativity)
    assert np.array_equal(batch.nu_min, nu_min)
    assert np.array_equal(batch.witness, witness)
    assert np.all(state.mean == 0.0)
    assert np.array_equal(batch.cov, state.cov)
    for config in configs[:200]:
        single = pr.run_gaussian_protocol(config)
        log_negativity, nu_min, witness, state = public_pipeline([config])
        assert (single.log_negativity, single.nu_min) == (log_negativity[0], nu_min[0]), config
        assert single.witness == witness[0], config
        assert np.all(single.output_state.mean == 0.0), config
        assert np.array_equal(single.output_state.cov, state.cov[0]), config
        log_negativity, nu_min, cov = scalar_reference(config)
        assert (single.log_negativity, single.nu_min) == (log_negativity, nu_min), config
        assert np.array_equal(single.output_state.cov, cov), config
        a, b = np.linalg.det(cov[:2, :2]), np.linalg.det(cov[2:, 2:])
        v, cross = np.linalg.det(cov), np.linalg.det(cov[:2, 2:])
        assert single.witness == (a + b - 2.0 * cross) / 4.0 - v - 1.0 / 16.0, config


def test_gaussian_result_witness_is_the_output_ppt_witness():
    configs = random_gaussian_configs(1200, seed=11)
    batch = gaussian_batch(configs)
    per_config = [ga.ppt_witness(ga.GaussianTwoModeState(np.zeros(4), cov)) for cov in batch.cov]
    assert np.array_equal(batch.witness, per_config)
    # the sign is the verdict wherever the witness is above round-off (product
    # states and the like give witnesses of a few ulps either side of 0)
    clear = np.abs(batch.witness) > 1e-12
    entangled = batch.log_negativity > pr.ZERO_METRIC_TOL
    assert np.array_equal((batch.witness > 0)[clear], entangled[clear])
    assert 50 < np.count_nonzero(entangled[clear]) < np.count_nonzero(clear) - 50
    for config in configs[:100]:
        result = pr.run_gaussian_protocol(config)
        assert type(result.witness) is float
        assert result.witness == ga.ppt_witness(result.output_state), config


def test_gaussian_pipeline_errors_are_unchanged():
    # a phase jitter whose added variance overflows is still caught, once, at
    # the end of the pipeline, with the message of the checking operations
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite entry in mean or cov"):
            pr.run_gaussian_protocol(pr.ProtocolConfig(sigma=1e200))
        with pytest.raises(ValueError, match="non-finite entry in mean or cov"):
            ga.phase_noise(ga.tmsv_state(0.5), 1e200, 5000.0)
        with pytest.raises(ValueError, match="non-finite entry in mean or cov"):
            ga.displace(ga.displace(ga.vacuum_state(), "A", 1e308), "A", 1e308)
        spec = sw.SweepSpec(base=pr.ProtocolConfig(), axis1=sw.AxisSpec("sigma", (0.01, 1e200)))
        with pytest.raises(RuntimeError, match=r"\(sigma=1e\+200\) failed: non-finite"):
            sw.run_sweep(spec)


def test_gaussian_readout_rejects_overflowed_determinants():
    # At N_th = 1e200 and 1e300 the determinants overflow and the PPT
    # radicand is NaN.  The batch (a stream's call), single runs,
    # entanglement_metric and the public operations share one readout, and
    # all of them raise there instead of reading E_N = 0.0 off a NaN nu_min.
    configs = [
        pr.ProtocolConfig(N_th=n_th, eta_c=eta_c) for n_th in (1e200, 1e300) for eta_c in (0.8, 1.0)
    ]
    message = "^radicand nan below clamp band$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match=message):
            pr._stream(configs[0])([pr._point(c) for c in configs])
        for config in configs:
            with pytest.raises(ArithmeticError, match=message):
                pr.run_gaussian_protocol(config)
            with pytest.raises(ArithmeticError, match=message):
                pr.entanglement_metric(config)
            state = public_state(config)
            with pytest.raises(ArithmeticError, match=message):
                ga.ppt_minimum_eigenvalue(state)
        spec = sw.SweepSpec(
            base=pr.ProtocolConfig(),
            axis1=sw.AxisSpec("y", (0.1, 0.5)),
            series=sw.AxisSpec("N_th", (1.0, 1e200, 1e300)),
        )
        with pytest.raises(
            RuntimeError,
            match=r"^sweep point \(y=0.1, N_th=1e\+200\) failed: radicand nan below clamp band$",
        ) as caught:
            sw.run_sweep(spec)
    assert isinstance(caught.value.__cause__, ArithmeticError)


def minors_batch(points, convention):
    """The gaussian readout as it was before Sigma's closed form, kept
    as the test-only reference: the same covariances, read out through
    ga._ppt_minors, NumPy's determinants of the stacked blocks."""
    entries = []
    for a_x, a_p, k_x, k_p, (amplitude, power, added), b in pr._mode_a(points, convention, True):
        b, k_x, k_p = power * b + added, k_x * amplitude, k_p * amplitude
        entries += (a_x, 0.0, k_x, -0.0, 0.0, a_p, -0.0, k_p, k_x, -0.0, b, 0.0, -0.0, k_p, 0.0, b)
    cov = np.array(entries).reshape(-1, 4, 4)
    if not np.isfinite(cov).all():
        raise ValueError("non-finite entry in mean or cov")
    total, det_v = ga._ppt_minors(cov)
    return list(map(ch._ppt_readout, total.tolist(), det_v.tolist())), cov


def _readout(batch, points, convention):
    """A batch readout's rows in float.hex and covariances' bytes, or its
    error, with the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rows, cov = batch(points, convention)
            out = [[v.hex() for v in row] for row in rows], cov.tobytes()
        except (ArithmeticError, ValueError) as exc:
            out = type(exc), str(exc)
    return out, [(w.category, str(w.message)) for w in caught]


def test_gaussian_batch_sigma_in_closed_form_equals_the_block_determinants():
    # Sigma from the five entries in closed form, with det B and det C reused
    # under _mode_a's rule, reads every output, covariance, error and warning
    # as NumPy's block determinants do, over the whole domain: r = 0 (a
    # singular C), eta_c at 0 and 1, both conventions, and N_D, N_in and N_th
    # up to 1e300, where the blocks and det V overflow.  Each batch varies one
    # field over two values, each repeated, so some points reuse det B and
    # det C and others recompute them.
    rng = np.random.default_rng(20261021)

    def value(name):
        if name in ("N_D", "N_in", "N_th"):
            return float(10.0 ** rng.uniform(-6.0, 300.0))
        if name == "sigma":  # 1e154 makes the jitter overflow
            return (0.0, float(10.0 ** rng.uniform(-6.0, -1.0)), 1e154)[int(rng.integers(3))]
        if name == "r":
            return (0.0, float(rng.uniform(0.0, 3.0)))[int(rng.integers(2))]
        if name == "y":
            return float(rng.uniform(0.01, 1.0))
        return (0.0, 1.0, float(rng.uniform()))[int(rng.integers(3))]  # an eta

    names = ("N_D", "N_in", "N_th", "sigma", "r", "y", "eta1", "eta2", "eta_c")
    # two Sigmas of 1.4e308: their sum overflows while every entry is
    # finite, so the entries are checked one by one, and the batch fails
    # where each point fails alone, on the readout's radicand
    point = pr._point(pr.ProtocolConfig(N_th=8e155, eta_c=0.0))
    got = _readout(batch_readout, [point, point], "propagated_mean")
    assert got == _readout(minors_batch, [point, point], "propagated_mean")
    assert got == ((ArithmeticError, "radicand -inf below clamp band"), [])
    outcomes = {}
    for _ in range(1500):
        config = pr.ProtocolConfig(
            **{name: value(name) for name in names},
            phase_noise_convention=pr.PHASE_NOISE_CONVENTIONS[int(rng.integers(2))],
        )
        index = pr._FLOAT_FIELDS.index(names[int(rng.integers(len(names)))])
        first, second = value(pr._FLOAT_FIELDS[index]), value(pr._FLOAT_FIELDS[index])
        base, points = pr._point(config), []
        for v in (first, first, second, second):
            point = list(base)
            point[index] = v
            points.append(tuple(point))
        convention = config.phase_noise_convention
        got = _readout(batch_readout, points, convention)
        assert got == _readout(minors_batch, points, convention), (config, index)
        (out, cov), warned = got
        if isinstance(out, list) and not warned:
            # a stream's second call carries the first's det B and det C
            run = pr._stream(config)
            pairs = run(points[:2]) + run(points[2:])
            assert [[e.hex(), w.hex()] for e, w in pairs] == [[e, w] for _, w, e in out]
            stage = pr._gaussian_entries(pr._mode_a(points, convention, True))
            halves = [pr._gaussian_readout(itertools.islice(stage, 2)) for _ in range(2)]
            assert [[v.hex() for v in row] for rows, _ in halves for row in rows] == out
            assert b"".join(c.tobytes() for _, c in halves) == cov
        kind = "ran" if isinstance(out, list) else out.__name__
        outcomes[kind, bool(warned)] = outcomes.get((kind, bool(warned)), 0) + 1
    # batches run, fail on a NaN radicand after an overflow, and fail the
    # finiteness check, each often enough to check
    assert outcomes["ran", False] > 200, outcomes
    assert outcomes["ArithmeticError", True] > 200, outcomes
    assert outcomes["ValueError", False] > 100, outcomes


def test_an_overflowing_block_warns_once_then_fails_on_the_nan_radicand():
    # At N_th = 1e156 and eta_c = 0, det A overflows and det V does not: a
    # sweep and a search warn once and fail on Sigma's NaN radicand; with
    # warnings as errors, they fail on the warning; NumPy's errstate governs
    # the report, as it does for the block determinants of the public
    # operations
    base = pr.ProtocolConfig(N_th=1e156, eta_c=0.0)
    spec = dataclasses.replace(sw.preset("fig2"), base=base)

    def search():
        return pr.find_threshold(base, "eta1", (0.0, 1.0))

    # each run, its message's prefix, and the error a sweep wraps any failure in
    runs = [
        (lambda: sw.run_sweep(spec), r"^sweep point \(y=0.01, N_in=0\) failed: ", RuntimeError),
        (search, "^", None),
    ]
    for run, prefix, wrapped in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            with pytest.raises(wrapped or ArithmeticError, match=prefix + "radicand nan below"):
                run()
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "overflow encountered in det")
        ], prefix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                wrapped or RuntimeWarning, match=prefix + "overflow encountered in det$"
            ):
                run()
            with np.errstate(over="ignore"):
                with pytest.raises(wrapped or ArithmeticError, match=prefix + "radicand nan below"):
                    run()
            with np.errstate(over="raise"):
                with pytest.raises(
                    wrapped or FloatingPointError, match=prefix + "overflow encountered in det$"
                ):
                    run()
    # only A's block overflows: the search's one pipeline call warns once
    # under "always" too, where an overflowing det V would warn again
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ArithmeticError):
            search()
    assert len(caught) == 1


def extreme_configs(n, seed):
    """Seeded configs of both engines far outside the figures' domain: N_D,
    x, N_in and N_th log-uniform from 1e-6 up to 1e300, sigma log-uniform up
    to 1e3, r up to 20."""
    rng = np.random.default_rng(seed)

    def log_uniform(hi):
        return float(10.0 ** rng.uniform(-6.0, hi))

    return [
        pr.ProtocolConfig(
            engine=("gaussian", "fock")[int(rng.integers(2))],
            r=float(rng.uniform(0.0, 20.0)),
            N_D=log_uniform(300.0),
            y=float(rng.uniform(1e-6, 1.0)),
            x=log_uniform(300.0),
            N_in=log_uniform(300.0),
            N_th=log_uniform(300.0),
            sigma=log_uniform(3.0),
            eta1=float(rng.uniform()),
            eta2=float(rng.uniform()),
            eta_c=float(rng.uniform()),
            phase_noise_convention=pr.PHASE_NOISE_CONVENTIONS[int(rng.integers(2))],
        )
        for _ in range(n)
    ]


def test_no_successful_run_warns_or_reads_non_finite():
    # Every run either fails with a named error or succeeds without a warning
    # and with a finite metric, witness and (gaussian) nu_min.  Warnings are
    # recorded rather than raised: a NumPy overflow warning raised as an
    # error would replace the error the failing run names.
    succeeded = {"gaussian": 0, "fock": 0}
    for config in extreme_configs(3000, seed=20261019):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                ((metric, witness),) = pr._stream(config)([pr._point(config)])
            except (ArithmeticError, ValueError):
                continue
            outputs = [metric, witness]
            if config.engine == "gaussian":
                outputs.append(pr.run_gaussian_protocol(config).nu_min)
        assert not caught, (config, [str(w.message) for w in caught])
        assert all(math.isfinite(value) for value in outputs), (config, outputs)
        succeeded[config.engine] += 1
    # both engines succeed often enough to check
    assert min(succeeded.values()) > 20, succeeded


def domain_configs(n, seed, top=6.0):
    """Seeded configs of the domain where every valid config runs: r uniform
    in [0, 3]; N_D, N_in and N_th log-uniform in [1e-6, 10**top]; x
    log-uniform in [1e-6, 10] for half the configs and in [1e-6, 1e300] for
    the other half, past 1.34e154 where x * x overflows; sigma log-uniform in
    [1e-6, 0.1]; each eta uniform in [0, 1]; y uniform in (0, 1] for half the
    configs and 1 - 10**u, u uniform in [-17, 0], for the other half, so
    that y reaches 1 - 1e-16 and 1 itself.  The two halves of x and of y
    cross, each quarter of the configs having its own pair."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    configs = []
    for i in range(n):
        y = 1.0 - log_uniform(-17.0, 0.0) if i % 2 else 1.0 - float(rng.uniform(0.0, 1.0))
        configs.append(pr.ProtocolConfig(
            r=float(rng.uniform(0.0, 3.0)),
            N_D=log_uniform(-6.0, top),
            y=y,
            x=log_uniform(-6.0, 300.0 if i % 4 >= 2 else 1.0),
            N_in=log_uniform(-6.0, top),
            N_th=log_uniform(-6.0, top),
            sigma=log_uniform(-6.0, -1.0),
            eta1=float(rng.uniform()),
            eta2=float(rng.uniform()),
            eta_c=float(rng.uniform()),
            phase_noise_convention=pr.PHASE_NOISE_CONVENTIONS[int(rng.integers(2))],
        ))
    return configs


def test_every_config_of_the_domain_runs_on_both_engines():
    # Each config of domain_configs' domain returns a finite metric on both
    # engines: a log-negativity in [0, 2r] and a concurrence in [0, 1].  The
    # fock engine's domain is wider.  The domains only ever widen.
    near_one = huge_x = 0
    for config in domain_configs(4000, seed=20261020):
        near_one += 1.0 - config.y * config.y < ch.SERIES_BELOW
        huge_x += config.x * config.x == math.inf
        for engine, top in (("gaussian", 2.0 * config.r), ("fock", 1.0)):
            metric = pr.entanglement_metric(dataclasses.replace(config, engine=engine))
            assert 0.0 <= metric <= top, (engine, config, metric)
    # half the draws lie where the channel takes 1 - y^2 from 1 - y, and
    # about a quarter where x * x overflows
    assert near_one > 1000, near_one
    assert huge_x > 700, huge_x
    # the fock engine's domain reaches N_D, N_in and N_th of 1e300, where
    # a_x a_p overflows: the concurrence and the projection probability are
    # finite and in [0, 1]
    noisy = 0
    for config in domain_configs(4000, seed=20261021, top=300.0):
        result = pr.run_fock_protocol(dataclasses.replace(config, engine="fock"))
        outputs = (result.concurrence, result.projection_probability)
        assert all(0.0 <= value <= 1.0 for value in outputs), (config, outputs)
        noisy += config.N_th > 1e15
        huge_x += config.x * config.x == math.inf
    # most draws have N_th above 1e15, where the scaled block's weight would
    # fall below fock.qubit_project's 1e-12 floor
    assert noisy > 3000, noisy
    assert huge_x > 1400, huge_x


@pytest.mark.parametrize("engine", pr.ENGINES)
@pytest.mark.parametrize("x", [1.35e154, 1e300, sys.float_info.max])
def test_configs_run_where_x_squared_overflows(engine, x):
    # Past x = 1.34e154, x * x overflows: the channel takes its radicands
    # over x^2, keeps its closure, and both engines run
    config = pr.ProtocolConfig(engine=engine, x=x)
    assert config.x * config.x == math.inf
    for y in (1e-300, 0.1, 0.9, 1.0 - 1e-12, 1.0):
        assert ch.channel_coefficients(x, y).closure_defect < 1e-15, y
    metric = pr.entanglement_metric(config)
    assert 0.0 <= metric <= (2.0 * config.r if engine == "gaussian" else 1.0), metric


def test_channel_coefficients_are_continuous_where_x_squared_overflows():
    # the two sides of the branch agree to a few ulp at the last x whose
    # square is finite and the next float
    below = math.sqrt(sys.float_info.max)
    while below * below == math.inf:
        below = math.nextafter(below, 0.0)
    above = math.nextafter(below, math.inf)
    assert below * below < math.inf == above * above
    for y in (1e-300, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-12):
        for low, high in zip(ch._coefficients(below, y), ch._coefficients(above, y)):
            assert abs(high - low) <= 8.0 * math.ulp(low), (y, low, high)


def test_gaussian_output_covariance_has_five_nonzero_entries():
    # Every stage on mode A acts on each quadrature separately and C only sees
    # loss, so the output keeps the two-mode squeezed vacuum's pattern: the
    # pipeline propagates a_x, a_p, b, k_x and k_p; the mean stays zero.
    configs = random_gaussian_configs(1200, seed=20261020)
    pattern = np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=bool
    )
    cov = gaussian_batch(configs).cov
    assert np.all(cov[:, ~pattern] == 0.0)
    assert np.array_equal(cov[:, 2, 2], cov[:, 3, 3])
    assert np.array_equal(cov, cov.swapaxes(-1, -2))
    for config in configs[:100]:
        assert np.all(pr.run_gaussian_protocol(config).output_state.mean == 0.0), config
    # the pattern is not empty: correlations and unequal A variances occur
    assert np.count_nonzero(cov[:, 0, 2]) > 100
    assert np.count_nonzero(cov[:, 0, 0] != cov[:, 1, 1]) > 100
    # == cannot tell -0.0 from 0.0; the covariance's bytes, signed zeros
    # included, are those of the composed public operations.  Their mean is
    # zero too, with a -0.0 where the storage channel's -c1 scales it.
    public = public_pipeline(configs)[3]
    assert cov.tobytes() == public.cov.tobytes()
    assert np.all(public.mean == 0.0)


def test_fock_pipeline_regression():
    config = pr.ProtocolConfig(**FOCK_BASE)
    result = pr.run_fock_protocol(config)
    assert abs(result.concurrence - FOCK_BASE_CONCURRENCE) < 1e-12
    assert abs(result.projection_probability - FOCK_BASE_PROJECTION) < 1e-12
    assert result.witness == result.concurrence


def test_fock_ideal_concurrence():
    result = pr.run_fock_protocol(pr.ProtocolConfig(engine="fock", **IDEAL))
    assert abs(result.concurrence - 1.0) < 1e-6
    assert abs(result.projection_probability - 1.0) < 1e-9


def test_fock_concurrence_independent_of_displacement_at_zero_noise():
    config = pr.ProtocolConfig(**FOCK_BASE)
    values = [
        pr.run_fock_protocol(dataclasses.replace(config, N_D=nd)).concurrence
        for nd in (0.0, 5000.0, 1e8)
    ]
    assert max(values) - min(values) < 1e-12


def test_fock_concurrence_non_increasing_in_sigma():
    config = pr.ProtocolConfig(**FOCK_BASE)
    values = []
    for sigma in (0.0, 0.002, 0.005, 0.01):
        probe = dataclasses.replace(config, sigma=sigma)
        values.append(pr.run_fock_protocol(probe).concurrence)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), values


def test_entanglement_metric_dispatch():
    assert pr.entanglement_metric(pr.ProtocolConfig()) == EN_DEFAULT_PROPAGATED
    fock_config = pr.ProtocolConfig(**FOCK_BASE)
    assert abs(pr.entanglement_metric(fock_config) - FOCK_BASE_CONCURRENCE) < 1e-12


def test_find_threshold_damping_band_and_monotone_consistency():
    config = pr.ProtocolConfig()
    critical = pr.find_threshold(config, "x", (1e-6, 1.0))
    assert 0.01 <= critical <= 0.04
    # Beyond the critical damping the metric must stay exactly zero.
    for x in np.linspace(critical * 1.01, 1.0, 10):
        probe = dataclasses.replace(config, x=float(x))
        assert pr.entanglement_metric(probe) == 0.0, f"x={x}"
    # And is deterministic.
    assert pr.find_threshold(config, "x", (1e-6, 1.0)) == critical


def test_find_threshold_handles_zero_low_edge():
    # eta1 sweeps have the zero-metric side at the LOW bracket edge.
    config = pr.ProtocolConfig()
    critical = pr.find_threshold(config, "eta1", (0.1, 0.9))
    assert 0.3 <= critical <= 0.5
    below = dataclasses.replace(config, eta1=critical - 0.01)
    above = dataclasses.replace(config, eta1=critical + 0.01)
    assert pr.entanglement_metric(below) == 0.0
    assert pr.entanglement_metric(above) > 0.0


@pytest.mark.parametrize("convention", pr.PHASE_NOISE_CONVENTIONS)
def test_find_threshold_matches_closed_form_displacement_root(convention):
    # Phase noise adds delta proportional to N_D to one diagonal entry of the
    # output covariance, so f = det V - Sigma/4 + 1/16 (zero where the PPT
    # eigenvalue nu_min reaches 1/2) is linear in N_D, and its root is N_D*.
    def margin(config):
        cov = pr.run_gaussian_protocol(config).output_state.cov
        a, b, c, v = (np.linalg.det(m) for m in (cov[:2, :2], cov[2:, 2:], cov[:2, 2:], cov))
        return v - (a + b - 2.0 * c) / 4.0 + 1.0 / 16.0

    for sigma in (0.005, 0.01, 0.02):
        config = pr.ProtocolConfig(sigma=sigma, phase_noise_convention=convention)
        f0 = margin(dataclasses.replace(config, N_D=0.0))
        slope = margin(dataclasses.replace(config, N_D=1.0)) - f0
        root = -f0 / slope
        f_root = margin(dataclasses.replace(config, N_D=root))
        assert abs(f_root) < 1e-9 * abs(f0), f"margin not linear in N_D at sigma={sigma}"
        critical = pr.find_threshold(config, "N_D", (1.0, 1e7), tol=1.0)
        assert abs(critical - root) <= 0.5, f"sigma={sigma}: {critical} vs {root}"


def test_find_threshold_bracket_errors():
    config = pr.ProtocolConfig()
    with pytest.raises(ValueError):
        pr.find_threshold(config, "y", (0.2, 0.3))  # positive at both ends
    zero_config = dataclasses.replace(config, eta1=0.05)
    with pytest.raises(ValueError):
        pr.find_threshold(zero_config, "N_D", (1.0, 2.0))  # zero at both ends
    with pytest.raises(ValueError):
        pr.find_threshold(config, "y", (0.9, 0.1))  # decreasing bracket


# (bracket, tol) per searched parameter, as in the benchmark's threshold batch
THRESHOLD_SEARCHES = {
    "N_D": ((1.0, 1e7), 1.0),
    "x": ((1e-6, 1.0), 1e-5),
    "eta1": ((0.0, 1.0), 1e-5),
    "sigma": ((0.0, 0.1), 1e-6),
}


def _entangled(config, parameter, value):
    probe = dataclasses.replace(config, **{parameter: value})
    return pr.entanglement_metric(probe) > pr.ZERO_METRIC_TOL


def _bisected_crossing(config, parameter, bracket, tol):
    """Reference crossing: the bisection find_threshold ran before Brent's method."""
    lo, hi = bracket
    lo_entangled = _entangled(config, parameter, lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _entangled(config, parameter, mid) == lo_entangled:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_threshold_contract(critical, config, parameter, bracket, tol):
    """A find_threshold result lies within tol/2 of the crossing and splits the verdicts."""
    crossing = _bisected_crossing(config, parameter, bracket, tol / 1000)
    # the reference is itself within tol/2000 of the crossing
    assert abs(critical - crossing) <= 0.5 * tol + tol / 2000, (parameter, critical, crossing)
    below = _entangled(config, parameter, max(bracket[0], critical - 0.5 * tol))
    above = _entangled(config, parameter, min(bracket[1], critical + 0.5 * tol))
    assert below != above, (parameter, critical, config)


def _count_runs(monkeypatch):
    """The list of configs whose points reach the engines, one entry per
    probe, counted where every sweep, search and entanglement_metric meets
    them (_spy_runs)."""
    calls = []

    def counted(base, points, evaluate):
        calls.extend(configs_of(base, points))
        return evaluate(points)

    _spy_runs(monkeypatch, counted)
    return calls


@pytest.mark.parametrize("convention", pr.PHASE_NOISE_CONVENTIONS)
def test_find_threshold_lies_within_half_tol_of_bisected_crossing(convention, monkeypatch):
    rng = np.random.default_rng(20261018)
    calls = _count_runs(monkeypatch)
    evaluations = bisection_evaluations = 0
    for parameter, (bracket, tol) in THRESHOLD_SEARCHES.items():
        found = 0
        while found < 6:
            config = pr.ProtocolConfig(
                r=rng.uniform(0.3, 1.0), N_D=10 ** rng.uniform(2, 4), y=rng.uniform(0.02, 0.5),
                x=rng.uniform(0.0, 0.05), N_in=rng.uniform(0.0, 2.0), N_th=rng.uniform(1.0, 20.0),
                sigma=rng.uniform(0.0, 0.01), eta1=rng.uniform(0.6, 1.0),
                eta2=rng.uniform(0.6, 1.0), eta_c=rng.uniform(0.6, 1.0),
                phase_noise_convention=convention,
            )
            lo, hi = (_entangled(config, parameter, end) for end in bracket)
            if lo == hi:
                continue
            found += 1
            del calls[:]
            critical = pr.find_threshold(config, parameter, bracket, tol)
            # both bracket ends and at least one probe between them
            assert len(calls) >= 3, (parameter, len(calls))
            evaluations += len(calls)
            _check_threshold_contract(critical, config, parameter, bracket, tol)
            bisection_evaluations += 2 + math.ceil(math.log2((bracket[1] - bracket[0]) / tol))
    # the witness sets the steps: bisection would take 19 to 26 evaluations per search
    assert evaluations <= 0.5 * bisection_evaluations, (evaluations, bisection_evaluations)


@pytest.mark.parametrize("seed", [6, 8])
def test_fock_find_threshold_lies_within_half_tol_of_bisected_crossing(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    calls = _count_runs(monkeypatch)
    evaluations = []
    for _ in range(2):
        config = pr.ProtocolConfig(
            engine="fock", x=rng.uniform(0.0, 0.02),
            N_th=rng.uniform(0.1, 0.5), N_in=rng.uniform(0.0, 0.5), eta1=rng.uniform(0.8, 1.0),
            eta2=rng.uniform(0.8, 1.0), eta_c=rng.uniform(0.8, 1.0),
        )
        for parameter, bracket, tol in (("N_D", (1.0, 1e5), 1.0), ("sigma", (0.0, 0.05), 1e-6)):
            del calls[:]
            critical = pr.find_threshold(config, parameter, bracket, tol)
            evaluations.append(len(calls))
            _check_threshold_contract(critical, config, parameter, bracket, tol)
    # 9 to 10 with the X-state witness setting the steps; bisection takes 19 and 18
    assert min(evaluations) >= 3 and max(evaluations) <= 12, evaluations


def test_find_threshold_fig3_displacement_search_takes_few_evaluations(monkeypatch):
    # The gaussian witness is linear in N_D, so the secant step from the two
    # bracket ends lands on the crossing and one step of tol/2 closes the
    # bracket.  Bisection took 26 evaluations here.
    calls = _count_runs(monkeypatch)
    critical = pr.find_threshold(pr.ProtocolConfig(sigma=0.005), "N_D", (1.0, 1e7), tol=1.0)
    assert 3 <= len(calls) <= 5, [c.N_D for c in calls]
    assert abs(critical - 48636.945) < 0.5


def test_find_threshold_fig3_displacement_search_takes_three_pipeline_calls(monkeypatch):
    # The two bracket ends run as one batch, then the secant step and the
    # step of tol/2 run alone: 4 probes in 3 calls of the search's one
    # pipeline stream.
    probes = _count_runs(monkeypatch)
    streams, batches, stream = [], [], pr._stream

    def counted(base):
        streams.append(base)
        evaluate = stream(base)
        return lambda points: batches.append(points) or evaluate(points)

    monkeypatch.setattr(pr, "_stream", counted)
    pr.find_threshold(pr.ProtocolConfig(sigma=0.005), "N_D", (1.0, 1e7), tol=1.0)
    assert (len(probes), len(batches), len(streams)) == (4, 3, 1), [c.N_D for c in probes]


@pytest.mark.parametrize("engine", pr.ENGINES)
def test_a_search_checks_its_two_bracket_ends_once(engine, monkeypatch):
    # Both ends pass their field's check before the first run; every later
    # probe lies between them, so it is written into the point unchecked.
    checked, check = [], pr._checked
    monkeypatch.setattr(pr, "_checked", lambda name, v: checked.append((name, v)) or check(name, v))
    probes = _count_runs(monkeypatch)
    base = pr.ProtocolConfig(engine=engine, eta_c=1.0, sigma=0.005)
    for parameter, bracket, tol in (
        ("N_D", (1.0, 1e7), 1.0), ("sigma", (0.0, 0.1), 1e-6), ("eta1", (0.0, 1.0), 1e-5)
    ):
        del checked[:], probes[:]
        pr.find_threshold(base, parameter, bracket, tol)
        assert checked == [(parameter, end) for end in bracket], parameter
        assert len(probes) > 2, (parameter, len(probes))


@pytest.mark.parametrize("convention", pr.PHASE_NOISE_CONVENTIONS)
def test_find_threshold_matches_closed_form_phase_noise_root(convention, monkeypatch):
    # sigma enters only through the phase-noise variance 2 |alpha_eff|^2
    # sigma^2, so the margin f = det V - Sigma/4 + 1/16 is linear in u = sigma^2
    # with root u*, and a search on u lands on it with its first secant step.
    def margin(config):
        cov = pr.run_gaussian_protocol(config).output_state.cov
        a, b, c, v = (np.linalg.det(m) for m in (cov[:2, :2], cov[2:, 2:], cov[:2, 2:], cov))
        return v - (a + b - 2.0 * c) / 4.0 + 1.0 / 16.0

    calls = _count_runs(monkeypatch)
    for n_d in (2000.0, 5000.0, 20000.0):
        config = pr.ProtocolConfig(N_D=n_d, phase_noise_convention=convention)
        f0 = margin(dataclasses.replace(config, sigma=0.0))
        slope = (margin(dataclasses.replace(config, sigma=0.01)) - f0) / 0.01**2
        root = math.sqrt(-f0 / slope)
        f_root = margin(dataclasses.replace(config, sigma=root))
        assert abs(f_root) < 1e-9 * abs(f0), f"margin not linear in sigma^2 at N_D={n_d}"
        del calls[:]
        critical = pr.find_threshold(config, "sigma", (0.0, 0.1), tol=1e-6)
        assert abs(critical - root) <= 0.5e-6, f"N_D={n_d}: {critical} vs {root}"
        assert 3 <= len(calls) <= 4, [c.sigma for c in calls]


def test_find_threshold_batched_ends_match_single_runs(monkeypatch):
    # The bracket ends run as one gaussian batch; each entry is the single
    # run's, so the searches find what one run per probe finds.
    rng = np.random.default_rng(10)
    searches = []
    for parameter, (bracket, tol) in THRESHOLD_SEARCHES.items():
        config = pr.ProtocolConfig(
            r=rng.uniform(0.3, 1.0), y=rng.uniform(0.02, 0.3), N_th=rng.uniform(1.0, 5.0),
            sigma=rng.uniform(0.0, 0.01), eta1=rng.uniform(0.7, 1.0),
        )
        ends = [dataclasses.replace(config, **{parameter: end}) for end in bracket]
        batch = pr._stream(config)([pr._point(end) for end in ends])
        for i, end in enumerate(ends):
            single = pr.run_gaussian_protocol(end)
            assert batch[i][0] == single.log_negativity, (parameter, i)
            assert batch[i][1] == single.witness, (parameter, i)
        searches.append((config, parameter, bracket, tol))
    batched = [pr.find_threshold(*search) for search in searches]
    singles = []

    def one_at_a_time(base, points, _):
        configs = configs_of(base, points)
        singles.extend(configs)
        runs = [pr.run_gaussian_protocol(c) for c in configs]
        return [(r.log_negativity, r.witness) for r in runs]

    _spy_runs(monkeypatch, one_at_a_time)
    assert [pr.find_threshold(*search) for search in searches] == batched
    # every probe of the second round ran alone
    assert len(singles) >= 3 * len(searches)


# the brackets of the pinned searches
PINNED_BRACKETS = {
    "N_D": (1.0, 1e7), "sigma": (0.0, 0.1), "eta1": (0.0, 1.0), "x": (1e-6, 1.0),
    "N_th": (0.0, 1e3),
}
# float.hex of each pinned search's result, in pinned_searches order
PINNED_THRESHOLDS = {
    "gaussian": [
        "0x1.c6ad0dc9d2649p+14", "0x1.c6ad0dca72f56p+14", "0x1.b445821bd80e0p-7",
        "0x1.b45a7ad15b134p-7", "0x1.108545dff4f8bp-1", "0x1.108599c1a8540p-1",
        "0x1.c84528de269d2p-6", "0x1.c84f9eff906ecp-6", "0x1.e230380cc2b30p+9",
        "0x1.e2303821afd94p+9", "0x1.00fdfbf2f4524p+16", "0x1.00fdfbf319e10p+16",
        "0x1.bcecb365e2498p-6", "0x1.bcf72fc0a00fep-6", "0x1.3f5748f479b4bp-2",
        "0x1.3f560ae881bb6p-2", "0x1.311965aa981fcp-5", "0x1.311e83a5ae720p-5",
        "0x1.bbede4177d7c4p+1", "0x1.bbedf90a0b43fp+1",
    ],
    "fock": [
        "0x1.c4b9ac7d56f8ap+13", "0x1.c4b9ac7e9a4dep+13", "0x1.616b9ad43204cp-5",
        "0x1.616669ca2b604p-5", "0x1.5a3d20bc9fed6p-5", "0x1.5a420dd649ce6p-5",
        "0x1.3ef622e9d19ebp-1", "0x1.3ef5f427f1e4fp-1", "0x1.ccd2b948c8570p+3",
        "0x1.ccd2b49a5a98ep+3", "0x1.7730894d8a784p+21", "0x1.7730894d8b5d4p+21",
        "0x1.459ccae03fa7ep-6", "0x1.459e1050b7ef6p-6", "0x1.01a4023f891dcp-6",
        "0x1.01acee52f82fcp-6", "0x1.a64100b3c0d67p-1", "0x1.a640acd60451cp-1",
        "0x1.adbf1308852ebp+4", "0x1.adbf15a77923cp+4",
    ],
}


def pinned_searches(engine):
    """(config, parameter, bracket, tol) of each pinned search of `engine`:
    per convention and parameter, the first config drawn from its own
    seeded stream whose verdicts differ at the bracket ends, searched at
    tol 1e-5 and at 0."""
    fock = engine == "fock"
    for convention in pr.PHASE_NOISE_CONVENTIONS:
        for parameter, bracket in PINNED_BRACKETS.items():
            rng = random.Random(f"{engine}-{convention}-{parameter}")
            while True:
                config = pr.ProtocolConfig(
                    r=rng.uniform(0.3, 1.0), N_D=10 ** rng.uniform(2, 4),
                    y=rng.uniform(0.02, 0.5), x=rng.uniform(0.0, 0.02 if fock else 0.05),
                    N_in=rng.uniform(0.0, 0.5 if fock else 2.0),
                    N_th=rng.uniform(0.1, 0.5) if fock else rng.uniform(1.0, 20.0),
                    sigma=rng.uniform(0.0, 0.01), eta1=rng.uniform(0.6, 1.0),
                    eta2=rng.uniform(0.6, 1.0), eta_c=rng.uniform(0.6, 1.0),
                    engine=engine, phase_noise_convention=convention,
                )
                lo, hi = (_entangled(config, parameter, end) for end in bracket)
                if lo != hi:
                    break
            for tol in (1e-5, 0.0):
                yield config, parameter, bracket, tol


@pytest.mark.parametrize("engine", pr.ENGINES)
def test_find_threshold_results_are_pinned(engine):
    # Searches on both conventions over N_D, sigma, eta1, x and N_th, at a
    # loose tol and at the float-spacing floor: every result, bit for bit.
    found = [pr.find_threshold(*search).hex() for search in pinned_searches(engine)]
    assert found == PINNED_THRESHOLDS[engine]


# (config, parameter, bracket) of searches whose crossing is far from 0
FINE_SEARCHES = {
    "N_D": (pr.ProtocolConfig(sigma=0.005), "N_D", (1.0, 1e7)),
    "eta1": (pr.ProtocolConfig(), "eta1", (0.0, 1.0)),
    "sigma": (pr.ProtocolConfig(), "sigma", (0.0, 0.1)),
}


@pytest.mark.parametrize("tol", [0.0, 1e-12])
@pytest.mark.parametrize("search", sorted(FINE_SEARCHES))
def test_find_threshold_ends_for_tol_below_float_spacing(search, tol):
    # A tol under the float spacing at the crossing used to loop forever, so
    # the search runs in a child process that a timeout stops.  The child
    # prints the result and every probed value.
    config, parameter, bracket = FINE_SEARCHES[search]
    code = (
        "from micromacro import protocol as pr\n"
        "probes, stream = [], pr._stream\n"
        f"count = lambda ps: probes.extend(p[{pr._FLOAT_FIELDS.index(parameter)}] for p in ps)\n"
        "pr._stream = lambda base: (lambda ps, run=stream(base): count(ps) or run(ps))\n"
        f"config = pr.config_from_mapping({dataclasses.asdict(config)!r})\n"
        f"print(repr([pr.find_threshold(config, {parameter!r}, {bracket!r}, {tol!r}), probes]))\n"
    )
    src = os.path.dirname(os.path.dirname(pr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    critical, probes = ast.literal_eval(done.stdout)
    # the final bracket's ends are the probes nearest the result on either side
    below = max(p for p in probes if p < critical)
    above = min(p for p in probes if p > critical)
    assert critical == 0.5 * (below + above)
    assert above - below <= max(tol, 4.0 * sys.float_info.epsilon * max(abs(below), abs(above)))
    assert _entangled(config, parameter, below) != _entangled(config, parameter, above)


def _count_helpers(monkeypatch, *names):
    """Per protocol._stream (one per sweep, search and
    entanglement_metric), its points and the arguments of each call of the
    named channel helpers they make, as [(points, {name: [args]})]."""
    calls = []
    for name in names:
        helper = getattr(ch, name)

        def counted(*args, name=name, helper=helper):
            calls[-1][1][name].append(args)
            return helper(*args)

        monkeypatch.setattr(ch, name, counted)
    stream = pr._stream

    def tracked_stream(base):
        points, run = [], stream(base)
        calls.append((points, {name: [] for name in names}))
        return lambda batch: points.extend(batch) or run(batch)

    monkeypatch.setattr(pr, "_stream", tracked_stream)
    return calls


GRID_16x16x3 = dict(
    axis1=sw.AxisSpec("x", sw.linear_grid(0.0, 0.3, 16)),
    axis2=sw.AxisSpec("y", sw.linear_grid(0.01, 0.99, 16)),
    series=sw.AxisSpec("N_in", (0.0, 1.0, 10.0)),
)
# each engine's base with an eta1 threshold in [0, 1]
SEARCH_BASES = {"gaussian": pr.ProtocolConfig(), "fock": pr.ProtocolConfig(**FOCK_BASE)}


def test_storage_channel_runs_only_where_x_or_y_is_not_the_previous_points_object(monkeypatch):
    # the pipeline takes each storage channel from channel._channel
    calls = _count_helpers(monkeypatch, "_channel")
    for engine, base in SEARCH_BASES.items():
        del calls[:]
        sw.run_sweep(sw.SweepSpec(base=pr.ProtocolConfig(engine=engine), **GRID_16x16x3))
        ((_, counts),) = calls
        assert len(counts["_channel"]) == len(set(counts["_channel"])) == 256, engine
        # an eta1 search: every probe, the two bracket ends included, shares
        # one (x, y), so the search's one stream computes it once
        del calls[:]
        pr.find_threshold(base, "eta1", (0.0, 1.0))
        ((points, counts),) = calls
        assert len(points) > 3
        assert len(counts["_channel"]) == 1, engine


def test_a_search_computes_what_its_probes_share_once(monkeypatch):
    # On fig5's base an N_D, sigma or eta1 search leaves x, y and r the
    # base's own objects at every probe, so its one stream runs the storage
    # channel and the squeezed input once; an x search runs the channel at
    # every probe and the squeezed input once
    calls = _count_helpers(monkeypatch, "_channel", "_tmsv_entries")
    base = sw.preset_base("fig5")
    for parameter, bracket, tol in (
        ("N_D", (1.0, 1e7), 1.0), ("sigma", (0.0, 0.1), 1e-6), ("eta1", (0.0, 1.0), 1e-5),
        ("x", (1e-6, 1.0), 1e-5),
    ):
        del calls[:]
        pr.find_threshold(base, parameter, bracket, tol)
        ((points, counts),) = calls
        channels = len(points) if parameter == "x" else 1
        assert len(points) > 2, parameter
        assert (len(counts["_channel"]), len(counts["_tmsv_entries"])) == (channels, 1), parameter


def _new_objects(points, *indices):
    """The fields at `indices` of each point where one of them is not the
    previous point's object: where protocol._mode_a recomputes what reads
    them."""
    out, previous = [], None
    for point in points:
        fields = tuple(point[i] for i in indices)
        if previous is None or any(a is not b for a, b in zip(fields, previous)):
            out.append(fields)
        previous = fields
    return out


def _same_objects(got, expected):
    return len(got) == len(expected) and all(
        all(a is b for a, b in zip(g, e)) for g, e in zip(got, expected)
    )


# a sweep whose innermost axis is x, and one whose innermost axis is r from
# -0.0: each point's x, or r, is not the previous point's object
X_SERIES = dict(
    axis1=sw.AxisSpec("N_D", sw.log_grid(1.0, 1e5, 8)),
    axis2=sw.AxisSpec("y", (0.05, 0.1, 0.5, 0.9)),
    series=sw.AxisSpec("x", (0.0, 0.01, 0.05)),
)
R_SERIES = dict(
    axis1=sw.AxisSpec("N_D", sw.log_grid(1.0, 1e5, 8)),
    series=sw.AxisSpec("r", (-0.0, 0.5, 1.0)),
)


def test_stage_inputs_run_exactly_where_a_field_they_read_is_not_the_previous_points_object(
    monkeypatch,
):
    # the grid varies (x, y) every third point and N_in at each, and every
    # other field is the base's own object throughout the call
    names = ("_channel", "_tmsv_entries", "_loss_terms", "_phase_variance")
    calls = _count_helpers(monkeypatch, *names)
    x, y, r = (pr._FLOAT_FIELDS.index(name) for name in ("x", "y", "r"))

    def check(base, label):
        # the storage channel runs at the (x, y) of exactly the points where
        # x or y is a new object, the squeezed input at the r of exactly the
        # points where r is, and nothing is taken from an earlier point
        squeezed = base.engine == "gaussian"
        for points, counts in calls:
            assert _same_objects(counts["_channel"], _new_objects(points, x, y)), label
            assert _same_objects(
                counts["_tmsv_entries"], _new_objects(points, r) if squeezed else []
            ), label

    for engine, base in SEARCH_BASES.items():
        del calls[:]
        sw.run_sweep(sw.SweepSpec(base=pr.ProtocolConfig(engine=engine), **GRID_16x16x3))
        check(base, engine)
        squeezed = int(engine == "gaussian")  # the fock input is no squeezed state
        assert {name: len(args) for name, args in calls[0][1].items()} == {
            "_channel": 256, "_tmsv_entries": squeezed, "_loss_terms": 3, "_phase_variance": 256
        }, engine
        # a threshold search runs all its probes through one stream, so it
        # runs the channel and the squeezed input once; an eta1 search's
        # probes differ in eta1 alone, which one loss stage and the jitter
        # read
        del calls[:]
        pr.find_threshold(base, "eta1", (0.0, 1.0))
        check(base, engine)
        ((points, counts),) = calls
        n = len(points)
        assert n > 3 and {name: len(args) for name, args in counts.items()} == {
            "_channel": 1, "_tmsv_entries": squeezed, "_loss_terms": 2 + n, "_phase_variance": n
        }, engine
        # an x series recomputes the channel at every point and an r series
        # the squeezed input, although each call holds only three values of
        # either; every point is its own single-point run
        for label, grid, channels, squeezes in (
            ("x series", X_SERIES, 96, squeezed), ("r series", R_SERIES, 1, 24 * squeezed)
        ):
            del calls[:]
            sw.run_sweep(sw.SweepSpec(base=base, **grid))
            check(base, (engine, label))
            ((points, counts),) = calls
            assert (len(counts["_channel"]), len(counts["_tmsv_entries"])) == (
                channels, squeezes
            ), (engine, label)
            pairs = pr._stream(base)(points)
            singles = [pr._stream(base)([point])[0] for point in points]
            assert [bits(pair) for pair in pairs] == [bits(pair) for pair in singles], label
        # the r series' zero reaches the points as -0.0
        assert {math.copysign(1.0, point[r]) for point in points if point[r] == 0.0} == {-1.0}


def test_gaussian_batch_keeps_signed_zeros_of_shared_values():
    # r = -0.0 gives the correlation k = -0.0 and eta = -0.0 the amplitude
    # -0.0, although -0.0 == 0.0, so no input may be reused by value; x = -0.0
    # flips no output bit
    configs = [
        pr.ProtocolConfig(r=r, x=x, y=y, eta1=eta1, eta2=eta2, eta_c=eta_c)
        for r, x, y, eta1, eta2, eta_c in itertools.product(
            (0.0, -0.0), (0.0, -0.0), (0.1, 0.995), *[(0.0, -0.0, 1.0)] * 3
        )
    ]
    batch = gaussian_batch(configs)
    for i, config in enumerate(configs):
        single = pr.run_gaussian_protocol(config)
        for field in ("log_negativity", "nu_min", "witness"):
            assert getattr(single, field).hex() == float(getattr(batch, field)[i]).hex(), config
        assert single.output_state.cov.tobytes() == batch.cov[i].tobytes(), config
    # the signs do reach the output: both signs of a zero correlation occur
    signs = {math.copysign(1.0, k) for k in batch.cov[:, 0, 2].tolist()}
    assert signs == {1.0, -1.0}
    # and so does each eta's: a point whose eta1, eta2 or eta_c is -0.0 and
    # its twin at 0.0, in the same batch, differ in some covariance bit
    index = {bits(pr._point(c)): i for i, c in enumerate(configs)}
    for name in ("eta1", "eta2", "eta_c"):
        twins = [
            (i, index[bits(pr._point(dataclasses.replace(c, **{name: -0.0})))])
            for i, c in enumerate(configs)
            if getattr(c, name) == 0.0 and math.copysign(1.0, getattr(c, name)) > 0
        ]
        assert any(batch.cov[i].tobytes() != batch.cov[j].tobytes() for i, j in twins), name
    # a call reuses a stage's inputs where its fields are the previous
    # point's objects, so equal but distinct values must each get their own;
    # one stream fed the points as uneven calls carries those inputs, and
    # the gaussian det B and det C, from each call's last point to the next
    # call's first
    for engine, base in SEARCH_BASES.items():
        points = _neighbour_points(base, 400, seed=20261020)
        pairs = pr._stream(base)(points)
        singles = [pr._stream(base)([point])[0] for point in points]
        run = pr._stream(base)
        split = run(points[:1]) + run(points[1:3]) + run(points[3:])
        assert [bits(pair) for pair in pairs] == [bits(pair) for pair in singles], engine
        assert [bits(pair) for pair in split] == [bits(pair) for pair in pairs], engine
    # each field's neighbours are the same object, equal but distinct, or
    # unequal, and the zeros of ZERO_FIELDS come in both signs and types
    for i, name in enumerate(pr._FLOAT_FIELDS):
        kinds = {
            "same" if a[i] is b[i] else "equal" if a[i] == b[i] else "other"
            for a, b in zip(points, points[1:])
        }
        assert kinds == {"same", "equal", "other"}, name
        if name in ZERO_FIELDS:
            zeros = {(type(p[i]), math.copysign(1.0, p[i])) for p in points if p[i] == 0.0}
            assert len(zeros) == 4, name


ZERO_FIELDS = ("r", "N_D", "x", "sigma", "eta1", "eta2", "eta_c")
# a field's range for a new random value in _neighbour_points
NEIGHBOUR_RANGES = dict(
    r=(0.0, 2.0), N_D=(0.0, 1e4), y=(0.01, 1.0), x=(0.0, 0.3), N_in=(0.0, 2.0),
    N_th=(0.0, 2.0), sigma=(0.0, 0.02), eta1=(0.0, 1.0), eta2=(0.0, 1.0), eta_c=(0.0, 1.0),
)


def _neighbour_points(base, n, seed):
    """n float tuples from `base`, each a copy of the previous one in which
    every field keeps the previous point's object, or takes an equal but
    distinct float, a new random value, or one of the zeros 0.0, -0.0 and
    NumPy's (ZERO_FIELDS; y, which has no zero, takes 0.1 or 0.995)."""
    rng = np.random.default_rng(seed)
    zeros = (0.0, -0.0, np.float64(0.0), np.float64(-0.0))
    point, points = list(pr._point(base)), []
    for _ in range(n):
        for i, name in enumerate(pr._FLOAT_FIELDS):
            draw, value = rng.integers(4), point[i]
            if draw == 1:
                point[i] = type(value)(str(value))  # equal, not the same object
            elif draw == 2:
                point[i] = float(rng.uniform(*NEIGHBOUR_RANGES[name]))
            elif draw == 3 and name in ZERO_FIELDS:
                point[i] = zeros[rng.integers(len(zeros))]
            elif draw == 3 and name == "y":
                point[i] = (0.1, 0.995)[rng.integers(2)]
        points.append(tuple(point))
    return points


def _outputs(config):
    """A config's single-run outputs by float.hex, its covariance's bytes included."""
    if config.engine == "fock":
        return tuple(map(float.hex, dataclasses.astuple(pr.run_fock_protocol(config))))
    result = pr.run_gaussian_protocol(config)
    fields = (result.log_negativity, result.nu_min, result.witness)
    return (*map(float.hex, fields), result.output_state.cov.tobytes())


@pytest.mark.parametrize("engine", pr.ENGINES)
def test_numpy_zeros_run_as_python_zeros(engine):
    # a config field may be given a NumPy float: its zeros of either sign
    # run bit for bit as the Python float's, on their own and in one call
    # with the other sign and with the Python zeros
    base = SEARCH_BASES[engine]
    names = ("r", "N_D", "x", "N_in", "N_th", "sigma", "eta1", "eta2", "eta_c")
    for numpy_float, name in itertools.product((np.float64, np.float32), names):
        plain = [dataclasses.replace(base, **{name: zero}) for zero in (0.0, -0.0)]
        numpy = [dataclasses.replace(base, **{name: numpy_float(zero)}) for zero in (0.0, -0.0)]
        for config, twin in zip(numpy, plain):
            assert _outputs(config) == _outputs(twin), (name, config)
        pairs = pr._stream(base)([pr._point(c) for c in numpy + plain])
        assert [bits(pair) for pair in pairs[:2]] == [bits(pair) for pair in pairs[2:]], name


@pytest.mark.parametrize(
    "engine, metric", [("gaussian", 0.11930577715770614), ("fock", 0.07230776613583334)]
)
def test_a_numpy_float32_field_runs_as_its_python_float(engine, metric):
    # a config stores every float field as a Python float, so a float32
    # field runs in double precision, as float(np.float32(0.8)) does
    single = np.float32(0.8)
    config = pr.ProtocolConfig(engine=engine, eta1=single)
    assert type(config.eta1) is float and config.eta1 == float(single)
    assert {type(v) for v in pr._point(config)} == {float}
    assert pr.entanglement_metric(config) == metric
    assert pr.entanglement_metric(dataclasses.replace(config, eta1=float(single))) == metric
    # the field's check still sees the value as given
    with pytest.raises(ValueError, match=r"^transmission eta1=1\.5 outside \[0, 1\]$"):
        pr.ProtocolConfig(engine=engine, eta1=np.float32(1.5))


def test_pipeline_builds_no_channel_coefficients(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a ChannelCoefficients was built")

    monkeypatch.setattr(ch, "ChannelCoefficients", refuse)
    with pytest.raises(AssertionError):  # the patch reaches the public builder
        ch.channel_coefficients(0.01, 0.1)
    for engine, base in SEARCH_BASES.items():
        sw.run_sweep(sw.SweepSpec(base=base, **GRID_16x16x3))
        pr.find_threshold(base, "eta1", (0.0, 1.0))
        points = [pr._point(dataclasses.replace(base, y=y)) for y in (0.1, 0.5, 1.0, 0.1)]
        assert len(pr._stream(base)(points)) == 4
        pr.entanglement_metric(base)


def _hex_or_error(function, x, y):
    """function(x, y)'s (c1, terms) by float.hex, or its error's type and message."""
    try:
        c1, terms = function(x, y)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return c1.hex(), tuple(map(float.hex, terms))


def _pipeline_channel(x, y):
    terms = ch._channel(x, y)
    return -terms[0], terms


def _public_channel(x, y):
    coeffs = ch.channel_coefficients(x, y)
    return coeffs.c1, ch._storage_channel(coeffs)


def test_pipeline_channel_is_the_public_channel_bit_for_bit():
    rng = np.random.default_rng(20261020)
    xs = [0.0, -0.0, *rng.uniform(0.0, 2.0, 40).tolist(), *(10.0 ** rng.uniform(-12, 3, 20)).tolist()]
    # y = 1, the series branch (1 - y^2 < SERIES_BELOW) and either side of it
    edge = math.sqrt(1.0 - ch.SERIES_BELOW)
    ys = [1.0, edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0),
          *(1.0 - 10.0 ** rng.uniform(-16, -2.5, 20)).tolist(),
          *rng.uniform(1e-6, 1.0, 20).tolist()]
    outcomes = [
        (_hex_or_error(_pipeline_channel, x, y), _hex_or_error(_public_channel, x, y))
        for x in xs for y in ys
    ]
    assert all(private == public for private, public in outcomes)
    # the draw mostly passes the closure check and reaches the series branch
    assert sum(isinstance(private[1], tuple) for private, _ in outcomes) > 0.9 * len(outcomes)
    assert sum(1.0 - y * y < ch.SERIES_BELOW for y in ys) > 10
    # the same domain checks
    for x, y in ((-0.1, 0.5), (math.inf, 0.5), (0.1, 0.0), (0.1, 1.5), (0.1, math.nan)):
        assert _hex_or_error(_pipeline_channel, x, y) == _hex_or_error(_public_channel, x, y)
        assert _hex_or_error(_pipeline_channel, x, y)[0] is ValueError


def _public_mode_a(config):
    """Entries (0,0), (1,1), (0,2) and (1,3) that mode A's public operations
    give from the state whose cross-blocks are the identity: A's composed
    channel's added noises and gains."""
    identity = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    coeffs = ga.channel_coefficients(config.x, config.y)
    state = ga.loss_channel(ga.GaussianTwoModeState(np.zeros(4), identity), "A", config.eta1)
    state = ga.storage_retrieval_channel(state, coeffs, config.N_in, config.N_th)
    state = ga.phase_noise(state, config.sigma, pr.phase_noise_amplitude_sq(config, coeffs))
    cov = ga.loss_channel(state, "A", config.eta2).cov
    return [cov[0, 0], cov[1, 1], cov[0, 2], cov[1, 3]]


def test_fock_mode_a_is_the_public_operations_bit_for_bit():
    # the generator without the squeezed input starts from (0, 0, 1, 1), so
    # it composes the same stages as the public operations on that state;
    # one call over all configs reuses the 1.0 and 0.0 objects they share
    rng = np.random.default_rng(20261020)

    def draw(special, lo, hi):
        return special if rng.random() < 0.25 else float(rng.uniform(lo, hi))

    configs = [
        pr.ProtocolConfig(
            engine="fock", N_D=float(10.0 ** rng.uniform(0.0, 5.0)), y=draw(1.0, 0.01, 1.0),
            x=draw(0.0, 0.0, 0.3), N_in=float(rng.uniform(0.0, 2.0)),
            N_th=float(rng.uniform(0.0, 20.0)), sigma=draw(0.0, 0.0, 0.02),
            eta1=draw(1.0, 0.0, 1.0), eta2=draw(1.0, 0.0, 1.0), eta_c=draw(1.0, 0.0, 1.0),
            phase_noise_convention=str(rng.choice(pr.PHASE_NOISE_CONVENTIONS)),
        )
        for _ in range(3000)
    ]
    for name, special in (("x", 0.0), ("sigma", 0.0), ("eta1", 1.0), ("eta2", 1.0)):
        assert sum(getattr(c, name) == special for c in configs) > 600, name
    for convention in pr.PHASE_NOISE_CONVENTIONS:
        group = [c for c in configs if c.phase_noise_convention == convention]
        assert len(group) > 1300, convention
        batch = pr._mode_a([pr._point(c) for c in group], convention, False)
        for config, mode_a in zip(group, batch, strict=True):
            (single,) = pr._mode_a([pr._point(config)], convention, False)
            expected = list(map(float.hex, _public_mode_a(config)))
            assert list(map(float.hex, single[:4])) == expected, config
            assert list(map(float.hex, mode_a[:4])) == expected, config


@pytest.mark.parametrize("engine", pr.ENGINES)
def test_pipelines_reject_coefficients_that_violate_closure(monkeypatch, engine):
    config = pr.ProtocolConfig(engine=engine)
    defect = dataclasses.replace(ch.channel_coefficients(config.x, config.y), f1=1.0).closure_defect
    core = ch._coefficients
    monkeypatch.setattr(ch, "_coefficients", lambda x, y: (*core(x, y)[:2], 1.0, core(x, y)[3]))
    with pytest.raises(
        ValueError, match=rf"^channel coefficients violate closure by {re.escape(str(defect))}$"
    ):
        pr.entanglement_metric(config)


def test_find_threshold_rejects_nan_tol_before_any_probe(monkeypatch):
    runs = _count_runs(monkeypatch)
    for engine in pr.ENGINES:
        config = pr.ProtocolConfig(engine=engine)
        with pytest.raises(ValueError, match=r"^tol=nan must be a number$"):
            pr.find_threshold(config, "eta1", (0.0, 1.0), tol=float("nan"))
        assert runs == [], engine
        # the counter sees this engine's runs
        pr.entanglement_metric(config)
        assert runs == [config], engine
        del runs[:]
    # negative and infinite tol keep their meaning: the float-spacing floor
    # and the bracket midpoint
    config = pr.ProtocolConfig()
    assert pr.find_threshold(config, "eta1", (0.0, 1.0), tol=-1.0) == pr.find_threshold(
        config, "eta1", (0.0, 1.0), tol=0.0
    )
    assert pr.find_threshold(config, "eta1", (0.0, 1.0), tol=math.inf) == 0.5


def test_engine_consistency_on_entanglement_verdict():
    # Whenever the covariance engine sees entanglement, the projected qubit
    # pair of the fock engine must fail the positive-partial-transpose test,
    # and vice versa (20 random draws in the truncation-honest box).
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(0, 0.1)
        y = rng.uniform(0.1, 0.9)
        n_in = rng.uniform(0, 0.5)
        n_th = rng.uniform(0, 0.5)
        r = rng.uniform(0.05, 0.3)
        coeffs = ga.channel_coefficients(x, y)
        gauss = ga.storage_retrieval_channel(ga.tmsv_state(r), coeffs, n_in, n_th)
        gauss_entangled = ga.log_negativity(gauss) > 1e-10
        rho = fk.linear_channel_apply(
            fk.two_mode_squeezed_state(r, (16, 16)), coeffs, n_in, n_th
        )
        qubits, _ = fk.qubit_project(rho)
        m = qubits.reshape(2, 2, 2, 2)
        partial_transpose = m.transpose(0, 3, 2, 1).reshape(4, 4)
        fock_entangled = np.linalg.eigvalsh(partial_transpose)[0] < -1e-10
        assert gauss_entangled == fock_entangled, (x, y, n_in, n_th, r)


def test_vacuum_mechanics_weak_coupling_limit_oracle():
    # With N_in = 0 the channel near y = 1 is an attenuator tau = c1^2 whose
    # added noise and phase-noise variance are both proportional to tau, so
    # the state stays entangled as y -> 1 iff
    #     (4/3) x N_th + eta1 N_D sigma^2 < eta1        (propagated_mean)
    #     (4/3) x N_th + N_D sigma^2 (1 + x)^2 < eta1   (paper_literal)
    # independent of r, eta2 and eta_c.  Draws within 5 % of equality are
    # left out, since the condition is exact only in the limit.
    rng = np.random.default_rng(20261018)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        base = pr.ProtocolConfig(
            r=rng.uniform(0.1, 1.0), N_D=10 ** rng.uniform(2, 4), y=0.999,
            x=rng.uniform(0, 0.1), N_in=0.0, N_th=rng.uniform(0, 10),
            sigma=rng.uniform(0, 0.02), eta1=rng.uniform(0.2, 1.0),
            eta2=rng.uniform(0.2, 1.0), eta_c=rng.uniform(0.2, 1.0),
        )
        for convention in pr.PHASE_NOISE_CONVENTIONS:
            config = dataclasses.replace(base, phase_noise_convention=convention)
            if convention == "paper_literal":
                gain = (1.0 + config.x) ** 2
            else:
                gain = config.eta1
            limit = 4.0 / 3.0 * config.x * config.N_th + gain * config.N_D * config.sigma**2
            if abs(limit / config.eta1 - 1.0) < 0.05:
                continue
            predicted = limit < config.eta1
            assert (pr.entanglement_metric(config) > 0.0) == predicted, config
            verdicts[predicted] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_feasibility_presets_frozen_values():
    report = pr.feasibility(pr.FEASIBILITY_PRESETS["nanobeam"])
    assert abs(report.G - 2.0 * math.pi * 3.2e6) < 1e-3
    assert abs(report.x - 0.0109375) < 1e-12
    assert abs(report.N_th - 10.7704352251) < 1e-9
    assert abs(report.suppression - (5.0 / 37.0) ** 2) < 1e-15
    assert abs(report.y_G - 0.1339057214) < 1e-9
    assert report.resolved_sideband and report.adiabatic and report.detectable
    report = pr.feasibility(pr.FEASIBILITY_PRESETS["trampoline"])
    assert abs(report.decoherence_time - 7.64e-3) < 0.05e-3
    assert abs(report.N_th - 2083.16) < 0.01


def test_feasibility_flags_and_ratio_threshold():
    nanobeam = pr.FEASIBILITY_PRESETS["nanobeam"]
    # omega_m / kappa = 7.4 and kappa / g = 12.5: both pass at 5x
    report = pr.feasibility(nanobeam)
    assert report.resolved_sideband and report.adiabatic
    # omega_m / kappa = 4 fails the 5x requirement; kappa / g is unchanged
    slow = pr.feasibility(dataclasses.replace(nanobeam, omega_m=4 * nanobeam.kappa))
    assert not slow.resolved_sideband and slow.adiabatic
    assert any("tau" in note for note in slow.notes)


def test_feasibility_reports_a_frozen_bath():
    nanobeam = pr.FEASIBILITY_PRESETS["nanobeam"]
    warm = pr.feasibility(nanobeam)
    # hbar omega / k_B T overflows expm1 at 1e-5 K; k_B T underflows to 0 at 1e-310 K
    for T in (1e-5, 1e-310):
        report = pr.feasibility(dataclasses.replace(nanobeam, T=T))
        assert (report.N_th, report.decoherence_time) == (0.0, math.inf), T
        assert report.detectable and (report.G, report.x) == (warm.G, warm.x), T
    # just past expm1's range N_th = exp(-z), a positive subnormal; just inside
    # it the closed form 1 / expm1(z) is unchanged
    for nominal_z in (720.0, 700.0):
        T = pr.HBAR * nanobeam.omega_m / (pr.KB * nominal_z)
        report = pr.feasibility(dataclasses.replace(nanobeam, T=T))
        z = pr.HBAR * nanobeam.omega_m / (pr.KB * T)
        expected = math.exp(-z) if z > math.log(sys.float_info.max) else 1.0 / math.expm1(z)
        assert report.N_th == expected > 0.0, nominal_z
        assert report.decoherence_time == 1.0 / (report.N_th * nanobeam.gamma), nominal_z


def test_feasibility_reports_an_infinite_bath_and_suppression():
    nanobeam = pr.FEASIBILITY_PRESETS["nanobeam"]
    # hbar omega_m underflows to 0 at omega_m = 1e-300, so z = 0
    report = pr.feasibility(dataclasses.replace(nanobeam, omega_m=1e-300))
    assert (report.N_th, report.suppression, report.decoherence_time) == (math.inf, math.inf, 0.0)
    assert not report.detectable
    # G is about 1e30, finite, but (kappa / omega_m)^2 overflows
    report = pr.feasibility(dataclasses.replace(nanobeam, g=1e100, kappa=1e170))
    assert report.G == 1e100**2 / 1e170 < math.inf and report.suppression == math.inf
    assert report.N_th == pr.feasibility(nanobeam).N_th


@pytest.mark.parametrize("g, kappa", [(1e-170, 1e200), (1e200, 1.0), (1e150, 1e-10)])
def test_feasibility_rejects_coupling_outside_the_float_range(g, kappa):
    # G = g^2 / kappa underflows to 0, or overflows in g^2 or in the quotient
    params = dataclasses.replace(pr.FEASIBILITY_PRESETS["nanobeam"], g=g, kappa=kappa)
    with pytest.raises(ValueError, match=re.escape(f"for g={g}, kappa={kappa}")):
        pr.feasibility(params)


def test_feasibility_input_validation():
    with pytest.raises(ValueError):
        pr.FeasibilityInput(omega_m=-1.0, kappa=1.0, g=1.0, tau=1.0, T=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        pr.FeasibilityInput(omega_m=1.0, kappa=1.0, g=1.0, tau=1.0, T=1.0)
    with pytest.raises(ValueError):
        pr.FeasibilityInput(
            omega_m=1.0, kappa=1.0, g=1.0, tau=1.0, T=1.0, gamma=1.0, Q=1e6
        )
    via_q = pr.FeasibilityInput(omega_m=10.0, kappa=1.0, g=1.0, tau=1.0, T=1.0, Q=100.0)
    assert abs(via_q.damping_rate - 0.1) < 1e-15
    # a non-finite value is rejected by name, before it can reach the arithmetic
    for name in ("omega_m", "kappa", "g", "tau", "T", "gamma", "Q"):
        fields = dict(omega_m=10.0, kappa=1.0, g=1.0, tau=1.0, T=1.0)
        fields["Q" if name == "Q" else "gamma"] = 0.1
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name}={value} must be finite and > 0$"):
                pr.FeasibilityInput(**dict(fields, **{name: value}))


def test_feasibility_input_rejects_a_damping_rate_outside_the_float_range():
    # omega_m and Q are each finite and > 0, but omega_m / Q underflows to
    # 0.0 or overflows to inf
    for omega_m, Q, rate in ((1e-300, 1e300, 0.0), (1e300, 1e-300, math.inf)):
        message = f"^mechanical damping {rate} must be finite and > 0$"
        with pytest.raises(ValueError, match=message):
            pr.FeasibilityInput(omega_m=omega_m, kappa=1.0, g=1.0, tau=1.0, T=1.0, Q=Q)


def test_find_threshold_rejects_a_parameter_that_is_not_a_float_field(monkeypatch):
    calls = _count_runs(monkeypatch)
    for parameter in ("foo", "fock_dims", "engine"):
        with pytest.raises(ValueError, match=f"parameter '{parameter}' is not a float config"):
            pr.find_threshold(pr.ProtocolConfig(), parameter, (0.0, 1.0))
    assert calls == []
    # the counter sees a search's probes
    pr.find_threshold(pr.ProtocolConfig(), "eta1", (0.0, 1.0))
    assert len(calls) >= 3
