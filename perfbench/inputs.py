"""Seeded inputs for every workload.

Inputs come from ``random.Random(seed)`` (stable across Python and NumPy
versions), so one seed always gives the same configs, grids and CLI order.
The library only ever sees the generated configs, never the seed.
"""

from __future__ import annotations

import dataclasses
import math
import random

from micromacro import gaussian as ga
from micromacro import protocol as pr
from micromacro import sweep as sw

WORKLOADS = ("gauss-grid", "gauss-thresholds", "fock-grid", "cli-cold")

GRID_SIDE = 16
GRID_SERIES_N_IN = (0.0, 1.0, 10.0)

THRESHOLD_BATCH = 128
# parameter -> (bracket, tol): 19 to 26 bisection evaluations each
THRESHOLD_SEARCHES = {
    "N_D": ((1.0, 1e7), 1.0),
    "x": ((1e-6, 1.0), 1e-5),
    "eta1": ((0.0, 1.0), 1e-5),
    "sigma": ((0.0, 0.1), 1e-6),
}
FOCK_N_TH_MAX = 0.5
FOCK_VARIANCE = (0.1, 2.0)
# Largest variance of a sweep's points, drawn per seed.  Over y in [0.05, 0.5]
# and x <= 0.05, c1^2 is at least 0.56 of its y -> 0 value, so the smallest
# variance stays above 0.4 * 0.56 > FOCK_VARIANCE[0].
FOCK_TOP_VARIANCE = (0.4, 2.0)

CLI_COMMANDS = (
    ("fig2", ["sweep", "--preset", "fig2", "--out", "{out}"]),
    ("fig3", ["sweep", "--preset", "fig3", "--out", "{out}"]),
    ("fig4", ["sweep", "--preset", "fig4", "--out", "{out}"]),
    ("fig5", ["sweep", "--preset", "fig5", "--out", "{out}"]),
    ("threshold", ["threshold", "--preset", "fig5", "--param", "eta1", "--lo", "0", "--hi", "1"]),
    ("feasibility", ["feasibility", "--preset", "nanobeam"]),
)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _gaussian_base(rng):
    return pr.ProtocolConfig(
        r=rng.uniform(0.3, 1.0),
        N_D=_log_uniform(rng, 1e2, 1e4),
        y=rng.uniform(0.02, 0.5),
        x=rng.uniform(0.0, 0.05),
        N_in=rng.uniform(0.0, 2.0),
        N_th=rng.uniform(1.0, 20.0),
        sigma=rng.uniform(0.0, 0.01),
        eta1=rng.uniform(0.6, 1.0),
        eta2=rng.uniform(0.6, 1.0),
        eta_c=rng.uniform(0.6, 1.0),
    )


def gauss_grid(seed):
    """One 2-D sweep over (y, x) with a series over N_in; other fields drawn once."""
    rng = random.Random(seed)
    base = _gaussian_base(rng)
    x_max = rng.uniform(0.02, 0.1)
    return sw.SweepSpec(
        base=base,
        axis1=sw.AxisSpec("y", sw.linear_grid(0.01, 0.95, GRID_SIDE)),
        axis2=sw.AxisSpec("x", sw.linear_grid(0.0, x_max, GRID_SIDE)),
        series=sw.AxisSpec("N_in", GRID_SERIES_N_IN),
    )


def grid_points(spec):
    n = len(spec.axis1.values)
    for axis in (spec.axis2, spec.series):
        if axis is not None:
            n *= len(axis.values)
    return n


def entangled(config, parameter, value):
    probe = dataclasses.replace(config, **{parameter: value})
    return pr.entanglement_metric(probe) > pr.ZERO_METRIC_TOL


def gauss_thresholds(seed):
    """THRESHOLD_BATCH (config, parameter, bracket, tol) searches, each with a crossing.

    Every parameter gets the same number of searches, in seeded order, so the
    number of evaluations per batch is the same for every seed.  A drawn config whose metric is entangled at both bracket ends, or at
    neither, is redrawn, so every search has a threshold to find.
    """
    rng = random.Random(seed)
    parameters = sorted(THRESHOLD_SEARCHES) * (THRESHOLD_BATCH // len(THRESHOLD_SEARCHES))
    rng.shuffle(parameters)
    batch = []
    for parameter in parameters:
        bracket, tol = THRESHOLD_SEARCHES[parameter]
        while True:
            config = _gaussian_base(rng)
            if entangled(config, parameter, bracket[0]) != entangled(config, parameter, bracket[1]):
                break
        batch.append((config, parameter, bracket, tol))
    return batch


class FockSweeps:
    """Fock sweeps over y with a series over N_th <= 0.5, drawn on demand.

    ``sweeps[i]`` is the i-th sweep: 2 y values x 2 N_th values drawn from
    its own stream ``random.Random(f"{seed}-{i}")``, so no index ever runs out
    and no two points share a storage channel.  The other fields are drawn
    once from ``random.Random(seed)``.  N_D is chosen so that the phase-noise
    variance 2 eta1 c1^2 N_D sigma^2 stays inside FOCK_VARIANCE for every y
    (c1^2 varies by less than 2x over y in [0.05, 0.5]).
    """

    def __init__(self, seed):
        rng = random.Random(seed)
        x = rng.uniform(0.0, 0.05)
        sigma = rng.uniform(0.005, 0.02)
        eta1 = rng.uniform(0.7, 1.0)
        top_variance = rng.uniform(*FOCK_TOP_VARIANCE)
        c1_max_sq = 1.0 / (1.0 + x) ** 2
        self.seed = seed
        self.base = pr.ProtocolConfig(
            engine="fock",
            x=x,
            sigma=sigma,
            eta1=eta1,
            eta2=rng.uniform(0.7, 1.0),
            eta_c=rng.uniform(0.7, 1.0),
            N_in=rng.uniform(0.0, 0.5),
            N_th=0.0,
            N_D=top_variance / (2.0 * eta1 * c1_max_sq * sigma**2),
        )

    def __getitem__(self, index):
        rng = random.Random(f"{self.seed}-{index}")
        ys = sorted(rng.uniform(0.05, 0.5) for _ in range(2))
        n_th = sorted(rng.uniform(0.0, FOCK_N_TH_MAX) for _ in range(2))
        for y in ys:
            variance = fock_variance(dataclasses.replace(self.base, y=y))
            if not FOCK_VARIANCE[0] <= variance <= FOCK_VARIANCE[1]:
                raise ValueError(f"phase-noise variance {variance} outside {FOCK_VARIANCE}")
        return sw.SweepSpec(
            base=self.base,
            axis1=sw.AxisSpec("y", ys),
            series=sw.AxisSpec("N_th", n_th),
        )


def fock_variance(config):
    coeffs = ga.channel_coefficients(config.x, config.y)
    return 2.0 * pr.phase_noise_amplitude_sq(config, coeffs) * config.sigma**2


def cli_cold(seed):
    """The CLI invocations in a seeded order: (name, argv template)."""
    commands = list(CLI_COMMANDS)
    random.Random(seed).shuffle(commands)
    return commands


GENERATORS = {
    "gauss-grid": gauss_grid,
    "gauss-thresholds": gauss_thresholds,
    "fock-grid": FockSweeps,
    "cli-cold": cli_cold,
}
