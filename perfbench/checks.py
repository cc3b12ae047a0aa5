"""Output checks: invariants that hold for any seed, and reference outputs.

Every function returns the number of wrong operations it found, so that the
workload can report ``failed`` against ``attempted`` (error_rate).  The
reference outputs in ``reference.json`` were produced by ``make_reference.py``
on the seed commit, for the seeds listed there; other seeds get the
invariant checks only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from inputs import entangled

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
FOCK_TOL = 1e-4
RANGE_SLACK = 1e-9


def load_reference(workload, seed):
    """The stored outputs of one workload and seed, or None when not shipped."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        table = json.load(handle)[workload]
    if workload == "cli-cold":
        return table
    return table.get(str(seed))


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def csv_values(csv_text, n_keys):
    """Metric cells of a sweep CSV: every row after the header, minus its key columns."""
    rows = csv_text.splitlines()[1:]
    return [float(cell) for row in rows for cell in row.split(",")[n_keys:]]


def bad_values(values, hi):
    """How many values are non-finite or outside [0, hi]."""
    return sum(
        1
        for v in values
        if not (math.isfinite(v) and -RANGE_SLACK <= v <= hi + RANGE_SLACK)
    )


def grid_csv(csv_text, spec, reference):
    """Wrong cells of a gauss-grid CSV: range is [0, 2r] (loss and noise never add entanglement)."""
    n_keys = 2 if spec.axis2 is not None else 1
    values = csv_values(csv_text, n_keys)
    wrong = bad_values(values, 2.0 * spec.base.r)
    if reference is not None and digest(csv_text) != reference:
        return len(values)
    return wrong


def threshold(search, value, reference):
    """1 if a find_threshold result is wrong, else 0.

    The result must lie inside the bracket, the metric must have opposite
    entanglement at value - tol and value + tol (clipped to the bracket), and
    a shipped reference must agree within tol.
    """
    config, parameter, (lo, hi), tol = search
    if not (math.isfinite(value) and lo <= value <= hi):
        return 1
    if reference is not None and abs(value - reference) > tol:
        return 1
    below = entangled(config, parameter, max(lo, value - tol))
    above = entangled(config, parameter, min(hi, value + tol))
    return int(below == above)


def fock_csv(csv_text, reference):
    """Wrong concurrences of a fock sweep: range [0, 1], and within FOCK_TOL of a reference."""
    values = csv_values(csv_text, 1)
    if reference is None:
        return bad_values(values, 1.0)
    if len(reference) != len(values):
        return len(values)
    return sum(
        1 for v, r in zip(values, reference) if bad_values([v], 1.0) or not abs(v - r) <= FOCK_TOL
    )


def cli_output(name, returncode, stdout, out_text, reference, r=0.5):
    """1 if a CLI invocation is wrong, else 0.

    Every call must exit 0.  fig2/fig5 CSV and feasibility text must match the
    reference byte for byte and the threshold within its tol; fig3/fig4 are
    checked for shape and range only, because their axes come from a
    threshold search and may move within its tol.
    """
    if returncode != 0:
        return 1
    expected = reference[name]
    if name in ("fig2", "fig5"):
        return int(digest(out_text) != expected)
    if name in ("fig3", "fig4"):
        rows = out_text.splitlines()
        shape = [len(rows), len(rows[0].split(","))] if rows else [0, 0]
        values = csv_values(out_text, 1)
        ok = shape == expected["shape"] and bad_values(values, 2.0 * r) == 0
        ok = ok and all(len(row.split(",")) == shape[1] for row in rows)
        return int(not ok)
    if name == "threshold":
        key, _, text = stdout.partition("=")
        try:
            value = float(text)
        except ValueError:
            return 1
        ok = key.strip() == "eta1_threshold" and abs(value - expected["value"]) <= expected["tol"]
        return int(not ok)
    return int(digest(stdout) != expected)

