"""Spans around the library's public functions, recorded from outside ``src/``.

``protocol``, ``sweep`` and ``cli`` reach the engines and each other through
module attributes (``ga.*``, ``fk.*``, ``pr.*``, ``sw.*``), so rebinding those
attributes to timing wrappers covers every stage without editing the library.

A span is ``(id, name, start, end, parent, point, thread)``.  Spans live in
memory, one list per thread, each thread keeping its own stack so that
``workers=2`` sweeps nest correctly; a span opened on a pool thread with an
empty stack takes the innermost open fan-out span (``run_sweep``) as parent.
A *point* is one pipeline evaluation: the outermost ``entanglement_metric`` or
``run_*_protocol`` span opens a new point id that every span below it shares.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

from micromacro import fock as fk
from micromacro import gaussian as ga
from micromacro import protocol as pr
from micromacro import sweep as sw

# span name -> functions it wraps, as (module, attribute)
STAGES = {
    "gaussian.input": ((ga, "tmsv_state"), (ga, "displace")),
    "gaussian.loss": ((ga, "loss_channel"),),
    "gaussian.storage": ((ga, "channel_coefficients"), (ga, "storage_retrieval_channel")),
    "gaussian.phase": ((ga, "phase_noise"),),
    "gaussian.metric": ((ga, "ppt_minimum_eigenvalue"), (ga, "log_negativity")),
    "fock.input": ((fk, "single_photon_entangled_input"),),
    "fock.loss": ((fk, "pure_loss_channel"),),
    "fock.storage": ((fk, "linear_channel_apply"),),
    "fock.phase": ((fk, "phase_noise_average"),),
    "fock.projection": ((fk, "qubit_project"),),
    "fock.metric": ((fk, "concurrence"),),
    "protocol.point": (
        (pr, "entanglement_metric"),
        (pr, "run_gaussian_protocol"),
        (pr, "run_fock_protocol"),
    ),
    "protocol.threshold": ((pr, "find_threshold"),),
    "protocol.feasibility": ((pr, "feasibility"),),
    "sweep.run": ((sw, "run_sweep"),),
    "sweep.preset": ((sw, "preset"),),
}
POINT = "protocol.point"
FAN_OUT = "sweep.run"
CLI = "cli.main"

PER_POINT_STAGES = tuple(name for name in STAGES if name.startswith(("gaussian.", "fock.")))


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the wrappers."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists = []
        self._fan_out = []
        self._originals = []

    def _spans(self):
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            with self._lock:
                self._lists.append(spans)
        return spans

    def span(self, name, func, *args, **kwargs):
        spans = self._spans()
        stack = self._local.stack
        if stack:
            parent, point = stack[-1]
        else:
            parent, point = (self._fan_out[-1] if self._fan_out else None), None
        sid = next(self._ids)
        if point is None and name == POINT:
            point = sid
        stack.append((sid, point))
        if name == FAN_OUT:
            self._fan_out.append(sid)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if name == FAN_OUT:
                self._fan_out.remove(sid)
            spans.append((sid, name, start, end, parent, point, threading.get_ident()))

    def install(self):
        for name, targets in STAGES.items():
            for module, attr in targets:
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.span(name, func, *args, **kwargs)

        return traced

    def take(self):
        """Every span recorded so far, as dicts; the buffers are emptied."""
        with self._lock:
            lists = list(self._lists)
        out = []
        for spans in lists:
            out.extend(spans)
            spans.clear()
        keys = ("id", "name", "start", "end", "parent", "point", "thread")
        return [dict(zip(keys, s)) for s in sorted(out, key=lambda s: s[2])]


def relabel(spans, prefix):
    """Make span ids from another process unique by prefixing them."""
    out = []
    for s in spans:
        s = dict(s)
        for key in ("id", "parent", "point"):
            if s[key] is not None:
                s[key] = f"{prefix}:{s[key]}"
        out.append(s)
    return out


def self_times(spans):
    """Span id -> duration minus the durations of same-thread children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    thread = {s["id"]: s["thread"] for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent in own and thread[parent] == s["thread"]:
            own[parent] -= s["end"] - s["start"]
    return own


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(w1, w2, w2_wall):
    """Per-layer metrics from the spans of a 1-worker phase and a 2-worker phase.

    Stage and protocol self times are per point, threshold and preset figures
    per call, ``sweep.self_us`` per swept point, ``cli.self_ms`` per
    invocation; all come from ``w1``.  ``sweep.busy_ratio_w2`` is the summed
    point time of ``w2`` over twice its wall time ``w2_wall``.
    """
    own = self_times(w1)
    by_name = defaultdict(list)
    for s in w1:
        by_name[s["name"]].append(s)
    roots = [s for s in by_name[POINT] if s["id"] == s["point"]]
    points = len(roots)

    def self_sum(name):
        return sum(own[s["id"]] for s in by_name[name])

    metrics = {
        f"{name}.us": _ratio(self_sum(name), points) * 1e6 for name in PER_POINT_STAGES
    }
    metrics["protocol.point.self_us"] = _ratio(self_sum(POINT), points) * 1e6

    searches = by_name["protocol.threshold"]
    search_ids = {s["id"] for s in searches}
    evals = sum(1 for s in roots if s["parent"] in search_ids)
    metrics["protocol.threshold.evals"] = _ratio(evals, len(searches))
    metrics["protocol.threshold.self_us"] = (
        _ratio(self_sum("protocol.threshold"), len(searches)) * 1e6
    )

    sweep_ids = {s["id"] for s in by_name[FAN_OUT]}
    swept = sum(1 for s in roots if s["parent"] in sweep_ids)
    metrics["sweep.self_us"] = _ratio(self_sum(FAN_OUT), swept) * 1e6
    busy = sum(s["end"] - s["start"] for s in w2 if s["name"] == POINT and s["id"] == s["point"])
    metrics["sweep.busy_ratio_w2"] = _ratio(busy, 2.0 * w2_wall)
    presets = by_name["sweep.preset"]
    metrics["sweep.preset_build_ms"] = (
        _ratio(sum(s["end"] - s["start"] for s in presets), len(presets)) * 1e3
    )
    metrics["cli.self_ms"] = _ratio(self_sum(CLI), len(by_name[CLI])) * 1e3
    return metrics


def write_spans(path, spans):
    """Write spans as JSON, gzip-compressed when ``path`` ends in ``.gz``."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as handle:
        json.dump(spans, handle)
