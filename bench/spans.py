"""Outside-in tracer: spans around ratsos's public functions, no code in src/.

Each function is wrapped at the name its caller looks up (`relax` and `cli`
import by name, so the wrappers go on those modules' globals).  A span
records its name, start, end, parent span, call id and thread; spans stay in
memory and are written when the run ends.  Counts are taken at the same
boundaries, from the values the wrapped functions return.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# (module looked up by the caller, attribute, layer name of the span)
TARGETS = (
    ("cli", "solve_relaxation", "relax.solve_relaxation"),
    ("cli", "parse", "problem.parse"),
    ("cli", "build", "relax.build"),
    ("cli", "to_standard_form", "sdp.to_standard_form"),
    ("cli", "export_sdpa", "sdp.export_sdpa"),
    ("relax", "build", "relax.build"),
    ("relax", "to_standard_form", "sdp.to_standard_form"),
    ("relax", "solve_internal", "sdp.solve_internal"),
    ("relax", "flatness_certificate", "relax.flatness_certificate"),
    ("relax", "sign_symmetries", "signsym.sign_symmetries"),
    ("relax", "block_partition", "signsym.block_partition"),
    ("relax", "build_cliques", "corrsparse.build_cliques"),
)

CALL = "cli.main"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    call: int | None
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def standard_form_sizes(sf):
    """Computed solver-size counts of one SdpStandardForm (never timed).

    Schur dimension m+nf, block sizes, the Schur-assembly plus dense-LU
    flops of one iteration (sum of m_b*s_b^3 over PSD blocks, m_b the
    variables touching block b, plus (m+nf)^3*2/3) and the 8*(m+nf)^2 bytes
    of a dense KKT matrix.
    """
    n = sf.num_vars + sf.num_eq
    sizes = sf.block_sizes()
    assembly = sum(
        len(np.unique(blk.varids)) * blk.size ** 3 for blk in sf.blocks
    )
    return {
        "schur_dim": n,
        "max_block": max(sizes) if sizes else 0,
        "psd_dim": sf.total_psd_dim(),
        "schur_gflop_per_iter": (assembly + n ** 3 * 2.0 / 3.0) / 1e9,
        "kkt_mb": 8.0 * n * n / 1e6,
    }


def _info(name, args, result):
    if name == "sdp.solve_internal":
        return {"iterations": result.iterations, "status": result.status}
    if name == "sdp.to_standard_form":
        return standard_form_sizes(result)
    if name == "sdp.export_sdpa":
        return {"bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None  # span id of the current benchmark call
        self._call = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # pool threads of an --orders sweep start with an empty stack;
            # their spans hang off the benchmark call that spawned them
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, name, start, end, parent, self._call,
                            threading.get_ident())
                self.spans.append(span)
            span.info = _info(name, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target; restore the original names on exit."""
        saved = []
        try:
            for mod_name, attr, layer in TARGETS:
                module = sys.modules[f"ratsos.{mod_name}"]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def call(self, call_id, sweep):
        """Root span of one `ratsos solve` call made by the benchmark."""
        sid = next(self._ids)
        self._root, self._call = sid, call_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append(Span(sid, CALL, start, end, None, call_id,
                                   threading.get_ident(), {"sweep": sweep}))
            self._root = self._call = None


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - _covered(children.get(s.sid, ()))
        for s in spans
    }


# per-layer metrics: name -> unit
LAYER_METRICS = {
    "sdp.solve_internal_s": "s",
    "sdp.iter_ms": "ms",
    "sdp.iterations": "count",
    "sdp.solve_calls": "count",
    "sdp.schur_dim": "count",
    "sdp.max_block": "count",
    "sdp.psd_dim": "count",
    "sdp.schur_gflop_per_iter": "GFLOP",
    "sdp.kkt_mb": "MB",
    "sdp.to_standard_form_s": "s",
    "sdp.export_s": "s",
    "sdp.export_mb": "MB",
    "relax.build_s": "s",
    "relax.build_calls": "count",
    "relax.retry_frac": "fraction",
    "relax.flatness_s": "s",
    "signsym.sign_symmetries_s": "s",
    "signsym.block_partition_s": "s",
    "corrsparse.build_cliques_s": "s",
    "problem.parse_s": "s",
    "cli.sweep_s": "s",
    "cli.sweep_child_s": "s",
    "trace.overhead_s": "s",
}

# computed from the returned SdpStandardForm, max over one pass's forms
COMPUTED = ("schur_dim", "max_block", "psd_dim", "schur_gflop_per_iter", "kkt_mb")

_SELF_TIME = {
    "sdp.solve_internal_s": "sdp.solve_internal",
    "sdp.to_standard_form_s": "sdp.to_standard_form",
    "sdp.export_s": "sdp.export_sdpa",
    "relax.build_s": "relax.build",
    "relax.flatness_s": "relax.flatness_certificate",
    "signsym.sign_symmetries_s": "signsym.sign_symmetries",
    "signsym.block_partition_s": "signsym.block_partition",
    "corrsparse.build_cliques_s": "corrsparse.build_cliques",
    "problem.parse_s": "problem.parse",
}


def layer_metrics(spans):
    """Per-layer metrics of the spans of one traced pass (overhead excluded)."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {
        metric: sum((own[s.sid] for s in by_name.get(layer, ())), 0.0)
        for metric, layer in _SELF_TIME.items()
    }
    solves = by_name.get("sdp.solve_internal", ())
    out["sdp.solve_calls"] = len(solves)
    out["sdp.iterations"] = sum(s.info.get("iterations", 0) for s in solves)
    out["sdp.iter_ms"] = (
        1000.0 * out["sdp.solve_internal_s"] / out["sdp.iterations"]
        if out["sdp.iterations"] else 0.0
    )
    forms = by_name.get("sdp.to_standard_form", ())
    for key in COMPUTED:
        out[f"sdp.{key}"] = max((s.info.get(key, 0) for s in forms), default=0)
    out["sdp.export_mb"] = sum(
        s.info.get("bytes", 0) for s in by_name.get("sdp.export_sdpa", ())
    ) / 1e6
    builds = by_name.get("relax.build", ())
    out["relax.build_calls"] = len(builds)
    runs = by_name.get("relax.solve_relaxation", ())
    builds_per_run = {}
    for b in builds:
        builds_per_run[b.parent] = builds_per_run.get(b.parent, 0) + 1
    retried = sum(1 for r in runs if builds_per_run.get(r.sid, 0) >= 2)
    out["relax.retry_frac"] = retried / len(runs) if runs else 0.0
    sweeps = {s.sid: s for s in by_name.get(CALL, ()) if s.info["sweep"]}
    out["cli.sweep_s"] = sum((s.duration for s in sweeps.values()), 0.0)
    out["cli.sweep_child_s"] = sum(
        (r.duration for r in runs if r.parent in sweeps), 0.0
    )
    return out
