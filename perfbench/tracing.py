"""Span recorders wrapped around the public functions of every statemetric layer.

A span is (id, name, parent id, op id, start, end).  Spans stay in memory
until the traced phase ends; the per-layer numbers are derived from them
afterwards.  Recording is thread-safe, and a span opened on a
``metric_field`` pool thread takes the open ``metric_field`` span as its
parent, so the pool's own cost shows up as that span's self time.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("linalg", "liealg", "manifold", "geometry", "oracle", "models",
          "manifest", "cli", "verify")

# spans whose work continues on other threads
FANOUT = {"geometry.metric_field"}

EXPM = ("linalg.expm_phase_eig", "linalg.expm_phase")
EIG_HIT = "liealg.generator_eig.hit"
EIG_MISS = "liealg.generator_eig.miss"
BUILDERS = ("models.build_model", "models.spin_model", "models.oscillator_model",
            "models.two_spin_model")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fanout = []
        self._next_id = 0

    def _open(self, fanout: bool):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            sid = self._next_id
            if stack:
                parent = stack[-1]
            else:
                parent = self._fanout[-1] if self._fanout else None
            if fanout:
                self._fanout.append(sid)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, start, end, fanout):
        stack.pop()
        with self._lock:
            if fanout:
                self._fanout.remove(sid)
            self.spans.append((sid, name, parent, self.op, start, end))

    def wrap(self, name: str, fn):
        fanout = name in FANOUT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open(fanout)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stack, sid, parent, name, start, time.perf_counter(),
                            fanout)

        return traced

    def wrap_eig_lookup(self, fn):
        """LieAlgebraRep.generator_eig, recorded as a cache hit or miss."""

        @functools.wraps(fn)
        def traced(rep, name):
            hit = name in rep._eig_cache
            stack, sid, parent = self._open(False)
            start = time.perf_counter()
            try:
                return fn(rep, name)
            finally:
                self._close(stack, sid, parent, EIG_HIT if hit else EIG_MISS,
                            start, time.perf_counter(), False)

        return traced


def install(tracer: Tracer, package):
    """Wrap every public function of each layer and rebind every reference.

    Returns an undo list of (namespace, attribute, original) triples; pass it
    to ``uninstall``.  A function imported into another module (for example
    ``geometry.evolve`` or ``cli.metric_at``) is rebound there too, so the
    call is recorded whichever name the caller uses.
    """
    modules = [getattr(package, layer) for layer in LAYERS]
    wrapped = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                layer = mod.__name__.rsplit(".", 1)[-1]
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    undo = []
    for mod in modules + [package]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
    # run_checks iterates this tuple, not the module attributes
    verify = package.verify
    undo.append((verify, "ALL_CHECKS", verify.ALL_CHECKS))
    verify.ALL_CHECKS = tuple(wrapped[fn] for fn in verify.ALL_CHECKS)
    rep_cls = package.liealg.LieAlgebraRep
    undo.append((rep_cls, "generator_eig", rep_cls.generator_eig))
    rep_cls.generator_eig = tracer.wrap_eig_lookup(rep_cls.generator_eig)
    return undo


def uninstall(undo):
    for namespace, attr, original in reversed(undo):
        setattr(namespace, attr, original)


def _union_length(intervals) -> float:
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


class SpanIndex:
    """Self times, inclusive times and ancestry over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s[2]].append(s)
        self.self_time = {
            s[0]: (s[5] - s[4]) - _union_length((c[4], c[5]) for c in children[s[0]])
            for s in spans
        }

    def named(self, names):
        names = {names} if isinstance(names, str) else set(names)
        return [s for s in self.spans if s[1] in names]

    def has_ancestor(self, span, names) -> bool:
        names = {names} if isinstance(names, str) else set(names)
        parent = self.by_id.get(span[2])
        while parent is not None:
            if parent[1] in names:
                return True
            parent = self.by_id.get(parent[2])
        return False

    def self_s(self, names, under=None) -> float:
        """Summed self time of the named spans (optionally only below ``under``)."""
        return sum(self.self_time[s[0]] for s in self.named(names)
                   if under is None or s[1] == under or self.has_ancestor(s, under))

    def inclusive_s(self, names) -> float:
        """Wall time of the named spans, counting nested ones once."""
        return sum(s[5] - s[4] for s in self.named(names)
                   if not self.has_ancestor(s, names))

    def count(self, names, under=None) -> int:
        return sum(1 for s in self.named(names)
                   if under is None or self.has_ancestor(s, under))


def layer_metrics(spans, check_ids) -> dict:
    """The per-layer numbers, each derived from the recorded spans."""
    ix = SpanIndex(spans)
    metric_at = "geometry.metric_at"
    n_metric = ix.count(metric_at)
    n_classify = ix.count("geometry.classify")
    hits, misses = ix.count(EIG_HIT), ix.count(EIG_MISS)
    cli_names = {s[1] for s in spans if s[1].startswith("cli.")}
    out = {
        "linalg.expm_calls": ix.count(EXPM),
        "linalg.expm_self_s": ix.self_s(EXPM),
        "linalg.expm_per_metric": (ix.count(EXPM, under=metric_at) / n_metric
                                   if n_metric else 0.0),
        "manifold.evolve_self_s": ix.self_s(("manifold.evolve", "manifold.build_unitary")),
        "manifold.state_derivatives_self_s": ix.self_s("manifold.state_derivatives"),
        "manifold.metric_from_derivatives_self_s":
            ix.self_s("manifold.metric_from_derivatives"),
        "geometry.metric_at_calls": n_metric,
        "geometry.metric_field_self_s": ix.self_s("geometry.metric_field"),
        "cli.self_s": ix.self_s(cli_names),
        "manifest.load_model_self_s": ix.self_s(
            ("manifest.load_model", "manifest.loads", "manifest.parse_manifest"),
            under="manifest.load_model"),
        "liealg.extract_structure_constants_s":
            ix.inclusive_s("liealg.extract_structure_constants"),
        "models.build_s": ix.inclusive_s(BUILDERS),
        "geometry.metric_evals_per_classify":
            (ix.count(metric_at, under="geometry.classify") / n_classify
             if n_classify else 0.0),
        "geometry.gauss_curvature_self_s": ix.self_s(
            ("geometry.gauss_curvature", "geometry.gauss_curvature_from_fn")),
        "geometry.scalar_curvature_s": ix.inclusive_s("geometry.scalar_curvature"),
        "geometry.classify_self_s": ix.self_s(
            ("geometry.classify", "geometry.rank_analysis"), under="geometry.classify"),
        "oracle.fd_metric_s": ix.inclusive_s("oracle.fd_metric"),
        "oracle.fidelity_metric_s": ix.inclusive_s("oracle.fidelity_metric"),
        "oracle.evolve_calls": ix.count("manifold.evolve",
                                        under=("oracle.fd_metric", "oracle.fidelity_metric")),
        "liealg.tilde_by_adjoint_s": ix.inclusive_s("liealg.tilde_by_adjoint"),
        "liealg.tilde_by_conjugation_s": ix.inclusive_s("liealg.tilde_by_conjugation"),
        "liealg.eig_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
    for check_id in check_ids:
        out[f"verify.{check_id}_s"] = ix.inclusive_s(f"verify.check_{check_id}")
    out["trace.spans"] = len(spans)
    return out
