"""Spans recorded from outside the program.

The tracer wraps the public functions of each layer of ``topoverlap`` and
rebinds every name where its caller looks it up (``horocyclic.build_D_ell``,
``profiles.cutwidth_exact``, ``cli.find_translate`` ...).  Nothing in the
program is edited: :meth:`Tracer.install` swaps the wrappers in for a traced
round and :meth:`Tracer.uninstall` restores the originals.

A span records name, start, end, parent and op id.  Spans of ``parallel_map``
pool threads are attributed to the current op; each item a pool runs gets a
task span of the function that called ``parallel_map``, so that function's
own per-item work counts as its self time, and the pool's self time is what
the pool itself costs.  Hot leaf functions (``map_s``, ``words_adjacent``,
``induced_subcomplex``) are not spans: each call adds its count and time to
the innermost span of its thread.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "task", "leaf", "extra", "error")

    def __init__(self, span_id, name, parent, op, task=False):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.task = task
        self.start = self.end = None
        self.leaf = None  # leaf name -> [calls, seconds]
        self.extra = None  # computed counts
        self.error = None

    def add(self, key, value):
        if self.extra is None:
            self.extra = {}
        self.extra[key] = self.extra.get(key, 0) + value

    def as_record(self) -> dict:
        rec = {"id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
               "start": self.start, "end": self.end}
        for key in ("task", "leaf", "extra", "error"):
            if getattr(self, key):
                rec[key] = getattr(self, key)
        return rec


# --- computed counts, from argument and result sizes ------------------------


def _graph_states(span, args, kwargs, result):
    span.add("states", 2 ** args[0].n_vertices)


def _cheeger_subsets(span, args, kwargs, result):
    n = args[0].n_vertices
    span.add("subsets", sum(math.comb(n, k) for k in range(1, n // 2 + 1)))


def _profile_subsets(span, args, kwargs, result):
    """Subsets an exact profile enumerates (the benchmark runs no other mode)."""
    n, r_max = args[0].n_vertices, args[2]
    span.add("subsets", sum(math.comb(n, r) for r in range(1, min(r_max, n) + 1)))


def _cube_tests(span, args, kwargs, result):
    cubes, r = args[0], args[1]
    span.add("cube_tests", r**cubes.k * len(cubes.roots))


def _text_bytes(span, args, kwargs, result):
    span.add("bytes", len(args[0].encode()))


def _result_bytes(span, args, kwargs, result):
    span.add("bytes", len(result.encode()))


def _manifest_pairs(span, args, kwargs, result):
    n = sum(1 for line in args[0].splitlines() if line.startswith("f "))
    span.add("pairs", n * (n - 1) // 2)


def _construction_sizes(span, args, kwargs, result):
    span.add("lattice_functions", len(result.functions))
    span.add("refinement_edges", len(result.sub_edges))
    span.add("image_vertices", result.target.n_vertices)


# name -> (binding sites as (module, attribute), counter or None)
SPANS = {
    "cli.main": (("cli", "main"),),
    "horocyclic.coarse_construct": (("horocyclic", "coarse_construct"),),
    "horocyclic.build_D_ell": (("horocyclic", "build_D_ell"),),
    "horocyclic.validate_construction": (("horocyclic", "validate_construction"),),
    "horocyclic.write_manifest": (("horocyclic", "write_manifest"),),
    "horocyclic.revalidate_manifest": (("horocyclic", "revalidate_manifest"),),
    "complexes.barycentric_subdivision": (("horocyclic", "barycentric_subdivision"),),
    "complexes.build_complex": (("horocyclic", "build_complex"), ("fileio", "build_complex")),
    "complexes.stats": (("complexes", "stats"),),
    "invariants.cutwidth_exact": (("invariants", "cutwidth_exact"), ("profiles", "cutwidth_exact")),
    "invariants.cheeger_exact": (("invariants", "cheeger_exact"), ("profiles", "cheeger_exact")),
    "invariants.separation_cut": (("invariants", "separation_cut"), ("profiles", "separation_cut")),
    "invariants.cutwidth_heuristic": (("invariants", "cutwidth_heuristic"),),
    "invariants.to1_bounds": (("invariants", "to1_bounds"),),
    "profiles.profile": (("profiles", "profile"),),
    "profiles.verify_cwsep": (("profiles", "verify_cwsep"),),
    "profiles.extract_expander": (("profiles", "extract_expander"),),
    "cubes.find_translate": (("cli", "find_translate"),),
    "fileio.parse_complex": (("cli", "parse_complex"), ("fileio", "parse_complex")),
    "fileio.emit_csv": (("cli", "emit_csv"),),
    "fileio.parse_profile_csv": (("cli", "parse_profile_csv"),),
}

COUNTERS = {
    "invariants.cutwidth_exact": _graph_states,
    "invariants.cheeger_exact": _cheeger_subsets,
    "profiles.profile": _profile_subsets,
    "cubes.find_translate": _cube_tests,
    "fileio.parse_complex": _text_bytes,
    "horocyclic.write_manifest": _result_bytes,
    "horocyclic.revalidate_manifest": _manifest_pairs,
    "horocyclic.coarse_construct": _construction_sizes,
}

LEAVES = {
    "horocyclic.map_s": (("horocyclic", "map_s"),),
    "horocyclic.words_adjacent": (("horocyclic", "words_adjacent"),),
    "complexes.induced_subcomplex": (("profiles", "induced_subcomplex"),),
}

# parallel_map binding site -> the function whose items the pool runs
POOLS = {("profiles", "parallel_map"): "profiles.profile", ("cubes", "parallel_map"): "cubes.find_translate"}
POOL_NAME = "util.parallel_map"


class Tracer:
    """Collects spans while installed; ``op`` names the op being run."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    # -- span bookkeeping ---------------------------------------------------

    def stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def reset_stack(self):
        self._local.stack = []

    def begin(self, name, parent=None, task=False) -> Span:
        st = self.stack()
        if parent is None and st:
            parent = st[-1].id
        span = Span(next(self._ids), name, parent, self.op, task)
        st.append(span)
        span.start = _clock()
        return span

    def finish(self, span: Span):
        span.end = _clock()
        st = self.stack()
        if st and st[-1] is span:
            st.pop()
        self.spans.append(span)

    def span_wrapper(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.finish(span)
            if counter is not None:
                counter(span, args, kwargs, result)
            return result

        return wrapper

    def leaf_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.stack()
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if st:
                    top = st[-1]
                    if top.leaf is None:
                        top.leaf = {}
                    entry = top.leaf.get(name)
                    if entry is None:
                        entry = top.leaf[name] = [0, 0.0]
                    entry[0] += 1
                    entry[1] += _clock() - start

        return wrapper

    def pool_wrapper(self, task_name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(item_fn, items, threads=1):
            pool = tracer.begin(POOL_NAME)

            def run_item(item):
                task = tracer.begin(task_name, parent=pool.id, task=True)
                try:
                    return item_fn(item)
                finally:
                    tracer.finish(task)

            try:
                result = fn(run_item, items, threads)
            except BaseException as exc:
                pool.error = type(exc).__name__
                raise
            finally:
                tracer.finish(pool)
            pool.add("items", len(result))
            return result

        return wrapper

    # -- installing ---------------------------------------------------------

    def _bind(self, module_name, attr, wrapper):
        module = getattr(self.package, module_name)
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in SPANS.items():
            module_name, attr = sites[0]
            original = getattr(getattr(self.package, module_name), attr)
            wrapper = self.span_wrapper(name, original, COUNTERS.get(name))
            for site in sites:
                self._bind(*site, wrapper)
        for name, sites in LEAVES.items():
            module_name, attr = sites[0]
            wrapper = self.leaf_wrapper(name, getattr(getattr(self.package, module_name), attr))
            for site in sites:
                self._bind(*site, wrapper)
        for (module_name, attr), task_name in POOLS.items():
            original = getattr(getattr(self.package, module_name), attr)
            self._bind(module_name, attr, self.pool_wrapper(task_name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


# --- analysis ------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its child spans' intervals
    minus its leaf calls' time."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.end is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        if s.end is None:
            continue
        leaf = sum(t for _, t in s.leaf.values()) if s.leaf else 0.0
        out[s.id] = (s.end - s.start) - _covered(children.get(s.id, ())) - leaf
    return out


def layer_metrics(spans) -> dict:
    """Per-layer totals of one traced round: ``<name>.calls``, ``.self_s``
    and every computed count, plus the refusal and time-out counts of the
    cutwidth engine and the solver calls made from ``profile``."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    out = defaultdict(float)
    for s in spans:
        if s.id in selfs:
            out[f"{s.name}.self_s"] += selfs[s.id]
        if not s.task:
            out[f"{s.name}.calls"] += 1
        if s.extra:
            for key, value in s.extra.items():
                out[f"{s.name}.{key}"] += value
        if s.leaf:
            for leaf, (calls, seconds) in s.leaf.items():
                out[f"{leaf}.calls"] += calls
                out[f"{leaf}.self_s"] += seconds
        if s.name == "invariants.cutwidth_exact" and s.error:
            if s.error == "SizeLimitError":
                out["invariants.cutwidth_exact.refused"] += 1
            elif s.error == "OpTimeout":
                out["invariants.cutwidth_exact.timed_out"] += 1
        parent = by_id.get(s.parent)
        if parent is not None:
            if s.name in ("invariants.cutwidth_exact", "invariants.separation_cut") and parent.name == "profiles.profile":
                out["profiles.profile.scored"] += 1
            if s.name == "invariants.cheeger_exact" and parent.name == "profiles.extract_expander":
                out["profiles.extract_expander.steps"] += 1
    for key in ("lattice_functions", "refinement_edges", "image_vertices"):
        if f"horocyclic.coarse_construct.{key}" in out:
            out[f"horocyclic.{key}"] = out.pop(f"horocyclic.coarse_construct.{key}")
    return dict(out)
