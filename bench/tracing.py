"""Span recorders around torf's layer functions, installed from outside.

`install()` rebinds each listed function, in every torf module namespace
that holds it, to a wrapper that records a span (name, start, end, parent)
and folds it into per-name totals when it closes: calls, total time, self
time (duration minus the time covered by child spans) and errors.  Keeping
totals instead of every span keeps memory flat on deep `member` searches.
It also reads the `cache_info()` of torf's memo caches.  A function that
does not exist is skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (layer, module, attribute); "Class.method" names a method.
TRACED = (
    ("linalg", "linalg", "hnf"), ("linalg", "linalg", "snf"), ("linalg", "linalg", "rank"),
    ("linalg", "linalg", "det"), ("linalg", "linalg", "solve_integer"),
    ("linalg", "linalg", "kernel_cols"), ("linalg", "linalg", "member_lattice"),
    ("linalg", "linalg", "lattice_index"), ("linalg", "linalg", "saturate"),
    ("linalg", "linalg", "lattice_sum"), ("linalg", "linalg", "lattice_contains"),
    ("cones", "cones", "dual_rays"), ("cones", "cones", "cone_from_generators"),
    ("cones", "cones", "cone_from_h"), ("cones", "cones", "Cone.contains"),
    ("cones", "cones", "relint_contains"), ("cones", "cones", "faces"),
    ("cones", "cones", "is_face_of"), ("cones", "cones", "fan_validate"),
    ("cones", "cones", "face_fan_closure"),
    ("monoids", "monoids", "member"), ("monoids", "monoids", "extract_generators"),
    ("monoids", "monoids", "stratify"), ("monoids", "monoids", "from_strata"),
    ("monoids", "monoids", "is_seminormal"), ("monoids", "monoids", "is_weakly_normal"),
    ("monoids", "monoids", "weak_normalization"), ("monoids", "monoids", "relative_wn"),
    ("monoids", "monoids", "relative_sn"), ("monoids", "monoids", "monoid_cone"),
    ("monoids", "monoids", "monoid_gp"), ("monoids", "monoids", "cone_lattice_generators"),
    ("monoids", "monoids", "coset_reps"), ("monoids", "monoids", "face_restriction"),
    ("complexes", "complexes", "complex_validate"), ("complexes", "complexes", "support_box"),
    ("complexes", "complexes", "support_locate"), ("complexes", "complexes", "full_complex"),
    ("complexes", "complexes", "complex_from_monoid_subfan"),
    ("complexes", "complexes", "sn_complex"), ("complexes", "complexes", "wn_complex"),
    ("complexes", "complexes", "is_seminormal_complex"),
    ("complexes", "complexes", "is_weakly_normal_complex"),
    ("complexes", "complexes", "classify"), ("complexes", "complexes", "orbits"),
    ("complexes", "complexes", "subcomplex"),
    ("derham", "derham", "fiber_complex"), ("derham", "derham", "fiber_cohomology"),
    ("derham", "derham", "fiber_space"), ("derham", "derham", "betti"),
    ("derham", "derham", "pair_dims"), ("derham", "derham", "hdiff_general"),
    ("model", "model", "parse_model"), ("model", "model", "build_complex"),
    ("model", "model", "serialize_model"),
    ("cli", "cli", "main"),
)

# memo caches whose cache_info() is read, as (span name, module, attribute)
CACHES = (
    ("cones.faces", "cones", "faces"),
    ("monoids.monoid_gp", "monoids", "monoid_gp"),
    ("monoids.monoid_cone", "monoids", "monoid_cone"),
    ("monoids._unit_split", "monoids", "_unit_split"),
    ("monoids.cone_lattice_generators", "monoids", "cone_lattice_generators"),
    ("derham._weakly_normal_checked", "derham", "_weakly_normal_checked"),
    ("derham.fiber_complex", "derham", "fiber_complex"),
)


def _span_name(layer, attr):
    return f"{layer}.{attr.split('.')[-1]}"


def _lookup(module, attr):
    obj = sys.modules.get(f"torf.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def _torf_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "torf" or name.startswith("torf."))]


class Tracer:
    """Collects span totals; one per process, installed before the traced work."""

    def __init__(self):
        self.stack = []  # open spans: [name, start, time covered by children]
        self.spans = {}  # name -> [calls, total_s, self_s, errors]
        self.present = set()
        self.cache_start = {}
        self.member_states = 0
        self.member_queries = 0
        self.extract_member_calls = 0
        self.extract_kept = 0
        self._member_cache = None
        self._caches = {}  # span name -> the original memoized function

    def _record(self, name, fn, *args, **kwargs):
        span = [name, perf_counter(), 0.0]
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span)
        failed = False
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            dur = end - span[1]
            tot = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - span[2]
            tot[3] += failed
            if parent is not None:
                parent[2] += dur

    def _counted(self, member_fn):
        """Count calls of the membership test handed to extract_generators;
        an already counted test (a nested retry) is passed through."""
        if getattr(member_fn, "_bench_counted", False):
            return member_fn

        def counted(m):
            self.extract_member_calls += 1
            return member_fn(m)

        counted._bench_counted = True
        return counted

    def _wrap(self, name, fn):
        tracer = self

        if name == "monoids.member":
            def wrapper(*args, **kwargs):
                cache = tracer._member_cache
                key = args[0] if args else None
                before = len(cache.get(key, ())) if cache is not None else 0
                try:
                    return tracer._record(name, fn, *args, **kwargs)
                finally:
                    tracer.member_queries += 1
                    if cache is not None:
                        tracer.member_states += len(cache.get(key, ())) - before
        elif name == "monoids.extract_generators":
            def wrapper(*args, **kwargs):
                outermost = not any(sp[0] == name for sp in tracer.stack)
                if len(args) >= 2:
                    args = (args[0], tracer._counted(args[1])) + args[2:]
                elif "member_fn" in kwargs:
                    kwargs["member_fn"] = tracer._counted(kwargs["member_fn"])
                result = tracer._record(name, fn, *args, **kwargs)
                if outermost:
                    tracer.extract_kept += len(getattr(result, "generators", ()))
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer._record(name, fn, *args, **kwargs)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        """Rebind every listed function wherever torf's modules hold it."""
        for module in {m for _layer, m, _attr in TRACED}:
            try:
                importlib.import_module(f"torf.{module}")
            except ImportError:
                pass  # its functions are reported as absent
        for name, module, attr in CACHES:
            fn = _lookup(module, attr)
            if hasattr(fn, "cache_info"):
                self._caches[name] = fn
        modules = _torf_modules()
        for layer, module, attr in TRACED:
            fn = _lookup(module, attr)
            if fn is None:
                continue
            name = _span_name(layer, attr)
            self.present.add(name)
            wrapper = self._wrap(name, fn)
            if "." in attr:
                cls_name, meth = attr.split(".")
                setattr(_lookup(module, cls_name), meth, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
        self._member_cache = getattr(sys.modules.get("torf.monoids"), "_MEMBER_CACHE", None)
        self.cache_start = self._cache_infos()

    def _cache_infos(self):
        out = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            out[name] = (info.hits, info.misses)
        return out

    def snapshot(self):
        """Totals as plain JSON-ready data, to be merged across processes."""
        end = self._cache_infos()
        caches = {k: [end[k][0] - v[0], end[k][1] - v[1]]
                  for k, v in self.cache_start.items() if k in end}
        return {
            "spans": self.spans,
            "present": sorted(self.present),
            "caches": caches,
            "member_states": self.member_states if self._member_cache is not None else None,
            "member_queries": self.member_queries,
            "extract_member_calls": self.extract_member_calls,
            "extract_kept": self.extract_kept,
        }


def merge(snapshots):
    """Sum snapshots from several processes."""
    out = {"spans": {}, "present": set(), "caches": {}, "member_states": None,
           "member_queries": 0, "extract_member_calls": 0, "extract_kept": 0}
    for s in snapshots:
        for name, tot in s["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += tot[i]
        out["present"] |= set(s["present"])
        for name, (h, m) in s["caches"].items():
            acc = out["caches"].setdefault(name, [0, 0])
            acc[0] += h
            acc[1] += m
        if s["member_states"] is not None:
            out["member_states"] = (out["member_states"] or 0) + s["member_states"]
        for key in ("member_queries", "extract_member_calls", "extract_kept"):
            out[key] += s[key]
    return out


def layer_metrics(agg):
    """Per-layer metrics from merged totals; None marks a metric whose
    function does not exist in this version of torf."""
    spans, present = agg["spans"], agg["present"]

    def field(name, i):
        if name not in present:
            return None
        return spans.get(name, [0, 0.0, 0.0, 0])[i]

    def layer_self(layer):
        names = [n for n in present if n.startswith(layer + ".")]
        if not names:
            return None
        return sum(spans.get(n, [0, 0.0, 0.0, 0])[2] for n in names)

    def hit_ratio(name):
        if name not in agg["caches"]:
            return None
        h, m = agg["caches"][name]
        return h / (h + m) if h + m else 0.0

    def ratio(num, den, needs):
        if needs not in present:
            return None
        return num / den if den else 0.0

    out = {}
    for name in ("linalg.hnf", "linalg.snf", "linalg.solve_integer", "linalg.member_lattice",
                 "linalg.rank", "cones.dual_rays", "cones.cone_from_generators",
                 "cones.contains", "monoids.member", "monoids.extract_generators",
                 "complexes.complex_validate"):
        out[f"{name}.calls"] = field(name, 0)
    for name in ("linalg.hnf", "linalg.snf", "cones.dual_rays", "monoids.member",
                 "monoids.extract_generators", "complexes.complex_validate",
                 "complexes.support_box", "derham.fiber_complex", "derham.fiber_cohomology",
                 "model.parse_model", "model.build_complex", "cli.main"):
        out[f"{name}.self_s"] = field(name, 2)
    out["monoids.extract_generators.errors"] = field("monoids.extract_generators", 3)
    for layer in ("linalg", "cones", "monoids", "complexes", "derham"):
        out[f"{layer}.self_s"] = layer_self(layer)
    for name in ("cones.faces", "monoids.monoid_cone", "monoids.cone_lattice_generators",
                 "derham.fiber_complex"):
        out[f"{name}.hit_ratio"] = hit_ratio(name)
    states = agg["member_states"]
    out["monoids.member.states_per_query"] = (
        None if states is None else ratio(states, agg["member_queries"], "monoids.member"))
    out["monoids.extract.candidates_per_generator"] = ratio(
        agg["extract_member_calls"], agg["extract_kept"], "monoids.extract_generators")
    return out
