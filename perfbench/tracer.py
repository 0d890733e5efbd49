"""Outside-in span tracing of hbarkp, installed from the benchmark's files.

``install`` wraps the functions named in ``TARGETS`` and rebinds every
attribute of every hbarkp module or class that *is* the original object.
That reaches the copies made by ``from .linalg import det`` in other
modules and aliases such as ``TPoly.__rmul__ = __mul__``.  No program
file changes.

While a case is recorded, each call of a wrapped function is one span:
name, start, end and parent, kept in memory and written out after the
case.  ``summary`` turns the spans and the counters into per-layer
metrics: calls, seconds, self seconds (duration minus the time wrapped
child spans cover), extra counts, and the share of the case each module
covers.
"""

from __future__ import annotations

import gzip
import importlib
import pkgutil
import sys
import time
from array import array
from collections import Counter

# Module -> wrapped attribute paths.  A span is named
# "<module>.<path without dunder underscores>", e.g. "tpoly.TPoly.mul".
TARGETS = {
    "linalg": ("det",),
    "symfun": ("schur", "t_hbar", "h_apply"),
    "taubuild": ("tau_series", "c_lambda", "TauSeries.assemble",
                 "extract_cauchy_like_tau"),
    "fbuild": ("f_series", "FSeries.assemble", "bridge_to_tau"),
    "lops": ("l_word", "DiffPoly.substitute"),
    "tpoly": ("TPoly.__mul__", "TPoly.__add__", "TPoly.exp", "TPoly.log_unit"),
    "hcalc": ("miwa_shift", "dh_apply"),
    "verify": ("check_fay", "check_hirota3", "check_det_m", "check_kp2"),
    "xseries": ("XSeries.__mul__", "XSeries.inverse", "XSeries.diff"),
    "hscalar": ("HPoly.__mul__",),
    "dataio": ("load", "dump"),
    "cli": ("main",),
}
RING_MULS = frozenset({"tpoly.TPoly.mul", "xseries.XSeries.mul", "hscalar.HPoly.mul"})
# Cover groups beyond the single modules.
GROUPS = {"build": frozenset({"taubuild", "fbuild"})}
CHECKS = ("check_fay", "check_hirota3", "check_det_m", "check_kp2")


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__', '')}"


SPAN_NAMES = tuple(span_name(m, p) for m, paths in TARGETS.items() for p in paths)
MODULES = tuple(TARGETS)


def _weight_of(texp) -> int:
    return sum((i + 1) * e for i, e in enumerate(texp))


# -- counters taken at the call boundary: hook(counts, args, result) ---------

def _count_det(counts, args, result):
    counts["linalg.det.size_max"] = max(counts["linalg.det.size_max"], len(args[0]))


def _count_tpoly_mul(counts, args, result):
    if result is NotImplemented:
        return
    a, b = args
    counts["tpoly.TPoly.mul.pairs"] += len(a.terms) * len(getattr(b, "terms", (b,)))
    counts["tpoly.TPoly.mul.terms_out"] += len(result.terms)


def _count_miwa(counts, args, result):
    counts["hcalc.miwa_shift.terms_in"] += len(args[0].terms)
    counts["hcalc.miwa_shift.terms_out"] += len(result.terms)


def _count_check(name):
    def hook(counts, args, result):
        trust = result.caps["trust"]
        keys = result.poly.terms
        counts[f"{name}.residual_terms"] += len(keys)
        counts[f"{name}.trusted_terms"] += sum(
            1 for texp, zexp in keys if _weight_of(texp) + sum(zexp) <= trust)
    return hook


HOOKS = {
    "linalg.det": _count_det,
    "tpoly.TPoly.mul": _count_tpoly_mul,
    "hcalc.miwa_shift": _count_miwa,
    **{f"verify.{c}": _count_check(f"verify.{c}") for c in CHECKS},
}
CACHED = ("symfun.schur",)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    names = []
    for name in SPAN_NAMES:
        names += [f"{name}.calls", f"{name}.s", f"{name}.self_s"]
    names += [
        "linalg.det.size_max", "linalg.det.ring_muls", "symfun.schur.misses",
        "tpoly.TPoly.mul.pairs", "tpoly.TPoly.mul.terms_out",
        "tpoly.TPoly.mul.kept_ratio",
        "hcalc.miwa_shift.terms_in", "hcalc.miwa_shift.terms_out",
    ]
    for c in CHECKS:
        names += [f"verify.{c}.residual_terms", f"verify.{c}.trusted_share"]
    names += [f"cover.{g}" for g in MODULES + tuple(GROUPS)]
    names += ["trace.case_s", "trace.plain_case_s", "trace.overhead"]
    return names


class Tracer:
    """Span recorder; records only between ``start`` and ``stop``."""

    def __init__(self):
        self.on = False
        self.case = None
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.caches: dict = {}

    def start(self, case) -> None:
        self.case = case
        self.on = True

    def stop(self) -> None:
        self.on = False

    def wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per-case totals: calls, ns, self ns per span name; the counters;
        cover ns per module and group; cache misses."""
        out: Counter = Counter()
        names = [self.names[i] for i in self.span_name]
        modules = [n.split(".", 1)[0] for n in names]
        parents = self.span_parent
        # ancestors[i]: modules of the spans enclosing span i, itself included
        ancestors: list = []
        union: dict = {}
        empty = frozenset()
        for i, name in enumerate(names):
            dur = self.span_end[i] - self.span_start[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.ns"] += dur
            out[f"{name}.self_ns"] += dur
            p = parents[i]
            above = ancestors[p] if p >= 0 else empty
            if p >= 0:
                out[f"{names[p]}.self_ns"] -= dur
                if name in RING_MULS and names[p] == "linalg.det":
                    out["linalg.det.ring_muls"] += 1
            mod = modules[i]
            if mod not in above:
                out[f"cover.{mod}.ns"] += dur
            for group, members in GROUPS.items():
                if mod in members and not (above & members):
                    out[f"cover.{group}.ns"] += dur
            key = (above, mod)
            if key not in union:
                union[key] = above | {mod}
            ancestors.append(union[key])
        out.update(self.counts)
        for name, info in self.caches.items():
            out[f"{name}.misses"] = info().misses
        return dict(out)

    def write_spans(self, path) -> None:
        """One TSV row per span: case, span, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("case\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.case}\t{i}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]}\t{self.span_end[i]}\n")


def _resolve(module, path: str):
    obj = module
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


def install(tracer: Tracer) -> int:
    """Wrap every target; return how many attributes were rebound."""
    import hbarkp

    for info in pkgutil.iter_modules(hbarkp.__path__):
        importlib.import_module(f"hbarkp.{info.name}")
    modules = [m for n, m in sys.modules.items()
               if n == "hbarkp" or n.startswith("hbarkp.")]
    owners = list(modules)
    for m in modules:
        owners += [v for v in vars(m).values()
                   if isinstance(v, type) and v.__module__ == m.__name__]
    rebound = 0
    for module_name, paths in TARGETS.items():
        module = sys.modules[f"hbarkp.{module_name}"]
        for path in paths:
            original = _resolve(module, path)
            name = span_name(module_name, path)
            wrapper = tracer.wrap(name, original)
            if name in CACHED:
                tracer.caches[name] = original.cache_info
            hits = 0
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        hits += 1
            if hits == 0:
                raise RuntimeError(f"{name} is bound nowhere")
            rebound += hits
    return rebound
