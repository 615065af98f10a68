"""Per-layer spans and counts, taken from outside flc.

``Tracer.install`` wraps flc's layer functions by rebinding every name
that refers to them, in every loaded ``flc`` module and on ``Poly``, so
calls between modules (``from .polyring import ...``) and within a
module (global lookups) both go through the wrapper.  Nothing under
``src/`` changes.

Each call records a span: layer, start, end and the span that was open
when it began (its parent).  Spans are kept in memory as flat arrays.
A layer's self time is the summed duration of its spans minus the
durations of their child spans.  Counts are computed from the
arguments and results of each call, never read from the library.
"""

from __future__ import annotations

import sys
import time
from array import array

# Entry layers: their self time is work inside flc that no finer layer
# names, so it is what ``coverage`` leaves out.
ENTRY_LAYERS = (
    "characters.char_raw",
    "characters.char_alternant",
    "characters.char_jacobi_trudi",
    "characters.char_raw_diff",
    "characters.char_so_even",
    "cli.main",
)

# (module, attribute, layer).  Several functions may share a layer.
FUNCTION_LAYERS = (
    ("polyring", "poly_exact_div", "polyring.exact_div"),
    ("polyring", "poly_exact_div_inverses_many", "polyring.exact_div_inverses"),
    ("polyring", "poly_reduce_inverses", "polyring.reduce_inverses"),
    ("polyring", "poly_determinant", "polyring.determinant"),
    ("polyring", "poly_substitute", "polyring.substitute"),
    ("hfuncs", "h", "hfuncs.h"),
    ("series", "series_mul", "series.mul"),
    ("characters", "char_raw", "characters.char_raw"),
    ("characters", "char_alternant", "characters.char_alternant"),
    ("characters", "char_jacobi_trudi", "characters.char_jacobi_trudi"),
    ("characters", "char_raw_diff", "characters.char_raw_diff"),
    ("characters", "char_so_even", "characters.char_so_even"),
    ("tableaux", "enumerate_tableaux", "tableaux.enumerate"),
    ("tableaux", "weight", "tableaux.weight"),
    ("tableaux", "tableau_sum", "tableaux.sum"),
    ("tableaux", "diff_tableau_sum", "tableaux.sum"),
    ("tableaux", "so_even_tableau_sum", "tableaux.sum"),
    ("latticepaths", "lgv_signed_sum", "latticepaths.lgv"),
    ("cli", "main", "cli.main"),
)

# The five unbounded lru_caches, read through their cache_info().
CACHES = (
    ("hfuncs", "_fp_cached", "cache.fp_cached.currsize"),
    ("hfuncs", "h", "cache.h.currsize"),
    ("characters", "_raw_entry", "cache.raw_entry.currsize"),
    ("characters", "_alt_entry", "cache.alt_entry.currsize"),
    ("characters", "_denominator_info", "cache.denominator_info.currsize"),
)

# Layer names in report order; Poly's operators are wrapped separately.
LAYERS = tuple(dict.fromkeys([layer for _, _, layer in FUNCTION_LAYERS] + ["polyring.mul", "polyring.add"]))


def _nterms(value) -> int:
    """Term count of a Poly operand; an int operand is a constant."""
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if isinstance(value, int) and value else 0


def _count_exact_div(counts, args, out):
    counts["polyring.exact_div.mono_muls"] += len(out.terms) * len(args[1].terms)


def _count_reduce(counts, args, out):
    counts["polyring.reduce_inverses.terms_in"] += len(args[0].terms)
    counts["polyring.reduce_inverses.terms_out"] += len(out.terms)


def _count_enumerate(counts, args, out):
    counts["tableaux.enumerate.tableaux"] += len(out)


def _count_mul(counts, args, out):
    counts["polyring.mul.mono_muls"] += len(args[0].terms) * _nterms(args[1])


def _count_add(counts, args, out):
    counts["polyring.add.terms_copied"] += len(args[0].terms)


COUNTERS = {
    "polyring.exact_div": _count_exact_div,
    "polyring.reduce_inverses": _count_reduce,
    "tableaux.enumerate": _count_enumerate,
    "polyring.mul": _count_mul,
    "polyring.add": _count_add,
}

COUNT_NAMES = (
    "polyring.exact_div.mono_muls",
    "polyring.mul.mono_muls",
    "polyring.add.terms_copied",
    "polyring.reduce_inverses.terms_in",
    "polyring.reduce_inverses.terms_out",
    "tableaux.enumerate.tableaux",
)


class Tracer:
    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = [-1]
        self._ids = {name: i for i, name in enumerate(LAYERS)}
        self._caches = {}

    def wrap(self, layer: str, fn):
        lid = self._ids[layer]
        count = COUNTERS.get(layer)
        counts, stack = self.counts, self._stack
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(layers)
            layers.append(lid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            starts[idx] = t0
            ends[idx] = t1
            if count is not None and out is not NotImplemented:
                count(counts, args, out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every flc name that refers to a traced function."""
        from flc import polyring

        modules = [m for name, m in list(sys.modules.items())
                   if name == "flc" or name.startswith("flc.")]
        for mod, attr, _ in CACHES:
            self._caches[(mod, attr)] = getattr(sys.modules[f"flc.{mod}"], attr)
        wrapped = {}
        for mod, attr, layer in FUNCTION_LAYERS:
            fn = getattr(sys.modules[f"flc.{mod}"], attr)
            wrapped[id(fn)] = (fn, self.wrap(layer, fn))
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
        poly = polyring.Poly
        mul = self.wrap("polyring.mul", poly.__mul__)
        poly.__mul__ = poly.__rmul__ = mul
        poly.__add__ = poly.__radd__ = self.wrap("polyring.add", poly.__add__)
        poly.__sub__ = self.wrap("polyring.add", poly.__sub__)

    def metrics(self, wall_s: float) -> dict:
        """Per-layer calls, self time and counts, plus coverage of ``wall_s``."""
        n = len(self.layer)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        nlayers = len(LAYERS)
        calls = [0] * nlayers
        self_s = [0.0] * nlayers
        total_s = [0.0] * nlayers
        entry = {self._ids[name] for name in ENTRY_LAYERS}
        layer, parent = self.layer, self.parent
        for i in range(n):
            lid = layer[i]
            calls[lid] += 1
            self_s[lid] += dur[i] - child[i]
            if lid in entry:
                p = parent[i]
                while p >= 0 and layer[p] != lid:
                    p = parent[p]
                if p < 0:  # outermost span of its layer
                    total_s[lid] += dur[i]
        out = {}
        for name, lid in self._ids.items():
            out[f"{name}.calls"] = calls[lid]
            out[f"{name}.self_s"] = self_s[lid]
            if lid in entry:
                out[f"{name}.total_s"] = total_s[lid]
        out.update(self.counts)
        out["hfuncs.h.misses"] = self._caches[("hfuncs", "h")].cache_info().misses
        for mod, attr, metric in CACHES:
            out[metric] = self._caches[(mod, attr)].cache_info().currsize
        inner = sum(self_s[lid] for name, lid in self._ids.items() if name not in ENTRY_LAYERS)
        out["trace.coverage"] = inner / wall_s if wall_s > 0 else 0.0
        return out
