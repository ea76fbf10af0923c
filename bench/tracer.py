"""Per-layer tracing of the andt modules, installed from outside the package.

A :class:`Tracer` replaces selected functions and methods of the ``andt``
modules with timing wrappers and puts the originals back on exit.  A wrapped
name is rebound everywhere it is held: in every ``andt`` module that imported
it by name (``from .exact import log_atom_expand``) and under every class
attribute that aliases it (``__radd__ = __add__``).  Otherwise calls would go
around the wrapper and report zero.

Spans are aggregated per name rather than kept one by one, because the
arithmetic layer sees millions of calls.  For each name the tracer keeps the
call count, the inclusive time of its outermost activations, its self time
(duration minus the time covered by traced children), and for ``lru_cache``
functions the number of calls answered from the cache.  Calls per
(parent, child) edge record which span caused which.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

MODULES = ("exact", "partitions", "surface", "fock", "wedge", "vertex", "dictionary")

# span name -> (module, attribute path); the metric table below reads these.
# Every public function of every module is traced as well, under
# "<module>.<name>", so that a layer a workload should not touch shows as zero.
NAMED_SPANS = {
    "exact.poly_gcd": ("exact", "poly_gcd"),
    "exact.sympy_gcd": ("exact", "_from_sympy"),  # one call per sympy fallback
    "exact.TPoly.mul": ("exact", "TPoly.__mul__"),
    "exact.TPoly.add": ("exact", "TPoly.__add__"),
    "exact.RatFn.new": ("exact", "RatFn.__init__"),
    "exact.RatFn.mul": ("exact", "RatFn.__mul__"),
    "exact.RatFn.add": ("exact", "RatFn.__add__"),
    "exact.QSSeries.mul": ("exact", "QSSeries.__mul__"),
    "exact.QSSeries.scale": ("exact", "QSSeries.scale"),
    "exact.QSSeries.add": ("exact", "QSSeries.__add__"),
    "wedge.omega_plus_terms": ("wedge", "omega_plus_terms"),
    "dictionary.atom_targets": ("dictionary", "_AtomTargets.solve"),
    "dictionary.mode_tower": ("dictionary", "_solve_mode_tower"),
    "dictionary.mode_level": ("dictionary", "_solve_mode_level"),
    "dictionary.ratfn_solve": ("dictionary", "ratfn_solve"),  # ratfn_inverse calls it
    "dictionary.transport_inverse": ("dictionary", "Dictionary.transport_inverse"),
    "dictionary.bracket_matrix": ("dictionary", "BracketEngine.bracket_matrix"),
    "dictionary.word_bracket_table": ("dictionary", "_word_bracket_table"),
    "dictionary.check.factorization": ("dictionary", "factorization_check"),
    "dictionary.check.tau_linearity": ("dictionary", "tau_linearity_check"),
    "dictionary.check.vanishing": ("dictionary", "vanishing_check"),
    "dictionary.check.corner": ("dictionary", "corner_evaluation_check"),
    "dictionary.check.heisenberg": ("dictionary", "heisenberg_embedding_check"),
    "dictionary.check.self_adjoint": ("dictionary", "operator_self_adjoint"),
    "dictionary.check.commute": ("dictionary", "divisor_pair_commutes"),
    "surface.SurfaceGeometry.new": ("surface", "SurfaceGeometry.__init__"),
}


# (span, statistics reported for it).  Statistics: calls,
# s (inclusive), self_s, cache_hit_frac (base: calls), and the poly_gcd
# specials sympy_calls, sympy_frac (base: cache misses) and cache_size.
_METRICS = [
    ("exact.poly_gcd", ("calls", "self_s", "cache_hit_frac", "sympy_calls",
                        "sympy_frac", "cache_size")),
    ("exact.TPoly.mul", ("calls", "self_s")),
    ("exact.TPoly.add", ("calls", "self_s")),
    ("exact.RatFn.new", ("calls", "self_s")),
    ("exact.RatFn.mul", ("calls", "self_s")),
    ("exact.RatFn.add", ("calls", "self_s")),
    ("exact.QSSeries.mul", ("calls", "self_s")),
    ("exact.QSSeries.scale", ("calls", "self_s")),
    ("exact.QSSeries.add", ("calls", "self_s")),
    ("exact.log_atom_expand", ("s",)),
    ("exact.rational_reconstruct_q", ("s",)),
    ("wedge.e_act", ("calls", "s")),
    ("wedge.normal_pair_matrix", ("calls", "cache_hit_frac", "s")),
    ("wedge.omega_plus_terms", ("s",)),
    ("wedge.theta_logatoms", ("s",)),
    ("fock.nak_pairing", ("calls", "s")),
    ("fock.convert_labels", ("s",)),
    ("fock.omega0_mode_matrices", ("s",)),
    ("vertex.insertion_limit", ("calls", "s")),
    ("vertex.vacuum_series", ("s",)),
    ("vertex.theta_vacuum_series", ("s",)),
    ("dictionary.atom_targets", ("s",)),
    ("dictionary.mode_tower", ("s",)),
    ("dictionary.mode_level", ("calls", "s")),
    ("dictionary.ratfn_solve", ("s",)),
    ("dictionary.transport_inverse", ("s",)),
    ("dictionary.bracket_matrix", ("s",)),
    ("dictionary.word_bracket_table", ("s",)),
    ("dictionary.m_divisor", ("s",)),
    ("dictionary.check.factorization", ("s",)),
    ("dictionary.check.tau_linearity", ("s",)),
    ("dictionary.check.vanishing", ("s",)),
    ("dictionary.check.corner", ("s",)),
    ("dictionary.check.heisenberg", ("s",)),
    ("dictionary.check.self_adjoint", ("s",)),
    ("dictionary.check.commute", ("s",)),
    ("dictionary.three_point", ("s",)),
    ("dictionary.rationality_certificate", ("s",)),
    ("dictionary.spectrum_probe", ("s",)),
    ("partitions.enumerate_multipartitions", ("calls", "s")),
    ("surface.SurfaceGeometry.new", ("calls",)),
]

_UNIT = {"calls": "count", "sympy_calls": "count", "cache_size": "count",
         "s": "s", "self_s": "s", "cache_hit_frac": "fraction", "sympy_frac": "fraction"}
_HIGHER_IS_BETTER = {"cache_hit_frac"}

# [(name, unit, better)] in output order; BENCHMARK.json lists exactly these.
PER_LAYER_METRICS = [
    (f"{span}.{stat}", _UNIT[stat], "higher" if stat in _HIGHER_IS_BETTER else "lower")
    for span, stats in _METRICS
    for stat in stats
] + [("trace.overhead_frac", "fraction", "lower")]  # set by run.py


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        target = getattr(obj, "__wrapped__", obj)
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Context manager: wraps the andt layers on entry, restores them on exit."""

    def __init__(self):
        self.modules = {m: importlib.import_module(f"andt.{m}") for m in MODULES}
        self.stats: dict = {}  # span -> [calls, inclusive_s, self_s, cache_hits]
        self.edges: dict = {}  # (parent span, child span) -> calls
        self._originals: dict = {}  # span -> original callable
        self._restore: list = []  # (holder, attribute, original)
        self._stack: list = []  # [span, time covered by children] per open call

    def _targets(self):
        targets = {}
        for span, (mod, path) in NAMED_SPANS.items():
            targets[span] = _resolve(self.modules[mod], path)
        seen = {id(f) for f in targets.values()}
        for mod, module in self.modules.items():
            for name, obj in _public_functions(module):
                if id(obj) not in seen:
                    seen.add(id(obj))
                    targets[f"{mod}.{name}"] = obj
        return targets

    def __enter__(self):
        targets = self._targets()
        wrappers = {id(f): self._wrap(span, f) for span, f in targets.items()}
        self._originals = targets
        holders = list(self.modules.values())
        holders += [c for m in self.modules.values() for c in vars(m).values()
                    if isinstance(c, type) and c.__module__.startswith("andt.")]
        for holder in holders:
            for name, val in list(vars(holder).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._restore.append((holder, name, val))
                    setattr(holder, name, w)
        return self

    def __exit__(self, *exc):
        for holder, name, val in reversed(self._restore):
            setattr(holder, name, val)
        self._restore.clear()
        return False

    def _wrap(self, span, fn):
        st = self.stats.setdefault(span, [0, 0.0, 0.0, 0])
        edges = self.edges
        stack = self._stack
        depth = [0]
        info = getattr(fn, "cache_info", None)
        # RatFn(..., _canonical=True) skips canonicalisation; only count the rest
        canonicalising = span == "exact.RatFn.new"

        def wrapper(*args, **kwargs):
            if canonicalising and kwargs.get("_canonical"):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            depth[0] += 1
            misses = info().misses if info is not None else 0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[0] -= 1
                st[0] += 1
                st[2] += dt - frame[1]
                if depth[0] == 0:
                    st[1] += dt
                if info is not None and info().misses == misses:
                    st[3] += 1
                if parent is not None:
                    parent[1] += dt
                key = (parent[0] if parent is not None else "", span)
                edges[key] = edges.get(key, 0) + 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results -------------------------------------------------------------

    def spans(self) -> dict:
        return {
            span: {"calls": c, "s": incl, "self_s": self_s, "cache_hits": hits}
            for span, (c, incl, self_s, hits) in sorted(self.stats.items())
        }

    def metrics(self) -> dict:
        """Per-layer metric values (without the overhead figure)."""
        out = {}
        gcd_info = self._originals["exact.poly_gcd"].cache_info()
        for span, stats in _METRICS:
            calls, incl, self_s, hits = self.stats[span]
            for stat in stats:
                if stat == "calls":
                    v = calls
                elif stat == "s":
                    v = incl
                elif stat == "self_s":
                    v = self_s
                elif stat == "cache_hit_frac":
                    v = hits / calls if calls else 0.0
                elif stat == "sympy_calls":
                    v = self.stats["exact.sympy_gcd"][0]
                elif stat == "sympy_frac":
                    misses = calls - hits
                    v = self.stats["exact.sympy_gcd"][0] / misses if misses else 0.0
                else:  # cache_size
                    v = gcd_info.currsize
                out[f"{span}.{stat}"] = v
        return out

    def edge_calls(self) -> dict:
        return {f"{p}>{c}": n for (p, c), n in sorted(self.edges.items())}
