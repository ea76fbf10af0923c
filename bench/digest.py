"""Canonical hashes of exact results.

``canon`` turns a result (rational functions, series, operator matrices,
calibrated dictionaries, check reports) into a string that depends only on
its mathematical value: dict entries are sorted, zero series entries of an
operator matrix are dropped, and polynomial coefficients are written as
reduced fractions.  Timing and counter fields of a report are left out, so a
report that gains an ``elapsed_s`` keeps its digest.  A polynomial with an
inexact (float) coefficient raises ``InexactResult``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from fractions import Fraction

# report keys that carry measurements, not results
VOLATILE_KEYS = frozenset({"elapsed", "elapsed_s", "timings", "counters"})


class InexactResult(TypeError):
    """A polynomial coefficient is not an exact rational."""


def _rational(c) -> str:
    if isinstance(c, float):
        raise InexactResult(f"float coefficient {c!r}")
    q = Fraction(int(c.numerator), int(c.denominator))
    return f"{q.numerator}/{q.denominator}"


def _poly(p) -> str:
    terms = sorted((tuple(e), _rational(c)) for e, c in p.items() if c != 0)
    return "P[" + ";".join(f"{e}:{c}" for e, c in terms) + "]"


def canon(x) -> str:
    from andt.dictionary import Dictionary, OperatorMatrix
    from andt.exact import QSSeries, RatFn, TPoly

    if x is None or isinstance(x, (bool, int, str)):
        return repr(x)
    if isinstance(x, float):
        return "float"  # measurements only; exact results never hold floats
    if isinstance(x, Fraction) or (hasattr(x, "numerator") and hasattr(x, "denominator")):
        return "Q" + _rational(x)
    if isinstance(x, TPoly):
        return _poly(x)
    if isinstance(x, RatFn):
        return f"R({_poly(x.num)}/{_poly(x.den)})"
    if isinstance(x, QSSeries):
        data = {k: v for k, v in x.data.items() if not v.is_zero}
        return f"S({x.nvars},{canon(x.window)},{canon(data)})"
    if isinstance(x, OperatorMatrix):
        entries = {k: v for k, v in x.entries.items() if not v.is_zero}
        return f"Op({x.n},{x.m},{x.basis!r},{canon(x.index)},{canon(x.window)},{canon(entries)})"
    if isinstance(x, Dictionary):
        fields = {
            "n": x.n, "m_max": x.m_max, "ansatz": x.ansatz, "modes": x.modes,
            "rho": x.rho, "mode_rule": x.mode_rule,
            "normalizations": x.normalizations, "report": x.report,
        }
        return "Dic" + canon(fields)
    if isinstance(x, dict):
        items = sorted(
            f"{canon(k)}:{canon(v)}" for k, v in x.items() if k not in VOLATILE_KEYS
        )
        return "{" + ",".join(items) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if isinstance(x, (set, frozenset)):
        return "{" + ",".join(sorted(canon(v) for v in x)) + "}"
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + canon(
            {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
        )
    r = repr(x)
    if " at 0x" in r:
        raise TypeError(f"no canonical form for {type(x).__name__}")
    return r


def digest(x) -> str:
    return hashlib.sha256(canon(x).encode()).hexdigest()[:16]
