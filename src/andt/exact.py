"""Exact arithmetic kernel for the equivariant operator engine.

Everything here is exact: rational coefficients, sparse polynomials in the
three torus weights ``t1, t2, t3``, canonically normalized rational functions,
and Laurent-in-q / power-in-s series truncated to an explicit window.  Floats
never appear.

Coefficient invariant: a polynomial coefficient is stored as a Python ``int``
whenever it is integral and as ``QQ`` only otherwise.  Canonical rational
functions have integer-primitive denominators, so almost every coefficient is
an ``int``, and the arithmetic avoids the gcd that every ``Fraction``
operation pays to normalise its result.  Equal ``int`` and ``QQ`` values
compare and hash equal, so canonical forms, dict keys and cache keys do not
depend on which type holds a coefficient.  Values handed out as scalars
(``RatFn.const_value``) are always ``QQ``, so callers may divide them with
``/``.

The series type tracks, besides the storage window, a *proven lower bound*
``qfloor`` on the exact q-support.  That bound is what makes truncated
multiplication sound: the product of two series is complete up to
``min(a.qmax + b.qfloor, b.qmax + a.qfloor)``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd as _igcd, lcm as _ilcm
from operator import mul
from typing import Mapping, Sequence

# QQ is the type of non-integral coefficients (integral ones are stored as int;
# see the module docstring).
from fractions import Fraction as QQ

__all__ = [
    "QQ",
    "ExactDivisionError",
    "WindowError",
    "ReconstructError",
    "TPoly",
    "RatFn",
    "Window",
    "QSSeries",
    "T1",
    "T2",
    "T3",
    "TAU",
    "ONE",
    "ZERO",
    "RF_ZERO",
    "RF_ONE",
    "poly_gcd",
    "log_atom_expand",
    "theta_vacuum_logatoms",
    "expand_logatoms",
    "macmahon_power",
    "series_exp",
    "rational_reconstruct_q",
    "QRational",
    "SingularMatrixError",
    "rref",
    "solve",
    "inverse",
    "nullspace",
    "matmul",
]

_SCALARS = (int, QQ)


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class WindowError(ValueError):
    """Raised when a series window is too small for the requested operation."""


class ReconstructError(ValueError):
    """Raised when no rational function matches a series on its window."""


def _coeff(v):
    """A coefficient in stored form: ``int`` when integral, ``QQ`` otherwise."""
    if v.__class__ is int:
        return v
    q = v if isinstance(v, QQ) else QQ(v)
    return int(q.numerator) if q.denominator == 1 else q


def _qdiv(a, b):
    """Exact quotient a / b of two stored-form coefficients, in stored form."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return QQ(a, b) if r else q
    return _coeff(QQ(a) / b)


# ---------------------------------------------------------------------------
# sparse polynomials in t1, t2, t3
# ---------------------------------------------------------------------------

_NVARS = 3
_ZKEY = (0, 0, 0)


def _gl_key(exps):
    # graded lex with t1 > t2 > t3
    return (exps[0] + exps[1] + exps[2], exps[0], exps[1], exps[2])


class TPoly:
    """Sparse polynomial in t1, t2, t3 with exact rational coefficients.

    Immutable.  Keys are exponent triples; zero coefficients are never stored,
    and integral coefficients are stored as ``int``.  Term order, where one is
    needed, is graded lexicographic with t1 > t2 > t3.
    """

    __slots__ = ("_d", "_hash")

    def __init__(self, data: Mapping[tuple, object] | None = None, *, _trusted=False):
        if data is None:
            d = {}
        elif _trusted:
            d = dict(data)
        else:
            d = {}
            for k, v in data.items():
                if len(k) != _NVARS or any(e < 0 or not isinstance(e, int) for e in k):
                    raise ValueError(f"bad exponent triple {k!r}")
                q = _coeff(v)
                if q != 0:
                    q0 = d.get(k)
                    d[k] = q if q0 is None else _coeff(q0 + q)
                    if d[k] == 0:
                        del d[k]
        self._d = d
        self._hash = None

    # -- constructors -------------------------------------------------------
    @classmethod
    def const(cls, c) -> "TPoly":
        c = _coeff(c)
        return cls({_ZKEY: c} if c != 0 else {}, _trusted=True)

    @classmethod
    def gen(cls, i: int) -> "TPoly":
        e = [0, 0, 0]
        e[i] = 1
        return cls({tuple(e): 1}, _trusted=True)

    # -- basic protocol ------------------------------------------------------
    def __bool__(self):
        return bool(self._d)

    @property
    def is_zero(self) -> bool:
        return not self._d

    def __eq__(self, other):
        if isinstance(other, TPoly):
            return self._d == other._d
        if isinstance(other, _SCALARS):
            return self == TPoly.const(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash

    def items(self):
        return self._d.items()

    def __len__(self):
        return len(self._d)

    def const_term(self):
        """Coefficient of t^0 (0 if absent), in stored form."""
        return self._d.get(_ZKEY, 0)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = _as_tpoly(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self._d)
        for k, v in other._d.items():
            w = d.get(k)
            if w is None:
                d[k] = v
            else:
                w = w + v
                if w == 0:
                    del d[k]
                else:
                    d[k] = w if w.__class__ is int else _coeff(w)
        return TPoly(d, _trusted=True)

    __radd__ = __add__

    def __neg__(self):
        return TPoly({k: -v for k, v in self._d.items()}, _trusted=True)

    def __sub__(self, other):
        other = _as_tpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_tpoly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = _coeff(other)
            if c == 0:
                return TPoly()
            return TPoly({k: _coeff(v * c) for k, v in self._d.items()}, _trusted=True)
        if not isinstance(other, TPoly):
            return NotImplemented
        a, b = self._d, other._d
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for (e1, e2, e3), u in a.items():
            for (f1, f2, f3), v in b.items():
                k = (e1 + f1, e2 + f2, e3 + f3)
                w = out.get(k)
                if w is None:
                    out[k] = u * v
                else:
                    w = w + u * v
                    if w == 0:
                        del out[k]
                    else:
                        out[k] = w
        for k, w in out.items():
            if w.__class__ is not int and w.denominator == 1:
                out[k] = int(w.numerator)
        return TPoly(out, _trusted=True)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial; use RatFn")
        r = TPoly.const(1)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    # -- structure -----------------------------------------------------------
    def total_degree(self) -> int:
        if not self._d:
            return -1
        return max(e1 + e2 + e3 for (e1, e2, e3) in self._d)

    def leading(self):
        """(exponent triple, coefficient) of the graded-lex leading term."""
        if not self._d:
            raise ValueError("zero polynomial has no leading term")
        k = max(self._d, key=_gl_key)
        return k, self._d[k]

    def content(self):
        """gcd of the coefficients, as a positive rational."""
        if not self._d:
            return QQ(0)
        u, g = self._primitive_factor()
        return QQ(abs(g), u)

    def monomial_content(self) -> tuple:
        if not self._d:
            return _ZKEY
        return tuple(min(e[i] for e in self._d) for i in range(_NVARS))

    def shift_monomial(self, delta: tuple) -> "TPoly":
        """Multiply by t^delta (delta may be negative if every term allows it)."""
        out = {}
        for e, v in self._d.items():
            k = (e[0] + delta[0], e[1] + delta[1], e[2] + delta[2])
            if any(x < 0 for x in k):
                raise ExactDivisionError("monomial shift below zero")
            out[k] = v
        return TPoly(out, _trusted=True)

    def exact_div(self, other: "TPoly") -> "TPoly":
        """Exact division; raises ExactDivisionError if not divisible."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return TPoly()
        if len(other._d) == 1:
            (ek, ev), = other._d.items()
            q = self.shift_monomial((-ek[0], -ek[1], -ek[2]))
            return q if ev == 1 else q._scaled(1, ev)
        lk, lc = other.leading()
        l1, l2, l3 = lk
        tail = [(k, v) for k, v in other._d.items() if k != lk]
        # rem -= c * t^dk * (other - leading term), in place
        rem = dict(self._d)
        quo: dict = {}
        while rem:
            r1, r2, r3 = rk = max(rem, key=_gl_key)
            d1, d2, d3 = dk = (r1 - l1, r2 - l2, r3 - l3)
            if d1 < 0 or d2 < 0 or d3 < 0:
                raise ExactDivisionError("inexact polynomial division")
            c = _qdiv(rem.pop(rk), lc)
            quo[dk] = c
            for (e1, e2, e3), v in tail:
                k = (e1 + d1, e2 + d2, e3 + d3)
                w = rem.get(k)
                if w is None:
                    rem[k] = -c * v
                else:
                    w = w - c * v
                    if w == 0:
                        del rem[k]
                    else:
                        rem[k] = w
        return TPoly(quo, _trusted=True)

    def divides(self, other: "TPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except ExactDivisionError:
            return False

    def substitute(self, vals: Mapping[int, object]) -> "TPoly":
        """Substitute exact rational values for a subset of the variables."""
        vals = {i: _coeff(v) for i, v in vals.items()}
        out: dict = {}
        for e, c in self._d.items():
            k = list(e)
            for i, v in vals.items():
                c = c * v ** e[i]
                k[i] = 0
            k = tuple(k)
            w = out.get(k)
            w = c if w is None else w + c
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = _coeff(w)
        return TPoly(out, _trusted=True)

    def value_at(self, t1, t2, t3):
        """The value at an exact point (int, or QQ where a coordinate or
        coefficient is fractional).

        At an integer point each term is a product of ``int`` powers.  At a
        fractional point the sum stays in ``int`` over one common
        denominator: with t_v = p_v / q_v of degree D_v and L the lcm of the
        coefficient denominators, the value is
        sum (L c) prod_v p_v^e_v q_v^(D_v - e_v) over L prod_v q_v^D_v, with
        each power read from a per-variable table.
        """
        d = self._d
        if t1.__class__ is int and t2.__class__ is int and t3.__class__ is int:
            return sum(c * t1**a * t2**b * t3**e for (a, b, e), c in d.items())
        if not d:
            return 0
        lcm = 1
        for c in d.values():
            if c.__class__ is not int:
                lcm = _ilcm(lcm, c.denominator)
        tables, scale = [], lcm
        for v, t in enumerate((t1, t2, t3)):
            deg = max(key[v] for key in d)
            p, q = t.numerator, t.denominator
            tables.append([p**k * q ** (deg - k) for k in range(deg + 1)])
            scale *= q**deg
        p1, p2, p3 = tables
        total = 0
        for (a, b, e), c in d.items():
            c = c * lcm if c.__class__ is int else c.numerator * (lcm // c.denominator)
            total += c * p1[a] * p2[b] * p3[e]
        return total if scale == 1 else QQ(total, scale)

    def tau_sub(self) -> "TPoly":
        """The restriction p(t1, -t1, t3) to the hyperplane t1 + t2 = 0."""
        out: dict = {}
        for (a, b, c), v in self._d.items():
            key = (a + b, 0, c)
            w = out.get(key, 0) + (v if b % 2 == 0 else -v)
            if w == 0:
                out.pop(key, None)
            else:
                out[key] = _coeff(w)
        return TPoly(out, _trusted=True)

    def _scaled(self, u, g) -> "TPoly":
        """self * u / g for nonzero stored-form scalars u, g."""
        return TPoly({k: _qdiv(v * u, g) for k, v in self._d.items()}, _trusted=True)

    def _primitive_factor(self) -> tuple:
        """Integers (u, g) such that self * u / g is the primitive associate."""
        g, u = 0, 1
        for v in self._d.values():
            if v.__class__ is int:
                g = _igcd(g, v)
            else:
                g = _igcd(g, int(v.numerator))
                u = _ilcm(u, int(v.denominator))
        if self.leading()[1] < 0:
            g = -g
        return u, g

    def primitive(self) -> "TPoly":
        """Integer-primitive scalar multiple with positive leading coefficient."""
        if self.is_zero:
            return self
        u, g = self._primitive_factor()
        if u == 1 and g == 1:
            return self
        # every quotient is an integer: g divides each numerator and each
        # denominator divides u
        return TPoly(
            {
                k: v // g * u if v.__class__ is int
                else int(v.numerator) // g * (u // int(v.denominator))
                for k, v in self._d.items()
            },
            _trusted=True,
        )

    def min_exponent(self, var: int) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial")
        return min(e[var] for e in self._d)

    def __str__(self):
        if not self._d:
            return "0"
        names = ("t1", "t2", "t3")
        parts = []
        for e in sorted(self._d, key=_gl_key, reverse=True):
            c = self._d[e]
            mon = "*".join(
                (names[i] if e[i] == 1 else f"{names[i]}^{e[i]}")
                for i in range(_NVARS)
                if e[i]
            )
            if mon:
                cs = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{cs}{mon}")
            else:
                parts.append(f"{c}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s

    __repr__ = __str__


def _as_tpoly(x):
    if isinstance(x, TPoly):
        return x
    if isinstance(x, _SCALARS):
        return TPoly.const(x)
    return NotImplemented


T1 = TPoly.gen(0)
T2 = TPoly.gen(1)
T3 = TPoly.gen(2)
TAU = T1 + T2
ONE = TPoly.const(1)
ZERO = TPoly()


# -- polynomial gcd ----------------------------------------------------------
# poly_gcd strips the monomial content t^mg and the integer content, leaving
# integer-primitive a0, b0, then tries in order:
#   1. a single term on either side: the gcd is t^mg;
#   2. equal parts, or one dividing the other (an evaluation filter in front
#      of the trial division, see _divides_primitive);
#   3. a coprimality certificate mod a prime (_coprime_certified);
#   4. sympy's gcd over ZZ, for what is left: the dense univariate dup_gcd
#      when a0 and b0 are both binary forms (homogeneous in t1, t2 alone),
#      the sparse trivariate ring otherwise.
# Localization weights are ratios of products of linear forms in t1, t2, t3,
# so the pairs that survive steps 1-2 are almost all coprime; step 3 proves
# that without sympy.
#
# Step 4's dense route is exact.  Setting t2 = 1 is a ring map, and on binary
# forms not divisible by t2 it keeps the degree: with the monomial content
# gone, a0 holds a pure t1^d term.  A common factor of two forms is a form,
# so gcd(a0(t1, 1), b0(t1, 1)) over ZZ is the gcd of a0, b0 with t2 = 1 up to
# sign, and its homogenisation t2^e g(t1/t2) is that gcd; primitive() fixes
# the sign.  A form's coefficients, from t1^d down to t2^d, are its dense
# univariate coefficient list, so nothing is converted on the way.
#
# The certificate reduces a0, b0 mod P = 2^61 - 1 and restricts them to the
# line t = s*alpha + beta, then runs Euclid in F_P[s].  It answers "coprime"
# only if a0's image keeps the full degree of a0 and the univariate gcd is a
# nonzero constant; otherwise it answers "unknown".  Soundness: a primitive
# common factor g of a0 and b0 divides both in Z[t] (Gauss's lemma), and both
# maps are ring maps, so g's image divides both images.  Full degree means the
# top homogeneous part of a0 is nonzero at alpha mod P, hence so is g's, and
# g's image has degree deg g; a constant univariate gcd then forces
# deg g = 0.  Nothing is decided by probability.
#
# alpha = _EVAL_POINT lies off the planes where the tangent weights met here
# vanish, so the degree condition almost always holds (alpha = (1, 3, 7), on
# the weight plane 3 t1 = t2, certified only half of the coprime pairs of the
# rigidify benchmark).  beta = _LINE_BASE has two nonzero coordinates: with
# beta = (0, 0, 1), every form in t1, t2 alone restricts to a multiple of s,
# so no two products of such forms are ever certified coprime.

# Fixed evaluation point for the divisibility filter and direction of the
# certificate's line.  Its coordinates are large and unrelated, so that the
# linear forms met here do not vanish there and an accidental a(p) | b(p) is
# rare.
_EVAL_POINT = (1009, 7919, 104729)
_LINE_BASE = (17, 0, 3)
_P = (1 << 61) - 1

_SYMPY_RING = None


def _sympy_ring():
    global _SYMPY_RING
    if _SYMPY_RING is None:
        from sympy.polys.domains import ZZ
        from sympy.polys.rings import ring

        _SYMPY_RING = ring("t1,t2,t3", ZZ)[0]
    return _SYMPY_RING


def _to_sympy(p: TPoly):
    """p must have integer coefficients (a primitive polynomial has)."""
    return _sympy_ring().from_dict(dict(p.items()))


def _from_sympy(terms) -> TPoly:
    """The TPoly of a sympy gcd given as (exponents, coefficient) pairs;
    zero coefficients are dropped.  One call per sympy fallback."""
    return TPoly({tuple(e): int(c) for e, c in terms if c}, _trusted=True)


def _binary_form(p: TPoly) -> list | None:
    """The coefficients of p from t1^d down to t2^d if p is a form of degree
    d in t1, t2 alone, else None."""
    d = p.total_degree()
    out = [0] * (d + 1)
    for (e1, e2, e3), v in p._d.items():
        if e3 or e1 + e2 != d:
            return None
        out[e2] = v
    return out


def _sympy_gcd(a0: TPoly, b0: TPoly) -> TPoly:
    """A gcd of integer-primitive a0, b0 with no monomial content, through
    sympy over ZZ (step 4 above); its sign is not normalised."""
    fa, fb = _binary_form(a0), _binary_form(b0)
    if fa is None or fb is None:
        return _from_sympy(_to_sympy(a0).gcd(_to_sympy(b0)).terms())
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_gcd

    g = dup_gcd([ZZ(c) for c in fa], [ZZ(c) for c in fb], ZZ)
    e = len(g) - 1
    return _from_sympy(((e - k, k, 0), c) for k, c in enumerate(g))


def _eval_at_point(p: TPoly) -> int:
    return p.value_at(*_EVAL_POINT)


def _divides_primitive(a: TPoly, b: TPoly) -> bool:
    """a | b for integer-primitive a, b.

    By Gauss's lemma a | b forces a(p) | b(p) at an integer point p, so a
    failing integer test rejects without the trial division.
    """
    ap = _eval_at_point(a)
    if ap and _eval_at_point(b) % ap:
        return False
    return a.divides(b)


def _line_power(v: int, e: int) -> list:
    """(alpha_v s + beta_v)^e mod P, as coefficients in s from s^0 up."""
    a, b = _EVAL_POINT[v], _LINE_BASE[v]
    return [comb(e, k) * pow(a, k, _P) * pow(b, e - k, _P) % _P for k in range(e + 1)]


@lru_cache(maxsize=4096)
def _line_monomial(e: tuple) -> tuple:
    """t^e restricted to the line mod P, as coefficients in s from s^0 up.

    Bounded by the number of monomials, not of polynomials: degree <= 25 has
    fewer than 4096.
    """
    row = _line_power(0, e[0])
    for v in (1, 2):
        w = _line_power(v, e[v])
        out = [0] * (len(row) + e[v])
        for i, x in enumerate(row):
            for j, y in enumerate(w, i):
                out[j] += x * y
        row = [x % _P for x in out]
    return tuple(row)


def _line_image(p: TPoly) -> list:
    """Coefficients in s, from s^0 up, of p(s*alpha + beta) mod P."""
    rows = map(_line_monomial, p._d)
    cols = itertools.zip_longest(*rows, fillvalue=0)
    return [sum(map(mul, p._d.values(), col)) % _P for col in cols]


def _trimmed_degree(u: list) -> int:
    """Degree in s of u (-1 for zero), after dropping its zero top entries."""
    while u and not u[-1]:
        u.pop()
    return len(u) - 1


def _rem_in_place(u: list, w: list) -> None:
    """u <- u mod w in F_P[s]; w has a nonzero top entry."""
    dw = len(w) - 1
    inv = pow(w[-1], -1, _P)
    while len(u) > dw:
        c = u.pop() * inv % _P
        k = len(u) - dw
        u[k:] = [(x - c * y) % _P for x, y in zip(u[k:], w)]


def _coprime_certified(a0: TPoly, b0: TPoly) -> bool:
    """True only if a0 and b0 are proven coprime (see the comment above)."""
    u, w = _line_image(a0), _line_image(b0)
    if _trimmed_degree(u) != a0.total_degree():
        return False
    while _trimmed_degree(w) > 0:  # Euclid in F_P[s]
        _rem_in_place(u, w)
        u, w = w, u
    return _trimmed_degree(w) == 0


@lru_cache(maxsize=100000)
def poly_gcd(a: TPoly, b: TPoly) -> TPoly:
    """Primitive positive gcd of two polynomials."""
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    ma, mb = a.monomial_content(), b.monomial_content()
    mg = tuple(min(x, y) for x, y in zip(ma, mb))
    a0 = a.shift_monomial((-ma[0], -ma[1], -ma[2])).primitive()
    b0 = b.shift_monomial((-mb[0], -mb[1], -mb[2])).primitive()
    if len(a0) == 1 or len(b0) == 1:
        return TPoly({mg: 1}, _trusted=True)  # coprime after removing monomial content
    if a0 == b0:
        return a0.shift_monomial(mg)
    if a0.total_degree() <= b0.total_degree() and _divides_primitive(a0, b0):
        return a0.shift_monomial(mg)
    if b0.total_degree() < a0.total_degree() and _divides_primitive(b0, a0):
        return b0.shift_monomial(mg)
    if _coprime_certified(a0, b0):
        return TPoly({mg: 1}, _trusted=True)
    return _sympy_gcd(a0, b0).primitive().shift_monomial(mg)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

# -- canonical arithmetic ----------------------------------------------------
# The arithmetic takes a gcd only where a common factor is still possible
# (Henrici's method, Knuth TAOCP vol. 2, 4.5.1); the constructor's full
# normalisation is kept for input not known to be canonical.  A gcd with a
# nonzero constant is 1, so _gcd takes none there; a canonical denominator
# that is constant is ONE, and a sum of two polynomials is one.  For canonical
# a/b and c/d:
#   *  after the cross-cancellation g1 = gcd(a, d), g2 = gcd(c, b), the
#      product (a/g1)(c/g2) / ((b/g2)(d/g1)) is canonical;
#   +  with g = gcd(b, d) = 1, (a d + c b) / (b d) is canonical.  Otherwise
#      let b' = b/g, d' = d/g and t = a d' + c b'.  A prime dividing t and b'
#      would divide a d', but it is prime to a and to d'; so t is prime to b'
#      and likewise to d', gcd(t, b' d' g) = gcd(t, g) = g2, and
#      (t/g2) / (b' (d/g2)) is canonical;
#   ** (a^e, b^e) is canonical.
# Proof of the rest: gcd(x/g, y/g) = 1 for g = gcd(x, y) in a UFD, and a
# product is prime to p when each factor is.  A quotient of integer-primitive
# polynomials is integer-primitive by Gauss's lemma, and so is a product.
# Graded lex is a monomial order, so leading coefficients multiply, and
# quotients and products of positive-leading denominators stay
# positive-leading.  poly_gcd returns a primitive gcd with positive leading
# coefficient, so every quotient above keeps that sign.  A sum is zero only
# when a/b = -c/d, which forces b = d; the zero checks keep a zero from ever
# carrying a denominator.


def _gcd(a: TPoly, b: TPoly) -> TPoly:
    """poly_gcd(a, b), or ONE without a call when either is a nonzero constant."""
    if (len(a._d) == 1 and _ZKEY in a._d) or (len(b._d) == 1 and _ZKEY in b._d):
        return ONE
    return poly_gcd(a, b)


class RatFn:
    """Quotient of two TPoly in canonical form.

    Canonical form: gcd(num, den) = 1, the denominator has integer coefficients
    with content 1 and positive graded-lex leading coefficient.  Equality is
    structural equality of the canonical forms.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, *, _canonical=False):
        if den is None:
            den = ONE
        num = _as_tpoly(num)
        den = _as_tpoly(den)
        if _canonical:
            self.num, self.den = num, den
            self._hash = None
            return
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO, ONE
            self._hash = None
            return
        g = _gcd(num, den)
        if g != ONE:
            num = num.exact_div(g)
            den = den.exact_div(g)
        u, c = den._primitive_factor()
        if u != 1 or c != 1:
            num = num._scaled(u, c)
            den = den._scaled(u, c)
        self.num, self.den = num, den
        self._hash = None

    # -- constructors / predicates -------------------------------------------
    @classmethod
    def const(cls, c) -> "RatFn":
        return cls(TPoly.const(c), ONE, _canonical=True)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_const(self) -> bool:
        return self.den == ONE and len(self.num) <= 1 and (
            self.num.is_zero or self.num.const_term() != 0
        )

    def const_value(self):
        """The value of a constant, always as ``QQ``."""
        if not self.is_const:
            raise ValueError("not a constant")
        return QQ(self.num.const_term())

    # -- protocol --------------------------------------------------------------
    def __eq__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self):
        return not self.num.is_zero

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            if b == ONE:
                t = a + c
                return RF_ZERO if t.is_zero else RatFn(t, ONE, _canonical=True)
            return RatFn(a + c, b)
        g = _gcd(b, d)
        if g == ONE:
            t = a * d + c * b
            return RF_ZERO if t.is_zero else RatFn(t, b * d, _canonical=True)
        b1 = b.exact_div(g)
        t = a * d.exact_div(g) + c * b1
        if t.is_zero:
            return RF_ZERO
        g2 = _gcd(t, g)
        if g2 == ONE:
            return RatFn(t, b1 * d, _canonical=True)
        return RatFn(t.exact_div(g2), b1 * d.exact_div(g2), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_ratfn(other) + (-self)

    def __mul__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RF_ZERO
        # cross-cancel before multiplying to keep intermediates small
        g1 = _gcd(self.num, other.den)
        g2 = _gcd(other.num, self.den)
        n1 = self.num if g1 == ONE else self.num.exact_div(g1)
        d2 = other.den if g1 == ONE else other.den.exact_div(g1)
        n2 = other.num if g2 == ONE else other.num.exact_div(g2)
        d1 = self.den if g2 == ONE else self.den.exact_div(g2)
        return RatFn(n1 * n2, d1 * d2, _canonical=True)

    __rmul__ = __mul__

    def inverse(self) -> "RatFn":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        # (den, num) is already coprime; only the new denominator's sign and
        # content need normalising
        u, c = self.num._primitive_factor()
        if u == 1 and c == 1:
            return RatFn(self.den, self.num, _canonical=True)
        return RatFn(self.den._scaled(u, c), self.num._scaled(u, c), _canonical=True)

    def __truediv__(self, other):
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _as_ratfn(other) * self.inverse()

    def __pow__(self, e: int):
        if e == 0:
            return RF_ONE
        if e < 0:
            return self.inverse() ** (-e)
        return RatFn(self.num**e, self.den**e, _canonical=True)

    # -- valuations and substitution ---------------------------------------------
    def valuation_t1pt2(self) -> int:
        """Order of vanishing along t1 + t2 = 0 (negative for a pole).

        Computed by exact division by t1 + t2 while the restriction to
        t1 + t2 = 0 vanishes.  Raises on zero.
        """
        if self.is_zero:
            raise ValueError("valuation of the zero rational function")
        return _tau_valuation(self.num) - _tau_valuation(self.den)

    def valuation_var(self, var: int) -> int:
        """Order of vanishing in a single variable (min-exponent based)."""
        if self.is_zero:
            raise ValueError("valuation of the zero rational function")
        return self.num.min_exponent(var) - self.den.min_exponent(var)

    def substitute(self, vals: Mapping[int, object]) -> "RatFn":
        den = self.den.substitute(vals)
        if den.is_zero:
            raise ZeroDivisionError("substitution vanishes on the denominator")
        return RatFn(self.num.substitute(vals), den)

    def substitute_all(self, t1, t2, t3=0):
        """The value at (t1, t2, t3), as ``QQ``."""
        den = self.den.value_at(t1, t2, t3)
        if not den:
            raise ZeroDivisionError("substitution vanishes on the denominator")
        return QQ(self.num.value_at(t1, t2, t3)) / den

    def limit_var_zero(self, var: int) -> "RatFn":
        """Exact limit as one variable -> 0, after cancelling its common power."""
        if self.is_zero:
            return self
        v = min(self.num.min_exponent(var), self.den.min_exponent(var))
        delta = [0, 0, 0]
        delta[var] = -v
        num = self.num.shift_monomial(tuple(delta))
        den = self.den.shift_monomial(tuple(delta))
        den0 = den.substitute({var: 0})
        if den0.is_zero:
            raise ZeroDivisionError("pole in the limit")
        return RatFn(num.substitute({var: 0}), den0)

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _as_ratfn(x):
    if isinstance(x, RatFn):
        return x
    if isinstance(x, TPoly):
        return RatFn(x)
    if isinstance(x, _SCALARS):
        return RatFn.const(x)
    return NotImplemented


@lru_cache(maxsize=100000)
def _tau_valuation(p: TPoly) -> int:
    if p.is_zero:
        raise ValueError("valuation of the zero polynomial")
    v = 0
    while p.tau_sub().is_zero:  # (t1 + t2) | p
        p = p.exact_div(TAU)
        v += 1
    return v


RF_ZERO = RatFn.const(0)
RF_ONE = RatFn.const(1)


# ---------------------------------------------------------------------------
# windowed series: Laurent in q, truncated power series in s_1..s_n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """The q-degrees qmin..qmax and the s-degrees up to smax on which a series
    is known.  Each bound is required and must be an int, not a bool
    (TypeError), with qmin <= qmax and smax >= 0 (WindowError)."""

    qmin: int
    qmax: int
    smax: int

    def __post_init__(self):
        for name in ("qmin", "qmax", "smax"):
            x = getattr(self, name)
            if type(x) is not int:
                raise TypeError(f"Window.{name} must be an int, not {type(x).__name__} {x!r}")
        if self.qmin > self.qmax or self.smax < 0:
            raise WindowError(f"empty window {self}")

    def intersect(self, other: "Window") -> "Window":
        return Window(
            max(self.qmin, other.qmin), min(self.qmax, other.qmax), min(self.smax, other.smax)
        )

    def contains(self, other: "Window") -> bool:
        return (
            self.qmin <= other.qmin and self.qmax >= other.qmax and self.smax >= other.smax
        )


def _skey_ok(s: tuple, nvars: int, smax: int) -> bool:
    return len(s) == nvars and all(e >= 0 for e in s) and sum(s) <= smax


def _mul_window(f: "QSSeries", g: "QSSeries") -> tuple:
    """(window, qfloor, qcut) of f * g, which keeps the terms up to q^qcut and
    s-degree window.smax; a zero factor gives the intersection, empty."""
    if f.is_zero or g.is_zero:
        w = f.window.intersect(g.window)
        return w, w.qmax, w.qmax
    if f.qfloor < f.window.qmin or g.qfloor < g.window.qmin:
        raise WindowError("multiplication operand is not fully known from its exact floor")
    qfloor = f.qfloor + g.qfloor
    qcut = min(f.window.qmax + g.qfloor, g.window.qmax + f.qfloor)
    return Window(qfloor, max(qfloor, qcut), min(f.window.smax, g.window.smax)), qfloor, qcut


def _product_terms(fd: Mapping, gd: Mapping, qcut: int, smax: int):
    """(key, x, y) for each pair of terms x of f and y of g that f * g keeps."""
    for (q1, s1), x in fd.items():
        for (q2, s2), y in gd.items():
            se = tuple(a + b for a, b in zip(s1, s2))
            if q1 + q2 <= qcut and sum(se) <= smax:
                yield (q1 + q2, se), x, y


def _sum_window(f: "QSSeries", g: "QSSeries") -> tuple:
    """(window, qfloor) of the sum f + g: an empty operand is dropped whole,
    otherwise the windows intersect and the lesser floor holds."""
    if f.is_zero:
        return g.window, g.qfloor
    if g.is_zero:
        return f.window, f.qfloor
    return f.window.intersect(g.window), min(f.qfloor, g.qfloor)


class QSSeries:
    """Series sum c_{N,beta} q^N s^beta with RatFn coefficients.

    ``window`` bounds what is stored; ``qfloor`` is a proven lower bound for
    the *exact* q-support, which is what justifies truncated products.  Keys
    are (q exponent, s exponent tuple); coefficients are nonzero RatFn.

    Window rules (`_mul_window`, `_sum_window`): f * g has the window
    [f.qfloor + g.qfloor, min(f.qmax + g.qfloor, g.qmax + f.qfloor)].  A sum of
    nonempty series keeps its coefficients on the intersection of the windows,
    with the lesser q-floor.  An empty operand is dropped whole, window included:
    a running sum that has emptied takes the next addend's window back.
    """

    __slots__ = ("nvars", "window", "qfloor", "data")

    def __init__(self, nvars: int, window: Window, qfloor: int, data: Mapping | None = None):
        self.nvars = nvars
        self.window = window
        self.qfloor = qfloor
        d = {}
        if data:
            lo = max(window.qmin, qfloor)
            for (qe, se), c in data.items():
                c = _as_ratfn(c)
                if c is NotImplemented:
                    raise TypeError("series coefficients must be exact rationals")
                if c.is_zero:
                    continue
                if qe < qfloor:
                    raise WindowError(f"key q^{qe} below declared qfloor {qfloor}")
                if not _skey_ok(se, nvars, window.smax):
                    raise WindowError(f"bad s-key {se}")
                if lo <= qe <= window.qmax:
                    d[(qe, se)] = c
        self.data = d

    # -- constructors ------------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int, window: Window) -> "QSSeries":
        return cls(nvars, window, window.qmax + 0, {})  # empty; qfloor irrelevant

    @classmethod
    def unit(cls, nvars: int, window: Window) -> "QSSeries":
        s0 = (0,) * nvars
        return cls(nvars, window, 0, {(0, s0): RF_ONE})

    @classmethod
    def monomial(cls, nvars: int, window: Window, qe: int, se: tuple, coeff=RF_ONE) -> "QSSeries":
        return cls(nvars, window, qe, {(qe, se): coeff})

    # -- protocol ---------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, QSSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.window == other.window
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.nvars, self.window, frozenset(self.data.items())))

    def eq_on(self, other: "QSSeries", window: Window | None = None) -> bool:
        """Equality of coefficients on a common (or given) window."""
        if self.nvars != other.nvars:
            return False
        w = self.window.intersect(other.window)
        if window is not None:
            if not self.window.contains(window) or not other.window.contains(window):
                raise WindowError("requested comparison window exceeds known data")
            w = window
        for key in self.data.keys() | other.data.keys():
            qe, se = key
            if w.qmin <= qe <= w.qmax and sum(se) <= w.smax:
                if self.data.get(key, RF_ZERO) != other.data.get(key, RF_ZERO):
                    return False
        return True

    def coeff(self, qe: int, se: tuple) -> RatFn:
        return self.data.get((qe, se), RF_ZERO)

    # -- arithmetic ----------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, QSSeries):
            if self.nvars != other.nvars:
                raise ValueError("mixed s-variable counts")
            w, qfloor = _sum_window(self, other)
            d = dict(self.data)
            for key, c in other.data.items():
                prev = d.get(key)
                d[key] = c if prev is None else prev + c
            return QSSeries(self.nvars, w, qfloor, d)
        return NotImplemented

    def __neg__(self):
        out = QSSeries(self.nvars, self.window, self.qfloor)
        out.data = {k: -c for k, c in self.data.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "QSSeries":
        c = _as_ratfn(c)
        if c.is_zero:
            return QSSeries(self.nvars, self.window, self.window.qmax, {})
        out = QSSeries(self.nvars, self.window, self.qfloor)
        out.data = {k: v * c for k, v in self.data.items()}
        return out

    def __mul__(self, other):
        if not isinstance(other, QSSeries):
            c = _as_ratfn(other)
            if c is NotImplemented:
                return NotImplemented
            return self.scale(c)
        if self.nvars != other.nvars:
            raise ValueError("mixed s-variable counts")
        w, qfloor, qcut = _mul_window(self, other)
        out: dict = {}
        for key, c1, c2 in _product_terms(self.data, other.data, qcut, w.smax):
            term = c1 * c2
            out[key] = out[key] + term if key in out else term
        return QSSeries(self.nvars, w, qfloor, out)

    __rmul__ = __mul__

    # -- calculus -------------------------------------------------------------------
    def q_log_derivative(self) -> "QSSeries":
        """q d/dq, exponent-wise."""
        out = QSSeries(self.nvars, self.window, self.qfloor)
        out.data = {
            k: c * k[0] for k, c in self.data.items() if k[0] != 0
        }
        return out

    def s_log_derivative(self, i: int) -> "QSSeries":
        """s_i d/ds_i for 1-based i."""
        out = QSSeries(self.nvars, self.window, self.qfloor)
        out.data = {k: c * k[1][i - 1] for k, c in self.data.items() if k[1][i - 1] != 0}
        return out

    def s_total_derivative(self) -> "QSSeries":
        """sum_i s_i d/ds_i (grades by total s-degree)."""
        out = QSSeries(self.nvars, self.window, self.qfloor)
        out.data = {k: c * sum(k[1]) for k, c in self.data.items() if sum(k[1]) != 0}
        return out

    # -- structure --------------------------------------------------------------------
    def restrict(self, window: Window) -> "QSSeries":
        return QSSeries(self.nvars, window, self.qfloor, self.data)

    def s_coefficients(self) -> dict:
        """Group by s-key: {s-key: {q-exponent: coefficient}}."""
        out: dict = {}
        for (qe, se), c in self.data.items():
            out.setdefault(se, {})[qe] = c
        return out

    def evaluate(self, t1, t2, q, svals: Sequence, t3=0):
        """Numeric evaluation of the truncated sum (evidence only, not exact)."""
        q = QQ(q)
        svals = [QQ(v) for v in svals]
        tot = QQ(0)
        for (qe, se), c in self.data.items():
            term = c.substitute_all(t1, t2, t3) * q**qe
            for v, e in zip(svals, se):
                term *= v**e
            tot += term
        return tot

    def __str__(self):
        if not self.data:
            return "0"
        parts = []
        for qe, se in sorted(self.data):
            c = self.data[(qe, se)]
            svars = "*".join(
                f"s{i+1}" if e == 1 else f"s{i+1}^{e}" for i, e in enumerate(se) if e
            )
            mon = "*".join(x for x in (f"q^{qe}" if qe else "", svars) if x) or "1"
            parts.append(f"({c})*{mon}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# log atoms
# ---------------------------------------------------------------------------


def _interval_skey(nvars: int, i: int, j: int) -> tuple:
    if (i, j) == (0, 1):  # sentinel: no s-variable factor at all
        return (0,) * nvars
    if not (1 <= i < j <= nvars + 1):
        raise ValueError(f"bad interval [{i},{j}] with {nvars} s-variables")
    return tuple(1 if i <= p + 1 <= j - 1 else 0 for p in range(nvars))


def log_atom_expand(nvars: int, window: Window, k: int, i: int, j: int) -> QSSeries:
    """Windowed expansion of log(1 - (-q)^k s_i ... s_{j-1}).

    = - sum_{d >= 1} (-1)^{kd} q^{kd} (s_i...s_{j-1})^d / d, truncated.
    The sentinel interval (i, j) = (0, 1) means a pure-q atom log(1 - (-q)^k)
    with no s factor; it requires k != 0.
    """
    base = _interval_skey(nvars, i, j)
    if (i, j) == (0, 1):
        if k == 0:
            raise ValueError("pure-q log atom needs a nonzero q-power")
        dmax = window.qmax // k if k > 0 else window.qmin // k
        dmax = max(dmax, 0)
    else:
        span = j - i
        dmax = window.smax // span
    if k > 0:
        qfloor = k
    elif k == 0:
        qfloor = 0
    else:
        qfloor = k * dmax if dmax >= 1 else 0
    data = {}
    for d in range(1, dmax + 1):
        qe = k * d
        if window.qmin <= qe <= window.qmax:
            se = tuple(e * d for e in base)
            sign = -1 if (k * d) % 2 else 1
            data[(qe, se)] = RatFn.const(QQ(-sign, d))
    return QSSeries(nvars, window, qfloor, data)


def theta_vacuum_logatoms(nvars: int, kmax: int) -> dict:
    """The scalar vacuum part of the boundary operator over the nvars + 1
    points, as atoms with tau factored out: {(k, i, j): k} over i < j and
    k = 1..kmax, for tau * sum_{i<j} sum_k k log(1 - (-q)^k s_i...s_{j-1})
    (``expand_logatoms``).  Its expansion is exact on any window with
    qmax <= kmax, since the dropped atoms only touch q-degrees above kmax.
    """
    return {
        (k, i, j): k
        for i in range(1, nvars + 2)
        for j in range(i + 1, nvars + 2)
        for k in range(1, kmax + 1)
    }


def expand_logatoms(nvars: int, weights: Mapping, window: Window) -> QSSeries:
    """tau * sum_a w_a log(1 - (-q)^k s_i...s_{j-1}) on ``window``, for the
    rational weights {a = (k, i, j): w_a}: the running sum of the scaled atom
    series (``log_atom_expand``), atoms in sorted order."""
    tau = RatFn(TAU)
    tot = QSSeries.zero(nvars, window)
    for (k, i, j), w in sorted(weights.items()):
        tot = tot + log_atom_expand(nvars, window, k, i, j).scale(tau * QQ(w))
    return tot


# ---------------------------------------------------------------------------
# exp and MacMahon powers
# ---------------------------------------------------------------------------


def series_exp(x: QSSeries) -> QSSeries:
    """exp of a series with strictly positive exact q-floor (so the sum is finite)."""
    if x.qfloor < 1:
        raise WindowError("series_exp needs a strictly positive q-floor")
    if x.qfloor < x.window.qmin:
        raise WindowError("series_exp operand is not fully known from its floor")
    w = Window(0, x.window.qmax, x.window.smax)
    out = QSSeries.unit(x.nvars, w)
    term = QSSeries.unit(x.nvars, w)
    kmax = x.window.qmax // x.qfloor
    for k in range(1, kmax + 1):
        term = (term * x).scale(QQ(1, k)).restrict(w)
        out = out + term
    return out.restrict(w)


def macmahon_power(c, window: Window, nvars: int = 0) -> QSSeries:
    """The MacMahon series at -q, raised to an exact rational-function power.

    exp(c * sum_{r>=1} -r log(1 - (-q)^r)) truncated to the window; the
    exponent c may be any RatFn.
    """
    c = _as_ratfn(c)
    w = Window(0, window.qmax, window.smax)
    s0 = (0,) * nvars
    inner: dict = {}
    for r in range(1, window.qmax + 1):
        for d in range(1, window.qmax // r + 1):
            qe = r * d
            sign = -1 if qe % 2 else 1
            key = (qe, s0)
            add = QQ(r, d) * sign
            inner[key] = inner.get(key, QQ(0)) + add
    base = QSSeries(nvars, w, 1, {k: RatFn.const(v) for k, v in inner.items()})
    return series_exp(base.scale(c)).restrict(window.intersect(w))


# ---------------------------------------------------------------------------
# linear algebra over a field (QQ or RatFn)
# ---------------------------------------------------------------------------

# Matrices are lists of rows over one field type F, QQ or RatFn.  The kernel
# uses only what both provide: F(0), F(1), bool(x), 1 / x, *, + and -.


class SingularMatrixError(ZeroDivisionError, ValueError):
    """Raised when a square linear system has no unique solution."""


def rref(rows: list, ncols: int) -> tuple:
    """Reduced row echelon form of ``rows`` on their first ``ncols`` columns.

    Columns past ``ncols`` (right-hand sides) are carried along but never
    pivoted on.  The pivot of each column is the first nonzero entry at or
    below the current row.  Returns ``(reduced, pivots, order)``: the reduced
    rows (the input is not modified), the pivot column of reduced row r for
    r < len(pivots), and order[r], the index in ``rows`` of the row that ends
    at position r.  Rows from len(pivots) on are zero on the first ``ncols``
    columns.
    """
    mat = [list(r) for r in rows]
    order = list(range(len(mat)))
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((t for t in range(r, len(mat)) if mat[t][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        order[r], order[piv] = order[piv], order[r]
        inv = 1 / mat[r][col]
        prow = mat[r] = [x * inv for x in mat[r]]
        for t, row in enumerate(mat):
            f = row[col]
            if t != r and f:
                # most pivot-row entries of the tall calibration systems are
                # zero; skipping them leaves every result the same
                mat[t] = [x - f * y if y else x for x, y in zip(row, prow)]
        pivots.append(col)
    return mat, pivots, order


def solve(mat: list, rhs: list) -> list:
    """X with mat . X = rhs for a square ``mat``; ``rhs[i]`` is row i of rhs.

    Raises SingularMatrixError when ``mat`` is singular.
    """
    n = len(mat)
    red, pivots, _ = rref([[*row, *b] for row, b in zip(mat, rhs)], n)
    if len(pivots) < n:
        raise SingularMatrixError("singular matrix")
    return [row[n:] for row in red]


def inverse(mat: list) -> list:
    """Inverse of a square matrix; raises SingularMatrixError if singular."""
    n = len(mat)
    if n == 0:
        return []
    F = type(mat[0][0])
    one, zero = F(1), F(0)
    return solve(mat, [[one if i == j else zero for j in range(n)] for i in range(n)])


def nullspace(rows: list) -> list | None:
    """One nonzero vector that every row annihilates, or None at full column rank."""
    if not rows:
        return None
    ncols = len(rows[0])
    red, pivots, _ = rref(rows, ncols)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    F = type(rows[0][0])
    vec = [F(0)] * ncols
    vec[free] = F(1)
    for r, col in enumerate(pivots):
        vec[col] = -red[r][free]
    return vec


def _common_denominator(fns) -> tuple:
    """(nums, d) with fns[k] == nums[k] / d and every nums[k] integral.

    d is the lcm of the denominators, times the integer that clears the
    coefficient denominators of the numerators.
    """
    d = ONE
    u = 1
    for f in fns:
        if f:
            if f.den != d and f.den != ONE:
                d = d * f.den.exact_div(_gcd(d, f.den))
            for v in f.num._d.values():
                if v.__class__ is not int:
                    u = _ilcm(u, v.denominator)
    # d / den is integral (Gauss's lemma: d and den are integer-primitive);
    # one cofactor per distinct denominator
    cofactors = {d: u}
    nums = []
    for f in fns:
        if not f:
            nums.append(ZERO)
            continue
        c = cofactors.get(f.den)
        if c is None:
            c = cofactors[f.den] = d.exact_div(f.den) * u
        nums.append(f.num if c.__class__ is int and c == 1 else f.num * c)
    return nums, (d if u == 1 else d * u)


def _dot(pairs) -> TPoly:
    """sum p * q over pairs of polynomials given as lists of terms, with no
    gcd and no coefficient normalisation.

    Every coefficient it receives must be stored as ``int``, never as an
    integral ``QQ``: the result is a trusted TPoly, and ``poly_gcd``'s modular
    certificate cannot read a ``Fraction`` coefficient.  Callers convert
    first (``_common_denominator`` clears denominators; ``_sandwich`` takes
    integer K only)."""
    acc: dict = {}
    for ps, qs in pairs:
        for (e1, e2, e3), u in ps:
            for (f1, f2, f3), v in qs:
                key = (e1 + f1, e2 + f2, e3 + f3)
                acc[key] = acc.get(key, 0) + u * v
    return TPoly({key: v for key, v in acc.items() if v}, _trusted=True)


def _numerators(items: list) -> tuple:
    """(nums, d): every coefficient of ``items`` over one common denominator d.
    A series gives {key: numerator terms}, a RatFn scalar its numerator terms."""
    flat = []
    for x in items:
        flat.extend(x.data.values() if isinstance(x, QSSeries) else (x,))
    nums, d = _common_denominator(flat)
    it = (list(p.items()) for p in nums)
    return [{k: next(it) for k in x.data} if isinstance(x, QSSeries) else next(it)
            for x in items], d


def _fold_numerators(nvars: int, window: Window, terms) -> QSSeries:
    """The left fold acc = acc + a * b from the zero series on ``window``, on
    numerators (`_numerators`) and with no gcd: terms are (a, an, b, bn), with
    a a series or else a scalar of numerator an.  With one denominator for every
    a and one for every b, a coefficient is zero exactly when its numerator is.
    Windows follow `_mul_window` and `_sum_window`; the data are TPoly."""
    acc = QSSeries.zero(nvars, window)
    data = acc.data
    for a, an, b, bn in terms:
        if isinstance(a, QSSeries):
            w, qfloor, qcut = _mul_window(a, b)
            prod: dict = {}
            for key, x, y in _product_terms(an, bn, qcut, w.smax):
                prod.setdefault(key, []).append((x, y))
            term = QSSeries(nvars, w, qfloor)
            term.data = {k: num for k, ps in prod.items() if (num := _dot(ps))}
        else:  # a scalar keeps b's window; zero takes the floor qmax, as in `scale`
            term = QSSeries(nvars, b.window, b.qfloor if an else b.window.qmax)
            term.data = {k: _dot([(an, t)]) for k, t in bn.items()} if an else {}
        w, qfloor = _sum_window(acc, term)
        lo, hi = max(w.qmin, qfloor), w.qmax
        for k, num in term.data.items():
            if num := data.pop(k, ZERO) + num:
                data[k] = num
        for k in list(data):
            if sum(k[1]) > w.smax:
                raise WindowError(f"bad s-key {k[1]}")
            if not lo <= k[0] <= hi:
                del data[k]
        acc.window, acc.qfloor = w, qfloor
    return acc


def _fold_products(nvars: int, window: Window, pairs) -> QSSeries:
    """`_fold_numerators` over ``pairs`` (a, b), with each side over one common
    denominator and each coefficient of the result normalised once."""
    pairs = [(a if isinstance(a, QSSeries) else _as_ratfn(a), b) for a, b in pairs]
    an, d = _numerators([a for a, _ in pairs])
    bn, e = _numerators([b for _, b in pairs])
    acc = _fold_numerators(nvars, window, ((a, x, b, y) for (a, b), x, y in zip(pairs, an, bn)))
    den = d * e
    acc.data = {k: RatFn(num, den) for k, num in acc.data.items()}
    return acc


def matmul(A: list, B: list) -> list:
    """The product A . B; zero entries of either factor are skipped.  Over
    RatFn it is ``_sandwich`` around the identity."""
    if not A:
        return []
    if A[0][0].__class__ is RatFn:
        return _sandwich(A, {(k, k): 1 for k in range(len(B))}, B)
    zero = type(A[0][0])(0)
    out = []
    for Ar in A:
        row = [zero] * len(B[0])
        for f, Bm in zip(Ar, B):
            if f:
                for c, b in enumerate(Bm):
                    if b:
                        row[c] = row[c] + f * b
        out.append(row)
    return out


def _sandwich(A: list, K: dict, B: list) -> list:
    """The product A . K . B of RatFn matrices A and B around a sparse integer
    matrix K = {(r, c): int}: the one dense RatFn product, fraction-free.

    No RatFn is multiplied or added inside it.  With row a of A over one
    integral common denominator d_a and column b of B over e_b
    (``_common_denominator``), entry (a, b) is
    sum_c (sum_r K[r, c] A'[a][r]) B'[c][b] / (d_a e_b), summed in
    Z[t1, t2, t3] with no gcd and normalised once, only where it is nonzero.
    Canonical forms are unique, so it equals the entry-by-entry RatFn sum.
    Raises TypeError for an entry of K that is not an ``int``."""
    for rc, k in K.items():
        if k.__class__ is not int:
            raise TypeError(f"K{list(rc)} = {k!r} is not an int")
    cols = []
    for col in zip(*B):
        nums, e = _common_denominator(col)
        cols.append(([(c, list(p.items())) for c, p in enumerate(nums) if p], e))
    out = []
    for Ar in A:
        nums, d = _common_denominator(Ar)
        acc: dict = {}  # c -> row a of A'.K, as {exponent: int}
        for (r, c), k in K.items():
            if nums[r]:
                p = acc.setdefault(c, {})
                for ex, v in nums[r].items():
                    p[ex] = p.get(ex, 0) + k * v
        ak = {c: terms for c, p in acc.items() if (terms := [t for t in p.items() if t[1]])}
        row = []
        for bterms, e in cols:
            num = _dot((ak[c], bt) for c, bt in bterms if c in ak)
            row.append(RatFn(num, d * e) if num else RF_ZERO)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# rational reconstruction in q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QRational:
    """shift + P/Q in q with RatFn coefficients; Q[0] == 1.

    Represents q^shift * (sum P[r] q^r) / (sum Q[r] q^r).
    """

    shift: int
    num: tuple
    den: tuple

    def expand(self, lo: int, hi: int) -> dict:
        """Coefficients of the Laurent expansion on [lo, hi] (dict q-exp -> RatFn)."""
        if self.den[0] != RF_ONE:
            raise ValueError("denominator not normalized")
        n = hi - self.shift
        if n < 0:
            return {}
        coeffs = []
        for r in range(n + 1):
            c = self.num[r] if r < len(self.num) else RF_ZERO
            for s in range(1, min(r, len(self.den) - 1) + 1):
                c = c - self.den[s] * coeffs[r - s]
            coeffs.append(c)
        return {
            r + self.shift: c
            for r, c in enumerate(coeffs)
            if not c.is_zero and lo <= r + self.shift <= hi
        }

    def degree_bound(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    def evaluate(self, t1, t2, q, t3=0):
        q = QQ(q)
        nv = sum(c.substitute_all(t1, t2, t3) * q**r for r, c in enumerate(self.num))
        dv = sum(c.substitute_all(t1, t2, t3) * q**r for r, c in enumerate(self.den))
        if dv == 0:
            raise ZeroDivisionError("denominator vanishes at the sample point")
        return q**self.shift * nv / dv


def rational_reconstruct_q(series: QSSeries, degbound: int) -> dict:
    """Reconstruct each s-coefficient of a series as an exact rational in q.

    Returns {s-key: QRational}.  The window must provide at least
    2*degbound + 2 consecutive known coefficients past the leading one; the
    result is certified by exact re-expansion against every known coefficient
    (so this is a left inverse of expansion on the window).
    """
    if degbound < 0:
        raise ValueError("negative degree bound")
    lo = max(series.window.qmin, series.qfloor)
    if series.qfloor < series.window.qmin:
        raise WindowError("series is not fully known from its exact floor")
    hi = series.window.qmax
    out: dict = {}
    for skey, qdict in sorted(series.s_coefficients().items()):
        v0 = min(qdict)
        avail = hi - v0 + 1
        if avail < 2 * degbound + 2:
            raise WindowError(
                f"window gives {avail} coefficients from the leading term; "
                f"need {2 * degbound + 2} for degree bound {degbound}"
            )
        a = [qdict.get(v0 + r, RF_ZERO) for r in range(avail)]
        d = degbound
        rows = []
        for r in range(d + 1, 2 * d + 2):
            rows.append([a[r - s] if 0 <= r - s < len(a) else RF_ZERO for s in range(d + 1)])
        sol = nullspace(rows)
        if sol is None:
            raise ReconstructError(
                f"no rational function of degree <= {degbound} matches s-key {skey}"
            )
        # normalize so the lowest nonzero denominator coefficient is at index 0
        first = next(i for i, c in enumerate(sol) if not c.is_zero)
        if first > 0:
            # denominator divisible by q^first would contradict a(0) != 0; reject
            raise ReconstructError(f"degenerate denominator for s-key {skey}")
        inv = sol[0].inverse()
        den = tuple(c * inv for c in sol)
        num = []
        for r in range(d + 1):
            c = RF_ZERO
            for s in range(0, min(r, d) + 1):
                if r - s < len(a):
                    c = c + den[s] * a[r - s]
            num.append(c)
        cand = QRational(v0, tuple(num), den)
        got = cand.expand(lo, hi)
        want = {qe: c for qe, c in qdict.items()}
        if got != want:
            raise ReconstructError(f"certificate failed for s-key {skey}")
        out[skey] = cand
    return out
