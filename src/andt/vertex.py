"""Edge characters, box configurations, and the cylinder vacuum computation.

This module handles the curve-counting side of the engine: integer Laurent
characters attached to the cross-section of a thickened exceptional curve,
the symplectic-weight multiplicity count for torus-fixed box configurations,
the minimal cylinder configurations (a hook cross-section repeated d times
along the fiber direction), their closed-form localization weights, and the
divisor-insertion vacuum series computed two independent ways.

Conventions for edge characters.  A cross-section partition ``rho`` sits in
the plane spanned by the twisted in-surface direction (z1, self-intersection
-2 along the chain) and the untwisted fiber direction (z2); the coordinate
along the curve is z3.  Row r of ``rho`` contributes boxes z1^r z2^c,
c < rho_{r+1}.  The interaction polynomial is

    F(z1, z2) = Q + Q~ / (z1 z2) - Q Q~ (1 - z1)(1 - z2) / (z1 z2),

with Q~ = Q(1/z1, 1/z2).  The minus sign on the third term is forced: it is
what the two-chart Cech computation of the cylinder tangent character yields,
and it is the unique sign for which the assembled edge character extracts the
row count of ``rho`` (the plus variant extracts -3*rows).  The edge character
itself is the exact quotient

    E = (z3^{-1} F(z1, z2) - F(z1 z3^{-a}, z2 z3^{-b})) / (1 - z3^{-1}),

a Laurent polynomial whenever the pole at z3 = 1 cancels; a residue signals
an implementation bug and raises ``NonCancellingPoleError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .exact import (
    QQ,
    QSSeries,
    RatFn,
    T1,
    T2,
    T3,
    TAU,
    Window,
    _interval_skey,
    expand_logatoms,
    theta_vacuum_logatoms,
)
from .partitions import INF, LegDiagram, Partition, SliceChain
from .surface import SurfaceGeometry, tangent_wL, tangent_wR


class NonCancellingPoleError(ArithmeticError):
    """The edge-character quotient left a residue at z3 = 1."""


class VacuumMismatchError(ArithmeticError):
    """The two vacuum-series routes disagree; carries the first bad key."""

    def __init__(self, key, enumerated, closed_form):
        self.key = key
        self.enumerated = enumerated
        self.closed_form = closed_form
        super().__init__(
            f"vacuum series mismatch at q^{key[0]} s^{key[1]}: "
            f"configuration sum {enumerated} != closed form {closed_form}"
        )


# ---------------------------------------------------------------------------
# integer Laurent polynomials in z1, z2, z3
# ---------------------------------------------------------------------------


class EdgePolynomial:
    """Sparse integer Laurent polynomial in z1, z2, z3.

    Keys are exponent triples (may be negative); values are nonzero ints.
    """

    __slots__ = ("data",)

    def __init__(self, data: Mapping[tuple, int] | None = None):
        d = {}
        if data:
            for key, c in data.items():
                if len(key) != 3:
                    raise ValueError(f"bad exponent key {key!r}")
                if c:
                    d[tuple(int(e) for e in key)] = int(c)
        self.data = d

    @classmethod
    def monomial(cls, e1: int, e2: int, e3: int, coeff: int = 1) -> "EdgePolynomial":
        return cls({(e1, e2, e3): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.data

    def coeff(self, e1: int, e2: int, e3: int) -> int:
        return self.data.get((e1, e2, e3), 0)

    def __eq__(self, other):
        if isinstance(other, EdgePolynomial):
            return self.data == other.data
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.data.items()))

    def __add__(self, other: "EdgePolynomial") -> "EdgePolynomial":
        d = dict(self.data)
        for key, c in other.data.items():
            v = d.get(key, 0) + c
            if v:
                d[key] = v
            else:
                d.pop(key, None)
        out = EdgePolynomial()
        out.data = d
        return out

    def __neg__(self) -> "EdgePolynomial":
        out = EdgePolynomial()
        out.data = {k: -c for k, c in self.data.items()}
        return out

    def __sub__(self, other: "EdgePolynomial") -> "EdgePolynomial":
        return self + (-other)

    def __mul__(self, other: "EdgePolynomial") -> "EdgePolynomial":
        d = {}
        for (a1, a2, a3), ca in self.data.items():
            for (b1, b2, b3), cb in other.data.items():
                key = (a1 + b1, a2 + b2, a3 + b3)
                v = d.get(key, 0) + ca * cb
                if v:
                    d[key] = v
                else:
                    del d[key]
        out = EdgePolynomial()
        out.data = d
        return out

    def shift(self, e1: int, e2: int, e3: int) -> "EdgePolynomial":
        """Multiply by the monomial z1^e1 z2^e2 z3^e3."""
        out = EdgePolynomial()
        out.data = {(a + e1, b + e2, c + e3): v for (a, b, c), v in self.data.items()}
        return out

    def bar(self) -> "EdgePolynomial":
        """Substitute z1 -> 1/z1, z2 -> 1/z2 (z3 untouched)."""
        out = EdgePolynomial()
        out.data = {(-a, -b, c): v for (a, b, c), v in self.data.items()}
        return out

    def twist(self, a: int, b: int) -> "EdgePolynomial":
        """Substitute z1 -> z1 z3^{-a}, z2 -> z2 z3^{-b}."""
        out = EdgePolynomial()
        out.data = {
            (e1, e2, e3 - a * e1 - b * e2): v for (e1, e2, e3), v in self.data.items()
        }
        return out

    def constant_term_z3_eq_inv_z1(self) -> int:
        """Constant term after substituting z3 = z1^{-1}."""
        return sum(
            v for (e1, e2, e3), v in self.data.items() if e2 == 0 and e1 == e3
        )

    def __repr__(self):
        if not self.data:
            return "EdgePolynomial(0)"
        bits = []
        for key in sorted(self.data):
            bits.append(f"{self.data[key]}*z^{key}")
        return "EdgePolynomial(" + " + ".join(bits) + ")"


def diagram_character(rho) -> EdgePolynomial:
    """Q_rho: one monomial z1^row z2^col per box of the cross-section."""
    rho = rho if isinstance(rho, Partition) else Partition(rho)
    data = {}
    for r, part in enumerate(rho):
        for c in range(part):
            data[(r, c, 0)] = 1
    return EdgePolynomial(data)


def edge_factor_polynomial(rho) -> EdgePolynomial:
    """F_rho = Q + Q~/(z1 z2) - Q Q~ (1-z1)(1-z2)/(z1 z2).

    Satisfies F(1/z1, 1/z2) = z1 z2 F(z1, z2).  See the module docstring for
    why the interaction term carries a minus sign.
    """
    q = diagram_character(rho)
    qb = q.bar()
    one_minus = EdgePolynomial({(0, 0, 0): 1, (1, 0, 0): -1}) * EdgePolynomial(
        {(0, 0, 0): 1, (0, 1, 0): -1}
    )
    return q + qb.shift(-1, -1, 0) - (q * qb * one_minus).shift(-1, -1, 0)


def _divide_one_minus_z3inv(num: EdgePolynomial) -> EdgePolynomial:
    """Exact quotient num / (1 - z3^{-1}); raises if a residue remains."""
    groups: dict[tuple, dict] = {}
    for (a, b, c), v in num.data.items():
        groups.setdefault((a, b), {})[c] = v
    out = {}
    for (a, b), profile in groups.items():
        lo, hi = min(profile), max(profile)
        run = 0
        for c in range(hi, lo - 1, -1):
            run += profile.get(c, 0)
            if run:
                out[(a, b, c)] = run
        if run:
            raise NonCancellingPoleError(
                f"residue {run} at z1^{a} z2^{b} when dividing by (1 - 1/z3)"
            )
    return EdgePolynomial(out)


def edge_character(rho, a: int = -2, b: int = 0) -> EdgePolynomial:
    """The Laurent-polynomial edge character for cross-section ``rho``.

    (a, b) are the normal-bundle twists of the two transverse directions;
    the chain curves have (a, b) = (-2, 0).
    """
    f = edge_factor_polynomial(rho)
    num = f.shift(0, 0, -1) - f.twist(a, b)
    return _divide_one_minus_z3inv(num)


def edge_mult(rho) -> int:
    """Multiplicity of t1 + t2 carried by an edge with cross-section ``rho``.

    Substitutes z3 = z1^{-1} into the edge character and takes the constant
    term; equals the number of parts of ``rho``.
    """
    return edge_character(rho).constant_term_z3_eq_inv_z1()


# ---------------------------------------------------------------------------
# box configurations and the multiplicity count
# ---------------------------------------------------------------------------


def _slice_at(chain: SliceChain, level: int) -> LegDiagram:
    if level < len(chain.slices):
        return chain.slices[level]
    return chain.slices[-1]


class BoxConfig:
    """Torus-fixed box data: one stabilizing slice chain per chart point.

    At chart point k the slice diagrams are drawn with rows running toward
    point k+1 and the tail direction running toward point k-1, so an infinite
    row is a leg along the edge to the right and a positive tail is a leg
    along the edge to the left.  Adjacent chains must agree on the shared
    edge cross-section; the first/last points cannot have legs pointing off
    the chain, and every chain must stabilize to the empty diagram (compact
    support in the fiber direction).

    ``edges[k]`` is the derived cross-section partition of the k-th edge
    (per-level leg widths) and ``beta[k]`` its box count.
    """

    __slots__ = ("chains", "edges", "beta", "chi")

    def __init__(self, chains: Sequence, chi: int | None = None):
        chains = tuple(
            c if isinstance(c, SliceChain) else SliceChain(c) for c in chains
        )
        if not chains:
            raise ValueError("need at least one chart point")
        for k, chain in enumerate(chains):
            if not chain.stable.is_empty:
                raise ValueError(f"chain at point {k + 1} does not end empty")
            for sl in chain.slices:
                if sl.tail is INF:
                    raise ValueError("slice with unbounded leg width")
        for sl in chains[0].slices:
            if sl.tail > 0:
                raise ValueError("leg pointing off the left end of the chain")
        for sl in chains[-1].slices:
            if sl.infinite_row_count() > 0:
                raise ValueError("leg pointing off the right end of the chain")
        edges = []
        for k in range(len(chains) - 1):
            left, right = chains[k], chains[k + 1]
            depth = max(len(left.slices), len(right.slices))
            widths = []
            for level in range(depth):
                w_left = _slice_at(left, level).infinite_row_count()
                w_right = _slice_at(right, level).tail
                if w_left != w_right:
                    raise ValueError(
                        f"edge {k + 1} cross-section mismatch at level {level}: "
                        f"{w_left} vs {w_right}"
                    )
                widths.append(w_left)
            while widths and widths[-1] == 0:
                widths.pop()
            edges.append(Partition(widths))
        self.chains = chains
        self.edges = tuple(edges)
        self.beta = tuple(e.size for e in self.edges)
        self.chi = chi

    @property
    def npoints(self) -> int:
        return len(self.chains)

    def mult(self):
        """Total symplectic-weight multiplicity: sum of chain fiber ranks."""
        total = QQ(0)
        for chain in self.chains:
            total += chain.rank_total()
        return total

    def __repr__(self):
        return f"BoxConfig(beta={self.beta}, chi={self.chi})"


def config_mult(config):
    """Multiplicity of t1 + t2 in the localization weight of a configuration.

    Accepts a BoxConfig, a single SliceChain, or an iterable of SliceChains;
    returns the (half-integer) sum of fiber-direction ranks.
    """
    if isinstance(config, BoxConfig):
        return config.mult()
    if isinstance(config, SliceChain):
        return config.rank_total()
    total = QQ(0)
    for chain in config:
        total += chain.rank_total()
    return total


# ---------------------------------------------------------------------------
# minimal configurations: hook cross-section, d fiber levels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalConfig:
    """Cylinder of depth d over the chain segment [i, j] with a hook end.

    The cross-section at every fiber level is a width-1 strip running the
    length of the segment, with ``a`` extra boxes stacked transversally at
    the left end and ``b`` extra boxes stacked transversally at the right
    end; there are exactly d nonempty fiber levels.
    """

    d: int
    a: int
    b: int
    i: int
    j: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need d >= 1")
        if self.a < 0 or self.b < 0:
            raise ValueError("need a, b >= 0")
        if not (1 <= self.i < self.j):
            raise ValueError("need 1 <= i < j")

    @property
    def chi(self) -> int:
        return self.d * (1 + self.a + self.b)

    def beta(self, geom: SurfaceGeometry) -> tuple:
        root = geom.root_vector(self.i, self.j)
        return tuple(self.d * x for x in root)

    def box_config(self, geom: SurfaceGeometry) -> BoxConfig:
        if self.j > geom.npoints:
            raise ValueError(f"interval ({self.i},{self.j}) exceeds the chain")
        empty = LegDiagram()
        # left end: leg toward the chain plus a column of `a` extra boxes
        left = LegDiagram((INF,) + (1,) * self.a)
        # interior: width-1 legs both ways
        mid = LegDiagram((INF,), tail=1)
        # right end: leg back along the chain plus a row of `b` extra boxes
        right = LegDiagram((1 + self.b,), tail=1)
        chains = []
        for k in range(1, geom.npoints + 1):
            if k == self.i:
                diagram = left
            elif k == self.j:
                diagram = right
            elif self.i < k < self.j:
                diagram = mid
            else:
                diagram = None
            if diagram is None:
                chains.append(SliceChain([empty]))
            else:
                chains.append(SliceChain([diagram] * self.d + [empty]))
        return BoxConfig(chains, chi=self.chi)


def chi_minimal(cfg: MinimalConfig) -> int:
    """Holomorphic Euler characteristic d(1 + a + b) of a minimal config."""
    return cfg.chi


@lru_cache(maxsize=None)
def _segment_weight(n: int, d: int, i: int, j: int) -> RatFn:
    """Segment factor of the depth-d cylinder over [i, j] on the chain of
    length n: the edge factor to the power j - i, one factor per interior
    vertex i < k < j, and the global sign (-1)^{1 + (j-i)(1+d)}."""
    t3 = RatFn(T3)
    tau = RatFn(TAU)
    edge = tau / (-t3)
    for r in range(1, d):
        edge = edge * RatFn(T3 * QQ(-r), T3 * QQ(-(r + 1)))

    weight = edge ** (j - i)
    for k in range(i + 1, j):
        wr, wl = RatFn(tangent_wR(n, k)), RatFn(tangent_wL(n, k))
        mid = RatFn.const((-1) ** d) * (t3 * QQ(d)) / tau
        for r in range(d):
            up, down = QQ(r), QQ(r + 1)
            mid = mid * (wr + t3 * up) ** 2 / (wr - t3 * down) ** 2
            mid = mid * (wl + t3 * up) ** 2 / (wl - t3 * down) ** 2
            mid = mid * (wr * 2 - t3 * down) * (wl * 2 - t3 * down)
            mid = mid / ((wr * 2 + t3 * up) * (wl * 2 + t3 * up))
        weight = weight * mid
    sign = -1 if ((j - i) * (1 + d)) % 2 == 0 else 1
    return weight * QQ(sign)


@lru_cache(maxsize=None)
def _end_weight(npoints: int, d: int, extra: int, var: int) -> RatFn:
    """End factor of ``extra`` boxes stacked at one end of a depth-d cylinder:
    the product over fiber levels r < d and stack heights 1 <= s <= extra of
    ((r - d) t3 - s w) / (r t3 + s w), where w = npoints * t1 (var = 0, the
    left end) or npoints * t2 (var = 1, the right end).  Built from the
    stack one box lower."""
    if extra == 0:
        return RatFn.const(1)
    t3 = RatFn(T3)
    sw = RatFn((T1, T2)[var]) * QQ(npoints * extra)
    weight = _end_weight(npoints, d, extra - 1, var)
    for r in range(d):
        weight = weight * (t3 * QQ(r - d) - sw) / (t3 * QQ(r) + sw)
    return weight


def weight_minimal(cfg: MinimalConfig, geom: SurfaceGeometry) -> RatFn:
    """Exact localization weight of a minimal configuration.

    The weight is segment x left end x right end, and each factor is
    computed once per set of indices it depends on:

    - the segment factor depends on (n, d, i, j) only: one edge factor per
      chain edge in [i, j], one factor per interior vertex, and the global
      sign (-1)^{1 + (j-i)(1+d)} that calibrates the orientation
      bookkeeping (the per-(a, b) fiber-limit test pins that sign once and
      everything else is a consequence);
    - the left-end stack depends on (n + 1, d, a), in the weight (n+1) t1;
    - the right-end stack depends on (n + 1, d, b), in the weight (n+1) t2.

    The result carries exactly one factor of t1 + t2.
    """
    d, a, b, i, j = cfg.d, cfg.a, cfg.b, cfg.i, cfg.j
    if j > geom.npoints:
        raise ValueError(f"interval ({i},{j}) exceeds the chain")
    return (
        _segment_weight(geom.n, d, i, j)
        * _end_weight(geom.npoints, d, a, 0)
        * _end_weight(geom.npoints, d, b, 1)
    )


@lru_cache(maxsize=None)
def _segment_limit(n: int, d: int, i: int, j: int) -> RatFn:
    """Fiber limit of t3 times the segment factor (its pole in t3 is simple)."""
    return (RatFn(T3) * _segment_weight(n, d, i, j)).limit_var_zero(2)


@lru_cache(maxsize=None)
def _end_limit(npoints: int, d: int, extra: int, var: int) -> RatFn:
    """Fiber limit of the end factor (each level tends to -s w / s w = -1)."""
    return _end_weight(npoints, d, extra, var).limit_var_zero(2)


def insertion_limit(cfg: MinimalConfig, geom: SurfaceGeometry) -> RatFn:
    """Exact fiber-direction limit of the weight times its divisor insertion.

    The insertion contributes d * t3 * (j - i), and the limit is t3 -> 0.
    The segment factor has a simple pole in t3, so t3 times it is regular
    there; both end factors are regular there as they stand.  The limit of
    a product of factors with finite limits is the product of the limits,
    so the result is d (j - i) * lim(t3 segment) * lim(left) * lim(right),
    each limit cached on its factor's key.  A factor with a pole at t3 = 0
    raises ZeroDivisionError instead of giving a value.  The result is
    proportional to t1 + t2.
    """
    d, a, b, i, j = cfg.d, cfg.a, cfg.b, cfg.i, cfg.j
    if j > geom.npoints:
        raise ValueError(f"interval ({i},{j}) exceeds the chain")
    return (
        _segment_limit(geom.n, d, i, j)
        * _end_limit(geom.npoints, d, a, 0)
        * _end_limit(geom.npoints, d, b, 1)
        * QQ(d * (j - i))
    )


# ---------------------------------------------------------------------------
# vacuum series and the rigidification check
# ---------------------------------------------------------------------------


def vacuum_series(geom: SurfaceGeometry, i: int, j: int, window: Window) -> QSSeries:
    """Divisor-insertion vacuum expectation supported on multiples of one root.

    Route (A) enumerates minimal configurations with chi <= qmax and sums
    their insertion limits; route (B) expands the closed form
    -(t1+t2)(j-i)(-q)^d / (1-(-q)^d)^2 per depth d.  The two must agree
    coefficient-by-coefficient; a discrepancy raises VacuumMismatchError.
    """
    if not (1 <= i < j <= geom.npoints):
        raise ValueError(f"bad interval ({i},{j})")
    n = geom.npoints - 1
    enumerated: dict = {}
    closed: dict = {}
    tau = RatFn(TAU)
    base = _interval_skey(n, i, j)
    for d in range(1, max(window.qmax, 0) + 1):
        skey = tuple(d * e for e in base)
        if sum(skey) > window.smax:
            continue
        for a in range(window.qmax // d):
            if d * (1 + a) > window.qmax:
                break
            for b in range(window.qmax // d):
                chi = d * (1 + a + b)
                if chi > window.qmax:
                    break
                term = insertion_limit(MinimalConfig(d, a, b, i, j), geom)
                key = (chi, skey)
                enumerated[key] = enumerated.get(key, RatFn.const(0)) + term
        for k in range(1, window.qmax // d + 1):
            sign = 1 if (d * k) % 2 == 0 else -1
            coeff = tau * QQ(-sign * k * (j - i))
            key = (d * k, skey)
            closed[key] = closed.get(key, RatFn.const(0)) + coeff
    series_a = QSSeries(n, window, 1, enumerated)
    series_b = QSSeries(n, window, 1, closed)
    for key in sorted(series_a.data.keys() | series_b.data.keys()):
        ca = series_a.data.get(key, RatFn.const(0))
        cb = series_b.data.get(key, RatFn.const(0))
        if ca != cb:
            raise VacuumMismatchError(key, ca, cb)
    return series_a


def theta_vacuum_series(geom: SurfaceGeometry, window: Window) -> QSSeries:
    """(t1+t2) * sum over segments of sum_{k>=1} k log(1-(-q)^k s_i...s_{j-1})."""
    n = geom.npoints - 1
    return expand_logatoms(n, theta_vacuum_logatoms(n, window.qmax), window)


def rigidify_check(geom: SurfaceGeometry, window: Window) -> dict:
    """Compare the rigidified vacuum against the enumerated one.

    The s-degree Euler operator applied to the theta-vacuum must reproduce
    the sum of the per-segment vacuum series.  Returns a report dict; a
    coefficient mismatch is reported with its offending key rather than
    raised.
    """
    n = geom.npoints - 1
    lhs = theta_vacuum_series(geom, window).s_total_derivative()
    rhs = QSSeries.zero(n, window)
    for i in range(1, geom.npoints + 1):
        for j in range(i + 1, geom.npoints + 1):
            rhs = rhs + vacuum_series(geom, i, j, window)
    keys = sorted(lhs.data.keys() | rhs.data.keys())
    first_bad = None
    for key in keys:
        if lhs.data.get(key) != rhs.data.get(key):
            first_bad = key
            break
    report = {
        "n": n,
        "window": (window.qmin, window.qmax, window.smax),
        "keys_checked": len(keys),
        "ok": first_bad is None,
    }
    if first_bad is not None:
        qe, se = first_bad
        report["first_mismatch"] = {
            "q": qe,
            "s": list(se),
            "lhs": str(lhs.data.get(first_bad, RatFn.const(0))),
            "rhs": str(rhs.data.get(first_bad, RatFn.const(0))),
        }
    return report
