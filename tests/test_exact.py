"""Kernel tests: ring axioms, canonical forms, windows, reconstruction.

Oracle values are frozen at the top of the file and were computed
independently of the implementation (by hand or from standard tables).
"""
import math

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import andt.exact as exact_mod
from andt.surface import SurfaceGeometry
from andt.exact import (
    QQ,
    ExactDivisionError,
    WindowError,
    ReconstructError,
    TPoly,
    RatFn,
    Window,
    QSSeries,
    QRational,
    SingularMatrixError,
    T1,
    T2,
    T3,
    TAU,
    ONE,
    RF_ONE,
    RF_ZERO,
    poly_gcd,
    log_atom_expand,
    expand_logatoms,
    macmahon_power,
    series_exp,
    rational_reconstruct_q,
    rref,
    solve,
    inverse,
    nullspace,
    matmul,
)

# Frozen oracle: numbers of plane partitions of 0..6 (standard table, not
# computed by this package).
PLANE_PARTITIONS = [1, 1, 3, 6, 13, 24, 48]


# -- strategies ---------------------------------------------------------------

exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
coeffs = st.integers(-4, 4)


@st.composite
def tpolys(draw, max_terms=4, allow_zero=True):
    n = draw(st.integers(0 if allow_zero else 1, max_terms))
    d = {}
    for _ in range(n):
        d[draw(exps)] = d.get(draw(exps), 0) + draw(coeffs)
    p = TPoly({k: QQ(v) for k, v in d.items() if v})
    if not allow_zero and p.is_zero:
        return p + ONE
    return p


@st.composite
def ratfns(draw):
    num = draw(tpolys())
    den = draw(tpolys(allow_zero=False))
    return RatFn(num, den)


qcoeffs = st.builds(QQ, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def qpolys(draw, max_terms=4):
    """Nonzero polynomials with rational, often non-integral, coefficients."""
    d = draw(st.dictionaries(exps, qcoeffs.filter(bool), min_size=1, max_size=max_terms))
    return TPoly(d)


def stored_form(p):
    """Every coefficient is an int, or a QQ that is not integral."""
    return all(
        type(c) is int or (isinstance(c, QQ) and c.denominator != 1) for _, c in p.items()
    )


# -- TPoly --------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(tpolys(), tpolys(), tpolys())
def test_tpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + TPoly() == a
    assert a * ONE == a
    assert a - a == TPoly()


@settings(max_examples=40, deadline=None)
@given(tpolys(), tpolys(allow_zero=False))
def test_exact_division_roundtrip(a, b):
    assert (a * b).exact_div(b) == a


def test_exact_division_failure():
    with pytest.raises(ExactDivisionError):
        (T1 + T2 + 1).exact_div(T1 + 1)
    with pytest.raises(ExactDivisionError):
        T1.exact_div(T2)
    with pytest.raises(ExactDivisionError):
        (T1 * T2 + T3**2).exact_div(T1 + T3)
    with pytest.raises(ExactDivisionError):
        (T1**2 + T2**2).exact_div(T1 + T2)
    with pytest.raises(ExactDivisionError):
        ((T1 + T2) * (T2 - T3) + 1).exact_div(T2 - T3)
    assert not (T1 + T3).divides(T1 * T2 + T3**2)


def test_no_zero_coefficients_stored():
    p = T1 - T1 + T2 * 0
    assert p.is_zero and len(p) == 0
    q = TPoly({(1, 0, 0): QQ(1), (0, 1, 0): QQ(0)})
    assert len(q) == 1


def test_graded_lex_leading():
    p = T1 * T2 + T2**3 + T1
    # graded lex t1 > t2 > t3: t2^3 (degree 3) beats t1*t2 (degree 2)
    assert p.leading()[0] == (0, 3, 0)
    assert (T1 * T2 + T2 * T3).leading()[0] == (1, 1, 0)


@settings(max_examples=40, deadline=None)
@given(qpolys(), qpolys())
def test_exact_division_roundtrip_fractional(a, b):
    q = (a * b).exact_div(b)
    assert q == a
    assert all(c != 0 for _, c in q.items())
    assert stored_form(a * b) and stored_form(q)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(exps, coeffs.filter(bool), max_size=4),
       st.dictionaries(exps, coeffs.filter(bool), min_size=1, max_size=4))
def test_coefficient_type_invariance(dn, dd):
    p_int = TPoly(dn)
    p_qq = TPoly({k: QQ(v) for k, v in dn.items()})
    assert p_int == p_qq and hash(p_int) == hash(p_qq)
    assert dict(p_int.items()) == dict(p_qq.items())
    assert stored_form(p_int) and stored_form(p_qq)
    r_int = RatFn(p_int, TPoly(dd))
    r_qq = RatFn(p_qq, TPoly({k: QQ(v) for k, v in dd.items()}))
    assert r_int == r_qq and hash(r_int) == hash(r_qq)
    assert dict(r_int.num.items()) == dict(r_qq.num.items())
    assert dict(r_int.den.items()) == dict(r_qq.den.items())
    assert stored_form(r_qq.num) and stored_form(r_qq.den)


def test_integral_coefficients_stored_as_int():
    (_, c), = TPoly.const(QQ(6, 2)).items()
    assert type(c) is int and c == 3
    p = (T1 * QQ(2)) * QQ(1, 2)
    assert p == T1 and all(type(c) is int for _, c in p.items())
    h = (T1 * QQ(1, 2) + T2 * QQ(3, 2)) * 2
    assert all(type(c) is int for _, c in h.items())
    assert all(type(c) is int for _, c in RatFn(T1 * QQ(4, 3), T2 * QQ(2, 3)).num.items())


def test_content_and_primitive():
    p = T1 * QQ(-2, 3) + T2 * QQ(4, 9)
    assert p.content() == QQ(2, 9)
    assert p.primitive() == T1 * 3 - T2 * 2
    assert TPoly().content() == 0


def test_const_value_is_rational():
    v = RatFn.const(3).const_value()
    assert isinstance(v, QQ) and 1 / v == QQ(1, 3)
    assert RF_ZERO.const_value() == 0 and isinstance(RF_ZERO.const_value(), QQ)
    assert RatFn.const(QQ(1, 2)).const_value() == QQ(1, 2)
    assert not RatFn(T1).is_const and RatFn(TPoly.const(QQ(5, 2))).is_const


@settings(max_examples=40, deadline=None)
@given(tpolys(allow_zero=False), tpolys(allow_zero=False), tpolys(allow_zero=False))
def test_poly_gcd_divides(a, b, c):
    g = poly_gcd(a * c, b * c)
    assert c.divides(g)
    assert g.divides(a * c) and g.divides(b * c)


_ST1, _ST2, _ST3 = sympy.symbols("t1 t2 t3")
linear_forms = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)


def _linear(f):
    return T1 * f[0] + T2 * f[1] + T3 * f[2]


def _sympy_gcd_oracle(a: TPoly, b: TPoly) -> TPoly:
    """sympy's gcd over ZZ, made primitive with a positive graded-lex leading term."""
    gens = (_ST1, _ST2, _ST3)
    pa = sympy.Poly.from_dict({e: int(c) for e, c in a.items()}, *gens, domain="ZZ")
    pb = sympy.Poly.from_dict({e: int(c) for e, c in b.items()}, *gens, domain="ZZ")
    _, g = sympy.gcd(pa, pb).primitive()
    terms = g.as_dict()
    lead = max(terms, key=lambda e: (sum(e), e))
    sign = -1 if terms[lead] < 0 else 1
    return TPoly({e: sign * int(c) for e, c in terms.items()})


@settings(max_examples=40, deadline=None)
@given(
    st.lists(linear_forms, max_size=3),
    st.lists(linear_forms, max_size=2),
    st.lists(linear_forms, max_size=2),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_poly_gcd_matches_sympy_on_linear_products(common, only_a, only_b, ca, cb):
    a, b = TPoly.const(ca), TPoly.const(cb)
    for f in common:
        a, b = a * _linear(f), b * _linear(f)
    for f in only_a:
        a = a * _linear(f)
    for f in only_b:
        b = b * _linear(f)
    assert poly_gcd(a, b) == _sympy_gcd_oracle(a, b)


def _count_gcd_paths(monkeypatch):
    """Count trial divisions and sympy fallbacks inside poly_gcd."""
    calls = {"divides": 0, "sympy": 0}
    divides, from_sympy = TPoly.divides, exact_mod._from_sympy

    def counting_divides(self, other):
        calls["divides"] += 1
        return divides(self, other)

    def counting_from_sympy(sp):
        calls["sympy"] += 1
        return from_sympy(sp)

    monkeypatch.setattr(TPoly, "divides", counting_divides)
    monkeypatch.setattr(exact_mod, "_from_sympy", counting_from_sympy)
    return calls


def test_poly_gcd_when_evaluation_filter_passes_but_division_fails(monkeypatch):
    # a(p) | b(p) at the filter's point, yet a does not divide b: the filter
    # must hand over to trial division, which fails, then to sympy.
    x, _, z = exact_mod._EVAL_POINT
    a = T1 + T2
    ap = exact_mod._eval_at_point(a)
    b = T1 * T3 - (x * z) % ap
    assert exact_mod._eval_at_point(b) % ap == 0 and len(b) == 2
    calls = _count_gcd_paths(monkeypatch)
    poly_gcd.cache_clear()
    assert poly_gcd(a, b) == ONE
    assert calls == {"divides": 1, "sympy": 1}
    # the filter alone rejects a pair whose values do not divide
    poly_gcd.cache_clear()
    assert poly_gcd(a, b + 1) == ONE
    assert calls == {"divides": 1, "sympy": 2}
    poly_gcd.cache_clear()


def test_poly_gcd_finds_a_common_factor_through_the_evaluation_point(monkeypatch):
    # L vanishes at the filter's point, so both products do and the filter
    # is skipped; trial division fails, and the common factor L must come
    # back from sympy.
    x, y, _ = exact_mod._EVAL_POINT
    L = y * T1 - x * T2
    a, b = L * (T1 + T3), L * (T2 + T3)
    assert exact_mod._eval_at_point(L) == 0
    calls = _count_gcd_paths(monkeypatch)
    poly_gcd.cache_clear()
    assert poly_gcd(a, b) == L
    assert calls["sympy"] == 1
    poly_gcd.cache_clear()


def _stripped(p: TPoly) -> TPoly:
    """p without its monomial content, made integer-primitive: what poly_gcd
    hands to its sympy step."""
    return p.shift_monomial(tuple(-x for x in p.monomial_content())).primitive()


small_binary = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any)
large_binary = st.tuples(*[st.integers(-10**12, 10**12)] * 2).filter(any)
binary_factors = st.lists(
    st.tuples(st.one_of(small_binary, large_binary), st.integers(1, 3)), max_size=3)


def _binary_product(factors, c=1):
    p = TPoly.const(c)
    for (x, y), e in factors:
        p = p * (x * T1 + y * T2) ** e
    return p


@settings(max_examples=60, deadline=None)
@given(binary_factors, binary_factors, binary_factors, st.integers(1, 10**6),
       st.integers(1, 10**6))
def test_dense_binary_gcd_matches_sparse_sympy_gcd(common, only_a, only_b, ca, cb):
    # products of linear binary forms, with shared, repeated (power up to 3,
    # and the same form drawn twice) and large-coefficient factors
    shared = _binary_product(common)
    a, b = shared * _binary_product(only_a, ca), shared * _binary_product(only_b, cb)
    a0, b0 = _stripped(a), _stripped(b)
    assert exact_mod._binary_form(a0) is not None and exact_mod._binary_form(b0) is not None
    assert exact_mod._sympy_gcd(a0, b0).primitive() == _sympy_gcd_oracle(a0, b0)
    assert poly_gcd(a, b) == _sympy_gcd_oracle(a, b)


@pytest.mark.parametrize(
    "a, b, g, ring",
    [
        # binary forms with a shared factor: the dense route
        ((T1 + T2) * (T1 + 2 * T2), (T1 + T2) * (T1 - 3 * T2), T1 + T2, False),
        # a repeated shared factor, and monomial content on one side
        ((T1 + T2) ** 2 * (T1 + 5 * T2), T2 * (T1 + T2) ** 2 * (T1 - T2), (T1 + T2) ** 2,
         False),
        # t3 appears: the sparse trivariate ring
        ((T1 + T2) * (T1 + T3), (T1 + T2) * (T2 + T3), T1 + T2, True),
        # in t1, t2 alone but not homogeneous: the ring as well
        ((T1 + T2) * (T1 + 1), (T1 + T2) * (T2 + 1), T1 + T2, True),
    ],
)
def test_poly_gcd_sympy_step_routes_binary_forms_to_the_dense_gcd(monkeypatch, a, b, g, ring):
    calls = _count_gcd_paths(monkeypatch)
    to_sympy = exact_mod._to_sympy
    ring_calls = []
    monkeypatch.setattr(exact_mod, "_to_sympy",
                        lambda p: ring_calls.append(p) or to_sympy(p))
    poly_gcd.cache_clear()
    got = poly_gcd(a, b)
    poly_gcd.cache_clear()
    assert got == _sympy_gcd_oracle(a, b) == g
    # one fallback, ending in exactly one _from_sympy on either route
    assert calls["sympy"] == 1
    assert len(ring_calls) == (2 if ring else 0)


# Linear forms through alpha = _EVAL_POINT, where the evaluation filter is
# skipped: integer combinations of two forms that vanish there.
_THROUGH_ALPHA = (
    (exact_mod._EVAL_POINT[1], -exact_mod._EVAL_POINT[0], 0),
    (exact_mod._EVAL_POINT[2], 0, -exact_mod._EVAL_POINT[0]),
)
forms_through_alpha = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any).map(
    lambda c: tuple(c[0] * u + c[1] * v for u, v in zip(*_THROUGH_ALPHA))
)
any_forms = st.one_of(linear_forms, forms_through_alpha)


def _product(polys):
    p = ONE
    for f in polys:
        p = p * f
    return p


@settings(max_examples=80, deadline=None)
@given(
    st.lists(any_forms, max_size=2),
    st.lists(any_forms, min_size=1, max_size=3),
    st.lists(any_forms, min_size=1, max_size=3),
)
def test_poly_gcd_of_products_of_forms_matches_sympy(common, only_a, only_b):
    shared = _product(map(_linear, common))
    a = (shared * _product(map(_linear, only_a))).primitive()
    b = (shared * _product(map(_linear, only_b))).primitive()
    poly_gcd.cache_clear()
    got = poly_gcd(a, b)
    poly_gcd.cache_clear()
    assert got == _sympy_gcd_oracle(a, b)


def _weight_forms(n):
    """The tangent weights of SurfaceGeometry(n), with tau, t3 and wR(k) + r t3,
    one primitive representative per line."""
    geom = SurfaceGeometry(n)
    forms = [TAU, T3]
    for k in range(1, n + 2):
        forms += [geom.wL(k), geom.wR(k)] + [geom.wR(k) + r * T3 for r in (-2, -1, 1, 2)]
    return sorted({f.primitive() for f in forms}, key=str)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.permutations(_weight_forms(n))), st.data())
def test_poly_gcd_of_products_of_distinct_weights_is_one(forms, data):
    i = data.draw(st.integers(1, 3))
    j = data.draw(st.integers(i + 1, i + 3))
    assert poly_gcd(_product(forms[:i]), _product(forms[i:j])) == ONE


@settings(max_examples=40, deadline=None)
@given(tpolys(), st.integers(-5, 5), st.integers(-5, 5))
def test_tau_sub_is_restriction_to_t2_eq_minus_t1(p, x, z):
    assert p.tau_sub().substitute({0: x, 2: z}) == p.substitute({0: x, 1: -x, 2: z})
    assert (p * TAU).tau_sub().is_zero


# -- RatFn --------------------------------------------------------------------


def test_ratfn_canonical_form():
    r = RatFn(TAU**2 * T3, TAU * T2 * 2)
    # denominator is primitive-integer with positive leading coefficient
    assert r.num == TAU * T3 * QQ(1, 2) and r.den == T2
    assert r.den.content() == 1 and r.den.leading()[1] > 0
    r2 = RatFn(T1, -T2)
    assert r2.den == T2 and r2.num == -T1
    r3 = RatFn(T1 * 6, T2 * QQ(3, 2))
    assert r3.den == T2 and r3.num == 4 * T1


def test_ratfn_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFn(T1, TPoly())
    with pytest.raises(ZeroDivisionError):
        RF_ONE / RF_ZERO


@settings(max_examples=40, deadline=None)
@given(ratfns(), ratfns(), ratfns())
def test_ratfn_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero
    if not a.is_zero:
        assert a * a.inverse() == RF_ONE
        assert (RF_ONE / a) * a == RF_ONE


@settings(max_examples=40, deadline=None)
@given(ratfns(), ratfns())
def test_ratfn_eq_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)
    assert a == a + RF_ZERO


# Products over a small shared pool of linear forms, so that the denominators
# of two operands often share factors and their sums often cancel some.
_FORM_POOL = (T1, T2, T3, TAU, T1 - T2, T2 + T3, T1 + 2 * T3)
pool_products = st.lists(st.sampled_from(_FORM_POOL), max_size=3).map(_product)


@st.composite
def raw_ratfns(draw):
    """(num, den) TPoly expressions, not reduced: num is one or two scaled
    products from the pool, den one scaled product."""
    num = draw(qcoeffs) * draw(pool_products)
    if draw(st.booleans()):
        num = num + draw(qcoeffs) * draw(pool_products)
    den = draw(qcoeffs.filter(bool)) * draw(pool_products)
    return num, den


def _is_canonical(r):
    return (
        poly_gcd(r.num, r.den) == ONE
        and r.den.primitive() == r.den
        and stored_form(r.num)
        and stored_form(r.den)
    )


@settings(max_examples=80, deadline=None)
@given(raw_ratfns(), raw_ratfns(), st.integers(-2, 3))
def test_ratfn_arithmetic_matches_full_constructor(x, y, e):
    (n1, d1), (n2, d2) = x, y
    # (n3, d3) = y - x: adding x back cancels factors of the common
    # denominator, which exercises gcd(t, g) in the sum
    n3, d3 = n2 * d1 - n1 * d2, d1 * d2
    a, b, c = RatFn(n1, d1), RatFn(n2, d2), RatFn(n3, d3)
    cases = [
        (a + b, n1 * d2 + n2 * d1, d1 * d2),
        (a - b, n1 * d2 - n2 * d1, d1 * d2),
        (a + c, n1 * d3 + n3 * d1, d1 * d3),
        (a * b, n1 * n2, d1 * d2),
    ]
    if not n2.is_zero:
        cases.append((a / b, n1 * d2, d1 * n2))
    if not n1.is_zero:
        cases.append((a.inverse(), d1, n1))
    if e >= 0:
        cases.append((a**e, n1**e, d1**e))
    elif not n1.is_zero:
        cases.append((a**e, d1**-e, n1**-e))
    for r, num, den in cases:
        assert r == RatFn(num, den)
        assert _is_canonical(r)


def _count_poly_gcd_calls(monkeypatch):
    """Record the arguments of every poly_gcd call made through the module."""
    calls = []
    gcd = exact_mod.poly_gcd

    def counting_gcd(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(exact_mod, "poly_gcd", counting_gcd)
    return calls


def test_ratfn_sum_cancels_through_gcd_of_numerator_and_common_factor(monkeypatch):
    a, b = RatFn(ONE, T1 * TAU), RatFn(ONE, T2 * TAU)
    calls = _count_poly_gcd_calls(monkeypatch)
    r = a + b
    # gcd(b, d) = tau, then gcd(t, tau) with t = t2 + t1
    assert calls == [(T1 * TAU, T2 * TAU), (TAU, TAU)]
    assert r == RatFn(ONE, T1 * T2)


def test_ratfn_coprime_denominators_take_one_gcd(monkeypatch):
    a, b = RatFn(T3, T1 + T3), RatFn(ONE, T2)
    calls = _count_poly_gcd_calls(monkeypatch)
    r = a + b
    assert len(calls) == 1
    assert r.num == T2 * T3 + T1 + T3 and r.den == (T1 + T3) * T2


@pytest.mark.parametrize("a, b", [
    (RatFn(T1 * TAU, T2 * (T1 + T3)), RatFn.const(QQ(-3, 2))),  # a scaling
    (RatFn(T1 + T2), RatFn(T3 * (T3 - T1))),  # two polynomials
    (RatFn(TPoly.const(2), T1 * TAU), RatFn(TPoly.const(QQ(-1, 3)), T2 + T3)),
])
def test_ratfn_product_with_a_constant_cross_operand_takes_no_gcd(monkeypatch, a, b):
    # each cross pair (a.num, b.den), (b.num, a.den) has a constant side
    calls = _count_poly_gcd_calls(monkeypatch)
    for r in (a * b, b * a):
        assert r.num == a.num * b.num and r.den == a.den * b.den
    assert calls == []


def test_ratfn_sum_of_polynomials_and_constant_sided_constructor_take_no_gcd(monkeypatch):
    calls = _count_poly_gcd_calls(monkeypatch)
    assert (RatFn(T1 + T2) + RatFn(T1 * T3)).num == T1 + T2 + T1 * T3
    assert RatFn(T1) - RatFn(T1) == RF_ZERO
    assert RatFn(T1 * T2, TPoly.const(-2)).num == QQ(-1, 2) * T1 * T2
    assert RatFn(TPoly.const(3), -2 * T1 * TAU).den == T1 * TAU
    assert calls == []


@st.composite
def raw_constant_sided(draw):
    """(num, den) TPoly expressions with a constant numerator (possibly zero)
    or a constant denominator, not reduced."""
    if draw(st.booleans()):
        return TPoly.const(draw(qcoeffs)), draw(qcoeffs.filter(bool)) * draw(pool_products)
    return draw(qcoeffs) * draw(pool_products), TPoly.const(draw(qcoeffs.filter(bool)))


@settings(max_examples=80, deadline=None)
@given(raw_ratfns(), raw_constant_sided(), st.booleans())
def test_ratfn_arithmetic_with_a_constant_side_matches_full_constructor(x, y, swap):
    if swap:
        x, y = y, x
    (n1, d1), (n2, d2) = x, y
    a, b = RatFn(n1, d1), RatFn(n2, d2)
    cases = [
        (a + b, n1 * d2 + n2 * d1, d1 * d2),
        (a - b, n1 * d2 - n2 * d1, d1 * d2),
        (a * b, n1 * n2, d1 * d2),
    ]
    if not n2.is_zero:
        cases.append((a / b, n1 * d2, d1 * n2))
    for r, num, den in cases:
        assert r == RatFn(num, den)
        assert _is_canonical(r)


def test_ratfn_shared_denominator_sum_cancels_to_zero():
    r = RatFn(T1 * QQ(1, 2), TAU * T3) + RatFn(-T1, 2 * TAU * T3)
    assert r == RF_ZERO
    assert RatFn(T1, TAU * T3) + RatFn(T2, TAU * T3) == RatFn(ONE, T3)


def test_ratfn_product_of_canonical_operands_takes_two_gcds(monkeypatch):
    a = RatFn(TAU * T3, T1 * (T2 + T3))
    b = RatFn(T1 * (T1 - T2), TAU * T2)
    calls = _count_poly_gcd_calls(monkeypatch)
    r = a * b
    # only the two cross-cancellations gcd(a.num, b.den), gcd(b.num, a.den)
    assert calls == [(a.num, b.den), (b.num, a.den)]
    assert r.num == T3 * (T1 - T2) and r.den == T2 * (T2 + T3)


def test_ratfn_inverse_takes_no_gcd(monkeypatch):
    a = RatFn(QQ(-1, 2) * T1 * TAU, T2 * (T1 + T3))
    calls = _count_poly_gcd_calls(monkeypatch)
    r = a.inverse()
    # num and den are already coprime; only the new denominator's sign and
    # content change
    assert calls == []
    assert r.num == -2 * T2 * (T1 + T3) and r.den == T1 * TAU


def test_tau_valuation_by_division():
    f = RatFn(TAU**3 * T1, TAU * (T1 + T2 + T3))
    assert f.valuation_t1pt2() == 2
    g = RatFn(T1 - T2, TAU**2)
    assert g.valuation_t1pt2() == -2
    with pytest.raises(ValueError):
        RF_ZERO.valuation_t1pt2()
    with pytest.raises(ValueError):
        exact_mod._tau_valuation(TPoly())
    # (t1+t2)^2 hidden inside an expanded square
    h = RatFn(T1**2 + 2 * T1 * T2 + T2**2)
    assert h.valuation_t1pt2() == 2


@settings(max_examples=30, deadline=None)
@given(ratfns(), ratfns())
def test_tau_valuation_additive(a, b):
    if a.is_zero or b.is_zero:
        return
    assert (a * b).valuation_t1pt2() == a.valuation_t1pt2() + b.valuation_t1pt2()


def test_ratfn_substitute():
    f = RatFn(T1 * T2, T1 + T2)
    assert f.substitute_all(QQ(1), QQ(2)) == QQ(2, 3)
    with pytest.raises(ZeroDivisionError):
        f.substitute_all(QQ(1), QQ(-1))
    g = RatFn(T3 * T1 + T3**2 * T2, T3)
    assert g.limit_var_zero(2) == RatFn(T1)


points = st.tuples(
    *[st.one_of(st.integers(-3, 3), st.builds(QQ, st.integers(-3, 3), st.integers(1, 3)))] * 3
)


@settings(max_examples=80, deadline=None)
@given(ratfns(), qpolys(), points)
def test_substitute_all_is_the_value_of_the_full_substitution(f, p, pt):
    # value_at over fractional coefficients and integral or fractional points
    assert p.value_at(*pt) == p.substitute({0: pt[0], 1: pt[1], 2: pt[2]}).const_term()
    try:
        want = f.substitute({0: pt[0], 1: pt[1], 2: pt[2]}).const_value()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.substitute_all(*pt)
        return
    got = f.substitute_all(*pt)
    assert got == want and type(got) is QQ


# -- series -------------------------------------------------------------------


def series_of(nvars, window, qfloor, d):
    return QSSeries(nvars, window, qfloor, {k: RatFn.const(v) for k, v in d.items()})


@pytest.mark.parametrize("bad", [0.5, "a", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("field", ["qmin", "qmax", "smax"])
def test_window_refuses_a_bound_that_is_not_an_int(field, bad):
    # a float bound used to build series with float floors
    bounds = {"qmin": 0, "qmax": 3, "smax": 2, field: bad}
    with pytest.raises(TypeError, match=f"^Window.{field} must be an int, not "
                                        f"{type(bad).__name__} {bad!r}$"):
        Window(**bounds)
    with pytest.raises(TypeError):
        Window()  # every bound is required


def test_series_basic_ops():
    w = Window(-2, 4, 2)
    a = series_of(1, w, -1, {(-1, (0,)): 2, (1, (1,)): 3})
    b = series_of(1, w, 0, {(0, (0,)): 1, (1, (1,)): -3})
    s = a + b
    assert s.coeff(-1, (0,)) == RatFn.const(2)
    assert s.coeff(1, (1,)).is_zero
    assert (a - a).is_zero


def test_series_mul_window_soundness():
    # exact objects: A = q^1/(known to q^4), B = sum_{d>=1} q^d
    w = Window(0, 4, 0)
    A = series_of(0, w, 1, {(1, ()): 1})
    B = series_of(0, w, 1, {(d, ()): 1 for d in range(1, 5)})
    P = A * B
    # valid only up to qmax(B) + qfloor(A) = 5 -> window caps at 5
    assert P.window.qmax == 5
    assert P.coeff(2, ()) == RF_ONE and P.coeff(5, ()) == RF_ONE
    assert P.qfloor == 2


def test_series_mul_requires_floor():
    w = Window(0, 4, 0)
    bad = series_of(0, w, -5, {(0, ()): 1})  # claims support may start at -5
    good = series_of(0, w, 0, {(0, ()): 1})
    with pytest.raises(WindowError):
        bad * good


def test_series_sum_rule_drops_an_empty_operand_with_its_window():
    # today's rule (QSSeries docstring): a nonempty sum intersects the
    # windows; a sum that has emptied takes the next addend's window back
    a = series_of(1, Window(0, 4, 1), 0, {(0, (0,)): 1, (1, (1,)): 2})
    b = series_of(1, Window(2, 6, 1), 2, {(2, (0,)): 5, (5, (1,)): 1})
    s = a + b
    assert (s.window, s.qfloor) == (Window(2, 4, 1), 0)
    assert s.data == {(2, (0,)): RatFn.const(5)}
    emptied = s + (-b)
    assert emptied.is_zero and emptied.window == Window(2, 4, 1)
    back = emptied + b
    assert (back.window, back.qfloor, back.data) == (b.window, b.qfloor, b.data)


def test_series_smax_truncation():
    w = Window(0, 4, 2)
    a = series_of(1, w, 0, {(0, (1,)): 1})
    p = a * a * a  # s^3 exceeds smax
    assert p.is_zero


def test_series_derivatives():
    w = Window(-3, 3, 3)
    a = series_of(2, w, -2, {(-2, (1, 0)): 5, (0, (1, 2)): 7, (2, (0, 0)): 1})
    qd = a.q_log_derivative()
    assert qd.coeff(-2, (1, 0)) == RatFn.const(-10)
    assert qd.coeff(0, (1, 2)).is_zero
    assert qd.coeff(2, (0, 0)) == RatFn.const(2)
    sd = a.s_log_derivative(2)
    assert sd.coeff(0, (1, 2)) == RatFn.const(14)
    assert sd.coeff(-2, (1, 0)).is_zero
    td = a.s_total_derivative()
    assert td.coeff(0, (1, 2)) == RatFn.const(21)
    assert td.coeff(-2, (1, 0)) == RatFn.const(5)


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(0, 3)), st.integers(-3, 3), max_size=4),
    st.dictionaries(st.tuples(st.integers(0, 3)), st.integers(-3, 3), max_size=4),
)
def test_series_q_derivative_leibniz(da, db):
    w = Window(0, 6, 0)
    a = series_of(0, w, 0, {(k[0], ()): v for k, v in da.items()})
    b = series_of(0, w, 0, {(k[0], ()): v for k, v in db.items()})
    lhs = (a * b).q_log_derivative()
    rhs = a.q_log_derivative() * b + a * b.q_log_derivative()
    assert lhs.eq_on(rhs)


def test_log_atom_expansion_hand_values():
    w = Window(-6, 6, 3)
    at = log_atom_expand(1, w, 1, 1, 2)  # log(1 - (-q) s1)
    assert at.coeff(1, (1,)) == RF_ONE
    assert at.coeff(2, (2,)) == RatFn.const(QQ(-1, 2))
    assert at.coeff(3, (3,)) == RatFn.const(QQ(1, 3))
    neg = log_atom_expand(1, w, -2, 1, 2)  # log(1 - (-q)^{-2} s1)
    assert neg.coeff(-2, (1,)) == RatFn.const(-1)
    assert neg.coeff(-4, (2,)) == RatFn.const(QQ(-1, 2))
    assert neg.qfloor == -6
    k0 = log_atom_expand(1, w, 0, 1, 2)  # log(1 - s1)
    assert k0.coeff(0, (1,)) == RatFn.const(-1)
    assert k0.coeff(0, (3,)) == RatFn.const(QQ(-1, 3))


def test_expand_logatoms_is_tau_times_the_weighted_atom_sum():
    w = Window(-4, 4, 2)
    tau = RatFn(TAU)
    weights = {(1, 1, 3): 1, (2, 1, 2): QQ(-1, 2)}
    e = expand_logatoms(2, weights, w)
    assert e.coeff(1, (1, 1)) == tau  # log(1 - (-q) s1 s2)
    assert e.coeff(2, (1, 0)) == tau * QQ(1, 2)  # -1/2 log(1 - q^2 s1)
    assert e.coeff(4, (2, 0)) == tau * QQ(1, 4)
    one = expand_logatoms(2, {(1, 1, 3): 1}, w)
    assert (e - one).data == expand_logatoms(2, {(2, 1, 2): QQ(-1, 2)}, w).data
    assert expand_logatoms(2, {}, w).is_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(-8, 8), st.integers(0, 8), st.integers(0, 4))
def test_distinct_interval_atoms_share_no_monomial(nvars, qmin, width, smax):
    # the bracket engine sums an entry's atom series as a disjoint union
    w = Window(qmin, qmin + width, smax)
    atoms = [(k, i, j) for k in range(-4, 5)
             for i in range(1, nvars + 2) for j in range(i + 1, nvars + 2)]
    keys = [set(log_atom_expand(nvars, w, *a).data) for a in atoms]
    assert sum(map(len, keys)) == len(set().union(*keys))


# -- exp / MacMahon -------------------------------------------------------------


def test_series_exp_needs_positive_floor():
    w = Window(0, 4, 0)
    with pytest.raises(WindowError):
        series_exp(series_of(0, w, 0, {(0, ()): 1}))


def test_series_exp_homomorphism():
    w = Window(0, 8, 0)
    a = series_of(0, w, 1, {(1, ()): 2, (3, ()): -1})
    b = series_of(0, w, 2, {(2, ()): QQ(1, 2)})
    lhs = series_exp(a + b)
    rhs = series_exp(a) * series_exp(b)
    assert lhs.eq_on(rhs, Window(0, 8, 0))


def test_macmahon_exponent_one_matches_plane_partitions():
    w = Window(0, 6, 0)
    m = macmahon_power(1, w)
    for d, count in enumerate(PLANE_PARTITIONS):
        sign = -1 if d % 2 else 1
        assert m.coeff(d, ()) == RatFn.const(sign * count)


def test_macmahon_pinned_coefficients():
    # the two pinned evaluations: exponent 1 -> q^1 coefficient -1;
    # exponent 2 -> q^2 coefficient 7
    assert macmahon_power(1, Window(0, 4, 0)).coeff(1, ()) == RatFn.const(-1)
    assert macmahon_power(2, Window(0, 4, 0)).coeff(2, ()) == RatFn.const(7)


def test_macmahon_rational_exponent_additivity():
    w = Window(0, 5, 0)
    c1 = RatFn(TAU**2, T1 * T2 * 3)
    c2 = RatFn(T1, T2)
    lhs = macmahon_power(c1 + c2, w)
    rhs = macmahon_power(c1, w) * macmahon_power(c2, w)
    assert lhs.eq_on(rhs, w)


# -- rational reconstruction ------------------------------------------------------


def expand_qrat(shift, num, den, lo, hi, nvars=0):
    qr = QRational(shift, tuple(RatFn.const(c) for c in num), tuple(RatFn.const(c) for c in den))
    data = {(qe, (0,) * nvars): c for qe, c in qr.expand(lo, hi).items()}
    return QSSeries(nvars, Window(lo, hi, 0), shift, data)


def test_reconstruct_geometric():
    # q/(1-q)^2 = sum d q^d
    s = expand_qrat(1, [1], [1, -2, 1], 0, 12)
    rec = rational_reconstruct_q(s, 2)[()]
    assert rec.expand(0, 12) == {d: RatFn.const(d) for d in range(1, 13)}
    assert rec.degree_bound() <= 2
    assert rec.evaluate(QQ(1), QQ(1), QQ(2)) == QQ(2)  # 2/(1-2)^2


def test_reconstruct_with_ratfn_coefficients():
    w = Window(-2, 10, 1)
    c = RatFn(TAU, T1)
    data = {}
    for d in range(-2, 11):
        # c * (-q)^d starting at d=-2: rational function c * q^{-2}/(1+q) pattern:
        # use sum_{d>=-2} (-1)^d q^d = q^{-2}/(1+q)
        data[(d, (1,))] = c * (1 - 2 * (d % 2))
    s = QSSeries(1, w, -2, data)
    rec = rational_reconstruct_q(s, 1)[(1,)]
    assert rec.shift == -2
    got = rec.expand(-2, 10)
    assert got == {d: c * (1 - 2 * (d % 2)) for d in range(-2, 11)}


def test_reconstruct_window_too_small():
    s = expand_qrat(1, [1], [1, -2, 1], 0, 6)
    with pytest.raises(WindowError):
        rational_reconstruct_q(s, 3)  # needs 2*3+2=8 coefficients past leading


def test_reconstruct_rejects_non_rational():
    w = Window(0, 12, 0)
    s = series_of(0, w, 1, {(d * d, ()): 1 for d in range(1, 4)})
    with pytest.raises(ReconstructError):
        rational_reconstruct_q(s, 2)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.lists(st.integers(-2, 2), min_size=0, max_size=2),
    st.integers(-3, 3),
)
def test_reconstruct_roundtrip(num, denrest, shift):
    den = [1] + denrest
    d = max(len(num), len(den)) - 1
    hi = shift + 2 * d + 4
    s = expand_qrat(shift, num, den, shift, hi)
    if s.is_zero:
        return
    rec = rational_reconstruct_q(s, d)
    key = ()
    assert rec[key].expand(shift, hi) == QRational(
        shift, tuple(RatFn.const(c) for c in num), tuple(RatFn.const(c) for c in den)
    ).expand(shift, hi)


# -- linear algebra -------------------------------------------------------------


def _int_matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_cols).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-2, 2), min_size=nc, max_size=nc),
            min_size=1,
            max_size=max_rows,
        )
    )


@settings(max_examples=100, deadline=None)
@given(_int_matrices(), st.integers(0, 2))
def test_rref_and_nullspace_match_sympy(ints, repeats):
    ints = ints + ints[:repeats]  # repeated rows force rank deficiency
    rows = [[QQ(x) for x in r] for r in ints]
    ncols = len(rows[0])
    reduced, pivots, order = rref(rows, ncols)
    want, want_pivots = sympy.Matrix(ints).rref()
    assert pivots == list(want_pivots)
    assert reduced == [
        [QQ(int(v.p), int(v.q)) for v in want.row(i)] for i in range(want.rows)
    ]
    assert sorted(order) == list(range(len(rows)))
    assert rows == [[QQ(x) for x in r] for r in ints]  # input left alone
    vec = nullspace(rows)
    if len(pivots) == ncols:
        assert vec is None
    else:
        assert any(vec)
        assert all(sum(a * x for a, x in zip(r, vec)) == 0 for r in rows)


def test_rref_carries_right_hand_sides_and_reports_row_order():
    rows = [[QQ(1), QQ(0), QQ(5)], [QQ(2), QQ(0), QQ(7)], [QQ(0), QQ(1), QQ(1)]]
    reduced, pivots, order = rref(rows, 2)
    assert pivots == [0, 1]
    # input row 1 ends last, as the inconsistent residual 0 = 7 - 2 * 5
    assert order == [0, 2, 1]
    assert reduced == [[1, 0, 5], [0, 1, 1], [0, 0, -3]]


_linear_forms = st.tuples(*[st.integers(-2, 2)] * 3).map(
    lambda c: RatFn(c[0] * T1 + c[1] * T2 + c[2] * T3)
)


def _dense_rref(rows, ncols):
    """Reference elimination: rref with the row update over every entry."""
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
                mat[t] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(col)
    return mat, pivots, order


def _sparse_matrices(nonzero, zero):
    """Matrices of up to 5 x 6 with at least half their entries zero."""

    @st.composite
    def draw(draw_):
        nr, nc = draw_(st.integers(1, 5)), draw_(st.integers(1, 6))
        cells = [(i, j) for i in range(nr) for j in range(nc)]
        nz = set(draw_(st.lists(st.sampled_from(cells), max_size=len(cells) // 2, unique=True)))
        return [[draw_(nonzero) if (i, j) in nz else zero for j in range(nc)] for i in range(nr)]

    return draw()


@pytest.mark.parametrize(
    "nonzero, zero",
    [
        (st.integers(-3, 3).filter(bool).map(QQ), QQ(0)),
        (_linear_forms.filter(bool), RF_ZERO),
    ],
    ids=["fraction", "ratfn"],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_rref_matches_dense_reference(nonzero, zero, data):
    rows = data.draw(_sparse_matrices(nonzero, zero))
    ncols = data.draw(st.integers(0, len(rows[0])))
    before = [list(r) for r in rows]
    assert rref(rows, ncols) == _dense_rref(rows, ncols)
    assert rows == before  # input left alone


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(_linear_forms, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_solve_and_inverse_round_trip_over_ratfn(mat):
    n = len(mat)
    eye = [[RF_ONE if i == j else RF_ZERO for j in range(n)] for i in range(n)]
    try:
        inv = inverse(mat)
    except SingularMatrixError:
        vec = nullspace(mat)
        assert vec is not None and any(vec)
        assert matmul(mat, [[x] for x in vec]) == [[RF_ZERO]] * n
        return
    assert matmul(mat, inv) == eye
    assert matmul(inv, mat) == eye
    rhs = [[row[0] + RF_ONE, RatFn(T3)] for row in mat]
    assert matmul(mat, solve(mat, rhs)) == rhs


# denominators that several entries share, and linear forms drawn freshly
_SHARED_DENS = (ONE, T1, TAU, T1 * (T1 - T2), (T2 + T3) * TAU, 3 * T1 + 2 * T3)
_unrelated_dens = st.tuples(*[st.integers(-3, 3)] * 3).filter(any).map(
    lambda c: c[0] * T1 + c[1] * T2 + c[2] * T3
)


@st.composite
def _matmul_entries(draw):
    kind = draw(st.sampled_from(["zero", "const", "shared", "unrelated"]))
    if kind == "zero":
        return RF_ZERO
    if kind == "const":
        return RatFn.const(draw(qcoeffs))
    den = draw(st.sampled_from(_SHARED_DENS) if kind == "shared" else _unrelated_dens)
    return RatFn(draw(qpolys(max_terms=3)), den)


def _matmul_matrices(nr, nc):
    row = st.lists(_matmul_entries(), min_size=nc, max_size=nc)
    zero_row = st.just([RF_ZERO] * nc)
    return st.lists(st.one_of(row, zero_row), min_size=nr, max_size=nr)


def _naive_matmul(A, B):
    """Reference: every entry as a running RatFn sum of RatFn products."""
    out = []
    for Ar in A:
        row = []
        for j in range(len(B[0])):
            tot = RF_ZERO
            for k, f in enumerate(Ar):
                tot = tot + f * B[k][j]
            row.append(tot)
        out.append(row)
    return out


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(1, 4)] * 3).flatmap(
    lambda s: st.tuples(_matmul_matrices(s[0], s[1]), _matmul_matrices(s[1], s[2]))
))
def test_ratfn_matmul_matches_naive_product(AB):
    A, B = AB
    got = matmul(A, B)
    assert got == _naive_matmul(A, B)
    assert all(_is_canonical(x) for row in got for x in row)


@st.composite
def _sandwiches(draw):
    """(A, K, B): RatFn matrices around a sparse integer K, as {(r, c): int}."""
    nr, ns, nc = draw(st.tuples(*[st.integers(1, 4)] * 3))
    cells = st.tuples(st.integers(0, ns - 1), st.integers(0, ns - 1))
    K = draw(st.dictionaries(cells, st.integers(-3, 3).filter(bool), max_size=2 * ns))
    return draw(_matmul_matrices(nr, ns)), K, draw(_matmul_matrices(ns, nc))


@settings(max_examples=60, deadline=None)
@given(_sandwiches())
def test_sandwich_matches_naive_product(AKB):
    A, K, B = AKB
    ns = len(B)
    Kd = [[RatFn.const(K.get((r, c), 0)) for c in range(ns)] for r in range(ns)]
    got = exact_mod._sandwich(A, K, B)
    assert got == _naive_matmul(_naive_matmul(A, Kd), B)
    assert all(_is_canonical(x) for row in got for x in row)


def _unit_series(c):
    return QSSeries(1, Window(0, 0, 0), 0, {(0, (0,)): c})


@pytest.mark.parametrize("product", [
    pytest.param(lambda a, b: exact_mod._sandwich([[a]], {(0, 0): 1}, [[b]])[0][0],
                 id="sandwich"),
    pytest.param(lambda a, b: matmul([[a * QQ(1)]], [[b]])[0][0], id="matmul"),
    pytest.param(lambda a, b: exact_mod._fold_products(
        1, Window(0, 0, 0), [(QQ(1), _unit_series(a * b))]).coeff(0, (0,)), id="fold_products"),
])
def test_sandwich_stores_integral_coefficients_as_int(product):
    # every dense fraction-free product ends in exact._dot, which stores what
    # it is given; an integral QQ input must still leave int coefficients,
    # the stored form that the integer synthetic division in _over_forms reads
    a = RatFn(T1 + 2 * T2, T1 + 3 * T3)
    b = RatFn(T2 + T3, T1 - T3)
    got = product(a, b)
    assert got == a * b
    assert stored_form(got.num) and stored_form(got.den)


def test_sandwich_refuses_a_k_entry_that_is_not_an_int():
    # K is an integer matrix; an integral QQ is refused, not scaled
    a = RatFn(T1 + 2 * T2, T1 + 3 * T3)
    with pytest.raises(TypeError):
        exact_mod._sandwich([[a]], {(0, 0): QQ(1)}, [[a]])


def _primitive_form(a, b):
    """(a, b) / gcd, signed so that a > 0, or a = 0 and b = 1."""
    g = math.gcd(a, b) * (1 if a > 0 or (a == 0 and b > 0) else -1)
    return a // g, b // g


_primitive_forms = st.one_of(
    st.sampled_from([(1, 0), (0, 1), (1, 1)]),  # t1, t2 and t1 + t2 among them
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any).map(lambda f: _primitive_form(*f)),
)


@st.composite
def _numerators_over_forms(draw):
    """(num, c, forms): an integral numerator, often with some of the forms
    (repeated or not) as factors, over a nonzero int c and primitive forms."""
    forms = draw(st.lists(_primitive_forms, max_size=6))
    kind = draw(st.sampled_from(["binary", "binary", "inhomogeneous", "t3", "zero"]))
    if kind == "zero":
        num = exact_mod.ZERO
    else:
        deg = draw(st.integers(0, 3))
        num = TPoly({(deg - k, k, 0): draw(coeffs) for k in range(deg + 1)})
        if kind == "inhomogeneous":
            num = num + TPoly({draw(exps): draw(coeffs.filter(bool))})
        elif kind == "t3":
            num = num + T3 * TPoly({draw(exps): draw(coeffs.filter(bool))})
        if num.is_zero:
            num = ONE
        for a, b in draw(st.lists(st.sampled_from(forms), max_size=4)) if forms else ():
            num = num * (a * T1 + b * T2)
    return num, draw(st.integers(-6, 6).filter(bool)), forms


@settings(max_examples=150, deadline=None)
@given(_numerators_over_forms())
def test_over_forms_is_the_canonical_quotient(args):
    # the gcd-free kernel against the full constructor, which takes poly_gcd
    num, c, forms = args
    den = TPoly.const(c)
    for a, b in forms:
        den = den * (a * T1 + b * T2)
    got = exact_mod._over_forms(num, c, forms)
    want = RatFn(num, den)
    assert (got.num, got.den) == (want.num, want.den)
    assert stored_form(got.num) and stored_form(got.den)


def test_singular_matrix_error_is_value_and_zero_division_error():
    singular = [[RatFn(T1), RatFn(T2)], [RatFn(T1 * T3), RatFn(T2 * T3)]]
    for exc in (SingularMatrixError, ValueError, ZeroDivisionError):
        with pytest.raises(exc):
            inverse(singular)
    with pytest.raises(SingularMatrixError):
        solve([[QQ(0)]], [[QQ(1)]])


# -- the fraction-free series fold --------------------------------------------


@st.composite
def _fold_series(draw):
    """A two-variable series on a drawn window, floor at or above qmin, with
    entries over shared or unrelated denominators; smax is sometimes 1, so
    some sums meet an s-key above their window."""
    smax = draw(st.sampled_from((2, 2, 2, 1)))
    qmin = draw(st.integers(-2, 0))
    qmax = qmin + draw(st.integers(1, 4))
    qfloor = draw(st.integers(qmin, qmax))
    skeys = st.tuples(st.integers(0, smax), st.integers(0, smax)).filter(lambda t: sum(t) <= smax)
    keys = st.tuples(st.integers(qfloor, qmax), skeys)
    data = draw(st.dictionaries(keys, _matmul_entries(), min_size=1, max_size=4))
    return QSSeries(2, Window(qmin, qmax, smax), qfloor, data)


@st.composite
def _fold_pairs(draw):
    """(a, b) pairs with a a series or a scalar; a pair may be followed by
    its negation, which empties a running sum that it started."""
    scalars = st.one_of(_matmul_entries(), st.integers(-2, 2))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.one_of(_fold_series(), scalars))
        b = draw(_fold_series())
        pairs.append((a, b))
        if draw(st.booleans()):
            pairs.append((-a, b))
    return pairs


def _left_fold(nvars, window, pairs):
    acc = QSSeries.zero(nvars, window)
    for a, b in pairs:
        acc = acc + a * b
    return acc


@settings(max_examples=35, deadline=None)
@given(_fold_series(), _fold_pairs())
def test_fold_products_is_the_left_fold(start, pairs):
    window = start.window
    try:
        want = _left_fold(2, window, pairs)
    except WindowError:
        with pytest.raises(WindowError):
            exact_mod._fold_products(2, window, pairs)
        return
    got = exact_mod._fold_products(2, window, pairs)
    assert (got.data, got.window, got.qfloor) == (want.data, want.window, want.qfloor)
    assert all(_is_canonical(c) for c in got.data.values())


def test_fold_products_takes_the_next_window_after_the_sum_empties():
    a = series_of(1, Window(0, 4, 1), 0, {(0, (0,)): 1, (1, (1,)): 2})
    b = series_of(1, Window(2, 6, 1), 2, {(2, (0,)): 5, (4, (1,)): 1})
    one = series_of(1, Window(-1, 6, 1), 0, {(0, (0,)): 1})
    pairs = [(one, a), (RatFn(T1, TAU), b), (-one, a), (RatFn(-T1, TAU), b), (T2, b)]
    got = exact_mod._fold_products(1, Window(-1, 6, 1), pairs)
    want = _left_fold(1, Window(-1, 6, 1), pairs)
    assert (got.data, got.window, got.qfloor) == (want.data, want.window, want.qfloor)
    assert got.window == b.window and got.data == {
        (2, (0,)): RatFn(5 * T2), (4, (1,)): RatFn(T2)}


def test_fold_numerators_take_no_gcd(monkeypatch):
    gcds = []
    monkeypatch.setattr(exact_mod, "poly_gcd", lambda a, b: gcds.append((a, b)) or ONE)
    b = series_of(1, Window(0, 4, 1), 0, {(0, (0,)): QQ(1, 2), (1, (1,)): 3})
    nums, _d = exact_mod._numerators([b])
    scalar = T1 * T1 - T2
    acc = exact_mod._fold_numerators(
        1, b.window, [(scalar, list(scalar.items()), b, nums[0])] * 2)
    assert not gcds
    assert acc.data == {(0, (0,)): 2 * scalar, (1, (1,)): 12 * scalar}
