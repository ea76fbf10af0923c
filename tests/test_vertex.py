"""Edge characters, box configurations, minimal-cylinder weights, vacuum routes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import andt.vertex as vertex
from andt.dictionary import _vacuum_scalar_series
from andt.exact import QQ, RatFn, T1, T2, T3, TAU, Window, _interval_skey, expand_logatoms
from andt.partitions import INF, LegDiagram, Partition, SliceChain, partitions_of
from andt.surface import SurfaceGeometry
from andt.wedge import theta_logatoms
from andt.vertex import (
    BoxConfig,
    EdgePolynomial,
    MinimalConfig,
    NonCancellingPoleError,
    VacuumMismatchError,
    _divide_one_minus_z3inv,
    chi_minimal,
    config_mult,
    diagram_character,
    edge_character,
    edge_factor_polynomial,
    edge_mult,
    insertion_limit,
    rigidify_check,
    theta_vacuum_series,
    vacuum_series,
    weight_minimal,
)

TAU_RF = RatFn(TAU)


# ---------------------------------------------------------------------------
# independent oracle: the cylinder tangent character, graded slice by slice
# ---------------------------------------------------------------------------
#
# Chart-by-chart inclusion-exclusion for the width-rho cylinder over a curve
# with normal twists (a, b) = (-2, 0), organized by z3-degree.  The chart at 0
# contributes F for every degree dd >= 0, the chart at infinity contributes
# the twisted monomials z1^r z2^c z3^{2r - e} for e >= 0, and the overlap
# subtracts F at every degree.  No Laurent division is involved, so this is
# an independent route to the same character.


def _graded_tangent_slices(rho, lo, hi):
    f = edge_factor_polynomial(rho).data
    slices = {}
    for dd in range(lo, hi + 1):
        acc = {}
        for (e1, e2, e3), v in f.items():
            assert e3 == 0
            if 2 * e1 >= dd:
                acc[(e1, e2)] = acc.get((e1, e2), 0) + v
            if dd < 0:
                acc[(e1, e2)] = acc.get((e1, e2), 0) - v
        slices[dd] = {k: v for k, v in acc.items() if v}
    return slices


def test_edge_character_matches_graded_chart_sum():
    for m in range(0, 6):
        for rho in partitions_of(m):
            e = edge_character(rho)
            width = 2 * (len(rho) + 1) + 2
            oracle = _graded_tangent_slices(rho, -width, width)
            got = {}
            for (e1, e2, e3), v in e.data.items():
                assert -width <= e3 <= width, "support escaped the test window"
                got.setdefault(e3, {})[(e1, e2)] = v
            for dd in range(-width, width + 1):
                # edge character is minus the tangent character
                expect = {k: -v for k, v in oracle[dd].items()}
                assert got.get(dd, {}) == expect, (rho, dd)


# ---------------------------------------------------------------------------
# F and the constant-term extraction
# ---------------------------------------------------------------------------


def test_interaction_polynomial_hand_values():
    assert edge_factor_polynomial(()).is_zero
    # single box: F = 1/z1 + 1/z2 (everything else cancels)
    f = edge_factor_polynomial((1,))
    assert f.data == {(-1, 0, 0): 1, (0, -1, 0): 1}


def test_interaction_polynomial_symmetry():
    # F(1/z1, 1/z2) = z1 z2 F(z1, z2)
    for m in range(0, 7):
        for rho in partitions_of(m):
            f = edge_factor_polynomial(rho)
            assert f.bar() == f.shift(1, 1, 0)


def test_diagram_character_orientation():
    q = diagram_character((3, 1))
    # row index along z1, row contents along z2
    assert q.data == {(0, 0, 0): 1, (0, 1, 0): 1, (0, 2, 0): 1, (1, 0, 0): 1}


def test_edge_mult_examples():
    assert edge_mult(()) == 0
    assert edge_mult((1,)) == 1
    assert edge_mult((2, 1)) == 2


def test_edge_mult_counts_parts_up_to_seven():
    for m in range(0, 8):
        for rho in partitions_of(m):
            assert edge_mult(rho) == len(rho), rho


@given(st.lists(st.integers(1, 6), min_size=0, max_size=5))
@settings(max_examples=60, deadline=None)
def test_edge_mult_counts_parts_random(parts):
    rho = tuple(sorted(parts, reverse=True))
    assert edge_mult(rho) == len(rho)


def test_edge_mult_other_twist_still_defined():
    # untwisted edges still divide cleanly; the count just differs
    e = edge_character((2, 1), a=0, b=0)
    f = edge_factor_polynomial((2, 1))
    assert e == EdgePolynomial({k: -v for k, v in f.data.items()})


def test_non_cancelling_pole_raises():
    with pytest.raises(NonCancellingPoleError):
        _divide_one_minus_z3inv(EdgePolynomial({(0, 0, 0): 1}))
    # flipping the relative sign of the two edge terms leaves a residue
    f = edge_factor_polynomial((1,))
    bad = f.shift(0, 0, -1) + f.twist(-2, 0)
    with pytest.raises(NonCancellingPoleError):
        _divide_one_minus_z3inv(bad)


def test_edge_polynomial_arithmetic():
    x = EdgePolynomial.monomial(1, 0, 0)
    y = EdgePolynomial.monomial(0, 1, -2, 3)
    assert (x + y).coeff(0, 1, -2) == 3
    assert (x * y).data == {(1, 1, -2): 3}
    assert (x - x).is_zero
    assert x.twist(-2, 0).data == {(1, 0, 2): 1}
    assert y.bar().data == {(0, -1, -2): 3}
    with pytest.raises(ValueError):
        EdgePolynomial({(1, 0): 1})


# ---------------------------------------------------------------------------
# box configurations
# ---------------------------------------------------------------------------


def _empty_chain():
    return SliceChain([LegDiagram()])


def test_config_mult_empty_is_zero():
    cfg = BoxConfig([_empty_chain(), _empty_chain()])
    assert config_mult(cfg) == 0
    assert cfg.beta == (0,)
    assert cfg.edges == (Partition(()),)


def test_config_mult_single_leg_chain_is_half():
    for d in (1, 2, 3):
        chain = SliceChain([LegDiagram((INF,))] * d + [LegDiagram()])
        assert config_mult(chain) == QQ(1, 2)


def test_config_mult_minimal_is_one():
    for n in (1, 2, 3):
        geom = SurfaceGeometry(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                for d in (1, 2, 3):
                    for a in range(3):
                        for b in range(3):
                            cfg = MinimalConfig(d, a, b, i, j).box_config(geom)
                            assert config_mult(cfg) == 1, (n, i, j, d, a, b)


def test_minimal_box_config_derived_data():
    geom = SurfaceGeometry(2)
    mc = MinimalConfig(3, 1, 2, 1, 3)
    cfg = mc.box_config(geom)
    assert cfg.chi == mc.chi == 12
    assert cfg.edges == (Partition((1, 1, 1)), Partition((1, 1, 1)))
    assert cfg.beta == mc.beta(geom) == (3, 3)


def test_box_config_validation():
    leg = SliceChain([LegDiagram((INF,)), LegDiagram()])
    tail = SliceChain([LegDiagram((), tail=1), LegDiagram()])
    # compatible pair passes
    BoxConfig([leg, tail])
    # widths must match level by level
    with pytest.raises(ValueError, match="cross-section mismatch"):
        BoxConfig([leg, _empty_chain()])
    # no legs off the chain ends
    with pytest.raises(ValueError, match="left end"):
        BoxConfig([tail, _empty_chain()])
    with pytest.raises(ValueError, match="right end"):
        BoxConfig([_empty_chain(), leg])
    # chains must stabilize to the empty diagram
    with pytest.raises(ValueError, match="does not end empty"):
        BoxConfig([SliceChain([LegDiagram((1,))]), _empty_chain()])


def test_minimal_config_validation():
    with pytest.raises(ValueError):
        MinimalConfig(0, 0, 0, 1, 2)
    with pytest.raises(ValueError):
        MinimalConfig(1, -1, 0, 1, 2)
    with pytest.raises(ValueError):
        MinimalConfig(1, 0, 0, 2, 2)
    with pytest.raises(ValueError):
        MinimalConfig(1, 0, 0, 1, 4).box_config(SurfaceGeometry(1))


def test_chi_minimal_examples():
    assert chi_minimal(MinimalConfig(1, 0, 0, 1, 2)) == 1
    assert chi_minimal(MinimalConfig(2, 1, 0, 1, 2)) == 4
    for d in (1, 2, 3):
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                assert (
                    chi_minimal(MinimalConfig(d, a, b, 1, 2))
                    == d * chi_minimal(MinimalConfig(1, a, b, 1, 2))
                )


# ---------------------------------------------------------------------------
# minimal-configuration weights
# ---------------------------------------------------------------------------


def test_weight_minimal_base_case():
    geom = SurfaceGeometry(1)
    w = weight_minimal(MinimalConfig(1, 0, 0, 1, 2), geom)
    assert w == RatFn(TAU, T3)


def test_weight_minimal_symplectic_valuation():
    for n, intervals in ((1, [(1, 2)]), (2, [(1, 2), (1, 3), (2, 3)])):
        geom = SurfaceGeometry(n)
        for i, j in intervals:
            for d in (1, 2, 3):
                for a in (0, 1, 2):
                    for b in (0, 1, 2):
                        w = weight_minimal(MinimalConfig(d, a, b, i, j), geom)
                        assert w.valuation_t1pt2() == 1, (n, i, j, d, a, b)


def _weight_minimal_single_loop(cfg, geom):
    """Reference: the weight as one product over every factor, rebuilt for
    each configuration (the form weight_minimal had before it was factored)."""
    d, a, b, i, j = cfg.d, cfg.a, cfg.b, cfg.i, cfg.j
    t3 = RatFn(T3)
    scale = QQ(geom.npoints)
    edge = TAU_RF / (-t3)
    for r in range(1, d):
        edge = edge * RatFn(T3 * QQ(-r), T3 * QQ(-(r + 1)))
    weight = edge ** (j - i)
    for k in range(i + 1, j):
        wr, wl = RatFn(geom.wR(k)), RatFn(geom.wL(k))
        mid = RatFn.const((-1) ** d) * (t3 * QQ(d)) / TAU_RF
        for r in range(d):
            up, down = QQ(r), QQ(r + 1)
            mid = mid * (wr + t3 * up) ** 2 / (wr - t3 * down) ** 2
            mid = mid * (wl + t3 * up) ** 2 / (wl - t3 * down) ** 2
            mid = mid * (wr * 2 - t3 * down) * (wl * 2 - t3 * down)
            mid = mid / ((wr * 2 + t3 * up) * (wl * 2 + t3 * up))
        weight = weight * mid
    st1, st2 = RatFn(T1) * scale, RatFn(T2) * scale
    for r in range(d):
        for s in range(1, a + 1):
            weight = weight * (t3 * QQ(r - d) - st1 * QQ(s)) / (t3 * QQ(r) + st1 * QQ(s))
        for s in range(1, b + 1):
            weight = weight * (t3 * QQ(r - d) - st2 * QQ(s)) / (t3 * QQ(r) + st2 * QQ(s))
    sign = -1 if ((j - i) * (1 + d)) % 2 == 0 else 1
    return weight * QQ(sign)


def _small_configs(chi_max=8):
    """Every (geometry, config) with chi <= chi_max at n <= 2."""
    for n in (1, 2):
        geom = SurfaceGeometry(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                for d in range(1, chi_max + 1):
                    for a in range(chi_max // d):
                        for b in range(chi_max // d - a):
                            yield geom, MinimalConfig(d, a, b, i, j)


def test_weight_minimal_is_the_single_loop_product():
    # the factor caches are keyed on integers, so a fresh geometry reads the
    # same factors
    for geom, cfg in _small_configs():
        want = _weight_minimal_single_loop(cfg, geom)
        assert weight_minimal(cfg, geom) == want, (geom.n, cfg)
        assert weight_minimal(cfg, SurfaceGeometry(geom.n)) == want, (geom.n, cfg)


def test_insertion_limit_is_the_limit_of_the_whole_product():
    # the product of the factor limits equals the limit of the product
    for geom, cfg in _small_configs():
        insertion = RatFn(T3) * QQ(cfg.d * (cfg.j - cfg.i))
        want = (insertion * weight_minimal(cfg, geom)).limit_var_zero(2)
        assert insertion_limit(cfg, geom) == want, (geom.n, cfg)


def test_every_end_limit_is_a_sign():
    # each fiber level of an end stack tends to (-s w) / (s w) = -1
    for npoints in (2, 3, 4):
        for d in range(1, 5):
            for extra in range(4):
                for var in (0, 1):
                    got = vertex._end_limit(npoints, d, extra, var)
                    assert got == RatFn.const((-1) ** (d * extra)), (npoints, d, extra, var)


@pytest.mark.parametrize("pole_var", [0, 1])
def test_an_end_factor_with_a_fiber_pole_raises(monkeypatch, pole_var):
    # an end factor without a finite limit at t3 = 0 fails loudly, never a value
    exact_end = vertex._end_weight

    def with_pole(npoints, d, extra, var):
        w = exact_end(npoints, d, extra, var)
        return w / RatFn(T3) if var == pole_var else w

    monkeypatch.setattr(vertex, "_end_weight", with_pole)
    vertex._end_limit.cache_clear()
    try:
        with pytest.raises(ZeroDivisionError):
            insertion_limit(MinimalConfig(2, 1, 0, 1, 2), SurfaceGeometry(1))
    finally:
        # the patched factor also fed the recursion of the exact one
        exact_end.cache_clear()
        vertex._end_limit.cache_clear()


def test_insertion_limit_matches_displayed_value():
    # after the d t3 (j-i) insertion the fiber limit is exact and equals
    # (j-i) * (t1+t2) * (-1)^{chi+1}
    for n, intervals in ((1, [(1, 2)]), (2, [(1, 3), (2, 3)])):
        geom = SurfaceGeometry(n)
        for i, j in intervals:
            for d in (1, 2, 3):
                for a in (0, 1, 2):
                    for b in (0, 1, 2):
                        cfg = MinimalConfig(d, a, b, i, j)
                        got = insertion_limit(cfg, geom)
                        sign = 1 if (cfg.chi + 1) % 2 == 0 else -1
                        assert got == TAU_RF * QQ(sign * (j - i)), (n, i, j, d, a, b)


def test_weight_minimal_no_fiber_pole_after_insertion():
    geom = SurfaceGeometry(2)
    for d in (1, 2, 3):
        cfg = MinimalConfig(d, 1, 0, 1, 3)
        w = weight_minimal(cfg, geom) * RatFn(T3) * QQ(d * 2)
        assert w.valuation_var(2) >= 0


# ---------------------------------------------------------------------------
# vacuum series and rigidification
# ---------------------------------------------------------------------------


def test_vacuum_series_early_coefficients():
    geom = SurfaceGeometry(1)
    vs = vacuum_series(geom, 1, 2, Window(1, 8, 4))
    assert vs.coeff(1, (1,)) == TAU_RF
    assert vs.coeff(2, (1,)) == TAU_RF * QQ(-2)
    assert vs.coeff(3, (1,)) == TAU_RF * QQ(3)
    assert vs.coeff(2, (2,)) == TAU_RF * QQ(-1)
    assert vs.coeff(3, (3,)) == TAU_RF


def test_vacuum_series_interval_factor():
    geom = SurfaceGeometry(2)
    vs = vacuum_series(geom, 1, 3, Window(1, 6, 4))
    assert vs.coeff(1, (1, 1)) == TAU_RF * QQ(2)
    # only multiples of the interval root appear
    for (qe, se), coeff in vs.data.items():
        d = max(se)
        assert se == (d, d)
        assert qe % 1 == 0 and not coeff.is_zero


def test_vacuum_series_all_intervals_consistent():
    # route (A) enumeration equals route (B) closed form on the full window
    win = Window(1, 10, 4)
    for n in (1, 2, 3):
        geom = SurfaceGeometry(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                vacuum_series(geom, i, j, win)


def test_vacuum_series_raises_on_a_perturbed_configuration(monkeypatch):
    # route (A) reads insertion_limit through the module global, once per
    # configuration; a wrong term for one configuration must surface at its key
    geom = SurfaceGeometry(2)
    bad = MinimalConfig(2, 1, 0, 1, 3)
    exact_limit = vertex.insertion_limit

    def perturbed(cfg, g):
        term = exact_limit(cfg, g)
        return term + TAU_RF if cfg == bad else term

    monkeypatch.setattr(vertex, "insertion_limit", perturbed)
    with pytest.raises(VacuumMismatchError) as info:
        vacuum_series(geom, 1, 3, Window(1, 6, 4))
    assert info.value.key == (bad.chi, (2, 2))
    assert info.value.enumerated == info.value.closed_form + TAU_RF


def test_vacuum_mismatch_error_payload():
    err = VacuumMismatchError((2, (1,)), RatFn.const(1), RatFn.const(2))
    assert err.key == (2, (1,))
    assert "q^2" in str(err)


def test_theta_vacuum_series_leading_terms():
    geom = SurfaceGeometry(1)
    th = theta_vacuum_series(geom, Window(1, 6, 3))
    # k=1 atom: tau * q s_1; its square shows at q^2 s^2 with coefficient -1/2;
    # the k=2 atom contributes tau * 2 * (-(-q)^2 s), i.e. -2 tau q^2 s
    assert th.coeff(1, (1,)) == TAU_RF
    assert th.coeff(2, (1,)) == TAU_RF * QQ(-2)
    assert th.coeff(2, (2,)) == TAU_RF * QQ(-1, 2)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_one_vacuum_series_in_vertex_dictionary_and_wedge(n):
    # the scalar vacuum part of the boundary operator, read three ways
    w = Window(-2, 6, 3)
    kmax = max(1, w.qmax)
    via_vertex = theta_vacuum_series(SurfaceGeometry(n), w)
    via_dictionary = _vacuum_scalar_series(n, w, kmax)
    weight_zero = theta_logatoms(n, 0, kmax)  # one state: Theta is 1 x 1
    via_wedge = expand_logatoms(n, {a: K[(0, 0)] for a, K in weight_zero.items()}, w)
    assert via_vertex.data == via_dictionary.data == via_wedge.data
    assert bool(via_vertex.data) == (n > 0)


def test_rigidify_check_small_windows():
    for n in (1, 2, 3):
        report = rigidify_check(SurfaceGeometry(n), Window(1, 10, 4))
        assert report["ok"], report
        assert report["keys_checked"] > 0
        assert "first_mismatch" not in report


def test_rigidify_euler_factor_on_long_interval():
    # the q^1 s_1 s_2 coefficient on both sides carries the factor j - i = 2
    geom = SurfaceGeometry(2)
    win = Window(1, 4, 4)
    lhs_atom = theta_vacuum_series(geom, win)
    # Euler operator multiplies the s_1 s_2 monomial by its degree 2, while
    # the enumerated series has the (j - i) insertion factor built in
    assert lhs_atom.coeff(1, (1, 1)) * QQ(2) == vacuum_series(
        geom, 1, 3, win
    ).coeff(1, (1, 1))


def test_interval_skey_is_the_root_vector_as_s_exponent():
    # the vacuum series takes its s-exponents from exact._interval_skey
    for n in range(1, 6):
        geom = SurfaceGeometry(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                for d in range(1, 5):
                    want = geom.s_exponent(tuple(d * x for x in geom.root_vector(i, j)))
                    assert tuple(d * e for e in _interval_skey(n, i, j)) == want
