"""Surface geometry: weights, classes, localization pairing."""
import gc
import weakref

import pytest

from andt.exact import QQ, RatFn, RF_ZERO, T1, T2, TAU, TPoly
from andt.surface import SurfaceGeometry


def test_weights_sum_to_tau():
    for n in range(0, 5):
        g = SurfaceGeometry(n)
        for i in range(1, n + 2):
            assert g.wL(i) + g.wR(i) == TAU


def test_weights_mod_tau_normal_form():
    # substituting t2 = -t1 must give (n+1) t1 and -(n+1) t1 at every point
    for n in range(0, 5):
        g = SurfaceGeometry(n)
        for i in range(1, n + 2):
            assert g.wL(i).substitute({1: QQ(-1)}).substitute({0: QQ(1)}) == TPoly.const(n + 1)
            assert g.wR(i).substitute({1: QQ(-1)}).substitute({0: QQ(1)}) == TPoly.const(-(n + 1))


def test_weights_n2_figure_values():
    g = SurfaceGeometry(2)
    assert g.wL(1) == 3 * T1
    assert g.wR(1) == T2 - 2 * T1
    assert g.wL(2) == 2 * T1 - T2
    assert g.wR(2) == 2 * T2 - T1
    assert g.wL(3) == T1 - 2 * T2
    assert g.wR(3) == 3 * T2
    # figure label sets per point (order-insensitive: two labels are swapped
    # in the drawing but the set at each point is fixed by w^L + w^R = t1+t2)
    assert {g.wL(3), g.wR(3)} == {T1 - 2 * T2, 3 * T2}


def test_curve_pairing_is_minus_cartan():
    for n in (1, 2, 3):
        g = SurfaceGeometry(n)
        C = g.cartan()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                val = g.pairing(g.cls_E(i), g.cls_E(j))
                assert val == RatFn.const(-C[i - 1][j - 1])


def test_omega_duality_and_self_pairing():
    for n in (1, 2, 3):
        g = SurfaceGeometry(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert g.pairing(g.cls_omega(i), g.cls_E(j)) == RatFn.const(
                    1 if i == j else 0
                )
            # <omega_i, 1> = 0 (omega restrictions sum to zero against Euler)
            assert g.pairing(g.cls_omega(i), g.cls_one()).is_zero
    g1 = SurfaceGeometry(1)
    assert g1.pairing(g1.cls_omega(1), g1.cls_omega(1)) == RatFn.const(QQ(-1, 2))


def test_unit_self_pairing():
    # sum_k 1/(wL_k wR_k) = 1/((n+1) t1 t2)
    for n in range(0, 5):
        g = SurfaceGeometry(n)
        assert g.pairing(g.cls_one(), g.cls_one()) == RatFn(
            TPoly.const(1), (n + 1) * T1 * T2
        )


def test_point_pairings():
    for n in (0, 1, 2):
        g = SurfaceGeometry(n)
        for k in range(1, n + 2):
            pk = g.cls_point(k)
            assert g.pairing(pk, pk) == RatFn(g.euler_point(k))
            assert g.pairing(pk, g.cls_one()) == RatFn.const(1)
            for l in range(1, n + 2):
                if l != k:
                    assert g.pairing(pk, g.cls_point(l)).is_zero


def test_point_class_in_unit_omega_basis():
    # [p_i] = (n+1) t1 t2 * 1 + wL_i omega_i + wR_i omega_{i-1}, checked as
    # restriction tuples
    for n in (1, 2, 3):
        g = SurfaceGeometry(n)
        for i in range(1, n + 2):
            c0, cj = g.point_in_unit_omega_basis(i)
            built = g.class_linear(c0, cj)
            assert built == g.cls_point(i)


def test_root_vectors_and_s_exponents():
    g = SurfaceGeometry(3)
    assert g.root_vector(1, 2) == (1, 0, 0)
    assert g.root_vector(2, 4) == (0, 1, 1)
    assert g.s_exponent((2, 0, 1)) == (2, 0, 1)
    with pytest.raises(ValueError):
        g.root_vector(2, 2)
    with pytest.raises(ValueError):
        g.root_vector(0, 1)  # exact._interval_skey's pure-q sentinel is no root
    with pytest.raises(ValueError):
        g.s_exponent((1, 2))


def test_index_validation():
    g = SurfaceGeometry(1)
    with pytest.raises(ValueError):
        g.wL(0)
    with pytest.raises(ValueError):
        g.cls_E(2)
    with pytest.raises(ValueError):
        SurfaceGeometry(-1)


@pytest.mark.parametrize("n", [1.5, 2.0, True, "2", None])
def test_rank_that_is_not_an_int_is_refused(n):
    # a float rank used to be accepted and fail later inside calibrate
    with pytest.raises(TypeError, match="^n must be an int"):
        SurfaceGeometry(n)


def test_a_geometry_that_built_an_omega_class_is_freed():
    # cls_omega keeps no cache whose key holds the geometry alive
    g = SurfaceGeometry(3)
    assert g.cls_omega(2) == g.cls_omega(2)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
