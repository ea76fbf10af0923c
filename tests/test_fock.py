"""Tests for the Heisenberg/Fock layer: mode algebra, pairing, dressing operator."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from andt.exact import QQ, RatFn, RF_ONE, RF_ZERO, T1, T2, Window, log_atom_expand
from andt.fock import (
    VACUUM_WORD,
    WeightedPartition,
    convert_labels,
    fixed_point_basis,
    nak_gram,
    nak_pairing,
    omega0_mode_matrices,
    p_act,
    p_word_on_vacuum,
    unit_omega_basis,
    weighted_partition_basis,
)
from andt.surface import SurfaceGeometry


def test_annihilators_kill_vacuum():
    geom = SurfaceGeometry(1)
    basis = unit_omega_basis(geom)
    vac = {VACUUM_WORD: RF_ONE}
    for k in (1, 2, 3):
        assert p_act(k, geom.cls_one(), vac, basis) == {}


def test_single_commutator_value():
    # p_1(1) p_{-1}(1) |0> = -<1,1>|0> = -1/((n+1) t1 t2) |0>
    for n in range(0, 4):
        geom = SurfaceGeometry(n)
        basis = unit_omega_basis(geom)
        vac = {VACUUM_WORD: RF_ONE}
        v = p_act(-1, geom.cls_one(), vac, basis)
        w = p_act(1, geom.cls_one(), v, basis)
        expect = RatFn.const(QQ(-1)) / RatFn((n + 1) * T1 * T2)
        assert set(w) == {VACUUM_WORD}
        assert w[VACUUM_WORD] == expect


def test_creation_appends_part():
    geom = SurfaceGeometry(2)
    basis = unit_omega_basis(geom)
    v = p_act(-2, geom.cls_omega(1), {VACUUM_WORD: RF_ONE}, basis)
    assert v == {WeightedPartition(((2, 1),)): RF_ONE}
    # bilinearity: a combination class lands on several labels
    cls = geom.class_linear(QQ(3), (QQ(0), QQ(5)))
    v = p_act(-1, cls, {VACUUM_WORD: RF_ONE}, basis)
    assert v == {
        WeightedPartition(((1, 0),)): RatFn.const(QQ(3)),
        WeightedPartition(((1, 2),)): RatFn.const(QQ(5)),
    }


def test_word_basis_counts():
    # same dimensions as colored partitions: prod (1-x^k)^-(n+1)
    assert len(weighted_partition_basis(2, 2)) == 5
    assert len(weighted_partition_basis(3, 3)) == 22
    assert len(weighted_partition_basis(0, 4)) == 1
    for wp in weighted_partition_basis(4, 2):
        assert wp.weight == 4
        assert wp.pairs == tuple(sorted(wp.pairs, reverse=True))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=2),
    m=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=-3, max_value=3).filter(lambda x: x),
    l=st.integers(min_value=-3, max_value=3).filter(lambda x: x),
    g1=st.integers(min_value=0, max_value=2),
    g2=st.integers(min_value=0, max_value=2),
)
def test_heisenberg_relation(n, m, k, l, g1, g2):
    geom = SurfaceGeometry(n)
    basis = unit_omega_basis(geom)
    c1 = basis.classes[g1 % basis.size]
    c2 = basis.classes[g2 % basis.size]
    for word in weighted_partition_basis(m, basis.size):
        v = {word: RF_ONE}
        ab = p_act(k, c1, p_act(l, c2, v, basis), basis)
        ba = p_act(l, c2, p_act(k, c1, v, basis), basis)
        comm = dict(ab)
        for w2, c in ba.items():
            cur = comm.get(w2, RF_ZERO) - c
            if cur.is_zero:
                comm.pop(w2, None)
            else:
                comm[w2] = cur
        if k + l == 0:
            expect_coeff = geom.pairing(c1, c2) * QQ(-k)
            expect = {} if expect_coeff.is_zero else {word: expect_coeff}
        else:
            expect = {}
        assert comm == expect


def test_pairing_weight_one_anchor():
    # <(1, w_i) | (1, E_j)> = delta_ij after the sign convention
    for n in (1, 2):
        geom = SurfaceGeometry(n)
        basis = unit_omega_basis(geom)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                v = p_act(-1, geom.cls_E(j), {VACUUM_WORD: RF_ONE}, basis)
                w = p_act(1, geom.cls_omega(i), v, basis)
                val = -w.get(VACUUM_WORD, RF_ZERO)  # pairing sign (-1)^m at m = 1
                assert val == (RF_ONE if i == j else RF_ZERO)


def test_pairing_weight_one_equals_surface_gram():
    for n in (0, 1, 2):
        geom = SurfaceGeometry(n)
        basis = unit_omega_basis(geom)
        gram = nak_gram(1, basis)
        words = weighted_partition_basis(1, basis.size)
        for r, mu in enumerate(words):
            for c, nu in enumerate(words):
                surf = geom.pairing(
                    basis.classes[mu.pairs[0][1]], basis.classes[nu.pairs[0][1]]
                )
                assert gram.get((r, c), RF_ZERO) == surf


def test_pairing_two_point_class_chart():
    # n = 0: <(2, [p1]) | (2, [p1])> = -t1 t2 / 2
    geom = SurfaceGeometry(0)
    basis = fixed_point_basis(geom)
    word = WeightedPartition(((2, 0),))
    val = nak_pairing(word, word, basis)
    assert val == RatFn(T1 * T2) * QQ(-1, 2)


def test_pairing_weight_mismatch_and_orthogonal():
    geom = SurfaceGeometry(1)
    basis = fixed_point_basis(geom)
    a = WeightedPartition(((2, 0),))
    b = WeightedPartition(((1, 0), (1, 0)))
    c = WeightedPartition(((1, 0),))
    assert nak_pairing(a, c, basis) == RF_ZERO  # weight mismatch
    # different part multisets pair to zero regardless of labels
    assert nak_pairing(a, b, basis) == RF_ZERO


def test_gram_symmetric_and_nondegenerate():
    for n in (0, 1, 2):
        geom = SurfaceGeometry(n)
        basis = unit_omega_basis(geom)
        for m in (1, 2, 3):
            words = weighted_partition_basis(m, basis.size)
            gram = nak_gram(m, basis)
            for (r, c), v in gram.items():
                assert gram[(c, r)] == v
            # nondegeneracy via a random-point numeric determinant
            pt = (QQ(7), QQ(3))
            dense = [
                [
                    gram.get((r, c), RF_ZERO).substitute_all(*pt)
                    for c in range(len(words))
                ]
                for r in range(len(words))
            ]
            assert _det_qq(dense) != 0


def _det_qq(mat):
    mat = [row[:] for row in mat]
    n = len(mat)
    det = QQ(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col]), None)
        if piv is None:
            return QQ(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col]:
                f = mat[r][col] / inv
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return det


def test_pairing_basis_independent():
    for n in (1, 2):
        geom = SurfaceGeometry(n)
        uo = unit_omega_basis(geom)
        fp = fixed_point_basis(geom)
        for m in (1, 2):
            words = weighted_partition_basis(m, uo.size)
            for mu in words:
                for nu in words:
                    direct = nak_pairing(mu, nu, uo)
                    va = convert_labels({mu: RF_ONE}, uo, fp)
                    vb = convert_labels({nu: RF_ONE}, uo, fp)
                    tot = RF_ZERO
                    for wa, ca in va.items():
                        for wb, cb in vb.items():
                            p = nak_pairing(wa, wb, fp)
                            if not p.is_zero:
                                tot = tot + ca * cb * p
                    assert tot == direct


def test_label_coords_roundtrip():
    geom = SurfaceGeometry(2)
    uo = unit_omega_basis(geom)
    fp = fixed_point_basis(geom)
    for cls in uo.classes:
        coords = fp.coords(cls)
        rebuilt = tuple(
            sum(
                (coords[b] * fp.classes[b][pt] for b in range(fp.size)),
                RF_ZERO,
            )
            for pt in range(geom.npoints)
        )
        assert rebuilt == tuple(cls)


def test_omega0_weight_one_is_zero():
    # k = 1 carries a vanishing series factor and k > m annihilates
    for n in (0, 1, 2):
        geom = SurfaceGeometry(n)
        for basis in (unit_omega_basis(geom), fixed_point_basis(geom)):
            assert omega0_mode_matrices(geom, 1, basis) == {}
            assert omega0_mode_matrices(geom, 0, basis) == {}


def test_omega0_weight_two_series_is_log_one_minus_q():
    # the only mode is k=2 with series log((1-q^2)/(1+q)) = log(1-q)
    geom = SurfaceGeometry(1)
    w = Window(qmin=0, qmax=8, smax=0)
    modes = omega0_mode_matrices(geom, 2, unit_omega_basis(geom))
    assert set(modes) == {2} and modes[2]
    series = log_atom_expand(1, w, 2, 0, 1) - log_atom_expand(1, w, 1, 0, 1)
    for d in range(1, 9):
        assert series.coeff(d, (0,)) == RatFn.const(QQ(-1, d)), d


def test_omega0_high_modes_annihilate():
    geom = SurfaceGeometry(1)
    basis = unit_omega_basis(geom)
    for m in (1, 2, 3):
        for word in weighted_partition_basis(m, basis.size):
            for cls in basis.classes:
                assert p_act(m + 1, cls, {word: RF_ONE}, basis) == {}


def test_omega0_self_adjoint_for_gram():
    for (n, m) in [(1, 2), (1, 3), (2, 2)]:
        geom = SurfaceGeometry(n)
        basis = unit_omega_basis(geom)
        words = weighted_partition_basis(m, basis.size)
        dim = len(words)
        gram = nak_gram(m, basis)
        for k, mat in omega0_mode_matrices(geom, m, basis).items():
            # G * M == (G * M)^T
            gm = {}
            for r in range(dim):
                for c in range(dim):
                    tot = RF_ZERO
                    for mid in range(dim):
                        g = gram.get((r, mid))
                        x = mat.get((mid, c))
                        if g is not None and x is not None:
                            tot = tot + g * x
                    if not tot.is_zero:
                        gm[(r, c)] = tot
            for (r, c), v in gm.items():
                assert gm.get((c, r), RF_ZERO) == v, (n, m, k, r, c)


def test_pairing_normalization_scale_and_sign():
    # each word is scaled by prod 1/part and the pairing carries (-1)^m:
    # <p_k(a) p_{-k}(b)> = -k <a, b> gives (-1)^(k+1) <a, b> / k
    geom = SurfaceGeometry(1)
    basis = unit_omega_basis(geom)
    for k in (1, 2, 3):
        for a in range(basis.size):
            for b in range(basis.size):
                got = nak_pairing(WeightedPartition(((k, a),)), WeightedPartition(((k, b),)), basis)
                assert got == basis.pairing(a, b) * QQ((-1) ** (k + 1), k), (k, a, b)
    # two parts: (-2 <a, a>)(-1 <b, b>) / (2 * 1)^2 * (-1)^3
    mixed = WeightedPartition(((2, 0), (1, 1)))
    assert nak_pairing(mixed, mixed, basis) == basis.pairing(0, 0) * basis.pairing(1, 1) * QQ(-1, 2)
    # a repeated part: 2 <a, a>^2, scale 1, sign +1
    twice = WeightedPartition(((1, 1), (1, 1)))
    assert nak_pairing(twice, twice, basis) == basis.pairing(1, 1) ** 2 * QQ(2)


def test_p_word_on_vacuum():
    v = p_word_on_vacuum([(2, 0), (1, 1)])
    assert v == {WeightedPartition(((2, 0), (1, 1))): RF_ONE}
