"""Tests for the colored infinite-wedge model.

The key independent oracle here is a brute-force Maya simulator: states are
explicit finite windows of occupied global positions, operators move single
particles, and signs are counted literally.  The production code computes the
same actions through per-color charge/partition bookkeeping.
"""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from andt.exact import (
    QQ, TAU, RatFn, Window, expand_logatoms, log_atom_expand, theta_vacuum_logatoms,
)
from andt.partitions import enumerate_multipartitions
from andt.wedge import (
    WedgeState,
    apply_current,
    apply_ops,
    e_act,
    normal_pair_matrix,
    operator_matrix,
    state_from_multipartition,
    theta_logatoms,
    vacuum,
    weight_basis,
)


# ---------------------------------------------------------------------------
# brute-force Maya simulator (independent oracle)
# ---------------------------------------------------------------------------


def state_to_occupied(state, floor_level):
    """All occupied global positions with level >= floor_level."""
    n1 = len(state.charges)
    occ = set()
    for j in range(1, n1 + 1):
        c, lam = state.charges[j - 1], state.parts[j - 1]
        levels = [c + p - r for r, p in enumerate(lam, start=1)]
        r = len(lam) + 1
        while c - r >= floor_level:
            levels.append(c - r)
            r += 1
        for l in levels:
            if l >= floor_level:
                occ.add(l * n1 + (j - 1))
    return frozenset(occ)


def sim_e_act(n, i, j, k, occ, floor_level, ceil_level):
    """Literal particle moves on an explicit window of global positions."""
    n1 = n + 1
    if i == j and k == 0:
        # normal-ordered charge: occupied at level >= 0 minus holes below 0
        c = sum(1 for K in occ if K % n1 == j - 1 and K // n1 >= 0)
        c -= sum(
            1
            for l in range(floor_level, 0)
            if l * n1 + (j - 1) not in occ
        )
        return [(c, occ)] if c else []
    out = []
    for K in sorted(occ, reverse=True):
        if K % n1 != j - 1:
            continue
        l = K // n1
        tgt_level = l - k
        if not floor_level + abs(k) + 1 <= tgt_level <= ceil_level - abs(k) - 1:
            # caller guarantees real moves stay inside this margin
            if l * n1 + (j - 1) in occ and (tgt_level * n1 + (i - 1)) not in occ:
                if floor_level <= tgt_level <= ceil_level:
                    raise AssertionError("window too small for simulation")
            continue
        Kt = tgt_level * n1 + (i - 1)
        if Kt in occ:
            continue
        sign = (-1) ** sum(1 for K2 in occ if K2 > K)
        mid = set(occ)
        mid.remove(K)
        sign *= (-1) ** sum(1 for K2 in mid if K2 > Kt)
        mid.add(Kt)
        out.append((sign, frozenset(mid)))
    return out


def random_state_strategy(n):
    n1 = n + 1
    charge = st.integers(min_value=-2, max_value=2)
    part = st.lists(
        st.integers(min_value=1, max_value=4), min_size=0, max_size=3
    ).map(lambda xs: tuple(sorted(xs, reverse=True)))
    return st.tuples(
        st.tuples(*[charge] * n1), st.tuples(*[part] * n1)
    ).map(lambda cp: WedgeState(cp[0], cp[1]))


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=2),
    k=st.integers(min_value=-3, max_value=3),
)
def test_e_act_matches_maya_simulator(data, n, k):
    state = data.draw(random_state_strategy(n))
    i = data.draw(st.integers(min_value=1, max_value=n + 1))
    j = data.draw(st.integers(min_value=1, max_value=n + 1))
    floor_level = -14
    ceil_level = 14
    occ = state_to_occupied(state, floor_level)
    expected = sim_e_act(n, i, j, k, occ, floor_level, ceil_level)
    got = [
        (coeff, state_to_occupied(s2, floor_level))
        for coeff, s2 in e_act(n, i, j, k, state)
    ]
    assert sorted(got, key=lambda t: sorted(t[1])) == sorted(
        expected, key=lambda t: sorted(t[1])
    )


# ---------------------------------------------------------------------------
# states and grading
# ---------------------------------------------------------------------------


def test_vacuum_basics():
    v = vacuum(2)
    assert v.energy() == 0
    assert v.total_charge() == 0
    assert v.energy_by_positions() == 0


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(min_value=0, max_value=2))
def test_energy_closed_form(data, n):
    state = data.draw(random_state_strategy(n))
    assert state.energy() == state.energy_by_positions()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=2),
    k=st.integers(min_value=-3, max_value=3),
)
def test_e_act_grading_and_charge(data, n, k):
    state = data.draw(random_state_strategy(n))
    i = data.draw(st.integers(min_value=1, max_value=n + 1))
    j = data.draw(st.integers(min_value=1, max_value=n + 1))
    for coeff, s2 in e_act(n, i, j, k, state):
        assert s2.energy() == state.energy() - k
        assert s2.total_charge() == state.total_charge()
        assert s2.charges[i - 1] - state.charges[i - 1] == (1 if i != j else 0)


def test_weight_basis_dimensions():
    # independent count: coefficient of x^m in prod_k (1-x^k)^-(n+1)
    for n in range(0, 4):
        coeffs = [QQ(1)] + [QQ(0)] * 6
        for kk in range(1, 7):
            for _ in range(n + 1):
                for e in range(kk, 7):
                    coeffs[e] += coeffs[e - kk]
        for m in range(0, 6):
            assert len(weight_basis(n, m)) == coeffs[m]
    assert len(weight_basis(1, 2)) == 5
    assert len(weight_basis(2, 3)) == 22


def test_weight_basis_order_matches_multipartitions():
    for (n, m) in [(1, 2), (2, 2), (1, 3)]:
        mps = enumerate_multipartitions(m, n + 1)
        basis = weight_basis(n, m)
        assert [tuple(s.parts) for s in basis] == [
            tuple(c.parts for c in mp) for mp in mps
        ]


# ---------------------------------------------------------------------------
# pinned single actions
# ---------------------------------------------------------------------------


def test_pinned_actions_two_colors():
    v = vacuum(1)
    assert e_act(1, 1, 1, -1, v) == [(-1, WedgeState((0, 0), ((1,), ())))]
    assert e_act(1, 2, 2, -1, v) == [(1, WedgeState((0, 0), ((), (1,))))]
    # positive and zero off-diagonal modes annihilate the vacuum
    for k in range(0, 4):
        for i, j in [(1, 2), (2, 1)]:
            assert e_act(1, i, j, k, v) == []
        if k > 0:
            for a in (1, 2):
                assert e_act(1, a, a, k, v) == []
    # several moves are listed in descending source level: 1, then -1
    s = WedgeState((0, 0), ((2, 1), (1,)))
    assert e_act(1, 2, 1, 0, s) == [(1, WedgeState((-1, 1), ((1,), (1, 1)))),
                                    (1, WedgeState((-1, 1), ((3,), ())))]
    assert e_act(1, 1, 1, 1, s) == [(-1, WedgeState((0, 0), ((1, 1), (1,)))),
                                    (-1, WedgeState((0, 0), ((2,), (1,))))]


def test_charge_operator_eigenvalues():
    s = WedgeState((1, -1), ((2,), ()))
    assert e_act(1, 1, 1, 0, s) == [(1, s)]
    assert e_act(1, 2, 2, 0, s) == [(-1, s)]
    assert e_act(1, 1, 1, 0, vacuum(1)) == []


def test_color_moving_mode():
    # e_12(0) on |(1), ()> moves the level-0 particle from color 1 to color 2
    s = WedgeState((0, 0), ((1,), ()))
    out = e_act(1, 2, 1, 0, s)
    assert len(out) == 1
    coeff, s2 = out[0]
    assert s2.charges == (-1, 1)
    assert s2.energy() == s.energy()


# ---------------------------------------------------------------------------
# affine gl relations
# ---------------------------------------------------------------------------


def _vec_eq(a, b):
    keys = set(a) | set(b)
    return all(a.get(s, QQ(0)) == b.get(s, QQ(0)) for s in keys)


def _assert_gl_relation(n, i1, j1, i2, j2, k, l, s):
    """[e_i1j1(k), e_i2j2(l)] = delta_j1i2 e_i1j2(k+l) - delta_j2i1 e_i2j1(k+l)
    + k delta_k+l,0 delta_j1i2 delta_j2i1 on the state s."""
    v = {s: QQ(1)}
    lhs = apply_ops(n, [(i1, j1, k), (i2, j2, l)], v)
    rhs = apply_ops(n, [(i2, j2, l), (i1, j1, k)], v)
    for s2, c in rhs.items():
        lhs[s2] = lhs.get(s2, QQ(0)) - c
    expect = {}
    if j1 == i2:
        for c, s2 in e_act(n, i1, j2, k + l, s):
            expect[s2] = expect.get(s2, QQ(0)) + c
    if j2 == i1:
        for c, s2 in e_act(n, i2, j1, k + l, s):
            expect[s2] = expect.get(s2, QQ(0)) - c
    if k + l == 0 and j1 == i2 and j2 == i1:
        expect[s] = expect.get(s, QQ(0)) + k
    assert _vec_eq(lhs, expect), (i1, j1, i2, j2, k, l, s)


def test_affine_gl_relations_small():
    n = 1
    states = [vacuum(n)] + list(weight_basis(n, 1)) + list(weight_basis(n, 2))
    colors = range(1, n + 2)
    for (i1, j1, i2, j2) in itertools.product(colors, repeat=4):
        for k in range(-2, 3):
            for l in range(-2, 3):
                for s in states:
                    _assert_gl_relation(n, i1, j1, i2, j2, k, l, s)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=2),
    k=st.integers(min_value=-2, max_value=2),
    l=st.integers(min_value=-2, max_value=2),
)
def test_affine_gl_relation_on_random_charged_states(data, n, k, l):
    s = data.draw(random_state_strategy(n))
    i1, j1, i2, j2 = (data.draw(st.integers(min_value=1, max_value=n + 1)) for _ in range(4))
    _assert_gl_relation(n, i1, j1, i2, j2, k, l, s)


def test_central_term_example():
    # [e_12(1), e_21(-1)] acts on vacuum purely through the central term
    n = 1
    v = {vacuum(n): QQ(1)}
    lhs = apply_ops(n, [(1, 2, 1), (2, 1, -1)], v)
    rhs = apply_ops(n, [(2, 1, -1), (1, 2, 1)], v)
    for s2, c in rhs.items():
        lhs[s2] = lhs.get(s2, QQ(0)) - c
    assert _vec_eq(lhs, {vacuum(n): QQ(1)})


# ---------------------------------------------------------------------------
# normal-ordered pairs and operator data
# ---------------------------------------------------------------------------


def test_normal_pair_vacuum_expectation_zero():
    for n in (0, 1, 2):
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                for k in range(-3, 4):
                    assert normal_pair_matrix(n, 0, i, j, k) == {}


def test_normal_pair_vanishes_beyond_energy():
    for (n, m) in [(1, 1), (1, 2), (2, 1)]:
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                assert normal_pair_matrix(n, m, i, j, m + 1) == {}
                assert normal_pair_matrix(n, m, i, j, -(m + 1)) == {}


def test_interaction_matrix_weight_one():
    # two states, all four entries carry log(1 - s_1); k = +-1 modes vanish
    assert normal_pair_matrix(1, 1, 1, 2, 1) == {}
    assert normal_pair_matrix(1, 1, 1, 2, -1) == {}
    t0 = normal_pair_matrix(1, 1, 1, 2, 0)
    assert t0 == {(r, c): QQ(1) for r in range(2) for c in range(2)}
    # with no vacuum atom (kmax = 0) Theta / tau is that one atom, integer-valued
    atoms = theta_logatoms(1, 1, 0)
    assert atoms == {(0, 1, 2): {(r, c): 1 for r in range(2) for c in range(2)}}
    assert all(type(v) is int for K in atoms.values() for v in K.values())
    # the vacuum atoms add k on the diagonal
    atoms = theta_logatoms(1, 1, 2)
    assert atoms.pop((0, 1, 2)) == {(r, c): 1 for r in range(2) for c in range(2)}
    assert atoms == {(k, 1, 2): {(0, 0): k, (1, 1): k} for k in (1, 2)}


def test_normal_pair_symmetric_on_basis():
    for (n, m) in [(1, 2), (2, 2)]:
        for i in range(1, n + 2):
            for j in range(i + 1, n + 2):
                for k in range(-m, m + 1):
                    mat = normal_pair_matrix(n, m, i, j, k)
                    assert mat == {
                        (c, r): v for (r, c), v in mat.items()
                    }, (n, m, i, j, k)
                    assert all(type(v) is int for v in mat.values()), (n, m, i, j, k)


def test_fiber_expansion_low_coefficients():
    w = Window(qmin=0, qmax=4, smax=2)
    f = expand_logatoms(1, theta_vacuum_logatoms(1, 4), w)
    tau = RatFn(TAU)
    assert f.coeff(1, (1,)) == tau * QQ(1)
    assert f.coeff(2, (1,)) == tau * QQ(-2)
    assert f.coeff(2, (2,)) == tau * QQ(-1, 2)
    assert f.coeff(3, (1,)) == tau * QQ(3)


def test_theta_vacuum_is_fiber_series():
    # weight 0: the vacuum atoms alone, tau * sum_{i<j} F(q, s_i..s_{j-1})
    for n in (1, 2):
        atoms = theta_logatoms(n, 0, 6)
        assert atoms == {a: {(0, 0): k} for a, k in theta_vacuum_logatoms(n, 6).items()}
        w = Window(qmin=-6, qmax=6, smax=2)
        series = expand_logatoms(n, {a: K[(0, 0)] for a, K in atoms.items()}, w)
        assert series.data
        for coeff in series.data.values():
            assert coeff.valuation_t1pt2() >= 1


def _lattice_omega0_mode(n, m, k):
    """Matrix of sum_a e_aa(-k) e_aa(k) on the weight-m basis."""
    tot: dict = {}
    for a in range(1, n + 2):
        for key, v in operator_matrix(n, m, lambda vec, a=a: apply_ops(n, [(a, a, -k), (a, a, k)], vec)).items():
            tot[key] = tot.get(key, 0) + v
    return {key: v for key, v in tot.items() if v}


def test_omega0_small_weights():
    # the lattice form of the dressing modes k = 2..m
    assert _lattice_omega0_mode(1, 0, 2) == {}
    assert _lattice_omega0_mode(1, 1, 2) == {}
    assert _lattice_omega0_mode(2, 1, 2) == {}
    entries = _lattice_omega0_mode(1, 2, 2)
    # ones-blocks on the two pure-color pairs, nothing on the mixed state
    expected_keys = {(r, c) for r in (0, 1) for c in (0, 1)} | {
        (r, c) for r in (3, 4) for c in (3, 4)
    }
    assert set(entries) == expected_keys
    assert set(entries) == {(c, r) for (r, c) in entries}


def test_omega0_weight_two_values():
    # the k = 2 mode is 1 on the (0, 0) entry, with series factor
    # log(1 - q^2) - log(1 + q): q^d coefficient = [-1/(d/2) if d even] + (-1)^d/d
    assert _lattice_omega0_mode(1, 2, 2)[(0, 0)] == 1
    w = Window(qmin=-8, qmax=8, smax=1)
    ref = log_atom_expand(1, w, 2, 0, 1) - log_atom_expand(1, w, 1, 0, 1)
    expect = {}
    for d in range(1, 5):
        expect[2 * d] = expect.get(2 * d, QQ(0)) - QQ(1, d)
    for d in range(1, 9):
        expect[d] = expect.get(d, QQ(0)) + QQ((-1) ** d, d)
    for d in range(1, 9):
        assert ref.coeff(d, (0,)) == RatFn.const(expect[d]), d


def test_operator_matrix_rejects_nonpreserving():
    with pytest.raises(AssertionError):
        operator_matrix(1, 1, lambda v: apply_ops(1, [(1, 1, -1)], v))


def test_apply_current_weighted():
    # sum_a a * e_aa(0) reads off weighted charges
    s = WedgeState((1, -1), ((), ()))
    out = apply_current(1, (QQ(1), QQ(2)), 0, {s: QQ(1)})
    assert out == {s: QQ(1) * 1 + QQ(2) * (-1)}
