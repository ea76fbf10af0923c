"""Dictionary tests at n = 1, m = 2: the calibration report, the Heisenberg
embedding, the transport inverse, the power-sum change of basis and
label-basis coordinates; the transport inverse as the annihilation
transport at (n, m) = (1, 2), (2, 2), (1, 3), (2, 3), and a singular mode's
typed error; the "word" bracket matrix against the two-stage series product
(an entry no atom reaches is the zero series) and the "label" and "class"
matrices against a running sum of scaled series over it at n = 1, 2; the
Heisenberg check against the single loop it
replaced at n = 1, 2, also on a perturbed dictionary, and its witnesses on
a wrong lattice commutator; the label-target
solver on hand-made systems; the mode-level solve against its frozen
output (tests/data); and the divisor operators at an exact specialization
against a lattice-state assembly at n = 1, 2; the commutation check and the three-point series
against the running series sums their numerator folds replaced, and its
integer atom-atom commutators against the scaled-numerator products they
replaced; spectrum_probe's dense square-free test against sympy's
Matrix.charpoly path; the DT/GW
change of variables q = -e^{iu} against sympy's series, on constant rationals
and on the rationality certificate of the divisor operator.  Also: the
Dictionary's memo table (each entry built once, under its own kind, and each
transport inverse built once by calibrate, with no transport inverted),
the weight tables of geometry-only matrices (each field built once per
(n, m)), each basis's frame (L R is the basis's pairing, diag(E) for the
fixed-point classes, whose state matrix D times Dinv is the identity; each
frame built once) at (n, m) = (1, 2), (2, 2), (1, 3), the class pairings
of the label words over the class norms against the inverse class matrix,
the series assembler on hand-made series (shared monomials added, a
cancelled entry kept), the divisor operators' entries (keys, windows,
q-floors) against the running sum they replaced at (1, 2), (2, 2), (1, 3)
on three windows, the self-adjointness
check on a perturbed off-diagonal entry, the point-basis pairing
diagonal in words and the norm check that relies on it against the
word-by-word double loop it replaced, the tangent Euler classes at weights
one and two, the creation-word state vectors against the e_act loop they
replaced, the refusal of a non-int m_max and of a geometry and a dictionary
or operator of different ranks, and spectrum_probe's need for a dictionary.
Each divisor atom's value at a point against sympy's derivative of its logs
at (n, m) = (1, 2), (2, 2), (1, 3); the vanishing and corner checks' counts
at n = 1, 2; three_point at (1, 2) against the direct contraction of the
divisor operator (two strict xfails on the sum rule, ROADMAP item 1(b)).
The closed-form Heisenberg embedding against the constraint solver, its oracle, at (n, m) = (1, 2), (2, 2), (1, 3): the solved tower and
the label atom matrices; and calibrate's typed refusal of a perturbed closed
form, of a non-constant or off-target top-weight label entry, and of n = 0.

The divisor-family commutation flag of ``spectrum_probe`` is not asserted: it
reads False at m = 2 (an open defect, the ROADMAP item "Land the commuting
divisor family").
"""
import copy
import functools
import json
from pathlib import Path

import pytest
import sympy

import andt.dictionary as dictionary
import andt.exact as exact
from andt.dictionary import (
    DEFAULT_WINDOW,
    CalibrationError,
    Dictionary,
    _AtomTargets,
    _arm_leg_product,
    _atom_class_matrix,
    _atom_value,
    _atoms,
    _classical_restriction,
    _classical_state_matrix,
    _closed_form_mode,
    _closed_form_tower,
    _divisor_atoms,
    _norm_agreement_check,
    _power_to_monomial_inverse,
    _solve_label_system,
    _solve_mode_level,
    _solve_mode_tower,
    _specialized_divisor,
    _transport_matrix,
    _weight,
    _word_state_vector,
    calibrate,
    cap,
    divisor_pair_commutes,
    factorization_check,
    fixed_point_vectors,
    gw_change_of_vars,
    heisenberg_embedding_check,
    hilb_tangent_euler,
    spectrum_probe,
    three_point,
    tube,
)
from andt.exact import (
    QQ,
    RF_ONE,
    RF_ZERO,
    QRational,
    QSSeries,
    RatFn,
    SingularMatrixError,
    Window,
    inverse,
    matmul,
    rref,
)
from andt.fock import (
    WeightedPartition,
    convert_labels,
    fixed_point_basis,
    nak_pairing,
    omega0_mode_matrices,
    unit_omega_basis,
    weighted_partition_basis,
)
from andt.partitions import Partition, partitions_of
from andt.surface import SurfaceGeometry
from andt.wedge import (
    apply_ops,
    e_act,
    omega_plus_terms,
    operator_matrix,
    theta_logatoms,
    vacuum,
    weight_basis,
)


@pytest.fixture(scope="module")
def dic():
    return calibrate(SurfaceGeometry(1), 2)


def test_calibration_report(dic):
    attempts = dic.report["attempts"]
    assert [(a["ansatz"], a["status"]) for a in attempts] == [
        ("diagonal", "failed"),
        ("color-mixing", "ok"),
    ]
    assert attempts[0]["kind"] == "singular-transport"
    assert dic.ansatz == "color-mixing"
    assert dic.mode_rule == "geometric"


def test_heisenberg_embedding(dic):
    assert heisenberg_embedding_check(dic)["ok"]


@pytest.mark.parametrize("m_max, kind", [(2.5, "float"), (2.0, "float"), (True, "bool"),
                                         ("2", "str"), (None, "NoneType")])
def test_calibrate_refuses_a_non_int_m_max(m_max, kind):
    with pytest.raises(TypeError, match=f"^m_max must be an int, not {kind}$"):
        calibrate(SurfaceGeometry(1), m_max)


def _hand_arm_leg_product(lam, wx, wy):
    """Reference: the arm/leg product with each box's arm and leg counted by
    hand from the rows, not read from Partition.hooks()."""
    rows = list(lam)
    e = RF_ONE
    for r, rl in enumerate(rows):
        for c in range(rl):
            arm = rl - c - 1
            leg = sum(1 for rr in range(r + 1, len(rows)) if rows[rr] > c)
            e = e * (wx * QQ(arm + 1) - wy * QQ(leg))
            e = e * (wx * QQ(-arm) + wy * QQ(leg + 1))
    return e


def test_hilb_tangent_euler_on_weight_one_and_two(dic):
    geom = dic.geom
    wL, wR = ([RatFn(f(k)) for k in (1, 2)] for f in (geom.wL, geom.wR))
    box, two, col = Partition((1,)), Partition((2,)), Partition((1, 1))
    assert hilb_tangent_euler([box, ()], geom) == wL[0] * wR[0]
    assert hilb_tangent_euler([(), box], geom) == wL[1] * wR[1]
    assert hilb_tangent_euler([box, box], geom) == wL[0] * wR[0] * wL[1] * wR[1]
    for k in (0, 1):
        x, y = wL[k], wR[k]
        comps = [[(), ()], [(), ()]]
        comps[0][k], comps[1][k] = two, col
        assert hilb_tangent_euler(comps[0], geom) == 2 * x * (y - x) * x * y
        assert hilb_tangent_euler(comps[1], geom) == 2 * y * (x - y) * x * y
    for mp in fixed_point_vectors(geom, 2):  # the pairing's norms agree
        assert hilb_tangent_euler(mp, geom) == dic.normalizations[mp]
    for m in range(1, 8):
        for lam in partitions_of(m):
            assert _arm_leg_product(lam, wL[0], wR[0]) == _hand_arm_leg_product(lam, wL[0], wR[0])


def test_transport_inverse(dic):
    T, _, _ = dic.transport(2)
    eye = [[RF_ONE if i == j else RF_ZERO for j in range(len(T))] for i in range(len(T))]
    assert matmul(T, dic.transport_inverse(2)) == eye


def _loop_word_state_vector(n, word, modes):
    """Reference: the creation word on the vacuum as an explicit loop over
    e_act, not through wedge.apply_current."""
    vec = {vacuum(n): RF_ONE}
    for (part, lab) in word.pairs:
        nxt = {}
        for st, coef in vec.items():
            for j in range(1, n + 2):
                u = modes[part][lab][j - 1]
                if u.is_zero:
                    continue
                for c2, s2 in e_act(n, j, j, -part, st):
                    add = coef * u * QQ(c2, part)
                    nxt[s2] = nxt[s2] + add if s2 in nxt else add
        vec = {s: c for s, c in nxt.items() if not c.is_zero}
    sign = QQ(-1) if word.weight % 2 else QQ(1)
    return {s: c * sign for s, c in vec.items()}


@pytest.mark.parametrize("n", [1, 2])
def test_word_state_vector_is_the_e_act_loop(n, dic, dic2):
    d = {1: dic, 2: dic2}[n]
    for w in weighted_partition_basis(2, n + 1):
        assert _word_state_vector(n, w, d.modes) == _loop_word_state_vector(n, w, d.modes)


def test_power_to_monomial_inverse():
    # m_11 = (p_1^2 - p_2) / 2 and m_2 = p_2
    p11, p2 = Partition((1, 1)), Partition((2,))
    assert _power_to_monomial_inverse(2) == {
        p11: {p11: QQ(1, 2), p2: QQ(-1, 2)},
        p2: {p2: QQ(1)},
    }


def test_label_basis_coords_round_trip():
    geom = SurfaceGeometry(1)
    classes = [geom.cls_one(), geom.cls_omega(1), geom.cls_E(1), geom.cls_point(2)]
    for basis in (unit_omega_basis(geom), fixed_point_basis(geom)):
        for cls in classes:
            coords = basis.coords(cls)
            for pt in range(geom.npoints):
                total = RF_ZERO
                for b, c in enumerate(coords):
                    total = total + c * basis.classes[b][pt]
                assert total == cls[pt]


def test_solvers_are_the_exact_kernel():
    assert dictionary.ratfn_solve is exact.solve
    assert dictionary.ratfn_inverse is exact.inverse


def _two_stage_bracket_matrix(d, m, window):
    """Reference: B = G . T^{-1} . Theta . T, atom by atom from
    theta_logatoms(n, m, window.qmax): P_a = T^{-1} . K_a . T with
    exact.matmul, then tau G[wi] P_a[wi][wj] times each coefficient of the
    atom's series, summed per (q, s) monomial.  The q-floor of an entry is
    the least q-floor of the nonempty atom series with P_a[wi][wj] nonzero;
    an entry with no such atom is None."""
    T, states, words = d.transport(m)
    Tinv = d.transport_inverse(m)
    G = [nak_pairing(w, w, fixed_point_basis(d.geom)) for w in words]
    tau = RatFn(exact.TAU)
    ns, nw = len(states), len(words)
    data = [[{} for _ in range(nw)] for _ in range(nw)]
    floors = [[[] for _ in range(nw)] for _ in range(nw)]
    for a, K in theta_logatoms(d.n, m, window.qmax).items():
        L = exact.log_atom_expand(d.n, window, *a)
        if not L.data:
            continue
        Kd = [[RF_ZERO] * ns for _ in range(ns)]
        for (r, c), v in K.items():
            Kd[r][c] = RatFn.const(v)
        P = matmul(Tinv, matmul(Kd, T))
        for wi in range(nw):
            for wj in range(nw):
                if P[wi][wj]:
                    floors[wi][wj].append(L.qfloor)
                    f, cell = tau * G[wi] * P[wi][wj], data[wi][wj]
                    for mon, c in L.data.items():
                        cell[mon] = cell.get(mon, RF_ZERO) + f * c
    return [[QSSeries(d.n, window, min(fl), data[wi][wj]) if fl else None
             for wj, fl in enumerate(row)] for wi, row in enumerate(floors)]


@pytest.fixture(scope="module")
def dic2():
    return calibrate(SurfaceGeometry(2), 2)


@pytest.mark.parametrize(
    "n, m, window, floors, scalars, unreached",
    [
        pytest.param(1, 1, DEFAULT_WINDOW, {0}, 3, 0, id="1-1"),
        pytest.param(1, 2, DEFAULT_WINDOW, {-3}, 2, 0, id="1-2"),
        # 9 of the 12 atoms are k Id
        pytest.param(2, 1, DEFAULT_WINDOW, {0}, 9, 0, id="2-1"),
        # the largest engine the operators benchmark builds; the entries that
        # no k <= -2 atom reaches have the floor -1 of the k = -1 atoms
        pytest.param(2, 2, DEFAULT_WINDOW, {-3, -1}, 6, 0, id="2-2"),
        # qmax above DEFAULT_WINDOW's: the q^4 s and q^5 s vacuum terms count
        pytest.param(1, 1, Window(-3, 5, 2), {0}, 5, 0, id="1-1-qmax5"),
        # only q^0: 12 of the 25 entries have no atom with a term there
        pytest.param(1, 2, Window(0, 0, 1), {0}, 0, 12, id="1-2-narrow"),
    ],
)
def test_bracket_matrix_matches_two_stage_product(n, m, window, floors, scalars, unreached,
                                                  dic, dic2, monkeypatch):
    d = {1: dic, 2: dic2}[n]
    want = _two_stage_bracket_matrix(d, m, window)
    # a fresh engine, so that bracket_matrix runs under the spy: no scalar
    # atom k Id reaches the fraction-free product, every other one with a
    # nonempty series does
    engine = dictionary.BracketEngine(d, m, window)
    size = len(_weight(n, m).G)

    def is_scalar(K):
        return set(K) == {(r, r) for r in range(size)} and len(set(K.values())) == 1

    assert sum(map(is_scalar, engine.theta.values())) == scalars
    sandwich, seen = dictionary._sandwich, []
    monkeypatch.setattr(dictionary, "_sandwich", lambda A, K, B: seen.append(K) or sandwich(A, K, B))
    got = engine.bracket_matrix()
    monkeypatch.undo()
    assert seen == [K for a, K in engine.theta.items()
                    if not is_scalar(K) and exact.log_atom_expand(n, window, *a).data]
    pairs = [(x, y) for gr, wr in zip(got, want) for x, y in zip(gr, wr)]
    assert {x.qfloor for x, y in pairs if y is not None} == floors
    # an entry that no atom reaches is the zero series, never None
    zero = QSSeries.zero(n, window)
    assert sum(y is None for _x, y in pairs) == unreached
    for x, y in pairs:
        y = zero if y is None else y
        assert (x.data, x.window, x.qfloor) == (y.data, y.window, y.qfloor)
    if window.qmax > 3:
        assert any(q > 3 for y in want[0] if y is not None for (q, _) in y.data)


def _reference_bracket(engine, bra_vec, ket_vec):
    """Reference: the bracket as a running sum of scaled series over the
    entries of the "word" bracket matrix."""
    B = engine.bracket_matrix()
    widx = {w: i for i, w in enumerate(weighted_partition_basis(engine.m, engine.n + 1))}
    tot = QSSeries.zero(engine.n, engine.window)
    for wb, cb in bra_vec.items():
        if cb.is_zero:
            continue
        for wk, ck in ket_vec.items():
            if ck.is_zero:
                continue
            tot = tot + B[widx[wb]][widx[wk]].scale(cb * ck)
    return tot


@pytest.mark.parametrize("n, m, window", [
    pytest.param(1, 2, DEFAULT_WINDOW, id="1-2"),
    pytest.param(2, 1, DEFAULT_WINDOW, id="2-1"),
    pytest.param(2, 2, DEFAULT_WINDOW, id="2-2"),
    pytest.param(1, 2, Window(0, 2, 1), id="1-2-narrow"),
    # qmax above DEFAULT_WINDOW's: the vacuum atoms with k = 4, 5 count
    pytest.param(1, 2, Window(-3, 5, 2), id="1-2-qmax5"),
])
def test_bracket_matches_sum_of_scaled_series(n, m, window, dic, dic2):
    # the "label" and "class" matrices against the running sum over the
    # "word" matrix, with the label words and the classes in point-word
    # coordinates built here, not read from the weight's table
    d = {1: dic, 2: dic2}[n]
    engine = d.engine(m, window)
    ob, fb = unit_omega_basis(d.geom), fixed_point_basis(d.geom)
    words = weighted_partition_basis(m, n + 1)
    bases = {"label": [convert_labels({w: RF_ONE}, ob, fb) for w in words],
             "class": list(fixed_point_vectors(d.geom, m).values())}
    for basis, vecs in bases.items():
        got = engine.bracket_matrix(basis)
        assert got is engine.bracket_matrix(basis)
        assert len(got) == len(vecs) and any(x.data for row in got for x in row)
        for x, row in zip(vecs, got):
            for y, ser in zip(vecs, row):
                want = _reference_bracket(engine, x, y)
                assert (ser.data, ser.window) == (want.data, want.window)
        if window.qmax > 3:
            assert any(q > 3 for row in got for x in row for q, _ in x.data)
    with pytest.raises(ValueError, match="unknown basis 'point'"):
        engine.bracket_matrix("point")


def _reference_heisenberg(dic, m_check, kmax):
    """Reference: the Heisenberg check as one loop over (k, state, a, b) that
    applies e_act and multiplies RatFn for every pair.  Returns ok, checked
    and every failing (k, a, b, state) in the order found."""
    n = dic.n
    npts = n + 1
    failing = []
    checked = 0
    for k in range(1, kmax + 1):
        U = dic.mode_matrix(k)
        V = dic.annihilation_matrix(k)
        for m in range(0, m_check + 1):
            for st0 in weight_basis(n, m):
                for a in range(npts):
                    for b in range(npts):
                        down_up: dict = {}
                        for jj in range(npts):
                            u = U[b][jj]
                            if u.is_zero:
                                continue
                            for c1, s1 in e_act(n, jj + 1, jj + 1, -k, st0):
                                for ii in range(npts):
                                    v = V[a][ii]
                                    if v.is_zero:
                                        continue
                                    for c2, s2 in e_act(n, ii + 1, ii + 1, k, s1):
                                        f = u * v * QQ(c1 * c2)
                                        down_up[s2] = down_up.get(s2, RF_ZERO) + f
                        up_down: dict = {}
                        for ii in range(npts):
                            v = V[a][ii]
                            if v.is_zero:
                                continue
                            for c1, s1 in e_act(n, ii + 1, ii + 1, k, st0):
                                for jj in range(npts):
                                    u = U[b][jj]
                                    if u.is_zero:
                                        continue
                                    for c2, s2 in e_act(n, jj + 1, jj + 1, -k, s1):
                                        f = u * v * QQ(c1 * c2)
                                        up_down[s2] = up_down.get(s2, RF_ZERO) + f
                        expect = RF_ZERO
                        if a == b:
                            expect = RatFn.const(QQ(-k)) * dic.point_euler(a + 1)
                        for s in set(down_up) | set(up_down) | {st0}:
                            got = down_up.get(s, RF_ZERO) - up_down.get(s, RF_ZERO)
                            checked += 1
                            if got != (expect if s == st0 else RF_ZERO):
                                case = (k, a, b, m, repr(st0))
                                if case not in failing:
                                    failing.append(case)
        if failing:
            break
    return not failing, checked, failing


def _assert_heisenberg_matches_reference(d, kmax):
    report = heisenberg_embedding_check(d, kmax=kmax)
    ok, checked, failing = _reference_heisenberg(d, 2, kmax)
    assert (report["ok"], report["checked"]) == (ok, checked)
    assert report["witnesses"] == [
        {"k": k, "a": a, "b": b, "state-weight": m, "state": st} for k, a, b, m, st in failing[:3]
    ]
    return report


@pytest.mark.parametrize("kmax", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_heisenberg_check_matches_reference_loop(n, kmax, dic, dic2):
    report = _assert_heisenberg_matches_reference({1: dic, 2: dic2}[n], kmax)
    assert report["ok"]
    assert report["checked"] == {(1, 2): 125, (1, 3): 157, (2, 2): 810, (2, 3): 927}[(n, kmax)]


@pytest.mark.parametrize("kmax, error, match", [
    (0, ValueError, "kmax = 0 must be at least 1"),
    (-1, ValueError, "kmax = -1 must be at least 1"),
    (2.0, TypeError, "kmax must be an int, not float 2.0"),
    (True, TypeError, "kmax must be an int, not bool True"),
])
def test_heisenberg_check_refuses_a_kmax_that_is_not_a_positive_int(kmax, error, match, dic):
    # kmax = 0 used to report a pass with nothing checked
    with pytest.raises(error, match=match):
        heisenberg_embedding_check(dic, kmax=kmax)


@pytest.mark.parametrize("n", [1, 2])
def test_heisenberg_check_fails_on_a_perturbed_dictionary(n, dic, dic2):
    bad = copy.copy({1: dic, 2: dic2}[n])
    V = [list(row) for row in bad.annihilation_matrix(1)]
    jj = next(j for j, v in enumerate(V[0]) if v)
    V[0][jj] = V[0][jj] * 2
    bad._memo = {("annihilation", 1): V}
    report = _assert_heisenberg_matches_reference(bad, 3)
    assert not report["ok"]
    ws = report["witnesses"]
    assert ws and len({(w["k"], w["a"], w["b"], w["state"]) for w in ws}) == len(ws)


def test_heisenberg_check_fails_on_a_wrong_lattice_commutator(dic, monkeypatch):
    # [e_11(1), e_11(-1)] off by one on the vacuum: every (a, b) that reaches
    # it through V[a][0] U[b][0] fails there, as in the reference's products
    real = dictionary._lattice_commutator

    def bent(n, ii, jj, k, st0):
        vec = real(n, ii, jj, k, st0)
        if (ii, jj, k, st0) == (0, 0, 1, vacuum(n)):
            vec[st0] = vec.get(st0, 0) + 1
        return vec

    monkeypatch.setattr(dictionary, "_lattice_commutator", bent)
    report = heisenberg_embedding_check(dic, kmax=1)
    V, U = dic.annihilation_matrix(1), dic.mode_matrix(1)
    assert not report["ok"] and report["witnesses"] == [
        {"k": 1, "a": a, "b": b, "state-weight": 0, "state": repr(vacuum(1))}
        for a in range(2) for b in range(2) if V[a][0] and U[b][0]][:3]


def _memoized_accessors(d, m):
    """{kind: a call of the accessor that memoizes under that kind}."""
    tags = _divisor_atoms(d, m, "D")
    itag = next(t for t in tags if t[0] != "mode")
    return {
        "annihilation": lambda: d.annihilation_matrix(m),
        "transport": lambda: d.transport(m),
        "transport_inverse": lambda: d.transport_inverse(m),
        "frame": lambda: d.frame(m, "class"),
        "fixed_point_state": lambda: d.fixed_point_state_matrix(m),
        "engine": lambda: d.engine(m),
        "divisor": lambda: dictionary.m_divisor("D", m, DEFAULT_WINDOW, d.geom, d),
        "atoms": lambda: _atoms(d, m),
        "atom_class": lambda: _atom_class_matrix(d, m, itag),
        "classical_state": lambda: _classical_state_matrix(d, m, "D"),
    }


def test_memo_builds_each_entry_once_under_its_own_kind(dic):
    d = copy.copy(dic)
    d._memo = {}
    calls = _memoized_accessors(d, 2)
    first = {kind: call() for kind, call in calls.items()}
    assert all(call() is first[kind] for kind, call in calls.items())
    # every kind has its own entries, and no two entries share an object
    assert {key[0] for key in d._memo} == set(calls)
    assert len({id(v) for v in d._memo.values()}) == len(d._memo)
    assert all(any(v is first[k] for v in d._memo.values()) for k in calls)


def test_dressing_modes_are_built_once_per_dictionary_and_weight(dic, monkeypatch):
    # M_D, the spectrum probe and the commutation check all read the dressing
    # modes from the one atom table
    d = copy.copy(dic)
    d._memo = {}
    built = []
    real = dictionary.omega0_mode_matrices
    monkeypatch.setattr(dictionary, "omega0_mode_matrices",
                        lambda geom, m, basis: built.append(m) or real(geom, m, basis))
    dictionary.m_divisor("D", 2, DEFAULT_WINDOW, d.geom, d)
    dictionary.m_divisor("D", 2, Window(-6, 6, 2), d.geom, d)
    spectrum_probe(2, d.geom, 1, d)
    divisor_pair_commutes(d, 2, 1)
    assert built == [2]


def test_m_divisor_reads_no_window_as_the_default(dic):
    d = copy.copy(dic)
    d._memo = {}
    op = dictionary.m_divisor("D", 2, None, d.geom, d)
    assert op is dictionary.m_divisor("D", 2, DEFAULT_WINDOW, d.geom, d)
    assert op.matrix.window == DEFAULT_WINDOW
    assert [key[3] for key in d._memo if key[0] == "divisor"] == [DEFAULT_WINDOW]


@pytest.fixture
def fresh_weights():
    """Clear the weight tables before and after a test that patches one of
    their builders, so that no table built under the patch outlives it."""
    _weight.cache_clear()
    yield
    _weight.cache_clear()


def test_label_tables_are_built_once_per_weight(monkeypatch, fresh_weights):
    # calibrate, a second calibration of the same rank and the checks share
    # one table per (n, m)
    built = []
    fields = [name for name, v in vars(dictionary._Weight).items()
              if isinstance(v, functools.cached_property)]
    for name in fields:
        real = vars(dictionary._Weight)[name].func

        def spy(table, name=name, real=real):
            built.append((name, table.n, table.m))
            return real(table)
        prop = functools.cached_property(spy)
        prop.__set_name__(dictionary._Weight, name)
        monkeypatch.setattr(dictionary._Weight, name, prop)
    geom = SurfaceGeometry(1)
    d = calibrate(geom, 2)
    calibrate(geom, 2)
    factorization_check(d, 2)
    dictionary.m_divisor("D", 2, DEFAULT_WINDOW, geom, d)
    three_point([(1, 0), (1, 1)], "D", [(2, 1)], geom=geom, dic=d)
    assert len(built) == len(set(built))
    assert {name for name, _n, m in built if m == 2} == set(fields)


@pytest.mark.parametrize("n, m", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_point_basis_pairing_is_diagonal_in_words(n, m):
    # the norm check pairs classes through the diagonal G alone
    words = weighted_partition_basis(m, n + 1)
    fb = fixed_point_basis(SurfaceGeometry(n))
    for i, w1 in enumerate(words):
        assert not nak_pairing(w1, w1, fb).is_zero
        for w2 in words[i + 1:]:
            assert nak_pairing(w1, w2, fb).is_zero and nak_pairing(w2, w1, fb).is_zero


def _double_loop_norm_check(geom, m_max):
    """Reference: the norm check as a word-by-word double loop over the
    point-basis pairing, before it paired through the diagonal G."""
    fb = fixed_point_basis(geom)

    def pair(vec1, vec2):
        tot = RF_ZERO
        for w1, c1 in vec1.items():
            for w2, c2 in vec2.items():
                p = nak_pairing(w1, w2, fb)
                if not p.is_zero:
                    tot = tot + p * c1 * c2
        return tot

    failures = []
    checked = 0
    norms = {}
    for m in range(1, m_max + 1):
        fpv = fixed_point_vectors(geom, m)
        mps = list(fpv)
        for i, mp in enumerate(mps):
            want = hilb_tangent_euler(mp, geom)
            got = pair(fpv[mp], fpv[mp])
            norms[mp] = got
            checked += 1
            if got != want:
                failures.append({"class": repr(mp), "kind": "norm"})
            for mp2 in mps[i + 1:]:
                checked += 1
                if not pair(fpv[mp], fpv[mp2]).is_zero:
                    failures.append({"pair": (repr(mp), repr(mp2)), "kind": "cross"})
    return {"ok": not failures, "checked": checked, "witnesses": failures[:3],
            "norms": norms}


@pytest.mark.parametrize("n, m_max", [(2, 3), (3, 2)])
def test_norm_check_is_the_double_loop(n, m_max):
    geom = SurfaceGeometry(n)
    got = _norm_agreement_check(geom, m_max)
    assert got == _double_loop_norm_check(geom, m_max)
    assert got["ok"] and got["checked"] and len(got["norms"]) == sum(
        len(fixed_point_vectors(geom, m)) for m in range(1, m_max + 1))


def test_atom_table_refuses_a_dressing_mode_that_does_not_intertwine(dic, monkeypatch):
    # a halved fock mode breaks T M_k = K_k T against the lattice pair sum
    d = copy.copy(dic)
    d._memo = {}
    real = dictionary.omega0_mode_matrices
    monkeypatch.setattr(dictionary, "omega0_mode_matrices", lambda geom, m, basis: {
        k: {rc: v * QQ(1, 2) for rc, v in M.items()} for k, M in real(geom, m, basis).items()})
    with pytest.raises(ArithmeticError, match="dressing mode 2 at weight 2"):
        _atoms(d, 2)


@pytest.mark.parametrize("n, m", [(1, 2), (2, 2), (1, 3), (2, 3)])
def test_transport_inverse_is_the_annihilation_transport(n, m):
    # T_V^T T = (-1)^m diag(G), with T_V the transport through the V_k
    d = Dictionary(SurfaceGeometry(n), m)
    T = d.transport(m)[0]
    TV = _transport_matrix(n, m, {k: d.annihilation_matrix(k) for k in range(1, m + 1)})[0]
    G = _weight(n, m).G
    sign = -1 if m % 2 else 1
    want = [[G[i] * sign if i == j else RF_ZERO for j in range(len(T))] for i in range(len(T))]
    assert matmul([list(col) for col in zip(*TV)], T) == want
    assert d.transport_inverse(m) == inverse(T)


@pytest.mark.parametrize("n, m", [(1, 2), (2, 2), (1, 3)])
def test_frames_read_the_pairing_of_each_basis(n, m):
    # L R = V^T G V, the class frame's is diag(E), and D Dinv = Id
    d = Dictionary(SurfaceGeometry(n), m)
    wt = _weight(n, m)
    size = len(wt.G)
    eye = [[RF_ONE if i == j else RF_ZERO for j in range(size)] for i in range(size)]
    for basis, V in (("word", eye), ("label", wt.X), ("class", wt.C)):
        frame = d.frame(m, basis)
        assert d.frame(m, basis) is frame
        VtG = [[g * x for g, x in zip(wt.G, col)] for col in zip(*V)]
        assert matmul(*frame) == matmul(VtG, V)
    assert matmul(*d.frame(m, "class")) == [
        [e if i == j else RF_ZERO for j in range(size)] for i, e in enumerate(wt.E)]
    D, Dinv, mps = d.fixed_point_state_matrix(m)
    assert mps == wt.mps and matmul(D, Dinv) == eye
    with pytest.raises(ValueError, match="unknown basis 'point'"):
        d.frame(m, "point")
    assert [key for key in d._memo if key[0] == "frame"] == [
        ("frame", m, basis) for basis in ("word", "label", "class")]


@pytest.mark.parametrize("n, m", [(1, 2), (2, 2)])
def test_word_class_coordinates_are_the_inverse_class_matrix_on_the_label_word(n, m):
    # the class pairings C^T G x of each label word, divided by the class norms
    wt = _weight(n, m)
    Cinv = inverse(wt.C)
    for c, w in enumerate(wt.words):
        want = [x for (x,) in matmul(Cinv, [[row[c]] for row in wt.X])]
        assert [p / e for p, e in zip(dictionary._class_pairings(n, w, m), wt.E)] == want


def test_calibrate_builds_each_transport_inverse_once_without_inverting_a_transport(
        monkeypatch, fresh_weights):
    inverted, built = [], []
    transport = dictionary._transport_matrix

    def spy_inverse(M):
        inverted.append(M)
        return inverse(M)

    def spy_transport(n, m, modes):
        built.append(modes)
        return transport(n, m, modes)

    monkeypatch.setattr(dictionary, "inverse", spy_inverse)
    monkeypatch.setattr(dictionary, "_transport_matrix", spy_transport)
    d = calibrate(SurfaceGeometry(1), 2)
    for m in (1, 2):
        T = d.transport(m)[0]
        assert not any(M == T for M in inverted)
        # one transport through the annihilation matrices per weight
        assert sum(len(modes) == m and all(modes[k] is d.annihilation_matrix(k) for k in modes)
                   for modes in built) == 1

    def refuse(*_args):
        raise AssertionError("built again")

    monkeypatch.setattr(dictionary, "inverse", refuse)
    monkeypatch.setattr(dictionary, "_transport_matrix", refuse)
    for m in (1, 2):
        T = d.transport(m)[0]
        eye = [[RF_ONE if i == j else RF_ZERO for j in range(len(T))] for i in range(len(T))]
        assert matmul(T, d.transport_inverse(m)) == eye


def test_a_singular_mode_has_no_annihilation_matrix():
    # n = 0: the closed form gives U_1 = [[0]]
    d = Dictionary(SurfaceGeometry(0), 2)
    for call in (lambda: d.annihilation_matrix(1), lambda: d.transport_inverse(2)):
        with pytest.raises(SingularMatrixError, match="U_1 is singular"):
            call()


def _full_rref_solution(rows, ncols):
    reduced, pivots, _ = rref(rows, ncols)
    vals = [QQ(0)] * ncols
    for r, col in enumerate(pivots):
        vals[col] = reduced[r][ncols]
    return vals, [c for c in range(ncols) if c not in pivots]


def _tall_system(coeffs, x):
    """Rows [a, a . x] for each coefficient row a."""
    return [[QQ(a) for a in row] + [sum(QQ(a) * v for a, v in zip(row, x))] for row in coeffs]


def test_label_system_full_rank_solves_selected_rows():
    # tall, consistent, with proportional rows as repeated sample points give
    coeffs = [[1, 2, 0], [2, 4, 0], [0, 1, -1], [3, 0, 1], [0, 2, -2], [1, 1, 1]]
    x = [QQ(1, 2), QQ(-3), QQ(5, 7)]
    rows = _tall_system(coeffs, x)
    vals, free = _solve_label_system(rows, 3, list(range(len(rows))), 2)
    assert (vals, free) == _full_rref_solution(rows, 3) == (x, [])


def test_label_system_inconsistent_raises():
    coeffs = [[1, 0], [0, 1], [1, 1], [2, 1]]
    rows = _tall_system(coeffs, [QQ(1), QQ(2)])
    rows[3][2] += 1  # the last condition contradicts the others
    with pytest.raises(RuntimeError, match=r"label-target system inconsistent at weight 2: \[3\]"):
        _solve_label_system(rows, 2, list(range(len(rows))), 2)


def test_label_system_rank_deficient_takes_full_path(monkeypatch):
    # column 1 is twice column 0, so one of them stays free
    coeffs = [[1, 2, 0], [0, 0, 1], [2, 4, 3], [1, 2, 1]]
    rows = _tall_system(coeffs, [QQ(1), QQ(1), QQ(-1)])
    calls = []
    monkeypatch.setattr(dictionary, "rref", lambda *a: calls.append(a) or rref(*a))
    vals, free = _solve_label_system(rows, 3, list(range(len(rows))), 2)
    assert calls
    assert (vals, free) == _full_rref_solution(rows, 3)
    assert free == [1]


def _mode_level_snapshot():
    """{case: {"sol", "nulls", "residuals"}} as ordered string pairs, from a
    fresh _AtomTargets; weight 2 takes the colour-mixing weight-1 modes as
    the known lower modes."""
    out = {}
    for n, ms in ((1, (1, 2)), (2, (1,))):
        geom = SurfaceGeometry(n)
        targets = _AtomTargets(geom)
        targets.solve(max(ms))
        for m in ms:
            known = _solve_mode_tower(geom, m - 1, targets) if m > 1 else {}
            for diag in (True, False):
                sol, nulls, residuals = _solve_mode_level(
                    n, m, known, targets, diagonal_only=diag
                )
                out[f"n={n} m={m} {'diagonal' if diag else 'color-mixing'}"] = {
                    "sol": [[str(k), str(v)] for k, v in sol.items()],
                    "nulls": [[[str(k), str(v)] for k, v in vec.items()] for vec in nulls],
                    "residuals": [[str(t), str(v)] for t, v in residuals],
                }
    return out


def test_mode_level_reproduces_the_frozen_solution():
    # frozen from the solve over affine entries that the fraction-free column
    # blocks replaced: same unknown order, pivots, nullspace and residual tags
    path = Path(__file__).parent / "data" / "mode_level_oracle.json"
    assert _mode_level_snapshot() == json.loads(path.read_text())


@pytest.mark.parametrize("n, m", [(1, 2), (2, 2), (1, 3)])
def test_closed_form_tower_is_the_solved_tower(n, m):
    # the constraint solver is the oracle: its colour-mixing tower is the
    # closed form at every level, and the label atom matrices the closed form
    # implies are the ones it solves for, atom by atom
    geom = SurfaceGeometry(n)
    solver = _AtomTargets(geom)
    solved = _solve_mode_tower(geom, m, solver)
    assert solved == {k: _closed_form_mode(geom, k) for k in range(1, m + 1)}
    labels = _closed_form_tower(Dictionary(geom, m))
    assert labels.keys() == solver.solved.keys()
    for mm, atoms in labels.items():
        assert atoms.keys() == solver.solved[mm].keys()
        for atom, N in atoms.items():
            assert N == solver.solved[mm][atom], (mm, atom)
    assert any(labels[m].values())


def test_modes_past_the_calibrated_range_follow_the_closed_form(dic):
    for k in (3, 4):
        assert dic.mode_matrix(k) == _closed_form_mode(dic.geom, k)


def _refused_attempt(geom: SurfaceGeometry, kind: str, level: int) -> dict:
    """The failed colour-mixing attempt of ``calibrate(geom, 2)``, which must
    raise CalibrationError for the check ``kind`` at weight ``level``."""
    with pytest.raises(CalibrationError) as info:
        calibrate(geom, 2)
    report = info.value.report
    assert report["summary"] == (
        f"the closed-form embedding fails its {kind} check at weight {level}")
    attempt = report["attempts"][-1]
    assert (attempt["ansatz"], attempt["status"]) == ("color-mixing", "failed")
    assert (attempt["kind"], attempt["level"]) == (kind, level)
    assert attempt["witnesses"]
    return attempt


def test_calibrate_refuses_a_perturbed_closed_form_entry(monkeypatch):
    closed = dictionary._closed_form_mode

    def perturbed(geom, k):
        U = closed(geom, k)
        if k == 2:
            U[0][1] = U[0][1] * 3
        return U

    monkeypatch.setattr(dictionary, "_closed_form_mode", perturbed)
    attempt = _refused_attempt(SurfaceGeometry(1), "ansatz-structure", 2)
    assert attempt["violated_constraint"] == "(c) corner/channel target equations"
    # an entry the ansatz pins to zero is not zero
    assert attempt["witnesses"][0]["expected"] == "0"
    assert attempt["witnesses"][0]["value"] != "0"


def _label_atom_matrices_with(monkeypatch, bend):
    """Patch the label atom matrices at weight 2: bend(labels) edits them in
    place."""
    derive = dictionary._label_atom_matrices

    def patched(dic, m):
        labels = derive(dic, m)
        if m == 2:
            bend(labels)
        return labels

    monkeypatch.setattr(dictionary, "_label_atom_matrices", patched)


def _pure_omega_entry(labels: dict) -> tuple:
    """(atom, word pair) of the first nonzero pure-omega entry."""
    return next(
        (atom, pair) for atom, N in labels.items() for pair in N
        if all(lab != 0 for w in pair for _, lab in w.pairs)
    )


def test_calibrate_refuses_a_non_constant_top_weight_entry(monkeypatch):
    def bend(labels):
        atom, pair = _pure_omega_entry(labels)
        labels[atom][pair] = labels[atom][pair] + RatFn(exact.T1) / exact.T2

    _label_atom_matrices_with(monkeypatch, bend)
    attempt = _refused_attempt(SurfaceGeometry(1), "ansatz-structure", 2)
    assert [w["expected"] for w in attempt["witnesses"]] == ["symmetric rational constant"]


def test_calibrate_refuses_a_top_weight_constant_off_its_targets(monkeypatch):
    def bend(labels):
        atom, (w1, w2) = _pure_omega_entry(labels)
        N = labels[atom]
        N[(w1, w2)] = N[(w2, w1)] = N[(w1, w2)] * 2  # still symmetric and constant

    _label_atom_matrices_with(monkeypatch, bend)
    attempt = _refused_attempt(SurfaceGeometry(1), "target-conditions", 2)
    assert all(w["value"] != w["target"] for w in attempt["witnesses"])


def test_calibrate_refuses_rank_zero_with_a_singular_transport():
    # n = 0 has no interval atoms; the closed form gives U_1 = [[0]]
    attempt = _refused_attempt(SurfaceGeometry(0), "singular-transport", 1)
    assert attempt["violated_constraint"] == "(b) invertible weight-one basis change"
    assert attempt["witnesses"][0]["mode"] == [["0"]]


def _lattice_state_divisor(dic, m, which, t1, t2, q0, svals):
    """Reference: (full, corr, D0) with the divisor operator assembled at the
    specialization in lattice-state coordinates.  The classical diagonal is
    conjugated in by D0, the fixed-point classes in state coordinates, and
    each dressing mode by T0, the transport; D0 and T0 are inverted at the
    point."""
    D, _, mps = dic.fixed_point_state_matrix(m)
    nd = len(D)
    D0 = [[v.substitute_all(t1, t2) for v in row] for row in D]
    if which == "D" and m <= 1:
        cvals = [QQ(0)] * nd
    else:
        cvals = [_classical_restriction(which, mp, dic.geom).substitute_all(t1, t2)
                 for mp in mps]
    cl = matmul([[D0[r][c] * cvals[c] for c in range(nd)] for r in range(nd)], inverse(D0))
    corr = [[QQ(0)] * nd for _ in range(nd)]
    tau0 = t1 + t2
    kind = "q" if which == "D" else "s"
    for (k, i, j), kmat in omega_plus_terms(dic.n, m).items():
        if which != "D" and not i <= which[1] < j:
            continue
        val = tau0 * _atom_value((k, i, j), q0, svals, kind)
        for (r, c), v in kmat.items():
            corr[r][c] += val * v
    if which == "D" and m >= 2:
        T, _, _ = dic.transport(m)
        T0 = [[v.substitute_all(t1, t2) for v in row] for row in T]
        for k, mat in omega0_mode_matrices(dic.geom, m, fixed_point_basis(dic.geom)).items():
            val = tau0 * _atom_value(("mode", k), q0, svals, "q")
            mat0 = [[QQ(0)] * nd for _ in range(nd)]
            for (r, c), v in mat.items():
                mat0[r][c] = v.substitute_all(t1, t2) * val
            corr_k = matmul(matmul(T0, mat0), inverse(T0))
            corr = [[x + y for x, y in zip(a, b)] for a, b in zip(corr, corr_k)]
    full = [[x + y for x, y in zip(a, b)] for a, b in zip(cl, corr)]
    return full, corr, D0


SPECIALIZATIONS = [
    (QQ(3, 2), QQ(-5, 3), QQ(2, 11), [QQ(1, 7), QQ(3, 10)]),
    (QQ(7), QQ(4, 5), QQ(-3, 13), [QQ(2, 9), QQ(5, 6)]),
]


@pytest.mark.parametrize("point", SPECIALIZATIONS)
@pytest.mark.parametrize("n", [1, 2])
def test_specialized_divisor_is_the_lattice_state_assembly_in_class_basis(n, point, dic, dic2):
    d = {1: dic, 2: dic2}[n]
    t1, t2, q0, svals = point
    for which in ["D"] + [("omega", i) for i in range(1, n + 1)]:
        full, corr = _specialized_divisor(d, 2, which, t1, t2, q0, svals[:n])
        ref_full, ref_corr, D0 = _lattice_state_divisor(d, 2, which, t1, t2, q0, svals[:n])
        D0inv = inverse(D0)
        assert matmul(matmul(D0inv, ref_full), D0) == full
        assert matmul(matmul(D0inv, ref_corr), D0) == corr
        assert any(v != 0 for row in corr for v in row)


def test_spectrum_probe_retries_where_fixed_point_classes_degenerate(dic2):
    # seed 132's first point has t2 = 2 t1, where the fixed-point class matrix
    # in state coordinates is singular and the class-basis atom matrices have
    # poles
    report = spectrum_probe(2, SurfaceGeometry(2), 132, dic2)
    assert report["attempts"] == 2
    assert report["dimension"] == 9


def _charpoly_squarefree_via_matrix(M) -> bool:
    """The square-free test as spectrum_probe ran it through sympy's
    expression layer: Matrix.charpoly in a Symbol, then gcd(p, p') of a Poly."""
    Mq = sympy.Matrix([[sympy.Rational(int(v.numerator), int(v.denominator)) for v in row]
                       for row in M])
    lam = sympy.Symbol("x")
    p = sympy.Poly(Mq.charpoly(lam).as_expr(), lam)
    return sympy.degree(sympy.gcd(p, p.diff(lam)), lam) == 0


@pytest.mark.parametrize("n, seeds, retries", [(1, range(50), set()),
                                              (2, [*range(50), 132], {37, 132})])
def test_spectrum_probe_matches_the_matrix_charpoly_path(n, seeds, retries, dic, dic2,
                                                         monkeypatch):
    # every matrix the dense test sees gets the expression-layer answer too;
    # seeds 37 and 132 at n = 2 retry.  At m = 2 the quantum part has a repeated
    # zero eigenvalue, so every report here reads False: the unit case below
    # covers True
    d = {1: dic, 2: dic2}[n]
    dense, seen = dictionary._charpoly_squarefree, []

    def both(M):
        seen.append((dense(M), _charpoly_squarefree_via_matrix(M)))
        return seen[-1][0]

    monkeypatch.setattr(dictionary, "_charpoly_squarefree", both)
    for seed in seeds:
        del seen[:]
        report = spectrum_probe(2, d.geom, seed, d)
        assert len(seen) == 1 and seen[0][0] == seen[0][1]
        assert report["charpoly_squarefree"] is report["distinct_eigenvalues"] is seen[0][1]
        assert report["joint_eigenspace_dims"] == ([1] * report["dimension"] if seen[0][1]
                                                   else None)
        assert report["attempts"] == (2 if seed in retries else 1)


@pytest.mark.parametrize(
    "M, squarefree",
    [
        # a Jordan block: the eigenvalue 2 twice
        ([[2, 1], [0, 2]], False),
        ([[QQ(1, 2), 0, 0], [0, QQ(1, 2), 0], [0, 0, 3]], False),
        # distinct eigenvalues, two of them irrational (x^2 - x - 1)
        ([[0, 1, 0], [1, 1, 0], [0, 0, QQ(-7, 3)]], True),
        ([[QQ(5)]], True),
    ],
)
def test_charpoly_squarefree(M, squarefree):
    M = [[QQ(v) for v in row] for row in M]
    assert dictionary._charpoly_squarefree(M) is squarefree
    assert _charpoly_squarefree_via_matrix(M) is squarefree


@pytest.fixture(scope="module")
def dic13():
    return calibrate(SurfaceGeometry(1), 3)


def test_spectrum_probe_needs_a_dictionary(dic13):
    # there is no module-level calibration cache to fall back on
    with pytest.raises(TypeError, match="dic"):
        spectrum_probe(3, SurfaceGeometry(1), 1)
    report = spectrum_probe(3, SurfaceGeometry(1), 1, dic13)
    assert (report["m"], report["dimension"]) == (3, 10)


@pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (2, 2)])
def test_omega0_modes_transport_to_the_lattice_dressing_modes(n, m, dic, dic2, dic13):
    # T . omega0_mode_matrices(k) . T^{-1} = sum_a e_aa(-k) e_aa(k), with T
    # the transport of point-labelled words into lattice states
    d = {(1, 2): dic, (1, 3): dic13, (2, 2): dic2}[(n, m)]
    T, _, words = d.transport(m)
    modes = omega0_mode_matrices(d.geom, m, fixed_point_basis(d.geom))
    assert set(modes) == set(range(2, m + 1))
    for k, mat in modes.items():

        def dressing(vec, k=k):
            out: dict = {}
            for a in range(1, n + 2):
                for st, c in apply_ops(n, [(a, a, -k), (a, a, k)], vec).items():
                    out[st] = out.get(st, 0) + c
            return {st: c for st, c in out.items() if c}

        lattice = operator_matrix(n, m, dressing)
        nw = len(words)
        M = [[mat.get((r, c), RF_ZERO) for c in range(nw)] for r in range(nw)]
        want = [[RatFn.const(lattice.get((r, c), 0)) for c in range(nw)] for r in range(nw)]
        assert any(v for row in want for v in row)
        assert matmul(matmul(T, M), d.transport_inverse(m)) == want, k
        # the atom table holds the same matrix, the lattice pair sum, with int entries
        assert _atoms(d, m)[("mode", k)] == lattice, k
        assert all(type(v) is int for v in _atoms(d, m)[("mode", k)].values())


def _commutation_reference(d, m, i, window=DEFAULT_WINDOW):
    """The commutation check as a grid of running QSSeries sums of scaled
    atom series, each entry tested on the window (the loop that the
    numerator fold replaced)."""
    wide = dictionary._product_window(window, m)
    nd = len(d.fixed_point_state_matrix(m)[0])
    Dcl = dictionary._classical_state_matrix(d, m, "D")
    Wcl = dictionary._classical_state_matrix(d, m, ("omega", i))

    def series_atoms(which):
        return [(ser, dictionary._dense(_atoms(d, m)[tag], nd))
                for tag, ser in dictionary._divisor_series(d, m, which, wide)]

    a_atoms, b_atoms = series_atoms("D"), series_atoms(("omega", i))
    total = [[QSSeries.zero(d.n, wide) for _ in range(nd)] for _ in range(nd)]

    def add_commutator(ser, X, Y):
        XY, YX = matmul(X, Y), matmul(Y, X)
        for r in range(nd):
            for c in range(nd):
                v = XY[r][c] - YX[r][c]
                if not v.is_zero:
                    total[r][c] = total[r][c] + ser.scale(v)

    cc, cc2 = matmul(Dcl, Wcl), matmul(Wcl, Dcl)
    for ser, K in b_atoms:
        add_commutator(ser, Dcl, K)
    for ser, K in a_atoms:
        add_commutator(ser, K, Wcl)
    for ser_a, Ka in a_atoms:
        for ser_b, Kb in b_atoms:
            prod = ser_a * ser_b
            if not prod.is_zero:
                add_commutator(prod, Ka, Kb)

    def vanishes(r, c):
        if cc[r][c] != cc2[r][c]:
            return False
        ser = total[r][c]
        assert ser.window.qmax >= window.qmax and ser.window.smax >= window.smax
        return not any(
            window.qmin <= qd <= window.qmax and sum(sk) <= window.smax for qd, sk in ser.data
        )

    failures = [{"row": r, "col": c} for r in range(nd) for c in range(nd) if not vanishes(r, c)]
    return {"ok": not failures, "checked": nd * nd, "witnesses": failures[:5]}


@pytest.mark.parametrize("n, i", [(1, 1), (2, 1), (2, 2)])
def test_divisor_pair_commutes_matches_the_series_grid(n, i, dic, dic2):
    d = {1: dic, 2: dic2}[n]
    got = divisor_pair_commutes(d, 2, i)
    assert got == _commutation_reference(d, 2, i)
    assert got["witnesses"]  # still fails at m = 2 ("Land the commuting divisor family")


def test_series_matrix_adds_shared_monomials_and_keeps_a_cancelled_entry():
    w = DEFAULT_WINDOW
    x = QSSeries(1, w, 0, {(0, (0,)): RF_ONE, (1, (1,)): RF_ONE})
    y = QSSeries(1, w, -1, {(1, (1,)): RF_ONE, (-1, (0,)): RF_ONE})
    two = RatFn.const(2)
    got = dictionary._series_matrix(
        [([[RF_ONE, RF_ZERO], [RF_ZERO, RF_ONE]], x), ([[RF_ONE, RF_ZERO], [RF_ZERO, -RF_ONE]], x),
         ([[RF_ZERO, RF_ONE], [RF_ZERO, RF_ZERO]], y)],
        {(1, 0): y})
    assert set(got) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # q s from both addends is added, not overwritten
    assert got[(0, 0)].data == {(0, (0,)): two, (1, (1,)): two}
    assert (got[(0, 1)].data, got[(0, 1)].qfloor) == (y.data, -1)
    assert got[(1, 0)] is y
    # x - x cancels, and the entry stays, empty
    assert (got[(1, 1)].data, got[(1, 1)].window, got[(1, 1)].qfloor) == ({}, w, 0)


def _reference_m_divisor_entries(d, m, which, window):
    """Reference: the divisor operator's entries as the running sum it was
    assembled by, classical entries first, then per atom of
    ``_divisor_atoms`` the atom's class matrix times its tau-scaled
    derivative series, skipping atoms whose series vanishes."""
    n, tau = d.n, RatFn(exact.TAU)
    entries = dict(dictionary.classical_divisor(which, m, d.geom, window).entries)
    for tag in _divisor_atoms(d, m, which):
        if tag[0] == "mode":
            ser = (exact.log_atom_expand(n, window, tag[1], 0, 1)
                   - exact.log_atom_expand(n, window, 1, 0, 1)).q_log_derivative()
        else:
            ser = exact.log_atom_expand(n, window, *tag)
            ser = ser.q_log_derivative() if which == "D" else ser.s_log_derivative(which[1])
        ser = ser.scale(tau)
        if ser.is_zero:
            continue
        A = _atom_class_matrix(d, m, tag)
        for r, row in enumerate(A):
            for c, v in enumerate(row):
                if v.is_zero:
                    continue
                add = ser.scale(v)
                if add.is_zero:
                    continue
                cur = entries.get((r, c))
                entries[(r, c)] = add if cur is None else cur + add
    return entries


@pytest.mark.parametrize("n, m", [(1, 2), (2, 2), (1, 3)])
def test_m_divisor_entries_match_the_running_sum(n, m, dic, dic2, dic13):
    # keys, windows, q-floors and coefficients, on DEFAULT_WINDOW, a wider
    # window and the widened window three_point builds its operators on
    d = {(1, 2): dic, (2, 2): dic2, (1, 3): dic13}[(n, m)]
    w = DEFAULT_WINDOW
    pre = Window(w.qmin - m, w.qmax - m, w.smax)
    for window in (w, Window(-6, 6, 2), dictionary._product_window(pre, m)):
        for which in ["D"] + [("omega", i) for i in range(1, n + 1)]:
            got = dictionary.m_divisor(which, m, window, d.geom, d).matrix.entries
            want = _reference_m_divisor_entries(d, m, which, window)
            assert list(got) == list(want)
            for key, ser in got.items():
                ref = want[key]
                assert (ser.data, ser.window, ser.qfloor) == (ref.data, ref.window, ref.qfloor)


@pytest.mark.parametrize("n", [1, 2])
def test_integer_atom_commutator_is_the_scaled_numerator(n, dic, dic2):
    # the atom-atom numerator as divisor_pair_commutes took it before: _dot
    # over atom rows scaled by L_r and columns scaled by G_c; it must equal the
    # integer commutator times L_r * G_c at every entry of every atom pair
    d, m, i = {1: dic, 2: dic2}[n], 2, n
    nd = len(d.fixed_point_state_matrix(m)[0])
    ta, tb = _divisor_atoms(d, m, "D"), _divisor_atoms(d, m, ("omega", i))
    tags = list(dict.fromkeys(ta + tb))
    mats = [_classical_state_matrix(d, m, "D"), _classical_state_matrix(d, m, ("omega", i))]
    mats += [dictionary._dense(_atoms(d, m)[t], nd) for t in tags]
    rows, L = zip(*(exact._common_denominator([v for M in mats for v in M[r]])
                    for r in range(nd)))
    cols, G = zip(*(exact._common_denominator([M[j][c] for M in mats for j in range(nd)])
                    for c in range(nd)))
    rows, cols = ([[list(p.items()) for p in v] for v in vs] for vs in (rows, cols))
    at = {t: (k + 2) * nd for k, t in enumerate(tags)}
    nonzero = 0
    for a in ta:
        for b in tb:
            comm = dictionary._int_commutator(_atoms(d, m)[a], _atoms(d, m)[b])
            assert all(type(v) is int and v for v in comm.values())
            x, y = at[a], at[b]
            for r in range(nd):
                for c in range(nd):
                    want = (exact._dot((rows[r][x + j], cols[c][y + j]) for j in range(nd))
                            - exact._dot((rows[r][y + j], cols[c][x + j]) for j in range(nd)))
                    assert L[r] * G[c] * comm.get((r, c), 0) == want, (a, b, r, c)
            nonzero += bool(comm)
    assert nonzero


def _left_fold(nvars, window, pairs):
    acc = QSSeries.zero(nvars, window)
    for a, b in pairs:
        acc = acc + a * b
    return acc


def _as_tuple(ser):
    return ser.data, ser.window, ser.qfloor


@pytest.mark.parametrize("n", [1, 2])
def test_three_point_matches_the_series_fold(n, dic, dic2, monkeypatch):
    # every word pair at n = 1; the pairs (mu, nu0) at n = 2
    d = {1: dic, 2: dic2}[n]
    words = weighted_partition_basis(2, n + 1)
    pairs = [(mu, nu) for mu in words for nu in (words if n == 1 else words[:1])]
    selectors = ["D", ("omega", 1)] if n == 1 else ["D"]
    window = Window(-6, 6, 2)
    got = {
        (sel, mu, nu): _as_tuple(three_point(mu, sel, nu, window, geom=d.geom, dic=d))
        for sel in selectors for mu, nu in pairs
    }
    monkeypatch.setattr(dictionary, "_fold_products", _left_fold)
    for (sel, mu, nu), series in got.items():
        assert series == _as_tuple(three_point(mu, sel, nu, window, geom=d.geom, dic=d))
    assert any(data for data, _w, _f in got.values())


@pytest.mark.xfail(strict=True, raises=exact.WindowError,
                   reason="sums of products drop coefficients below their window "
                          "(ROADMAP: 'Land the commuting divisor family')")
def test_three_point_at_weight_three(dic13):
    words = weighted_partition_basis(3, 2)
    three_point(words[0], "D", words[1], geom=dic13.geom, dic=dic13)


def _bra_ket(d, mu, nu):
    """(<mu| as class pairings, |nu> in class coordinates), as three_point reads them."""
    m, E = mu.weight, _weight(d.n, mu.weight).E
    ket = [p / e for p, e in zip(dictionary._class_pairings(d.n, nu, m), E)]
    return dictionary._class_pairings(d.n, mu, m), ket


def _direct_three_point(d, mu, rho, nu, window):
    """q^m <mu| M_rho |nu> as the direct contraction sum_{r,c} bra_r M[r][c] ket_c
    of ``m_divisor`` built on ``window`` shifted by -m: {(q, s): coefficient}."""
    m = mu.weight
    bra, ket = _bra_ket(d, mu, nu)
    pre = Window(window.qmin - m, window.qmax - m, window.smax)
    data: dict = {}
    for (r, c), ser in dictionary.m_divisor(rho, m, pre, d.geom, d).matrix.entries.items():
        for (qd, sk), v in ser.data.items():
            data[(qd + m, sk)] = data.get((qd + m, sk), RF_ZERO) + bra[r] * v * ket[c]
    return {key: v for key, v in data.items() if not v.is_zero}


_WORD_21 = WeightedPartition(((2, 1),))
_SUM_RULE = ("ROADMAP item 1(b): the running sums of _fold_products lose and misplace "
             "coefficients through exact._sum_window")


def test_direct_three_point_contraction(dic):
    # the references of the two strict xfails below, pinned: the classical
    # contraction sum_r bra_r c_r ket_r of omega_1 is -(t1 + t2)/2, and the
    # direct contraction of D holds q^-1 s^3, q^0 s^2 and q^1 s^1 terms
    bra, ket = _bra_ket(dic, _WORD_21, _WORD_21)
    cl = dictionary.classical_divisor(("omega", 1), 2, dic.geom)
    classical = sum((bra[r] * cl.entry(r, r).coeff(0, (0,)) * ket[r] for r in range(len(bra))),
                    RF_ZERO)
    tau = RatFn(exact.TAU)
    assert classical == tau * QQ(-1, 2)
    assert _direct_three_point(dic, _WORD_21, ("omega", 1), _WORD_21,
                               DEFAULT_WINDOW)[(2, (0,))] == classical
    direct = _direct_three_point(dic, _WORD_21, "D", _WORD_21, DEFAULT_WINDOW)
    assert {key: direct[key] for key in [(-1, (3,)), (0, (2,)), (1, (1,))]} == {
        (-1, (3,)): tau * QQ(-1, 4), (0, (2,)): tau * QQ(1, 4), (1, (1,)): tau * QQ(-1, 4)}


@pytest.mark.xfail(strict=True, reason=_SUM_RULE)
def test_three_point_q2_s0_coefficient_is_the_classical_contraction(dic):
    # no log atom has a q^0 s^0 term, so only the classical diagonal reaches q^m s^0
    got = three_point(_WORD_21, ("omega", 1), _WORD_21, geom=dic.geom, dic=dic)
    assert got.coeff(2, (0,)) == RatFn(exact.TAU) * QQ(-1, 2)


@pytest.mark.xfail(strict=True, reason=_SUM_RULE)
def test_three_point_is_the_direct_contraction(dic):
    got = three_point(_WORD_21, "D", _WORD_21, geom=dic.geom, dic=dic)
    assert got.data == _direct_three_point(dic, _WORD_21, "D", _WORD_21, DEFAULT_WINDOW)


@pytest.mark.parametrize("n, m", [(1, 2), (2, 2), (1, 3)])
def test_atom_value_is_the_derivative_of_the_atoms_logs(n, m, dic, dic2, dic13):
    # each divisor atom's logs from their definition, differentiated by sympy:
    # log(1 - (-q)^k s_i...s_{j-1}) for an interaction atom, and
    # log((1 - (-q)^k)/(1 - (-q))) for the dressing mode k
    d = {(1, 2): dic, (2, 2): dic2, (1, 3): dic13}[(n, m)]
    q, *s = sympy.symbols(f"q s1:{n + 1}")
    q0, svals = QQ(2, 11), [QQ(1, 7), QQ(3, 10)][:n]
    point = {x: sympy.Rational(v.numerator, v.denominator) for x, v in zip([q, *s], [q0, *svals])}
    for which in ["D"] + [("omega", i) for i in range(1, n + 1)]:
        var = q if which == "D" else s[which[1] - 1]
        tags = _divisor_atoms(d, m, which)
        assert tags
        for tag in tags:
            if tag[0] == "mode":
                f = sympy.log((1 - (-q) ** tag[1]) / (1 - (-q)))
            else:
                k, i, j = tag
                f = sympy.log(1 - (-q) ** k * sympy.Mul(*s[i - 1:j - 1]))
            want = sympy.nsimplify((var * sympy.diff(f, var)).subs(point))
            got = _atom_value(tag, q0, svals, "q" if which == "D" else "s")
            assert want == sympy.Rational(got.numerator, got.denominator), (which, tag)


@pytest.mark.parametrize("n, counts", [(1, {1: (0, 2), 2: (4, 4)}),
                                       (2, {1: (12, 6), 2: (126, 12)})])
def test_channel_checks_pass_with_their_counts(n, counts, dic, dic2):
    # (vanishing, corner) checked counts at weights 1 and 2; the corner count
    # is each corner pair either way round
    d = {1: dic, 2: dic2}[n]
    for m, (nv, nc) in counts.items():
        van = dictionary.vanishing_check(d, m)
        corner = dictionary.corner_evaluation_check(d, m)
        assert (van["ok"], van["checked"], corner["ok"], corner["checked"]) == (True, nv, True, nc)
    op = dictionary.m_divisor("D", 2, DEFAULT_WINDOW, d.geom, d)
    assert any(not ser.is_zero for ser in op.matrix.entries.values())


@pytest.mark.parametrize("call", [
    pytest.param(lambda d, w: dictionary.m_divisor("D", 3, DEFAULT_WINDOW, d.geom, d),
                 id="m_divisor"),
    pytest.param(lambda d, w: divisor_pair_commutes(d, 3, 1), id="divisor_pair_commutes"),
    pytest.param(lambda d, w: three_point(w[0], "D", w[1], geom=d.geom, dic=d),
                 id="three_point"),
    pytest.param(lambda d, w: spectrum_probe(3, d.geom, 1, d), id="spectrum_probe"),
    pytest.param(lambda d, w: dictionary.vanishing_check(d, 3), id="vanishing_check"),
    pytest.param(lambda d, w: dictionary.corner_evaluation_check(d, 3),
                 id="corner_evaluation_check"),
    pytest.param(lambda d, w: dictionary.factorization_check(d, 3), id="factorization_check"),
    pytest.param(lambda d, w: dictionary.tau_linearity_check(d, 3), id="tau_linearity_check"),
])
def test_weight_above_the_calibrated_range_is_refused(call, dic):
    d = copy.copy(dic)
    d._memo = {}
    with pytest.raises(ValueError, match="m = 3 exceeds the calibrated range m_max = 2"):
        call(d, weighted_partition_basis(3, 2))
    assert not d._memo  # refused before any extrapolated mode is used


_WEIGHT_TAKERS = [
    pytest.param(lambda d, m: dictionary.m_divisor("D", m, DEFAULT_WINDOW, d.geom, d),
                 id="m_divisor"),
    pytest.param(lambda d, m: divisor_pair_commutes(d, m, 1), id="divisor_pair_commutes"),
    pytest.param(lambda d, m: spectrum_probe(m, d.geom, 1, d), id="spectrum_probe"),
    pytest.param(lambda d, m: dictionary.vanishing_check(d, m), id="vanishing_check"),
    pytest.param(lambda d, m: dictionary.corner_evaluation_check(d, m),
                 id="corner_evaluation_check"),
    pytest.param(lambda d, m: dictionary.factorization_check(d, m), id="factorization_check"),
    pytest.param(lambda d, m: dictionary.tau_linearity_check(d, m), id="tau_linearity_check"),
]


@pytest.mark.parametrize("m, error, match", [
    (0, ValueError, "m = 0 must be at least 1"),
    (-1, ValueError, "m = -1 must be at least 1"),
    (2.0, TypeError, "m must be an int, not float 2.0"),
    (True, TypeError, "m must be an int, not bool True"),
])
@pytest.mark.parametrize("call", _WEIGHT_TAKERS)
def test_a_weight_that_is_not_a_positive_int_is_refused(call, m, error, match, dic):
    d = copy.copy(dic)
    d._memo = {}
    with pytest.raises(error, match=match):
        call(d, m)
    assert not d._memo


def test_three_point_refuses_weight_zero_words(dic):
    empty = WeightedPartition(())
    with pytest.raises(ValueError, match="m = 0 must be at least 1"):
        three_point(empty, "D", empty, geom=dic.geom, dic=dic)


@pytest.mark.parametrize("call", [
    pytest.param(lambda g, w: cap(w, g), id="cap"),
    pytest.param(lambda g, w: tube(w, w, g), id="tube"),
    pytest.param(lambda g, w: three_point(w, "ones", w, geom=g), id="three_point"),
])
def test_word_labels_outside_the_basis_are_refused(call):
    geom = SurfaceGeometry(1)
    with pytest.raises(ValueError, match=r"word label 2 is outside 0\.\.1"):
        call(geom, ((1, 2),))
    with pytest.raises(ValueError, match=r"word label 3 is outside 0\.\.1"):
        call(geom, WeightedPartition(((1, 0), (1, 3))))


@pytest.mark.parametrize("call, other", [
    pytest.param(lambda g, d, w: dictionary.m_divisor("D", 2, DEFAULT_WINDOW, g, d),
                 "dictionary", id="m_divisor"),
    pytest.param(lambda g, d, w: three_point(w[0], "D", w[1], geom=g, dic=d), "dictionary",
                 id="three_point"),
    pytest.param(lambda g, d, w: spectrum_probe(2, g, 1, d), "dictionary", id="spectrum_probe"),
    # the Euler norms of the rank-2 classes would pair the rank-1 operator
    pytest.param(lambda g, d, w: dictionary.operator_self_adjoint(
        dictionary.classical_divisor("D", 2, d.geom), g), "operator",
        id="operator_self_adjoint"),
])
def test_geometry_and_dictionary_of_different_ranks_are_refused(call, other, dic):
    d = copy.copy(dic)
    d._memo = {}
    with pytest.raises(ValueError, match=f"rank n = 2 but the {other} has n = 1"):
        call(SurfaceGeometry(2), d, weighted_partition_basis(2, 3))
    assert not d._memo


def test_self_adjoint_check_reports_a_perturbed_off_diagonal_entry(dic):
    op = dictionary.m_divisor("D", 2, DEFAULT_WINDOW, dic.geom, dic).matrix
    assert dictionary.operator_self_adjoint(op, dic.geom) == {
        "ok": True, "checked": op.dim * (op.dim - 1) // 2, "witnesses": []}
    r, c = next(rc for rc in sorted(op.entries) if rc[0] < rc[1] and not op.entries[rc].is_zero)
    bad = copy.copy(op)
    bad.entries = {**op.entries, (r, c): op.entries[(r, c)].scale(RatFn.const(2))}
    report = dictionary.operator_self_adjoint(bad, dic.geom)
    assert not report["ok"] and report["witnesses"] == [{"row": r, "col": c}]


def test_cap_is_q_to_the_weight_on_all_ones_words():
    geom = SurfaceGeometry(2)
    w = DEFAULT_WINDOW
    # all parts 1: q^m prod over labels of 1/m_i!
    ones = WeightedPartition(((1, 0), (1, 0), (1, 2)))
    assert cap(ones, geom) == QSSeries.monomial(2, w, 3, (0, 0), RatFn.const(QQ(1, 2)))
    single = WeightedPartition(((1, 1),))
    assert cap(single, geom, Window(0, 1, 0)) == QSSeries.monomial(
        2, Window(0, 1, 0), 1, (0, 0), RF_ONE)
    # a part above 1 gives zero, and so does a weight outside the window
    assert cap(WeightedPartition(((2, 0), (1, 1))), geom).is_zero
    assert cap(WeightedPartition(((1, 0),) * 4), geom).is_zero
    assert cap(single, geom, Window(2, 3, 0)).is_zero
    # labels index the n + 1 point classes
    with pytest.raises(ValueError, match="point classes"):
        cap(WeightedPartition(((1, 3),)), geom)


def test_tube_is_q_to_the_weight_times_the_pairing(dic):
    geom = dic.geom
    ob = unit_omega_basis(geom)
    words = weighted_partition_basis(2, geom.npoints)
    nonzero = 0
    for mu in words:
        for nu in words:
            t = tube(mu, nu, geom)
            val = nak_pairing(mu, nu, ob)
            assert (t.window, t.data) == (DEFAULT_WINDOW, {(2, (0,)): val} if val else {})
            assert three_point(mu, "ones", nu, geom=geom) == t
            nonzero += bool(val)
    assert nonzero
    assert tube(words[0], words[0], geom, Window(-3, 1, 1)).is_zero
    with pytest.raises(ValueError, match="mismatched"):
        tube(words[0], WeightedPartition(((1, 0),)), geom)


# ---------------------------------------------------------------------------
# the DT/GW change of variables q = -e^{iu}
# ---------------------------------------------------------------------------


def _qrational(shift, num, den):
    return QRational(shift, tuple(RatFn.const(c) for c in num), tuple(RatFn.const(c) for c in den))


def _gw_values(f, order, pole):
    """gw_change_of_vars with each Gaussian coefficient as a sympy number."""
    out = {}
    for e, g in gw_change_of_vars(f, order, pole).items():
        re, im = g.re.const_value(), g.im.const_value()
        out[e] = sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(
            im.numerator, im.denominator
        )
    return out


@pytest.mark.parametrize(
    "shift, num, den, pole",
    [
        (1, (1,), (1, 2, 1), 2),  # q/(1+q)^2
        (2, (1,), (1, 2, 1), 2),  # q^2/(1+q)^2
        (1, (1,), (1, 1), 1),  # q/(1+q)
        (0, (1, 3), (1, 0, 1), 0),  # (1+3q)/(1+q^2), no pole at q = -1
        (-2, (1, 3), (1, 3, 3, 1), 3),  # q^-2 (1+3q)/(1+q)^3
        (0, (2, 1), (1, 0, 0, 1), 1),  # (2+q)/(1+q^3)
    ],
)
def test_gw_change_of_vars_matches_sympy_series(shift, num, den, pole):
    u = sympy.Symbol("u")
    q = -sympy.exp(sympy.I * u)
    expr = q**shift * sum(c * q**r for r, c in enumerate(num)) / sum(
        c * q**r for r, c in enumerate(den)
    )
    top = 5
    ser = sympy.expand(sympy.series(expr, u, 0, top + 1).removeO())
    f = _qrational(shift, num, den)
    for order in range(top + 1):
        want = {e: ser.coeff(u, e) for e in range(-pole, order + 1)}
        want = {e: c for e, c in want.items() if c != 0}
        assert _gw_values(f, order, pole) == want, order


def test_gw_change_of_vars_inverse_sine_square():
    # q/(1+q)^2 at q = -e^{iu} is 1/(4 sin^2(u/2)) = u^-2 + 1/12 + u^2/240 + u^4/6048 + ...
    f = _qrational(1, (1,), (1, 2, 1))
    want = {-2: 1, 0: sympy.Rational(1, 12), 2: sympy.Rational(1, 240), 4: sympy.Rational(1, 6048)}
    assert _gw_values(f, 4, 2) == want
    with pytest.raises(ValueError, match="pole of order 2"):
        gw_change_of_vars(f, 4, pole_order=1)


def test_gw_change_of_vars_zero_numerator_and_zero_denominator():
    assert gw_change_of_vars(_qrational(1, (0, 0), (1, 2, 1)), 3, 2) == {}
    with pytest.raises(ZeroDivisionError):
        gw_change_of_vars(_qrational(0, (1, 3), (0, 0)), 3, 2)


def test_gw_change_of_vars_below_the_leading_term_is_empty():
    # q/(1+q) starts at u^-1
    assert gw_change_of_vars(_qrational(1, (1,), (1, 1)), -2, 1) == {}


def test_divisor_certificate_through_the_gw_change_of_vars(dic):
    # M_D at n = 1 -> rational functions in q -> series in u, at a rational
    # point (t1, t2), against sympy's series of the specialised rational
    t1, t2 = QQ(7, 3), QQ(-11, 5)
    op = dictionary.m_divisor("D", 2, Window(-6, 6, 2), dic.geom, dic)
    cert = dictionary.rationality_certificate(op.matrix, sdeg=1, degbound=2)
    assert cert["ok"]
    u = sympy.Symbol("u")
    q = -sympy.exp(sympy.I * u)

    def at_point(c):
        v = c.substitute_all(t1, t2)
        return sympy.Rational(int(v.numerator), int(v.denominator))

    order, pole = 3, 2
    shifts, starts = set(), set()
    for rc in [(1, 1), (2, 2), (0, 2)]:
        f = cert["entries"][rc][(1,)]
        expr = q**f.shift * sum(at_point(c) * q**r for r, c in enumerate(f.num)) / sum(
            at_point(c) * q**r for r, c in enumerate(f.den)
        )
        ser = sympy.expand(sympy.series(expr, u, 0, order + 1).removeO())
        want = {e: ser.coeff(u, e) for e in range(-pole, order + 1)}
        got = {
            e: at_point(g.re) + sympy.I * at_point(g.im)
            for e, g in gw_change_of_vars(f, order, pole).items()
        }
        assert got == {e: c for e, c in want.items() if c != 0}, rc
        shifts.add(f.shift)
        starts.add(min(got))
    assert shifts == {-1, 1} and 1 in starts
