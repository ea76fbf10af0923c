"""Dictionary tests at n = 1, m = 2: the calibration report, the Heisenberg
embedding, the transport inverse, the power-sum change of basis and
label-basis coordinates; the bracket matrix against the two-stage series
product at n = 1, 2; the label-target solver on hand-made systems; and the
divisor operators at an exact specialization against a lattice-state
assembly at n = 1, 2; the DT/GW change of variables q = -e^{iu} against
sympy's series.

The divisor-family commutation flag of ``spectrum_probe`` is not asserted: it
reads False at m = 2 (an open defect, ROADMAP item 1).
"""
import pytest
import sympy

import andt.dictionary as dictionary
import andt.exact as exact
from andt.dictionary import (
    DEFAULT_WINDOW,
    BracketEngine,
    _atom_value,
    _classical_restriction,
    _power_to_monomial_inverse,
    _solve_label_system,
    _specialized_divisor,
    calibrate,
    gw_change_of_vars,
    heisenberg_embedding_check,
    spectrum_probe,
)
from andt.exact import QQ, RF_ONE, RF_ZERO, QRational, RatFn, inverse, matmul, rref
from andt.fock import fixed_point_basis, omega0_mode_matrices, unit_omega_basis
from andt.partitions import Partition
from andt.surface import SurfaceGeometry
from andt.wedge import omega_plus_terms


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


def test_transport_inverse(dic):
    T, _, _ = dic.transport(2)
    eye = [[RF_ONE if i == j else RF_ZERO for j in range(len(T))] for i in range(len(T))]
    assert matmul(T, dic.transport_inverse(2)) == eye


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


def _two_stage_bracket_matrix(engine):
    """Reference: B = G . T^{-1} . Theta . T as series products, Theta . T first."""
    nw, ns = len(engine.words), len(engine.states)
    M1 = [[None] * nw for _ in range(ns)]
    for (r, c), ser in engine.th.items():
        for wj in range(nw):
            t = engine.T[c][wj]
            if t.is_zero:
                continue
            add = ser.scale(t)
            cur = M1[r][wj]
            M1[r][wj] = add if cur is None else cur + add
    B = [[None] * nw for _ in range(nw)]
    for wi in range(nw):
        for wj in range(nw):
            tot = None
            for r in range(ns):
                ser = M1[r][wj]
                coef = engine.Tinv[wi][r]
                if ser is None or coef.is_zero:
                    continue
                add = ser.scale(coef)
                tot = add if tot is None else tot + add
            B[wi][wj] = None if tot is None else tot.scale(engine.G[wi])
    return B


@pytest.fixture(scope="module")
def dic2():
    return calibrate(SurfaceGeometry(2), 2)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1)])
def test_bracket_matrix_matches_two_stage_product(n, m, dic, dic2):
    engine = BracketEngine({1: dic, 2: dic2}[n], m, DEFAULT_WINDOW, 3)
    got, want = engine.bracket_matrix(), _two_stage_bracket_matrix(engine)
    assert [[x is None for x in row] for row in got] == [[x is None for x in row] for row in want]
    pairs = [(x, y) for gr, wr in zip(got, want) for x, y in zip(gr, wr) if y is not None]
    assert pairs
    for x, y in pairs:
        assert (x.data, x.window, x.qfloor) == (y.data, y.window, y.qfloor)


def _full_rref_solution(rows, ncols):
    reduced, pivots, _ = rref(rows, ncols)
    vals = [QQ(0)] * ncols
    for r, col in enumerate(pivots):
        vals[col] = reduced[r][ncols]
    return vals, [c for c in range(ncols) if c not in pivots]


def _tall_system(coeffs, x):
    """Rows [a, a . x] for each coefficient row a."""
    return [[QQ(a) for a in row] + [sum(QQ(a) * v for a, v in zip(row, x))] for row in coeffs]


def test_label_system_full_rank_solves_selected_rows(monkeypatch):
    # tall, consistent, with proportional rows as repeated sample points give
    coeffs = [[1, 2, 0], [2, 4, 0], [0, 1, -1], [3, 0, 1], [0, 2, -2], [1, 1, 1]]
    x = [QQ(1, 2), QQ(-3), QQ(5, 7)]
    rows = _tall_system(coeffs, x)
    monkeypatch.setattr(dictionary, "rref", None)  # the full path is not taken
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
    for (i, j, k, kmat) in omega_plus_terms(dic.n, m):
        if which != "D" and not i <= which[1] < j:
            continue
        val = tau0 * _atom_value(("interval", i, j, k), q0, svals, kind)
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
