"""Dictionary tests at n = 1, m = 2: the calibration report, the Heisenberg
embedding, the transport inverse, the power-sum change of basis and
label-basis coordinates.

The divisor-family commutation flag of ``spectrum_probe`` is not asserted: it
reads False at m = 2 (an open defect, ROADMAP item 2).
"""
import pytest

import andt.dictionary as dictionary
import andt.exact as exact
from andt.dictionary import _power_to_monomial_inverse, calibrate, heisenberg_embedding_check
from andt.exact import QQ, RF_ONE, RF_ZERO, matmul
from andt.fock import fixed_point_basis, unit_omega_basis
from andt.partitions import Partition
from andt.surface import SurfaceGeometry


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
