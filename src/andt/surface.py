"""Geometry of the chain-of-(-2)-spheres surface with torus action.

The surface carries n+1 torus fixed points p_1..p_{n+1} joined by a chain of
n invariant rational curves E_1..E_n with self-intersection -2.  Equivariant
cohomology classes are represented by their restriction tuples (one RatFn per
fixed point); the equivariant pairing divides by the tangent Euler class at
each point, which is exact localization.
"""
from __future__ import annotations

from typing import Sequence

from .exact import QQ, RatFn, RF_ZERO, T1, T2, TPoly, _interval_skey

__all__ = ["SurfaceGeometry", "CohClass", "tangent_wL", "tangent_wR"]

# A cohomology class is just its tuple of fixed-point restrictions.
CohClass = tuple


def tangent_wL(n: int, i: int) -> TPoly:
    """Tangent weight at p_i along the edge toward p_{i-1}, on the chain of length n."""
    return (n + 2 - i) * T1 + (1 - i) * T2


def tangent_wR(n: int, i: int) -> TPoly:
    """Tangent weight at p_i along the edge toward p_{i+1}, on the chain of length n."""
    return (-n + i - 1) * T1 + i * T2


class SurfaceGeometry:
    """All fixed-point data for a given chain length n >= 0."""

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(f"n must be an int, not {type(n).__name__}")
        if n < 0:
            raise ValueError("n must be >= 0")
        self.n = n
        self.npoints = n + 1

    # -- tangent weights ---------------------------------------------------------
    def wL(self, i: int) -> TPoly:
        """Tangent weight at p_i along the edge toward p_{i-1} (1-based i)."""
        self._check_point(i)
        return tangent_wL(self.n, i)

    def wR(self, i: int) -> TPoly:
        """Tangent weight at p_i along the edge toward p_{i+1}."""
        self._check_point(i)
        return tangent_wR(self.n, i)

    def euler_point(self, i: int) -> TPoly:
        """Product of the two tangent weights at p_i."""
        return self.wL(i) * self.wR(i)

    def _check_point(self, i: int):
        if not 1 <= i <= self.npoints:
            raise ValueError(f"fixed point index {i} out of range 1..{self.npoints}")

    def _check_curve(self, i: int):
        if not 1 <= i <= self.n:
            raise ValueError(f"curve index {i} out of range 1..{self.n}")

    # -- classes -------------------------------------------------------------------
    def cls_one(self) -> CohClass:
        return tuple(RatFn.const(1) for _ in range(self.npoints))

    def cls_point(self, k: int) -> CohClass:
        self._check_point(k)
        return tuple(
            RatFn(self.euler_point(k)) if i == k else RF_ZERO
            for i in range(1, self.npoints + 1)
        )

    def cls_E(self, i: int) -> CohClass:
        """Class of the i-th compact invariant curve."""
        self._check_curve(i)
        out = [RF_ZERO] * self.npoints
        out[i - 1] = RatFn(self.wL(i))
        out[i] = RatFn(self.wR(i + 1))
        return tuple(out)

    def cartan(self) -> list:
        n = self.n
        return [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)
        ]

    def cls_omega(self, i: int) -> CohClass:
        """Dual divisor class: pairs to delta_{ij} against cls_E(j)."""
        self._check_curve(i)
        n = self.n
        out = [RF_ZERO] * self.npoints
        for j in range(1, n + 1):
            ej = self.cls_E(j)
            c = QQ(min(i, j) * (n + 1 - max(i, j)), n + 1)  # the inverse Cartan matrix
            for k in range(self.npoints):
                out[k] = out[k] - ej[k] * c
        return tuple(out)

    def class_linear(self, coeff_one, omega_coeffs: Sequence) -> CohClass:
        """coeff_one * 1 + sum_i omega_coeffs[i] * omega_{i+1}."""
        out = [RatFn.const(0) + coeff_one for _ in range(self.npoints)]
        for i, c in enumerate(omega_coeffs, start=1):
            if not isinstance(c, RatFn):
                c = RatFn.const(c)
            if not c.is_zero:
                w = self.cls_omega(i)
                for k in range(self.npoints):
                    out[k] = out[k] + w[k] * c
        return tuple(out)

    # -- pairing and decompositions --------------------------------------------------
    def pairing(self, a: CohClass, b: CohClass) -> RatFn:
        """Equivariant intersection pairing by localization."""
        tot = RF_ZERO
        for k in range(1, self.npoints + 1):
            ak, bk = a[k - 1], b[k - 1]
            if ak.is_zero or bk.is_zero:
                continue
            tot = tot + ak * bk / RatFn(self.euler_point(k))
        return tot

    def point_in_unit_omega_basis(self, i: int):
        """[p_i] written as c0 * 1 + sum_j cj * omega_j.

        Returns (c0, tuple of omega coefficients); c0 = (n+1) t1 t2, the omega_i
        coefficient is wL_i and the omega_{i-1} coefficient is wR_i.
        """
        self._check_point(i)
        c0 = RatFn((self.n + 1) * T1 * T2)
        cj = [RF_ZERO] * self.n
        if i <= self.n:
            cj[i - 1] = RatFn(self.wL(i))
        if i >= 2:
            cj[i - 2] = RatFn(self.wR(i))
        return c0, tuple(cj)

    # -- curve classes ------------------------------------------------------------------
    def root_vector(self, i: int, j: int) -> tuple:
        """E-coefficients of the interval class alpha_{ij} = E_i + ... + E_{j-1}."""
        if not (1 <= i < j <= self.n + 1):
            raise ValueError(f"bad interval [{i},{j}]")
        return _interval_skey(self.n, i, j)

    def s_exponent(self, beta: Sequence[int]) -> tuple:
        """s-monomial exponents of a curve class given in the E-basis.

        The divisor duals satisfy <omega_i, E_j> = delta, so the exponent of
        s_i is just the E_i coefficient of beta.
        """
        beta = tuple(int(b) for b in beta)
        if len(beta) != self.n:
            raise ValueError(f"curve class needs {self.n} coefficients")
        return beta
