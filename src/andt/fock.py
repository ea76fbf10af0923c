"""Fock space of the resolved surface with Heisenberg operators.

Vectors are finite combinations of creation words: a basis word is a multiset
of (part, label) pairs where the label indexes a declared cohomology basis
(either {1, omega_1..omega_n} or the fixed-point classes).  The mode algebra
is

    [p_k(a), p_l(b)] = -k delta_{k+l} <a, b> . id,

negative modes create, positive modes annihilate the vacuum.  The induced
geometric pairing scales each word by prod 1/part and carries the global sign
(-1)^m; that normalization is pinned by the weight-one anchor: the pairing of
single-part words must reduce to the surface pairing.

The degree-zero dressing operator

    omega0 = - sum_{k>=1} [ (n+1) t1 t2 p_{-k}(1) p_k(1)
                            + sum_i p_{-k}(E_i) p_k(omega_i) ]
             * log((1-(-q)^k)/(1-(-q)))

is given here mode by mode: ``omega0_mode_matrices`` returns the rational
matrix multiplying each series factor over the weight-m word basis.  Modes
with k > m annihilate the space and the k = 1 series factor vanishes, so the
mode sum is finite and exact; the divisor operators in ``dictionary`` attach
the series factors.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Mapping, Sequence

from .exact import (
    QQ,
    RatFn,
    RF_ONE,
    RF_ZERO,
    T1,
    T2,
    solve,
)
from .partitions import partitions_of
from .surface import CohClass, SurfaceGeometry

__all__ = [
    "LabelBasis",
    "unit_omega_basis",
    "fixed_point_basis",
    "WeightedPartition",
    "weighted_partition_basis",
    "p_act",
    "p_word_on_vacuum",
    "nak_pairing",
    "nak_gram",
    "convert_labels",
    "omega0_mode_matrices",
]


class LabelBasis:
    """A declared cohomology basis used to label creation parts."""

    def __init__(self, geom: SurfaceGeometry, classes: Sequence[CohClass], names: Sequence[str]):
        if len(classes) != geom.npoints or len(names) != len(classes):
            raise ValueError("label basis must have n+1 classes with names")
        self.geom = geom
        self.classes = tuple(classes)
        self.names = tuple(names)
        self._coord_cache: dict = {}

    @property
    def size(self) -> int:
        return len(self.classes)

    def pairing(self, a: int, b: int) -> RatFn:
        return self.geom.pairing(self.classes[a], self.classes[b])

    def coords(self, cls: CohClass) -> tuple:
        """Coordinates of a class in this basis (solves the restriction system)."""
        key = tuple(cls)
        hit = self._coord_cache.get(key)
        if hit is not None:
            return hit
        npt = self.geom.npoints
        mat = [[self.classes[b][pt] for b in range(npt)] for pt in range(npt)]
        sol = tuple(row[0] for row in solve(mat, [[cls[pt]] for pt in range(npt)]))
        self._coord_cache[key] = sol
        return sol


def unit_omega_basis(geom: SurfaceGeometry) -> LabelBasis:
    classes = [geom.cls_one()] + [geom.cls_omega(i) for i in range(1, geom.n + 1)]
    names = ["1"] + [f"w{i}" for i in range(1, geom.n + 1)]
    return LabelBasis(geom, classes, names)


def fixed_point_basis(geom: SurfaceGeometry) -> LabelBasis:
    classes = [geom.cls_point(i) for i in range(1, geom.npoints + 1)]
    names = [f"p{i}" for i in range(1, geom.npoints + 1)]
    return LabelBasis(geom, classes, names)


class WeightedPartition:
    """Canonical multiset of (part, label-index) pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        pairs = tuple(sorted(((int(p), int(l)) for p, l in pairs), reverse=True))
        for p, l in pairs:
            if p <= 0 or l < 0:
                raise ValueError(f"bad weighted part ({p},{l})")
        object.__setattr__(self, "pairs", pairs)

    @property
    def weight(self) -> int:
        return sum(p for p, _ in self.pairs)

    def with_part(self, part: int, label: int) -> "WeightedPartition":
        return WeightedPartition(self.pairs + ((part, label),))

    def without_index(self, idx: int) -> "WeightedPartition":
        return WeightedPartition(self.pairs[:idx] + self.pairs[idx + 1 :])

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __eq__(self, other):
        if isinstance(other, WeightedPartition):
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self):
        return hash(self.pairs)

    def __lt__(self, other):
        return self.pairs < other.pairs

    def __repr__(self):
        return "NP" + repr(list(self.pairs))


VACUUM_WORD = WeightedPartition(())


@lru_cache(maxsize=None)
def weighted_partition_basis(m: int, nlabels: int) -> tuple:
    """All weight-m label words, sorted descending (matches the wedge order
    for the natural label dictionary)."""
    out = []
    for lam in partitions_of(m):
        groups = itertools.groupby(lam)
        choices = []
        for part, grp in groups:
            mult = len(list(grp))
            choices.append(
                [
                    tuple((part, l) for l in combo)
                    for combo in itertools.combinations_with_replacement(
                        range(nlabels), mult
                    )
                ]
            )
        for pick in itertools.product(*choices):
            out.append(WeightedPartition(tuple(itertools.chain.from_iterable(pick))))
    out.sort(key=lambda wp: wp.pairs, reverse=True)
    return tuple(out)


# ---------------------------------------------------------------------------
# Heisenberg action
# ---------------------------------------------------------------------------


def _vec_add(vec: dict, word: WeightedPartition, coeff) -> None:
    cur = vec.get(word)
    tot = coeff if cur is None else cur + coeff
    if tot.is_zero if isinstance(tot, RatFn) else not tot:
        vec.pop(word, None)
    else:
        vec[word] = tot


def p_act(k: int, gamma: CohClass, vec: Mapping, basis: LabelBasis) -> dict:
    """Apply the mode p_k(gamma) to a vector over weighted-partition words."""
    if k == 0:
        raise ValueError("zero mode is not part of the algebra")
    out: dict = {}
    if k < 0:
        coords = basis.coords(gamma)
        for word, coeff in vec.items():
            for l, c in enumerate(coords):
                if not c.is_zero:
                    _vec_add(out, word.with_part(-k, l), coeff * c)
        return out
    pair_cache = {
        l: basis.geom.pairing(gamma, basis.classes[l]) for l in range(basis.size)
    }
    for word, coeff in vec.items():
        seen = set()
        for idx, (p, l) in enumerate(word.pairs):
            if p != k or (p, l) in seen:
                continue
            seen.add((p, l))
            mult = sum(1 for q_, l_ in word.pairs if (q_, l_) == (p, l))
            val = pair_cache[l]
            if val.is_zero:
                continue
            factor = val * QQ(-k * mult)
            _vec_add(out, word.without_index(idx), coeff * factor)
    return out


def p_word_on_vacuum(parts) -> dict:
    """Creation word prod p_{-part}(label-class) |0> as a vector (unit coeff)."""
    return {WeightedPartition(tuple(parts)): RF_ONE}


def nak_pairing(mu: WeightedPartition, nu: WeightedPartition, basis: LabelBasis) -> RatFn:
    """Geometric pairing of two label words (annihilate-then-read-vacuum),
    scaled by prod 1/part over both words and by the sign (-1)^m."""
    if mu.weight != nu.weight:
        return RF_ZERO
    vec = {nu: RF_ONE}
    for p, l in mu.pairs:  # descending parts; order is irrelevant for the value
        vec = p_act(p, basis.classes[l], vec, basis)
        if not vec:
            return RF_ZERO
    val = vec.get(VACUUM_WORD, RF_ZERO)
    if val.is_zero:
        return RF_ZERO
    factor = QQ(-1 if mu.weight % 2 else 1)
    for p, _ in mu.pairs + nu.pairs:
        factor /= p
    return val * factor


def nak_gram(m: int, basis: LabelBasis) -> dict:
    words = weighted_partition_basis(m, basis.size)
    out = {}
    for r, mu in enumerate(words):
        for c, nu in enumerate(words):
            if c < r:
                continue
            val = nak_pairing(mu, nu, basis)
            if not val.is_zero:
                out[(r, c)] = val
                if c != r:
                    out[(c, r)] = val
    return out


def convert_labels(vec: Mapping, src: LabelBasis, dst: LabelBasis) -> dict:
    """Re-express a vector's labels in another declared basis (multilinear)."""
    out: dict = {}
    for word, coeff in vec.items():
        expand = [(VACUUM_WORD, coeff)]
        for p, l in word.pairs:
            coords = dst.coords(src.classes[l])
            nxt = []
            for w2, c2 in expand:
                for l2, c3 in enumerate(coords):
                    if not c3.is_zero:
                        nxt.append((w2.with_part(p, l2), c2 * c3))
            expand = nxt
        for w2, c2 in expand:
            _vec_add(out, w2, c2)
    return out


# ---------------------------------------------------------------------------
# degree-zero dressing operator
# ---------------------------------------------------------------------------


def omega0_mode_matrices(geom: SurfaceGeometry, m: int, basis: LabelBasis) -> dict:
    """{k: rational matrix of -[(n+1)t1t2 p_{-k}(1)p_k(1) + sum_i p_{-k}(E_i)p_k(w_i)]}

    for 2 <= k <= m (k = 1 carries a vanishing series factor, k > m annihilates).
    """
    words = weighted_partition_basis(m, basis.size)
    index = {w: i for i, w in enumerate(words)}
    unit = geom.cls_one()
    scalar = RatFn(geom.npoints * T1 * T2)  # (n+1) t1 t2
    out: dict = {}
    for k in range(2, m + 1):
        mat: dict = {}
        for col, w in enumerate(words):
            acc: dict = {}
            base = {w: RF_ONE}
            mid = p_act(k, unit, base, basis)
            if mid:
                for w2, c2 in p_act(-k, unit, mid, basis).items():
                    _vec_add(acc, w2, c2 * scalar)
            for i in range(1, geom.n + 1):
                mid = p_act(k, geom.cls_omega(i), base, basis)
                if not mid:
                    continue
                for w2, c2 in p_act(-k, geom.cls_E(i), mid, basis).items():
                    _vec_add(acc, w2, c2)
            for w2, c2 in acc.items():
                mat[(index[w2], col)] = -c2
        if mat:
            out[k] = mat
    return out
