"""Charged free-fermion (infinite wedge) model with n+1 colors.

States are semi-infinite wedges (Maya diagrams) indexed by global positions
K = level*(n+1) + (color-1); the vacuum occupies every K < 0.  A state is
stored per color as (charge, partition): the occupied levels of color j are
{charge_j + lambda_r - r : r >= 1}.

The elementary loop-matrix operator ``e_ij(k)`` moves one particle of color j
at level l to color i at level l - k; its diagonal zero mode is the charge
operator.  The move's sign is (-1)^(occupied K above (j, l)) times
(-1)^(occupied K above (i, l - k) once (j, l) is empty).  ``e_act`` reads
each color as its occupied levels from depth = min_j(c_j - len lambda_j) -
|k| - 1 up: every level below depth is occupied in every color, and no move
starts or lands there.  Energy is

    m(state) = sum_{occupied K >= 0} level(K) - sum_{unoccupied K < 0} level(K),

so e_ij(k) lowers energy by k and positive modes annihilate the vacuum.
The boundary operator is produced here as exact log atoms with tau = t1 + t2
factored out: one integer state matrix per atom log(1 - (-q)^k s_i...s_{j-1})
(``theta_logatoms``).  Window expansion lives in ``exact``.
"""
from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Mapping, Sequence

from .exact import theta_vacuum_logatoms
from .partitions import MultiPartition, Partition, enumerate_multipartitions

__all__ = [
    "WedgeState",
    "vacuum",
    "weight_basis",
    "state_from_multipartition",
    "e_act",
    "apply_ops",
    "apply_current",
    "normal_pair_matrix",
    "operator_matrix",
    "theta_logatoms",
]


class WedgeState:
    """Immutable basis wedge: per-color charges and partitions."""

    __slots__ = ("charges", "parts", "_hash")

    def __init__(self, charges: Sequence[int], parts: Sequence):
        self.charges = tuple(int(c) for c in charges)
        self.parts = tuple(tuple(p) for p in parts)
        if len(self.charges) != len(self.parts):
            raise ValueError("charge/partition length mismatch")
        for p in self.parts:
            Partition(p)  # validates
        self._hash = None

    @property
    def ncolors(self) -> int:
        return len(self.charges)

    def total_charge(self) -> int:
        return sum(self.charges)

    def energy(self) -> int:
        """Closed form: sum_j |lambda^j| + c_j (c_j - 1)/2."""
        return sum(
            sum(p) + c * (c - 1) // 2 for c, p in zip(self.charges, self.parts)
        )

    def energy_by_positions(self, depth_margin: int = 4) -> int:
        """Direct evaluation from the definition (used as a self-check)."""
        total = 0
        for j in range(self.ncolors):
            c, lam = self.charges[j], self.parts[j]
            occ = set(_occupied_prefix(c, lam, -abs(c) - len(lam) - sum(lam) - depth_margin))
            floor = min(occ) if occ else 0
            for l in occ:
                if l >= 0:
                    total += l
            for l in range(floor, 0):
                if l not in occ:
                    total -= l
        return total

    def __eq__(self, other):
        if isinstance(other, WedgeState):
            return self.charges == other.charges and self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.charges, self.parts))
        return self._hash

    def __repr__(self):
        return f"W{self.charges}{list(self.parts)}"


def vacuum(n: int) -> WedgeState:
    return WedgeState((0,) * (n + 1), ((),) * (n + 1))


def state_from_multipartition(mp: MultiPartition) -> WedgeState:
    return WedgeState((0,) * len(mp), tuple(c.parts for c in mp))


@lru_cache(maxsize=None)
def weight_basis(n: int, m: int) -> tuple:
    """Charge-zero states of energy m, ordered like enumerate_multipartitions."""
    return tuple(
        state_from_multipartition(mp) for mp in enumerate_multipartitions(m, n + 1)
    )


# ---------------------------------------------------------------------------
# occupied-level bookkeeping
# ---------------------------------------------------------------------------


def _occupied_prefix(c: int, lam: Sequence[int], depth: int) -> list:
    """Strictly decreasing occupied levels down to (and including) depth."""
    levels = [c + p - r for r, p in enumerate(lam, start=1)]
    r = len(lam) + 1
    while c - r >= depth:
        levels.append(c - r)
        r += 1
    return levels


def _state_from_levels(occ: Sequence, depth: int) -> WedgeState:
    """The state whose color j occupies the levels occ[j - 1] at or above
    ``depth`` and every level below it."""
    charges, parts = [], []
    for levels in occ:
        c = len(levels) + depth
        lam = [s - c + r for r, s in enumerate(sorted(levels, reverse=True), start=1)]
        while lam and not lam[-1]:
            lam.pop()
        charges.append(c)
        parts.append(lam)
    return WedgeState(charges, parts)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def e_act(n: int, i: int, j: int, k: int, state: WedgeState) -> list:
    """Apply e_ij(k): returns [(integer coefficient, state)], in descending
    source level.

    Moves one particle (color j, level l) to (color i, level l-k); the
    diagonal zero mode e_jj(0) is the charge operator.
    """
    for c in (i, j):
        if not 1 <= c <= n + 1:
            raise ValueError(f"color {c} out of range 1..{n + 1}")
    if i == j and k == 0:
        q = state.charges[j - 1]
        return [(q, state)] if q else []
    cp = tuple(zip(state.charges, state.parts))
    depth = min(c - len(lam) for c, lam in cp) - abs(k) - 1
    occ = [set(_occupied_prefix(c, lam, depth)) for c, lam in cp]
    filled = sorted(l * (n + 1) + c for c, levels in enumerate(occ) for l in levels)

    def above(pos):
        return len(filled) - bisect_right(filled, pos)

    out = []
    for l in sorted(occ[j - 1], reverse=True):
        tgt = l - k
        if tgt < depth or tgt in occ[i - 1]:
            continue
        src, dst = l * (n + 1) + j - 1, tgt * (n + 1) + i - 1
        moved = list(occ)
        moved[j - 1] = occ[j - 1] - {l}
        moved[i - 1] = moved[i - 1] | {tgt}
        sign = (-1) ** ((above(src) + above(dst) - (src > dst)) % 2)
        out.append((sign, _state_from_levels(moved, depth)))
    return out


def apply_ops(n: int, ops: Sequence[tuple], vec: Mapping) -> dict:
    """Apply a composition of e_ij(k) ops (rightmost first) to a state vector."""
    cur = dict(vec)
    for (i, j, k) in reversed(ops):
        nxt: dict = {}
        for state, coeff in cur.items():
            for c2, s2 in e_act(n, i, j, k, state):
                prev = nxt.get(s2)
                val = coeff * c2 if prev is None else prev + coeff * c2
                if val:
                    nxt[s2] = val
                else:
                    nxt.pop(s2, None)
        cur = nxt
    return cur


def apply_current(n: int, weights: Sequence, k: int, vec: Mapping) -> dict:
    """Apply the weighted diagonal current sum_a weights[a-1] e_aa(k)."""
    out: dict = {}
    for a in range(1, n + 2):
        w = weights[a - 1]
        if not w:
            continue
        for state, coeff in vec.items():
            for c2, s2 in e_act(n, a, a, k, state):
                add = coeff * c2 * w
                prev = out.get(s2)
                val = add if prev is None else prev + add
                if val:
                    out[s2] = val
                else:
                    out.pop(s2, None)
    return out


def _pair_ops(i: int, j: int, k: int) -> list:
    """Normal-ordered pair :e_ji(k) e_ij(-k): as an op list (rightmost first)."""
    if k < 0 or (k == 0 and i < j):
        return [(j, i, k), (i, j, -k)]
    return [(i, j, -k), (j, i, k)]


def operator_matrix(n: int, m: int, apply_fn) -> dict:
    """Matrix {(row, col): coeff} of a weight-preserving operator on weight_basis."""
    basis = weight_basis(n, m)
    index = {s: r for r, s in enumerate(basis)}
    out: dict = {}
    for col, s in enumerate(basis):
        img = apply_fn({s: 1})
        for s2, coeff in img.items():
            row = index.get(s2)
            if row is None:
                if s2.total_charge() == 0 and s2.energy() == m:
                    raise AssertionError("weight-space image missed the basis")
                raise AssertionError("operator did not preserve the weight space")
            out[(row, col)] = coeff
    return out


@lru_cache(maxsize=None)
def normal_pair_matrix(n: int, m: int, i: int, j: int, k: int):
    """Matrix of :e_ji(k) e_ij(-k): on the charge-zero weight-m basis.

    Zero whenever |k| > m (the intermediate space would need negative energy).
    """
    ops = _pair_ops(i, j, k)
    mat = operator_matrix(n, m, lambda v: apply_ops(n, ops, v))
    return {key: val for key, val in mat.items() if val}


def omega_plus_terms(n: int, m: int) -> dict:
    """{a = (k, i, j): integer matrix of :e_ji(k) e_ij(-k):} over i < j and
    |k| <= m, in i, j, k order, nonzero matrices only.  The matrices are the
    cached ``normal_pair_matrix`` objects: copy one before changing it."""
    return {
        (k, i, j): mat
        for i in range(1, n + 2)
        for j in range(i + 1, n + 2)
        for k in range(-m, m + 1)
        if (mat := normal_pair_matrix(n, m, i, j, k))
    }


def theta_logatoms(n: int, m: int, kmax: int) -> dict:
    """The boundary operator on the weight-m basis as log atoms with tau
    factored out: {a = (k, i, j): K_a}, for
    Theta = tau * sum_a K_a log(1 - (-q)^k s_i...s_{j-1}).

    K_a is the integer matrix {(row, col): int} of the pair :e_ji(k) e_ij(-k):
    (``omega_plus_terms``, every |k| <= m) plus k * Id for each vacuum atom
    with 1 <= k <= kmax (``theta_vacuum_logatoms``).  Zero entries and empty
    atoms are dropped.
    """
    atoms = {a: dict(K) for a, K in omega_plus_terms(n, m).items()}
    size = len(weight_basis(n, m))
    for a, k in theta_vacuum_logatoms(n, kmax).items():
        K = atoms.setdefault(a, {})
        for r in range(size):
            if v := K.get((r, r), 0) + k:
                K[(r, r)] = v
            else:
                del K[(r, r)]
    return {a: K for a, K in atoms.items() if K}
