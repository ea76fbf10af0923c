"""Charged free-fermion (infinite wedge) model with n+1 colors.

States are semi-infinite wedges indexed by global positions
K = level*(n+1) + (color-1); the vacuum occupies every K < 0.  A state is
stored per color as (charge, partition): the occupied levels of color j are
{charge_j + lambda_r - r : r >= 1}.

The elementary loop-matrix operator ``e_ij(k)`` moves one particle of color j
at level l to color i at level l - k, with the usual fermionic sign; its
diagonal zero mode is the charge operator.  Energy is

    m(state) = sum_{occupied K >= 0} level(K) - sum_{unoccupied K < 0} level(K),

so e_ij(k) lowers energy by k and positive modes annihilate the vacuum.
The boundary operator is produced here as exact log atoms with tau = t1 + t2
factored out: one integer state matrix per atom log(1 - (-q)^k s_i...s_{j-1})
(``theta_logatoms``).  Window expansion lives in ``exact``.
"""
from __future__ import annotations

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


def _is_occupied(c: int, lam: Sequence[int], l: int) -> bool:
    if l <= c - len(lam) - 1:
        return True
    return any(c + p - r == l for r, p in enumerate(lam, start=1))


def _count_occupied_above(c: int, lam: Sequence[int], l: int) -> int:
    """Number of occupied levels strictly greater than l."""
    cnt = sum(1 for r, p in enumerate(lam, start=1) if c + p - r > l)
    # rows past the explicit partition sit at levels c - r, r > len(lam)
    deep = (c - l - 1) - len(lam)
    return cnt + max(0, deep)


def _with_level_removed(c: int, lam: Sequence[int], l: int):
    depth = min(l, c - len(lam) - 1)
    levels = _occupied_prefix(c, lam, depth)
    levels.remove(l)
    cnew = c - 1
    parts = tuple(lv - cnew + r for r, lv in enumerate(levels, start=1))
    return cnew, _strip(parts)


def _with_level_added(c: int, lam: Sequence[int], l: int):
    depth = min(l, c - len(lam) - 1)
    levels = _occupied_prefix(c, lam, depth)
    levels.append(l)
    levels.sort(reverse=True)
    cnew = c + 1
    parts = tuple(lv - cnew + r for r, lv in enumerate(levels, start=1))
    return cnew, _strip(parts)


def _strip(parts: tuple) -> tuple:
    out = list(parts)
    while out and out[-1] == 0:
        out.pop()
    if any(x < 0 for x in out):
        raise AssertionError("internal: negative partition part")
    return tuple(out)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _count_above_global(n: int, state: WedgeState, color: int, level: int) -> int:
    """Occupied positions with global index strictly above that of (color, level)."""
    cnt = 0
    for c2 in range(1, n + 2):
        ch, lam = state.charges[c2 - 1], state.parts[c2 - 1]
        cnt += _count_occupied_above(ch, lam, level)
        if c2 > color and _is_occupied(ch, lam, level):
            cnt += 1
    return cnt


def e_act(n: int, i: int, j: int, k: int, state: WedgeState) -> list:
    """Apply e_ij(k): returns [(integer coefficient, state)].

    Moves one particle (color j, level l) to (color i, level l-k); the
    diagonal zero mode e_jj(0) is the charge operator.
    """
    for c in (i, j):
        if not 1 <= c <= n + 1:
            raise ValueError(f"color {c} out of range 1..{n + 1}")
    if i == j and k == 0:
        q = state.charges[j - 1]
        return [(q, state)] if q else []
    cj, lamj = state.charges[j - 1], state.parts[j - 1]
    ci, lami = state.charges[i - 1], state.parts[i - 1]
    # candidate source levels: occupied for color j with free target for color i
    lo_j = cj - len(lamj) - 1  # levels <= lo_j are all occupied for color j
    lo_i = ci - len(lami) - 1  # levels <= lo_i are all occupied for color i
    lmin = min(lo_j, lo_i + k)  # below this both source occupied and target occupied
    sources = [
        l
        for l in _occupied_prefix(cj, lamj, lmin)
        if not _is_occupied(ci, lami, l - k)
    ]
    out = []
    for l in sources:
        tgt = l - k
        sign_rm = (-1) ** (_count_above_global(n, state, j, l) % 2)
        cj2, lamj2 = _with_level_removed(cj, lamj, l)
        if i == j:
            mid_c, mid_lam = cj2, lamj2
        else:
            mid_c, mid_lam = ci, lami
        if _is_occupied(mid_c, mid_lam, tgt):
            continue
        # occupied-above count for the target, in the intermediate state
        mid_charges = list(state.charges)
        mid_parts = list(state.parts)
        mid_charges[j - 1], mid_parts[j - 1] = cj2, lamj2
        mid_state = WedgeState(mid_charges, mid_parts)
        sign_add = (-1) ** (_count_above_global(n, mid_state, i, tgt) % 2)
        ci2, lami2 = _with_level_added(mid_c, mid_lam, tgt)
        new_charges = list(mid_charges)
        new_parts = list(mid_parts)
        new_charges[i - 1], new_parts[i - 1] = ci2, lami2
        out.append((sign_rm * sign_add, WedgeState(new_charges, new_parts)))
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
