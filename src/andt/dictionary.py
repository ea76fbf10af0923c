"""Bridge between the lattice model and the geometric bases of the surface
Hilbert schemes.

Provides fixed-point classes with exact tangent-Euler norms, the calibrated
Heisenberg embedding (per-mode color-mixing matrices built from their closed
form and verified against the structural constraints that determine them),
boundary-operator matrix elements between creation words, label words or
fixed-point classes (``BracketEngine``, one matrix per basis), divisor
operators with their classical parts, cap/tube/three-point series, exact
rationality certificates, and seeded spectral probes.

The constraints come in two stages: the per-atom coefficient matrices of the
boundary operator in the label basis (unit-padding recursion plus rational
unknowns fixed by corner values and interval-channel vanishing), and the
per-mode embedding matrices as an intertwiner condition, linear in the top
mode.  A ``Dictionary`` builds the modes U_k = rho^(k-1) U_1 in closed form,
and ``calibrate`` proves, level by level, that they solve both stages
exactly.  The constraint solver (``_AtomTargets.solve``,
``_solve_mode_tower``) runs only for the diagonal ansatz, which
``calibrate`` solves for first and whose failure it reports as a
structured finding, and as the oracle the tests compare the closed form
against.

What depends on the geometry alone (fixed-point classes and their norms,
point-word norms, label changes) is built once per (n, m), in the weight's
table ``_weight``; what depends on the modes is built once per dictionary,
in ``Dictionary._memo``, with one frame per basis (``Dictionary.frame``).
Theta and the divisor operators are each a sum over log atoms of a constant
matrix times a (q, s)-series, assembled by one helper (``_series_matrix``).
A divisor atom's matrix is a ``wedge`` pair operator (a dressing mode is a
Cartan pair sum, checked against fock's omega_0 by intertwining), and its
logs (``_atom_logs``) give both its series and its value at a point.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .exact import (
    ExactDivisionError,
    QQ,
    QRational,
    QSSeries,
    RF_ONE,
    RF_ZERO,
    RatFn,
    ReconstructError,
    SingularMatrixError,
    T1,
    T2,
    TAU,
    Window,
    WindowError,
    _common_denominator,
    _dot,
    _fold_numerators,
    _fold_products,
    _interval_skey,
    _numerators,
    _sandwich,
    expand_logatoms,
    inverse,
    log_atom_expand,
    matmul,
    rational_reconstruct_q,
    rref,
    solve,
    theta_vacuum_logatoms,
)
from .fock import (
    WeightedPartition,
    convert_labels,
    fixed_point_basis,
    nak_pairing,
    omega0_mode_matrices,
    unit_omega_basis,
    weighted_partition_basis,
)
from .partitions import MultiPartition, Partition, enumerate_multipartitions, partitions_of
from .surface import SurfaceGeometry
from .wedge import (
    apply_current,
    e_act,
    normal_pair_matrix,
    omega_plus_terms,
    theta_logatoms,
    vacuum,
    weight_basis,
)

__all__ = [
    "Dictionary",
    "DivisorOp",
    "OperatorMatrix",
    "CalibrationError",
    "hilb_tangent_euler",
    "chart_point_classes",
    "fixed_point_vectors",
    "calibrate",
    "BracketEngine",
    "interval_channel",
    "interval_corner_constant",
    "factorization_check",
    "tau_linearity_check",
    "vanishing_check",
    "corner_evaluation_check",
    "heisenberg_embedding_check",
    "classical_divisor",
    "m_divisor",
    "divisor_pair_commutes",
    "operator_self_adjoint",
    "cap",
    "tube",
    "three_point",
    "rationality_certificate",
    "gw_change_of_vars",
    "spectrum_probe",
    "reduce_tau",
    "ratfn_inverse",
    "ratfn_solve",
    "DEFAULT_WINDOW",
]

DEFAULT_WINDOW = Window(qmin=-3, qmax=3, smax=3)


# ---------------------------------------------------------------------------
# exact reduction at t2 = -t1 (cancels matching (t1+t2) factors first)
# ---------------------------------------------------------------------------


def reduce_tau(rf: RatFn) -> RatFn:
    """Exact evaluation at t2 = -t1, cancelling common (t1+t2) factors.

    Raises on a genuine pole along t1 + t2 = 0.
    """
    if rf.is_zero:
        return RF_ZERO
    num, den = rf.num, rf.den
    d2 = den.tau_sub()
    while d2.is_zero:
        num = num.exact_div(TAU)
        den = den.exact_div(TAU)
        d2 = den.tau_sub()
    return RatFn(num.tau_sub(), d2)


# The exact linear-algebra kernel under its public names in this module;
# bench/tracer.py times the span dictionary.ratfn_solve through this name.
ratfn_solve = solve
ratfn_inverse = inverse


# ---------------------------------------------------------------------------
# tangent Euler classes of Hilbert-scheme fixed points
# ---------------------------------------------------------------------------


def _arm_leg_product(lam: Partition, wx: RatFn, wy: RatFn) -> RatFn:
    """prod over boxes ((arm+1) wx - leg wy)(-arm wx + (leg+1) wy)."""
    e = RF_ONE
    for _box, arm, leg in lam.hooks():
        e = e * (wx * QQ(arm + 1) - wy * QQ(leg))
        e = e * (wx * QQ(-arm) + wy * QQ(leg + 1))
    return e


def _as_multipartition(rho, ncomp: int) -> MultiPartition:
    if isinstance(rho, MultiPartition):
        mp = rho
    else:
        mp = MultiPartition([c if c is not None else () for c in rho])
    if len(mp) != ncomp:
        raise ValueError(f"need {ncomp} components, got {len(mp)}")
    return mp


def hilb_tangent_euler(rho, geom: SurfaceGeometry) -> RatFn:
    """Tangent Euler class at the fixed point labelled by a multipartition.

    Product over charts k of the arm/leg weight product in (wL_k, wR_k).
    """
    mp = _as_multipartition(rho, geom.npoints)
    e = RF_ONE
    for k, lam in enumerate(mp, start=1):
        if lam.size:
            e = e * _arm_leg_product(lam, RatFn(geom.wL(k)), RatFn(geom.wR(k)))
    return e


# ---------------------------------------------------------------------------
# per-chart fixed-point classes in creation-word coordinates
# ---------------------------------------------------------------------------


def _monomial_coeffs_of_power_sum(mu, nvars: int) -> dict:
    """Expand prod_i (sum_j x_j^{mu_i}) into exponent-vector coefficients."""
    poly = {(0,) * nvars: QQ(1)}
    for part in mu:
        nxt: dict = {}
        for expv, c in poly.items():
            for j in range(nvars):
                e2 = list(expv)
                e2[j] += part
                key = tuple(e2)
                nxt[key] = nxt.get(key, QQ(0)) + c
        poly = nxt
    return poly


def _power_to_monomial_inverse(m: int) -> dict:
    """{lam: {mu: QQ}} writing each monomial symmetric function in power sums."""
    plist = sorted(partitions_of(m), key=tuple)
    idx = {mu: i for i, mu in enumerate(plist)}
    nn = len(plist)
    mat = [[QQ(0)] * nn for _ in range(nn)]
    for mu in plist:
        poly = _monomial_coeffs_of_power_sum(mu, m)
        for lam in plist:
            key = tuple(list(lam) + [0] * (m - len(lam)))
            mat[idx[mu]][idx[lam]] = poly.get(key, QQ(0))
    inv = inverse(mat)
    return {
        lam: {mu: inv[idx[lam]][idx[mu]] for mu in plist if inv[idx[lam]][idx[mu]] != 0}
        for lam in plist
    }


@lru_cache(maxsize=None)
def chart_point_classes(n: int, chart: int, m: int) -> dict:
    """Fixed-point classes of the rank-n surface supported on one chart, for
    all partitions of m.

    Returns {Partition: {WeightedPartition: RatFn}} in point-label creation
    words, orthogonal for the geometric pairing, with the coefficient of the
    all-ones word normalized to 1.  The squared norm is then the tangent
    Euler class of the chart-local fixed point.
    """
    geom = SurfaceGeometry(n)
    basis = fixed_point_basis(geom)
    sc = RatFn(geom.wR(chart))
    label = chart - 1
    words = {
        mu: WeightedPartition(tuple((p, label) for p in mu)) for mu in partitions_of(m)
    }
    gram = {mu: nak_pairing(words[mu], words[mu], basis) for mu in words}
    # inner product of symmetric-function avatars written in power sums
    gram_sf = {mu: gram[mu] * QQ(math.prod(mu)) ** 2 / sc ** (2 * len(mu)) for mu in gram}

    def inner(x, y):
        tot = RF_ZERO
        for mu, cx in x.items():
            cy = y.get(mu)
            if cy is not None:
                tot = tot + gram_sf[mu] * cx * cy
        return tot

    mavatar = _power_to_monomial_inverse(m)
    lams = sorted(partitions_of(m), key=tuple)  # ascending: column first, row last
    done: dict = {}
    for lam in lams:
        vec = {mu: RatFn.const(c) for mu, c in mavatar[lam].items()}
        for jv in done.values():
            num = inner(vec, jv)
            if num.is_zero:
                continue
            f = num / inner(jv, jv)
            for mu, c in jv.items():
                cur = vec.get(mu, RF_ZERO) - f * c
                if cur.is_zero:
                    vec.pop(mu, None)
                else:
                    vec[mu] = cur
        done[lam] = vec
    ones = Partition((1,) * m)
    out: dict = {}
    for lam, vec in done.items():
        wvec = {mu: c * QQ(math.prod(mu)) / sc ** len(mu) for mu, c in vec.items()}
        c0 = wvec.get(ones)
        if c0 is None or c0.is_zero:
            raise RuntimeError(f"degenerate leading coefficient for {lam}")
        inv0 = c0.inverse()
        out[lam] = {words[mu]: c * inv0 for mu, c in wvec.items()}
    return out


class _Weight:
    """The matrices at weight m that depend on the rank-n geometry alone, each
    built on first use; ``_weight`` keeps one table per (n, m).

    ``words`` are the label words of weight m and ``mps`` the fixed points.
    ``classes`` are the fixed-point classes in point-label words, products of
    the per-chart classes (``fixed_point_vectors``).  ``G`` holds the
    point-word norms: the point-basis pairing is diagonal in words.  ``X``
    has the unit/omega label words as columns in point-word coordinates and
    ``Xinv`` the point words in label coordinates.  ``C`` has the classes as
    columns in point-word coordinates, ``E`` their norms (``hilb_tangent_euler``)
    in ``mps`` order, and ``J`` = Xinv C has them in label coordinates.  ``word_pairs`` lists
    (w1, w2, unit pairing, omega rest of w1, omega rest of w2) over the label
    words, the pairing shared by every atom of ``_AtomTargets.solve``.
    """

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.geom = geom = SurfaceGeometry(n)
        self.ob, self.fb = unit_omega_basis(geom), fixed_point_basis(geom)
        self.words = weighted_partition_basis(m, n + 1)
        self.mps = tuple(enumerate_multipartitions(m, n + 1))

    @cached_property
    def classes(self) -> dict:
        out: dict = {}
        for mp in self.mps:
            vec = {WeightedPartition(()): RF_ONE}
            for ch0, lam in enumerate(mp):
                if lam.size == 0:
                    continue
                jv = chart_point_classes(self.n, ch0 + 1, lam.size)[lam]
                nxt: dict = {}
                for w1, c1 in vec.items():
                    for w2, c2 in jv.items():
                        w = WeightedPartition(w1.pairs + w2.pairs)
                        add = c1 * c2
                        cur = nxt.get(w)
                        nxt[w] = add if cur is None else cur + add
                vec = nxt
            out[mp] = vec
        return out

    @cached_property
    def G(self) -> list:
        return [nak_pairing(w, w, self.fb) for w in self.words]

    @cached_property
    def X(self) -> list:
        return _label_change_matrix(self.words, self.ob, self.fb)

    @cached_property
    def Xinv(self) -> list:
        return _label_change_matrix(self.words, self.fb, self.ob)

    @cached_property
    def C(self) -> list:
        return [[vec.get(w, RF_ZERO) for vec in self.classes.values()] for w in self.words]

    @cached_property
    def E(self) -> list:
        return [hilb_tangent_euler(mp, self.geom) for mp in self.mps]

    @cached_property
    def J(self) -> list:
        return matmul(self.Xinv, self.C)

    @cached_property
    def word_pairs(self) -> list:
        split = {w: _unit_split(w) for w in self.words}
        # unit parts come sorted, so two of them pair to nonzero only if equal
        norms = {mu: nak_pairing(_unit_word(mu), _unit_word(mu), self.ob)
                 for mu, _ in split.values()}
        return [
            (w1, w2, norms[mu1] if mu1 == mu2 else RF_ZERO, om1, om2)
            for w1, (mu1, om1) in split.items()
            for w2, (mu2, om2) in split.items()
        ]


@lru_cache(maxsize=None)
def _weight(n: int, m: int) -> _Weight:
    return _Weight(n, m)


def fixed_point_vectors(geom: SurfaceGeometry, m: int) -> dict:
    """{MultiPartition: {point-label word: RatFn}} for all fixed points of
    total weight m (product of the per-chart classes)."""
    return _weight(geom.n, m).classes


# ---------------------------------------------------------------------------
# stage A: per-atom coefficient matrices of the boundary operator in the
# label basis, pinned by corner values and interval-channel vanishing
# ---------------------------------------------------------------------------


def interval_corner_constant(n: int, m: int) -> RatFn:
    """(-1)^(m-1) ((n+1) t1)^(2m) (m!)^2 / m  -- the corner prefactor."""
    npt = RatFn.const(n + 1) * T1
    f = math.factorial(m)
    return npt ** (2 * m) * RatFn.const(QQ(f * f, m) * QQ(-1) ** (m - 1))


def _unit_split(w: WeightedPartition):
    """Split a unit/omega label word into its unit parts and omega-label rest."""
    mu = tuple(p for (p, l) in w.pairs if l == 0)
    om = WeightedPartition(tuple((p, l) for (p, l) in w.pairs if l != 0))
    return mu, om


def _unit_word(mu) -> WeightedPartition:
    return WeightedPartition(tuple((p, 0) for p in mu))


# the points (t1, t2) = (t, -t) at which each label-target condition is sampled
_LABEL_SAMPLES = (2, 3, 5, 7, 11, 13)


def _ansatz_entry(m: int, up: RatFn, om1: WeightedPartition, om2: WeightedPartition,
                  lower: dict):
    """The ansatz of one label-basis entry N[w1][w2] of an atom at weight m:
    its value, or None where it is a free rational constant.

    ``up`` pairs the unit parts of w1 and w2, om1 and om2 are their
    omega-label rests, and ``lower`` maps each weight below m to the atom's
    label matrix there ({(om1, om2): RatFn}).  An entry with an empty rest or
    a zero unit pairing is 0; one whose rest weighs less than m is ``up``
    times the rest's entry one weight down (factorization); a pure-omega
    entry at weight m is free, the same constant for (w1, w2) and (w2, w1).
    """
    m2 = om1.weight
    if up.is_zero or m2 == 0:
        return RF_ZERO
    if m2 < m:
        return up * lower[m2].get((om1, om2), RF_ZERO)
    return None


def _channel_pairs(n: int, m: int, i: int, j: int, mps):
    """Yield (la, eta, mode) over the ordered pairs of distinct classes in
    ``mps`` that the interval (i, j) constrains: a corner pair of the interval,
    either way round, with its mode (``_corner_pairs``), and any other pair
    that agrees in size at chart i or chart j, with mode None (channel
    vanishing)."""
    corner = _corner_pairs(n, m, i, j)
    modes = {**corner, **{(ket, bra): k for (bra, ket), k in corner.items()}}
    sizes = {mp: mp.sizes() for mp in mps}
    for la, eta in itertools.permutations(mps, 2):
        mode = modes.get((la, eta))
        sa, se = sizes[la], sizes[eta]
        if mode is not None or sa[i - 1] == se[i - 1] or sa[j - 1] == se[j - 1]:
            yield la, eta, mode


def _target_conditions(n: int, m: int, a: tuple, mps):
    """Yield (la, eta, target) for the conditions on the atom a = (k, i, j)
    at weight m, over ``_channel_pairs``: on a corner pair the class bracket
    is the corner constant if k is the pair's mode and 0 otherwise; on a
    channel pair it vanishes.  Each holds mod t1 + t2."""
    k, i, j = a
    cm = interval_corner_constant(n, m)
    for la, eta, mode in _channel_pairs(n, m, i, j, mps):
        yield la, eta, cm if mode == k else RF_ZERO


class _AtomTargets:
    """Coefficient matrices N_a of the boundary operator per log atom
    a = (k, i, j) of ``omega_plus_terms``.

    In the unit/omega label basis:
        bracket(w1, w2) = tau * sum_a N_a[w1][w2] * atom_series
                          + pairing(w1, w2) * (vacuum scalar series).
    Every entry follows ``_ansatz_entry``; the free pure-omega entries are
    rational unknowns solved from the ``_target_conditions``, then
    re-verified symbolically (``_label_atom_failure``).  The word pairs and
    the fixed-point classes come from the weight's table (``_weight``).
    """

    def __init__(self, geom: SurfaceGeometry):
        self.n = geom.n
        self.solved: dict = {}

    def solve(self, m: int) -> dict:
        if m in self.solved:
            return self.solved[m]
        for mm in range(1, m):
            self.solve(mm)
        n = self.n
        atoms = omega_plus_terms(n, m)
        gammas: dict = {}  # unknown (atom, word pair in sorted order) -> index
        wt = _weight(n, m)
        wpairs = wt.word_pairs
        # affine form of each entry: known constant + optional single unknown
        aff: dict = {}
        for a in atoms:
            lower = {mm: self.solved[mm].get(a, {}) for mm in range(1, m)}
            for w1, w2, up, om1, om2 in wpairs:
                val = _ansatz_entry(m, up, om1, om2, lower)
                if val is not None:
                    aff[(a, w1, w2)] = (val, {})
                    continue
                gk = (a, *sorted((w1, w2)))
                if gk not in gammas:
                    gammas[gk] = len(gammas)
                aff[(a, w1, w2)] = (RF_ZERO, {gk: RF_ONE})

        # the fixed-point classes in label coordinates, nonzero entries only
        jl = {mp: {w: v for w, v in zip(wt.words, col) if v}
              for mp, col in zip(wt.mps, zip(*wt.J))}
        by_atom: dict = {}  # atom -> its conditions
        for a in atoms:
            for la, eta, target in _target_conditions(n, m, a, jl):
                gc: dict = {}
                const = RF_ZERO
                for w1, c1 in jl[la].items():
                    for w2, c2 in jl[eta].items():
                        cst, gd = aff[(a, w1, w2)]
                        if cst.is_zero and not gd:
                            continue
                        f = c1 * c2
                        if not cst.is_zero:
                            const = const + f * cst
                        for gk2, gcf in gd.items():
                            gc[gk2] = gc.get(gk2, RF_ZERO) + f * gcf
                by_atom.setdefault(a, []).append(((a, la, eta), gc, const, target))

        # solve the rational-unknown system per atom via exact sampling
        sol = [QQ(0)] * len(gammas)
        for agroup in by_atom.values():
            acols = sorted({gammas[gk2] for (_, gc, _, _) in agroup for gk2 in gc})
            cidx = {c: i for i, c in enumerate(acols)}
            na = len(acols)
            rows = []
            meta = []
            for (desc, gc, const, target) in agroup:
                red = {gk2: reduce_tau(v) for gk2, v in gc.items()}
                cred = reduce_tau(const - target)
                for tv in _LABEL_SAMPLES:
                    row = [QQ(0)] * na
                    for gk2, v in red.items():
                        row[cidx[gammas[gk2]]] = v.substitute_all(tv, -tv, 0)
                    rows.append(row + [-cred.substitute_all(tv, -tv, 0)])
                    meta.append(desc)
            vals, _ = _solve_label_system(rows, na, meta, m)
            for col, val in enumerate(vals):
                sol[acols[col]] = val

        gvals = {gk2: RatFn.const(sol[idx]) for gk2, idx in gammas.items()}
        out: dict = {}
        for a in atoms:
            mat: dict = {}
            for w1, w2, *_ in wpairs:
                val, gd = aff[(a, w1, w2)]
                for gk2, gcf in gd.items():
                    val = val + gcf * gvals[gk2]
                if not val.is_zero:
                    mat[(w1, w2)] = val
            out[a] = mat
        failure = _label_atom_failure(n, m, {**self.solved, m: out})
        if failure is not None:
            raise RuntimeError(f"symbolic re-verification failed at weight {m}: {failure}")
        self.solved[m] = out
        return out


def _solve_label_system(rows: list, ncols: int, meta: list, m: int) -> tuple:
    """(values, free) for one atom's sampled label-target system over QQ.

    Row t reads rows[t][:ncols] . x = rows[t][ncols].  values[c] is the value
    of unknown c (0 at a free column) and ``free`` lists the free columns.
    One ``rref`` of the whole system decides the pivots, and every row past
    the rank must then read 0 = 0.  Raises RuntimeError naming the rows
    (their ``meta``) of a contradiction.
    """
    reduced, pivots, order = rref(rows, ncols)
    vals = [QQ(0)] * ncols
    for rr, col in enumerate(pivots):
        vals[col] = reduced[rr][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    # rows past the rank are zero on the unknowns; a nonzero right-hand side
    # there is a contradiction
    incons = [meta[order[t]] for t in range(len(pivots), len(reduced)) if reduced[t][ncols]]
    if incons:
        raise RuntimeError(f"label-target system inconsistent at weight {m}: {incons[:5]}")
    return vals, free


# ---------------------------------------------------------------------------
# stage B: per-mode embedding matrices as an intertwiner condition
# ---------------------------------------------------------------------------


class _TowerFailure(Exception):
    def __init__(self, level: int, kind: str, witnesses: list):
        super().__init__(f"embedding failed at weight {level}: {kind}")
        self.level = level
        self.kind = kind
        self.witnesses = witnesses


def _label_change_matrix(words, src, dst) -> list:
    """Columns: the words, read with the labels of basis ``src``, written in
    word coordinates with the labels of basis ``dst``."""
    widx = {w: i for i, w in enumerate(words)}
    out = [[RF_ZERO] * len(words) for _ in words]
    for b, w in enumerate(words):
        for w2, c in convert_labels({w: RF_ONE}, src, dst).items():
            out[widx[w2]][b] = c
    return out


def _solve_mode_level(n, m, U_known, targets: _AtomTargets, diagonal_only=False):
    """Solve for the mode-m matrix given lower modes; linear in its entries.

    The creation words in lattice-state coordinates are T = T0 + sum_u u T_u
    over the unknowns u = (lab, jj), row lab of U_m (jj = lab alone in the
    diagonal ansatz).  T0 holds the words of lower modes; T_u holds the
    constant vector v_jj = (-1)^m e_jj(-m)|0> / m in the column of (m, lab).
    Per omega-plus term, with boundary matrix M (word coordinates) and
    lattice matrix K, T M - K T = (T0 M - K T0) + sum_u u (T_u M - K T_u)
    gives one equation per (state, word) entry not identically zero, in the
    order (term, state, word), over the sorted unknowns.  T0 M is one
    fraction-free ``matmul``; T_u M - K T_u = v_jj (x) M[(m, lab)] -
    (K v_jj) (x) e_(m, lab).

    Returns (solution dict, nullspace basis, residual tags).
    """
    states = weight_basis(n, m)
    sidx = {s: i for i, s in enumerate(states)}
    wt = _weight(n, m)
    words = wt.words
    ns, nw = len(states), len(words)

    T0 = [[RF_ZERO] * nw for _ in range(ns)]
    sign = QQ(-1) if m % 2 else QQ(1)
    top = {jj: {} for jj in range(n + 1)}  # v_jj as {state index: QQ}
    for jj, vec in top.items():
        for c2, s2 in e_act(n, jj + 1, jj + 1, -m, vacuum(n)):
            vec[sidx[s2]] = vec.get(sidx[s2], 0) + QQ(c2, m) * sign
    blocks: dict = {}  # u -> (column of the word (m, lab), v_jj)
    for wi, w in enumerate(words):
        part, lab = w.pairs[0]
        if part < m:
            for s, c in _word_state_vector(n, w, U_known).items():
                T0[sidx[s]][wi] = c
            continue
        for jj in (lab,) if diagonal_only else range(n + 1):
            blocks[(lab, jj)] = (wi, top[jj])

    # M = diag(G)^-1 Xinv^T N Xinv, with G the point-word norms
    left = [[x / g for x in col] for col, g in zip(zip(*wt.Xinv), wt.G)]
    eqs = []
    for (k, i, j), kmat in omega_plus_terms(n, m).items():
        Nlab = targets.solved[m].get((k, i, j), {})
        N = [[Nlab.get((w1, w2), RF_ZERO) for w2 in words] for w1 in words]
        M = matmul(matmul(left, N), wt.Xinv)
        E0 = matmul(T0, M)
        for (r, c2), kv in kmat.items():
            for wcol, x in enumerate(T0[c2]):
                if x:
                    E0[r][wcol] = E0[r][wcol] - kv * x
        coeffs: dict = {}  # (st, wcol) -> {u: entry of T_u M - K T_u}
        for u, (wi, vec) in blocks.items():
            for st, v in vec.items():
                for wcol, f in enumerate(M[wi]):
                    if f:
                        coeffs.setdefault((st, wcol), {})[u] = f * v
            kvec: dict = {}
            for (r, c2), kv in kmat.items():
                if c2 in vec:
                    kvec[r] = kvec.get(r, 0) + kv * vec[c2]
            for r, x in kvec.items():
                entry = coeffs.setdefault((r, wi), {})
                entry[u] = entry.get(u, RF_ZERO) - x
        for st in range(ns):
            for wcol in range(nw):
                cf = {u: v for u, v in coeffs.get((st, wcol), {}).items() if v}
                if cf or E0[st][wcol]:
                    eqs.append(((i, j, k, st, wcol), E0[st][wcol], cf))

    unk = sorted({u for (_, _, cf) in eqs for u in cf})
    uidx = {k2: i for i, k2 in enumerate(unk)}
    nu = len(unk)
    rows = []
    tags = []
    for tag, const, cf in eqs:
        row = [RF_ZERO] * nu + [-const]
        for k2, v in cf.items():
            row[uidx[k2]] = v
        rows.append(row)
        tags.append(tag)
    reduced, pivots, order = rref(rows, nu)
    residuals = [
        (tags[order[t]], reduced[t][nu])
        for t in range(len(pivots), len(reduced))
        if reduced[t][nu]
    ]
    sol = {unk[c]: reduced[r][nu] for r, c in enumerate(pivots)}
    nulls = []
    for fcol in range(nu):
        if fcol in pivots:
            continue
        vec = {unk[fcol]: RF_ONE}
        for r, c in enumerate(pivots):
            v = reduced[r][fcol]
            if v:
                vec[unk[c]] = -v
        nulls.append(vec)
    return sol, nulls, residuals


def _materialize_mode(n, sol, nulls, coeffs) -> list:
    npts = n + 1
    U = [[RF_ZERO] * npts for _ in range(npts)]
    for (lab, jj), v in sol.items():
        U[lab][jj] = v
    for cf, vec in zip(coeffs, nulls):
        if cf.is_zero:
            continue
        for (lab, jj), v in vec.items():
            U[lab][jj] = U[lab][jj] + cf * v
    return U


def _word_state_vector(n: int, word: WeightedPartition, modes: dict) -> dict:
    """{state: RatFn}: the creation word applied to the vacuum through the
    embedded modes, each part p with label l acting as
    sum_j modes[p][l][j] e_jj(-p) / p, times the sign (-1)^weight."""
    vec = {vacuum(n): RF_ONE}
    for (part, lab) in word.pairs:
        vec = apply_current(n, [u * QQ(1, part) for u in modes[part][lab]], -part, vec)
    sign = QQ(-1) if word.weight % 2 else QQ(1)
    return {s: c * sign for s, c in vec.items()}


def _transport_matrix(n: int, m: int, modes: dict):
    """Matrix of creation-word vectors in lattice-state coordinates."""
    states = weight_basis(n, m)
    sidx = {s: i for i, s in enumerate(states)}
    words = weighted_partition_basis(m, n + 1)
    T = [[RF_ZERO] * len(words) for _ in states]
    for wi, w in enumerate(words):
        for s, c in _word_state_vector(n, w, modes).items():
            T[sidx[s]][wi] = c
    return T, states, words


def _solve_mode_tower(geom: SurfaceGeometry, m_max: int, targets: _AtomTargets,
                      diagonal_only=False) -> dict:
    """Level-by-level solve of the modes {k: U_k}; raises _TowerFailure with
    structured witnesses."""
    n = geom.n
    modes: dict = {}
    for m in range(1, m_max + 1):
        targets.solve(m)
        sol, nulls, residuals = _solve_mode_level(
            n, m, modes, targets, diagonal_only=diagonal_only
        )
        if residuals:
            wits = [
                {
                    "equation": {
                        "interval": tag[:2],
                        "mode": tag[2],
                        "state": tag[3],
                        "word": tag[4],
                    },
                    "residual": str(v),
                    "tau_valuation": v.valuation_t1pt2(),
                }
                for tag, v in residuals[:5]
            ]
            raise _TowerFailure(m, "inconsistent", wits)
        cand_lists = [[RF_ZERO] * len(nulls)]
        base = [RF_ZERO] * len(nulls)
        for i in range(len(nulls)):
            v = list(base)
            v[i] = RF_ONE
            cand_lists.append(v)
        for i in range(len(nulls)):
            for j in range(i + 1, len(nulls)):
                v = list(base)
                v[i] = RF_ONE
                v[j] = RatFn.const(2)
                cand_lists.append(v)
        cand_lists.append([RatFn.const(QQ(i + 1)) for i in range(len(nulls))])
        chosen = None
        for cand in cand_lists:
            Um = _materialize_mode(n, sol, nulls, cand)
            # the lower modes are invertible, and the transport is invertible
            # exactly when every U_k, k <= m, is
            try:
                inverse(Um)
            except SingularMatrixError:
                continue
            chosen = Um
            break
        if chosen is None:
            raise _TowerFailure(
                m,
                "singular-transport",
                [
                    {
                        "detail": "every admissible embedding gives a singular "
                        "creation-word basis change",
                        "solution": {
                            f"u[{lab},{jj}]": str(v) for (lab, jj), v in sol.items()
                        },
                        "free_parameters": len(nulls),
                    }
                ],
            )
        modes[m] = chosen
    return modes


# ---------------------------------------------------------------------------
# the closed-form embedding, verified against the stage A and B equations
# ---------------------------------------------------------------------------


def _mode_progression_ratio(geom: SurfaceGeometry) -> RatFn:
    return RatFn.const(QQ(-1, geom.n + 1)) / T2


def _closed_form_mode(geom: SurfaceGeometry, k: int) -> list:
    """U_k = rho^(k-1) U_1 with rho = -1/((n+1) t2) and, for N = n + 1 and
    1-based i, j: U_1[i][j] = 1 for j < i, (N - i)/N (t1 + t2)/t2 for j = i,
    and (n t2 - t1)/(N t2) for j > i."""
    npts = geom.n + 1
    diag = RatFn(TAU) / T2
    upper = (RatFn(T2) * QQ(geom.n) - T1) / (RatFn(T2) * QQ(npts))
    f = _mode_progression_ratio(geom) ** (k - 1)
    return [
        [f * (RF_ONE if j < i else diag * QQ(npts - i, npts) if j == i else upper)
         for j in range(1, npts + 1)]
        for i in range(1, npts + 1)
    ]


def _label_atom_matrices(dic: Dictionary, m: int) -> dict:
    """{a: {(w1, w2): RatFn}}: the label-basis matrices N of the atoms
    a = (k, i, j) that the transport T (lattice states by point-label words)
    of ``dic`` implies at weight m.

    The intertwiner T M = K T of each omega-plus term K gives its word matrix
    M = T^-1 K T, and ``_solve_mode_level``'s M = diag(G)^-1 Xinv^T N Xinv
    gives N = X^T diag(G) M X, with X = Xinv^-1 the label words in
    point-word coordinates and G the point-word norms (``_weight``).  So
    N = L K R with (L, R) the label frame (``Dictionary.frame``); each N is
    one fraction-free product around K's sparse integral entries
    (``_sandwich``).  Zero entries are left out, as in ``_AtomTargets.solve``.
    """
    words = _weight(dic.n, m).words
    L, R = dic.frame(m, "label")
    out = {}
    for a, K in omega_plus_terms(dic.n, m).items():
        N = _sandwich(L, K, R)
        out[a] = {
            (w1, w2): v
            for w1, row in zip(words, N)
            for w2, v in zip(words, row)
            if v
        }
    return out


def _label_atom_failure(n: int, m: int, labels: dict):
    """None if the atom matrices ``labels[m]`` solve the weight-m label-target
    system of ``_AtomTargets.solve`` on the rank-n surface, else
    (kind, witnesses).

    First every entry must follow ``_ansatz_entry`` (kind "ansatz-structure"),
    with ``labels`` at the lower weights for the factorized entries.  Then the
    class brackets J^T N J, with J the fixed-point classes in label
    coordinates (``_weight``), must meet every ``_target_conditions`` target
    mod t1 + t2 (kind "target-conditions").
    """
    wt = _weight(n, m)
    wits = []
    for a, N in labels[m].items():
        lower = {mm: labels[mm].get(a, {}) for mm in range(1, m)}
        for w1, w2, up, om1, om2 in wt.word_pairs:
            got = N.get((w1, w2), RF_ZERO)
            want = _ansatz_entry(m, up, om1, om2, lower)
            if want is None:
                ok = got.is_const and got == N.get((w2, w1), RF_ZERO)
            else:
                ok = got == want
            if not ok:
                wits.append({"atom": (*a[1:], a[0]), "entry": (repr(w1), repr(w2)), "value": str(got),
                             "expected": "symmetric rational constant" if want is None
                             else str(want)})
    if wits:
        return "ansatz-structure", wits[:5]
    Jt = [list(col) for col in zip(*wt.J)]
    pidx = {mp: i for i, mp in enumerate(wt.mps)}
    for a, Nd in labels[m].items():
        N = [[Nd.get((w1, w2), RF_ZERO) for w2 in wt.words] for w1 in wt.words]
        P = matmul(matmul(Jt, N), wt.J)
        for la, eta, target in _target_conditions(n, m, a, wt.mps):
            got = P[pidx[la]][pidx[eta]]
            try:
                ok = reduce_tau(got - target).is_zero
            except ExactDivisionError:  # a pole along t1 + t2 = 0
                ok = False
            if not ok:
                wits.append({"atom": (*a[1:], a[0]), "bra": repr(la), "ket": repr(eta),
                             "value": str(got), "target": str(target)})
    if wits:
        return "target-conditions", wits[:5]
    return None


def _closed_form_tower(dic: Dictionary) -> dict:
    """{m: label atom matrices} for the closed-form modes of ``dic`` at the
    weights m <= m_max, each weight verified before the next.

    Per weight m every U_k, k <= m, must be invertible, which makes the
    transport invertible (its inverse reads the annihilation matrices, kind
    "singular-transport"); then the label atom matrices it implies
    (``_label_atom_matrices``) must solve the label-target system
    (``_label_atom_failure``).  Those are the equations ``_solve_mode_tower``
    solves, so the modes are a solution of them.  Each entry has the form of
    ``_AtomTargets.solve(m)``.  Raises _TowerFailure at the first weight that
    fails.
    """
    labels: dict = {}
    for m in range(1, dic.m_max + 1):
        try:
            labels[m] = _label_atom_matrices(dic, m)
        except SingularMatrixError:
            raise _TowerFailure(m, "singular-transport", [{
                "detail": "the closed-form modes give a singular creation-word "
                "basis change",
                "mode": [[str(v) for v in row] for row in dic.modes[m]],
            }]) from None
        failure = _label_atom_failure(dic.n, m, labels)
        if failure is not None:
            raise _TowerFailure(m, *failure)
    return labels


# ---------------------------------------------------------------------------
# the calibrated dictionary
# ---------------------------------------------------------------------------


class CalibrationError(Exception):
    """The embedding failed a calibration check; carries the full report."""

    def __init__(self, report: dict):
        super().__init__(report.get("summary", "calibration failed"))
        self.report = report


class Dictionary:
    """Calibrated correspondence between Heisenberg modes and lattice modes.

    ``modes[k][i][j]`` is the coefficient of the color-j lattice mode in the
    image of the weight-k creation operator on the i-th point class, for the
    levels k <= m_max.  The constructor builds them in closed form, U_k =
    rho^(k-1) U_1 (``_closed_form_mode``), with the ratio ``rho``;
    ``calibrate`` verifies them up to m_max and fills in ``normalizations``
    and ``report``.  ``mode_matrix`` extends them past m_max by the same
    formula; those levels are not verified.  ``normalizations`` holds the
    squared norms of the fixed-point classes (their tangent Euler classes),
    verified against the pairing during calibration.  ``ansatz`` and
    ``mode_rule`` name the one embedding there is.

    Every matrix derived from the modes is built once, through ``cached``, and
    kept in the one table ``_memo``, keyed ``(kind, *args)`` on hashable
    arguments only; what depends on the geometry alone lives in the weight's
    table (``_weight``).  The kinds are ``annihilation`` (k), ``transport``
    and ``transport_inverse`` (m; the inverse is read from the transport
    through the annihilation matrices, with no inversion, only ``frame``
    reads it, and the verification in ``calibrate`` builds both for
    m <= m_max), ``frame`` (m, basis), ``fixed_point_state`` (m), ``engine``
    (m, window), ``divisor`` (selector, m, window), ``atoms`` (m; every
    divisor atom's integer lattice-state matrix, ``_atoms``), ``atom_class``
    (m, atom tag), and ``classical_state`` (m, selector).
    """

    ansatz = "color-mixing"
    mode_rule = "geometric"

    def __init__(self, geom: SurfaceGeometry, m_max: int):
        self.geom = geom
        self.n = geom.n
        self.m_max = m_max
        self.rho = _mode_progression_ratio(geom)
        self.modes = {k: _closed_form_mode(geom, k) for k in range(1, m_max + 1)}
        self.normalizations: dict = {}
        self.report: dict = {}
        self._memo: dict = {}

    def cached(self, key: tuple, build):
        """The memo entry under ``key``, made by ``build()`` on first use."""
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = build()
        return hit

    # -- mode access -------------------------------------------------------

    def mode_matrix(self, k: int) -> list:
        if k < 1:
            raise ValueError("mode index must be positive")
        return self.modes[k] if k in self.modes else _closed_form_mode(self.geom, k)

    def point_euler(self, j: int) -> RatFn:
        """Euler class at the j-th surface fixed point (1-based)."""
        return RatFn(self.geom.euler_point(j))

    def annihilation_matrix(self, k: int) -> list:
        """Matrix pairing with the creation side to the Heisenberg relation:
        V_k = -diag(euler) . (U_k^T)^{-1}.  Raises SingularMatrixError, naming
        k, if U_k is singular."""
        def build():
            U = self.mode_matrix(k)
            npts = self.n + 1
            try:
                Uti = inverse([[U[j][i] for j in range(npts)] for i in range(npts)])
            except SingularMatrixError:
                raise SingularMatrixError(f"U_{k} is singular: mode {k} has no "
                                          "annihilation matrix") from None
            return [
                [-self.point_euler(i + 1) * Uti[i][j] for j in range(npts)]
                for i in range(npts)
            ]
        return self.cached(("annihilation", k), build)

    # -- transports --------------------------------------------------------

    def transport(self, m: int):
        return self.cached(("transport", m), lambda: _transport_matrix(
            self.n, m, {k: self.mode_matrix(k) for k in range(1, m + 1)}))

    def transport_inverse(self, m: int) -> list:
        """T^-1 = (-1)^m diag(G)^-1 T_V^T, with T_V the transport through the
        annihilation matrices V_k and G the point-word norms (``_weight``):
        the Heisenberg relation V_k U_k^T = -diag(euler) makes T_V^T T =
        (-1)^m diag(G).  Raises SingularMatrixError if some U_k, k <= m, is
        singular, which is exactly when the transport is."""
        def build():
            V = {k: self.annihilation_matrix(k) for k in range(1, m + 1)}
            sign = QQ(-1) if m % 2 else QQ(1)
            return [[x * (sign / g) for x in col] for col, g in
                    zip(zip(*_transport_matrix(self.n, m, V)[0]), _weight(self.n, m).G)]
        return self.cached(("transport_inverse", m), build)

    def frame(self, m: int, basis: str) -> tuple:
        """(L, R) = (V^T diag(G) T^-1, T V): a state operator K reads L K R
        between the columns V of ``basis`` (``_weight``), Id for ``"word"``,
        X for ``"label"`` and C for ``"class"``; ValueError for another."""
        if basis not in ("word", "label", "class"):
            raise ValueError(f"unknown basis {basis!r}: use 'word', 'label' or 'class'")

        def build():
            wt = _weight(self.n, m)
            T, Tinv = self.transport(m)[0], self.transport_inverse(m)
            if basis == "word":
                return [[g * x for x in row] for g, row in zip(wt.G, Tinv)], T
            V = wt.X if basis == "label" else wt.C
            VtG = [[g * x for g, x in zip(wt.G, col)] for col in zip(*V)]
            return matmul(VtG, Tinv), matmul(T, V)
        return self.cached(("frame", m, basis), build)

    def fixed_point_state_matrix(self, m: int):
        """(D, Dinv, mps) = (T C, diag(E)^-1 C^T G T^-1, mps), the fixed-point
        classes in state coordinates from the class frame; Dinv inverts D as
        C^T G C = diag(E), which ``calibrate`` verifies for m <= m_max."""
        def build():
            wt = _weight(self.n, m)
            L, D = self.frame(m, "class")
            return D, [[x / e for x in row] for row, e in zip(L, wt.E)], wt.mps
        return self.cached(("fixed_point_state", m), build)

    def engine(self, m: int, window: Window | None = None):
        window = window or DEFAULT_WINDOW
        return self.cached(("engine", m, window), lambda: BracketEngine(self, m, window))


def _lattice_commutator(n: int, ii: int, jj: int, k: int, st0) -> dict:
    """[e_ii(k), e_jj(-k)] st0 for 0-based colours, as {state: int}; the keys
    are every state either ordering reaches, cancelled or not."""
    vec: dict = {}
    for sign, (c1, k1), (c2, k2) in ((1, (jj, -k), (ii, k)), (-1, (ii, k), (jj, -k))):
        for x, s1 in e_act(n, c1 + 1, c1 + 1, k1, st0):
            for y, s2 in e_act(n, c2 + 1, c2 + 1, k2, s1):
                vec[s2] = vec.get(s2, 0) + sign * x * y
    return vec


def heisenberg_embedding_check(dic: Dictionary, kmax: int = 3) -> dict:
    """Verify the commutation relation of the embedded modes on low-weight
    lattice states: [P_k(point_a), P_{-k}(point_b)] = -k delta_ab euler_a.

    P_k(a) = sum_ii V[a][ii] e_ii(k) and P_{-k}(b) = sum_jj U[b][jj] e_jj(-k),
    so the coefficient of state s in the commutator on st0 is
    sum V[a][ii] C_s[ii][jj] U[b][jj], with C_s[ii][jj] the integer
    coefficient of s in [e_ii(k), e_jj(-k)] st0 (``_lattice_commutator``).
    It checks C_s = k delta_(s, st0) Id in integers on each state, and
    V_k U_k^T = -diag(euler) once per k.  For each (a, b) every state reached
    through a nonzero V[a][ii] U[b][jj] is checked, and each (k, a, b, state)
    where V_k U_k^T or a reached C_s fails is one witness.  The second holds
    for any invertible U_k, as V_k = -diag(euler) (U_k^T)^{-1}.
    States run over weights 0..2 and modes over k = 1..kmax;
    ``calibrate`` runs it with kmax = 2.  Raises TypeError for a bool or
    non-int kmax and ValueError for kmax < 1.
    """
    if isinstance(kmax, bool) or not isinstance(kmax, int):
        raise TypeError(f"kmax must be an int, not {type(kmax).__name__} {kmax!r}")
    if kmax < 1:
        raise ValueError(f"kmax = {kmax} must be at least 1")
    n = dic.n
    grid = list(itertools.product(range(n + 1), repeat=2))  # (a, b) and (ii, jj)
    failures = []
    checked = 0
    for k in range(1, kmax + 1):
        U = dic.mode_matrix(k)
        V = dic.annihilation_matrix(k)
        VU = matmul(V, [list(col) for col in zip(*U)])
        bad = {(a, b) for a, b in grid
               if VU[a][b] != (-dic.point_euler(a + 1) if a == b else RF_ZERO)}
        for m in range(3):
            for st0 in weight_basis(n, m):
                comm = {(ii, jj): _lattice_commutator(n, ii, jj, k, st0) for ii, jj in grid}
                bad_lattice = {(ii, jj) for (ii, jj), vec in comm.items()
                               if {s: c for s, c in vec.items() if c}
                               != ({st0: k} if ii == jj else {})}
                for a, b in grid:
                    pairs = [(ii, jj) for ii, jj in grid if V[a][ii] and U[b][jj]]
                    checked += len({st0}.union(*(comm[pair] for pair in pairs)))
                    if (a, b) in bad or bad_lattice.intersection(pairs):
                        failures.append(
                            {"k": k, "a": a, "b": b, "state-weight": m, "state": repr(st0)})
        if failures:
            break
    return {"ok": not failures, "checked": checked, "witnesses": failures[:3]}


def _norm_agreement_check(geom: SurfaceGeometry, m_max: int) -> dict:
    """Squared norms of fixed-point classes must equal tangent Euler classes,
    and distinct classes must be orthogonal.  The point-word pairing is
    diagonal in words, with the norms G of the weight's table."""
    failures = []
    checked = 0
    norms = {}
    for m in range(1, m_max + 1):
        wt = _weight(geom.n, m)
        fpv = wt.classes
        mps = wt.mps
        G = dict(zip(wt.words, wt.G))

        def pair(vec1, vec2):
            return sum((G[w] * c * vec2[w] for w, c in vec1.items() if w in vec2), RF_ZERO)

        for i, (mp, want) in enumerate(zip(mps, wt.E)):
            got = pair(fpv[mp], fpv[mp])
            norms[mp] = got
            checked += 1
            if got != want:
                failures.append({"class": repr(mp), "kind": "norm"})
            for mp2 in mps[i + 1 :]:
                checked += 1
                if not pair(fpv[mp], fpv[mp2]).is_zero:
                    failures.append({"pair": (repr(mp), repr(mp2)), "kind": "cross"})
    return {"ok": not failures, "checked": checked, "witnesses": failures[:3],
            "norms": norms}


def _localization_matrix_check(geom: SurfaceGeometry) -> dict:
    """The weight-one basis change must be the surface localization matrix:
    coordinates on point classes are restrictions divided by Euler factors."""
    ob = unit_omega_basis(geom)
    fb = fixed_point_basis(geom)
    failures = []
    checked = 0
    for b in range(ob.size):
        cls = ob.classes[b]
        coords = fb.coords(cls)
        for pt in range(geom.npoints):
            e = RatFn(geom.euler_point(pt + 1))
            checked += 1
            if coords[pt] * e != cls[pt]:
                failures.append({"class": ob.names[b], "point": pt + 1})
    return {"ok": not failures, "checked": checked, "witnesses": failures}


def _failed_attempt(kind: str, exc: _TowerFailure) -> dict:
    """The report of an ansatz whose tower failed at level ``exc.level``."""
    return {
        "ansatz": kind,
        "status": "failed",
        "violated_constraint": (
            "(b) invertible weight-one basis change"
            if exc.kind == "singular-transport"
            else "(c) corner/channel target equations"
        ),
        "level": exc.level,
        "kind": exc.kind,
        "witnesses": exc.witnesses,
    }


def calibrate(geom: SurfaceGeometry, m_max: int = 2) -> Dictionary:
    """The Heisenberg embedding up to weight ``m_max``, built from its closed
    form (``Dictionary(geom, m_max)``) and verified exactly, in place.

    The modes must solve, level by level, the equations the constraint
    solver ``_solve_mode_tower`` solves (``_closed_form_tower``, through the
    dictionary's label frames, each kept in its memo).  Then they must
    satisfy, in order: (a) the Heisenberg relation with the surface pairing,
    the lattice commutators in integers and V_k U_k^T = -diag(euler), which
    holds for any invertible U_k (``heisenberg_embedding_check`` with k <= 2);
    (b) weight-one agreement between the word pairing and the transported
    lattice pairing (invertible basis change matching surface localization);
    (c) the two corner evaluations mod (t1+t2)^2 at weights 1 and 2, on
    ``DEFAULT_WINDOW``.

    The modes are fixed only up to the gauge U_k -> c^k U_k, which rescales
    the weight-k Nakajima mode against the Cartan currents e_ii(-k) of
    gl(n+1)^: c = 2 and c = -3/5 pass every check here at n = 1, 2.  The
    closed form is the solver's pick, which fixes c at level 1.

    The diagonal ansatz is first solved for with the constraint solver, the
    one production use of the solver; its structured failure is part of the
    returned report.  Raises CalibrationError, with every attempt's report,
    if the closed form fails any check.
    """
    if isinstance(m_max, bool) or not isinstance(m_max, int):
        raise TypeError(f"m_max must be an int, not {type(m_max).__name__}")
    if m_max < 2:
        raise ValueError("calibration needs m_max >= 2")
    attempts = []
    # no diagonal U_1 gives an invertible transport at n <= 4, so this
    # attempt fails at level 1 and only its report is kept
    try:
        _solve_mode_tower(geom, m_max, _AtomTargets(geom), diagonal_only=True)
        attempts.append({"ansatz": "diagonal", "status": "solved, not used"})
    except _TowerFailure as exc:
        attempts.append(_failed_attempt("diagonal", exc))
    dic = Dictionary(geom, m_max)
    kind = dic.ansatz
    try:
        _closed_form_tower(dic)
    except _TowerFailure as exc:
        attempts.append(_failed_attempt(kind, exc))
        raise CalibrationError({
            "summary": f"the closed-form embedding fails its {exc.kind} check "
            f"at weight {exc.level}",
            "attempts": attempts,
        }) from None
    norm_check = _norm_agreement_check(geom, m_max)
    dic.normalizations = norm_check["norms"]
    heis = heisenberg_embedding_check(dic, kmax=2)
    loc = _localization_matrix_check(geom)
    corner2 = corner_evaluation_check(dic, 2)
    corner1 = corner_evaluation_check(dic, 1)
    constraints = [
        {"id": "(a) heisenberg-with-surface-pairing", **heis},
        {
            "id": "(b) weight-one basis change / pairing agreement",
            "ok": loc["ok"] and norm_check["ok"],
            "checked": loc["checked"] + norm_check["checked"],
            "witnesses": loc["witnesses"] + norm_check["witnesses"],
        },
        {"id": "(c) corner evaluations mod tau^2",
         "ok": corner2["ok"] and corner1["ok"],
         "checked": corner2["checked"] + corner1["checked"],
         "witnesses": corner2["witnesses"] + corner1["witnesses"]},
    ]
    ok = all(c["ok"] for c in constraints)
    attempts.append(
        {
            "ansatz": kind,
            "status": "ok" if ok else "failed",
            "constraints": constraints,
            "mode_rule": dic.mode_rule,
            "progression_ratio": str(dic.rho),
        }
    )
    if not ok:
        raise CalibrationError({
            "summary": "the closed-form embedding fails the calibration constraints",
            "attempts": attempts,
        })
    dic.report = {
        "ansatz": kind,
        "m_max": m_max,
        "attempts": attempts,
        "modes": {
            k: [[str(v) for v in row] for row in dic.modes[k]] for k in dic.modes
        },
        "conventions": {
            "pairing": "annihilate-then-read-vacuum with sign (-1)^m and "
            "1/part scaling per mode",
            "heisenberg": "[P_k(a), P_l(b)] = -k delta_{k+l} <a,b>",
            "annihilation": "V_k = -diag(euler) (U_k^T)^{-1}",
        },
    }
    return dic


# ---------------------------------------------------------------------------
# bracket engine: matrix elements of the boundary operator
# ---------------------------------------------------------------------------


def _scalar_multiple(K: dict, size: int) -> int | None:
    """k if the sparse integer matrix K is k Id of the given size, else None."""
    k = K.get((0, 0))
    scalar = len(K) == size and all(r == c and v == k for (r, c), v in K.items())
    return k if scalar else None


def _series_matrix(terms, entries=None) -> dict:
    """{(r, c): sum of ser.scale(M[r][c])} over the (M, ser) of ``terms`` in
    order, added with ``QSSeries`` + onto a copy of ``entries``, so windows
    and floors follow ``exact._sum_window``.  Only the entries that some
    nonzero M[r][c] reaches, or that ``entries`` holds, are present."""
    out = dict(entries or {})
    for M, ser in terms:
        for r, row in enumerate(M):
            for c, v in enumerate(row):
                if v:
                    add = ser.scale(v)
                    out[(r, c)] = add if (cur := out.get((r, c))) is None else cur + add
    return out


class BracketEngine:
    """Matrix elements of the boundary operator between the columns V of a
    basis, B = V^T G . T^{-1} . Theta_state . T V with the geometric word
    pairing G, read through the basis's frame (V^T G T^{-1}, T V) of
    ``Dictionary.frame``.  Each basis's matrix is built once.

    Theta is read atom by atom, as ``theta_logatoms`` gives it: Theta =
    (t1 + t2) sum_a K_a log(1 - (-q)^k s_i...s_{j-1}) over the log atoms
    a = (k, i, j), each K_a a sparse integer state matrix.  So B is
    sum_a W_a L_a, with L_a the atom's series on the window and
    W_a = (t1 + t2) V^T G . T^{-1} . K_a . T V one fraction-free product
    (``exact._sandwich``).  A scalar atom K_a = k Id (a vacuum atom that no
    pair operator shares) needs no product: W_a = (t1 + t2) k V^T G V, as
    T^{-1} T = Id.  The entries are the sums of the series W_a[r][c] L_a
    over the nonempty L_a (``_series_matrix``): all share the window, so an
    entry's q-floor is the least floor of the atoms with W_a[r][c] nonzero
    (``exact._sum_window``), and an entry that no such atom reaches is
    ``QSSeries.zero``.  No entry is None.
    """

    def __init__(self, dic: Dictionary, m: int, window: Window):
        self.dic, self.n, self.m, self.window = dic, dic.n, m, window
        # the vacuum atoms with k > qmax only touch q-degrees above the window
        self.theta = theta_logatoms(self.n, m, max(1, window.qmax))
        self._matrices: dict = {}

    def bracket_matrix(self, basis: str = "word") -> list:
        if basis in self._matrices:
            return self._matrices[basis]
        n, window = self.n, self.window
        left, TV = self.dic.frame(self.m, basis)
        A = [[TAU * x for x in row] for row in left]
        S = matmul(A, TV)
        terms = []
        for a, Ka in self.theta.items():
            L = log_atom_expand(n, window, *a)
            if L.data:
                k = _scalar_multiple(Ka, len(TV))
                terms.append((_sandwich(A, Ka, TV) if k is None else
                              [[x * k if x else x for x in row] for row in S], L))
        got = _series_matrix(terms)
        size = range(len(S))
        B = self._matrices[basis] = [
            [got[(r, c)] if (r, c) in got else QSSeries.zero(n, window) for c in size]
            for r in size]
        return B


def _vacuum_scalar_series(n: int, window: Window, kmax: int) -> QSSeries:
    """tau * sum over intervals of sum_{k=1..kmax} k log(1-(-q)^k s-interval)."""
    return expand_logatoms(n, theta_vacuum_logatoms(n, kmax), window)


def _coerce_word(x, geom: SurfaceGeometry) -> WeightedPartition:
    """A word as a WeightedPartition whose labels index the n + 1 classes of
    a basis: point classes, or the unit and omega classes."""
    w = x if isinstance(x, WeightedPartition) else WeightedPartition(tuple(x))
    bad = [l for _p, l in w.pairs if l > geom.n]
    if bad:
        raise ValueError(f"word label {bad[0]} is outside 0..{geom.n}: labels index "
                         f"the {geom.npoints} point classes or unit/omega classes")
    return w


def interval_channel(series: QSSeries, i: int, j: int) -> QSSeries:
    """Keep monomials that are powers of the interval monomial s_i...s_{j-1}."""
    n = series.nvars
    if not (1 <= i < j <= n + 1):
        raise ValueError(f"bad interval [{i},{j}] for {n} s-variables")
    sel = _interval_skey(n, i, j)
    out: dict = {}
    for (qd, sk), v in series.data.items():
        if sum(sk) == 0:
            continue
        if all((sk[t] == 0) == (sel[t] == 0) for t in range(n)):
            nz = {sk[t] for t in range(n) if sel[t]}
            if len(nz) == 1:
                out[(qd, sk)] = v
    return QSSeries(n, series.window, series.qfloor, out)


def _mod_tau2_zero(series: QSSeries) -> bool:
    return all(v.is_zero or v.valuation_t1pt2() >= 2 for v in series.data.values())


# ---------------------------------------------------------------------------
# structural checks of the boundary-operator matrix elements
# ---------------------------------------------------------------------------


def _word_bracket_table(dic: Dictionary, m: int, window: Window) -> dict:
    """{(word1, word2): series} over unit/omega-labelled words of weight m,
    read from the ``"label"`` bracket matrix."""
    words = _weight(dic.n, m).words
    B = dic.engine(m, window).bracket_matrix("label")
    return {(a, b): x for a, row in zip(words, B) for b, x in zip(words, row)}


def factorization_check(dic: Dictionary, m: int, window: Window | None = None) -> dict:
    """Unit parts factor out of the bracket exactly:
    <mu(1) A | Theta | nu(1) B> = <mu(1), nu(1)> <A|Theta|B>."""
    _require_solved(dic, m)
    window = window or DEFAULT_WINDOW
    wt = _weight(dic.n, m)
    tables = {
        mm: _word_bracket_table(dic, mm, window) for mm in range(1, m + 1)
    }
    Fser = _vacuum_scalar_series(dic.n, window, max(1, window.qmax))
    failures = []
    checked = 0
    for a, b, up, om1, om2 in wt.word_pairs:
        tot = tables[m][(a, b)]
        m2 = om1.weight
        if up.is_zero:
            expect = Fser.scale(nak_pairing(a, b, wt.ob))
        elif m2 == 0:
            expect = Fser.scale(up)
        elif m2 < m:
            expect = tables[m2][(om1, om2)].scale(up)
        else:
            continue  # pure-omega entries carry the interaction content
        checked += 1
        if not (tot - expect).is_zero:
            failures.append({"bra": repr(a), "ket": repr(b)})
    return {"ok": not failures, "checked": checked, "witnesses": failures[:5]}


def tau_linearity_check(dic: Dictionary, m: int, window: Window | None = None) -> dict:
    """Pure-omega entries minus the scalar part have coefficients gamma*(t1+t2)
    with gamma rational."""
    _require_solved(dic, m)
    window = window or DEFAULT_WINDOW
    ob = unit_omega_basis(dic.geom)
    Fser = _vacuum_scalar_series(dic.n, window, max(1, window.qmax))
    tau = RatFn(TAU)
    failures = []
    checked = 0
    table = _word_bracket_table(dic, m, window)
    for (a, b), tot in table.items():
        mu, _ = _unit_split(a)
        nu, _ = _unit_split(b)
        if mu or nu:
            continue
        rem = tot - Fser.scale(nak_pairing(a, b, ob))
        for val in rem.data.values():
            checked += 1
            if not (val / tau).is_const:
                failures.append({"bra": repr(a), "ket": repr(b)})
                break
    return {"ok": not failures, "checked": checked, "witnesses": failures[:5]}


def _channel_check(dic: Dictionary, m: int, window: Window | None, corners: bool) -> dict:
    """Walk ``_channel_pairs`` of every interval (i, j) on the "class" bracket
    matrix, mod (t1+t2)^2: with ``corners`` each corner pair's channel is
    (t1+t2) c_m log(1 - (-q)^mode s_i...s_{j-1}); without, each other
    channel pair's channel vanishes."""
    _require_solved(dic, m)
    window = window or DEFAULT_WINDOW
    n = dic.n
    B = dic.engine(m, window).bracket_matrix("class")
    mps = _weight(n, m).mps
    pidx = {mp: r for r, mp in enumerate(mps)}
    cm = interval_corner_constant(n, m) * RatFn(TAU)
    failures, checked = [], 0
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            for la, eta, mode in _channel_pairs(n, m, i, j, mps):
                if (mode is not None) != corners:
                    continue
                channel = interval_channel(B[pidx[la]][pidx[eta]], i, j)
                if corners:
                    channel = channel - log_atom_expand(n, window, mode, i, j).scale(cm)
                checked += 1
                if not _mod_tau2_zero(channel):
                    failures.append({"interval": (i, j), "bra": repr(la), "ket": repr(eta)})
    return {"ok": not failures, "checked": checked, "witnesses": failures[:5]}


def vanishing_check(dic: Dictionary, m: int, window: Window | None = None) -> dict:
    """On each channel pair of an interval (``_channel_pairs``: distinct classes
    of equal size at either endpoint), the channel vanishes mod (t1+t2)^2."""
    return _channel_check(dic, m, window, corners=False)


def _corner_pairs(n: int, m: int, i: int, j: int) -> dict:
    """{(bra, ket): mode} for the two distinguished class pairs of the
    interval; at weight one both are the same pair, with mode 0."""

    def mk(ch0, lam, ch1=None, lam2=None):
        comp = [()] * (n + 1)
        comp[ch0] = lam
        if ch1 is not None and lam2:
            comp[ch1] = lam2
        return MultiPartition(comp)

    if m == 1:
        return {(mk(i - 1, (1,)), mk(j - 1, (1,))): 0}
    row_bra = mk(i - 1, (m,))
    row_ket = mk(i - 1, (m - 1,), j - 1, (1,))
    col_bra = mk(i - 1, (1,) * m)
    col_ket = mk(i - 1, (1,) * (m - 1), j - 1, (1,))
    return {(row_bra, row_ket): m - 1, (col_bra, col_ket): -(m - 1)}


def corner_evaluation_check(dic: Dictionary, m: int,
                            window: Window | None = None) -> dict:
    """Both corner evaluations per interval, each corner pair either way round
    (``_channel_pairs``):
    bracket = (t1+t2) c_m log(1 - (-q)^{+-(m-1)} s_i...s_{j-1}) mod (t1+t2)^2."""
    return _channel_check(dic, m, window, corners=True)


# ---------------------------------------------------------------------------
# divisor operators
# ---------------------------------------------------------------------------


@dataclass
class OperatorMatrix:
    """Matrix of an operator in a declared basis with series entries."""

    n: int
    m: int
    basis: str
    index: tuple
    window: Window
    entries: dict = field(default_factory=dict)

    def entry(self, r: int, c: int) -> QSSeries:
        return self.entries.get((r, c)) or QSSeries.zero(self.n, self.window)

    @property
    def dim(self) -> int:
        return len(self.index)


@dataclass
class DivisorOp:
    """A divisor operator with its classical (diagonal) part split off."""

    which: object
    matrix: OperatorMatrix
    classical: OperatorMatrix


def _divisor_key(which) -> object:
    if which == "D" or (isinstance(which, tuple) and len(which) == 2
                        and which[0] == "omega" and isinstance(which[1], int)):
        return which
    raise ValueError(f"unknown divisor selector {which!r}")


def _classical_restriction(which, mp: MultiPartition, geom: SurfaceGeometry) -> RatFn:
    """Equivariant restriction of the divisor class at a fixed point.

    The doubled-point divisor restricts to minus the box-weight sum per chart;
    the curve-class divisors restrict to size times the point restriction.
    No test pins the signs or the box-weight convention yet: there is no
    weight-one cup-product oracle, and the assembled operators do not
    commute exactly.  The ROADMAP item "Land the commuting divisor family"
    (defect (a)) suspects the "D" branch swaps the box weights (wl*c + wr*r
    is expected); the fix waits for the operators baselines to be
    re-recorded.
    """
    if which == "D":
        tot = RF_ZERO
        for k, lam in enumerate(mp, start=1):
            wl, wr = RatFn(geom.wL(k)), RatFn(geom.wR(k))
            for r, rl in enumerate(lam):
                for c in range(rl):
                    tot = tot + wl * QQ(r) + wr * QQ(c)
        return -tot
    i = which[1]
    tot = RF_ZERO
    om = geom.cls_omega(i)
    for k, lam in enumerate(mp, start=1):
        if lam.size:
            tot = tot + om[k - 1] * QQ(lam.size)
    return tot


def _classical_values(which, m: int, mps, geom: SurfaceGeometry) -> list:
    """Classical restriction of ``which`` at each fixed point in ``mps``; the
    doubled-point divisor does not exist below weight two and is zero there."""
    if which == "D" and m <= 1:
        return [RF_ZERO] * len(mps)
    return [_classical_restriction(which, mp, geom) for mp in mps]


def classical_divisor(which, m: int, geom: SurfaceGeometry,
                      window: Window | None = None) -> OperatorMatrix:
    """Diagonal matrix of classical multiplication in the fixed-point basis."""
    which = _divisor_key(which)
    window = window or Window(qmin=0, qmax=0, smax=0)
    mps = tuple(enumerate_multipartitions(m, geom.npoints))
    if which == "D" and m <= 1:
        warnings.warn(
            "the doubled-point divisor does not exist below weight two; "
            "returning the zero operator",
            stacklevel=2,
        )
    entries = {
        (idx, idx): QSSeries.monomial(geom.n, window, 0, (0,) * geom.n, val)
        for idx, val in enumerate(_classical_values(which, m, mps, geom))
        if not val.is_zero
    }
    return OperatorMatrix(geom.n, m, "fixed-point-class", mps, window, entries)


def _atoms(dic: Dictionary, m: int) -> dict:
    """{tag: {(r, c): int}}: every divisor atom at weight m as an integer
    lattice-state matrix (memoized).  First the interaction atoms
    (k, i, j) of ``omega_plus_terms``, then each dressing mode ("mode", k) of
    ``omega0_mode_matrices`` as the Cartan pair sum
    K_k = sum_a :e_aa(-k) e_aa(k): of ``normal_pair_matrix``.  The fock mode
    M_k must intertwine with it through the transport, T M_k = K_k T, exactly;
    ArithmeticError names the mode where it does not."""
    def build():
        n, atoms, T = dic.n, omega_plus_terms(dic.n, m), dic.transport(m)[0]
        eye = [[RF_ONE if r == c else RF_ZERO for c in range(len(T))] for r in range(len(T))]
        for k, M in omega0_mode_matrices(dic.geom, m, fixed_point_basis(dic.geom)).items():
            pairs = [normal_pair_matrix(n, m, a, a, k) for a in range(1, n + 2)]
            K = atoms[("mode", k)] = {rc: v for rc in sorted(set().union(*pairs))
                                      if (v := sum(P.get(rc, 0) for P in pairs))}
            if matmul(T, _dense(M, len(T))) != _sandwich(eye, K, T):
                raise ArithmeticError(f"dressing mode {k} at weight {m}: the fock mode "
                                      "does not intertwine with sum_a :e_aa(-k) e_aa(k):")
        return atoms
    return dic.cached(("atoms", m), build)


def _atom_logs(tag) -> list:
    """[(c, (k, i, j))]: the atom ``tag`` as a sum of c log(1 - (-q)^k
    s_i...s_{j-1}).  An interaction atom (k, i, j) is its own log; the
    dressing mode ("mode", k) is log((1 - (-q)^k) / (1 - (-q))), on the
    pure-q interval (0, 1) of ``log_atom_expand``."""
    if tag[0] == "mode":
        return [(1, (tag[1], 0, 1)), (-1, (1, 0, 1))]
    return [(1, tag)]


def _divisor_atoms(dic: Dictionary, m: int, which) -> list:
    """The tags of the atoms in the quantum part of ``which``, in ``_atoms``
    order: for the doubled-point divisor every atom; for the i-th curve
    divisor the atoms with a log (``_atom_logs``) whose interval [i0, j0)
    contains i."""
    return [a for a in _atoms(dic, m) if which == "D"
            or any(i0 <= which[1] < j0 for _c, (_k, i0, j0) in _atom_logs(a))]


def _divisor_series(dic: Dictionary, m: int, which, window: Window) -> list:
    """[(tag, series)]: the quantum part of ``which`` atom by atom, in
    ``_divisor_atoms`` order, each atom with the tau-scaled derivative of its
    logs (``_atom_logs``) on the window (q d/dq for the doubled-point divisor,
    s_i d/ds_i for the i-th curve divisor); the atoms whose series vanishes
    are left out."""
    n, tau, out = dic.n, RatFn(TAU), []
    for tag in _divisor_atoms(dic, m, which):
        ser = QSSeries.zero(n, window)
        for c, a in _atom_logs(tag):
            ser = ser + log_atom_expand(n, window, *a).scale(c)
        ser = ser.q_log_derivative() if which == "D" else ser.s_log_derivative(which[1])
        if not (ser := ser.scale(tau)).is_zero:
            out.append((tag, ser))
    return out


def _dense(K: dict, size: int) -> list:
    """A sparse {(r, c): value} matrix as dense rows of RatFn."""
    rows = [[RF_ZERO] * size for _ in range(size)]
    for (r, c), v in K.items():
        rows[r][c] = v if isinstance(v, RatFn) else RatFn.const(v)
    return rows


def _atom_class_matrix(dic: Dictionary, m: int, tag) -> list:
    """Constant matrix of one atom in the fixed-point class basis (memoized;
    window-independent, shared across the divisor family)."""
    def build():
        D, Dinv, _ = dic.fixed_point_state_matrix(m)
        return _sandwich(Dinv, _atoms(dic, m)[tag], D)
    return dic.cached(("atom_class", m, tag), build)


def _classical_state_matrix(dic: Dictionary, m: int, which) -> list:
    """Classical multiplication conjugated into lattice-state coordinates."""
    def build():
        D, Dinv, mps = dic.fixed_point_state_matrix(m)
        vals = _classical_values(which, m, mps, dic.geom)
        return matmul([[x * v for x, v in zip(row, vals)] for row in D], Dinv)
    return dic.cached(("classical_state", m, which), build)


def _require_solved(dic: Dictionary, m: int) -> None:
    """Refuse a weight that is not a positive int, or whose modes the
    dictionary would only extrapolate."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise TypeError(f"weight m must be an int, not {type(m).__name__} {m!r}")
    if m < 1:
        raise ValueError(f"weight m = {m} must be at least 1")
    if m > dic.m_max:
        raise ValueError(f"weight m = {m} exceeds the calibrated range m_max = {dic.m_max}")


def _require_same_rank(geom: SurfaceGeometry, dic: Dictionary) -> None:
    """Refuse a geometry and a dictionary of different surface ranks."""
    if geom.n != dic.n:
        raise ValueError(f"geometry has rank n = {geom.n} but the dictionary has n = {dic.n}")


def m_divisor(which, m: int, window: Window | None, geom: SurfaceGeometry,
              dic: Dictionary) -> DivisorOp:
    """Divisor operator: classical multiplication plus the derivative of the
    dressing/interaction data, assembled in the fixed-point class basis."""
    _require_same_rank(geom, dic)
    which = _divisor_key(which)
    _require_solved(dic, m)
    window = window or DEFAULT_WINDOW

    def build():
        classical = classical_divisor(which, m, geom, window)
        entries = _series_matrix([(_atom_class_matrix(dic, m, tag), ser) for tag, ser
                                  in _divisor_series(dic, m, which, window)], classical.entries)
        matrix = OperatorMatrix(geom.n, m, "fixed-point-class", classical.index, window, entries)
        return DivisorOp(which, matrix, classical)
    return dic.cached(("divisor", which, m, window), build)


def operator_self_adjoint(op: OperatorMatrix, geom: SurfaceGeometry) -> dict:
    """Check E . M symmetric for the Euler-norm diagonal pairing (``_weight``).
    Raises ValueError if ``geom`` and ``op`` have different ranks."""
    if geom.n != op.n:
        raise ValueError(f"geometry has rank n = {geom.n} but the operator has n = {op.n}")
    E = _weight(geom.n, op.m).E
    failures = []
    checked = 0
    for r in range(op.dim):
        for c in range(r + 1, op.dim):
            checked += 1
            lhs = op.entry(r, c).scale(E[r])
            rhs = op.entry(c, r).scale(E[c])
            if not (lhs - rhs).is_zero:
                failures.append({"row": r, "col": c})
    return {"ok": not failures, "checked": checked, "witnesses": failures[:5]}


def _product_window(window: Window, m: int, factors: int = 2) -> Window:
    """Internal window wide enough that products of up to ``factors`` atom
    series are exact on the requested window; atom floors reach -(m-1)*smax."""
    slack = max(0, (m - 1) * window.smax)
    hi = window.qmax + (factors - 1) * slack
    lo = min(window.qmin - hi, -factors * slack, window.qmin)
    return Window(qmin=lo, qmax=hi, smax=window.smax)


def _int_commutator(X: dict, Y: dict) -> dict:
    """{(r, c): nonzero int} of XY - YX for sparse integer matrices."""
    out: dict = {}
    for sign, A, B in ((1, X, Y), (-1, Y, X)):
        brows: dict = {}
        for (j, c), v in B.items():
            brows.setdefault(j, []).append((c, sign * v))
        for (r, j), u in A.items():
            for c, v in brows.get(j, ()):
                out[(r, c)] = out.get((r, c), 0) + u * v
    return {rc: v for rc, v in out.items() if v}


def divisor_pair_commutes(dic: Dictionary, m: int, i: int,
                          window: Window | None = None) -> dict:
    """Exact commutation of the doubled-point and i-th curve divisor operators
    on the window, evaluated in lattice-state coordinates where the atom
    matrices are constant.  Each commutator entry is a numerator over
    L_r * G_c, the joint denominators of row r and column c of the two
    classical matrices.  A commutator with a classical matrix sums products
    of those numerators; an atom-atom commutator [K_a, K_b] is taken in
    integers (``_int_commutator``) and scaled once per entry by L_r * G_c.
    Each entry's sum over the atom series is folded on numerators alone
    (`exact._fold_numerators`)."""
    window = window or DEFAULT_WINDOW
    _require_solved(dic, m)
    wide = _product_window(window, m)
    nd = len(dic.fixed_point_state_matrix(m)[0])
    Dcl = _classical_state_matrix(dic, m, "D")
    Wcl = _classical_state_matrix(dic, m, ("omega", i))
    atoms = _atoms(dic, m)
    a_atoms = _divisor_series(dic, m, "D", wide)
    b_atoms = _divisor_series(dic, m, ("omega", i), wide)
    tags = list(dict.fromkeys(tag for tag, _s in a_atoms + b_atoms))

    # row r of Dcl and Wcl over one denominator L_r, column c over one G_c; an
    # integer atom matrix K leaves both as they are, with numerators K L_r in
    # row r and K G_c in column c.  Per matrix x, only the nonzero numerators:
    # R[x][r] = [(j, terms of X[r][j])], C[x][c] = {j: terms of X[j][c]}
    rows, L = zip(*(_common_denominator(Dcl[r] + Wcl[r]) for r in range(nd)))
    cols, G = zip(*(_common_denominator([M[j][c] for M in (Dcl, Wcl) for j in range(nd)])
                    for c in range(nd)))
    R = {x: [[(j, list(p.items())) for j, p in enumerate(rows[r][k * nd:(k + 1) * nd]) if p]
             for r in range(nd)] for k, x in enumerate("DW")}
    C = {x: [{j: list(p.items()) for j, p in enumerate(cols[c][k * nd:(k + 1) * nd]) if p}
             for c in range(nd)] for k, x in enumerate("DW")}
    for tag in tags:
        R[tag], C[tag] = [[] for _ in range(nd)], [{} for _ in range(nd)]
        for (r, j), k in atoms[tag].items():
            R[tag][r].append((j, list((L[r] * k).items())))
            C[tag][j][r] = list((G[j] * k).items())

    def commutator(x, y) -> dict:
        """{(r, c): nonzero numerator of (XY - YX)[r][c] over L_r * G_c}."""
        nums = {}
        for r in range(nd):
            for c in range(nd):
                xy = [(p, C[y][c][j]) for j, p in R[x][r] if j in C[y][c]]
                yx = [(p, C[x][c][j]) for j, p in R[y][r] if j in C[x][c]]
                if (xy or yx) and (num := _dot(xy) - _dot(yx)):
                    nums[(r, c)] = num
        return nums

    terms = [(ser, commutator("D", tag)) for tag, ser in b_atoms]
    terms += [(ser, commutator(tag, "W")) for tag, ser in a_atoms]
    LG = {(r, c): L[r] * G[c] for r in range(nd) for c in range(nd)}
    for ta, ser_a in a_atoms:
        for tb, ser_b in b_atoms:
            prod = ser_a * ser_b
            if not prod.is_zero:
                terms.append((prod, {rc: LG[rc] * k for rc, k
                                     in _int_commutator(atoms[ta], atoms[tb]).items()}))

    const = commutator("D", "W")
    sernums, _S = _numerators([ser for ser, _comm in terms])
    totals = {
        (r, c): _fold_numerators(dic.n, wide, [
            (num, list(num.items()), ser, sn)
            for (ser, comm), sn in zip(terms, sernums)
            if (num := comm.get((r, c))) is not None
        ])
        for r in range(nd) for c in range(nd)
    }

    def vanishes(r, c):
        tot = totals[(r, c)]
        if (r, c) in const:
            return False
        if tot.window.qmax < window.qmax or tot.window.smax < window.smax:
            raise WindowError("series not known on the whole target window")
        return not any(window.qmin <= q <= window.qmax and sum(s) <= window.smax
                       for q, s in tot.data)

    failures = [{"row": r, "col": c} for r in range(nd) for c in range(nd) if not vanishes(r, c)]
    return {"ok": not failures, "checked": nd * nd, "witnesses": failures[:5]}


# ---------------------------------------------------------------------------
# cap, tube, three-point series
# ---------------------------------------------------------------------------


def cap(mu, geom: SurfaceGeometry, window: Window | None = None) -> QSSeries:
    """One-relative-insertion series over the total space of the line bundle
    pair: q^m times the product over charts of delta_{all parts 1} / m_i!.
    The labels of ``mu`` index point classes."""
    window = window or DEFAULT_WINDOW
    w = _coerce_word(mu, geom)
    m = w.weight
    counts: dict = {}
    for (p, l) in w.pairs:
        if p != 1:
            return QSSeries.zero(geom.n, window)
        counts[l] = counts.get(l, 0) + 1
    coeff = QQ(1)
    for c in counts.values():
        coeff /= math.factorial(c)
    if not (window.qmin <= m <= window.qmax):
        return QSSeries.zero(geom.n, window)
    return QSSeries.monomial(geom.n, window, m, (0,) * geom.n, RatFn.const(coeff))


def tube(mu, nu, geom: SurfaceGeometry, window: Window | None = None) -> QSSeries:
    """Two-relative-insertion series: q^m times the geometric pairing of
    unit/omega-labelled words."""
    window = window or DEFAULT_WINDOW
    w1 = _coerce_word(mu, geom)
    w2 = _coerce_word(nu, geom)
    if w1.weight != w2.weight:
        raise ValueError("mismatched total sizes")
    m = w1.weight
    val = nak_pairing(w1, w2, unit_omega_basis(geom))
    if val.is_zero or not (window.qmin <= m <= window.qmax):
        return QSSeries.zero(geom.n, window)
    return QSSeries.monomial(geom.n, window, m, (0,) * geom.n, val)


def _class_pairings(n: int, w: WeightedPartition, m: int) -> list:
    """C^T G x, the pairings of a unit/omega word with the fixed-point classes,
    x the word's column of X (``_weight``); divided by the class norms E they
    are the word's coordinates in the class basis."""
    wt = _weight(n, m)
    x = [row[wt.words.index(w)] for row in wt.X]
    return [sum((ci * g * xi for ci, g, xi in zip(col, wt.G, x) if ci and xi), RF_ZERO)
            for col in zip(*wt.C)]


def three_point(mu, rho, nu, window: Window | None = None, *,
                geom: SurfaceGeometry, dic: Dictionary | None = None,
                conjectural: bool = False) -> QSSeries:
    """Three-relative-insertion series q^m <mu | M_rho | nu>.

    rho may be "ones" (the identity insertion), "D", ("omega", i), or --
    only with conjectural=True -- a list of divisor selectors composed in
    order.  General middle insertions depend on the one-dimensionality
    generation conjecture for the divisor-operator algebra and are refused
    without the explicit flag.
    """
    if dic is not None:
        _require_same_rank(geom, dic)
    window = window or DEFAULT_WINDOW
    w1 = _coerce_word(mu, geom)
    w2 = _coerce_word(nu, geom)
    if w1.weight != w2.weight:
        raise ValueError("mismatched total sizes")
    m = w1.weight
    if rho == "ones":
        return tube(w1, w2, geom, window)
    selectors: list
    if isinstance(rho, list):
        if not conjectural:
            raise ValueError(
                "composite middle insertions require conjectural=True: their "
                "reduction to divisor operators assumes the one-dimensional "
                "generation conjecture"
            )
        selectors = [_divisor_key(s) for s in rho]
    else:
        selectors = [_divisor_key(rho)]
    if dic is None:
        raise ValueError("divisor insertions need a calibrated dictionary")
    _require_solved(dic, m)
    # <mu| reads the pairings, |nu> its class coordinates, pairings / E
    bra = _class_pairings(geom.n, w1, m)
    ket = [p / e for p, e in zip(_class_pairings(geom.n, w2, m), _weight(geom.n, m).E)]
    nd = len(bra)
    # work on a window wide enough for the composed products, shift, restrict
    pre = Window(qmin=window.qmin - m, qmax=window.qmax - m, smax=window.smax)
    wide = _product_window(pre, m, factors=len(selectors) + 1)
    cols = [
        QSSeries.monomial(geom.n, wide, 0, (0,) * geom.n, ket[r])
        if not ket[r].is_zero
        else QSSeries.zero(geom.n, wide)
        for r in range(nd)
    ]
    for sel in reversed(selectors):
        op = m_divisor(sel, m, wide, geom, dic).matrix
        rows: list = [[] for _ in range(nd)]
        for (r, c), ser in op.entries.items():
            if not cols[c].is_zero:
                rows[r].append((ser, cols[c]))
        cols = [_fold_products(geom.n, wide, row) for row in rows]
    data: dict = {}
    qfloor = wide.qmax + m
    for r in range(nd):
        if bra[r].is_zero or cols[r].is_zero:
            continue
        if cols[r].window.qmax < window.qmax - m:
            raise WindowError("composed insertion lost the requested window")
        qfloor = min(qfloor, cols[r].qfloor + m)
        for (qd, sk), v in cols[r].data.items():
            q2 = qd + m
            if window.qmin <= q2 <= window.qmax and sum(sk) <= window.smax:
                key = (q2, sk)
                cur = data.get(key)
                add = v * bra[r]
                data[key] = add if cur is None else cur + add
    return QSSeries(geom.n, window, min(qfloor, window.qmax), data)


# ---------------------------------------------------------------------------
# rationality certificates
# ---------------------------------------------------------------------------


def rationality_certificate(op: OperatorMatrix, sdeg: int, degbound: int) -> dict:
    """Per-entry exact rational reconstruction in q at bounded s-degree.

    Every s-coefficient of every entry must round-trip: the reconstructed
    rational re-expands to the full known window.  Failures are collected per
    entry, never masked.
    """
    results: dict = {}
    failures: dict = {}
    for (r, c), ser in sorted(op.entries.items()):
        filtered = QSSeries(
            ser.nvars,
            ser.window,
            ser.qfloor,
            {k: v for k, v in ser.data.items() if sum(k[1]) <= sdeg},
        )
        if filtered.is_zero:
            continue
        try:
            results[(r, c)] = rational_reconstruct_q(filtered, degbound)
        except (ReconstructError, WindowError) as exc:
            failures[(r, c)] = str(exc)
    return {"ok": not failures, "entries": results, "failures": failures}


# ---------------------------------------------------------------------------
# change of variables to the exponential parameter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _GaussRF:
    """re + im*I with rational-function parts."""

    re: RatFn = RF_ZERO
    im: RatFn = RF_ZERO


def gw_change_of_vars(f: QRational, order: int, pole_order: int = 0) -> dict:
    """Expand a rational function of q around q = -exp(I*u).

    Returns {u-exponent: _GaussRF coefficient} from the leading pole up to
    u^order.  The expansion is taken in the real variable v = I*u: with
    q = -e^v, the v^k coefficient of sum c_r q^r is
    sum_r c_r (-1)^r r^k / k!.  The pole order at q = -1 is
    v-val(denominator) - v-val(numerator), which is the order in q + 1,
    since q + 1 = 1 - e^v has valuation 1 in v.  A pole deeper than the
    declared pole_order raises.  The v-series quotient F is the Laurent
    division of ``QRational.expand``, and the u^e coefficient is I^e * F_e.
    """
    num, den = list(f.num), list(f.den)
    if f.shift >= 0:
        num = [RF_ZERO] * f.shift + num
    else:
        den = [RF_ZERO] * -f.shift + den
    if all(c.is_zero for c in num):
        return {}
    if all(c.is_zero for c in den):
        raise ZeroDivisionError("zero denominator")

    def taylor(coeffs, k):
        # the v^k coefficient of sum c_r q^r at q = -e^v
        tot = RF_ZERO
        for r, c in enumerate(coeffs):
            if not c.is_zero:
                tot = tot + c * QQ((-1) ** r * r**k, math.factorial(k))
        return tot

    # a nonzero polynomial vanishes at q = -1 to order at most its degree
    vn = next(k for k in itertools.count() if not taylor(num, k).is_zero)
    vd = next(k for k in itertools.count() if not taylor(den, k).is_zero)
    pole = vd - vn
    if pole > pole_order:
        raise ValueError(
            f"pole of order {pole} at q = -1; declare it via pole_order"
        )
    terms = range(max(order + pole, 0) + 1)
    inv_lead = taylor(den, vd).inverse()
    quotient = QRational(
        -pole,
        tuple(taylor(num, vn + k) * inv_lead for k in terms),
        tuple(taylor(den, vd + k) * inv_lead for k in terms),
    )
    out = {}
    for e, c in quotient.expand(-pole, order).items():
        c = -c if e % 4 >= 2 else c
        out[e] = _GaussRF(im=c) if e % 2 else _GaussRF(c)
    return out


# ---------------------------------------------------------------------------
# spectral probes
# ---------------------------------------------------------------------------


def _atom_value(tag, q0, svals, kind):
    """The derivative of the atom's logs (``_atom_logs``) at q = q0, s = svals:
    each c log(1 - x), x = (-q0)^k prod s^e with e from ``_interval_skey``,
    gives -c k x / (1 - x) for kind "q" (q d/dq), and -c x / (1 - x) for kind
    "s" (s_i d/ds_i on an atom of the i-th curve divisor, where e_i = 1)."""
    tot = QQ(0)
    for c, (k, i, j) in _atom_logs(tag):
        x = (-q0) ** k
        for s, e in zip(svals, _interval_skey(len(svals), i, j)):
            x *= s ** e
        if x == 1:
            raise ZeroDivisionError("specialization hits a series pole")
        tot -= c * (k if kind == "q" else 1) * x / (1 - x)
    return tot


def _specialized_divisor(dic: Dictionary, m: int, which, t1, t2, q0, svals):
    """(full, corr): the divisor operator and its quantum part as exact
    rational matrices in the fixed-point class basis, evaluated at the
    specialization: diag(c(t)) + sum over atoms of tau * f_a(q0, s0) * K_a(t),
    with K_a the class-basis atom matrix that ``m_divisor`` expands."""
    mps = _weight(dic.n, m).mps
    nd = len(mps)
    tau0 = t1 + t2
    kind = "q" if which == "D" else "s"
    corr = [[QQ(0)] * nd for _ in range(nd)]
    for tag in _divisor_atoms(dic, m, which):
        val = tau0 * _atom_value(tag, q0, svals, kind)
        if val == 0:
            continue
        A = _atom_class_matrix(dic, m, tag)
        for r in range(nd):
            for c in range(nd):
                if not A[r][c].is_zero:
                    corr[r][c] += val * A[r][c].substitute_all(t1, t2)
    cvals = _classical_values(which, m, mps, dic.geom)
    full = [row[:] for row in corr]
    for r in range(nd):
        full[r][r] += cvals[r].substitute_all(t1, t2)
    return full, corr


def _charpoly_squarefree(M: list) -> bool:
    """Whether the characteristic polynomial p of the square rational matrix
    M has no repeated root, i.e. gcd(p, p') is constant: p from sympy's
    dense ``DomainMatrix.charpoly`` over QQ, the gcd from its dense ``dup_gcd``.
    Over a field of characteristic zero that is distinct eigenvalues."""
    from sympy.polys.densetools import dup_diff
    from sympy.polys.domains import QQ as SQQ
    from sympy.polys.euclidtools import dup_gcd
    from sympy.polys.matrices import DomainMatrix

    rows = [[SQQ(int(v.numerator), int(v.denominator)) for v in row] for row in M]
    p = DomainMatrix(rows, (len(rows), len(rows)), SQQ).charpoly()
    return len(dup_gcd(p, dup_diff(p, 1, SQQ), SQQ)) == 1


# specializations tried before spectrum_probe gives up
_PROBE_ATTEMPTS = 8


def spectrum_probe(m: int, geom: SurfaceGeometry, seed: int, dic: Dictionary) -> dict:
    """Square-free test of the characteristic polynomial of the quantum part
    of the doubled-point divisor operator at an exact rational specialization
    (``_charpoly_squarefree``), plus commutation evidence for the divisor
    family, on the calibrated dictionary ``dic``.  Evidence, not proof.
    """
    _require_same_rank(geom, dic)
    _require_solved(dic, m)
    n = geom.n
    attempt = 0
    last_err = None
    while attempt < _PROBE_ATTEMPTS:
        rng = random.Random(seed + 1000 * attempt)
        try:
            t1 = QQ(rng.randint(2, 60), rng.randint(1, 7))
            t2 = QQ(rng.randint(2, 60), rng.randint(1, 7)) * rng.choice([1, -1])
            if t1 + t2 == 0 or t2 == 0 or t1 == t2:
                raise ZeroDivisionError("degenerate weights")
            q0 = QQ(rng.choice([1, -1]) * rng.randint(1, 6), rng.randint(7, 19))
            svals = [
                QQ(rng.randint(1, 5), rng.randint(6, 17)) for _ in range(n)
            ]
            mats, corrs = {}, {}
            for which in ["D"] + [("omega", i) for i in range(1, n + 1)]:
                key = which if which == "D" else f"omega{which[1]}"
                mats[key], corrs[key] = _specialized_divisor(dic, m, which, t1, t2, q0, svals)
            nd = len(mats["D"])
            # pairwise commutation at the specialization
            commute_ok = all(
                matmul(A, B) == matmul(B, A)
                for A, B in itertools.combinations(mats.values(), 2)
            )
            squarefree = _charpoly_squarefree(corrs["D"])
            report = {
                "m": m,
                "n": n,
                "seed": seed,
                "attempts": attempt + 1,
                "dimension": nd,
                "specialization": {
                    "t1": str(t1),
                    "t2": str(t2),
                    "q": str(q0),
                    "s": [str(v) for v in svals],
                },
                "charpoly_squarefree": bool(squarefree),
                "distinct_eigenvalues": bool(squarefree),
                "commute_at_specialization": commute_ok,
                "joint_eigenspace_dims": [1] * nd if squarefree else None,
                "evidence_only": True,
            }
            return report
        except ZeroDivisionError as exc:
            last_err = exc
            attempt += 1
    raise RuntimeError(
        f"no usable specialization after {_PROBE_ATTEMPTS} attempts: {last_err}"
    )
