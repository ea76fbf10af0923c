"""Partitions, multipartitions, leg diagrams and slice chains.

Conventions: partitions are weakly decreasing tuples of positive integers,
boxes are addressed 1-based as (row, column), the content of box (i, j) is
j - i.  A LegDiagram is a generalized diagram whose rows may be infinite and
whose row list is eventually constant; its boundary rank ``rk`` may be a
half-integer.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from .exact import QQ

INF = float("inf")  # row-length sentinel for infinite legs

__all__ = [
    "INF",
    "Partition",
    "MultiPartition",
    "LegDiagram",
    "SliceChain",
    "partitions_of",
    "enumerate_multipartitions",
    "content_profile",
    "boundary_rank",
]


class Partition:
    """A partition of a nonnegative integer."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        t = tuple(int(p) for p in parts)
        if any(p <= 0 for p in t):
            raise ValueError(f"nonpositive part in {t}")
        if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
            raise ValueError(f"parts not weakly decreasing: {t}")
        self.parts = t

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __le__(self, other: "Partition"):
        """Containment of Young diagrams."""
        o = other.parts
        return all(p <= (o[i] if i < len(o) else 0) for i, p in enumerate(self.parts))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            tuple(sum(1 for p in self.parts if p >= c) for c in range(1, self.parts[0] + 1))
        )

    def boxes(self):
        """All boxes (i, j), 1-based."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def arm(self, i: int, j: int) -> int:
        return self.parts[i - 1] - j

    def leg(self, i: int, j: int) -> int:
        return sum(1 for p in self.parts[i:] if p >= j)

    def hooks(self):
        """[(box, arm, leg)] over all boxes."""
        return [((i, j), self.arm(i, j), self.leg(i, j)) for (i, j) in self.boxes()]

    def __repr__(self):
        return f"Partition{self.parts}"


def _partition_lists(m: int, bound: int):
    if m == 0:
        yield ()
        return
    for first in range(min(m, bound), 0, -1):
        for rest in _partition_lists(m - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions_of(m: int) -> tuple:
    """All partitions of m, in reverse-lexicographic (descending tuple) order."""
    if m < 0:
        raise ValueError("negative size")
    out = tuple(Partition(t) for t in _partition_lists(m, m))
    assert list(out) == sorted(out, key=lambda p: p.parts, reverse=True)
    return out


class MultiPartition:
    """A tuple of partitions, one per component (color)."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence):
        self.components = tuple(
            c if isinstance(c, Partition) else Partition(c) for c in components
        )

    @property
    def size(self) -> int:
        return sum(c.size for c in self.components)

    def sizes(self) -> tuple:
        return tuple(c.size for c in self.components)

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        if isinstance(other, MultiPartition):
            return self.components == other.components
        return NotImplemented

    def __hash__(self):
        return hash(self.components)

    def sort_key(self):
        return tuple(c.parts for c in self.components)

    def __repr__(self):
        return "MP(" + ", ".join(str(c.parts) for c in self.components) + ")"


def enumerate_multipartitions(m: int, ncomp: int) -> list:
    """All multipartitions of total size m with ncomp components.

    Order: lexicographic on the component index with each component compared
    in reverse-lexicographic partition order (so the list starts with all of m
    in the first component as a single row, and ends with a single column in
    the last component).
    """
    if ncomp < 1:
        raise ValueError("need at least one component")
    out = []
    for split in itertools.product(*(range(m + 1) for _ in range(ncomp))):
        if sum(split) != m:
            continue
        for combo in itertools.product(*(partitions_of(k) for k in split)):
            out.append(MultiPartition(combo))
    out.sort(key=lambda mp: mp.sort_key(), reverse=True)
    return out


# ---------------------------------------------------------------------------
# leg diagrams and boundary rank
# ---------------------------------------------------------------------------


class LegDiagram:
    """Generalized diagram: weakly decreasing rows from N ∪ {∞}, eventually
    constant.  ``rows`` is the explicit prefix; ``tail`` is the constant row
    length repeated forever after the prefix (0 for a finite diagram).
    """

    __slots__ = ("rows", "tail")

    def __init__(self, rows: Iterable = (), tail: int = 0):
        rows = tuple(rows)
        for r in rows:
            if r is not INF and (not isinstance(r, int) or r < 0):
                raise ValueError(f"bad row length {r!r}")
        if tail is not INF and (not isinstance(tail, int) or tail < 0):
            raise ValueError(f"bad tail {tail!r}")
        seq = rows + (tail,)
        if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError(f"rows not weakly decreasing: {rows} tail {tail}")
        # normalize: strip prefix rows equal to the tail
        while rows and rows[-1] == tail:
            rows = rows[:-1]
        self.rows = rows
        self.tail = tail

    @classmethod
    def from_partition(cls, p) -> "LegDiagram":
        if isinstance(p, Partition):
            p = p.parts
        return cls(tuple(p), 0)

    @property
    def is_finite(self) -> bool:
        return self.tail == 0 and all(r is not INF for r in self.rows)

    @property
    def is_empty(self) -> bool:
        return not self.rows and self.tail == 0

    def row(self, i: int):
        """Length of 1-based row i."""
        if i <= len(self.rows):
            return self.rows[i - 1]
        return self.tail

    def contains(self, other: "LegDiagram") -> bool:
        n = max(len(self.rows), len(other.rows)) + 1
        return all(self.row(i) >= other.row(i) for i in range(1, n + 1)) and (
            self.tail >= other.tail
        )

    def __eq__(self, other):
        if isinstance(other, LegDiagram):
            return self.rows == other.rows and self.tail == other.tail
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.tail))

    def infinite_row_count(self) -> int:
        if self.tail is INF:
            raise ValueError("diagram with infinitely many infinite rows")
        return sum(1 for r in self.rows if r is INF)

    def content_count(self, r: int) -> int:
        """Number of boxes of content r (finite for any fixed r)."""
        count = 0
        L = len(self.rows)
        for i in range(1, L + 1):
            ln = self.rows[i - 1]
            if 1 - i <= r and (ln is INF or ln - i >= r):
                count += 1
        T = self.tail
        if T:
            if T is INF:
                raise ValueError("diagram with infinitely many infinite rows")
            lo = max(L + 1, 1 - r)
            hi = T - r
            if hi >= lo:
                count += hi - lo + 1
        return count

    def _profile_range(self):
        """[rlo, rhi] outside of which the content profile is constant."""
        L = len(self.rows)
        T = self.tail
        finite_max = [r - i for i, r in enumerate(self.rows, start=1) if r is not INF]
        rhi = max([0] + finite_max) + 1
        rlo = -(L + (T if T else 0)) - 2
        return rlo, rhi

    def __repr__(self):
        t = f", tail={self.tail}" if self.tail else ""
        return f"LegDiagram({list(self.rows)}{t})"


def content_profile(diagram) -> dict:
    """{content: box count} for a finite partition or finite LegDiagram."""
    if isinstance(diagram, Partition):
        prof: dict = {}
        for (i, j) in diagram.boxes():
            prof[j - i] = prof.get(j - i, 0) + 1
        return prof
    if isinstance(diagram, LegDiagram):
        if not diagram.is_finite:
            raise ValueError("profile of an infinite diagram is not a finite dict")
        rlo, rhi = diagram._profile_range()
        return {
            r: c
            for r in range(rlo, rhi + 1)
            for c in [diagram.content_count(r)]
            if c
        }
    return content_profile(Partition(diagram))


def _as_leg(d) -> LegDiagram:
    if isinstance(d, LegDiagram):
        return d
    if isinstance(d, Partition):
        return LegDiagram.from_partition(d)
    return LegDiagram.from_partition(Partition(d))


def boundary_rank(outer, inner=None):
    """rk of a (skew) diagram: half the total variation of its content profile.

    rk(D) = (1/2) * sum_r |c_r - c_{r+1}| where c_r counts boxes of content r
    (for a skew pair, the difference of the two counts).  Finite diagrams give
    integers; one infinite leg gives a half-integer.
    """
    lam = _as_leg(outer)
    mu = _as_leg(inner) if inner is not None else LegDiagram()
    if not lam.contains(mu):
        raise ValueError("skew pair is not nested")
    lo1, hi1 = lam._profile_range()
    lo2, hi2 = mu._profile_range()
    rlo, rhi = min(lo1, lo2) - 1, max(hi1, hi2) + 1

    def c(r):
        return lam.content_count(r) - mu.content_count(r)

    # profile must be constant outside the scanned range
    assert c(rlo) == c(rlo - 1) and c(rhi) == c(rhi + 1)
    total = 0
    prev = c(rlo - 1)
    for r in range(rlo, rhi + 2):
        cur = c(r)
        total += abs(cur - prev)
        prev = cur
    return QQ(total, 2)


class SliceChain:
    """A weakly decreasing, stabilizing chain of leg diagrams.

    ``slices[k]`` is the diagram at fiber level k; the last entry repeats
    forever.  ``rank_total`` sums the boundary ranks of consecutive skews,
    which is finite because the chain stabilizes.
    """

    __slots__ = ("slices",)

    def __init__(self, slices: Sequence):
        sl = tuple(_as_leg(s) for s in slices)
        if not sl:
            raise ValueError("empty chain")
        for a, b in zip(sl, sl[1:]):
            if not a.contains(b):
                raise ValueError("chain is not weakly decreasing")
        # normalize: drop repeated tail entries beyond the first stable one
        while len(sl) >= 2 and sl[-1] == sl[-2]:
            sl = sl[:-1]
        self.slices = sl

    @property
    def stable(self) -> LegDiagram:
        return self.slices[-1]

    def rank_total(self):
        total = QQ(0)
        for a, b in zip(self.slices, self.slices[1:]):
            total += boundary_rank(a, b)
        return total

    def __eq__(self, other):
        if isinstance(other, SliceChain):
            return self.slices == other.slices
        return NotImplemented

    def __hash__(self):
        return hash(self.slices)

    def __repr__(self):
        return f"SliceChain({list(self.slices)})"
