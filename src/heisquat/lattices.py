"""Integer and rational lattice algebra: HNF, kernels, duals, intersections.

Conventions: lattices are row spans.  The Hermite normal form used
throughout is row-style with pivot columns strictly increasing, positive
pivots, and entries above each pivot reduced into [0, pivot).  This makes
the HNF a canonical form: two row sets span the same Z-module iff their
HNFs are identical.

Two eliminations do all the work, one per kind of arithmetic:
- over Z, the gcd pass _eliminate (with _reduce) is behind hnf,
  hnf_transform, kernel_basis, solve_integer and hnf_in_span;
- over Q, the fraction-free Gauss-Jordan pass _bareiss is behind det_int,
  det_adjugate, adjugate and mat_frac_inverse, in integers throughout.

The module is pure Python (no numpy), so it also holds prime_factors,
the integer factoring that heisquat.constants needs without loading the
order and scan modules; heisquat.orders re-exports it.  It factors exactly
below MILLER_RABIN_BOUND and raises ValueError at or above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

Row = Tuple[int, ...]


def _eliminate(work: List[List[int]]) -> List[List[int]]:
    """Gcd row reduction of every column of work, in place.

    Returns one row per pivot, pivot columns strictly increasing and each
    pivot positive; the rows left out are zero.  For [mat | I] the columns
    past mat record the row operations (Cohen, GTM 138, 2.4).
    """
    pivots: List[List[int]] = []
    for col in range(len(work[0]) if work else 0):
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        while True:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            if len(live) == 1:
                break
            p = pivot[col]
            for r in live[1:]:
                q = r[col] // p
                for t in range(len(r)):
                    r[t] -= q * pivot[t]
            live = [r for r in live if r[col] != 0]
        if pivot[col] < 0:
            for t in range(len(pivot)):
                pivot[t] = -pivot[t]
        pivots.append(pivot)
        work = [r for r in work if r is not pivot]
    return pivots


def _augment(mat: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """[mat | I_m] as integer rows, and the column count n of mat."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    return [[int(mat[r][c]) for c in range(n)] + [1 if t == r else 0 for t in range(m)]
            for r in range(m)], n


def _reduce(rows: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    """v reduced by echelon rows: each pivot entry of v taken mod its pivot.

    Pivot columns strictly increase, so a later row never changes an entry
    already reduced, and v is in the span of rows iff the result is zero.
    """
    v = list(map(int, v))
    for row in rows:
        c = next((t for t, x in enumerate(row) if x), None)
        if c is None:
            continue
        q = v[c] // row[c]
        if q:
            for t in range(len(v)):
                v[t] -= q * row[t]
    return v


def hnf(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Canonical row Hermite normal form of an integer matrix.

    Zero rows are dropped; the result has one row per pivot.  Idempotent
    and span-preserving.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    if any(len(r) != len(work[0]) for r in work):
        raise ValueError("ragged matrix")
    out = _eliminate(work)
    # each row reduced by the rows below it, whose pivots lie to its right
    return [_reduce(out[idx + 1:], row) for idx, row in enumerate(out)]


def hnf_transform(mat: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[List[int]]]:
    """(H, U) with U . mat = H, U unimodular: hnf([mat | I]) split after
    the columns of mat (Cohen, GTM 138, 2.4).  The nonzero rows of H are
    hnf(mat); the rows of U where H vanishes are kernel_basis(mat).
    """
    aug, n = _augment(mat)
    rows = hnf(aug)
    return [r[:n] for r in rows], [r[n:] for r in rows]


def hnf_in_span(hrows: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Membership of integer vector v in the row span of an HNF basis."""
    return not any(_reduce(hrows, v))


def kernel_basis(mat: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis (HNF) of {x in Z^m : x . mat = 0} for an integer m x n matrix."""
    H, U = hnf_transform(mat)
    return [u for h, u in zip(H, U) if not any(h)]


def solve_integer(mat: Sequence[Sequence[int]], target: Sequence[int]):
    """One integer solution x of x . mat = target, or None.

    mat is m x n; the solution space is a coset of the kernel lattice.
    """
    aug, n = _augment(mat)
    # every row of hnf([mat | I]) is (u . mat | u), so reducing (target | 0)
    # by them leaves (target - y . mat | -y): x = y when the first part is 0
    rest = _reduce(hnf(aug), list(target) + [0] * len(aug))
    return None if any(rest[:n]) else [-y for y in rest[n:]]


def clear_denominators(rows) -> Tuple[List[List[int]], int]:
    """(den * rows as integer rows, den) for the least common denominator den."""
    fr = [[Fraction(x) for x in r] for r in rows]
    den = lcm(*(x.denominator for r in fr for x in r))
    return [[int(x * den) for x in r] for r in fr], den


def _bareiss(aug: List[List[int]], n: int) -> Tuple[int, Optional[List[List[int]]]]:
    """(det(mat), adj(mat) . B) for aug = [mat | B] with mat n x n, or
    (0, None) when mat is singular; aug is consumed.

    Fraction-free Gauss-Jordan (Bareiss 1968): step k clears column k off
    the pivot row with a_rc <- (a_kk a_rc - a_rk a_kc) / a_prev, an exact
    division, so every entry stays an integer minor of aug.  After step
    n - 1 the matrix is [d I | d mat^-1 B], d = det(mat) up to the sign of
    the row swaps.  With no B columns only the determinant is wanted, and
    the pass clears below the pivot only: the last pivot is then d too.
    """
    sign, prev = 1, 1
    back = bool(aug) and len(aug[0]) > n
    for k in range(n):
        p = next((r for r in range(k, n) if aug[r][k]), None)
        if p is None:
            return 0, None
        if p != k:
            aug[k], aug[p] = aug[p], aug[k]
            sign = -sign
        pivot = aug[k]
        d = pivot[k]
        for r in (range(n) if back else range(k + 1, n)):
            if r != k:
                row = aug[r]
                f = row[k]
                aug[r] = [(d * x - f * y) // prev for x, y in zip(row, pivot)]
        prev = d
    return sign * prev, [[sign * x for x in row[n:]] for row in aug]


def det_int(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, exactly."""
    return _bareiss([list(map(int, r)) for r in mat], len(mat))[0]


def det_adjugate(mat: Sequence[Sequence[int]]) -> Tuple[int, Optional[List[List[int]]]]:
    """(det(mat), adj(mat)) of a square integer matrix from one pass, or
    (0, None) if mat is singular."""
    return _bareiss(*_augment(mat))


def adjugate(mat: Sequence[Sequence[int]]) -> List[List[int]]:
    """Adjugate of a nonsingular square integer matrix: mat . adj = det . I.
    ValueError if mat is singular."""
    _, adj = det_adjugate(mat)
    if adj is None:
        raise ValueError("singular matrix")
    return adj


def mat_frac_inverse(mat: Sequence[Sequence]) -> List[List[Fraction]]:
    """Exact inverse of a square matrix with rational entries:
    den adj(den mat) / det(den mat)."""
    rows, den = clear_denominators(mat)
    det, adj = det_adjugate(rows)
    if adj is None:
        raise ValueError("singular matrix")
    return [[Fraction(den * x, det) for x in row] for row in adj]


# Miller-Rabin on these 13 bases is exact below MILLER_RABIN_BOUND
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES, for odd n > 41 below the bound."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(n: int) -> int:
    """A proper factor of an odd composite n (Pollard rho, Floyd cycle)."""
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d


def prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n, ascending (none for 0 and +-1).

    Trial division below 1000, then Miller-Rabin and Pollard rho on what
    is left; ValueError if a part left is at or above MILLER_RABIN_BOUND,
    where the primality test is no longer exact.
    """
    n = abs(int(n))
    out = []
    d = 2
    while d < 1000 and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if d * d > n:
        return out + [n] if n > 1 else out
    # every prime factor of n is now above 1000
    big, parts = set(), [n]
    while parts:
        m = parts.pop()
        if m >= MILLER_RABIN_BOUND:
            raise ValueError(f"cannot factor {m}: at or above {MILLER_RABIN_BOUND}")
        if _is_prime(m):
            big.add(m)
        else:
            d = _split(m)
            parts += [d, m // d]
    return out + sorted(big)


def mat_mul(A, B):
    rows = len(A)
    inner = len(B)
    cols = len(B[0])
    return [[sum(A[r][t] * B[t][c] for t in range(inner)) for c in range(cols)]
            for r in range(rows)]


@dataclass(frozen=True)
class RatLattice:
    """Rational lattice den^-1 * L for an integer lattice L, canonicalised.

    The denominator is reduced so gcd(den, content(rows)) = 1, and rows are
    in HNF; equality of canonical forms is lattice equality.
    """

    den: int
    rows: Tuple[Row, ...]

    @classmethod
    def from_int_rows(cls, rows, den: int = 1) -> "RatLattice":
        h = hnf(rows)
        if den < 0:
            raise ValueError("denominator must be positive")
        g = den
        for r in h:
            for x in r:
                g = gcd(g, x)
        if g > 1:
            den //= g
            h = [[x // g for x in r] for r in h]
        return cls(den, tuple(tuple(r) for r in h))

    @classmethod
    def from_frac_rows(cls, rows) -> "RatLattice":
        return cls.from_int_rows(*clear_denominators(rows))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def frac_rows(self) -> List[List[Fraction]]:
        return [[Fraction(x, self.den) for x in r] for r in self.rows]

    def contains_frac(self, v) -> bool:
        w = [Fraction(x) * self.den for x in v]
        if any(x.denominator != 1 for x in w):
            return False
        return hnf_in_span(self.rows, [int(x) for x in w])

    def dual(self) -> "RatLattice":
        """Dual lattice {y : <x, y> in Z for all x} for full-rank lattices."""
        n = len(self.rows[0])
        if self.rank != n:
            raise ValueError("dual requires full rank")
        inv = mat_frac_inverse([[Fraction(x, self.den) for x in r] for r in self.rows])
        # rows of the dual basis are columns of the inverse
        dual_rows = [[inv[r][c] for r in range(n)] for c in range(n)]
        return RatLattice.from_frac_rows(dual_rows)

    def sum(self, other: "RatLattice") -> "RatLattice":
        return RatLattice.from_frac_rows(self.frac_rows() + other.frac_rows())

    def intersect(self, other: "RatLattice") -> "RatLattice":
        """Intersection via (L1 cap L2)^* = L1^* + L2^*."""
        return self.dual().sum(other.dual()).dual()
