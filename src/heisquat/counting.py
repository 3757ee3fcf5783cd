"""Counting N(O)-orbits of admissible primitive triples with n(c) <= s.

The counting function Psi(s) counts shear orbits of triples (a, alpha, c)
in O x m x m (m = scale * O) with tr(conj(a) c) = n(alpha), full left
ideal and 0 < n(c) <= s.  Orbits are enumerated through their unique
canonical representatives: for each c the alpha-part runs over the exact
residue transversal {alpha : alpha c^-1 in cell4} and the a-part over the
affine trace lattice cut to cell3: one residue table per c, which Im O
makes periodic mod the cell, shifted per alpha.  Both run over cell
numerators (V, W); one exact map, _exact_rows, gives their coordinates,
for a only on the rows read.  Per-alpha data is held one row per alpha;
a triple holds the index of its alpha's row.  All of it is exact int64
arithmetic: with 0.9e4 < n(c) <= _S_LIMIT, over 300 sampled c for each
builtin order, |Y| |M| 4 of the maps measured at most 2.8e14 (a) and
5.4e11 (alpha), both on d13, of 9.2e18.

Right multiplication by a unit v of O^x, (a, alpha, c) -> (av, alpha v,
cv), keeps tr(conj(a) c) = n(alpha), the left ideal Oa + O alpha + Oc and
n(c), commutes with the left shear action, and fixes the Heisenberg point
(alpha c^-1, a c^-1).  So it maps the canonical representatives with a
given c bijectively onto those with cv and keeps each one's dyadic cell:
the per-c count and 128-cell histogram depend only on the right coset
c O^x.  Units act freely on c != 0 and keep c in scale * O, so the c list
is a union of whole cosets of |O^x| members each.

Left multiplication by a unit u, (a, alpha, c) -> (ua, u alpha, uc), also
keeps the trace relation (tr(conj(ua) uc) = n(u) tr(conj(a) c)), the left
ideal (O u = O) and n(c).  It maps N(O)-orbits to N(O)-orbits: the shear
(n(w) h + r, w) moves alpha by w c and a by conj(w) alpha + (n(w) h + r) c,
and u conjugates it to the shear (n(w) h + r', u w u^-1), r' = n(w) (u h
u^-1 - h) + u r u^-1, where u h u^-1 - h has trace 0 and lies in O, so r'
is in Im O.  So the per-c orbit count f(c) (which depends only on the
left ideal Oc) is constant on the double coset O^x c O^x: f(u c v) = f(c).
The histogram is not, since u moves alpha c^-1 to u alpha c^-1 u^-1.

scan_summary (and through it psi_count without triples) scans the
lexicographically least c of each right coset, weighted by |O^x|, if
n(c) is at most the largest histogram level; above it, only the least c
of each double coset, whose count is taken once per right coset of the
class: its multiplicity.  A c list is one (N, 4) int64 array up to that
choice.  count_table and histogram_report build the reports from its
counts and histograms and scan nothing.  scan() and psi_count with
triples stay full per-c enumerations; the tests compare the reductions
against them.

brute_force_counts (and brute_force_psi, its one-level form) is the
oracle: it moves every admissible triple of a padded window of cells to
its canonical representative by a shear per alpha and a residue shift t
per alpha, asserts the trace relation of every shift, canonicalises about
64 spot triples per coset exactly (heisenberg.canonical_rows) and
requires each to land on the representative that t claims, and counts
the primitive in-domain triples.  It counts every c, in one pass for a
grid.  Its work list is the scan's right coset representatives times the
units, asserted to cover the c list exactly once.  Its window of 81
cells is the alpha transversal moved into each cell: row i of every cell
is the translate of alpha i of the middle cell, so a member maps only
the D rows of the transversal and an alpha's row names its canonical
alpha.  The members of a right coset share their lattice data, their
window and the residue shifts of its triples, so it makes one pass per
coset: the transversal is built once, the spot triples are canonicalised
once, for the first member, and each member in turn computes and checks
its own alphas, shifts and residue shifts against the first member's.

The per-c work of both is independent and exact, so one helper,
_pool_map, spreads it over a process pool: scan_summary's values of c with
threads > 1, the oracle's right cosets (one item per coset) with one
worker per CPU that the process may use (_usable_cpus, its affinity mask).
A pool starts only when the orbit law predicts at least _POOL_MIN_ROWS
rows of work, enough to repay its start-up, an orbit of the oracle
counting _ORACLE_ROWS_PER_ORBIT rows.  Per-c results are added in
the parent, so no output depends on the partition or on the prediction.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import constants
from .heisenberg import FundamentalDomain, Triple, canonical_rows
from .lattices import det_adjugate, hnf
# not called here: perfbench/spans.py wraps these names in this module
from .lattices import adjugate, det_int, kernel_basis, mat_mul, solve_integer  # noqa: F401
from .orbitlaw import orbit_law
from .orders import Order, OrderElement, enumerate_by_norm, order_spec_dict

_S_LIMIT = 10 ** 4


# ---------------------------------------------------------------------------
# vectorised lattice-box enumeration


def _box_points(H: np.ndarray, side: int) -> np.ndarray:
    """All w = t . H in [0, side)^k, H upper-triangular; levels ascending,
    t ascending within a level, so w ascending.  Each pivot p must divide
    side, so every prefix has side / p continuations."""
    k = H.shape[0]
    W = np.zeros((1, k), np.int64)
    for lvl in range(k):
        p = int(H[lvl, lvl])
        if side % p:
            raise AssertionError("box side is not a multiple of a pivot")
        t = (-(W[:, lvl] // p))[:, None] + np.arange(side // p, dtype=np.int64)
        W = (W[:, None, :] + t[..., None] * H[lvl]).reshape(-1, k)
    return W


def _exact_rows(Y: np.ndarray, M: np.ndarray, d) -> np.ndarray:
    """Y . M / d, asserting that d divides every entry."""
    P = Y @ M
    if (P // d * d != P).any():
        raise AssertionError("exact map not integral: numerators off their lattice")
    P //= d
    return P


# ---------------------------------------------------------------------------
# per-c integer data


def _primitive_mask(order: Order, A: np.ndarray, X: np.ndarray, row, c) -> np.ndarray:
    """Exact primitivity of the triples (A[r], X[row[r]], c), vectorised:
    X holds one row per alpha and row gives each triple's alpha.

    Oa + O alpha + Oc = O iff gcd(n(a), n(alpha), n(c), cont(a conj(alpha)),
    cont(a conj(c)), cont(alpha conj(c))) = 1, cont(x) being the gcd of
    the order coordinates of x.  The ideal is proper iff the three lie in
    one maximal left ideal M, of reduced norm a prime p with M conj(M) =
    pO; then p divides all six.  Conversely let p divide all six.  If
    p | D_A, the only maximal left ideal above p, P = {x : p | n(x)},
    holds all three.  Else O/pO = M_2(F_p) with conj the adjugate.  If
    all three lie in pO, they lie in every M above p.  If not, one of them,
    y, has rank 1 mod p, adj(y) has image ker(y), and x adj(y) = 0 puts
    ker(y) in ker(x) for each x of the three: all lie in the maximal left
    ideal {x : x ker(y) = 0}.  As x conj(y) = conj(y conj(x)) and conj
    keeps the content, three unordered pairs suffice.

    The terms without a are taken once per alpha; with n(a) they certify
    most triples, and the products with a are formed only for the rest.
    Their coordinates and intermediates are at most sqrt(n(x) n(y)) <=
    max(n(x), n(y)) times a constant of the order: the int64 range of norms.
    """
    c = np.array(c, np.int64)
    Rcbar = order.right_mul(order.conjugates(c))
    g = np.gcd(np.gcd.reduce(X @ Rcbar, axis=1), order.norms(c))
    g = np.gcd(order.norms(A), np.gcd(order.norms(X), g)[row])
    rest = np.flatnonzero(g > 1)
    if rest.size:
        Ar = A[rest]
        for P in (order.mul_rows(Ar, order.conjugates(X[row[rest]])), Ar @ Rcbar):
            g[rest] = np.gcd(g[rest], np.gcd.reduce(P, axis=1))
    return g == 1


class _CContext:
    """Integer data for one value of c, read off two HNFs.

    alpha c^-1 lies in cell4 iff V = alpha . adjR lies in [0, D)^4, with
    D = n(c)^2; these V are the points of the lattice of H4 = hnf(adjR),
    adjR = n(c) Rbar (Rbar = R_conj(c), as R . Rbar = n(c) I), and alpha =
    V . R / D, as R . adjR = D I.  The pairs (a . tau, a . Pnum)
    of trace pairing tr(conj(a) c) and cell3 numerators form the lattice of
    H = hnf(M), M = [tau | Pnum]: the a with a . tau = q g (g = H[0, 0])
    have W in q w0vec + the lattice of T3 (w0vec = H[0, 1:], T3 = H[1:, 1:]),
    and a = (q g, W) . adjM / detM, as M is nonsingular.

    Every a-box is one residue table shifted.  For r in Im O (trace 0,
    coordinates f in im_basis), a -> a + r c adds n(c) tr(conj(r)) = 0 to
    tr(conj(a) c) and f to the cell3 coordinates, as (r c) c^-1 = r; so r c
    is in the trace kernel with numerators Pden f, and Pden Z^3 lies in
    the lattice of T3.  Likewise D Z^4 lies in that of H4, as R . adjR =
    D I, so the oracle's window is the transversal moved by D Z^4.  A
    triangular basis of a lattice holding N Z^k has pivots that divide N,
    so they divide the sides of [0, D)^4 and [0, Pden)^3.  WR holds the
    points of [0, Pden)^3; _a_box reduces q w0vec + WR mod Pden, and the
    oracle reads the canonical a of a triple as residue j of its a-box,
    the a with numerators (t + WR[j]) mod Pden.
    """

    def __init__(self, fd: FundamentalDomain, c: Tuple[int, ...]):
        self.c = tuple(int(x) for x in c)
        nc, self.R, Rbar, self.Pnum, Pden, self.M = (
            x[0] for x in _member_rows(fd, np.array([self.c], np.int64)))
        self.nc, self.Pden = int(nc), int(Pden)
        self.D = self.nc ** 2
        self.H4 = np.array(hnf((self.nc * Rbar).tolist()), np.int64)
        self.detM, self.adjM = _det_adjugate(self.M)
        self.H = np.array(hnf(self.M.tolist()), np.int64)
        self.g, self.w0vec, self.T3 = int(self.H[0, 0]), self.H[0, 1:], self.H[1:, 1:]

    @functools.cached_property
    def WR(self) -> np.ndarray:
        """The residue table, built on first use."""
        return _box_points(self.T3, self.Pden)

    @property
    def m(self) -> int:
        """The number of points of each a-box: Pden^3 / det T3."""
        return self.Pden ** 3 // int(np.prod(np.diag(self.T3)))


def _member_rows(fd: FundamentalDomain, C: np.ndarray) -> tuple:
    """(nc, R, Rbar, Pnum, Pden, M) of _CContext for each row c of C, shape
    (k, 4), with one numpy call each over all k rows."""
    order = fd.order
    nc = order.norms(C)
    R = order.right_mul(C)
    Rbar = order.right_mul(order.conjugates(C))
    # cell3 coordinates of 2 Im(a c^-1) = 2 Im(a conj(c)) / n(c):
    # y = (a . Pnum) / Pden
    Q = Rbar @ fd.cell3_num
    den = fd.cell3_den * nc
    cont = np.gcd(np.gcd.reduce(Q.reshape(len(C), -1), axis=1), den)
    Pnum, Pden = Q // cont[:, None, None], den // cont
    M = np.concatenate([order.trace_pairing(C)[..., None], Pnum], axis=-1)
    return nc, R, Rbar, Pnum, Pden, M


def _det_adjugate(M: np.ndarray) -> Tuple[int, np.ndarray]:
    """(det M, adj M) of a nonsingular int64 matrix, from one Bareiss pass."""
    det, adj = det_adjugate(M.tolist())
    if adj is None:
        raise AssertionError("vertical map singular on the trace kernel")
    return det, np.array(adj, np.int64)


def _a_box(ctx: _CContext, q: np.ndarray):
    """(row, W): for each q[row], the cell3 numerators W in [0, Pden)^3 of
    the a with trace pairing q g, in the order of the residue table (see
    _CContext); one run of rows per q.  Such an a is (q g, W) . adjM / detM."""
    W = (q[:, None, None] * ctx.w0vec + ctx.WR) % ctx.Pden
    return np.repeat(np.arange(q.shape[0], dtype=np.int64), ctx.WR.shape[0]), W.reshape(-1, 3)


# ---------------------------------------------------------------------------
# the transversal scan (fast path)


@dataclass
class CRecord:
    """Canonical triples found for one value of c."""

    c: Tuple[int, ...]
    nc: int
    a: np.ndarray        # (k, 4) int64 a-coordinates
    alpha: np.ndarray    # (k, 4) int64 alpha-coordinates
    bucket: np.ndarray   # (k,) uint8 dyadic half-cell index (7 bits)

    @property
    def count(self) -> int:
        return int(self.a.shape[0])


def _half_cell_bits(V: np.ndarray, side: int) -> np.ndarray:
    """One uint8 per row of V (at most 8 columns): bit b is 2 V[:, b] >= side."""
    return np.packbits(2 * V >= side, axis=1, bitorder="little")[:, 0]


def _scan_c(fd: FundamentalDomain, c, scale: int = 1) -> CRecord:
    """Per alpha (rows of X, V4): the transversal, one filter (g | n(alpha),
    alpha in scale * O) and the horizontal bits.  Per candidate triple: the
    a-box, whose rows index their alpha, a, primitivity and the vertical bits."""
    order = fd.order
    ctx = _CContext(fd, c)
    V4 = _box_points(ctx.H4, ctx.D)
    if V4.shape[0] != ctx.D:
        raise AssertionError("alpha transversal has wrong size")
    X = _exact_rows(V4, ctx.R, ctx.D)
    NAL = order.norms(X)
    ok = (NAL % ctx.g == 0) & ~(X % scale).any(axis=1)
    X, V4, NAL = X[ok], V4[ok], NAL[ok]
    rows, W3 = _a_box(ctx, NAL // ctx.g)
    A = _exact_rows(np.column_stack([NAL[rows], W3]), ctx.adjM, ctx.detM)
    keep = _primitive_mask(order, A, X, rows, ctx.c)
    rows = rows[keep]
    bucket = _half_cell_bits(V4, ctx.D)[rows] | _half_cell_bits(W3[keep], ctx.Pden) << 4
    return CRecord(ctx.c, ctx.nc, A[keep], X[rows], bucket)


def _c_list(order: Order, s, scale: int = 1) -> np.ndarray:
    """The c in scale * O with 0 < n(c) <= s, as the rows of an (N, 4)
    int64 array ordered by (n(c), c): the norm enumeration is
    lexicographic, so a stable sort of its scaled rows by norm orders them.
    A c != 0 in scale * O has n(c) >= scale^2, so below that there is none,
    and a scale past int64 is never multiplied in."""
    s = Fraction(s)
    if s > _S_LIMIT:
        raise ValueError(f"s > {_S_LIMIT} is beyond the supported desk scale")
    if s < scale * scale:
        return np.zeros((0, 4), np.int64)
    C = scale * enumerate_by_norm(order, s / (scale * scale))
    return C[np.argsort(order.norms(C), kind="stable")]


def _unit_right_mul(order: Order) -> np.ndarray:
    """The (|O^x|, 4, 4) stack of the matrices of x -> x v, v in O^x."""
    return order.right_mul(np.array([u.coords for u in order.units], np.int64))


def _lex_less(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Whether row n of X is lexicographically less than row n of Y, for
    two (N, k) arrays."""
    less = np.zeros(len(X), bool)
    tied = np.ones(len(X), bool)
    for j in range(X.shape[1]):
        less |= tied & (X[:, j] < Y[:, j])
        tied &= X[:, j] == Y[:, j]
    return less


def _lex_min(Xs: Iterable[np.ndarray]) -> np.ndarray:
    """Row n of the result is the lexicographically least of the rows n of
    the (N, k) arrays Xs, as a running minimum."""
    return functools.reduce(lambda X, Y: np.where(_lex_less(Y, X)[:, None], Y, X), Xs)


def _right_coset_representatives(order: Order, C: np.ndarray) -> np.ndarray:
    """The lexicographically least member of each right coset c O^x among
    the rows c of C, in their order.

    C must be a union of whole cosets, as every c list is: right
    multiplication by a unit keeps n(c) and keeps c in scale * O.  Units
    act freely on c != 0, so each coset has exactly |O^x| members.  One
    pass per unit v keeps the c that no image c v undercuts, so beside C
    only one (N, 4) product is held at a time.
    """
    least = np.ones(len(C), bool)
    for R in _unit_right_mul(order):
        least &= ~_lex_less(C @ R, C)
    reps = C[least]
    if len(reps) * len(order.units) != len(C):
        raise AssertionError("c list is not a union of whole right unit cosets")
    return reps


def _double_coset_keys(order: Order, C: np.ndarray) -> np.ndarray:
    """The lexicographically least u c v, u and v in O^x, for each row c
    of C; it is also the least member of its own right coset.  As -1 is
    central, u c v = (-u) c (-v), so u runs over one of each pair +-u.
    A running minimum over v gives the least of each u c O^x, a second one
    over u the least of these."""
    U = np.array([u.coords for u in order.units
                  if u.coords > tuple(-x for x in u.coords)], np.int64)
    UC = C @ order.left_mul(U)
    return _lex_min(_lex_min(UC.reshape(-1, 4) @ Rv for Rv in _unit_right_mul(order))
                    .reshape(UC.shape))


def _scan_classes(order: Order, reps: np.ndarray, hist_max) -> Dict[Tuple[int, ...], int]:
    """{c to scan: the number of right cosets it stands for}, over the
    right coset representatives, the rows of reps, in their order.  A c
    with n(c) > hist_max stands for every right coset in O^x c O^x and is
    the least member of it, so it is the first of them in reps; any other
    c stands for its own right coset only (the histogram is not
    left-invariant)."""
    keys = reps.copy()
    big = order.norms(reps) > hist_max
    keys[big] = _double_coset_keys(order, reps[big])
    return dict(collections.Counter(map(tuple, keys.tolist())))


def scan(order: Order, s, scale: int = 1) -> Iterable[CRecord]:
    """Stream of per-c canonical-triple records, deterministic order."""
    fd = FundamentalDomain(order)
    for c in _c_list(order, s, scale):
        yield _scan_c(fd, c, scale)


def psi_count(order: Order, s, scale: int = 1,
              with_triples: bool = True) -> Tuple[int, List[Triple]]:
    """Orbit count for 0 < n(c) <= s, plus the canonical triples.

    With with_triples=False the second component is an empty list and the
    count comes from scan_summary, which scans one c per double unit coset
    O^x c O^x; with triples every c is scanned.
    """
    if not with_triples:
        return scan_summary(order, [s], scale=scale).counts[Fraction(s)], []
    total = 0
    triples: List[Triple] = []
    for rec in scan(order, s, scale):
        total += rec.count
        cel = OrderElement(rec.c)
        for r in range(rec.count):
            triples.append(Triple(
                OrderElement(tuple(int(v) for v in rec.a[r])),
                OrderElement(tuple(int(v) for v in rec.alpha[r])), cel))
    return total, triples


# ---------------------------------------------------------------------------
# summaries: tables, histograms, checkpoints, worker pools


# Version of the checkpoint record; part of every key.  Version 3 records
# hold the count and histogram of a whole right coset c O^x, one record per
# scanned c.
_CKPT_VERSION = 3


def checkpoint_key(order: Order, scale: int = 1) -> str:
    """Hash of what determines a checkpoint record: the order's algebra and
    basis (not its name), the scale and the record version.  hashlib is
    imported here, as it loads OpenSSL, which only a checkpoint needs."""
    import hashlib
    spec = order_spec_dict(order)
    del spec["name"]
    blob = json.dumps({"order": spec, "scale": scale, "version": _CKPT_VERSION},
                      sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _scan_chunk(fd: FundamentalDomain, scale: int, chunk) -> List[dict]:
    """One record per c in chunk: the count and 128-cell histogram of its
    right coset c O^x, those of c weighted by |O^x|.  A record holds no
    checkpoint key; _append_checkpoint puts the key in front of it."""
    weight = len(fd.order.units)
    out = []
    for c in chunk:
        rec = _scan_c(fd, c, scale)
        hist = np.bincount(rec.bucket, minlength=128).astype(np.int64) * weight
        out.append({"c": list(c), "nc": rec.nc, "count": rec.count * weight,
                    "hist": hist.tolist()})
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The fewest predicted rows for which _pool_map starts a pool; see there.
_POOL_MIN_ROWS = 5 * 10 ** 5


def _pool_map(chunk_fn, items: list, workers: int, rows: int):
    """chunk_fn over items, yielding its results in order.  With workers > 1
    and rows >= _POOL_MIN_ROWS, a process pool of workers processes maps
    workers * 8 interleaved slices, else each item is one call in process.
    workers must not exceed _usable_cpus().  chunk_fn is pickled to the
    workers, so it must be a module-level function or a partial of one.
    The workers inherit the caller's environment, so the one BLAS thread
    that cli.main sets holds in them too.

    rows is the work of items as predicted by the orbit law, before any of
    it runs: orbit_law(order, c) kept orbits per c the scan scans,
    _ORACLE_ROWS_PER_ORBIT |O^x| orbit_law(order, c) per right coset c O^x
    of the oracle (the law is constant on the coset); at scale > 1, the
    scale-1 law of c.  It only schedules the work and never enters a
    count, so the output does not depend on it.  The callers compute it
    only when more than one worker is usable.

    Why 5e5.  Fresh `count` runs on a 2-core x86-64 machine (Python 3.11,
    numpy 2.4), serial against a pool of 2, 15 alternating pairs per grid
    on d3 and Hurwitz from 5.2e4 to 3.5e6 predicted rows, fit the median
    wall time as 0.197 s + 293 ns/row serially and 0.222 s + 174 ns/row
    pooled.  So the pool costs 24 ms to start (the import of
    concurrent.futures.process and the fork and join of the workers) and
    saves 119 ns/row: it breaks even near 2.0e5 rows (2.6e5 in a second
    fit of 7 pairs), and from 5e5 rows on it saves at least its start-up
    again.  It also adds about 57 ms of CPU at any size.  Medians, serial
    / pooled: d3 s <= 16 (51,876 rows) 0.189 / 0.220 s, Hurwitz s <= 32
    (521,120) 0.350 / 0.310 s, d3 s <= 32 (1,375,606) 0.622 / 0.479 s.

    Why 10 rows per oracle orbit.  Fresh `oracle` runs on the same
    machine, serial against a pool of 2, 9 alternating pairs at each s = 4
    .. 8 on Hurwitz and d3 (3,264 to 129,504 orbits), fit the median wall
    time as 0.215 s + 2,823 ns/orbit serially and 0.238 s + 1,692 ns/orbit
    pooled: the pool costs 23 ms to start and saves 1,131 ns per orbit,
    9.5 times the saving per scan row.  So an orbit counts 10 rows, the
    pool breaks even near 2.0e4 orbits, and from _POOL_MIN_ROWS on (5e4
    orbits) it saves at least its start-up again.  Medians, serial /
    pooled: Hurwitz s <= 5 (21,120 orbits, no pool) 0.269 / 0.271 s, d3
    s <= 7 (48,864, no pool) 0.360 / 0.314 s, Hurwitz s <= 7 (94,272)
    0.473 / 0.402 s.
    """
    if workers > 1 and rows >= _POOL_MIN_ROWS:
        from concurrent.futures import ProcessPoolExecutor
        nch = min(workers * 8, len(items))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(chunk_fn, [items[i::nch] for i in range(nch)])
    else:
        yield from map(chunk_fn, ([x] for x in items))


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def _lawful(order: Order, scale: int, c, count: int) -> bool:
    """Whether count, as the count of the right coset c O^x, agrees with
    the proven law: at scale 1 it must be |O^x| orbit_law(order, c).  At
    scale > 1 the law has no level-m form yet (alpha and c in scale * O
    change the local factors at p | scale), so every count passes there."""
    return scale > 1 or count == len(order.units) * orbit_law(order, c)


def _load_checkpoint(fh, key: str, order: Order, cs, scale: int) -> Dict[Tuple[int, ...], dict]:
    """{c: its first valid record}, over the records that carry key and
    whose c is in cs, the values of c this run scans, from a JSONL
    checkpoint open in "a+b" mode.

    A record is valid only if its nc is n(c), its count a non-negative int
    divisible by |O^x| and its hist 128 non-negative ints that sum to the
    count, and if its count is _lawful.  Any other record is ignored, like
    a foreign one, and its c is scanned again.  A torn last line, left by a
    killed run, is cut off the file so that new records start on a line of
    their own.  The file is read under the lock that
    every append takes, so a record another run is still writing is never
    taken for a torn one.
    """
    import fcntl
    fcntl.flock(fh, fcntl.LOCK_EX)
    try:
        fh.seek(0)
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            fh.truncate(end)
    finally:
        fcntl.flock(fh, fcntl.LOCK_UN)
    weight = len(order.units)
    wanted = set(cs)
    done = {}
    for line in data[:end].splitlines():
        try:
            rec = json.loads(line)
            c = tuple(rec["c"])
            if rec["key"] != key or c not in wanted or c in done:
                continue
            count, hist = rec["count"], rec["hist"]
            if (rec["nc"] == order.norm(c) and _is_count(count) and count % weight == 0
                    and type(hist) is list and len(hist) == 128
                    and all(_is_count(h) for h in hist) and sum(hist) == count
                    and _lawful(order, scale, c, count)):
                done[c] = rec
        except (ValueError, KeyError, TypeError):
            continue
    return done


def _append_checkpoint(fh, key: str, records: List[dict]) -> None:
    """Append records to a checkpoint open in "a+b" mode, one line each,
    {"key": key, "c", "nc", "count", "hist"} in that order, under an
    exclusive lock, so that runs sharing the file do not interleave or cut
    each other's lines."""
    import fcntl
    data = "".join(json.dumps({"key": key, **rec}) + "\n" for rec in records).encode("utf-8")
    fcntl.flock(fh, fcntl.LOCK_EX)
    try:
        fh.write(data)
        fh.flush()
    finally:
        fcntl.flock(fh, fcntl.LOCK_UN)


@dataclass
class ScanSummary:
    counts: Dict[Fraction, int]
    hists: Dict[Fraction, np.ndarray]


def scan_summary(order: Order, s_grid: Sequence, hist_levels: Sequence = (),
                 scale: int = 1, checkpoint_path: Optional[str] = None,
                 threads: int = 1, progress=None) -> ScanSummary:
    """Counts at each s in s_grid and 128-cell histograms at hist_levels,
    from a single pass over c with 0 < n(c) <= max(s_grid).

    The count of c is constant on its double coset O^x c O^x and its
    histogram on its right coset c O^x (see the module docstring).  So a
    right coset with n(c) <= max(hist_levels) is scanned once, at its
    least member, weighted by |O^x|; above that level one c per double
    coset is scanned, its least member, and its weighted count is added
    times its multiplicity, the number of right cosets of the class
    (_scan_classes).  Results are per-c additive, so the output does not
    depend on the thread partition.
    An optional JSONL checkpoint stores one record per scanned c, with the
    count and histogram of its right coset, keyed by checkpoint_key(order,
    scale); the key, and with it hashlib, is computed only when there is a
    checkpoint_path, so a run without one never loads OpenSSL.  Every
    scanned c is the least member of its right coset, so a record serves
    any later run that scans that c, whatever its histogram levels.  Each
    fresh record's count must be _lawful, else an AssertionError names its
    c before it is stored.  On resume, records
    with another key, a c this run does not scan or a count and histogram
    that do not check out are ignored.  Runs that share a checkpoint take
    turns reading and appending it, so neither loses the other's records;
    a c both runs scan is stored twice and counted once.  With threads > 1
    and more than one usable CPU, the values of c left to scan go to a
    process pool (_pool_map) if their orbit law predicts enough work; the
    pool receives the fundamental domain pickled, with its order's
    validated tables and units.  progress(done, total) is called after
    each batch, with the number of values of c scanned so far and to scan
    in all.
    """
    grid = sorted(Fraction(x) for x in s_grid)
    hlev = sorted(Fraction(x) for x in hist_levels)
    smax = max(grid + hlev) if (grid or hlev) else Fraction(0)
    hist_max = max(hlev, default=Fraction(0)) // 1
    reps = _right_coset_representatives(order, _c_list(order, smax, scale))
    scan_chunk = functools.partial(_scan_chunk, FundamentalDomain(order), scale)
    classes = _scan_classes(order, reps, hist_max)
    ckpt = open(checkpoint_path, "a+b") if checkpoint_path else None
    try:
        key = checkpoint_key(order, scale) if ckpt else None
        done = _load_checkpoint(ckpt, key, order, classes, scale) if ckpt else {}
        records = list(done.values())
        todo = [c for c in classes if c not in done]
        workers = min(threads, _usable_cpus())
        rows = sum(orbit_law(order, c) for c in todo) if workers > 1 else 0
        for batch in _pool_map(scan_chunk, todo, workers, rows):
            for rec in batch:
                if not _lawful(order, scale, tuple(rec["c"]), rec["count"]):
                    raise AssertionError(f"scan count {rec['count']} of c = "
                                         f"{tuple(rec['c'])} is off the orbit law")
            records.extend(batch)
            if ckpt:
                _append_checkpoint(ckpt, key, batch)
            if progress:
                progress(len(records) - len(done), len(todo))
    finally:
        if ckpt:
            ckpt.close()
    counts = {g: 0 for g in grid}
    hists = {g: np.zeros(128, np.int64) for g in hlev}
    for rec in records:
        for g in grid:
            if rec["nc"] <= g:
                counts[g] += rec["count"] * classes[tuple(rec["c"])]
        for g in hlev:
            if rec["nc"] <= g:
                hists[g] += np.array(rec["hist"], np.int64)
    return ScanSummary(counts, hists)


# ---------------------------------------------------------------------------
# independent oracle


def _cell_shifts(order: Order, c) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(WT, L, off) over the 81 cells of the window [-1, 2)^4, for c of
    shape (..., 4).  WT is the oracle's one source of the cell order: cell
    n is the transversal [0, D)^4 moved by -D WT[n], so it holds the V with
    -(V // D) = WT[n], and the middle cell, WT[40] = 0, is the transversal.
    L[n] is the matrix of y -> conj(WT[n]) y (Order.left_mul), and
    off[..., n, :] = n(WT[n]) h c, h of trace one.  An alpha of cell n
    moves to the middle cell by WT[n] c and adds the shift alpha . L[n] +
    off[n] to a (see _brute_force_c)."""
    WT = np.array(list(itertools.product((1, 0, -1), repeat=4)), np.int64)
    hc = np.array(order.trace_one.coords, np.int64) @ order.right_mul(np.array(c, np.int64))
    return WT, order.left_mul(order.conjugates(WT)), order.norms(WT)[:, None] * hc[..., None, :]


def _a_rows(ctx: _CContext, q: np.ndarray, res: np.ndarray) -> np.ndarray:
    """The cell3 numerators of residue res[j] in the a-box of q[j]: row
    res[j] of _a_box(ctx, q[j:j + 1])[1]."""
    return (q[:, None] * ctx.w0vec % ctx.Pden + ctx.WR[res]) % ctx.Pden


def _dets4(A: np.ndarray) -> np.ndarray:
    """The determinants of a stack of 4 x 4 int64 matrices, exactly: the
    Laplace expansion along rows 0 and 1, six products of 2 x 2 minors.
    Each product is at most 4 max|A|^4, asserted to keep the sum of six
    in the int64 range."""
    if 24 * int(np.abs(A).max()) ** 4 >= 2 ** 63:
        raise AssertionError("oracle determinant leaves int64")

    def minor(r, i, j):
        return A[:, r, i] * A[:, r + 1, j] - A[:, r, j] * A[:, r + 1, i]

    det = np.zeros(len(A), np.int64)
    for i, j in itertools.combinations(range(4), 2):
        k, l = (x for x in range(4) if x not in (i, j))
        det += (-1) ** (1 + i + j) * minor(0, i, j) * minor(2, k, l)
    return det


def _spans_lattice(A: np.ndarray, dets: np.ndarray, H: np.ndarray) -> bool:
    """Whether every matrix of the stack A, of determinants dets, spans the
    lattice of the nonsingular H.  Its rows lie in that lattice iff x
    adj(H) = 0 mod det H; then they span a sublattice of index |det| /
    |det H|, which is the lattice iff |det| = |det H|.  The products are
    asserted to stay in the int64 range."""
    detH, adjH = det_adjugate(H.tolist())
    adjH = np.array(adjH, np.int64)
    if 4 * int(np.abs(A).max()) * int(np.abs(adjH).max()) >= 2 ** 63:
        raise AssertionError("oracle lattice check leaves int64")
    return bool((A @ adjH % detH == 0).all() and (np.abs(dets) == abs(detH)).all())


def _coset_context(fd: FundamentalDomain, C: np.ndarray) -> tuple:
    """(top, R, M, adjM, detM): the _CContext of the first row of C and,
    stacked over every row c, R(c), M(c) and adj M(c), det M(c) (one
    Bareiss pass each).  Asserts that the rows share the lattice data of
    the first, what brute_force_counts proves of a right coset: Pden; the
    lattice n(c) O conj(c) of H4, of determinant n(c)^6 = D^3, so D; and
    that of M, so g, w0vec and T3.  The HNFs are taken of the first row
    only; every row is checked against them in one batched pass
    (_spans_lattice), which is equivalent to comparing the HNFs of each
    row, as the HNF is unique."""
    nc, R, Rbar, _, Pden, M = _member_rows(fd, C)
    top = _CContext(fd, C[0])
    pairs = [(top.detM, top.adjM)] + [_det_adjugate(X) for X in M[1:]]
    detM = np.array([det for det, _ in pairs], np.int64)
    adjM = np.stack([adj for _, adj in pairs])
    A = nc[:, None, None] * Rbar
    if not ((Pden == top.Pden).all() and _spans_lattice(A, _dets4(A), top.H4)
            and _spans_lattice(M, detM, top.H)):
        raise AssertionError("oracle coset members disagree on lattice data")
    return top, R, M, adjM, detM


def _oracle_coset(fd: FundamentalDomain, C: np.ndarray) -> List[int]:
    """Oracle orbit counts of the rows c of C, in order: values of c that
    share their lattice data, as the members of one right coset c O^x do
    (see brute_force_counts); _coset_context asserts it.

    The window is the transversal V0 = _box_points(H4, D) moved into its
    81 cells, cell n by -D WT[n] (_cell_shifts), so member c_j maps only
    V0: its alphas of cell n are V0 . R_j / D - WT[n] c_j.  What the
    members share is built once: V0 and the first member's keep mask,
    asserted to be the same in every cell, its spot rows and in-domain
    rows.  Then each member runs alone, one c at a time: its own window
    alphas and norms, whose keep mask is asserted to equal the first
    member's, shifts with their trace relation, exact maps, the trace
    relation of its spot triples, primitivity, and its own residue shifts
    t, asserted to equal the first member's.  The first member's spot
    triples, the raw a-box a of their residue with their window alpha,
    are canonicalised exactly (heisenberg.canonical_rows), once per
    coset, and each must equal the representative that t claims for it:
    the middle-cell alpha of its row and the a with (a . tau, a . Pnum)
    = (q g, (t + WR) mod Pden), q that of the middle-cell alpha.  As
    every member's t is the first's, that one check covers the coset."""
    order = fd.order
    top, R, M, adjM, detM = _coset_context(fd, C)
    D, g, Pden, WR, m = top.D, top.g, top.Pden, top.WR, top.m
    V0 = _box_points(top.H4, D)
    # per cell: its translate WT; per cell and member: conj(WT) y and
    # n(WT) h c, the shift of alpha
    WT, L, off = _cell_shifts(order, C)
    # tr(conj(e_i) c) per member, in exact scalar arithmetic
    conj_e = [order.conj(e) for e in np.eye(4, dtype=int).tolist()]
    taus = [[order.trace(order.mul(e, c)) for e in conj_e] for c in C.tolist()]

    counts: List[int] = []
    for j, c in enumerate(C):
        # the window alphas V . R_j / D, cell by cell: the transversal's
        # moved by -WT c_j
        ALPH = (_exact_rows(V0, R[j], D) - (WT @ R[j])[:, None]).reshape(-1, 4)
        NAL = order.norms(ALPH)
        if j == 0:
            # n(alpha v) = n(alpha) keeps the same alphas in every member,
            # and a translate keeps n(alpha) mod g, so every cell keeps the
            # same rows
            keep = NAL % g == 0
            if (keep.reshape(81, D) != keep[40 * D:41 * D]).any():
                raise AssertionError("oracle window cells keep different alphas")
            # a view of every member's alphas when all are kept
            kept = slice(None) if keep.all() else keep
            n = int(keep.sum()) // 81
            # the spot rows (about 64 window triples) and the in-domain rows
            mid = np.arange(40 * n, 41 * n)
            step = max(1, 81 * n * m // 64)
            spot = np.arange((12345 + top.nc) % step, 81 * n * m, step)
            sel = np.concatenate([spot // m, np.repeat(mid, m)])
            res = np.concatenate([spot % m, np.tile(np.arange(m), n)])
            mid_row = np.repeat(np.arange(n), m)
        elif ((NAL % g == 0) != keep).any():
            raise AssertionError("oracle coset members keep different alphas")
        ALPH, NAL = ALPH[kept], NAL[kept]
        q = NAL // g

        # per alpha: the shift it adds to a, paired with [tau | Pnum], one
        # matrix per cell; the translate alpha + WT c is the alpha of the
        # middle cell (the in-domain alphas) in the same row
        shift = (ALPH.reshape(81, n, 4) @ (L @ M[j]) + (off[j] @ M[j])[:, None]).reshape(-1, 4)
        if ((NAL + shift[:, 0]).reshape(81, n) != NAL[mid]).any():
            raise AssertionError("oracle shift breaks the trace relation")

        # a on the spot rows and the in-domain rows
        qs = q[sel]
        A = _exact_rows(np.column_stack([qs * g, _a_rows(top, qs, res)]), adjM[j], detM[j])
        # the canonical a of a triple has numerators (t + WR) mod Pden
        t = (q[:, None] * top.w0vec + shift[:, 1:]) % Pden
        if j == 0:
            t0 = t
            # canonicalised exactly, a spot triple must land on the
            # representative that t claims: the middle-cell alpha of its
            # row, and the a of pairing q g and numerators (t + WR) mod Pden
            Ac, Xc = canonical_rows(fd, c, A[:spot.size], ALPH[spot // m])
            rep = mid[spot // m % n]
            claim = np.column_stack([q[rep] * g, (t[spot // m] + WR[spot % m]) % Pden])
            if (Xc != ALPH[rep]).any() or (Ac @ M[0] != claim).any():
                raise AssertionError("oracle spot triple canonicalises off its representative")
        elif (t != t0).any():
            raise AssertionError("oracle coset members disagree on residue shifts")
        # spot re-verification of the trace relation, as tr(conj(a) c) =
        # sum a_i tr(conj(e_i) c)
        tau0, tau1, tau2, tau3 = taus[j]
        for (a0, a1, a2, a3), alc in zip(A[:spot.size].tolist(),
                                         ALPH[sel[:spot.size]].tolist()):
            if a0 * tau0 + a1 * tau1 + a2 * tau2 + a3 * tau3 != order.norm(alc):
                raise AssertionError("oracle emitted an inadmissible triple")
        # primitivity is orbit-invariant: test only the canonical reps
        prim = _primitive_mask(order, A[spot.size:], ALPH[mid], mid_row, c)
        counts.append(int(prim.sum()))
    return counts


def _brute_force_c(fd: FundamentalDomain, c) -> int:
    """Oracle orbit count of one c: a coset pass of one member; see
    brute_force_counts.

    The window holds exactly 81 = 3^4 triples of each orbit, one per
    cell.  With c fixed, the shear (n(w) h + r, w), w in O and r in
    Im O, sends alpha to alpha + w c and moves the cell coordinates of
    alpha c^-1 by the coordinates of w, so an orbit meets each of the 3^4
    horizontal cells of [-1, 2)^4 in exactly one horizontal translate.
    Over that translate the shears with w fixed form the vertical fibre,
    on which Im O moves the cell3 coordinates of 2 Im(a c^-1) by the
    integer coordinates of r; the fibre therefore has exactly one point
    with cell3 coordinates in [0, 1)^3.  The trace relation holds on the
    whole orbit, so the enumeration holds these 81 triples of it and no
    other, and only the one of the middle cell is in the domain.

    The canonical representative of a window triple is read off its
    place, with no search.  Its alpha has V = alpha . adjR mod D, a point
    of the transversal, the lattice of H4 in [0, D)^4, and the window
    holds the transversal moved into each cell in the same row order: so
    the canonical alpha is the middle-cell alpha in the same row.  Its a
    has cell3 numerators Wc = (W + shift . Pnum) mod Pden = (t + WR) mod
    Pden, t = (q w0vec + shift . Pnum) mod Pden per alpha, and trace
    pairing q g + shift . tau, which the trace relation, asserted per
    alpha, makes that of the middle-cell alpha; (a . tau, a . Pnum)
    determines a, as [tau | Pnum] is nonsingular (detM != 0).  The count
    reads only the in-domain triples, whose shift is 0, so it does not
    read t: the spot check does.  heisenberg.canonical_rows, which shares
    no residue table or shift with this map, canonicalises the spot
    triples by the two floors of canonicalize, and each must land on the
    alpha and the a that this map names.
    """
    return _oracle_coset(fd, np.array(c, np.int64).reshape(1, 4))[0]


def _brute_force_chunk(fd: FundamentalDomain, cosets) -> List[Tuple[int, List[int]]]:
    """(n(c), the oracle orbit counts of its members) for each right coset
    c O^x in cosets, one coset pass each (_oracle_coset)."""
    return [(int(fd.order.norm(coset[0])), _oracle_coset(fd, coset)) for coset in cosets]


# Predicted pool rows per oracle orbit: the pool's wall saving per orbit of
# the oracle in units of its saving per scan row, on which _POOL_MIN_ROWS
# was fit (see _pool_map).
_ORACLE_ROWS_PER_ORBIT = 10


def brute_force_counts(order: Order, s_grid: Sequence, progress=None) -> Dict[Fraction, int]:
    """Oracle orbit counts at each s in s_grid, from one pass over every c
    with 0 < n(c) <= max(s_grid); no unit-coset reduction of the counts.
    The values of c are grouped into right cosets c O^x, the scan's
    representatives (_right_coset_representatives) times the units, and
    the members, sorted, are asserted to equal the c list, sorted: every c
    is counted exactly once, whatever the representatives.  Each coset is
    one item of a process pool of one worker per usable CPU (_pool_map, as
    the scan's --threads), which starts when the orbit law predicts enough
    work (_POOL_MIN_ROWS, at _ORACLE_ROWS_PER_ORBIT rows per orbit: from
    s = 7 on Hurwitz and s = 8 on d3).  The per-c counts are added per level here,
    so the result does not depend on the partition or on that prediction.
    progress(done, total) is called after each batch, with the number of
    cosets checked so far and in all.  Beside the pool, its orbit-law
    schedule and its work list, which enter no count, the oracle shares
    with the scan _c_list, _CContext, _box_points, _exact_rows and
    _primitive_mask, but not the transversal, the a-boxes or the coset
    reduction of the counts.

    For each c the oracle enumerates the admissible triples whose alpha
    cell coordinates lie in the padded window [-1, 2)^4 (the canonical
    cell and one cell on every side) and whose vertical cell coordinates
    lie in [0, 1)^3; the alpha translates sweep the vertical floors through
    the whole lattice during canonicalisation.  Each orbit has exactly 81
    triples there, one per window cell, and one in the domain (see
    _brute_force_c); the primitive in-domain triples are counted.  About
    64 spot triples per c are re-verified against the trace relation in
    scalar Order arithmetic, through tr(conj(e_i) c), and, once per
    coset, those of its first member are canonicalised exactly by
    heisenberg.canonical_rows and compared with the representative that
    their place in the window and the residue shifts t name.

    The horizontal step of the canonicalisation depends on alpha alone, so
    it runs once per alpha.  The window is the transversal moved into each
    cell n by -D WT[n] (_cell_shifts), so an alpha's cell and index are its
    place in the window, and the window alphas are the D mapped alphas of
    the transversal moved by -WT[n] c.  Per alpha remain the shift
    conj(WT) alpha + n(WT) h c it adds to a, from the matrix of its cell
    paired with [tau | Pnum]; its trace relation; and t = (q w0vec + shift
    . Pnum) mod Pden.  Nothing is formed per window triple: W and a are
    formed only on the spot rows and the in-domain rows (_a_rows), from
    the residue table WR, and t is read only by the spot check.

    Why one pass per right coset.  Row i of n(c) R_conj(c) holds the
    coordinates of n(c) e_i conj(c), so H4 is the basis of the lattice
    n(c) O conj(c).  For a unit v, n(cv) O conj(v) conj(c) = n(c) O
    conj(c), as O conj(v) = O: H4 is constant on c O^x (the tests check
    that it separates the cosets).  On the coset R_cv = R_c R_v, so alpha =
    V . R_cv / D = (V . R_c / D) v: the window alphas of cv are those of c
    times v, of the same norms, so of the same q.  And M(cv) = R_v^-1 M(c):
    with n(v) = 1, tr(conj(av) cv) = tr(conj(a) c) and 2 Im(av (cv)^-1) =
    2 Im(a c^-1), so Pnum(cv) = R_v^-1 Pnum(c), of the same content and
    Pden.  M and R_v^-1 M span the same lattice, R_v being unimodular, so
    hnf(M), and with it g, w0vec, T3 and WR, is the same on the coset.
    The shift of alpha v in cell n is conj(WT) alpha v + n(WT) h c v, that
    of alpha times v, so shift(cv) = shift(c) . R_v, and paired with M(cv)
    it is shift(c) . R_v R_v^-1 M(c), the paired shift of c: its trace
    pairing and its cell3 numerators, and with q the residue shifts t, are
    the same for every member.  _coset_context asserts the shared lattice
    data, _oracle_coset the keep mask and t of every member.
    """
    grid = sorted(Fraction(x) for x in s_grid)
    counts = {g: 0 for g in grid}
    C = _c_list(order, max(grid, default=0))
    reps = _right_coset_representatives(order, C)
    cosets = (reps @ _unit_right_mul(order)).swapaxes(0, 1)
    if not np.array_equal(*(X[np.lexsort(X.T)] for X in (C, cosets.reshape(-1, 4)))):
        raise AssertionError("oracle cosets do not cover the c list exactly once")
    chunk = functools.partial(_brute_force_chunk, FundamentalDomain(order))
    workers = _usable_cpus()
    # the law is constant on c O^x
    rows = (_ORACLE_ROWS_PER_ORBIT * len(order.units) * sum(orbit_law(order, c) for c in reps)
            if workers > 1 else 0)
    done = 0
    for batch in _pool_map(chunk, list(cosets), workers, rows):
        for nc, found in batch:
            for g in grid:
                if nc <= g:
                    counts[g] += sum(found)
        done += len(batch)
        if progress:
            progress(done, len(cosets))
    return counts


def brute_force_psi(order: Order, s) -> int:
    """Oracle count of Psi(s); see brute_force_counts."""
    return brute_force_counts(order, [s])[Fraction(s)]


# ---------------------------------------------------------------------------
# tables, fits, equidistribution reports


@dataclass
class CountTable:
    order_name: str
    D_A: int
    rows: List[Tuple[Fraction, int]]
    reference_constant: float
    reference_symbolic: str = ""
    slope: Optional[float] = None
    intercept: Optional[float] = None
    ratios: List[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order_name,
            "D_A": self.D_A,
            "rows": [{"s": _frac_str(s), "count": int(cnt)} for s, cnt in self.rows],
            "slope": _float_str(self.slope),
            "intercept": _float_str(self.intercept),
            "reference_constant": _float_str(self.reference_constant),
            "reference_symbolic": self.reference_symbolic,
            "ratios": [_float_str(r) for r in self.ratios],
        }


def _frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _float_str(x) -> Optional[str]:
    return None if x is None else f"{float(x):.12g}"


def count_table(order: Order, counts: Dict[Fraction, int]) -> CountTable:
    """Counting table of counts, the counts of a scan_summary of order,
    one row per level in ascending order, with each count's ratio to the
    order's Mertens constant times s^5 and, from two nonzero counts on,
    the log-log fit."""
    grid = sorted(counts)
    if not grid:
        raise ValueError("empty s grid")
    ref = constants.mertens_constant(constants.ArithmeticData(order.D_A, len(order.units)))
    table = CountTable(order.name, order.D_A, [(g, counts[g]) for g in grid],
                       ref.value(), str(ref))
    table.ratios = [cnt / (table.reference_constant * float(g) ** 5) if cnt else 0.0
                    for g, cnt in table.rows]
    fit_rows = [(g, c) for g, c in table.rows if c > 0]
    if len(fit_rows) >= 2:
        table.slope, table.intercept = _loglog_fit(fit_rows)
    return table


def _loglog_fit(rows) -> Tuple[float, float]:
    """Least-squares (slope, intercept) of log count against log s."""
    slope, intercept = np.polyfit(np.log([float(s) for s, _ in rows]),
                                  np.log([float(c) for _, c in rows]), 1)
    return float(slope), float(intercept)


@dataclass
class EquidistReport:
    s: Fraction
    observed: List[int]
    expected: List[float]
    total: int
    discrepancy: float

    def to_json_dict(self) -> dict:
        return {
            "s": _frac_str(self.s),
            "total": self.total,
            "cells": 128,
            "observed": [int(x) for x in self.observed],
            "expected": [float(x) for x in self.expected],
            "discrepancy": float(self.discrepancy),
        }


def histogram_report(s, hist: np.ndarray) -> EquidistReport:
    """hist, the 128-cell histogram of a scan_summary at level s, against
    the uniform expectation total / 128 per cell: the cells halve each of
    the seven linear coordinates of the fundamental domain (cell4 of alpha
    c^-1, cell3 of 2 Im(a c^-1)), in which Haar measure on Heis_7 is
    Lebesgue measure, so each cell carries 1/128 of its mass.
    """
    total = int(hist.sum())
    if total == 0:
        raise ValueError("empty sample")
    expected = [total / 128.0] * 128
    disc = float(np.abs(hist / total - 1.0 / 128).max())
    return EquidistReport(Fraction(s), [int(x) for x in hist], expected, total, disc)

