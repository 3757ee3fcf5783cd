"""Counting N(O)-orbits of admissible primitive triples with n(c) <= s.

The counting function Psi(s) counts shear orbits of triples (a, alpha, c)
in O x m x m (m = scale * O) with tr(conj(a) c) = n(alpha), full left
ideal and 0 < n(c) <= s.  Orbits are enumerated through their unique
canonical representatives: for each c the alpha-part runs over the exact
residue transversal {alpha : alpha c^-1 in cell4} and the a-part over the
affine trace lattice cut to cell3.  Everything is integer arithmetic;
numpy int64 carries the bulk enumeration (desk-scale coordinates stay far
below overflow, guarded by _S_LIMIT).

Right multiplication by a unit v of O^x, (a, alpha, c) -> (av, alpha v,
cv), keeps tr(conj(a) c) = n(alpha), the left ideal Oa + O alpha + Oc and
n(c), commutes with the left shear action, and fixes the Heisenberg point
(alpha c^-1, a c^-1).  So it maps the canonical representatives with a
given c bijectively onto those with cv and keeps each one's dyadic cell:
the per-c count and 128-cell histogram depend only on the right coset
c O^x.  Units act freely on c != 0 and keep c in scale * O, so the c list
is a union of whole cosets of |O^x| members each.  scan_summary (and
through it psi_count without triples, count_table and equidist_histogram)
therefore scans the lexicographically least c of each coset and weights
it by |O^x|.  scan() and psi_count with triples stay full per-c
enumerations; the tests compare the reduction against them.

brute_force_counts (and brute_force_psi, its one-level form) is the
oracle: it enumerates *all* admissible triples in a padded window of
cells, buckets them by canonical orbit key and counts distinct keys,
asserting that each bucket holds exactly one in-domain triple.  It scans
every c, in one pass for a whole grid of s.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .heisenberg import FundamentalDomain, Triple
from .lattices import adjugate, det_int, hnf, kernel_basis, mat_mul, solve_integer
from .orders import Order, OrderElement, enumerate_by_norm, order_spec_dict

_S_LIMIT = 10 ** 4


# ---------------------------------------------------------------------------
# vectorised lattice-box enumeration


def _box_points(H: np.ndarray, B: int, offsets: np.ndarray, lo_bound: int = 0):
    """All w = offsets[r] + t . H inside [lo_bound, B)^k, H upper-triangular.

    Returns (source_row, t, w); deterministic order (levels ascending,
    t ascending within a level).
    """
    k = H.shape[0]
    n = offsets.shape[0]
    orig = np.arange(n, dtype=np.int64)
    W = offsets.astype(np.int64, copy=True)
    T = np.zeros((n, 0), np.int64)
    for lvl in range(k):
        p = int(H[lvl, lvl])
        w = W[:, lvl]
        lo = -((w - lo_bound) // p)
        hi = (B - 1 - w) // p
        cnt = np.maximum(hi - lo + 1, 0)
        total = int(cnt.sum())
        idx = np.repeat(np.arange(W.shape[0], dtype=np.int64), cnt)
        base = np.repeat(np.cumsum(cnt) - cnt, cnt)
        t = np.repeat(lo, cnt) + (np.arange(total, dtype=np.int64) - base)
        W = W[idx] + t[:, None] * H[lvl][None, :]
        T = np.concatenate([T[idx], t[:, None]], axis=1)
        orig = orig[idx]
    return orig, T, W


# ---------------------------------------------------------------------------
# per-c integer data


def _primitive_mask(order: Order, A: np.ndarray, AL: np.ndarray, c) -> np.ndarray:
    """Exact primitivity of the triples (A[r], AL[r], c), vectorised.

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

    The norm gcd certifies most rows; pair products are formed only for
    the rest.  Their coordinates and intermediates are at most
    sqrt(n(x) n(y)) <= max(n(x), n(y)) times a constant of the order: the
    int64 range that order.norms already uses.
    """
    c = np.array(c, np.int64)
    g = np.gcd(np.gcd(order.norms(A), order.norms(AL)), order.norms(c))
    rest = np.nonzero(g > 1)[0]
    if rest.size:
        X, Y = A[rest], AL[rest]
        Rcbar = order.right_mul(order.conjugates(c))
        for P in (order.mul_rows(X, order.conjugates(Y)), X @ Rcbar, Y @ Rcbar):
            g[rest] = np.gcd(g[rest], np.gcd.reduce(P, axis=1))
    return g == 1


class _CContext:
    """Integer data for one value of c."""

    def __init__(self, fd: FundamentalDomain, c: Tuple[int, ...]):
        order = fd.order
        self.c = tuple(int(x) for x in c)
        cnp = np.array(self.c, np.int64)
        self.nc = int(order.norms(cnp))
        self.R = order.right_mul(cnp)
        Rbar = order.right_mul(order.conjugates(cnp))
        # adj(R_c) = n(c) R_{conj(c)} since R_c R_{conj(c)} = n(c) I
        self.adjR = self.nc * Rbar
        self.D = self.nc ** 2
        self.H4 = np.array(hnf(self.adjR.tolist()), np.int64)

        # trace form tr(conj(a) c) = a . tau
        tau = order.trace_pairing(cnp).tolist()
        g = 0
        for t in tau:
            g = gcd(g, int(t))
        self.g = g
        xg = solve_integer([[int(t)] for t in tau], [g])
        self.xg = np.array(xg, np.int64)
        self.K3 = np.array(kernel_basis([[int(t)] for t in tau]), np.int64)

        # cell3 coordinates of 2 Im(a c^-1) = 2 Im(a conj(c)) / n(c):
        # y = (a . Pnum) / Pden
        Q = Rbar @ fd.cell3_num
        den = fd.cell3_den * self.nc
        cont = int(np.gcd.reduce(np.concatenate([Q.reshape(-1), [den]])))
        if cont > 1:
            Q = Q // cont
            den //= cont
        self.Pnum = Q
        self.Pden = int(den)

        MP = (self.K3 @ self.Pnum).tolist()
        detMP = det_int(MP)
        if detMP == 0:
            raise AssertionError("vertical map singular on the trace kernel")
        T3 = hnf(MP)
        adjMP = adjugate(MP)
        V = mat_mul(T3, adjMP)
        for r in range(3):
            for cc in range(3):
                if V[r][cc] % detMP:
                    raise AssertionError("HNF transition is not integral")
                V[r][cc] //= detMP
        self.T3 = np.array(T3, np.int64)
        self.VK = np.array(V, np.int64) @ self.K3
        self.w0vec = self.xg @ self.Pnum


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


def _scan_c(fd: FundamentalDomain, c, scale: int = 1) -> CRecord:
    order = fd.order
    ctx = _CContext(fd, c)
    zero = np.zeros((1, 4), np.int64)
    _, _, V4 = _box_points(ctx.H4, ctx.D, zero)
    if V4.shape[0] != ctx.D:
        raise AssertionError("alpha transversal has wrong size")
    prod = V4 @ ctx.R
    X = prod // ctx.D
    if (X * ctx.D != prod).any():
        raise AssertionError("alpha residue is not integral")
    if scale != 1:
        keep = ~(X % scale).any(axis=1)
        X, V4 = X[keep], V4[keep]
    NAL = order.norms(X)

    ok_idx = np.nonzero(NAL % ctx.g == 0)[0]
    if ok_idx.size == 0:
        empty = np.zeros((0, 4), np.int64)
        return CRecord(ctx.c, ctx.nc, empty, empty, np.zeros(0, np.uint8))
    q = NAL[ok_idx] // ctx.g
    offsets = q[:, None] * ctx.w0vec[None, :]
    local, T, W3 = _box_points(ctx.T3, ctx.Pden, offsets)
    rows = ok_idx[local]
    A = q[local, None] * ctx.xg[None, :] + T @ ctx.VK
    AL = X[rows]
    V4r = V4[rows]

    mask = _primitive_mask(order, A, AL, ctx.c)
    A, AL, V4r, W3 = A[mask], AL[mask], V4r[mask], W3[mask]

    bucket = np.zeros(A.shape[0], np.uint8)
    for b in range(4):
        bucket |= ((2 * V4r[:, b] >= ctx.D).astype(np.uint8) << b)
    for b in range(3):
        bucket |= ((2 * W3[:, b] >= ctx.Pden).astype(np.uint8) << (4 + b))
    return CRecord(ctx.c, ctx.nc, A, AL, bucket)


def _c_list(order: Order, s, scale: int = 1) -> List[Tuple[int, ...]]:
    s = Fraction(s)
    if s > _S_LIMIT:
        raise ValueError(f"s > {_S_LIMIT} is beyond the supported desk scale")
    if scale == 1:
        cs = enumerate_by_norm(order, s)
    else:
        inner = enumerate_by_norm(order, s / (scale * scale))
        cs = [tuple(scale * v for v in c) for c in inner]
    # cs is lexicographic, so a stable sort by norm orders by (n(c), c)
    by_norm = np.argsort(order.norms(np.array(cs, np.int64).reshape(-1, 4)),
                         kind="stable")
    return [cs[i] for i in by_norm]


def _right_coset_representatives(order: Order, cs) -> List[Tuple[int, ...]]:
    """The lexicographically least member of each right coset c O^x in cs.

    cs must be a union of whole cosets, as every c list is: right
    multiplication by a unit keeps n(c) and keeps c in scale * O.  Units
    act freely on c != 0, so each coset has exactly |O^x| members.
    """
    if not cs:
        return []
    C = np.array(cs, np.int64)
    rows = np.arange(C.shape[0])
    least = np.ones(C.shape[0], bool)
    for u in order.units:
        image = C @ order.right_mul(np.array(u.coords, np.int64))
        differ = image != C
        first = differ.argmax(axis=1)
        least &= ~(differ.any(axis=1) & (image[rows, first] < C[rows, first]))
    reps = [c for c, keep in zip(cs, least) if keep]
    if len(reps) * len(order.units) != len(cs):
        raise AssertionError("c list is not a union of whole right unit cosets")
    return reps


def scan(order: Order, s, scale: int = 1) -> Iterable[CRecord]:
    """Stream of per-c canonical-triple records, deterministic order."""
    fd = FundamentalDomain(order)
    for c in _c_list(order, s, scale):
        yield _scan_c(fd, c, scale)


def psi_count(order: Order, s, scale: int = 1,
              with_triples: bool = True) -> Tuple[int, List[Triple]]:
    """Orbit count for 0 < n(c) <= s, plus the canonical triples.

    With with_triples=False the second component is an empty list and the
    count comes from scan_summary, which scans one c per right unit coset;
    with triples every c is scanned.
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


# Version of the checkpoint record; part of every key.  Version 2 records
# hold the count and histogram of a whole right coset c O^x.
_CKPT_VERSION = 2


def checkpoint_key(order: Order, scale: int = 1) -> str:
    """Hash of what determines a checkpoint record: the order's algebra and
    basis (not its name), the scale and the record version."""
    import hashlib
    spec = order_spec_dict(order)
    del spec["name"]
    blob = json.dumps({"order": spec, "scale": scale, "version": _CKPT_VERSION},
                      sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _scan_chunk(fd: FundamentalDomain, key: str, scale: int, chunk) -> List[dict]:
    """Checkpoint records of the cosets c O^x, c in chunk: the scan of c
    with its count and histogram weighted by |O^x|."""
    weight = len(fd.order.units)
    out = []
    for c in chunk:
        rec = _scan_c(fd, c, scale)
        hist = np.bincount(rec.bucket, minlength=128).astype(np.int64) * weight
        out.append({"key": key, "c": list(rec.c), "nc": rec.nc,
                    "count": rec.count * weight, "hist": hist.tolist()})
    return out


def _record_batches(fd: FundamentalDomain, cs, scale: int, key: str, threads: int):
    """Checkpoint records of cs, a list per batch: one c per batch in
    process, or a process pool of at most one worker per CPU over
    threads * 8 interleaved chunks.  Workers receive fd pickled, with its
    order's validated tables and units."""
    scan_chunk = functools.partial(_scan_chunk, fd, key, scale)
    if threads > 1 and len(cs) > 8:
        from concurrent.futures import ProcessPoolExecutor
        nch = min(threads * 8, len(cs))
        with ProcessPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            yield from pool.map(scan_chunk, [cs[i::nch] for i in range(nch)])
    else:
        yield from map(scan_chunk, ([c] for c in cs))


def _load_checkpoint(fh, key: str, cs) -> Dict[Tuple[int, ...], dict]:
    """The records that carry key and whose c is in cs, from a JSONL
    checkpoint open in "a+b" mode.

    A torn last line, left by a killed run, is cut off the file so that
    new records start on a line of their own.  The file is read under the
    lock that every append takes, so a record another run is still
    writing is never taken for a torn one.
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
    wanted = set(cs)
    done = {}
    for line in data[:end].splitlines():
        try:
            rec = json.loads(line)
            c = tuple(rec["c"])
            if rec["key"] == key and c in wanted:
                done[c] = rec
        except (ValueError, KeyError, TypeError):
            continue
    return done


def _append_checkpoint(fh, records: List[dict]) -> None:
    """Append records to a checkpoint open in "a+b" mode, one line each,
    under an exclusive lock, so that runs sharing the file do not
    interleave or cut each other's lines."""
    import fcntl
    data = "".join(json.dumps(rec) + "\n" for rec in records).encode("utf-8")
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

    One c per right unit coset is scanned and weighted by |O^x| (see the
    module docstring).  Results are per-coset additive, so the output does
    not depend on the thread partition.  An optional JSONL checkpoint
    stores one record per coset, keyed by checkpoint_key(order, scale);
    on resume, records with another key or a c outside the current list
    are ignored.  Runs that share a checkpoint take turns reading and
    appending it, so neither loses the other's records; a coset both runs
    scan is stored twice and counted once.  progress(done, total) is
    called after each batch.
    """
    grid = sorted(Fraction(x) for x in s_grid)
    hlev = sorted(Fraction(x) for x in hist_levels)
    smax = max(grid + hlev) if (grid or hlev) else Fraction(0)
    reps = _right_coset_representatives(order, _c_list(order, smax, scale))
    key = checkpoint_key(order, scale)
    ckpt = open(checkpoint_path, "a+b") if checkpoint_path else None
    try:
        done = _load_checkpoint(ckpt, key, reps) if ckpt else {}
        records = list(done.values())
        todo = [c for c in reps if c not in done]
        for batch in _record_batches(FundamentalDomain(order), todo, scale, key, threads):
            records.extend(batch)
            if ckpt:
                _append_checkpoint(ckpt, batch)
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
                counts[g] += rec["count"]
        for g in hlev:
            if rec["nc"] <= g:
                hists[g] += np.array(rec["hist"], np.int64)
    return ScanSummary(counts, hists)


# ---------------------------------------------------------------------------
# independent oracle


def _pack_keys(AL: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Pack an (alpha, a) coordinate pair into two int64 key columns."""
    vals = np.concatenate([AL, A], axis=1).astype(np.int64)
    if vals.size and np.abs(vals).max() >= (1 << 14):
        raise AssertionError("key coordinates exceed packing range")
    shift = np.int64(1 << 14)
    k1 = ((vals[:, 0] + shift) << 45) | ((vals[:, 1] + shift) << 30) \
        | ((vals[:, 2] + shift) << 15) | (vals[:, 3] + shift)
    k2 = ((vals[:, 4] + shift) << 45) | ((vals[:, 5] + shift) << 30) \
        | ((vals[:, 6] + shift) << 15) | (vals[:, 7] + shift)
    return np.stack([k1, k2], axis=1)


def _group_keys(keys: np.ndarray, indom: np.ndarray):
    """Bucket the rows of an (N, 2) int64 key array by equal key.

    Returns (first, hits): for each distinct key (in ascending order) the
    index of its first row, and how many of its rows have indom set.
    """
    if keys.shape[0] == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    perm = np.lexsort((keys[:, 1], keys[:, 0]))
    sk = keys[perm]
    new = np.ones(sk.shape[0], bool)
    new[1:] = (sk[1:] != sk[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return perm[starts], np.add.reduceat(indom[perm].astype(np.int64), starts)


def _brute_force_c(fd: FundamentalDomain, c) -> int:
    """Oracle orbit count of one c; see brute_force_counts."""
    order = fd.order
    ctx = _CContext(fd, c)
    hR = np.array(order.mul(order.trace_one.coords, ctx.c), np.int64)
    B3R = np.array([order.mul(r, ctx.c) for r in order.im_basis], np.int64)
    # alpha window: cell coordinates in [-1, 2)
    zero = np.zeros((1, 4), np.int64)
    _, _, V4 = _box_points(ctx.H4, 2 * ctx.D, zero, lo_bound=-ctx.D)
    prod = V4 @ ctx.R
    ALPH = prod // ctx.D
    if (ALPH * ctx.D != prod).any():
        raise AssertionError("oracle alpha window not integral")
    NAL = order.norms(ALPH)
    ok = np.nonzero(NAL % ctx.g == 0)[0]
    if ok.size == 0:
        return 0
    ALPH, NAL = ALPH[ok], NAL[ok]
    q = NAL // ctx.g
    offs = q[:, None] * ctx.w0vec[None, :]
    # vertical window: cell coordinates in [0, 1)
    local, T, _ = _box_points(ctx.T3, ctx.Pden, offs)
    A = q[local, None] * ctx.xg[None, :] + T @ ctx.VK
    AL = ALPH[local]
    if A.shape[0] == 0:
        return 0

    # spot re-verification of the defining predicates on about 64 rows
    step = max(1, A.shape[0] // 64)
    for r in range((12345 + ctx.nc) % step, A.shape[0], step):
        ac = tuple(int(v) for v in A[r])
        alc = tuple(int(v) for v in AL[r])
        if order.trace(order.mul(order.conj(ac), ctx.c)) != order.norm(alc):
            raise AssertionError("oracle emitted an inadmissible triple")

    # canonicalise: horizontal translation first, then vertical
    V4a = AL @ ctx.adjR
    FL4 = V4a // ctx.D
    WT = -FL4
    AL_can = AL + WT @ ctx.R
    CW = order.conjugates(WT)
    NW = order.norms(WT)
    A1 = A + order.mul_rows(CW, AL) + NW[:, None] * hR[None, :]
    V3 = A1 @ ctx.Pnum
    FL3 = V3 // ctx.Pden
    A_can = A1 - FL3 @ B3R
    indom = (FL4 == 0).all(axis=1) & (FL3 == 0).all(axis=1)

    first, hits = _group_keys(_pack_keys(AL_can, A_can), indom)
    if not (hits == 1).all():
        raise AssertionError("oracle bucket without a unique in-domain triple")
    # primitivity is orbit-invariant: test only the canonical reps
    return int(_primitive_mask(order, A_can[first], AL_can[first], ctx.c).sum())


def brute_force_counts(order: Order, s_grid: Sequence) -> Dict[Fraction, int]:
    """Oracle orbit counts at each s in s_grid, from one pass over every c
    with 0 < n(c) <= max(s_grid); no unit-coset reduction.

    For each c the oracle enumerates the admissible triples whose alpha
    cell coordinates lie in the padded window [-1, 2)^4 (the canonical
    cell and one cell on every side) and whose vertical cell coordinates
    lie in [0, 1)^3; the alpha translates sweep the vertical floors through
    the whole lattice during canonicalisation.  Each triple is moved to
    its canonical orbit representative, the triples are bucketed by that
    representative, every bucket is asserted to hold exactly one in-domain
    triple, and the buckets with a primitive representative are counted.
    About 64 enumerated triples per c are re-verified against the exact
    trace predicate.  The window and canonicalisation are independent of
    the transversal scan, but the per-c lattice data (_CContext) and the
    box enumeration (_box_points) are shared with it.
    """
    grid = sorted(Fraction(x) for x in s_grid)
    counts = {g: 0 for g in grid}
    fd = FundamentalDomain(order)
    for c in _c_list(order, max(grid, default=0)):
        found = _brute_force_c(fd, c)
        nc = order.norm(c)
        for g in grid:
            if nc <= g:
                counts[g] += found
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


def count_table(order: Order, s_grid: Sequence, scale: int = 1,
                reference_constant: float = 0.0, reference_symbolic: str = "",
                checkpoint_path: Optional[str] = None, threads: int = 1) -> CountTable:
    """Counting table over s_grid from a single scan at max(s_grid)."""
    grid = sorted(Fraction(x) for x in s_grid)
    if not grid:
        raise ValueError("empty s grid")
    summ = scan_summary(order, grid, (), scale, checkpoint_path, threads)
    table = CountTable(order.name, order.D_A,
                       [(g, summ.counts[g]) for g in grid],
                       reference_constant, reference_symbolic)
    if reference_constant:
        table.ratios = [cnt / (reference_constant * float(g) ** 5) if cnt else 0.0
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


def fit_and_compare(table: CountTable, reference_constant: float) -> dict:
    """Least-squares slope of log count vs log s plus the ratio sequence."""
    rows = [(float(s), c) for s, c in table.rows if c > 0]
    if len(rows) < 4 or rows[-1][0] < 4 * rows[0][0]:
        raise ValueError("need >= 4 rows spanning at least a factor 4 in s")
    slope, intercept = _loglog_fit(rows)
    ratios = [c / (reference_constant * s ** 5) for s, c in rows]
    return {"slope": slope, "intercept": intercept, "ratios": ratios}


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
    total = int(hist.sum())
    if total == 0:
        raise ValueError("empty sample")
    expected = [total / 128.0] * 128
    disc = float(np.abs(hist / total - 1.0 / 128).max())
    return EquidistReport(Fraction(s), [int(x) for x in hist], expected, total, disc)


def equidist_histogram(order: Order, s, threads: int = 1) -> EquidistReport:
    """128-cell dyadic histogram of the canonical representatives at level s."""
    summ = scan_summary(order, [], [Fraction(s)], threads=threads)
    return histogram_report(s, summ.hists[Fraction(s)])
