import concurrent.futures
import json
import math
import os
import pickle
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heisquat import counting
from heisquat.counting import (_box_points, _brute_force_c,
                               _brute_force_chunk, _c_list,
                               _CContext, _cell_shifts, _dets4,
                               _exact_rows, _loglog_fit, _oracle_coset, _primitive_mask,
                               _right_coset_representatives, _scan_c, _scan_chunk,
                               _scan_classes, checkpoint_key,
                               ScanSummary, brute_force_counts,
                               brute_force_psi, count_table,
                               histogram_report, psi_count, scan,
                               scan_summary)
from heisquat.heisenberg import (FundamentalDomain, Triple, canonicalize,
                                 in_fundamental_domain, is_admissible,
                                 is_primitive)
from heisquat.lattices import adjugate, det_int, hnf
from heisquat.orders import builtin_order, enumerate_by_norm, left_ideal_is_full

from conftest import assert_buckets_name_their_cells


def _tuples(C):
    """The rows of an (N, 4) c array as tuples of ints."""
    return [tuple(c) for c in C.tolist()]


def _oracle_cosets(order, s):
    """The pool items of brute_force_counts(order, [s]), its right cosets,
    taken from its call of _pool_map without running them."""
    items = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_pool_map", lambda fn, its, workers, rows: items.extend(its) or [])
        brute_force_counts(order, [s])
    return items


@pytest.fixture(scope="module")
def hur():
    return builtin_order("hurwitz")


@pytest.fixture(scope="module")
def fd(hur):
    return FundamentalDomain(hur)


def test_psi_below_one_is_zero(hur):
    assert psi_count(hur, Fraction(1, 2))[0] == 0
    assert psi_count(hur, 0)[0] == 0


def test_psi_one_is_24(hur):
    count, triples = psi_count(hur, 1)
    assert count == 24
    # one orbit per unit c, with a = alpha = 0 forced
    assert all(not any(t.a.coords) and not any(t.alpha.coords) for t in triples)
    assert len({t.c.coords for t in triples}) == 24


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_oracle_equality_small(hur, s):
    assert psi_count(hur, s, with_triples=False)[0] == brute_force_psi(hur, s)


def test_oracle_equality_d3():
    d3 = builtin_order("d3")
    for s in (1, 2, 3):
        assert psi_count(d3, s, with_triples=False)[0] == brute_force_psi(d3, s)


# a pool item is one right coset (13 on Hurwitz s <= 5, 12 on d3, 15 on d5,
# d7 and d13, 9 on d11 s <= 4); the pool starts at any predicted work here
@pytest.mark.parametrize("name,grid", [("hurwitz", [1, 2, 3, 4, 5]), ("d3", [1, 2, 3, 4]),
                                       ("d5", [1, 2, 3, 4]), ("d7", [1, 2, 3, 4]),
                                       ("d11", [1, 2, 3, 4]), ("d13", [1, 2, 3, 4])])
def test_brute_force_counts_equal_scan_summary(name, grid, monkeypatch, pool_runs):
    monkeypatch.setattr(counting, "_POOL_MIN_ROWS", 0)
    order = builtin_order(name)
    want = scan_summary(order, grid).counts
    # the oracle runs one worker per usable CPU, and no pool on one CPU
    for cpus, pools in ((2, [2]), (1, [])):
        monkeypatch.setattr(counting, "_usable_cpus", lambda: cpus)
        assert brute_force_counts(order, grid) == want
        assert pool_runs == pools
        pool_runs.clear()
    assert brute_force_counts(order, [Fraction(1, 2), 0]) == {0: 0, Fraction(1, 2): 0}


@pytest.mark.parametrize("name,s", [("hurwitz", 4), ("d3", 3)])
def test_oracle_agrees_with_the_scan_for_each_c(name, s):
    fd = FundamentalDomain(builtin_order(name))
    for c in _c_list(fd.order, s):
        assert _brute_force_c(fd, c) == _scan_c(fd, c).count, c


def test_oracle_pool_follows_the_affinity_mask(hur, monkeypatch, pool_runs):
    # two CPUs in the machine, one of them usable: no pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert brute_force_counts(hur, [1, 2, 3]) == scan_summary(hur, [1, 2, 3]).counts
    assert pool_runs == []


def test_scan_pool_follows_the_affinity_mask(hur, monkeypatch, pool_runs):
    # two threads asked for, one CPU usable: no pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = scan_summary(hur, [4, 8], hist_levels=[8])
    got = scan_summary(hur, [4, 8], hist_levels=[8], threads=2)
    assert pool_runs == []
    assert got.counts == serial.counts
    assert (got.hists[Fraction(8)] == serial.hists[Fraction(8)]).all()


def test_usable_cpus_reads_the_affinity_mask_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
    assert counting._usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert counting._usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert counting._usable_cpus() == 1


def test_oracle_rejects_a_shift_that_breaks_the_trace_relation(hur, fd, monkeypatch):
    # a shift without its conj(w) alpha term: the shifted a of a
    # translated alpha breaks the relation, checked per alpha before any
    # spot triple is canonicalised
    cell_shifts = counting._cell_shifts

    def no_conj_w_alpha(order, c):
        WT, L, off = cell_shifts(order, c)
        return WT, 0 * L, off

    monkeypatch.setattr(counting, "_cell_shifts", no_conj_w_alpha)
    with pytest.raises(AssertionError, match="trace relation"):
        _brute_force_c(fd, _c_list(hur, 2)[-1])


@pytest.mark.parametrize("half", [0, 1], ids=["a", "alpha"])
def test_oracle_spot_check_compares_a_and_alpha(hur, fd, monkeypatch, half):
    # the exact canonicaliser sends the spot triples to -a or to -alpha,
    # the second of the same norm, so of the same claimed a: each alone
    # is off the claimed representative
    canonical_rows = counting.canonical_rows

    def negated(fd, c, A, X):
        out = list(canonical_rows(fd, c, A, X))
        out[half] = -out[half]
        return tuple(out)

    monkeypatch.setattr(counting, "canonical_rows", negated)
    with pytest.raises(AssertionError, match="canonicalises off its representative"):
        _brute_force_c(fd, _c_list(hur, 5)[-1])


class _Stop(Exception):
    pass


def _formed_qs(fd, runs, monkeypatch):
    """{c: (its _CContext, the distinct q of its a-boxes)} over the calls
    f(fd, *args) in runs, each stopped at its a-box."""
    by_c = {}

    def recorded(ctx, q):
        by_c.setdefault(ctx.c, (ctx, []))[1].append(q)
        raise _Stop

    with monkeypatch.context() as patch:
        patch.setattr(counting, "_a_box", recorded)
        for f, *args in runs:
            with pytest.raises(_Stop):
                f(fd, *args)
    assert sum(len(qs) for _, qs in by_c.values()) == len(runs)
    out = {}
    for c, (ctx, qs) in by_c.items():
        q = np.sort(np.concatenate(qs))
        out[c] = ctx, q[np.diff(q, prepend=-1) != 0]
    return out


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_a_box_is_the_box_of_each_q(name, monkeypatch):
    # every q that the scan (scale 1 and 2) forms for n(c) <= 8.  The box
    # of q is {a in O : tr(conj(a) c) = q g, a . Pnum in [0, Pden)^3}, of
    # m = Pden^3 / det T3 points, so m distinct rows per q that satisfy the
    # predicates are it
    fd = FundamentalDomain(builtin_order(name))
    runs = [(_scan_c, c, scale) for scale in (1, 2) for c in _c_list(fd.order, 8, scale)]
    keys = []
    for n, (ctx, q) in enumerate(_formed_qs(fd, runs, monkeypatch).values()):
        row, W = counting._a_box(ctx, q)
        A = _exact_rows(np.column_stack([q[row] * ctx.g, W]), ctx.adjM, ctx.detM)
        m = ctx.Pden ** 3 // int(np.prod(np.diag(ctx.T3)))
        assert (np.bincount(row, minlength=q.size) == m).all() and row.size == m * q.size
        assert (A @ fd.order.trace_pairing(np.array(ctx.c, np.int64)) == q[row] * ctx.g).all()
        assert (A @ ctx.Pnum == W).all()
        assert ((0 <= W) & (W < ctx.Pden)).all()
        keys.append(np.column_stack([np.full(row.size, n), row, A]))
    # no (c, row, A) twice: the rows packed into int64 keys, sorted once
    # (np.sort, as np.unique hashes int64 many times slower)
    keys = np.concatenate(keys)
    keys -= keys.min(axis=0)
    spans = [int(x) + 1 for x in keys.max(axis=0)]
    assert math.prod(spans) < 2 ** 63
    packed = np.zeros(keys.shape[0], np.int64)
    for col, span in zip(keys.T, spans):
        packed = packed * span + col
    assert np.diff(np.sort(packed)).all()


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_oracle_a_rows_are_rows_of_the_a_box_of_their_q(name, monkeypatch):
    # the oracle forms W, and a, only on its spot and in-domain rows: for
    # n(c) <= 8 each of them is the row of its residue in the a-box of its q
    fd = FundamentalDomain(builtin_order(name))
    formed = []
    a_rows = counting._a_rows

    def recorded(ctx, q, res):
        W = a_rows(ctx, q, res)
        formed.append((ctx, q, res, W))
        return W

    monkeypatch.setattr(counting, "_a_rows", recorded)
    cs = _c_list(fd.order, 8)
    for c in cs:
        _brute_force_c(fd, c)
    assert [ctx.c for ctx, *_ in formed] == _tuples(cs)
    for ctx, q, res, W in formed:
        _, box = counting._a_box(ctx, q)
        assert (W == box.reshape(-1, ctx.m, 3)[np.arange(res.size), res]).all()


@pytest.mark.parametrize("name, s", [("hurwitz", 8), ("d3", 8), ("d5", 4), ("d7", 4),
                                     ("d11", 4), ("d13", 4)])
def test_oracle_window_is_the_transversal_moved_into_its_cells(name, s):
    # for every right coset representative with n(c) <= s: D Z^4 lies in
    # the lattice of H4, so the 81 translates V0 - D WT[n] of the
    # transversal V0 are the lattice points of the window [-D, 2D)^4, each
    # in the cell n with -(V // D) = WT[n], and their alphas V . R / D are
    # those of V0 moved by -WT[n] c
    order = builtin_order(name)
    fd = FundamentalDomain(order)
    for c in _right_coset_representatives(order, _c_list(order, s)):
        ctx = _CContext(fd, c)
        D = ctx.D
        WT = _cell_shifts(order, c)[0]
        V0 = _box_points(ctx.H4, D)
        V = V0 - D * WT[:, None]
        assert (-(V // D) == WT[:, None]).all()
        V = V.reshape(-1, 4)
        assert np.array_equal(np.unique(V, axis=0), _box_points(ctx.H4, 3 * D) - D)
        assert len(V) == 81 * D
        X = _exact_rows(V0, ctx.R, D) - (WT @ ctx.R)[:, None]
        assert np.array_equal(X.reshape(-1, 4), _exact_rows(V, ctx.R, D))


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_oracle_maps_only_the_transversal_of_each_member(name, monkeypatch):
    # for every coset with n(c) <= 5: the one exact map of member c's
    # window alphas, the one whose matrix is R_c, runs on the D rows of
    # the transversal; its 81 translates are integral by construction
    order = builtin_order(name)
    fd = FundamentalDomain(order)
    maps = []
    exact_rows = counting._exact_rows

    def spy(Y, M, d):
        maps.append((Y.shape[0], M.copy(), d))
        return exact_rows(Y, M, d)

    monkeypatch.setattr(counting, "_exact_rows", spy)
    for coset in _oracle_cosets(order, 5):
        maps.clear()
        _oracle_coset(fd, coset)
        D = order.norm(coset[0]) ** 2
        for Rc in order.right_mul(coset):
            assert [(rows, d) for rows, M, d in maps if np.array_equal(M, Rc)] == [(D, D)]


@pytest.mark.parametrize("name", ["hurwitz", "d3", "d5", "d7", "d11", "d13"])
def test_stacked_oracle_counts_equal_the_stack_of_one(name, monkeypatch):
    # every c with n(c) <= 8 in the oracle's right cosets, run as one coset
    # pass each, against each c alone.  The cosets are exactly the classes
    # of H4 = hnf(n(c) R_conj(c)), the basis of n(c) O conj(c), which the
    # members share: equal lattices have equal index, so n(c') = n(c), and
    # O conj(c') = O conj(c) puts c' in c O^x
    order = builtin_order(name)
    fd = FundamentalDomain(order)
    cosets = _oracle_cosets(order, 8)
    classes = {}
    for c in _tuples(_c_list(order, 8)):
        H4 = hnf((order.norm(c) * order.right_mul(order.conjugates(np.array(c)))).tolist())
        classes.setdefault(tuple(map(tuple, H4)), set()).add(c)
    assert len(cosets) == len(classes)
    assert {frozenset(_tuples(coset)) for coset in cosets} == set(map(frozenset, classes.values()))
    # the members of a coset run one at a time: _primitive_mask gets one c,
    # of shape (4,), once per member, in coset order
    passed = []
    primitive_mask = counting._primitive_mask

    def spy(order, A, X, row, c):
        passed.append(c)
        return primitive_mask(order, A, X, row, c)

    monkeypatch.setattr(counting, "_primitive_mask", spy)
    chunk = _brute_force_chunk(fd, cosets)
    assert [c.shape for c in passed] == [(4,)] * len(_c_list(order, 8))
    assert np.array_equal(np.stack(passed), np.concatenate(cosets))
    monkeypatch.setattr(counting, "_primitive_mask", primitive_mask)
    assert chunk == [(order.norm(coset[0]), [_brute_force_c(fd, c) for c in coset])
                     for coset in cosets]


@given(st.sampled_from(["hurwitz", "d3", "d13"]), st.tuples(*[st.integers(-60, 60)] * 4),
       st.tuples(*[st.integers(-9, 9)] * 4).filter(any))
def test_cell_shift_is_conj_w_alpha_plus_n_w_h_c(name, alpha, c):
    # row n: the shift of alpha in cell n, against the batched product and
    # the scalar one
    order = builtin_order(name)
    WT, L, off = _cell_shifts(order, c)
    assert ((1 - WT) @ 3 ** np.arange(3, -1, -1)).tolist() == list(range(81))
    hc = np.array(order.mul(order.trace_one.coords, c), np.int64)
    want = (order.mul_rows(order.conjugates(WT), np.tile(np.array(alpha, np.int64), (81, 1)))
            + order.norms(WT)[:, None] * hc)
    assert (np.array(alpha) @ L + off == want).all()
    assert want.tolist() == [[x + order.norm(w) * h for x, h in
                              zip(order.mul(order.conj(w), alpha), hc.tolist())]
                             for w in WT.tolist()]


def test_a_stack_of_disagreeing_members_raises(hur, fd, monkeypatch):
    # members of two right cosets do not share their lattice data; on
    # c = (-2, 0, 1, 1), of g = 2, a member whose alphas are doubled keeps
    # every alpha, as 2 | n(2 alpha), where c keeps only those of even norm
    reps = _right_coset_representatives(hur, _c_list(hur, 8))
    with pytest.raises(AssertionError, match="disagree on lattice data"):
        _oracle_coset(fd, reps[[-1, -2]])
    # a chunk takes each coset as given, so two cosets passed as one reach
    # the assertion
    with pytest.raises(AssertionError, match="disagree on lattice data"):
        _brute_force_chunk(fd, [reps[[-2, -1]]])
    c = np.array([-2, 0, 1, 1], np.int64)
    assert _CContext(fd, c).g == 2
    member_rows = counting._member_rows

    def doubled(fd, C):
        nc, R, *rest = member_rows(fd, C)
        R = R.copy()
        R[1:] *= 2
        return (nc, R, *rest)

    monkeypatch.setattr(counting, "_member_rows", doubled)
    with pytest.raises(AssertionError, match="keep different alphas"):
        _oracle_coset(fd, np.stack([c, c]))


def test_a_coset_member_off_the_first_lattices_raises(hur, fd, monkeypatch):
    # the batched check tests each member against the first: R_conj(c)
    # (field 2 of _member_rows) or M (field 5) doubled spans a sublattice
    # of index 16, that of a member of another coset of n(c) = 3 a lattice
    # of the same determinant that the first lattice does not contain, and
    # a doubled Pden (field 4) is another cell3 denominator; the fault
    # moves every member but the first
    coset, other = [co for co in _oracle_cosets(hur, 3) if hur.norm(co[0]) == 3][:2]
    member_rows = counting._member_rows
    theirs = member_rows(fd, other[:1])
    ours = member_rows(fd, coset[:1])
    for field in (2, 5):
        assert _dets4(theirs[field]).tolist() == [det_int(X) for X in theirs[field].tolist()]
        assert abs(_dets4(theirs[field])[0]) == abs(_dets4(ours[field])[0])
        assert not (theirs[field] @ np.array(adjugate(hnf(ours[field][0].tolist())))
                    % abs(int(_dets4(ours[field])[0])) == 0).all()
    for field, moved in ((2, lambda X: 2 * X), (5, lambda X: 2 * X), (4, lambda X: 2 * X),
                         (2, lambda X: theirs[2][0]), (5, lambda X: theirs[5][0])):
        def faulty(fd, C, field=field, moved=moved):
            rows = list(member_rows(fd, C))
            rows[field] = rows[field].copy()
            rows[field][1:] = moved(rows[field][1:])
            return tuple(rows)

        with monkeypatch.context() as patch:
            patch.setattr(counting, "_member_rows", faulty)
            with pytest.raises(AssertionError, match="disagree on lattice data"):
                _oracle_coset(fd, coset)


def test_stacked_coset_peak_memory_is_a_few_times_one_members_window(hur, fd):
    # a Hurwitz coset with n(c) = 5 (24 members of 81 D = 2,025 window
    # alphas each) runs one member at a time; its traced peak (0.69 MB)
    # stays within a dozen arrays of one member's window rows, 4 int64
    # each, where the whole coset's alphas would be 1.6 MB
    coset = _oracle_cosets(hur, 5)[-1]
    assert len(coset) == len(hur.units) and set(hur.norms(coset).tolist()) == {5}
    _brute_force_chunk(fd, [coset])
    tracemalloc.start()
    try:
        _brute_force_chunk(fd, [coset])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 4 * 8 * 81 * 5 ** 2


def test_box_points_needs_pivots_that_divide_the_side():
    W = _box_points(np.array([[2, 1], [0, 3]]), 12)
    want = sorted((w1, w2) for w1 in range(12) for w2 in range(12)
                  if w1 % 2 == 0 and (w2 - w1 // 2) % 3 == 0)
    # t ascending within each level, with positive pivots, is W ascending
    assert W.tolist() == [list(w) for w in want]
    with pytest.raises(AssertionError, match="pivot"):
        _box_points(np.array([[3]]), 4)


def test_emitted_triples_satisfy_predicates(hur, fd):
    _, triples = psi_count(hur, 4)
    assert len(triples) == 3264
    rng = random.Random(1)
    sample = rng.sample(triples, 150)
    for t in sample:
        assert is_admissible(hur, t)
        assert is_primitive(hur, t)
        assert in_fundamental_domain(hur, t, fd)
    # distinct canonical triples = distinct orbits
    assert len({t.coords() for t in triples}) == len(triples)


@pytest.mark.parametrize("name, triples", [("hurwitz", 1548), ("d3", 1692)])
def test_each_representative_lies_in_the_cell_its_bucket_names(name, triples):
    # every kept triple's 7 bits, recomputed in Fractions from the exact point
    order = builtin_order(name)
    checked = sum(assert_buckets_name_their_cells(order, s, scale)
                  for scale, s in ((1, 4), (2, 16)))
    assert checked == triples


@pytest.mark.parametrize("name, c", [("hurwitz", (-16, 0, 8, 8)), ("d3", (-9, -2, 1, 4))])
def test_scan_c_peak_memory_is_a_few_times_its_record(name, c):
    # the scan holds alpha data one row per alpha, so its traced peak stays
    # within a small multiple of the record it returns
    fd = FundamentalDomain(builtin_order(name))
    tracemalloc.start()
    try:
        rec = _scan_c(fd, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.2 * (rec.a.nbytes + rec.alpha.nbytes + rec.bucket.nbytes)


# -- primitivity by the gcd identity against the HNF of the left ideal

# per builtin order: the ramified prime and two split primes
PRIMES = {"hurwitz": (2, (3, 5)), "d3": (3, (2, 5))}

NONZERO = st.tuples(*[st.integers(-4, 4)] * 4).filter(any)


@lru_cache(maxsize=None)
def _elements_of_norm(name, p):
    order = builtin_order(name)
    return [x for x in _tuples(enumerate_by_norm(order, p)) if order.norm(x) == p]


@st.composite
def _triples(draw):
    name = draw(st.sampled_from(sorted(PRIMES)))
    order = builtin_order(name)
    ramified, split = PRIMES[name]
    x, y, z = draw(NONZERO), draw(NONZERO), draw(NONZERO)
    kind = draw(st.sampled_from(["random", "common right factor", "one in pO"]))
    if kind == "random":
        return name, [x, y, z]
    if kind == "common right factor":
        d = draw(st.sampled_from(_elements_of_norm(name, draw(st.sampled_from(
            (ramified,) + split)))))
        return name, [order.mul(x, d), order.mul(y, d), order.mul(z, d)]
    # one of the three in pO, the other two in the maximal left ideals
    # O d1 != O d2 above a split p (O d1 = O d2 iff d2 conj(d1) is in pO)
    p = draw(st.sampled_from(split))
    gens = _elements_of_norm(name, p)
    d1 = draw(st.sampled_from(gens))
    d2 = draw(st.sampled_from(
        [d for d in gens if any(v % p for v in order.mul(d, order.conj(d1)))]))
    triple = [order.mul(x, d1), order.mul(y, d2), tuple(p * v for v in z)]
    k = draw(st.integers(0, 2))
    return name, triple[k:] + triple[:k]


@given(_triples())
def test_primitive_mask_equals_the_left_ideal_hnf(case):
    name, (a, alpha, c) = case
    order = builtin_order(name)
    full = left_ideal_is_full(order, [a, alpha, c])
    # a batch of four triples over three alphas, with alpha = a shared by
    # two rows: the triple, its swap, and (1, 0, c) and (1, a, c), which the
    # norm gcd certifies
    A = np.array([a, alpha, order.one_coords, order.one_coords], np.int64)
    X = np.array([(0, 0, 0, 0), alpha, a], np.int64)
    row = np.array([1, 2, 0, 2])
    assert _primitive_mask(order, A, X, row, c).tolist() == [full, full, True, True]


def test_monotone_in_s(hur):
    counts = [psi_count(hur, s, with_triples=False)[0] for s in (1, 2, 3, 4, 5)]
    assert counts == sorted(counts)


def test_unit_scaling_multiplicity(hur, fd):
    # for each emitted triple and each unit lambda, the canonical form of
    # the scaled triple is emitted as well (the |O^x| fiber structure)
    _, triples = psi_count(hur, 2)
    emitted = {t.coords() for t in triples}
    rng = random.Random(4)
    for t in rng.sample(triples, 20):
        for lam in hur.units[:8]:
            scaled = Triple(hur.element(hur.mul(t.a, lam)),
                            hur.element(hur.mul(t.alpha, lam)),
                            hur.element(hur.mul(t.c, lam)))
            canon, _ = canonicalize(hur, scaled, fd)
            assert canon.coords() in emitted


def test_scan_partition_invariance(hur):
    # counts are per-c additive: any partition of the c range gives the sum
    recs = list(scan(hur, 4))
    total = sum(r.count for r in recs)
    assert total == psi_count(hur, 4, with_triples=False)[0]
    half1 = sum(r.count for r in recs[::2])
    half2 = sum(r.count for r in recs[1::2])
    assert half1 + half2 == total


def test_scan_summary_threads_match(hur, monkeypatch, pool_runs):
    # 26 coset representatives up to s = 8, pooled at any predicted work
    monkeypatch.setattr(counting, "_POOL_MIN_ROWS", 0)
    a = scan_summary(hur, [4, 8], hist_levels=[8], threads=1)
    assert pool_runs == []
    b = scan_summary(hur, [4, 8], hist_levels=[8], threads=2)
    assert pool_runs == [2]
    assert a.counts == b.counts
    assert (a.hists[Fraction(8)] == b.hists[Fraction(8)]).all()


@pytest.mark.parametrize("run, rows, pools", [
    # below _POOL_MIN_ROWS: the pool would cost more than it saves
    (lambda: scan_summary(builtin_order("d3"), [4, 8, 12, 16], threads=2), 51_876, []),
    # 10 rows per oracle orbit, over the 21,120 orbits of Hurwitz s <= 5
    # and the 94,272 of s <= 7
    (lambda: brute_force_counts(builtin_order("hurwitz"), range(1, 6)), 10 * 21_120, []),
    (lambda: brute_force_counts(builtin_order("hurwitz"), [7]), 10 * 94_272, [2]),
    (lambda: scan_summary(builtin_order("d3"), [32], threads=2), 1_375_606, [2]),
], ids=["d3_scan_16", "hurwitz_oracle_5", "hurwitz_oracle_7", "d3_scan_32"])
def test_pool_starts_when_the_orbit_law_predicts_enough_work(run, rows, pools, monkeypatch,
                                                            pool_runs):
    seen = []
    pool_map = counting._pool_map

    def spy(chunk_fn, items, workers, predicted):
        seen.append(predicted)
        return pool_map(chunk_fn, items, workers, predicted)

    monkeypatch.setattr(counting, "_pool_map", spy)
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 2)
    run()
    assert (seen, pool_runs) == ([rows], pools)
    # with one usable CPU nothing is predicted and no pool starts
    seen.clear()
    monkeypatch.setattr(counting, "_usable_cpus", lambda: 1)
    run()
    assert (seen, pool_runs) == ([0], pools)


@pytest.mark.parametrize("run, s, one_cpu", [
    # the scan takes any thread count down to one worker per CPU, so one
    # CPU starts no pool
    (lambda order, s: scan_summary(order, [s], hist_levels=[s], threads=10 ** 6), 8, []),
    # the oracle asks for one worker per CPU, so one CPU starts no pool; a
    # pool item is one right coset, and s = 5 has 13 of them
    (lambda order, s: ScanSummary(brute_force_counts(order, [s]), {}), 5, []),
], ids=["scan", "oracle"])
def test_pool_starts_at_most_one_worker_per_cpu(hur, monkeypatch, run, s, one_cpu):
    # a stand-in executor that records its worker count and maps in process,
    # after a pickle round trip of what a worker would receive
    started = []

    class InProcessPool:
        def __init__(self, max_workers=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(pickle.loads(pickle.dumps(fn)), *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(counting, "_POOL_MIN_ROWS", 0)
    serial = scan_summary(hur, [s], hist_levels=[s])
    for cpus, workers in ((3, [3]), (1, one_cpu)):
        monkeypatch.setattr(counting, "_usable_cpus", lambda: cpus)
        got = run(hur, s)
        assert started == workers
        started.clear()
        assert got.counts == serial.counts
        for g in got.hists:
            assert (got.hists[g] == serial.hists[g]).all(), g


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_fundamental_domain_survives_pickling(name):
    # the pool ships the fundamental domain, with its order, to its workers
    fd = FundamentalDomain(builtin_order(name))
    copy = pickle.loads(pickle.dumps(fd))
    assert copy.order.structure == fd.order.structure
    assert copy.order.basis_quats == fd.order.basis_quats
    assert copy.order.units == fd.order.units
    assert (copy.cell3_num == fd.cell3_num).all()
    with pytest.raises(AttributeError):
        copy.order.basis_quats[0].x0 = 5
    # values of c of both kinds: one per right coset up to n(c) = 3, one
    # per double coset above
    reps = _right_coset_representatives(fd.order, _c_list(fd.order, 6))
    classes = _scan_classes(fd.order, reps, 3)
    assert any(n > 1 for n in classes.values())
    cs = list(classes)
    assert _scan_chunk(copy, 1, cs) == _scan_chunk(fd, 1, cs)


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_exact_map_rejects_a_numerator_moved_by_one(name):
    # alpha = V . R / D and a = (q g, W) . adjM / detM are integral exactly
    # on the lattices of H4 and of [tau | Pnum].  For n(c) > 1 that of H4
    # lies in n(c) Z^4, so any entry of V moved by 1 leaves it; entry j of
    # W moved by 1 leaves the lattice of T3 where its pivot j exceeds 1
    order = builtin_order(name)
    fd = FundamentalDomain(order)
    moved = [0, 0]
    for c in _right_coset_representatives(order, _c_list(order, 16)):
        ctx = _CContext(fd, c)
        q = np.array([1, 5])
        row, W = counting._a_box(ctx, q)
        sides = [(_box_points(ctx.H4, ctx.D), ctx.R, ctx.D, range(4 if ctx.nc > 1 else 0)),
                 (np.column_stack([q[row] * ctx.g, W]), ctx.adjM, ctx.detM,
                  1 + np.nonzero(np.diag(ctx.T3) > 1)[0])]
        for side, (Y, M, d, cols) in enumerate(sides):
            _exact_rows(Y, M, d)
            for j in cols:
                bad = Y.copy()
                bad[Y.shape[0] // 2, j] += 1
                with pytest.raises(AssertionError, match="exact map"):
                    _exact_rows(bad, M, d)
                moved[side] += 1
    assert min(moved) >= 300


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_kernels_reject_a_numerator_moved_by_one(name, monkeypatch):
    # one entry of V moved by 1 stops the scan and the oracle, one of W the
    # scan, which forms a on every row (the oracle only on a few)
    fd = FundamentalDomain(builtin_order(name))
    c = _right_coset_representatives(fd.order, _c_list(fd.order, 8))[-1]
    pivots = np.diag(_CContext(fd, c).T3)
    j = int(np.argmax(pivots > 1))
    assert pivots[j] > 1
    box_points, a_box = counting._box_points, counting._a_box

    def moved_v(H, side):
        V = box_points(H, side)
        if H.shape[0] == 4:  # the alpha side, not the residue table
            V[V.shape[0] // 2, 0] += 1
        return V

    def moved_w(ctx, q):
        row, W = a_box(ctx, q)
        W[W.shape[0] // 2, j] += 1
        return row, W

    for site, fake, kernels in (("_box_points", moved_v, (_scan_c, _brute_force_c)),
                                ("_a_box", moved_w, (_scan_c,))):
        with monkeypatch.context() as patch:
            patch.setattr(counting, site, fake)
            for kernel in kernels:
                with pytest.raises(AssertionError, match="exact map"):
                    kernel(fd, c)


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_oracle_peak_memory_per_a_box_row(name):
    # the oracle forms W and a only on its spot and in-domain rows and
    # nothing per window triple: on the last right coset representative
    # with n(c) <= 16, its traced peak is 2.3 (Hurwitz) and 4.5 (d3) times
    # the window's alpha rows, 81 D rows of 4 int64; an int64 per window
    # triple (81 D m of them) reads 12.0 on d3
    fd = FundamentalDomain(builtin_order(name))
    c = _right_coset_representatives(fd.order, _c_list(fd.order, 16))[-1]
    D = fd.order.norm(c.tolist()) ** 2
    _brute_force_c(fd, c)
    tracemalloc.start()
    try:
        _brute_force_c(fd, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 81 * D * 32


def test_scan_summary_progress(tmp_path, monkeypatch, pool_runs):
    # 44 right coset representatives up to s = 8 on d3, in 13 double cosets:
    # one call per double coset, counting the values of c scanned; the
    # pooled runs start a pool at any predicted work
    monkeypatch.setattr(counting, "_POOL_MIN_ROWS", 0)
    d3 = builtin_order("d3")
    calls = []

    def progress(done, total):
        calls.append((done, total))

    scan_summary(d3, [8], progress=progress)
    assert calls == [(k, 13) for k in range(1, 14)]
    ck = str(tmp_path / "chk.jsonl")
    calls.clear()
    scan_summary(d3, [8], checkpoint_path=ck, threads=2, progress=progress)
    assert pool_runs == [2]
    assert calls == sorted(calls) and calls[-1] == (13, 13)
    calls.clear()
    scan_summary(d3, [8], checkpoint_path=ck, threads=2, progress=progress)
    assert calls == []


def test_scan_summary_checkpoint_resume(hur, tmp_path):
    ck = tmp_path / "chk.jsonl"
    a = scan_summary(hur, [3], checkpoint_path=str(ck))
    assert ck.exists() and ck.read_text().strip()
    # truncate the checkpoint to simulate an interrupted run, then resume
    lines = ck.read_text().strip().splitlines()
    ck.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    b = scan_summary(hur, [3], checkpoint_path=str(ck))
    assert a.counts == b.counts


def _leaky_primitive_mask(*args):
    """_primitive_mask with the first imprimitive triple kept: a faulty scan."""
    keep = _primitive_mask(*args)
    keep[np.flatnonzero(~keep)[:1]] = True
    return keep


def test_scan_count_off_the_orbit_law_raises_and_is_not_checkpointed(hur, tmp_path,
                                                                       monkeypatch):
    monkeypatch.setattr(counting, "_primitive_mask", _leaky_primitive_mask)
    ck = tmp_path / "ck.jsonl"
    with pytest.raises(AssertionError, match=r"c = \(-2, 0, 1, 1\) is off the orbit law"):
        scan_summary(hur, [4], checkpoint_path=str(ck))
    stored = [tuple(json.loads(line)["c"]) for line in ck.read_text().splitlines()]
    assert stored and (-2, 0, 1, 1) not in stored


@pytest.mark.parametrize("name, scale, grid", [
    ("hurwitz", 1, (4, 8, 12)), ("d3", 1, (4, 8, 12)), ("hurwitz", 2, (8, 16)),
    ("hurwitz", 3, (9, 18, 36)), ("d5", 1, (4, 8, 12)), ("d7", 1, (4, 8, 12)),
    ("d11", 1, (4, 8, 12)), ("d13", 1, (4, 8, 12))])
def test_coset_reduced_summary_equals_full_scan(name, scale, grid):
    order = builtin_order(name)
    units = len(order.units)
    C = _c_list(order, max(grid), scale)
    cs, reps = _tuples(C), _tuples(_right_coset_representatives(order, C))
    rep_of = {}
    for r in reps:
        coset = {order.mul(r, u) for u in order.units}
        assert len(coset) == units and min(coset) == r
        for c in coset:
            assert c not in rep_of
            rep_of[c] = r
    assert set(rep_of) == set(cs) and len(reps) * units == len(cs)

    # the full per-c scan: every c matches its representative, and the sums
    # match the reduced summary
    per_c = {}
    counts = {Fraction(g): 0 for g in grid}
    hists = {Fraction(g): np.zeros(128, np.int64) for g in grid}
    for rec in scan(order, max(grid), scale):
        hist = np.bincount(rec.bucket, minlength=128)
        per_c[rec.c] = (rec.count, hist)
        for g in grid:
            if rec.nc <= g:
                counts[g] += rec.count
                hists[g] += hist
    for c, r in rep_of.items():
        assert per_c[c][0] == per_c[r][0] and (per_c[c][1] == per_c[r][1]).all(), c
    reduced = scan_summary(order, grid, hist_levels=grid, scale=scale)
    assert reduced.counts == counts
    for g in counts:
        assert (reduced.hists[g] == hists[g]).all(), g
    # counts only: one scan per double coset
    assert scan_summary(order, grid, scale=scale).counts == counts


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_orbit_count_is_invariant_under_left_units(name):
    # f(u c) = f(c) for every c and unit u; the histogram is not left
    # invariant, which is why histogram levels scan every right coset
    order = builtin_order(name)
    fd = FundamentalDomain(order)
    moved_hist = False
    for scale, s in ((1, 8), (2, 32)):
        recs = {c: _scan_c(fd, c, scale) for c in _tuples(_c_list(order, s, scale))}
        for c, rec in recs.items():
            for u in order.units:
                other = recs[order.mul(u.coords, c)]
                assert other.count == rec.count, (c, u)
                moved_hist |= not (np.bincount(other.bucket, minlength=128)
                                   == np.bincount(rec.bucket, minlength=128)).all()
    assert moved_hist


@pytest.mark.parametrize("name, scale, s", [
    ("hurwitz", 1, 16), ("d3", 1, 16), ("hurwitz", 2, 32), ("d3", 2, 32)])
def test_scan_classes_are_the_two_sided_unit_cosets(name, scale, s):
    # each key is the least member of its double coset O^x c O^x and
    # carries the number of right cosets in it, counted here from the
    # scalar products u c v over all unit pairs; the double cosets of the
    # keys partition the c list, and the keys come in (n(c), c) order
    order = builtin_order(name)
    units = [u.coords for u in order.units]
    cs = _c_list(order, s, scale)
    reps = _right_coset_representatives(order, cs)
    classes = _scan_classes(order, reps, 0)
    covered = set()
    for key, n in classes.items():
        double = {order.mul(order.mul(u, key), v) for u in units for v in units}
        assert min(double) == key
        assert n * len(units) == len(double), key
        assert not covered & double
        covered |= double
    assert covered == set(_tuples(cs))
    assert sum(classes.values()) == len(reps)
    assert list(classes) == sorted(classes, key=lambda c: (order.norm(c), c))
    # up to the histogram level each right coset is its own class
    hist_max = 4
    mixed = _scan_classes(order, reps, hist_max)
    assert sum(mixed.values()) == len(reps)
    for key, n in mixed.items():
        if order.norm(key) <= hist_max:
            assert n == 1
        else:
            assert n == classes[key]
    assert list(mixed) == sorted(mixed, key=lambda c: (order.norm(c), c))
    assert [c for c in _tuples(reps) if order.norm(c) <= hist_max] \
        == [c for c in mixed if order.norm(c) <= hist_max]


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
@pytest.mark.parametrize("threads", [1, 2])
def test_mixed_summary_equals_the_histogram_run(name, threads, monkeypatch, pool_runs):
    # histograms up to s = 8 from one scan per right coset, counts above it
    # from one scan per double coset; pooled at any predicted work
    monkeypatch.setattr(counting, "_POOL_MIN_ROWS", 0)
    order = builtin_order(name)
    full = scan_summary(order, (4, 8, 12), hist_levels=(8, 12))
    mixed = scan_summary(order, (4, 8, 12), hist_levels=[8], threads=threads)
    assert pool_runs == ([2] if threads == 2 else [])
    assert mixed.counts == full.counts
    assert list(mixed.hists) == [8]
    assert (mixed.hists[Fraction(8)] == full.hists[Fraction(8)]).all()


def _all_histogram_checkpoint(order, s, path):
    # one record with count and histogram per right coset, the format of
    # every record before counts were recorded per double coset
    key = checkpoint_key(order)
    weight = len(order.units)
    reps = set(_tuples(_right_coset_representatives(order, _c_list(order, s))))
    with open(path, "w", encoding="utf-8") as fh:
        for rec in scan(order, s):
            if rec.c in reps:
                hist = (np.bincount(rec.bucket, minlength=128) * weight).tolist()
                fh.write(json.dumps({"key": key, "c": list(rec.c), "nc": rec.nc,
                                     "count": rec.count * weight, "hist": hist}) + "\n")


def test_checkpoint_with_histograms_everywhere_resumes_with_no_new_lines(hur, tmp_path):
    ck = tmp_path / "chk.jsonl"
    _all_histogram_checkpoint(hur, 6, ck)
    lines = ck.read_text()
    for hist_levels in ((), (3,), (6,)):
        got = scan_summary(hur, (2, 4, 6), hist_levels=hist_levels, checkpoint_path=str(ck))
        fresh = scan_summary(hur, (2, 4, 6), hist_levels=hist_levels)
        assert ck.read_text() == lines
        assert got.counts == fresh.counts
        for g in fresh.hists:
            assert (got.hists[g] == fresh.hists[g]).all(), g


def test_histogram_run_rescans_exactly_the_cosets_without_a_histogram(tmp_path):
    # a counts-only run records one line per double coset, each with the
    # histogram of its least member's right coset; a histogram run then
    # scans only the right cosets that are not class keys
    d3 = builtin_order("d3")
    ck = tmp_path / "chk.jsonl"
    counts_only = scan_summary(d3, (4, 8), checkpoint_path=str(ck))
    lines = ck.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    reps = _right_coset_representatives(d3, _c_list(d3, 8))
    keys = _scan_classes(d3, reps, 0)
    reps = _tuples(reps)
    assert sorted(tuple(rec["c"]) for rec in records) == sorted(keys)
    assert len(records) == 13 and all(len(rec["hist"]) == 128 for rec in records)
    assert scan_summary(d3, (4, 8), checkpoint_path=str(ck)).counts == counts_only.counts
    assert ck.read_text().splitlines() == lines
    got = scan_summary(d3, (4, 8), hist_levels=[4], checkpoint_path=str(ck))
    fresh = scan_summary(d3, (4, 8), hist_levels=[4])
    assert got.counts == fresh.counts == counts_only.counts
    assert (got.hists[Fraction(4)] == fresh.hists[Fraction(4)]).all()
    after = ck.read_text().splitlines()
    assert after[:len(lines)] == lines
    added = sorted(tuple(json.loads(line)["c"]) for line in after[len(lines):])
    assert added == sorted(c for c in reps if d3.norm(c) <= 4 and c not in keys)
    assert len(added) == 7
    scan_summary(d3, (4, 8), hist_levels=[4], checkpoint_path=str(ck))
    assert ck.read_text().splitlines() == after


def test_larger_grid_resumes_from_the_smaller_grid_checkpoint(tmp_path):
    # the classes with n(c) <= 8 are the same at s = 16, so their lines are
    # reused and only the 25 classes with 8 < n(c) <= 16 are scanned
    d3 = builtin_order("d3")
    ck = tmp_path / "chk.jsonl"
    scan_summary(d3, (4, 8), checkpoint_path=str(ck))
    lines = ck.read_text().splitlines()
    assert len(lines) == 13
    got = scan_summary(d3, (4, 8, 12, 16), checkpoint_path=str(ck))
    assert got.counts == scan_summary(d3, (4, 8, 12, 16)).counts
    after = ck.read_text().splitlines()
    assert after[:13] == lines and len(after) == 38
    assert all(8 < json.loads(line)["nc"] <= 16 for line in after[13:])


@pytest.mark.parametrize("name, grid", [("hurwitz", (4, 8)), ("d3", (4, 8, 12))])
def test_pool_checkpoint_and_resume_match_serial(name, grid, tmp_path, monkeypatch,
                                                pool_runs):
    # the pool weights and records each coset as the serial path does, and
    # a pooled resume after a killed pooled run gives the same summary; the
    # pool starts at any predicted work
    monkeypatch.setattr(counting, "_POOL_MIN_ROWS", 0)
    order = builtin_order(name)
    ck = tmp_path / "chk.jsonl"
    serial = scan_summary(order, grid, hist_levels=grid)
    pooled = scan_summary(order, grid, hist_levels=grid, threads=2,
                          checkpoint_path=str(ck))
    lines = ck.read_text().splitlines()
    reps = _tuples(_right_coset_representatives(order, _c_list(order, max(grid))))
    assert sorted(tuple(json.loads(line)["c"]) for line in lines) == sorted(reps)
    ck.write_text("\n".join(lines[:10]) + "\n" + lines[10][:20])
    resumed = scan_summary(order, grid, hist_levels=grid, threads=2,
                           checkpoint_path=str(ck))
    assert pool_runs == [2, 2]
    for got in (pooled, resumed):
        assert got.counts == serial.counts
        for g in serial.hists:
            assert (got.hists[g] == serial.hists[g]).all(), g
    assert len(ck.read_text().splitlines()) == len(reps)


def test_checkpoint_in_the_per_c_format_does_not_overcount(hur, tmp_path):
    # one line per c without a key, as written before records were keyed
    ck = tmp_path / "old.jsonl"
    with open(ck, "w", encoding="utf-8") as fh:
        for rec in scan(hur, 3):
            hist = np.bincount(rec.bucket, minlength=128).tolist()
            fh.write(json.dumps({"c": list(rec.c), "nc": rec.nc,
                                 "count": rec.count, "hist": hist}) + "\n")
    got = scan_summary(hur, [1, 2, 3], checkpoint_path=str(ck))
    assert got.counts == {1: 24, 2: 96, 3: 2592}


def test_checkpoint_of_another_scale_is_ignored(hur, tmp_path):
    # both runs scan the least c of the coset 2 O^x (n = 4), so only the
    # key tells their records apart
    ck = str(tmp_path / "chk.jsonl")
    plain = scan_summary(hur, [4], hist_levels=[4], checkpoint_path=ck)
    scaled = scan_summary(hur, [4], hist_levels=[4], scale=2, checkpoint_path=ck)
    fresh = scan_summary(hur, [4], hist_levels=[4], scale=2)
    assert scaled.counts == fresh.counts == {4: 24 * 4}
    assert (scaled.hists[Fraction(4)] == fresh.hists[Fraction(4)]).all()
    again = scan_summary(hur, [4], hist_levels=[4], checkpoint_path=ck)
    assert again.counts == plain.counts
    assert (again.hists[Fraction(4)] == plain.hists[Fraction(4)]).all()


def test_checkpoint_records_outside_the_scanned_cs_are_ignored(hur, tmp_path):
    # a keyed record for another member of a scanned coset would count that
    # coset twice
    ck = tmp_path / "chk.jsonl"
    fresh = scan_summary(hur, [3], checkpoint_path=str(ck))
    records = [json.loads(line) for line in ck.read_text().splitlines()]
    unit = next(u.coords for u in hur.units if u.coords != hur.one_coords)
    with open(ck, "a", encoding="utf-8") as fh:
        for rec in records:
            other = dict(rec, c=list(hur.mul(tuple(rec["c"]), unit)))
            fh.write(json.dumps(other) + "\n")
    assert scan_summary(hur, [3], checkpoint_path=str(ck)).counts == fresh.counts


def test_checkpoint_resume_after_a_torn_line(hur, tmp_path):
    ck = tmp_path / "chk.jsonl"
    full = scan_summary(hur, [2, 4], checkpoint_path=str(ck))
    lines = ck.read_text().splitlines()
    # a killed run: some whole records, then half of the next one
    ck.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])
    assert scan_summary(hur, [2, 4], checkpoint_path=str(ck)).counts == full.counts
    resumed = ck.read_text()
    assert resumed.endswith("\n")
    records = [json.loads(line) for line in resumed.splitlines()]
    assert sorted(tuple(r["c"]) for r in records) \
        == sorted(tuple(r["c"]) for r in map(json.loads, lines))
    assert scan_summary(hur, [2, 4], checkpoint_path=str(ck)).counts == full.counts


def test_checkpoint_shared_with_a_run_still_writing(hur, tmp_path):
    # a resume that starts while another run is appending a record waits
    # for it, rather than cutting the half-written line off as torn
    import fcntl
    import threading
    import time
    ck = tmp_path / "chk.jsonl"
    full = scan_summary(hur, [2, 4], checkpoint_path=str(ck))
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:-1]) + "\n")
    last = (lines[-1] + "\n").encode("utf-8")
    result = {}

    def resume():
        result["counts"] = scan_summary(hur, [2, 4], checkpoint_path=str(ck)).counts

    with open(ck, "ab") as writer:
        fcntl.flock(writer, fcntl.LOCK_EX)
        writer.write(last[: len(last) // 2])
        writer.flush()
        other = threading.Thread(target=resume)
        other.start()
        time.sleep(0.5)
        writer.write(last[len(last) // 2:])
        writer.flush()
        fcntl.flock(writer, fcntl.LOCK_UN)
    other.join()
    assert result["counts"] == full.counts
    assert sorted(tuple(json.loads(line)["c"]) for line in ck.read_text().splitlines()) \
        == sorted(tuple(json.loads(line)["c"]) for line in lines)


@pytest.mark.parametrize("name", ["hurwitz", "d3", "d5", "d7", "d11", "d13"])
def test_c_list_equals_the_tuple_construction(name):
    order = builtin_order(name)
    for scale in (1, 2, 3):
        inner = enumerate_by_norm(order, Fraction(12, scale ** 2))
        cs = [tuple(scale * v for v in c) for c in inner.tolist()]
        by_norm = np.argsort(order.norms(np.array(cs, np.int64).reshape(-1, 4)), kind="stable")
        got = _c_list(order, 12, scale)
        assert _tuples(got) == [cs[i] for i in by_norm]
        assert got.dtype == np.int64 and got.shape == (len(cs), 4)


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_c_list_peak_memory_is_a_few_times_its_result(name):
    # the norm enumeration is one int64 array that is scaled and sorted in
    # place of a list of tuples: the traced peak stays below three (N, 4)
    # int64 arrays of the result
    order = builtin_order(name)
    _c_list(order, 64)
    tracemalloc.start()
    try:
        n = len(_c_list(order, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 32 * n


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_right_coset_representatives_in_linear_memory(name):
    # the least member of each right coset, as the least of its |O^x|
    # images, found without holding the (|O^x|, N, 4) stack of images
    order = builtin_order(name)
    C = _c_list(order, 32)
    images = C @ order.right_mul(np.array([u.coords for u in order.units], np.int64))
    want = C[[min(cv) == c for c, cv in zip(C.tolist(), images.swapaxes(0, 1).tolist())]]
    del images
    _right_coset_representatives(order, C)
    tracemalloc.start()
    try:
        assert np.array_equal(_right_coset_representatives(order, C), want)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * C.nbytes


def test_scale_parameter(hur):
    # the c-list at scale m is m times the one at s / m^2, ordered by (n(c), c);
    # at scale 1 it is the norm enumeration itself
    assert _tuples(_c_list(hur, 16, 1)) == sorted(_tuples(enumerate_by_norm(hur, 16)),
                                                  key=lambda c: (hur.norm(c), c))
    assert _tuples(_c_list(hur, 16, 2)) == [tuple(2 * v for v in c)
                                            for c in _tuples(_c_list(hur, 4, 1))]
    # alpha, c in 2O: fewer orbits than the unrestricted count at the same s
    full = psi_count(hur, 4, with_triples=False)[0]
    scaled, triples = psi_count(hur, 4, scale=2)
    assert 0 < scaled < full
    for t in triples[:50]:
        assert all(v % 2 == 0 for v in t.alpha.coords)
        assert all(v % 2 == 0 for v in t.c.coords)
        assert is_admissible(hur, t) and is_primitive(hur, t)
    # hand count: c = 2u (24 units); cell4 forces alpha = 0; the a-classes
    # run over Im(O)u / 2 Im(O)u (8 residues) of which the 4 odd-norm ones
    # give a full ideal <a, 2u> = O
    assert scaled == 24 * 4


def test_fit_synthetic_slope():
    C = 0.005
    rows = [(Fraction(s), round(C * s ** 5)) for s in (4, 8, 16, 32, 64)]
    slope, intercept = _loglog_fit(rows)
    assert abs(slope - 5.0) < 0.02
    assert abs(math.exp(intercept) / C - 1) < 0.03  # rounding at s = 4


def test_histogram_uniform_synthetic():
    rng = np.random.default_rng(1)
    buckets = rng.integers(0, 128, size=128000)
    hist = np.bincount(buckets, minlength=128)
    rep = histogram_report(1, hist)
    assert rep.total == 128000
    assert rep.discrepancy <= 0.01


def _histogram(order, s):
    """The equidist report of order at level s, from one scan_summary."""
    return histogram_report(s, scan_summary(order, [], [s]).hists[Fraction(s)])


def test_histogram_degenerate_s1(hur):
    rep = _histogram(hur, 1)
    # all 24 representatives sit in the origin cell
    assert rep.total == 24
    assert abs(rep.discrepancy - (1 - 1 / 128)) < 1e-12


def test_histogram_sums_to_count(hur):
    rep = _histogram(hur, 4)
    assert sum(rep.observed) == rep.total == psi_count(hur, 4, with_triples=False)[0]
    assert rep.to_json_dict()["cells"] == 128


def test_empty_histogram_raises(hur):
    with pytest.raises(ValueError, match="empty sample"):
        _histogram(hur, Fraction(1, 2))


def test_count_table_fields(hur):
    table = count_table(hur, scan_summary(hur, [1, 2, 4]).counts)
    d = table.to_json_dict()
    assert d["rows"][0] == {"s": "1", "count": 24}
    assert d["rows"][1] == {"s": "2", "count": 96}
    assert len(d["ratios"]) == 3
    assert d["reference_symbolic"] == "54*pi^-8"
    with pytest.raises(ValueError, match="empty s grid"):
        count_table(hur, scan_summary(hur, []).counts)


def _shift_hist(rec):
    # a negative cell, the sum kept
    rec["hist"][0] -= rec["count"] + 24
    rec["hist"][1] += rec["count"] + 24


@pytest.mark.parametrize("spoil", [
    lambda rec: rec.pop("count"),
    lambda rec: rec.pop("nc"),
    lambda rec: rec.pop("hist"),
    lambda rec: rec.update(nc=rec["nc"] + 1),
    lambda rec: rec.update(count=rec["count"] + 24),
    lambda rec: rec.update(count=rec["count"] + 1, hist=[rec["hist"][0] + 1] + rec["hist"][1:]),
    lambda rec: rec.update(count=-rec["count"], hist=[-h for h in rec["hist"]]),
    lambda rec: rec.update(count=float(rec["count"])),
    lambda rec: rec.update(hist=rec["hist"][:126] + [rec["hist"][126] + rec["hist"][127]]),
    lambda rec: rec.update(hist=[float(rec["hist"][0])] + rec["hist"][1:]),
    _shift_hist,
], ids=["no_count", "no_nc", "no_hist", "wrong_nc", "count_not_hist_sum",
        "count_not_unit_multiple", "negative_count", "float_count", "short_hist",
        "float_cell", "negative_cell"])
def test_checkpoint_record_that_does_not_check_out_is_scanned_again(hur, tmp_path, spoil):
    ck = tmp_path / "chk.jsonl"
    fresh = scan_summary(hur, [1, 2, 3], hist_levels=[3], checkpoint_path=str(ck))
    lines = ck.read_text().splitlines()
    rec = json.loads(lines[-1])
    assert rec["nc"] == 3 and rec["count"] > 0
    spoil(rec)
    ck.write_text("\n".join(lines[:-1] + [json.dumps(rec)]) + "\n")
    resumed = scan_summary(hur, [1, 2, 3], hist_levels=[3], checkpoint_path=str(ck))
    assert resumed.counts == fresh.counts
    assert (resumed.hists[Fraction(3)] == fresh.hists[Fraction(3)]).all()
    # only the spoiled coset was scanned again
    again = ck.read_text().splitlines()
    assert again[:-1] == lines[:-1] + [json.dumps(rec)] and again[-1] == lines[-1]
