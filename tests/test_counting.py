import concurrent.futures
import json
import math
import os
import pickle
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisquat import counting
from heisquat.counting import (CountTable, _c_list, _group_keys, _primitive_mask,
                               _right_coset_representatives, _scan_chunk,
                               brute_force_counts,
                               brute_force_psi, count_table, equidist_histogram,
                               fit_and_compare, histogram_report, psi_count, scan,
                               scan_summary)
from heisquat.heisenberg import (FundamentalDomain, Triple, canonicalize,
                                 in_fundamental_domain, is_admissible,
                                 is_primitive)
from heisquat.orders import builtin_order, enumerate_by_norm, left_ideal_is_full


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


@pytest.mark.parametrize("name,grid", [("hurwitz", [1, 2, 3, 4]), ("d3", [1, 2, 3])])
def test_brute_force_counts_equal_scan_summary(name, grid):
    order = builtin_order(name)
    counts = brute_force_counts(order, grid)
    assert counts == scan_summary(order, grid).counts
    assert brute_force_counts(order, [Fraction(1, 2), 0]) == {0: 0, Fraction(1, 2): 0}


def test_group_keys_buckets_by_both_columns():
    keys = np.array([[3, 1], [1, 2], [3, 1], [1, 1], [1, 2], [3, 0]], np.int64)
    indom = np.array([False, True, True, True, False, False])
    first, hits = _group_keys(keys, indom)
    # buckets in key order: (1, 1), (1, 2), (3, 0), (3, 1)
    assert first.tolist() == [3, 1, 5, 0]
    assert hits.tolist() == [1, 1, 0, 1]
    first, hits = _group_keys(keys[:0], indom[:0])
    assert first.size == hits.size == 0


@pytest.mark.parametrize("bad_keys", [
    # one bucket per row: the rows outside the domain have no in-domain triple
    lambda keys: np.stack([keys[:, 0], np.arange(keys.shape[0])], axis=1),
    # one bucket for all rows: it holds every in-domain triple
    lambda keys: np.zeros_like(keys),
], ids=["zero_in_domain", "several_in_domain"])
def test_oracle_rejects_a_bucket_without_one_in_domain_triple(hur, monkeypatch, bad_keys):
    pack = counting._pack_keys
    monkeypatch.setattr(counting, "_pack_keys", lambda AL, A: bad_keys(pack(AL, A)))
    with pytest.raises(AssertionError, match="unique in-domain"):
        brute_force_psi(hur, 3)


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


# -- primitivity by the gcd identity against the HNF of the left ideal
# (derandomized, as in tests/test_lattices.py)

PROPS = settings(derandomize=True, deadline=None, database=None, max_examples=150)

# per builtin order: the ramified prime and two split primes
PRIMES = {"hurwitz": (2, (3, 5)), "d3": (3, (2, 5))}

NONZERO = st.tuples(*[st.integers(-4, 4)] * 4).filter(any)


@lru_cache(maxsize=None)
def _elements_of_norm(name, p):
    order = builtin_order(name)
    return [x for x in enumerate_by_norm(order, p) if order.norm(x) == p]


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


@PROPS
@given(_triples())
def test_primitive_mask_equals_the_left_ideal_hnf(case):
    name, (a, alpha, c) = case
    order = builtin_order(name)
    full = left_ideal_is_full(order, [a, alpha, c])
    # a batch: the triple, its swap, and (1, 0, c), which the norm gcd certifies
    A = np.array([a, alpha, order.one_coords], np.int64)
    AL = np.array([alpha, a, (0, 0, 0, 0)], np.int64)
    assert _primitive_mask(order, A, AL, c).tolist() == [full, full, True]


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


def test_scan_summary_threads_match(hur, pool_runs):
    # 26 coset representatives up to s = 8: enough for the pool
    a = scan_summary(hur, [4, 8], hist_levels=[8], threads=1)
    assert pool_runs == []
    b = scan_summary(hur, [4, 8], hist_levels=[8], threads=2)
    assert pool_runs == [2]
    assert a.counts == b.counts
    assert (a.hists[Fraction(8)] == b.hists[Fraction(8)]).all()


def test_pool_starts_at_most_one_worker_per_cpu(hur, monkeypatch):
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
    serial = scan_summary(hur, [8], hist_levels=[8])
    for cpus, workers in ((3, 3), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        got = scan_summary(hur, [8], hist_levels=[8], threads=10 ** 6)
        assert started.pop() == workers
        assert got.counts == serial.counts
        assert (got.hists[Fraction(8)] == serial.hists[Fraction(8)]).all()
    assert started == []


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
    reps = _right_coset_representatives(fd.order, _c_list(fd.order, 6))
    assert _scan_chunk(copy, "k", 1, reps) == _scan_chunk(fd, "k", 1, reps)


def test_scan_summary_checkpoint_resume(hur, tmp_path):
    ck = tmp_path / "chk.jsonl"
    a = scan_summary(hur, [3], checkpoint_path=str(ck))
    assert ck.exists() and ck.read_text().strip()
    # truncate the checkpoint to simulate an interrupted run, then resume
    lines = ck.read_text().strip().splitlines()
    ck.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    b = scan_summary(hur, [3], checkpoint_path=str(ck))
    assert a.counts == b.counts


@pytest.mark.parametrize("name, scale, grid", [
    ("hurwitz", 1, (4, 8, 12)), ("d3", 1, (4, 8, 12)), ("hurwitz", 2, (8, 16))])
def test_coset_reduced_summary_equals_full_scan(name, scale, grid):
    order = builtin_order(name)
    units = len(order.units)
    cs = _c_list(order, max(grid), scale)
    reps = _right_coset_representatives(order, cs)
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


@pytest.mark.parametrize("name, grid", [("hurwitz", (4, 8)), ("d3", (4, 8, 12))])
def test_pool_checkpoint_and_resume_match_serial(name, grid, tmp_path, pool_runs):
    # the pool weights and records each coset as the serial path does, and
    # a pooled resume after a killed pooled run gives the same summary
    order = builtin_order(name)
    ck = tmp_path / "chk.jsonl"
    serial = scan_summary(order, grid, hist_levels=grid)
    pooled = scan_summary(order, grid, hist_levels=grid, threads=2,
                          checkpoint_path=str(ck))
    lines = ck.read_text().splitlines()
    reps = _right_coset_representatives(order, _c_list(order, max(grid)))
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


def test_scale_parameter(hur):
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
    table = CountTable("synthetic", 2, rows, C)
    fit = fit_and_compare(table, C)
    assert abs(fit["slope"] - 5.0) < 0.02
    assert all(abs(r - 1) < 0.03 for r in fit["ratios"])  # rounding at s = 4


def test_fit_requires_enough_rows():
    table = CountTable("synthetic", 2, [(Fraction(4), 10), (Fraction(8), 300)], 1.0)
    with pytest.raises(ValueError):
        fit_and_compare(table, 1.0)


def test_histogram_uniform_synthetic():
    rng = np.random.default_rng(1)
    buckets = rng.integers(0, 128, size=128000)
    hist = np.bincount(buckets, minlength=128)
    rep = histogram_report(1, hist)
    assert rep.total == 128000
    assert rep.discrepancy <= 0.01


def test_histogram_degenerate_s1(hur):
    rep = equidist_histogram(hur, 1)
    # all 24 representatives sit in the origin cell
    assert rep.total == 24
    assert abs(rep.discrepancy - (1 - 1 / 128)) < 1e-12


def test_histogram_sums_to_count(hur):
    rep = equidist_histogram(hur, 4)
    assert sum(rep.observed) == rep.total == psi_count(hur, 4, with_triples=False)[0]
    assert rep.to_json_dict()["cells"] == 128


def test_empty_histogram_raises(hur):
    with pytest.raises(ValueError, match="empty sample"):
        equidist_histogram(hur, Fraction(1, 2))


def test_count_table_fields(hur):
    table = count_table(hur, [1, 2, 4], reference_constant=54 / math.pi ** 8,
                        reference_symbolic="54*pi^-8")
    d = table.to_json_dict()
    assert d["rows"][0] == {"s": "1", "count": 24}
    assert d["rows"][1] == {"s": "2", "count": 96}
    assert len(d["ratios"]) == 3
    assert d["reference_symbolic"] == "54*pi^-8"
