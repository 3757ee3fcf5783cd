"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3 checks the enumeration against kappa = lim Psi(s)/s^5 of the
count this package defines (N(O)-orbits of primitive admissible triples,
see heisquat.counting).  kappa is not fitted to Psi: heisquat.orbitlaw
proves the per-c orbit law by counting in O/p^k O, tests/test_orbitlaw.py
checks the law against a direct local count, against the scan for
every c with n(c) <= 16 and for one c per right unit coset up to
n(c) <= 32, and constants.mertens_kappa sums it into 31104/pi^8 for the
Hurwitz order.  So the criterion is a consistency
check of the scan against its proven limit, not a test of the paper's
closed form: 54/pi^8 of constants.mertens_constant is exactly kappa/576
(tests/test_constants.py), so it cannot be the limit of this count, and
which count or constant carries the factor 576 = 8 m_A is open.  The
ratio to 54/pi^8 is printed next to the result.

Run with `pytest -s tests/test_acceptance.py -v` to see the summary lines.
"""

import math
import time
from fractions import Fraction

import pytest

from heisquat.constants import (ArithmeticData, assembly_identity, cusp_volume,
                                mertens_constant, mertens_kappa,
                                orbifold_volume, sym, zeta_and_integrals)
from heisquat.counting import brute_force_psi, psi_count, scan_summary
from heisquat.hyperbolic import geom_selftest
from heisquat.orders import (Algebra, OrderError, builtin_order, covolume,
                             ideal_inverse, make_order, units)

KAPPA = mertens_kappa(ArithmeticData(2, 24))  # lim Psi(s)/s^5, Hurwitz order
CLOSED_FORM = mertens_constant(ArithmeticData(2, 24))  # 54/pi^8, reported only
REFERENCE = KAPPA.value()
GRID = [4, 8, 16, 32]
HIST_LEVELS = [8, 32]


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")


@pytest.fixture(scope="module")
def hur():
    return builtin_order("hurwitz")


@pytest.fixture(scope="module")
def bigrun(hur):
    t0 = time.time()
    summ = scan_summary(hur, GRID, hist_levels=HIST_LEVELS)
    elapsed = time.time() - t0
    return summ, elapsed


def test_criterion_1_oracle_equality(hur):
    t0 = time.time()
    rows = []
    ok = True
    for s in (1, 2, 3, 4, 5):
        psi = psi_count(hur, s, with_triples=False)[0]
        oracle = brute_force_psi(hur, s)
        rows.append((s, psi, oracle))
        ok &= psi == oracle
    ok &= rows[0][1] == 24
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(1, ok, f"psi=oracle for s=1..5 {[r[1] for r in rows]}, "
                  f"psi(1)=24, runtime {elapsed:.1f}s < 60s")
    assert ok, rows


def test_criterion_2_mertens_exponent(bigrun):
    summ, elapsed = bigrun
    xs = [math.log(float(s)) for s in GRID]
    ys = [math.log(summ.counts[Fraction(s)]) for s in GRID]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) \
        / sum((x - xbar) ** 2 for x in xs)
    ok = abs(slope - 5.0) <= 0.25 and elapsed < 600.0
    report(2, ok, f"slope {slope:.4f} in 5.0+-0.25 over s in {GRID}; "
                  f"single-threaded scan {elapsed:.1f}s (< 600s target)")
    assert ok, (slope, elapsed)


def test_criterion_3_mertens_constant_trend(bigrun):
    summ, _ = bigrun
    r8 = summ.counts[Fraction(8)] / (REFERENCE * 8 ** 5)
    r32 = summ.counts[Fraction(32)] / (REFERENCE * 32 ** 5)
    trend = abs(r32 - 1) < abs(r8 - 1)
    band = 0.5 <= r32 <= 1.5
    ok = trend and band
    closed = summ.counts[Fraction(32)] / (CLOSED_FORM.value() * 32 ** 5)
    report(3, ok, f"r(8)={r8:.3f}, r(32)={r32:.3f}; trend {trend}, "
                  f"band [0.5,1.5] {band}; empirical constant "
                  f"{summ.counts[Fraction(32)] / 32 ** 5:.4f} vs kappa "
                  f"{KAPPA} = {REFERENCE:.4f}; against the closed form "
                  f"{CLOSED_FORM} the ratio at s=32 is {closed:.1f}")
    assert ok, (r8, r32)


def test_criterion_4_equidistribution(bigrun):
    summ, _ = bigrun
    discs = {}
    for s in HIST_LEVELS:
        h = summ.hists[Fraction(s)]
        total = int(h.sum())
        discs[s] = float(abs(h / total - 1.0 / 128).max())
    ok = discs[32] < discs[8] and discs[32] < 0.15
    report(4, ok, f"max-cell discrepancy {discs[8]:.4f} (s=8) -> "
                  f"{discs[32]:.4f} (s=32), strictly decreasing and < 0.15")
    assert ok, discs


def test_criterion_5_constant_assembly():
    ok = True
    details = []
    for da, u in ((2, 24), (3, 12)):
        d = ArithmeticData(da, u)
        chain, closed = assembly_identity(d)
        ok &= chain == closed
        details.append(f"D_A={da}: {chain} == {closed}")
    d2 = ArithmeticData(2, 24)
    ok &= cusp_volume(d2) == Fraction(1, 23040)
    ok &= orbifold_volume(d2) == sym(Fraction(1, 138240), 4)
    ok &= mertens_constant(d2) == sym(54, -8)
    report(5, ok, "; ".join(details) + "; cusp=1/23040, orbifold=pi^4/138240")
    assert ok


def test_criterion_6_quadrature_suite():
    t0 = time.time()
    out = zeta_and_integrals(2)
    elapsed = time.time() - t0
    want = {
        "patterson_mass": "(1/384)*pi^4",
        "residue_integral": "(5/128)*pi",
        "beta_integral": "1/30",
        "c_prime": "1/21",
        "I_11": "4/15",
        "zeta_product": "(1/510300)*pi^12",
    }
    ok = all(out[k]["symbolic"] == v for k, v in want.items())
    worst = max(rec["residual"] for rec in out.values())
    ok &= worst <= 1e-4 and elapsed < 30.0
    report(6, ok, f"all closed forms match, worst residual {worst:.2e} "
                  f"<= 1e-4, runtime {elapsed:.1f}s < 30s")
    assert ok, (worst, elapsed)


def test_criterion_7_geometry_suite():
    t0 = time.time()
    rep = geom_selftest()
    elapsed = time.time() - t0
    ok = bool(rep["pass"]) and elapsed < 60.0
    report(7, ok, f"residuals: busemann_limit {rep['busemann_limit']:.1e}, "
                  f"unit_speed {rep['geodesic_unit_speed']:.1e}, "
                  f"horoball {rep['horoball_distance']:.1e}; "
                  f"runtime {elapsed:.1f}s < 60s")
    assert ok, rep


def test_criterion_8_exact_arithmetic_suite(hur):
    import random
    t0 = time.time()
    ok = hur.reduced_discriminant == 2
    try:
        make_order(Algebra(-1, -1),
                   [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        ok = False
        lip = "accepted (wrong)"
    except OrderError:
        lip = "rejected"
    ok &= covolume(hur)[1] == Fraction(1, 2)
    ok &= len(units(hur)) == 24
    d3 = builtin_order("d3")
    ok &= covolume(d3)[1] == Fraction(3, 4)
    ok &= len(units(d3)) == 12
    rng = random.Random(42)
    pairs = 0
    while pairs < 100:
        u = hur.element(*[rng.randint(-3, 3) for _ in range(4)])
        v = hur.element(*[rng.randint(-3, 3) for _ in range(4)])
        if not any(u.coords) or not any(v.coords):
            continue
        lhs = ideal_inverse(hur, [u, v])
        rhs = hur.inv_principal_lattice(hur.to_quaternion(u)).intersect(
            hur.inv_principal_lattice(hur.to_quaternion(v)))
        ok &= lhs == rhs
        pairs += 1
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(8, ok, f"hurwitz maximal, lipschitz {lip}, covolumes D_A/4, "
                  f"|O^x|=24/12, ideal-inverse identity on {pairs} pairs, "
                  f"runtime {elapsed:.1f}s < 60s")
    assert ok
