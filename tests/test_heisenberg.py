import random
from fractions import Fraction

import numpy as np
import pytest

from heisquat.counting import _c_list, _right_coset_representatives, _scan_c
from heisquat.heisenberg import (FundamentalDomain, HeisError, HeisPoint, Triple,
                                 canonical_rows, canonicalize, cygan_dist4, haar_mass_check,
                                 heis_inv, heis_mul, heis_point_of_triple,
                                 in_fundamental_domain, in_lattice, is_admissible,
                                 is_primitive, random_lattice_point, shear)
from heisquat.orders import builtin_order


@pytest.fixture(scope="module")
def hur():
    return builtin_order("hurwitz")


@pytest.fixture(scope="module")
def fd(hur):
    return FundamentalDomain(hur)


def rand_heis_point(alg, rng, den=4, span=9):
    w = alg.quat(*[Fraction(rng.randint(-span, span), rng.randint(1, den))
                   for _ in range(4)])
    n = w.norm()
    w0 = alg.quat(Fraction(n, 2), Fraction(rng.randint(-span, span), 3),
                  Fraction(rng.randint(-span, span), 3),
                  Fraction(rng.randint(-span, span), 3))
    return HeisPoint(w0, w)


def test_relation_enforced(hur):
    alg = hur.algebra
    with pytest.raises(HeisError, match="not a Heisenberg point"):
        HeisPoint(alg.quat(Fraction(1, 2), 0, 0, 0), alg.quat(2, 0, 0, 0))


def test_identity_and_example(hur):
    alg = hur.algebra
    zero = alg.quat(0, 0, 0, 0)
    e = HeisPoint(zero, zero)
    assert heis_mul(e, e) == e
    p = HeisPoint(alg.quat(Fraction(1, 2), 0, 0, 0), alg.one)
    pp = heis_mul(p, p)
    assert pp.w0 == alg.quat(2, 0, 0, 0) and pp.w == alg.quat(2, 0, 0, 0)
    assert pp.w0.trace() == 4 == pp.w.norm()
    assert heis_mul(p, heis_inv(p)) == e


def test_group_axioms_random(hur):
    alg = hur.algebra
    rng = random.Random(2)
    zero = alg.quat(0, 0, 0, 0)
    e = HeisPoint(zero, zero)
    for _ in range(100):
        p, q, r = (rand_heis_point(alg, rng) for _ in range(3))
        assert heis_mul(heis_mul(p, q), r) == heis_mul(p, heis_mul(q, r))
        assert heis_mul(p, heis_inv(p)) == e
        assert heis_mul(heis_inv(p), p) == e


def test_cygan_examples(hur):
    alg = hur.algebra
    zero = alg.quat(0, 0, 0, 0)
    assert cygan_dist4((alg.one, zero, 0), (zero, zero, 0)) == 1
    assert cygan_dist4((zero, zero, 1), (zero, zero, 0)) == 1
    # d((zeta,u),(0,0))^4 = n(zeta)^2 + n(u)
    z = alg.quat(1, 2, 0, 1)
    u = alg.quat(0, 3, -1, 2)
    assert cygan_dist4((z, u, 0), (zero, zero, 0)) == z.norm() ** 2 + u.norm()


def test_cygan_left_invariance_and_symmetry(hur):
    alg = hur.algebra
    rng = random.Random(3)
    for _ in range(100):
        g = random_lattice_point(hur, rng, 3)
        p, q = rand_heis_point(alg, rng), rand_heis_point(alg, rng)
        assert cygan_dist4(heis_mul(g, p), heis_mul(g, q)) == cygan_dist4(p, q)
        assert cygan_dist4(p, q) == cygan_dist4(q, p)


def test_in_lattice(hur):
    alg = hur.algebra
    zero = alg.quat(0, 0, 0, 0)
    om = alg.quat(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert in_lattice(hur, HeisPoint(zero, zero))
    assert in_lattice(hur, HeisPoint(om, alg.one))
    assert not in_lattice(hur, HeisPoint(alg.quat(Fraction(1, 2), 0, 0, 0), alg.one))


def test_shear_examples(hur, fd):
    alg = hur.algebra
    zero4 = hur.element(0, 0, 0, 0)
    one = hur.element_of(alg.one)
    t0 = Triple(zero4, zero4, one)
    e = HeisPoint(alg.quat(0, 0, 0, 0), alg.quat(0, 0, 0, 0))
    assert shear(hur, e, t0) == t0
    g = HeisPoint(alg.i, alg.quat(0, 0, 0, 0))
    t1 = shear(hur, g, t0)
    assert hur.to_quaternion(t1.a) == alg.i
    assert t1.alpha == zero4 and t1.c == one
    with pytest.raises(HeisError):
        shear(hur, HeisPoint(alg.quat(Fraction(1, 2), 0, 0, 0),
                             alg.quat(0, 0, 0, 0)), t0)


def test_shear_preserves_predicates(hur):
    alg = hur.algebra
    rng = random.Random(5)
    base = Triple(hur.element_of(alg.one), hur.element_of(1 + alg.i),
                  hur.element_of(1 - alg.i))
    assert is_admissible(hur, base) and is_primitive(hur, base)
    for _ in range(100):
        g = random_lattice_point(hur, rng, 4)
        t = shear(hur, g, base)
        assert is_admissible(hur, t)
        assert is_primitive(hur, t)
        # translation compatibility down in the Heisenberg group
        assert heis_point_of_triple(hur, t) == heis_mul(g, heis_point_of_triple(hur, base))


def test_heis_point_of_triple_examples(hur):
    alg = hur.algebra
    zero4 = hur.element(0, 0, 0, 0)
    one = hur.element_of(alg.one)
    p = heis_point_of_triple(hur, Triple(zero4, zero4, one))
    assert p.w0.is_zero() and p.w.is_zero()
    p = heis_point_of_triple(hur, Triple(hur.element_of(alg.i), zero4, one))
    assert p.w0 == alg.i
    # the worked example (1, 1+i, 1-i): point ((1+i)/2, i), relation re-checked
    t = Triple(hur.element_of(alg.one), hur.element_of(1 + alg.i),
               hur.element_of(1 - alg.i))
    pt = heis_point_of_triple(hur, t)
    assert pt.w0 == alg.quat(Fraction(1, 2), Fraction(1, 2), 0, 0)
    assert pt.w == alg.i
    assert pt.w0.trace() == pt.w.norm()


def test_heis_point_unit_scaling_invariance(hur):
    t = Triple(hur.element_of(hur.algebra.one), hur.element_of(1 + hur.algebra.i),
               hur.element_of(1 - hur.algebra.i))
    pt = heis_point_of_triple(hur, t)
    for lam in hur.units:
        scaled = Triple(hur.element(hur.mul(t.a, lam)),
                        hur.element(hur.mul(t.alpha, lam)),
                        hur.element(hur.mul(t.c, lam)))
        assert heis_point_of_triple(hur, scaled) == pt


def test_fundamental_domain_bounds(hur, fd):
    assert fd.R4 == 7   # max norm over the closed Hurwitz basis cell vertices
    assert fd.R3 == 12  # max norm over the closed 2*Im(O) cell vertices


def test_canonicalize_examples(hur, fd):
    alg = hur.algebra
    zero4 = hur.element(0, 0, 0, 0)
    one = hur.element_of(alg.one)
    t0 = Triple(zero4, zero4, one)
    assert in_fundamental_domain(hur, t0, fd)
    assert canonicalize(hur, t0, fd)[0] == t0
    g = HeisPoint(alg.i, alg.quat(0, 0, 0, 0))
    t1 = shear(hur, g, t0)
    assert not in_fundamental_domain(hur, t1, fd)
    assert canonicalize(hur, t1, fd)[0] == t0


def test_canonicalize_orbit_constant_and_idempotent(hur, fd):
    rng = random.Random(9)
    base = Triple(hur.element_of(hur.algebra.one), hur.element_of(1 + hur.algebra.i),
                  hur.element_of(1 - hur.algebra.i))
    ref, pt = canonicalize(hur, base, fd)
    assert in_fundamental_domain(hur, ref, fd)
    assert canonicalize(hur, ref, fd)[0] == ref
    for _ in range(500):
        g = random_lattice_point(hur, rng, 5)
        assert canonicalize(hur, shear(hur, g, base), fd)[0] == ref


def test_exactly_one_in_domain_per_orbit_slice(hur, fd):
    # brute-force orbit slice: shear the canonical rep by a window of g's
    base, _ = canonicalize(hur, Triple(hur.element_of(hur.algebra.one),
                                       hur.element_of(1 + hur.algebra.i),
                                       hur.element_of(1 - hur.algebra.i)), fd)
    alg = hur.algebra
    hits = 0
    seen = set()
    for w_coord in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 1, 0)):
        for v_im in ((0, 0, 0), (1, 0, 0), (0, -1, 1)):
            w = hur.to_quaternion(w_coord)
            nw = hur.norm(w_coord)
            w0c = [nw * h for h in hur.trace_one.coords]
            for idx in range(3):
                for pos in range(4):
                    w0c[pos] += v_im[idx] * hur.im_basis[idx][pos]
            g = HeisPoint(hur.to_quaternion(tuple(w0c)), w)
            t = shear(hur, g, base)
            assert t.coords() not in seen
            seen.add(t.coords())
            hits += in_fundamental_domain(hur, t, fd)
    assert hits == 1


BUILTIN = ["hurwitz", "d3", "d5", "d7", "d11", "d13"]


@pytest.mark.parametrize("name", BUILTIN)
def test_canonical_rows_equal_canonicalize_on_sheared_triples(name):
    # 60 kept triples of the scan, each moved by a random element of N(O)
    order = builtin_order(name)
    fd = FundamentalDomain(order)
    rng = random.Random(name)
    recs = [rec for rec in map(lambda c: _scan_c(fd, c), _c_list(order, 8)) if rec.count]
    for _ in range(60):
        rec = rng.choice(recs)
        r = rng.randrange(rec.count)
        t = shear(order, random_lattice_point(order, rng, 6),
                  Triple(*(order.element(x) for x in (rec.a[r], rec.alpha[r], rec.c))))
        want = canonicalize(order, t, fd)[0]
        A, X = canonical_rows(fd, np.array(rec.c, np.int64), np.array([t.a.coords], np.int64),
                              np.array([t.alpha.coords], np.int64))
        assert (A[0].tolist(), X[0].tolist()) == (list(want.a.coords), list(want.alpha.coords))


@pytest.mark.parametrize("name, kept", [("hurwitz", 4024), ("d3", 10792), ("d5", 12184),
                                        ("d7", 10216), ("d11", 7694), ("d13", 12904)])
def test_canonical_rows_fix_every_kept_triple_of_the_scan(name, kept):
    # every right coset representative with n(c) <= 8: the scan keeps
    # only canonical triples, one per orbit
    fd = FundamentalDomain(builtin_order(name))
    fixed = 0
    for c in _right_coset_representatives(fd.order, _c_list(fd.order, 8)):
        rec = _scan_c(fd, c)
        A, X = canonical_rows(fd, c, rec.a, rec.alpha)
        assert np.array_equal(A, rec.a) and np.array_equal(X, rec.alpha)
        fixed += rec.count
    assert fixed == kept


def test_canonical_rows_stay_in_int64(hur, fd):
    # a kept triple sheared by a w of coordinates near 2^20 has an a near
    # 2^42, in range: it comes back to itself.  An alpha at 2^61, or an a
    # at 2^62, leaves the guarded range
    c = _c_list(hur, 2)[-1]
    rec = _scan_c(fd, c)
    wc = (2 ** 20, -(2 ** 19), 3, 2 ** 18)
    w0c = [hur.norm(wc) * h for h in hur.trace_one.coords]
    t = shear(hur, HeisPoint(hur.to_quaternion(w0c), hur.to_quaternion(wc)),
              Triple(*(hur.element(x) for x in (rec.a[-1], rec.alpha[-1], c))))
    assert max(map(abs, t.a.coords)) > 2 ** 40
    A, X = canonical_rows(fd, c, np.array([t.a.coords]), np.array([t.alpha.coords]))
    assert (A.tolist(), X.tolist()) == ([rec.a[-1].tolist()], [rec.alpha[-1].tolist()])
    zero = np.zeros((1, 4), np.int64)
    big = np.array([[2 ** 61, 0, 0, 0]], np.int64)
    for A, X in ((zero, big), (2 * big, zero)):
        with pytest.raises(AssertionError, match="leave int64"):
            canonical_rows(fd, c, A, X)


def test_inadmissible_rejected(hur):
    bad = Triple(hur.element_of(hur.algebra.one), hur.element_of(hur.algebra.one),
                 hur.element_of(hur.algebra.quat(3, 0, 0, 0)))
    assert not is_admissible(hur, bad)
    with pytest.raises(HeisError, match="inadmissible"):
        canonicalize(hur, bad)
    assert not in_fundamental_domain(hur, bad)


def test_triple_requires_nonzero_c(hur):
    z = hur.element(0, 0, 0, 0)
    with pytest.raises(HeisError, match="c != 0"):
        Triple(z, z, z)


def test_haar_mass(hur):
    assert haar_mass_check(hur) == 1
    assert haar_mass_check(builtin_order("d3")) == Fraction(9, 4)
    assert haar_mass_check(hur) == 4 * hur.covolume_sq
