"""The per-c orbit law against the scan, and its sum into kappa."""

from fractions import Fraction

import pytest

from heisquat.counting import (_c_list, _right_coset_representatives,
                               _scan_c, psi_count, scan)
from heisquat.heisenberg import FundamentalDomain, Triple, canonicalize, is_primitive
from heisquat.orbitlaw import (_maximal_left_ideals, local_orbit_count,
                               local_orbit_factor, mertens_euler_factor,
                               orbit_law)
from heisquat.orders import OrderElement, builtin_order, prime_factors


@pytest.mark.parametrize("name, s, count", [
    ("hurwitz", 16, 2592), ("d3", 16, 1884),
    # Pizer's orders (|O^x| = 6, 4, 4, 2; D = 11 has class number two), to
    # n(c) = 8 only, to keep the test short
    ("d5", 8, 306), ("d7", 8, 196), ("d11", 8, 136), ("d13", 8, 112),
], ids=["hurwitz", "d3", "d5", "d7", "d11", "d13"])
def test_orbit_law_matches_scan_for_every_c_up_to_16(name, s, count):
    order = builtin_order(name)
    checked = 0
    for rec in scan(order, s):
        local = 1
        for p in prime_factors(rec.nc):
            local *= local_orbit_count(order, rec.c, p)
        assert orbit_law(order, rec.c) == local == rec.count, (rec.c, rec.nc)
        checked += 1
    assert checked == count


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_orbit_law_matches_scan_on_coset_representatives_up_to_32(name):
    # the scan count is constant on each right coset c O^x
    # (tests/test_counting.py), so one c per coset covers every c
    order = builtin_order(name)
    fd = FundamentalDomain(order)
    reps = _right_coset_representatives(order, _c_list(order, 32))
    assert len(reps) == {"hurwitz": 417, "d3": 596}[name]
    for c in reps:
        rec = _scan_c(fd, c)
        assert orbit_law(order, c) == rec.count, (c, rec.nc)


def test_local_factor_values():
    # p not dividing D_A and c not in pO: p^3k (1 - p^-3)
    assert [local_orbit_factor(3, k) for k in (1, 2, 3)] == [26, 702, 18954]
    assert local_orbit_factor(5, 1) == 124
    # ramified: p^2 - 1, p^2 (p^3 - 1), then times p^5 per step of 2
    assert [local_orbit_factor(2, k, ramified=True) for k in (1, 2, 3, 4)] \
        == [3, 28, 96, 896]
    assert [local_orbit_factor(3, k, ramified=True) for k in (1, 2)] == [8, 234]
    # c = p u with u a unit at p
    assert local_orbit_factor(3, 2, 1) == 786
    assert local_orbit_factor(5, 2, 1) == 17380
    assert local_orbit_factor(2, 2, 1) == 58
    with pytest.raises(ValueError):
        local_orbit_factor(3, 1, 1)


def test_local_count_beyond_16():
    # j = 2 at p = 3 and a ramified k = 5 lie beyond n(c) <= 16
    hur, d3 = builtin_order("hurwitz"), builtin_order("d3")
    c = tuple(9 * x for x in (0, 1, 0, 0))             # 9i, n = 81
    assert local_orbit_count(hur, c, 3) == local_orbit_factor(3, 4, 2) == 595350
    c = tuple(4 * x for x in (0, 1, 1, 0))             # 4 (i + j), n = 32
    assert local_orbit_count(hur, c, 2) == local_orbit_factor(2, 5, ramified=True)
    assert orbit_law(d3, (4, 0, 0, 0)) == local_orbit_count(d3, (4, 0, 0, 0), 2) \
        == local_orbit_factor(2, 4, 2) == 3872                  # c = 4, n = 16


def test_maximal_left_ideals_of_O_mod_p():
    hur, d3 = builtin_order("hurwitz"), builtin_order("d3")
    assert [len(_maximal_left_ideals(hur, p)) for p in (2, 3, 5)] == [1, 4, 6]
    assert [len(_maximal_left_ideals(d3, p)) for p in (2, 3, 5)] == [3, 1, 6]


def _law_partial_sum(p, ramified, kmax):
    """(1 - 1/p) sum of f_p(I) N(I)^-5 over left ideals I of norm <= p^kmax."""
    total = Fraction(0)
    for k in range(kmax + 1):
        if ramified:
            total += Fraction(local_orbit_factor(p, k, ramified=True), p ** (5 * k))
            continue
        for j in range(k // 2 + 1):
            l = k - 2 * j
            ideals = 1 if l == 0 else p ** (l - 1) * (p + 1)
            total += Fraction(ideals * local_orbit_factor(p, k, j), p ** (5 * k))
    return (1 - Fraction(1, p)) * total


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("ramified", [False, True])
def test_euler_factor_is_the_sum_of_the_law(p, ramified):
    q = Fraction(1, p)
    factor = mertens_euler_factor(p, ramified)
    assert factor == ((1 + q ** 3) * (1 - q) if ramified
                      else (1 + q ** 2) * (1 - q ** 6))
    gaps = [factor - _law_partial_sum(p, ramified, kmax) for kmax in (8, 16, 24)]
    assert all(g > 0 for g in gaps)
    # the terms decay like p^-k, so the gap shrinks by about p^-8 per step
    assert gaps[2] < gaps[1] * 2 * q ** 8 and gaps[1] < gaps[0] * 2 * q ** 8


@pytest.mark.parametrize("name, s", [("hurwitz", 2), ("d3", 3)])
def test_diagonal_units_permute_the_orbits(name, s):
    # diag(u, v, u), u and v units, sends (a, alpha, c) to (u a, v alpha, u c).
    # It keeps the trace relation, primitivity and n(c) and normalises N(O),
    # so it permutes the N(O)-orbits.  Shears fix c, so only u = 1 can fix
    # an orbit, and then (v - 1) alpha lies in Oc: O(s^3) orbits up to s.
    # Orbits of N(O) extended by these |O^x|^2 elements thus number
    # Psi(s)/|O^x|^2 + O(s^3), with leading constant kappa/|O^x|^2.
    order = builtin_order(name)
    fd = FundamentalDomain(order)
    units = [u.coords for u in order.units]
    count, reps = psi_count(order, s)
    keys = {t.coords() for t in reps}
    seen = set()
    for t in reps:
        if t.coords() in seen:
            continue
        for u in units:
            for v in units:
                image = Triple(OrderElement(order.mul(u, t.a.coords)),
                               OrderElement(order.mul(v, t.alpha.coords)),
                               OrderElement(order.mul(u, t.c.coords)))
                assert is_primitive(order, image)
                key = canonicalize(order, image, fd)[0].coords()
                assert key in keys
                seen.add(key)
    assert len(seen) == count
