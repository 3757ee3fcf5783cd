import json
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heisquat import orders
from heisquat.heisenberg import FundamentalDomain, haar_mass_check
from heisquat.lattices import RatLattice, kernel_basis
from heisquat.orders import (BUILTIN_ORDERS, Algebra, OrderElement, OrderError,
                             algebra_discriminant, builtin_order, covolume,
                             enumerate_by_norm, hilbert_symbol, ideal_inverse,
                             lattice_covolume_sq, left_ideal_is_full,
                             load_order_spec, make_order, order_spec_from_dict, units)

LIPSCHITZ = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
# the order itself, in order coordinates
IDENTITY_ROWS = [[int(r == c) for c in range(4)] for r in range(4)]


@pytest.fixture(scope="module")
def hur():
    return builtin_order("hurwitz")


@pytest.fixture(scope="module")
def d3():
    return builtin_order("d3")


def test_hilbert_symbols():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(-1, -3, 3) == -1
    assert hilbert_symbol(-1, -3, 2) == 1
    assert algebra_discriminant(Algebra(-1, -1)) == 2
    assert algebra_discriminant(Algebra(-1, -3)) == 3
    assert algebra_discriminant(Algebra(-2, -5)) == 5


def test_hurwitz_valid(hur):
    assert hur.reduced_discriminant == 2
    sq, root = covolume(hur)
    assert root == Fraction(1, 2) and sq == Fraction(1, 4)
    assert len(units(hur)) == 24


def test_lipschitz_rejected():
    with pytest.raises(OrderError, match="not maximal"):
        make_order(Algebra(-1, -1), LIPSCHITZ)


def test_lipschitz_discriminant_is_four():
    # Gram-determinant oracle: |det trd(e_i e_j)| = 16 for 1,i,j,k, so the
    # reduced discriminant of the Lipschitz order is 4, not D_A = 2
    alg = Algebra(-1, -1)
    quats = [alg.one, alg.i, alg.j, alg.k]
    m = [[int((quats[i] * quats[j]).trace()) for j in range(4)] for i in range(4)]
    assert m == [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]
    from heisquat.lattices import det_int
    assert abs(det_int(m)) == 16
    assert int(abs(det_int(m)) ** 0.5) == 4


def test_not_a_ring_rejected():
    basis = [[1, 0, 0, 0], [0, Fraction(1, 3), 0, 0],
             [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(OrderError):
        make_order(Algebra(-1, -1), basis)


def test_not_unital_rejected():
    basis = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    with pytest.raises(OrderError, match="not unital"):
        make_order(Algebra(-1, -1), basis)


def test_d3_builtin(d3):
    assert d3.D_A == 3
    assert d3.reduced_discriminant == 3
    assert covolume(d3)[1] == Fraction(3, 4)
    assert len(units(d3)) == 12


@pytest.mark.parametrize("D, name, algebra, gram2, n_units, R4, R3, mass", [
    (2, "hurwitz", (-1, -1),
     ((2, 1, 1, 1), (1, 2, 0, 0), (1, 0, 2, 0), (1, 0, 0, 2)), 24, 7, 12, 1),
    (3, "d3", (-1, -3),
     ((2, 0, 0, 1), (0, 2, 1, 0), (0, 1, 2, 0), (1, 0, 0, 2)), 12, 6, 24, Fraction(9, 4)),
    (7, "d7", (-1, -7),
     ((2, 0, 1, 0), (0, 2, 0, 1), (1, 0, 4, 0), (0, 1, 0, 4)), 4, 8, 44, Fraction(49, 4)),
    (11, "d11", (-1, -11),
     ((2, 0, 1, 0), (0, 2, 0, 1), (1, 0, 6, 0), (0, 1, 0, 6)), 4, 10, 64, Fraction(121, 4)),
    (5, "d5", (-2, -5),
     ((8, 5, 5, 10), (5, 4, 5, 5), (5, 5, 10, 0), (10, 5, 0, 20)), 6, 51, 108, Fraction(25, 4)),
    (13, "d13", (-2, -13),
     ((20, 13, 13, 26), (13, 10, 13, 13), (13, 13, 26, 0), (26, 13, 0, 52)),
     2, 132, 280, Fraction(169, 4)),
], ids=["hurwitz", "d3", "D7", "D11", "D5", "D13"])
def test_order_tables_pinned(D, name, algebra, gram2, n_units, R4, R3, mass):
    # the packaged specs: Hurwitz, d3 and Pizer's maximal orders for D = 7,
    # 11 ((-1,-p): 1, i, (1+j)/2, (i+k)/2) and D = 5, 13 ((-2,-p):
    # (1+j+k)/2, (i+2j+k)/4, j, k)
    order = builtin_order(name)
    fd = FundamentalDomain(order)
    assert (order.algebra.a, order.algebra.b) == algebra
    assert order.reduced_discriminant == order.D_A == D
    assert order.gram2 == gram2
    assert len(units(order)) == n_units
    assert (fd.R4, fd.R3) == (R4, R3)
    assert haar_mass_check(order) == mass


def test_every_builtin_name_has_a_spec_file_and_every_spec_file_a_name():
    # files only: no dangling name in BUILTIN_ORDERS, no orphan spec in data/
    data = Path(orders.__file__).parent / "data"
    assert all(name == name.lower() for name in BUILTIN_ORDERS)
    assert {path.name for path in data.glob("order_*.json")} \
        == {f"order_{stem}.json" for stem in BUILTIN_ORDERS.values()}


def test_covolume_scaling(hur):
    rows = [[2 * x for x in row] for row in hur.basis]
    assert lattice_covolume_sq(hur.algebra, rows) == 256 * hur.covolume_sq


def test_units_form_a_group(hur, d3):
    for order in (hur, d3):
        us = {u.coords for u in units(order)}
        one = order.one_coords
        assert one in us and tuple(-x for x in one) in us
        for u in us:
            assert order.conj(u) in us  # inverse of a unit is its conjugate
            for v in list(us)[:6]:
                assert order.mul(u, v) in us


def test_enumerate_by_norm_counts(hur):
    assert enumerate_by_norm(hur, Fraction(1, 2)).shape == (0, 4)
    assert len(enumerate_by_norm(hur, 1)) == 24
    two = enumerate_by_norm(hur, 2).tolist()
    assert len(two) == 48
    assert sum(1 for c in two if hur.norm(c) == 2) == 24
    assert two == sorted(two)  # lexicographic order


def test_enumerate_by_norm_against_box_scan(hur, d3):
    # independent oracle: scan a coordinate box and compare sets
    for order, bound, radius in ((hur, 4, 5), (d3, 4, 5)):
        expect = set()
        for x0 in range(-radius, radius + 1):
            for x1 in range(-radius, radius + 1):
                for x2 in range(-radius, radius + 1):
                    for x3 in range(-radius, radius + 1):
                        c = (x0, x1, x2, x3)
                        if 0 < order.norm(c) <= bound:
                            expect.add(c)
        got = set(map(tuple, enumerate_by_norm(order, bound).tolist()))
        assert got == expect


def _sigma(n, odd_only=False):
    return sum(d for d in range(1, n + 1)
               if n % d == 0 and not (odd_only and d % 2 == 0))


@pytest.mark.parametrize("bound", [1, 2, Fraction(5, 2), 7, 16, 61, 64])
def test_enumerate_by_norm_against_theta_series(hur, d3, bound):
    # r(n) = #{x in O : n(x) = n}: the theta series of each order
    def r_hurwitz(n):
        return 24 * _sigma(n, odd_only=True)

    def r_d3(n):
        return 12 * (_sigma(n) - (3 * _sigma(n // 3) if n % 3 == 0 else 0))

    for order, r in ((hur, r_hurwitz), (d3, r_d3)):
        expect = sum(r(n) for n in range(1, int(bound) + 1))
        assert len(enumerate_by_norm(order, bound)) == expect


def test_trace_one_element(hur, d3):
    assert hur.trace(hur.trace_one) == 1
    assert d3.trace(d3.trace_one) == 1


def test_trace_one_and_trace_kernel_of_a_large_discriminant_order():
    # the maximal order Z<1, i, (1+j)/2, (i+k)/2> for p = 10007 = 3 mod 4:
    # every element of trace 1 has norm at least p/4
    h = Fraction(1, 2)
    order = make_order(Algebra(-1, -10007),
                       [[1, 0, 0, 0], [0, 1, 0, 0], [h, 0, h, 0], [0, h, 0, h]])
    assert order.D_A == 10007
    assert order.trace(order.trace_one) == 1
    ker = kernel_basis([[t] for t in order.trace_vec])
    assert order.im_basis == tuple(tuple(r) for r in ker)


def test_imaginary_sublattice(hur):
    # Im O = Zi + Zj + Zk: coordinates (0,*,*,*) in the basis (omega,i,j,k)
    assert hur.im_basis == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for order in (hur, builtin_order("d3")):
        assert len(order.im_basis) == 3
        for row in order.im_basis:
            assert order.trace(row) == 0


def test_left_ideal_full_examples(hur):
    alg = hur.algebra
    one = hur.element_of(alg.one)
    two = hur.element_of(alg.quat(2, 0, 0, 0))
    opi = hur.element_of(1 + alg.i)
    assert left_ideal_is_full(hur, [one])
    assert not left_ideal_is_full(hur, [two, opi])  # 2 = -i (1+i)^2
    assert not left_ideal_is_full(hur, [hur.element(0, 0, 0, 0)])
    with pytest.raises(ValueError):
        left_ideal_is_full(hur, [])


def test_left_ideal_full_unit_and_permutation_invariance(hur):
    # right multiplication of the generators by a common unit maps the left
    # ideal to an isomorphic one (I -> I lambda), preserving fullness
    rng = random.Random(11)
    us = units(hur)
    for _ in range(40):
        gens = [hur.element(*[rng.randint(-3, 3) for _ in range(4)])
                for _ in range(3)]
        if not any(any(g.coords) for g in gens):
            continue
        base = left_ideal_is_full(hur, gens)
        lam = rng.choice(us)
        scaled = [OrderElement(hur.mul(g, lam)) for g in gens]
        assert left_ideal_is_full(hur, scaled) == base
        rng.shuffle(gens)
        assert left_ideal_is_full(hur, gens) == base


def test_ideal_inverse_examples(hur):
    alg = hur.algebra
    one = hur.element_of(alg.one)
    opi = hur.element_of(1 + alg.i)
    two = hur.element_of(alg.quat(2, 0, 0, 0))
    assert ideal_inverse(hur, [one]) == RatLattice.from_int_rows(IDENTITY_ROWS)
    assert ideal_inverse(hur, [opi]) == hur.inv_principal_lattice(1 + alg.i)
    got = ideal_inverse(hur, [two, opi])
    expect = hur.inv_principal_lattice(alg.quat(2, 0, 0, 0)).intersect(
        hur.inv_principal_lattice(1 + alg.i))
    assert got == expect


def test_ideal_inverse_identity_random_pairs(hur):
    # Eq-style identity (Ou + Ov)^-1 = u^-1 O cap v^-1 O on 100 random pairs
    rng = random.Random(7)
    done = 0
    while done < 100:
        u = hur.element(*[rng.randint(-3, 3) for _ in range(4)])
        v = hur.element(*[rng.randint(-3, 3) for _ in range(4)])
        if not any(u.coords) or not any(v.coords):
            continue
        lhs = ideal_inverse(hur, [u, v])
        rhs = hur.inv_principal_lattice(hur.to_quaternion(u)).intersect(
            hur.inv_principal_lattice(hur.to_quaternion(v)))
        assert lhs == rhs
        done += 1


def test_ideal_inverse_rank_deficient(hur):
    with pytest.raises(OrderError, match="not a fractional ideal"):
        # a single generator 0 has rank 0
        ideal_inverse(hur, [hur.element(0, 0, 0, 0)])


def test_order_spec_file_roundtrip(tmp_path, hur):
    spec = {
        "name": "hurwitz-copy",
        "a": -1, "b": -1,
        "basis": [[[x.numerator, x.denominator] for x in row] for row in hur.basis],
    }
    path = tmp_path / "ord.json"
    path.write_text(json.dumps(spec))
    loaded = load_order_spec(path)
    assert loaded.D_A == 2 and len(units(loaded)) == 24


def test_order_spec_rejects_floats():
    spec = {"name": "bad", "a": -1, "b": -1,
            "basis": [[[0.5, 1]] + [[0, 1]] * 3] + [[[0, 1]] * 4] * 3}
    with pytest.raises(OrderError, match="integer"):
        order_spec_from_dict(spec)
    with pytest.raises(OrderError):
        order_spec_from_dict({"name": "x", "a": -1.0, "b": -1, "basis": []})


def test_order_spec_rejects_zero_denominator():
    spec = {"name": "bad", "a": -1, "b": -1,
            "basis": [[[1, 0]] + [[0, 1]] * 3] + [[[0, 1]] * 4] * 3}
    with pytest.raises(OrderError, match="denominator"):
        order_spec_from_dict(spec)


def test_element_roundtrip(hur, d3):
    rng = random.Random(13)
    for order in (hur, d3):
        for _ in range(50):
            coords = tuple(rng.randint(-9, 9) for _ in range(4))
            q = order.to_quaternion(coords)
            assert order.coords_of(q) == coords
            # arithmetic consistency between coordinates and quaternions
            other = tuple(rng.randint(-9, 9) for _ in range(4))
            qo = order.to_quaternion(other)
            assert order.to_quaternion(order.mul(coords, other)) == q * qo
            assert order.norm(coords) == q.norm()
            assert order.trace(coords) == q.trace()
            assert order.to_quaternion(order.conj(coords)) == q.conj()


# -- the batched int64 arithmetic against the exact scalar methods

COORDS = st.tuples(*[st.integers(-60, 60)] * 4)
# the oracle's key-packing range, which bounds every coordinate it forms
KEY = 2 ** 14 - 1
ROWS = COORDS | st.tuples(*[st.integers(-KEY, KEY)] * 4)


@lru_cache(maxsize=None)
def _domain(name):
    return FundamentalDomain(builtin_order(name))


@given(st.sampled_from(["hurwitz", "d3"]),
       st.lists(st.tuples(ROWS, ROWS), min_size=1, max_size=6))
@example("hurwitz", [((KEY, -KEY, KEY, -KEY), (KEY,) * 4), ((-KEY,) * 4, (0, KEY, 0, -KEY))])
@example("d3", [((KEY,) * 4, (-KEY, KEY, -KEY, KEY)), ((-KEY, 0, KEY, -KEY), (KEY,) * 4)])
def test_batched_arithmetic_matches_scalar(name, pairs):
    fd = _domain(name)
    order = fd.order
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    X, Y = np.array(xs, np.int64), np.array(ys, np.int64)
    assert order.norms(X).tolist() == [order.norm(x) for x in xs]
    assert order.conjugates(X).tolist() == [list(order.conj(x)) for x in xs]
    assert order.mul_rows(X, Y).tolist() == [list(order.mul(x, y)) for x, y in pairs]
    stack, left = order.right_mul(Y), order.left_mul(Y)
    assert (X[:, None] @ left)[:, 0].tolist() == [list(order.mul(y, x)) for x, y in pairs]
    for r, (x, y) in enumerate(pairs):
        assert int(order.norms(X[r])) == order.norm(x)
        assert order.conjugates(X[r]).tolist() == list(order.conj(x))
        R = order.right_mul(Y[r])
        assert (stack[r] == R).all()
        assert (X[r] @ R).tolist() == list(order.mul(x, y))
        L = order.left_mul(Y[r])
        assert (left[r] == L).all()
        assert (X[r] @ L).tolist() == list(order.mul(y, x))
        assert int(X[r] @ order.trace_pairing(Y[r])) \
            == order.trace(order.mul(order.conj(x), y))
        u = 2 * order.to_quaternion(x).imag()
        cell3 = tuple(Fraction(int(v), fd.cell3_den) for v in X[r] @ fd.cell3_num)
        assert cell3 == fd.cell3_coords(u)
