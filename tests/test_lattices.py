import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heisquat.lattices import (MILLER_RABIN_BOUND, RatLattice, adjugate, det_int, hnf,
                               hnf_in_span, hnf_transform, kernel_basis,
                               clear_denominators, mat_frac_inverse, mat_mul,
                               prime_factors, solve_integer)


def test_hnf_identity():
    ident = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert hnf(ident) == ident


def test_hnf_hand_example():
    # {(2,0),(1,1)} spans the same lattice as {(1,1),(0,2)}
    assert hnf([(2, 0), (1, 1)]) == [[1, 1], [0, 2]]


def test_hnf_duplicates_collapse():
    rows = [(2, 1, 0), (4, 0, 1)]
    assert hnf(list(rows) + list(rows)) == hnf(rows)


def test_hnf_zero_rows():
    assert hnf([(0, 0), (0, 0)]) == []
    assert hnf([]) == []


def test_hnf_canonical_under_row_operations():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
        h1 = hnf(rows)
        mixed = [r[:] for r in rows]
        for _ in range(8):
            a, b = rng.randrange(m), rng.randrange(m)
            if a != b:
                q = rng.randint(-3, 3)
                mixed[a] = [x + q * y for x, y in zip(mixed[a], mixed[b])]
            rng.shuffle(mixed)
        assert hnf(mixed) == h1
        assert hnf(h1) == h1  # idempotent
        for r in rows:
            assert hnf_in_span(h1, r)  # span-preserving


def test_hnf_reduced_above_pivots():
    rng = random.Random(1)
    for _ in range(100):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        h = hnf(rows)
        for i, row in enumerate(h):
            c = next(t for t in range(4) if row[t])
            assert row[c] > 0
            for above in h[:i]:
                assert 0 <= above[c] < row[c]


def test_kernel_basis():
    ker = kernel_basis([[2], [4], [0], [-2]])
    assert len(ker) == 3
    for row in ker:
        assert 2 * row[0] + 4 * row[1] + 0 * row[2] - 2 * row[3] == 0


def test_solve_integer():
    mat = [[2], [3]]
    x = solve_integer(mat, [1])
    assert x is not None and 2 * x[0] + 3 * x[1] == 1
    assert solve_integer([[2], [4]], [3]) is None


def test_det_and_adjugate():
    rng = random.Random(2)
    for _ in range(50):
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        d = det_int(m)
        adj = adjugate(m)
        prod = [[sum(m[r][t] * adj[t][c] for t in range(4)) for c in range(4)]
                for r in range(4)]
        assert prod == [[d if r == c else 0 for c in range(4)] for r in range(4)]


def test_frac_inverse():
    m = [[Fraction(1, 2), 1], [0, Fraction(3)]]
    inv = mat_frac_inverse(m)
    assert inv == [[Fraction(2), Fraction(-2, 3)], [0, Fraction(1, 3)]]
    with pytest.raises(ValueError):
        mat_frac_inverse([[1, 2], [2, 4]])


# -- the fraction-free Gauss-Jordan pass: det_int, adjugate, mat_frac_inverse


def _leibniz(mat):
    """det(mat) as the sum over permutations: the reference."""
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(mat[i][perm[i]] for i in range(n))
    return total


def test_det_int_equals_the_leibniz_sum():
    rng = random.Random(4)
    dets = []
    for n in range(6):
        for _ in range(40):
            mat = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            dets.append(det_int(mat))
            assert dets[-1] == _leibniz(mat), mat
    assert 0 in dets and len(set(dets)) > 10  # singular ones drawn too


def test_adjugate_of_random_integer_matrices():
    rng = random.Random(5)
    singular = 0
    for n in range(1, 6):
        for _ in range(40):
            mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            d = det_int(mat)
            if d == 0:
                singular += 1
                with pytest.raises(ValueError):
                    adjugate(mat)
                continue
            assert mat_mul(mat, adjugate(mat)) == [[d * (r == c) for c in range(n)]
                                                   for r in range(n)]
    assert singular > 0


def test_adjugate_edge_cases():
    assert adjugate([[7]]) == [[1]]
    assert adjugate([[0, 2], [3, 1]]) == [[1, -2], [-3, 0]]  # a row swap
    for singular in ([[0]], [[1, 2], [2, 4]]):
        with pytest.raises(ValueError):
            adjugate(singular)


def test_frac_inverse_of_random_rational_matrices():
    rng = random.Random(6)
    for n in range(1, 6):
        ident = [[int(r == c) for c in range(n)] for r in range(n)]
        for _ in range(30):
            mat = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                   for _ in range(n)]
            try:
                inv = mat_frac_inverse(mat)
            except ValueError:
                assert det_int(clear_denominators(mat)[0]) == 0
                continue
            assert mat_mul(inv, mat) == mat_mul(mat, inv) == ident


def test_int_lattice_membership():
    rows = hnf([(2, 0), (0, 3)])
    assert hnf_in_span(rows, (4, 3))
    assert not hnf_in_span(rows, (1, 0))
    assert len(rows) == 2


def test_rat_lattice_roundtrips():
    rl = RatLattice.from_frac_rows([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert rl.contains_frac([Fraction(5, 2), Fraction(2, 3)])
    assert not rl.contains_frac([Fraction(1, 4), 0])
    # dual of dual is the lattice itself
    assert rl.dual().dual() == rl


def test_rat_lattice_intersection():
    a = RatLattice.from_frac_rows([[Fraction(1, 2), 0], [0, 1]])
    b = RatLattice.from_frac_rows([[Fraction(1, 3), 0], [0, 1]])
    both = a.intersect(b)
    # (1/2)Z cap (1/3)Z = Z on the first axis
    assert both == RatLattice.from_frac_rows([[1, 0], [0, 1]])


def test_rat_lattice_intersection_randomised():
    rng = random.Random(3)
    for _ in range(40):
        rows_a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                  for _ in range(3)]
        rows_b = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                  for _ in range(3)]
        try:
            a = RatLattice.from_frac_rows(rows_a)
            b = RatLattice.from_frac_rows(rows_b)
            if a.rank < 3 or b.rank < 3:
                continue
            inter = a.intersect(b)
        except ValueError:
            continue
        for r in inter.frac_rows():
            assert a.contains_frac(r) and b.contains_frac(r)


# -- properties of the one elimination kernel


@st.composite
def matrices(draw, max_rows=5, max_cols=4, bound=9):
    n = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=1, max_size=max_rows))


def _times(x, mat):
    return [sum(x[r] * mat[r][c] for r in range(len(mat))) for c in range(len(mat[0]))]


@given(matrices(), st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                      st.integers(-3, 3)), max_size=10))
def test_hnf_idempotent_and_invariant_under_unimodular_rows(mat, ops):
    h = hnf(mat)
    assert hnf(h) == h
    mixed = [r[:] for r in mat]
    m = len(mixed)
    for a, b, q in ops:
        a, b = a % m, b % m
        if a == b:  # negate a row
            mixed[a] = [-x for x in mixed[a]]
        else:  # add q times row b to row a, then swap the two
            mixed[a] = [x + q * y for x, y in zip(mixed[a], mixed[b])]
            mixed[a], mixed[b] = mixed[b], mixed[a]
    assert hnf(mixed) == h


@given(matrices())
def test_hnf_transform_is_unimodular_and_gives_the_hnf(mat):
    H, U = hnf_transform(mat)
    assert [_times(u, mat) for u in U] == H
    assert abs(det_int(U)) == 1
    # the nonzero rows of H are hnf(mat), the rest of U spans the kernel
    h = hnf(mat)
    assert H[:len(h)] == h
    assert not any(map(any, H[len(h):]))
    assert U[len(h):] == kernel_basis(mat)


@given(matrices(max_rows=4, max_cols=3, bound=6))
def test_kernel_basis_annihilates_and_is_saturated(mat):
    m = len(mat)
    ker = kernel_basis(mat)
    assert hnf(ker) == ker
    assert len(ker) == m - len(hnf(mat))
    for row in ker:
        assert not any(_times(row, mat))
    # every small integer solution lies in the span: a kernel scaled by 2
    # (or any finite-index sublattice of the kernel) fails here
    box = np.array(list(itertools.product(range(-3, 4), repeat=m)), np.int64)
    for x in box[~(box @ np.array(mat, np.int64)).any(axis=1)]:
        assert hnf_in_span(ker, x.tolist())


@st.composite
def systems(draw):
    mat = draw(matrices())
    x = draw(st.lists(st.integers(-3, 3), min_size=len(mat), max_size=len(mat)))
    noise = draw(st.lists(st.sampled_from((0, 0, 0, 1, -2)),
                          min_size=len(mat[0]), max_size=len(mat[0])))
    return mat, [t + e for t, e in zip(_times(x, mat), noise)]


@given(systems())
def test_solve_integer_exactly_when_target_in_span(system):
    mat, target = system
    x = solve_integer(mat, target)
    if hnf_in_span(hnf(mat), target):
        assert x is not None and _times(x, mat) == target
    else:
        assert x is None


def test_kernel_and_solve_on_random_matrices():
    rng = random.Random(7)
    for _ in range(400):
        m, n = rng.randint(1, 5), rng.randint(1, 4)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        ker = kernel_basis(mat)
        assert hnf(ker) == ker
        assert len(ker) == m - len(hnf(mat))
        for row in ker:
            assert not any(_times(row, mat))
        target = _times([rng.randint(-4, 4) for _ in range(m)], mat)
        x = solve_integer(mat, target)
        assert x is not None and _times(x, mat) == target


def _trial_division(n):
    """The distinct primes dividing n, by trial division: the reference."""
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_prime_factors_equal_trial_division():
    assert prime_factors(0) == []
    for n in range(-10, 10 ** 4 + 1):
        assert prime_factors(n) == _trial_division(n), n


# primes on both sides of the trial-division limit 1000, and far above it
@pytest.mark.parametrize("ps", [
    [1009, 1009], [1009, 1013, 1019], [65537, 65537, 65537], [1000003, 2 ** 31 - 1],
    [997, 1000003, 1000003], [2, 3, 10 ** 14 + 31], [2 ** 61 - 1], [1009, 2 ** 61 - 1],
    [1000003, 10 ** 14 + 31],
])
def test_prime_factors_of_products_of_known_primes(ps):
    assert prime_factors(math.prod(ps)) == sorted(set(ps))


def test_prime_factors_stop_at_the_miller_rabin_bound():
    # 2^89 - 1 is prime and above the bound, where the test is not exact
    assert 2 ** 89 - 1 >= MILLER_RABIN_BOUND
    for n in (2 ** 89 - 1, (2 ** 31 - 1) * (2 ** 61 - 1), 1009 * (2 ** 89 - 1)):
        with pytest.raises(ValueError, match="at or above"):
            prime_factors(n)
