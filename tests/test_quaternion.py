import random
from fractions import Fraction

import pytest

from heisquat.quaternion import Algebra


@pytest.fixture(scope="module")
def hamilton():
    return Algebra(-1, -1)


def test_defining_relations(hamilton):
    i, j, k = hamilton.i, hamilton.j, hamilton.k
    assert i * j == k
    assert j * i == -k
    assert i * i == hamilton.quat(-1, 0, 0, 0)
    assert k * k == hamilton.quat(-1, 0, 0, 0)


def test_omega_characteristic_polynomial(hamilton):
    om = hamilton.quat(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    # x^2 - tr(om) x + n(om) = 0 with tr = n = 1
    assert om.trace() == 1 and om.norm() == 1
    assert om * om == om - 1


def test_norm_conj_examples(hamilton):
    one_plus_i = 1 + hamilton.i
    assert one_plus_i.norm() == 2
    assert one_plus_i.conj() == 1 - hamilton.i
    assert one_plus_i.inv() * one_plus_i == hamilton.one


def test_definiteness_required():
    with pytest.raises(ValueError):
        Algebra(1, -1)
    with pytest.raises(ValueError):
        Algebra(-1, 0)


@pytest.mark.parametrize("a,b", [(-1, -1), (-1, -3), (-2, -5)])
def test_random_algebra_identities(a, b):
    alg = Algebra(a, b)
    rng = random.Random(a * 100 + b)

    def rand():
        return alg.quat(*[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                          for _ in range(4)])

    for _ in range(60):
        p, q, r = rand(), rand(), rand()
        assert (p * q).norm() == p.norm() * q.norm()
        assert (p * q).trace() == (q * p).trace()
        assert (p * q).conj() == q.conj() * p.conj()
        assert p.conj().conj() == p
        assert (p * q) * r == p * (q * r)
        assert p.norm() >= 0
        assert (p.norm() == 0) == p.is_zero()
        assert p.imag() + Fraction(p.trace(), 2) * alg.one == p


def test_zero_inverse_raises(hamilton):
    with pytest.raises(ZeroDivisionError, match="not invertible"):
        hamilton.quat(0, 0, 0, 0).inv()

