"""heisquat.quadrature against scipy.integrate.quad, its reference: the
ported QUADPACK drivers must give the same value and error estimate bit
for bit."""

import math
import warnings

import pytest

from heisquat import constants as K
from heisquat import quadrature
from heisquat.quadrature import quad

integrate = pytest.importorskip("scipy.integrate")

EPSRELS = (1e-10, 1.49e-8, 1e-12)

HARD = [
    (lambda x: 1 / math.sqrt(x), 0, 1),
    (math.log, 0, 1),
    (lambda x: x ** -0.9, 0, 1),
    (lambda x: math.sin(30 * x) * math.exp(-x), 0, 10),
    (lambda x: math.exp(-x * x), -math.inf, math.inf),
    (lambda x: 1 / (1 + x) ** 1.1, 0, math.inf),
    (lambda x: 1 / ((x - 0.3) ** 2 + 1e-4), 0, 1),
    # runs into the 50-interval limit
    (lambda x: math.cos(1000 * x), 0, 1),
    # small areas: the epsilon table hits its irregular-behaviour test
    (lambda x: 1.936e-8 * (1 + x) ** -1.2219 * math.cos(20.6223 * x), 0, math.inf),
    # noise: roundoff while extrapolating adds the error of the large intervals
    (lambda x: x ** -0.8 * math.exp(-x) + 2.5e-7 * math.sin(46000 * x) / (1 + x * x),
     0, math.inf),
]


def assert_same_as_scipy(f, a, b):
    for epsrel in EPSRELS:
        with warnings.catch_warnings():
            # scipy warns where QUADPACK's error flag is set; quad is silent
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            expected = integrate.quad(f, a, b, epsrel=epsrel)
        assert quad(f, a, b, epsrel) == expected


@pytest.mark.parametrize("case", range(len(HARD)))
def test_hard_integrands_match_scipy(case):
    assert_same_as_scipy(*HARD[case])


@pytest.mark.parametrize("n", range(2, 14))
def test_constants_integrands_match_scipy(n, monkeypatch):
    # check every top-level quad call of the report as it is made; the inner
    # integrals of the Patterson mass run inside the checked outer one
    checked = []
    depth = [0]

    def checking_quad(f, a, b, epsrel):
        depth[0] += 1
        try:
            if depth[0] == 1:
                assert_same_as_scipy(f, a, b)
                checked.append((a, b))
            return quad(f, a, b, epsrel)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(quadrature, "quad", checking_quad)
    K.zeta_and_integrals(n)
    assert len(checked) == 14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_patterson_mass_matches_dblquad(n):
    pref = K._num_sphere_volume(4 * n - 5) * K._num_sphere_volume(2)
    val, _ = integrate.dblquad(
        lambda rho, s: s ** (4 * n - 5) * rho * rho
        / ((s * s + 1) ** 2 + rho * rho) ** (2 * n + 1),
        0, math.inf, 0, math.inf, epsrel=1e-9)
    assert K._mu_mass_quadrature(n) == pref * val


@pytest.mark.parametrize("a, b", [(1, 0), (0, 0), (-math.inf, 0)])
def test_bounds_outside_the_ported_drivers(a, b):
    with pytest.raises(ValueError):
        quad(math.exp, a, b, 1e-8)
