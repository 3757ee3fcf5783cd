import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from heisquat.constants import (ArithmeticData, PERPENDICULAR_CASES,
                                _euler_product_zeta246, assembly_identity, bm_density,
                                constants_report, cusp_boundary_volume,
                                cusp_volume, equidist_constants,
                                equidist_mass_consistency, lemma71_identity,
                                local_factors, measure_masses, mertens_constant,
                                mertens_kappa, orbifold_volume, perpendicular_constants,
                                perpendicular_from_masses,
                                perpendicular_prefactor, report_digits,
                                sphere_volume, sym, zeta_and_integrals)
from fractions import Fraction as F

D2 = ArithmeticData(2, 24, h_A=1)
D3 = ArithmeticData(3, 12, h_A=1)


def test_arithmetic_data_validation():
    with pytest.raises(ValueError):
        ArithmeticData(4, 24)     # not squarefree
    # prime factors drop the sign and 0 has none: the sign is checked first
    for da in (0, -2):
        with pytest.raises(ValueError, match="D_A must be a positive integer"):
            ArithmeticData(da, 24)
    with pytest.raises(ValueError):
        ArithmeticData(6, 24)     # even number of prime factors
    with pytest.raises(ValueError):
        ArithmeticData(2, 0)
    assert D2.m_A == 72 and D3.m_A == 1
    assert ArithmeticData(30, 2).m_A == 72  # 2*3*5: three factors, even


@pytest.mark.parametrize("da, units", [(2, 24), (3, 12), (5, 6), (7, 4), (11, 4), (13, 2)])
def test_the_builtin_orders_pass_the_unit_count_rule(da, units):
    assert ArithmeticData(da, units).unit_count == units


@pytest.mark.parametrize("da, units, ha", [
    (2, 5, None),    # D_A = 2 has only the 24 Hurwitz units
    (2, 12, None),
    (3, 24, None),
    (5, 12, None),   # 12 only at D_A = 3
    (5, 4, None),    # 5 = 1 mod 4: Q(i) does not embed
    (7, 6, None),    # 7 = 1 mod 3: Q(omega) does not embed
    (13, 4, None),
    (11, 4, 1),      # 4 (11 - 1) != 24: D_A = 11 has class number two
])
def test_a_unit_count_no_maximal_order_has_is_refused(da, units, ha):
    with pytest.raises(ValueError):
        ArithmeticData(da, units, ha)


def test_local_factors():
    assert local_factors(2) == (1451520, 35)
    assert local_factors(3)[1] == 520
    assert local_factors(2)[0] == 512 * 3 * 15 * 63
    with pytest.raises(ValueError):
        local_factors(4)


def test_orbifold_volume_values():
    assert orbifold_volume(D2) == sym(F(1, 138240), 4)
    assert abs(orbifold_volume(D2).value() - 7.0464e-4) < 1e-8
    assert orbifold_volume(D3) == sym(F(13, 8709120), 4)
    # multiplicativity of the local factors at fixed parity
    d105 = ArithmeticData(3 * 5 * 7, 2)
    ratio = orbifold_volume(d105) / orbifold_volume(D3)
    expected = sym(F(local_factors(5)[1] * local_factors(7)[1]))
    assert ratio == expected


def test_cusp_volume_values():
    assert cusp_volume(D2) == F(1, 23040)
    assert cusp_volume(D3) == F(9, 23040) == F(1, 2560)
    # quadratic in D_A at fixed unit count
    a = ArithmeticData(5, 2)
    b = ArithmeticData(5 * 13 * 17, 2)
    assert cusp_volume(b) / cusp_volume(a) == F((13 * 17) ** 2)


def test_mertens_constant_values():
    m2 = mertens_constant(D2)
    assert m2 == sym(54, -8)
    assert abs(m2.value() - 5.6912e-3) < 1e-6  # display value rounds the 5th digit
    m3 = mertens_constant(D3)
    assert m3 == sym(F(137781, 52), -8)
    assert abs(m3.value() - 0.27925) < 2e-5


def test_mertens_kappa_values():
    assert mertens_kappa(D2) == sym(31104, -8)
    assert mertens_kappa(D3) == sym(F(275562, 13), -8)
    assert abs(mertens_kappa(D2).value() - 3.2781) < 1e-4
    assert abs(mertens_kappa(D3).value() - 2.2340) < 1e-4


def test_mertens_kappa_is_8_m_A_times_mertens_constant():
    for d in (D2, D3):
        assert mertens_kappa(d) == 8 * d.m_A * mertens_constant(d)
    assert mertens_kappa(D2) == 576 * sym(54, -8)


def test_mertens_kappa_needs_class_number_one():
    assert mertens_kappa(ArithmeticData(5, 6)) == sym(F(6 * 14175 * 625 * 4, 5 * 26 * 124), -8)
    with pytest.raises(ValueError):
        mertens_kappa(ArithmeticData(2, 12))   # |O^x| inconsistent with D_A = 2
    with pytest.raises(ValueError):
        mertens_kappa(ArithmeticData(11, 6))   # D_A = 11 has class number 2


def test_assembly_identity_exact():
    for d in (D2, D3):
        chain, closed = assembly_identity(d)
        assert chain == closed


def test_equidist_candidates_and_consistency():
    eq = equidist_constants(D2)
    assert eq["section8"] == sym(54, -8)
    assert eq["introduction"] == sym(F(54, 24), -8)
    cons = equidist_mass_consistency(D2)
    assert cons["section8"] is True
    assert cons["introduction"] is False
    # the two candidates differ exactly by the unit count
    assert eq["section8"] / eq["introduction"] == sym(24)


def test_lemma71_identity():
    assert lemma71_identity(D2)
    assert cusp_boundary_volume(D2) == 10 * cusp_volume(D2)


def test_sphere_volumes():
    assert sphere_volume(7) == sym(F(1, 3), 4)
    assert sphere_volume(3) == sym(2, 2)
    assert sphere_volume(2) == sym(4, 1)
    with pytest.raises(ValueError):
        sphere_volume(4)


def test_measure_masses_n2():
    mm = measure_masses(2, 1.0, 1)
    assert mm["bowen_margulis"]["prefactor"] == "(1/48)*pi^4"
    assert mm["horoball_skinning"]["prefactor"] == "80"
    assert mm["geodesic_skinning"]["prefactor"] == "(1/84)*pi^3"
    assert mm["quaternionic_skinning"]["prefactor"] == "(1/64)*pi^2"
    assert mm["critical_exponent"]["value"] == 10.0
    assert mm["liouville_ratio"]["value"] == 1 / 16
    # masses scale linearly with the volume
    mm2 = measure_masses(2, 2.5, 1)
    assert abs(mm2["bowen_margulis"]["value"] - 2.5 * mm["bowen_margulis"]["value"]) < 1e-15
    # stabiliser order divides the line cases
    mm3 = measure_masses(2, 1.0, 3)
    assert abs(mm3["geodesic_skinning"]["value"] * 3 - mm["geodesic_skinning"]["value"]) < 1e-15


def test_measure_masses_n3():
    mm = measure_masses(3, 1.0, 1)
    assert mm["critical_exponent"]["value"] == 14.0
    assert mm["horoball_skinning"]["prefactor"] == "112"


def test_perpendicular_prefactors():
    assert perpendicular_prefactor(2, "horoball-horoball") == sym(30720, -4)
    assert perpendicular_prefactor(2, "horoball-qline", 1) == sym(6, -2)
    assert perpendicular_prefactor(2, "horoball-geodesic", 1) == sym(F(32, 7), -1)
    with pytest.raises(ValueError):
        perpendicular_prefactor(2, "nonsense")


def test_perpendicular_consistency_with_masses():
    for n in (2, 3):
        for case in PERPENDICULAR_CASES:
            direct = perpendicular_constants(n, 0.37, 1.2, 0.9, 3, case)["value"]
            massed = perpendicular_from_masses(n, 0.37, 1.2, 0.9, 3, case)
            assert abs(direct - massed) <= 1e-12 * abs(direct)


def test_perpendicular_validates_volumes():
    with pytest.raises(ValueError):
        perpendicular_constants(2, -1.0, 1.0, 1.0, 1, "horoball-horoball")


def test_bm_density():
    from heisquat.orders import builtin_order
    from heisquat.heisenberg import HeisPoint, heis_mul, random_lattice_point
    import random
    hur = builtin_order("hurwitz")
    alg = hur.algebra
    zero = alg.quat(0, 0, 0, 0)
    vm = HeisPoint(zero, zero)
    vp = HeisPoint(alg.quat(0, Fraction(1, 2), 0, 0), zero)  # u = 2 Im w0 = i
    assert bm_density(vm, vp) == 1
    with pytest.raises(ValueError):
        bm_density(vm, vm)
    rng = random.Random(0)
    for _ in range(100):
        g = random_lattice_point(hur, rng, 3)
        assert bm_density(heis_mul(g, vm), heis_mul(g, vp)) == 1
    # doubling the Cygan distance divides the density by 2^(8n+4)
    vp2 = HeisPoint(alg.quat(0, 2, 0, 0), zero)  # u = 4i, d^4 = 16, d = 2
    assert bm_density(vm, vp2) == Fraction(1, 2 ** 20)


def test_quadrature_suite_values():
    out = zeta_and_integrals(2)
    assert out["patterson_mass"]["symbolic"] == "(1/384)*pi^4"
    assert out["residue_integral"]["symbolic"] == "(5/128)*pi"
    assert out["beta_integral"]["symbolic"] == "1/30"
    assert out["c_prime"]["symbolic"] == "1/21"
    assert out["I_11"]["symbolic"] == "4/15"
    assert out["zeta_product"]["symbolic"] == "(1/510300)*pi^12"
    assert abs(out["zeta_product"]["value"] - 1.8113) < 2e-4
    assert out["vol_S7"]["symbolic"] == "(1/3)*pi^4"
    for name, rec in out.items():
        assert rec["residual"] <= 1e-4, name


@pytest.mark.parametrize("limit", [2, 10, 1000, 10 ** 5])
def test_euler_product_equals_the_numpy_sieve_bit_for_bit(limit):
    # the numpy form that the pure-Python product replaced
    sieve = np.ones(limit + 1, bool)
    sieve[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.nonzero(sieve)[0].astype(np.float64)
    x = 1.0 / (primes * primes)
    want = float(np.prod(1.0 / ((1 - x) * (1 - x * x) * (1 - x * x * x))))
    assert _euler_product_zeta246(limit) == want


def test_quadrature_suite_generic_n():
    out = zeta_and_integrals(3)
    for name, rec in out.items():
        assert rec["residual"] <= 1e-4, name


def test_report_digits_is_the_longest_exact_number():
    # exact at every n up to the default 4300-digit limit of int strings
    for n in range(2, 655):
        pre = perpendicular_prefactor(n, "horoball-horoball")
        assert report_digits(n) == len(str(pre.coeff)), n
    assert report_digits(654) <= 4300 < report_digits(655)
    for n in (50, 300, 654):
        rep = json.dumps(constants_report(D2, n, with_quadrature=False))
        assert max(map(len, re.findall(r"\d+", rep))) == report_digits(n)


def test_symbolic_arithmetic():
    a = sym(F(3, 4), 2)
    b = sym(2, -1)
    assert a * b == sym(F(3, 2), 1)
    assert a / b == sym(F(3, 8), 3)
    assert (a * 4) == sym(3, 2)
    assert str(sym(54, -8)) == "54*pi^-8"
    assert str(sym(F(1, 3), 4)) == "(1/3)*pi^4"
    assert abs(sym(F(1, 2), 2).value() - math.pi ** 2 / 2) < 1e-15


def test_report_contents():
    rep = constants_report(D2, with_quadrature=False)
    assert rep["cusp_volume"]["symbolic"] == "1/23040"
    assert rep["assembly_identity_holds"]
    assert rep["m_A_matches_index_rule"]
    assert rep["equidist_candidate_ratio"] == "24"
    assert rep["projective_plane_volume"]["symbolic"] == "(1/120)*pi^4"
    rep3 = constants_report(D3, with_quadrature=False)
    assert rep3["cusp_volume"]["symbolic"] == "1/2560"
    assert rep3["m_A"] == 1
