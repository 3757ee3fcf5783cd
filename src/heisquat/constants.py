"""Closed-form constants of the counting/equidistribution theory, with
independent numerical verification.

Every constant is carried as an exact rational multiple of a power of pi
(SymbolicConstant), so identities between constants are checked exactly;
decimals appear only at the display layer.  Each constant that has an
integral representation is re-computed by adaptive quadrature: QUADPACK's
qagse (21-point Gauss-Kronrod, qk21) on finite ranges and qagie (15-point
rule qk15i on the mapped range) on infinite ones, both with epsilon
extrapolation, ported to Python in heisquat.quadrature.

At import this module loads only pure-Python modules, so the `constants`
subcommand runs without numpy: mertens_kappa and bm_density, which need
heisquat.orbitlaw and heisquat.heisenberg, import them when called.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Dict, List, Optional, Tuple

from .lattices import prime_factors


@dataclass(frozen=True)
class SymbolicConstant:
    """Exact constant coeff * pi^pi_power."""

    coeff: Fraction
    pi_power: int = 0

    def value(self) -> float:
        return float(self.coeff) * math.pi ** self.pi_power

    def __mul__(self, other):
        if isinstance(other, SymbolicConstant):
            return SymbolicConstant(self.coeff * other.coeff,
                                    self.pi_power + other.pi_power)
        return SymbolicConstant(self.coeff * Fraction(other), self.pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SymbolicConstant):
            return SymbolicConstant(self.coeff / other.coeff,
                                    self.pi_power - other.pi_power)
        return SymbolicConstant(self.coeff / Fraction(other), self.pi_power)

    def __eq__(self, other):
        return (isinstance(other, SymbolicConstant)
                and self.coeff == other.coeff
                and (self.pi_power == other.pi_power or self.coeff == 0))

    def __str__(self):
        if self.pi_power == 0:
            return str(self.coeff)
        pi = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        if self.coeff == 1:
            return pi
        if self.coeff.denominator == 1:
            return f"{self.coeff}*{pi}"
        return f"({self.coeff})*{pi}"


def sym(coeff, pi_power: int = 0) -> SymbolicConstant:
    return SymbolicConstant(Fraction(coeff), pi_power)


# ---------------------------------------------------------------------------
# arithmetic data


@dataclass(frozen=True)
class ArithmeticData:
    """Arithmetic invariants of a definite quaternion algebra over Q.

    D_A must be squarefree with an odd number of prime factors; m_A obeys
    the parity rule (72 for even D_A, else 1); the class number h_A is a
    configuration input used for reporting the cusp count.

    unit_count = |O^x| must pass the necessary conditions for a maximal
    order: it is 24 exactly when D_A = 2 and 12 exactly when D_A = 3, else
    2, 4 or 6; 4 needs Q(i) to embed, so every p | D_A is 2 or 3 mod 4; 6
    needs Q(omega) to embed, so every p | D_A is 3 or 2 mod 3; and with
    h_A = 1 Eichler's mass formula fixes |O^x| prod_{p | D_A} (p - 1) = 24.
    """

    D_A: int
    unit_count: int
    h_A: Optional[int] = None

    def __post_init__(self):
        if self.D_A < 1:
            raise ValueError(f"D_A must be a positive integer, not {self.D_A}")
        ps = self.primes
        if math.prod(ps) != self.D_A:
            raise ValueError("D_A must be squarefree")
        if len(ps) % 2 == 0:
            raise ValueError("D_A must have an odd number of prime factors")
        if self.h_A is not None and self.h_A <= 0:
            raise ValueError("h_A must be positive")
        u = self.unit_count
        need = {2: (24,), 3: (12,)}.get(self.D_A, (2, 4, 6))
        if u not in need:
            raise ValueError(f"unit_count {u} is not the unit count of a maximal order "
                             f"with D_A = {self.D_A}: it must be "
                             + " or ".join(map(str, need)))
        if u == 4 and any(p != 2 and p % 4 != 3 for p in ps):
            raise ValueError("unit_count 4 needs Q(i) to embed: every prime of D_A "
                             "must be 2 or 3 mod 4")
        if u == 6 and any(p != 3 and p % 3 != 2 for p in ps):
            raise ValueError("unit_count 6 needs Q(omega) to embed: every prime of D_A "
                             "must be 3 or 2 mod 3")
        if self.h_A == 1 and u * math.prod(p - 1 for p in ps) != 24:
            raise ValueError("h_A = 1 needs unit_count * prod_{p | D_A} (p - 1) = 24 "
                             "(Eichler's mass formula)")

    @property
    def m_A(self) -> int:
        return 72 if self.D_A % 2 == 0 else 1

    @functools.cached_property
    def primes(self) -> List[int]:
        """The primes dividing D_A, factored once."""
        return prime_factors(self.D_A)


def local_factors(p: int) -> Tuple[int, int]:
    """(order of Sp3(F_p), nonsplit local factor (p-1)(p^2+1)(p^3-1))."""
    if prime_factors(p) != [p]:
        raise ValueError("p must be prime")
    sp3 = p ** 9 * (p ** 2 - 1) * (p ** 4 - 1) * (p ** 6 - 1)
    nonsplit = (p - 1) * (p ** 2 + 1) * (p ** 3 - 1)
    return sp3, nonsplit


def local_product(d: ArithmeticData) -> int:
    return math.prod(local_factors(p)[1] for p in d.primes)


INDEX_EVEN_DA = 72  # [Y_2 : U_q(O_2)], matching the parity rule for m_A

PROJECTIVE_PLANE_VOLUME = sym(Fraction(1, 120), 4)  # Vol(P^2_r(H)), reported only


# ---------------------------------------------------------------------------
# headline closed forms


def orbifold_volume(d: ArithmeticData) -> SymbolicConstant:
    """Vol(PU_q(O)\\H^2_H) = pi^4 m_A prod / (42525 * 2^13)."""
    return sym(Fraction(d.m_A * local_product(d), 42525 * 2 ** 13), 4)


def cusp_volume(d: ArithmeticData) -> Fraction:
    """Vol of the cusp at infinity: D_A^2 / (160 |O^x|^2)."""
    return Fraction(d.D_A ** 2, 160 * d.unit_count ** 2)


def cusp_boundary_volume(d: ArithmeticData, n: int = 2) -> Fraction:
    """Volume of the cusp horosphere boundary: (4n+2) times the cusp volume."""
    return (4 * n + 2) * cusp_volume(d)


def mertens_constant(d: ArithmeticData) -> SymbolicConstant:
    """Closed form 204120 D_A^4 / (pi^8 m_A |O^x| prod).

    This is not lim Psi(s)/s^5 for the orbit count of the counting module:
    that limit is mertens_kappa(d), and for a class-number-one order
    kappa = 8 m_A * mertens_constant (576 * 54/pi^8 for the Hurwitz order,
    8 * mertens_constant for D_A = 3).  Which normalisation the factor
    8 m_A belongs to (the orbits counted, m_A, or this closed form) is not
    settled by the sources this package follows; this closed form is kept
    as stated.  Counting orbits of N(O) extended by the diagonal units
    diag(u, v, u) would divide kappa by |O^x|^2: that is 576 for the
    Hurwitz order but 144, not 8, for D_A = 3.
    """
    return sym(Fraction(204120 * d.D_A ** 4,
                        d.m_A * d.unit_count * local_product(d)), -8)


ZETA2_OVER_ZETA4_ZETA6 = sym(Fraction(1, 6), 2) / (sym(Fraction(1, 90), 4)
                                                  * sym(Fraction(1, 945), 6))


def mertens_kappa(d: ArithmeticData) -> SymbolicConstant:
    """kappa = lim Psi(s)/s^5 for the orbit count Psi of a maximal order.

    Summed from the per-c orbit law (see heisquat.orbitlaw for the proof):
    kappa = (|O^x|/5) prod_p (1 - 1/p) L_p(5), where the off-D_A factors
    multiply to zeta(2)/(zeta(4) zeta(6)) = 14175/pi^8.  The sum counts one
    c per left ideal times |O^x|, so it needs every left ideal principal:
    by Eichler's mass formula that is |O^x| prod_{p | D_A} (p - 1) = 24.
    """
    from .orbitlaw import mertens_euler_factor

    if d.unit_count * math.prod(p - 1 for p in d.primes) != 24:
        raise ValueError("mertens_kappa needs class number one: "
                         "|O^x| prod_{p | D_A} (p - 1) must equal 24")
    coeff = Fraction(d.unit_count, 5)
    for p in d.primes:
        coeff *= mertens_euler_factor(p, True) / mertens_euler_factor(p, False)
    return coeff * ZETA2_OVER_ZETA4_ZETA6


def equidist_constants(d: ArithmeticData) -> Dict[str, SymbolicConstant]:
    """Both candidate normalizations of the equidistribution theorem.

    The final-section statement carries |O^x| once; the introduction's
    carries |O^x|^2.  With the trivial congruence ideal they should agree;
    both are exposed and the mass-consistency relation against the Mertens
    constant is reported rather than resolved by fiat.
    """
    base = Fraction(816480 * d.D_A ** 2, d.m_A * d.unit_count * local_product(d))
    return {
        "section8": sym(base, -8),
        "introduction": sym(base / d.unit_count, -8),
    }


def equidist_mass_consistency(d: ArithmeticData) -> Dict[str, bool]:
    """Exact check: candidate * (Haar total mass D_A^2/4) == Mertens constant."""
    mass = Fraction(d.D_A ** 2, 4)
    mert = mertens_constant(d)
    cands = equidist_constants(d)
    return {k: (v * mass == mert) for k, v in cands.items()}


def assembly_identity(d: ArithmeticData) -> Tuple[SymbolicConstant, SymbolicConstant]:
    """The volume-chain constant 15 |O^x|^3 Vol(cusp)^2 / (pi^4 Vol(M)) and
    the closed-form Mertens constant; they must agree exactly."""
    chain = sym(15 * d.unit_count ** 3 * cusp_volume(d) ** 2, -4) / orbifold_volume(d)
    return chain, mertens_constant(d)


def lemma71_identity(d: ArithmeticData, n: int = 2) -> bool:
    """Exact: boundary volume == (4n+2) * cusp volume (horoball vs horosphere)."""
    return cusp_boundary_volume(d, n) == (4 * n + 2) * cusp_volume(d)


# ---------------------------------------------------------------------------
# special integrals of the measure computations (closed forms + quadrature)


def sphere_volume(dim: int) -> SymbolicConstant:
    """Volume of the unit sphere S^dim (odd dim gives a rational pi power)."""
    if dim % 2 == 1:
        k = (dim + 1) // 2
        return sym(Fraction(2, math.factorial(k - 1)), k)
    if dim == 2:
        return sym(4, 1)
    raise ValueError("even sphere dimensions other than 2 are not needed here")


def zeta_and_integrals(n: int = 2) -> Dict[str, dict]:
    """Closed forms of the special constants, each cross-checked numerically.

    The integrals run through heisquat.quadrature: qagse with the qk21 rule
    on finite ranges, qagie with the qk15i rule on infinite ones, and the
    Patterson mass as qagie nested in qagie.  Raises ValueError when a
    numerical check misses its closed form by more than 1e-4 relative.
    """
    # imported here: every subcommand imports this module, and only these
    # checks use the quadrature
    from .quadrature import quad

    if n < 2:
        raise ValueError("n >= 2 required")
    out: Dict[str, dict] = {}

    def entry(name, symbolic, numeric):
        val = symbolic.value() if isinstance(symbolic, SymbolicConstant) else float(symbolic)
        rel = abs(numeric - val) / abs(val)
        if rel > 1e-4:
            raise ValueError(f"{name}: quadrature {numeric} vs closed form {val}")
        out[name] = {"symbolic": str(symbolic), "value": val,
                     "check": numeric, "residual": rel}

    # zeta(2) zeta(4) zeta(6) = pi^12 / 510300, via a truncated Euler product
    zp = sym(Fraction(1, 510300), 12)
    entry("zeta_product", zp, _euler_product_zeta246(10 ** 5))

    # residue integral over R: rho^2/(1+rho^2)^{2n+1}
    res = sym(Fraction(n * math.factorial(4 * n - 2),
                       2 ** (4 * n - 2) * math.factorial(2 * n) ** 2), 1)
    num = quad(lambda r: r * r / (1 + r * r) ** (2 * n + 1), -math.inf,
               math.inf, 1e-10)[0]
    entry("residue_integral", res, num)

    # beta integral: s^{2n-3}/(s+1)^{4n-1} over (0, inf)
    beta = Fraction(math.factorial(2 * n - 3) * math.factorial(2 * n),
                    math.factorial(4 * n - 2))
    num = quad(lambda s: s ** (2 * n - 3) / (s + 1) ** (4 * n - 1), 0,
               math.inf, 1e-10)[0]
    entry("beta_integral", sym(beta), num)

    # c'_n: the theta integral of the geodesic skinning computation
    cp = Fraction(2 ** (2 * n - 1) * math.factorial(2 * n - 3)
                  * math.factorial(2 * n - 1) * (2 * n + 1),
                  math.factorial(4 * n - 1))
    num = quad(lambda th: math.cos(th) ** (2 * n - 3) * math.sin(th) ** 2
               / (1 + math.cos(th)) ** (2 * n + 1), 0, math.pi / 2, 1e-10)[0]
    entry("c_prime", sym(cp), num)
    # the same constant through the substituted t-integral
    num2 = quad(lambda t: (1 - t * t) ** (2 * n - 3) * t * t * (1 + t * t),
                0, 1, 1e-10)[0] / 2 ** (2 * n - 2)
    entry("c_prime_t_form", sym(cp), num2)

    # I_{p,q} = int_{-1}^{1} t^2p (1 - t^2)^q dt for small p, q
    def I_pq(p_, q_):
        return Fraction(2 ** (2 * q_ + 1) * math.factorial(q_)
                        * math.factorial(2 * p_) * math.factorial(p_ + q_),
                        math.factorial(p_) * math.factorial(2 * p_ + 2 * q_ + 1))
    for p_ in (1, 2, 3):
        for q_ in (1, 2, 3):
            num = quad(lambda t: t ** (2 * p_) * (1 - t * t) ** q_, -1, 1,
                       1e-10)[0]
            entry(f"I_{p_}{q_}", sym(I_pq(p_, q_)), num)

    # exact identity c'_n = (I_{1,2n-3} + I_{2,2n-3}) / 2^{2n-1}
    if Fraction(cp) != (I_pq(1, 2 * n - 3) + I_pq(2, 2 * n - 3)) / 2 ** (2 * n - 1):
        raise ValueError("c'_n does not match its I_{p,q} decomposition")

    # sphere volume S^{4n-1} and the Patterson density mass
    s_vol = sphere_volume(4 * n - 1)
    entry(f"vol_S{4*n-1}", s_vol, _num_sphere_volume(4 * n - 1))
    mu = s_vol / 2 ** (4 * n - 1)
    num = _mu_mass_quadrature(n)
    entry("patterson_mass", mu, num)
    return out


def _euler_product_zeta246(limit: int) -> float:
    """prod over primes p <= limit of 1/((1 - x)(1 - x^2)(1 - x^3)), x = p^-2,
    multiplied in ascending p."""
    sieve = bytearray(2) + bytes([1]) * (limit - 1)
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    out = 1.0
    for p in compress(range(limit + 1), sieve):
        x = 1.0 / float(p * p)
        out *= 1.0 / ((1 - x) * (1 - x * x) * (1 - x * x * x))
    return out


def _num_sphere_volume(dim: int) -> float:
    return 2 * math.pi ** ((dim + 1) / 2) / math.gamma((dim + 1) / 2)


def _mu_mass_quadrature(n: int) -> float:
    """The Patterson mass as the reduced 2-D integral
    Vol(S^{4n-5}) Vol(S^2) * int int s^{4n-5} rho^2 ((s^2+1)^2 + rho^2)^{-(2n+1)},
    over rho inside s, both on (0, inf) (the order of scipy's dblquad)."""
    from .quadrature import quad

    def over_rho(s):
        return quad(lambda rho: s ** (4 * n - 5) * rho * rho
                    / ((s * s + 1) ** 2 + rho * rho) ** (2 * n + 1),
                    0, math.inf, 1e-9)[0]

    pref = _num_sphere_volume(4 * n - 5) * _num_sphere_volume(2)
    return pref * quad(over_rho, 0, math.inf, 1e-9)[0]


# ---------------------------------------------------------------------------
# measure masses and common-perpendicular constants


def measure_masses(n: int, vol: float, m: int = 1) -> Dict[str, dict]:
    """Closed-form measure masses/ratios for a lattice quotient of volume
    `vol`; m is the pointwise stabiliser order for line cases."""
    if n < 2 or vol <= 0 or m < 1:
        raise ValueError("need n >= 2, vol > 0, m >= 1")
    items = {
        "bowen_margulis": sym(Fraction(1, 2 ** (4 * n - 5)
                                       * math.factorial(2 * n - 1)), 2 * n),
        "horoball_skinning": sym(16 * (2 * n + 1)),
        "geodesic_skinning": sym(Fraction(math.factorial(2 * n + 1),
                                          m * n * math.factorial(4 * n - 1)),
                                 2 * n - 1),
        "quaternionic_skinning": sym(Fraction(1, m * 2 ** (4 * n - 2)
                                              * math.factorial(2 * n - 3)),
                                     2 * n - 2),
    }
    out = {k: {"prefactor": str(v), "value": v.value() * vol}
           for k, v in items.items()}
    out["liouville_ratio"] = {"prefactor": str(sym(Fraction(1, 2 ** (4 * n - 4)))),
                              "value": 1.0 / 2 ** (4 * n - 4)}
    out["critical_exponent"] = {"prefactor": str(4 * n + 2), "value": float(4 * n + 2)}
    return out


PERPENDICULAR_CASES = ("horoball-horoball", "horoball-geodesic", "horoball-qline")


def perpendicular_prefactor(n: int, case: str, m_plus: int = 1) -> SymbolicConstant:
    if case == "horoball-horoball":
        return sym(Fraction(2 ** (4 * n + 1) * math.factorial(2 * n + 1), n),
                   -2 * n)
    if case == "horoball-geodesic":
        return sym(Fraction(2 ** (4 * n) * math.factorial(2 * n - 1)
                            * math.factorial(2 * n + 1),
                            m_plus * math.factorial(4 * n)), -1)
    if case == "horoball-qline":
        return sym(Fraction(2 * (n - 1) * (2 * n - 1), m_plus), -2)
    raise ValueError(f"unknown case '{case}'")


def report_digits(n: int) -> int:
    """Decimal digits of the largest exact number of constants_report at
    this n, the horoball-horoball prefactor 2^(4n+1) (2n+1)!/n, found from
    lgamma without forming the factorial."""
    log10 = ((4 * n + 1) * math.log(2) + math.lgamma(2 * n + 2)
             - math.log(n)) / math.log(10)
    return math.floor(log10) + 1


def perpendicular_constants(n: int, vol_minus: float, vol_plus: float,
                            vol_total: float, m_plus: int, case: str) -> dict:
    """Growth constant c(D-, D+) in the e^{(4n+2)s} law for the three cases."""
    if min(vol_minus, vol_plus, vol_total) <= 0:
        raise ValueError("volumes must be positive")
    pre = perpendicular_prefactor(n, case, m_plus)
    return {"case": case, "prefactor": str(pre),
            "value": pre.value() * vol_minus * vol_plus / vol_total,
            "exponent": 4 * n + 2}


def perpendicular_from_masses(n: int, vol_minus: float, vol_plus: float,
                              vol_total: float, m_plus: int, case: str) -> float:
    """c(D-,D+) assembled as |sigma+||sigma-| / (delta |m_BM|), numerically."""
    mm = measure_masses(n, vol_total, m_plus)
    sig_minus = measure_masses(n, vol_minus, 1)["horoball_skinning"]["value"]
    kind = {"horoball-horoball": "horoball_skinning",
            "horoball-geodesic": "geodesic_skinning",
            "horoball-qline": "quaternionic_skinning"}[case]
    sig_plus = measure_masses(n, vol_plus, m_plus)[kind]["value"]
    return sig_minus * sig_plus / ((4 * n + 2) * mm["bowen_margulis"]["value"])


def bm_density(v_minus, v_plus) -> Fraction:
    """Bowen-Margulis density 1/d_Cyg(v-, v+)^{8n+4} on Heis_7 (n = 2), exact."""
    from .heisenberg import cygan_dist4

    d4 = cygan_dist4(v_minus, v_plus)
    if d4 == 0:
        raise ValueError("coincident endpoints")
    return Fraction(1) / Fraction(d4) ** 5


# ---------------------------------------------------------------------------
# the full report


def constants_report(d: ArithmeticData, n: int = 2,
                     with_quadrature: bool = True) -> dict:
    mert = mertens_constant(d)
    chain, closed = assembly_identity(d)
    eq = equidist_constants(d)
    eqcons = equidist_mass_consistency(d)
    report = {
        "D_A": d.D_A,
        "m_A": d.m_A,
        "unit_count": d.unit_count,
        "h_A": d.h_A,
        "cusp_count": d.h_A,
        "local_factors": {str(p): local_factors(p)[1] for p in d.primes},
        "sp3_orders": {str(p): local_factors(p)[0] for p in d.primes},
        "index_even_da": INDEX_EVEN_DA,
        "m_A_matches_index_rule": (d.m_A == INDEX_EVEN_DA) == (d.D_A % 2 == 0),
        "orbifold_volume": _sym_entry(orbifold_volume(d)),
        "cusp_volume": {"symbolic": str(cusp_volume(d)),
                        "value": float(cusp_volume(d))},
        "cusp_boundary_volume": {"symbolic": str(cusp_boundary_volume(d, n)),
                                 "value": float(cusp_boundary_volume(d, n))},
        "lemma71_identity": lemma71_identity(d, n),
        "haar_total_mass": {"symbolic": str(Fraction(d.D_A ** 2, 4)),
                            "value": d.D_A ** 2 / 4.0},
        "mertens_constant": _sym_entry(mert),
        "equidist_constant_section8": _sym_entry(eq["section8"]),
        "equidist_constant_introduction": _sym_entry(eq["introduction"]),
        "equidist_mass_consistent": eqcons,
        "equidist_candidate_ratio": str(Fraction(d.unit_count)),
        "assembly_identity_holds": chain == closed,
        "assembly_chain": _sym_entry(chain),
        "projective_plane_volume": _sym_entry(PROJECTIVE_PLANE_VOLUME),
        "perpendicular_prefactors": {
            case: str(perpendicular_prefactor(n, case, 1))
            for case in PERPENDICULAR_CASES},
    }
    if with_quadrature:
        report["integrals"] = zeta_and_integrals(n)
    return report


def _sym_entry(s: SymbolicConstant) -> dict:
    return {"symbolic": str(s), "value": s.value()}
