"""The per-c orbit law and the exact leading constant of Psi(s).

Psi(s) = sum of f(c) over c in O with 0 < n(c) <= s, where f(c) is the
number of N(O)-orbits of primitive admissible triples (a, alpha, c) with
this c (the count of counting._scan_c).  This module gives f(c) in closed
form, counts it a second way in O/p^k O (sharing no code with the scan),
and sums the law into the Euler factors of kappa = lim Psi(s)/s^5
(constants.mertens_kappa).

Proof of the law.

1. Residues.  g = (w0, w) in N(O) sends (a, alpha, c) to
   (a + conj(w) alpha + w0 c, alpha + w c, c), with w0 = n(w) h + u for a
   fixed h of trace 1 and u in O^0 = {u in O : tr u = 0}.  Each orbit meets
   a fixed representative of every class alpha + Oc, for exactly one w;
   what is left is w = 0, a -> a + u c.  So f(c) sums, over alpha in O/Oc,
   the classes a mod O^0 c with tr(conj(a) c) = n(alpha) and
   Oa + O alpha + Oc = O.  Reduction mod Oc is injective on these classes
   (a - a' = v c with n(c) tr v = 0 forces v in O^0), and its image is
   {a mod Oc : tr(conj(a) c) = n(alpha) mod n(c)}, since a + v c moves the
   trace by n(c) tr v and tr O = Z.  Both conditions are local at the
   primes p | n(c) (at p not dividing n(c), c is a unit of O_p), and the
   shear a -> a + conj(w) alpha, alpha -> alpha + w c keeps
   tr(conj(a) c) - n(alpha) mod p^k, so the local count depends on alpha
   mod O_p c only.  By the Chinese remainder theorem f(c) = prod_p f_p(c).
   Lifting a and alpha from O_p/O_p c to O/p^k O (p^k O_p lies in O_p c
   with index p^2k, and both conditions are well defined mod p^k) gives

     f_p(c) = p^-4k #{(a, alpha) in (O/p^k O)^2 : tr(conj(a) c) = n(alpha)
              mod p^k, (a, alpha, c) primitive at p},   k = v_p(n(c)).   (1)

   local_orbit_count evaluates (1).

2. Primitivity.  (a, alpha, c) is imprimitive at p iff a, alpha and c lie
   in one maximal left ideal M = O_p pi_M, n(pi_M) = p.  For p | D_A, M is
   the unique prime P; for p not dividing D_A, O_p = M_2(Z_p) has p + 1 of
   them, c lies in one (c not in pO) or all, and two of them meet in pO.
   Let T(c) be the count (1) without primitivity.  With c = c' pi_M,
   a = a' pi_M and alpha = alpha' pi_M, the trace condition becomes
   tr(conj(a') c') = n(alpha') mod p^(k-1) and the count restricted to M
   is T(c pi_M^-1); restricted to pO it is T(c/p).  Inclusion-exclusion:

     f_p(c) = T(c) - sum_{M containing c} T(c pi_M^-1)
              + [p not dividing D_A, c in pO] p T(c/p).                  (2)

3. T.  a -> tr(conj(a) c) is a linear form of content p^e, so
   T(c) = p^(3k+e) Prob(p^e | n(alpha)) for Haar-random alpha in O_p.
   - p not dividing D_A: the trace form is unimodular, e = j where
     c in p^j O but not p^(j+1) O; write l = k - 2j.  A left ideal of norm
     p^m is generated by alpha in a set of measure (1 - 1/p)(1 - 1/p^2)
     p^-2m, and there are (p^(m+1) - 1)/(p - 1) of them, so
     Prob(p^j | n(alpha)) = (1 + 1/p) p^-j - p^(-2j-1) and
     T(j, l) = p^(6j+3l) (1 + 1/p - p^(-j-1)).
   - p | D_A: O_p^# = P^-1, so e = ceil(k/2); Prob(alpha in P^e) = p^-2e
     and T(k) = p^(3k - ceil(k/2)).
   Dividing c by pi_M takes type (j, l) to (j, l - 1) for the one M
   containing c/p^j (l >= 1) and to (j - 1, l + 1) for the other p (or,
   when l = 0, all p + 1) of them; over D_A it takes k to k - 1.  Hence

     p | D_A:      f_p = T(k) - T(k - 1): p^2 - 1, p^2 (p^3 - 1), then
                   each further k + 2 multiplies by p^5;
     c not in pO:  f_p = p^3k - p^(3k-3);
     j >= 1:       f_p = T(j, l) - [l >= 1] T(j, l - 1)
                   - (p + [l = 0]) T(j - 1, l + 1) + p T(j - 1, l).

4. kappa.  f_p depends on c only through the left ideal I = O_p c, and
   N(I) = p^k.  In L_p(z) = sum_I f_p(I) N(I)^-z each subtracted term of
   (2) runs over I' = I pi_M^-1 (pairs (I, M containing I) match pairs
   (I', M)) or I' = I/p, so with S_p = sum_I T(I) N(I)^-5,
   L_p(5) = (1 - (p + 1) p^-5 + p^-9) S_p off D_A and (1 - p^-5) S_p on
   it.  Off D_A there are p^(l-1) (p + 1) ideals of type (j, l >= 1), and
   S_p = (1 + p^-2)/(1 - p^-1) ((1 + p^-1)/(1 - p^-4) - p^-1/(1 - p^-5));
   on D_A, S_p = (1 + p^-3)/(1 - p^-5).  So (1 - 1/p) L_p(5) is
   (1 + p^-2)(1 - p^-6) = (1 - p^-4)(1 - p^-6)/(1 - p^-2) off D_A and
   (1 + p^-3)(1 - p^-1) on it.  When every left ideal is principal
   (class number one: |O^x| prod_{p | D_A} (p - 1) = 24 by Eichler's mass
   formula), each I is Oc for |O^x| elements c, so
   sum_c f(c) n(c)^-z = |O^x| prod_p L_p(z) = zeta(z - 4) H(z) with H
   holomorphic for Re z > 4.  The Wiener-Ikehara theorem gives
   Psi(s) ~ (H(5)/5) s^5:

     kappa = (|O^x|/5) zeta(2)/(zeta(4) zeta(6))
             prod_{p | D_A} p^4 (p - 1)/((p^2 + 1)(p^3 - 1)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List

import numpy as np

from .orders import Order, prime_factors

_RESIDUE_LIMIT = 10 ** 6  # largest (p^m)^4 residue table local_orbit_count builds


def _valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# the closed-form law


def _t_split(p: int, j: int, l: int) -> int:
    """T(j, l) = p^(6j+3l) (1 + 1/p - p^(-j-1)), the count (1) without
    primitivity for c with elementary divisors p^j, p^(j+l)."""
    return p ** (5 * j + 3 * l) * (p ** (j + 1) + p ** j - 1) // p


def _t_ramified(p: int, k: int) -> int:
    """T(k) = p^(3k - ceil(k/2)) for n(c) of valuation k at p | D_A."""
    return p ** (3 * k - (k + 1) // 2)


def local_orbit_factor(p: int, k: int, j: int = 0, ramified: bool = False) -> int:
    """f_p for v_p(n(c)) = k and c in p^j O but not p^(j+1) O (step 3 of
    the module proof); j is ignored at a ramified prime."""
    if k < 0 or j < 0 or (not ramified and 2 * j > k):
        raise ValueError("need k >= 0 and 0 <= 2j <= k")
    if k == 0:
        return 1
    if ramified:
        return _t_ramified(p, k) - _t_ramified(p, k - 1)
    l = k - 2 * j
    f = _t_split(p, j, l)
    if l >= 1:
        f -= _t_split(p, j, l - 1)
    if j >= 1:
        f -= (p + (l == 0)) * _t_split(p, j - 1, l + 1)
        f += p * _t_split(p, j - 1, l)
    return f


def orbit_law(order: Order, c) -> int:
    """f(c) from the law: the product of local_orbit_factor over p | n(c)."""
    cc = tuple(int(x) for x in c)
    nc = order.norm(cc)
    if nc <= 0:
        raise ValueError("c must be nonzero")
    out = 1
    for p in prime_factors(nc):
        j = min(_valuation(x, p) for x in cc if x)
        out *= local_orbit_factor(p, _valuation(nc, p), j, order.D_A % p == 0)
    return out


def mertens_euler_factor(p: int, ramified: bool) -> Fraction:
    """(1 - 1/p) L_p(5), the local factor of kappa (step 4 of the module
    proof): (1 + p^-2)(1 - p^-6) off D_A, (1 + p^-3)(1 - p^-1) on it."""
    q = Fraction(1, p)
    return (1 + q ** 3) * (1 - q) if ramified else (1 + q ** 2) * (1 - q ** 6)


# ---------------------------------------------------------------------------
# the direct local count (1)


@lru_cache(maxsize=None)
def _residues(q: int) -> np.ndarray:
    """All of (Z/q)^4 as rows; row r is the base-q expansion of r."""
    r = np.arange(q ** 4, dtype=np.int64)
    return np.stack([(r // q ** (3 - i)) % q for i in range(4)], axis=1)


def _code(X: np.ndarray, p: int) -> np.ndarray:
    return ((X % p) * p ** np.arange(3, -1, -1)).sum(axis=1)


@lru_cache(maxsize=None)
def _residue_norms(order: Order, q: int) -> np.ndarray:
    """n(x) mod q for every residue x of _residues(q)."""
    return order.norms(_residues(q)) % q


@lru_cache(maxsize=None)
def _maximal_left_ideals(order: Order, p: int) -> List[np.ndarray]:
    """Membership tables, indexed by residue code, of the maximal left ideals
    of O/pO: the p^2-element spans (O/pO) x of the nonzero x with p | n(x)."""
    X = _residues(p)
    covered = np.zeros(p ** 4, bool)
    tables = []
    for r in np.nonzero((_residue_norms(order, p) == 0) & X.any(axis=1))[0]:
        if covered[r]:
            continue
        rows = order.right_mul(X[r]) % p                    # e_i x
        span = np.unique(_code(X @ rows, p))
        if span.size != p * p:
            raise AssertionError("left ideal of a zero divisor is not maximal")
        table = np.zeros(p ** 4, bool)
        table[span] = True
        covered |= table
        tables.append(table)
    return tables


def local_orbit_count(order: Order, c, p: int) -> int:
    """f_p(c) by the count (1) in O/p^k O, with no closed form used.

    The trace condition fixes tr(conj(a) c) = a . tau mod p^k, tau of
    content p^e, so a lift of a residue a0 mod p satisfies it for a given
    n(alpha) iff a0 . tau = n(alpha) mod p^m, m = min(e + 1, k), and then
    for p^(4(k-1)) / p^(k-1-e) of its lifts.  The pairs (a0, alpha mod p^m)
    are counted with a primitivity mask: bit i of a residue is set when it
    lies in the i-th maximal left ideal containing c.
    """
    cc = tuple(int(x) for x in c)
    k = _valuation(order.norm(cc), p)
    if k == 0:
        return 1
    tau = order.trace_pairing(np.array(cc, np.int64))
    e = min([k] + [_valuation(int(t), p) for t in tau if t])
    m = min(e + 1, k)
    pm = p ** m
    if pm ** 4 > _RESIDUE_LIMIT:
        raise ValueError(f"local count mod {p}^{m} is beyond the residue limit")
    mask = np.zeros(p ** 4, np.int64)
    ccode = int(_code(np.array([cc]), p)[0])
    for bit, table in enumerate(t for t in _maximal_left_ideals(order, p) if t[ccode]):
        mask |= table.astype(np.int64) << bit
    tr_a = (_residues(p) @ tau) % pm           # a0 = residue r has mask[r]
    mask_al, n_al = mask[_code(_residues(pm), p)], _residue_norms(order, pm)
    hists_al = [(v, np.bincount(n_al[mask_al == v], minlength=pm))
                for v in np.unique(mask_al)]
    pairs = 0
    for u in np.unique(mask):
        hist_a = np.bincount(tr_a[mask == u], minlength=pm)
        pairs += sum(int(hist_a @ h) for v, h in hists_al if not u & v)
    total = pairs * p ** (4 * (k - m)) * p ** (4 * (k - 1)) // p ** max(k - 1 - e, 0)
    f, rem = divmod(total, p ** (4 * k))
    if rem:
        raise AssertionError("local count is not a multiple of p^4k")
    return f
