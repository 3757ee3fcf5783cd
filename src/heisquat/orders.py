"""Maximal orders in definite quaternion algebras over Q.

An Order is given by a 4x4 rational basis matrix (rows = basis elements in
the 1,i,j,k coordinates of its Algebra).  Validation checks that the
lattice is a unitary ring with integral structure constants and that its
reduced discriminant equals the discriminant of the algebra, which
certifies maximality.  All arithmetic in this module is exact; the
batched Order methods use int64, so their callers bound the coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .lattices import (IntLattice, RatLattice, clear_denominators, det_int, hnf,
                       kernel_basis, mat_frac_inverse)
from .quaternion import Algebra, Quaternion

Coords = Tuple[int, int, int, int]


class OrderError(ValueError):
    pass


@dataclass(frozen=True)
class OrderElement:
    """Element of an order, stored by its integer coordinates in the order basis."""

    coords: Coords

    def __iter__(self):
        return iter(self.coords)


# ---------------------------------------------------------------------------
# discriminant of the algebra via Hilbert symbols


def prime_factors(n: int) -> List[int]:
    n = abs(int(n))
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ValueError("legendre symbol needs gcd(a, p) = 1")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p over Q_p for a prime p (classic formulas)."""
    if a == 0 or b == 0:
        raise ValueError("arguments must be nonzero")
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    beta = 0
    while b % p == 0:
        b //= p
        beta += 1
    if p != 2:
        eps = (p - 1) // 2
        s = (alpha * beta * eps) % 2
        val = -1 if s else 1
        if beta % 2:
            val *= _legendre(a, p)
        if alpha % 2:
            val *= _legendre(b, p)
        return val
    eps_a = ((a - 1) // 2) % 2
    eps_b = ((b - 1) // 2) % 2
    om_a = ((a * a - 1) // 8) % 2
    om_b = ((b * b - 1) // 8) % 2
    s = (eps_a * eps_b + alpha * om_b + beta * om_a) % 2
    return -1 if s else 1


def algebra_discriminant(alg: Algebra) -> int:
    """Reduced discriminant D_A: product of the finite ramified primes."""
    candidates = sorted(set([2] + prime_factors(alg.a) + prime_factors(alg.b)))
    ramified = [p for p in candidates if hilbert_symbol(alg.a, alg.b, p) == -1]
    # the algebra is definite, so infinity is ramified and the finite count is odd
    if len(ramified) % 2 == 0:
        raise OrderError("parity of ramified set is wrong; non-definite input?")
    prod = 1
    for p in ramified:
        prod *= p
    return prod


# ---------------------------------------------------------------------------


class Order:
    """Validated maximal order; construct through :func:`make_order`."""

    def __init__(self, algebra: Algebra, basis, name: str = ""):
        self.algebra = algebra
        self.name = name
        self.basis = tuple(tuple(Fraction(x) for x in row) for row in basis)
        self._validate()

    # -- construction-time validation and caches ---------------------------

    def _validate(self):
        alg = self.algebra
        B = [list(row) for row in self.basis]
        # covolume of O in H under the Euclidean structure; 0 iff the rows
        # are dependent, since the algebra is definite
        self.covolume_sq = abs(lattice_covolume_sq(alg, B))
        if not self.covolume_sq:
            raise OrderError("basis rows are dependent")
        self.covolume = _frac_sqrt(self.covolume_sq)
        self._basis_inv = mat_frac_inverse(B)

        one = self.coords_of(alg.one)
        if one is None:
            raise OrderError("not unital: 1 is not in the lattice")
        self.one_coords = one

        basis_quats = [alg.from_coeffs(row) for row in self.basis]
        self.basis_quats = basis_quats
        struct = []
        for ei in basis_quats:
            row = []
            for ej in basis_quats:
                c = self.coords_of(ei * ej)
                if c is None:
                    raise OrderError("not a ring: non-integral structure constant")
                row.append(c)
            struct.append(tuple(row))
        self.structure = tuple(struct)

        tvec = []
        for e in basis_quats:
            t = Fraction(e.trace())
            if t.denominator != 1:
                raise OrderError("not a ring: basis trace is not an integer")
            tvec.append(int(t))
        self.trace_vec = tuple(tvec)

        # trace form trd(e_i e_j) and the reduced discriminant
        M = [[(basis_quats[i] * basis_quats[j]).trace() for j in range(4)]
             for i in range(4)]
        for row in M:
            for x in row:
                if Fraction(x).denominator != 1:
                    raise OrderError("not a ring: non-integral trace form")
        d = det_int([[int(x) for x in row] for row in M])
        r = math.isqrt(abs(d))
        if r * r != abs(d):
            raise OrderError("invalid order: trace form determinant is not a square")
        self.reduced_discriminant = r

        self.D_A = algebra_discriminant(alg)
        if r != self.D_A:
            raise OrderError(
                f"not maximal: reduced discriminant {r} != algebra discriminant {self.D_A}")

        # Gram of the Euclidean structure <x,y> = tr(conj(x) y)/2; n(x) = <x,x>
        G = [[(basis_quats[i].conj() * basis_quats[j]).trace() / 2 for j in range(4)]
             for i in range(4)]
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in G)
        self.gram2 = tuple(tuple(int(2 * x) for x in row) for row in self.gram)

        # rank-3 kernel of the trace, plus a deterministic trace-one element
        ker = kernel_basis([[t] for t in self.trace_vec])
        if len(ker) != 3:
            raise OrderError("trace kernel has wrong rank")
        self.im_basis = tuple(tuple(r) for r in ker)
        # int64 copies of the tables for the batched arithmetic
        self._S = np.array(self.structure, np.int64)
        self._G2 = np.array(self.gram2, np.int64)
        self._tvec = np.array(self.trace_vec, np.int64)
        self._one = np.array(self.one_coords, np.int64)
        self._units: Optional[List[OrderElement]] = None
        self._trace_one: Optional[OrderElement] = None

    # -- coordinate conversions --------------------------------------------

    def coords_of(self, q: Quaternion) -> Optional[Coords]:
        """Integer order coordinates of q, or None if q is not in the order."""
        v = [Fraction(x) for x in q.coeffs]
        sol = [sum(v[t] * self._basis_inv[t][c] for t in range(4)) for c in range(4)]
        if any(x.denominator != 1 for x in sol):
            return None
        return tuple(int(x) for x in sol)

    def frac_coords_of(self, q: Quaternion) -> Tuple[Fraction, ...]:
        v = [Fraction(x) for x in q.coeffs]
        return tuple(sum(v[t] * self._basis_inv[t][c] for t in range(4)) for c in range(4))

    def to_quaternion(self, x) -> Quaternion:
        c = x.coords if isinstance(x, OrderElement) else tuple(x)
        coeffs = [sum(Fraction(c[t]) * self.basis[t][pos] for t in range(4))
                  for pos in range(4)]
        return self.algebra.from_coeffs(coeffs)

    def element(self, *coords) -> OrderElement:
        if len(coords) == 1:
            coords = tuple(coords[0])
        return OrderElement(tuple(int(x) for x in coords))

    def element_of(self, q: Quaternion) -> OrderElement:
        c = self.coords_of(q)
        if c is None:
            raise OrderError("quaternion is not in the order")
        return OrderElement(c)

    # -- exact arithmetic in order coordinates -----------------------------

    def mul(self, x, y) -> Coords:
        xc = x.coords if isinstance(x, OrderElement) else x
        yc = y.coords if isinstance(y, OrderElement) else y
        out = [0, 0, 0, 0]
        for i in range(4):
            xi = xc[i]
            if not xi:
                continue
            row = self.structure[i]
            for j in range(4):
                yj = yc[j]
                if not yj:
                    continue
                f = xi * yj
                cij = row[j]
                out[0] += f * cij[0]
                out[1] += f * cij[1]
                out[2] += f * cij[2]
                out[3] += f * cij[3]
        return tuple(out)

    def conj(self, x) -> Coords:
        xc = x.coords if isinstance(x, OrderElement) else x
        t = self.trace(xc)
        return tuple(t * o - v for o, v in zip(self.one_coords, xc))

    def trace(self, x) -> int:
        xc = x.coords if isinstance(x, OrderElement) else x
        return sum(v * t for v, t in zip(xc, self.trace_vec))

    def norm(self, x) -> int:
        xc = x.coords if isinstance(x, OrderElement) else x
        g2 = self.gram2
        acc = 0
        for i in range(4):
            xi = xc[i]
            if not xi:
                continue
            gi = g2[i]
            acc += xi * (gi[0] * xc[0] + gi[1] * xc[1] + gi[2] * xc[2] + gi[3] * xc[3])
        return acc // 2

    # -- batched int64 arithmetic on rows of order coordinates ------------

    def norms(self, X: np.ndarray) -> np.ndarray:
        """n(x) for each row x of X (or for X itself when it is one row)."""
        return np.einsum("...i,ij,...j->...", X, self._G2, X) // 2

    def conjugates(self, X: np.ndarray) -> np.ndarray:
        """conj(x) for each row x of X (or for X itself when it is one row)."""
        return (X @ self._tvec)[..., None] * self._one - X

    def right_mul(self, C: np.ndarray) -> np.ndarray:
        """Matrix R with coords(x c) = x . R for c of shape (4,), or the
        stack of them, shape (N, 4, 4), for the rows of C."""
        return np.einsum("...j,ijk->...ik", C, self._S)

    def mul_rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Row-wise products: coords(X[r] Y[r])."""
        return (X[:, :, None] * Y[:, None, :]).reshape(-1, 16) @ self._S.reshape(16, 4)

    def trace_pairing(self, c: np.ndarray) -> np.ndarray:
        """tau(c) with tr(conj(a) c) = a . tau(c) for every a."""
        return self._G2 @ c

    # -- derived data -------------------------------------------------------

    @property
    def units(self) -> List[OrderElement]:
        """All elements of reduced norm 1; a finite group."""
        if self._units is None:
            self._units = [OrderElement(c) for c in enumerate_by_norm(self, 1)]
        return self._units

    @property
    def trace_one(self) -> OrderElement:
        """Deterministic element h with tr(h) = 1 (trace is onto Z)."""
        if self._trace_one is None:
            bound = 1
            while True:
                for c in enumerate_by_norm(self, bound):
                    if self.trace(c) == 1:
                        self._trace_one = OrderElement(c)
                        return self._trace_one
                bound += 1
        return self._trace_one

    @property
    def imaginary_sublattice(self) -> IntLattice:
        return IntLattice.from_rows(self.im_basis)

    def lattice(self) -> RatLattice:
        """The order itself as a rational lattice in order coordinates."""
        return RatLattice.from_int_rows([[1, 0, 0, 0], [0, 1, 0, 0],
                                         [0, 0, 1, 0], [0, 0, 0, 1]])

    def inv_principal_lattice(self, u: Quaternion) -> RatLattice:
        """Lattice u^-1 O in order coordinates (u a nonzero quaternion)."""
        uinv = u.inv()
        rows = [self.frac_coords_of(uinv * e) for e in self.basis_quats]
        return RatLattice.from_frac_rows(rows)

    def __repr__(self):
        return f"Order({self.name or 'custom'}, D_A={self.D_A})"


def _frac_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


# ---------------------------------------------------------------------------
# public operations


def make_order(algebra: Algebra, basis, name: str = "") -> Order:
    """Validate a basis as a maximal order; raises OrderError otherwise."""
    return Order(algebra, basis, name)


def reduced_discriminant(order: Order) -> int:
    return order.reduced_discriminant


def covolume(order: Order) -> Tuple[Fraction, Optional[Fraction]]:
    """(exact square of the covolume, rational square root when it exists)."""
    return order.covolume_sq, order.covolume


def lattice_covolume_sq(algebra: Algebra, frac_rows) -> Fraction:
    """Squared covolume of a rational lattice in H, rows in 1,i,j,k coords."""
    Bint, den = clear_denominators(frac_rows)
    d = Fraction(det_int(Bint), den ** 4)
    return d * d * (-algebra.a) * (-algebra.b) * (algebra.a * algebra.b)


def units(order: Order) -> List[OrderElement]:
    return order.units


def imaginary_sublattice(order: Order) -> IntLattice:
    return order.imaginary_sublattice


def trace_one_element(order: Order) -> OrderElement:
    return order.trace_one


def enumerate_by_norm(order: Order, bound) -> List[Coords]:
    """All x in O with 0 < n(x) <= bound, sorted lexicographically on coords.

    With G the Gram matrix of the norm form, x_i = <x, v_i> for the dual
    basis vector v_i, and n(v_i) = (G^-1)_ii, so Cauchy-Schwarz confines
    every such x to the box |x_i| <= sqrt(bound (G^-1)_ii).  The box radii
    are exact integer square roots and each box point is kept by its exact
    int64 norm: no step uses floating point.
    """
    bound = Fraction(bound)
    if bound <= 0:
        return []
    Ginv = mat_frac_inverse(order.gram)
    radii = []
    for i in range(4):
        r2 = bound * Ginv[i][i]
        radii.append(math.isqrt(r2.numerator * r2.denominator) // r2.denominator)
    axes = np.ix_(*(np.arange(-r, r + 1, dtype=np.int64) for r in radii[1:]))
    out: List[Coords] = []
    # one x_0 slab at a time, so the transient arrays stay 3-dimensional
    for x0 in range(-radii[0], radii[0] + 1):
        x = (x0,) + axes
        norm2 = sum(order.gram2[i][j] * x[i] * x[j]
                    for i in range(4) for j in range(4))
        # n(x) is an integer, so n(x) <= bound iff 2 n(x) <= 2 floor(bound)
        keep = np.argwhere((norm2 > 0) & (norm2 <= 2 * math.floor(bound)))
        out += [(x0, *y) for y in (keep - radii[1:]).tolist()]
    return out


IDENTITY_ROWS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def left_ideal_gens_rows(order: Order, gens: Iterable) -> List[Coords]:
    return [order.mul(e, g) for g in gens for e in IDENTITY_ROWS]


def left_ideal_is_full(order: Order, gens: Sequence) -> bool:
    """True iff the left ideal O<gens> equals O (HNF of products = identity)."""
    gens = list(gens)
    if not gens:
        raise ValueError("gens must be nonempty")
    h = hnf(left_ideal_gens_rows(order, gens))
    return tuple(tuple(r) for r in h) == IDENTITY_ROWS


def ideal_inverse(order: Order, gens: Sequence) -> RatLattice:
    """{x in A : I x <= O} for I the left ideal generated by gens, in O-coords."""
    rows = hnf(left_ideal_gens_rows(order, gens))
    if len(rows) != 4:
        raise OrderError("not a fractional ideal: generators are rank deficient")
    cols = []
    for b in rows:
        # right-multiplication condition: coords(b * x) = xi . M_b must be integral
        Mb = [order.mul(b, ej) for ej in IDENTITY_ROWS]
        # columns of M_b as vectors paired with xi by the standard dot product
        for cidx in range(4):
            cols.append([Mb[0][cidx], Mb[1][cidx], Mb[2][cidx], Mb[3][cidx]])
    col_lattice = RatLattice.from_int_rows(cols)
    return col_lattice.dual()


# ---------------------------------------------------------------------------
# builtin orders and order-spec files


def _hurwitz() -> Order:
    alg = Algebra(-1, -1)
    basis = [
        [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    return make_order(alg, basis, name="hurwitz")


def order_spec_dict(order: Order) -> dict:
    """The JSON order-spec of order, read back by order_spec_from_dict."""
    return {
        "a": order.algebra.a,
        "b": order.algebra.b,
        "name": order.name or "custom",
        "basis": [[[x.numerator, x.denominator] for x in row] for row in order.basis],
    }


def order_spec_from_dict(spec: dict) -> Order:
    """Build an order from the JSON order-spec schema; floats are rejected."""
    if not isinstance(spec, dict):
        raise OrderError("order spec must be a JSON object")
    for key in ("a", "b", "basis", "name"):
        if key not in spec:
            raise OrderError(f"order spec is missing field '{key}'")
    a, b = spec["a"], spec["b"]
    if not _is_int(a) or not _is_int(b):
        raise OrderError("order spec fields a, b must be exact integers")
    rows = spec["basis"]
    if (not isinstance(rows, (list, tuple)) or len(rows) != 4
            or any(not isinstance(r, (list, tuple)) or len(r) != 4 for r in rows)):
        raise OrderError("order spec basis must be 4x4")
    basis = []
    for row in rows:
        out = []
        for entry in row:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not _is_int(entry[0]) or not _is_int(entry[1])):
                raise OrderError("basis entries must be [num, den] integer pairs")
            num, den = entry
            if den == 0:
                raise OrderError("zero denominator in basis entry")
            out.append(Fraction(int(num), int(den)))
        basis.append(out)
    try:
        algebra = Algebra(int(a), int(b))
    except ValueError as exc:
        raise OrderError(str(exc)) from None
    return make_order(algebra, basis, name=str(spec["name"]))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_order_spec(path) -> Order:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return order_spec_from_dict(spec)


_BUILTIN_CACHE: dict = {}


def builtin_order(name: str) -> Order:
    """Builtin orders: 'hurwitz' (in code) and 'd3' (packaged order-spec file)."""
    key = name.lower()
    if key in _BUILTIN_CACHE:
        return _BUILTIN_CACHE[key]
    if key == "hurwitz":
        order = _hurwitz()
    elif key in ("d3", "a3"):
        from importlib.resources import files
        spec = json.loads(files("heisquat.data").joinpath("order_d3.json").read_text())
        order = order_spec_from_dict(spec)
    else:
        raise OrderError(f"unknown builtin order '{name}'")
    _BUILTIN_CACHE[key] = order
    return order
