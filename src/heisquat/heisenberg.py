"""The quaternionic Heisenberg group Heis_7, its arithmetic lattice N(O),
the Cygan metric, the shear action on triples and exact orbit reduction.

Points (w0, w) satisfy the defining relation tr(w0) = n(w).  The group law
is (w0, w)(w0', w') = (w0 + w0' + conj(w) w', w + w'), and the lattice
N(O) = Heis_7 cap (O x O) acts on admissible triples (a, alpha, c) by
shears.  The group is Heis_7 only (dimension n = 2: w is one quaternion),
and all arithmetic here is exact, on int and Fraction coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor
from typing import Optional, Tuple

import numpy as np

from .lattices import clear_denominators, det_int, mat_frac_inverse, mat_mul
from .orders import Order, OrderElement
from .quaternion import Quaternion


class HeisError(ValueError):
    pass


@dataclass(frozen=True)
class HeisPoint:
    """Point (w0, w) of Heis_7 with tr(w0) = n(w), exact coefficients."""

    w0: Quaternion
    w: Quaternion

    def __post_init__(self):
        if self.w0.trace() != self.w.norm():
            raise HeisError("not a Heisenberg point: tr(w0) != n(w)")

    def zeta_u(self) -> Tuple[Quaternion, Quaternion]:
        """Horospherical-style coordinates (zeta, u) = (w, 2 Im w0)."""
        return self.w, 2 * self.w0.imag()


def heis_mul(p: HeisPoint, q: HeisPoint) -> HeisPoint:
    return HeisPoint(p.w0 + q.w0 + p.w.conj() * q.w, p.w + q.w)


def heis_inv(p: HeisPoint) -> HeisPoint:
    return HeisPoint(p.w0.conj(), -p.w)


# ---------------------------------------------------------------------------
# Cygan distance


def _cygan4_zut(z, u, t, zp, up, tp) -> Fraction:
    """Fourth power of the Cygan distance in (zeta, u, t) coordinates.

    zeta, zeta' are single quaternions, since Heis_7 has n = 2.  The
    quaternion inside the outer norm has real part n(zeta - zeta') +
    |t - t'| and imaginary part u - u' + 2 Im(conj(zeta) zeta'); this is
    the left-invariant version (the group-difference gauge).
    """
    re = (z - zp).norm() + abs(t - tp)
    im = u - up + 2 * (z.conj() * zp).imag()
    return re * re + im.norm()


def cygan_dist4(p, q) -> Fraction:
    """Fourth power of the Cygan distance, exact.

    Accepts HeisPoint (t = 0) or (zeta, u, t) triples.
    """
    return _cygan4_zut(*_as_zut(p), *_as_zut(q))


def _as_zut(p):
    if isinstance(p, HeisPoint):
        z, u = p.zeta_u()
        return z, u, 0
    z, u, t = p
    return z, u, t


# ---------------------------------------------------------------------------
# the lattice N(O) and the shear action on triples


def in_lattice(order: Order, p: HeisPoint) -> bool:
    """True iff both components of p lie in O (the relation is part of HeisPoint)."""
    return order.coords_of(p.w0) is not None and order.coords_of(p.w) is not None


@dataclass(frozen=True)
class Triple:
    """Triple (a, alpha, c) of order elements with c != 0."""

    a: OrderElement
    alpha: OrderElement
    c: OrderElement

    def __post_init__(self):
        if not any(self.c.coords):
            raise HeisError("triple needs c != 0")

    def coords(self) -> Tuple[int, ...]:
        return self.a.coords + self.alpha.coords + self.c.coords


def is_admissible(order: Order, t: Triple) -> bool:
    """Trace-norm relation tr(conj(a) c) = n(alpha)."""
    return order.trace(order.mul(order.conj(t.a), t.c)) == order.norm(t.alpha)


def is_primitive(order: Order, t: Triple) -> bool:
    from .orders import left_ideal_is_full
    return left_ideal_is_full(order, [t.a, t.alpha, t.c])


def shear(order: Order, g: HeisPoint, t: Triple) -> Triple:
    """Action of g = (w0, w) in N(O): (a + conj(w) alpha + w0 c, alpha + w c, c)."""
    w0c = order.coords_of(g.w0)
    wc = order.coords_of(g.w)
    if w0c is None or wc is None:
        raise HeisError("g is not in N(O)")
    return _shear_coords(order, w0c, wc, t)


def _shear_coords(order: Order, w0c, wc, t: Triple) -> Triple:
    wbar = order.conj(wc)
    a = tuple(x + y + z for x, y, z in
              zip(t.a.coords, order.mul(wbar, t.alpha), order.mul(w0c, t.c)))
    alpha = tuple(x + y for x, y in zip(t.alpha.coords, order.mul(wc, t.c)))
    return Triple(OrderElement(a), OrderElement(alpha), t.c)


def heis_point_of_triple(order: Order, t: Triple) -> HeisPoint:
    """(a c^-1, alpha c^-1) as exact quaternions; satisfies the Heis relation."""
    cq = order.to_quaternion(t.c)
    cinv = cq.inv()
    return HeisPoint(order.to_quaternion(t.a) * cinv,
                     order.to_quaternion(t.alpha) * cinv)


# ---------------------------------------------------------------------------
# fundamental domain and canonical orbit representatives


class FundamentalDomain:
    """Product cell for the left action of N(O) on Heis_7.

    cell4 is the half-open parallelepiped of O-coordinates [0,1)^4 for the
    w-part; cell3 is the half-open cell of the lattice 2 Im(O) for the
    vertical coordinate u = 2 Im(w0).  R4 and R3 are the vertex maxima of
    the norm over the closed cells, read off the order's integer norm
    form: bounds on n(alpha c^-1) and n(2 Im(a c^-1)) in the domain.  No
    enumeration uses them, as the scan and the oracle run over residue
    transversals; the tests pin them per order, for an oracle that
    enumerates alpha and a by norm.
    """

    def __init__(self, order: Order):
        self.order = order
        # the vertices of the closed cells: the 0/1 vectors in order
        # coordinates for cell4, the subset sums of 2 Im(O) for cell3
        self.R4 = max(Fraction(order.norm(v)) for v in product((0, 1), repeat=4))
        im = order.im_basis
        self.R3 = max(Fraction(order.norm([2 * sum(m * r[pos] for m, r in zip(mask, im))
                                           for pos in range(4)]))
                      for mask in product((0, 1), repeat=3))
        im_quats = [order.to_quaternion(r) for r in im]
        # invert the imaginary-coordinate map: u = y . (2 * im basis), u in Im H
        rows = [[2 * Fraction(q.coeffs[pos]) for pos in (1, 2, 3)] for q in im_quats]
        self._im_inv = mat_frac_inverse(rows)
        # the same map on order coordinates x, in integers: the cell3
        # coordinates of 2 Im(x) are x . cell3_num / cell3_den
        basis_num, basis_den = clear_denominators(order.basis)
        inv_num, inv_den = clear_denominators(self._im_inv)
        self.cell3_num = (2 * np.array(basis_num, np.int64)[:, 1:4]
                          @ np.array(inv_num, np.int64))
        self.cell3_den = basis_den * inv_den

    def cell4_coords(self, q: Quaternion) -> Tuple[Fraction, ...]:
        return self.order.frac_coords_of(q)

    def cell3_coords(self, u: Quaternion) -> Tuple[Fraction, ...]:
        """Coordinates of an imaginary quaternion u in the basis 2*Im(O)."""
        if u.trace() != 0:
            raise HeisError("vertical coordinate must be imaginary")
        v = [Fraction(u.coeffs[pos]) for pos in (1, 2, 3)]
        return tuple(sum(v[t] * self._im_inv[t][c] for t in range(3)) for c in range(3))

    def in_cell4(self, q: Quaternion) -> bool:
        return all(0 <= x < 1 for x in self.cell4_coords(q))

    def in_cell3(self, u: Quaternion) -> bool:
        return all(0 <= y < 1 for y in self.cell3_coords(u))


def canonicalize(order: Order, t: Triple,
                 fd: Optional[FundamentalDomain] = None) -> Tuple[Triple, HeisPoint]:
    """Unique N(O)-orbit representative whose Heisenberg point lies in the
    fundamental domain, together with that point.

    Step 1 translates the w-part into cell4 with g1 = (n(w) h, w), h the
    stored trace-one element; step 2 applies the unique vertical translation
    (w0, 0), w0 in Im(O), putting u = 2 Im(a c^-1) into cell3.
    """
    if fd is None:
        fd = FundamentalDomain(order)
    if not is_admissible(order, t):
        raise HeisError("inadmissible triple")
    cq = order.to_quaternion(t.c)
    cinv = cq.inv()

    x = order.frac_coords_of(order.to_quaternion(t.alpha) * cinv)
    wc = tuple(-floor(v) for v in x)
    nw = order.norm(wc)
    h = order.trace_one.coords
    w0c = tuple(nw * hh for hh in h)
    t1 = _shear_coords(order, w0c, wc, t)

    u = 2 * (order.to_quaternion(t1.a) * cinv).imag()
    y = fd.cell3_coords(u)
    fl = [floor(v) for v in y]
    v0 = [0, 0, 0, 0]
    for idx in range(3):
        if fl[idx]:
            for pos in range(4):
                v0[pos] -= fl[idx] * order.im_basis[idx][pos]
    t2 = _shear_coords(order, tuple(v0), (0, 0, 0, 0), t1)
    return t2, heis_point_of_triple(order, t2)


def _int64_product(Y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Y @ M of int64 arrays, asserting, as the oracle's lattice check
    does, that the inner dimension times max|Y| max|M| stays below 2^61:
    it bounds every entry and partial sum of the product, and max|Y| when
    M is not 0.  The maxima are Python ints, so |-2^63| is positive."""
    top = [max(-int(Z.min(initial=0)), int(Z.max(initial=0))) for Z in (Y, M)]
    if Y.shape[-1] * top[0] * top[1] >= 2 ** 61:
        raise AssertionError("canonical rows leave int64")
    return Y @ M


def canonical_rows(fd: FundamentalDomain, c: np.ndarray, A: np.ndarray, X: np.ndarray) -> tuple:
    """(A', X'): the canonical representatives of the triples (A[r], X[r],
    c), rows of order coordinates, c an int64 array of shape (4,); the
    two steps of canonicalize on whole int64 arrays.

    Step 1 shears by (n(w) h, w), w = -floor(alpha c^-1): alpha c^-1 =
    alpha conj(c) / n(c) gives w = -(X . Rbar // n(c)), Rbar = R_conj(c),
    and X' = X + w . R_c.  It adds conj(w) alpha + n(w) h c = conj(w)
    (alpha + w h c) to a: x -> conj(w) x has the matrix conj(w) . S, S
    the order's structure table (left_mul of the basis), one per row.
    Step 2 subtracts y r c, y the floor of the cell3 coordinates (a .
    Rbar . cell3_num) / (cell3_den n(c)) of 2 Im(a c^-1) and r the rows
    of im_basis.  It shares FundamentalDomain.cell3_num with
    counting._member_rows, which reduces the same map to Pnum / Pden.
    Every product, and every factor that meets a nonzero matrix, is
    asserted below 2^61 in absolute value (_int64_product), so no sum
    here, of at most three such values, leaves int64; a sum that did
    would be a factor of 2^62 or more, which the next product rejects.
    """
    order, E = fd.order, np.eye(4, dtype=np.int64)
    nc, Rc, Rbar = order.norms(c), order.right_mul(c), order.right_mul(order.conjugates(c))
    W = -(_int64_product(X, Rbar) // nc)
    Y = X + _int64_product(W, order.right_mul(np.array(order.trace_one.coords) @ Rc))
    Lw = _int64_product(_int64_product(W, order.conjugates(E)), order.left_mul(E).reshape(4, 16))
    A1 = A + _int64_product(Y[:, None], Lw.reshape(-1, 4, 4))[:, 0]
    y = _int64_product(A1, Rbar @ fd.cell3_num) // (fd.cell3_den * nc)
    return A1 - _int64_product(y, np.array(order.im_basis) @ Rc), X + _int64_product(W, Rc)


def in_fundamental_domain(order: Order, t: Triple,
                          fd: Optional[FundamentalDomain] = None) -> bool:
    """True iff t is its own canonical representative."""
    if fd is None:
        fd = FundamentalDomain(order)
    if not is_admissible(order, t):
        return False
    cinv = order.to_quaternion(t.c).inv()
    if not fd.in_cell4(order.to_quaternion(t.alpha) * cinv):
        return False
    return fd.in_cell3(2 * (order.to_quaternion(t.a) * cinv).imag())


# ---------------------------------------------------------------------------


def haar_mass_check(order: Order) -> Fraction:
    """Total mass D_A^2/4 of the measure induced on N(O)\\Heis_7.

    Computed as 2 covol(Im O in Im H) covol(O in H) and asserted equal to
    4 covol(O)^2 = D_A^2/4.  covol(Im O) comes from gram2 and covol(O) from
    the basis determinant, so the two assertions compare independent routes.
    """
    covol_o_sq = order.covolume_sq
    # gram2 is twice the Gram matrix, so the Gram determinant of the
    # imaginary sublattice is det(im_basis . gram2 . im_basis^T) / 8
    im = order.im_basis
    covol_im_sq = Fraction(det_int(mat_mul(mat_mul(im, order.gram2), list(zip(*im)))), 8)
    mass_sq = 4 * covol_im_sq * covol_o_sq
    expected_sq = (Fraction(order.D_A, 2) ** 2) ** 2
    if mass_sq != expected_sq:
        raise HeisError("Haar mass check failed")
    if 16 * covol_o_sq * covol_o_sq != mass_sq:
        raise HeisError("Haar mass is not 4 covol(O)^2")
    return Fraction(order.D_A ** 2, 4)


def random_lattice_point(order: Order, rng, span: int = 5) -> HeisPoint:
    """Random element of N(O): w with coordinates in [-span, span], plus the
    canonical lift n(w) h and a random imaginary part."""
    wc = tuple(rng.randint(-span, span) for _ in range(4))
    nw = order.norm(wc)
    w0 = [nw * hh for hh in order.trace_one.coords]
    for idx in range(3):
        m = rng.randint(-span, span)
        for pos in range(4):
            w0[pos] += m * order.im_basis[idx][pos]
    return HeisPoint(order.to_quaternion(tuple(w0)), order.to_quaternion(wc))
