"""Floating-point geometry kernel for quaternionic hyperbolic n-space.

The Siegel domain model is {(w0, w) : tr(w0) - n(w) > 0} with w a vector
of n-1 quaternions; horospherical coordinates are (zeta, u, t) with
t = tr(w0) - n(w) the height over the boundary.  The metric is normalised
to sectional curvature in [-4, -1].  Formulas are generic in n (default
n = 2); the unitary-group machinery is for n = 2 (3x3 matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .heisenberg import _cygan4_zut
from .quaternion import HAMILTON, Quaternion, vec_dot_conj, vec_norm, vec_scale_right

DEFAULT_TOL = 1e-9

INFINITY = "infinity"  # the boundary point at infinity


def q_scalar(*coeffs) -> Quaternion:
    c = list(coeffs) + [0.0] * (4 - len(coeffs))
    return Quaternion(HAMILTON, float(c[0]), float(c[1]), float(c[2]), float(c[3]))


Q_ZERO = q_scalar(0.0)
Q_ONE = q_scalar(1.0)


@dataclass(frozen=True)
class SiegelPoint:
    """Interior or boundary point (w0, w) in the Siegel domain model."""

    w0: Quaternion
    w: Tuple[Quaternion, ...]

    @property
    def height(self) -> float:
        return self.w0.trace() - vec_norm(self.w)


@dataclass(frozen=True)
class HoroPoint:
    """Point in horospherical coordinates (zeta, u, t); t = 0 on the boundary."""

    zeta: Tuple[Quaternion, ...]
    u: Quaternion
    t: float

    def __post_init__(self):
        if abs(self.u.trace()) > 1e-12 * (1 + abs(self.u.norm())):
            raise ValueError("vertical coordinate u must be purely imaginary")


def siegel(w0: Quaternion, w) -> SiegelPoint:
    if isinstance(w, Quaternion):
        w = (w,)
    return SiegelPoint(w0, tuple(w))


def horo(zeta, u: Quaternion, t: float) -> HoroPoint:
    if isinstance(zeta, Quaternion):
        zeta = (zeta,)
    return HoroPoint(tuple(zeta), u, float(t))


def to_siegel(p: HoroPoint) -> SiegelPoint:
    """(zeta, u, t) -> ((n(zeta) + t + u)/2, zeta)."""
    w0 = 0.5 * (q_scalar(vec_norm(p.zeta) + p.t) + p.u)
    return SiegelPoint(w0, p.zeta)


def to_horo(p: SiegelPoint) -> HoroPoint:
    """(w0, w) -> (w, 2 Im w0, tr w0 - n(w))."""
    return HoroPoint(p.w, 2.0 * p.w0.imag(), p.height)


def coords(p):
    """Convert between Siegel and horospherical coordinates (involutive)."""
    if isinstance(p, SiegelPoint):
        return to_horo(p)
    if isinstance(p, HoroPoint):
        return to_siegel(p)
    raise TypeError("expected SiegelPoint or HoroPoint")


# ---------------------------------------------------------------------------
# Hermitian form, distance, Busemann cocycle


def q_form(z0: Quaternion, z, zn: Quaternion) -> float:
    """q(z0, z, zn) = -tr(conj(z0) zn) + n(z); real valued."""
    return -(z0.conj() * zn).trace() + vec_norm(z)


def phi_form(x, y) -> Quaternion:
    """Sesquilinear Phi((x0,x,xn),(y0,y,yn)) = -conj(x0) yn - conj(xn) y0 + x.y."""
    x0, xv, xn = x
    y0, yv, yn = y
    acc = -(x0.conj() * yn) - (xn.conj() * y0)
    if xv:
        acc = acc + vec_dot_conj(xv, yv)
    return acc


def _lift(p: SiegelPoint):
    return (p.w0, p.w, Q_ONE)


def dist(x, y) -> float:
    """Riemannian distance; cosh^2 d = n(Phi(x,y)) / (q(x) q(y))."""
    xs = x if isinstance(x, SiegelPoint) else to_siegel(x)
    ys = y if isinstance(y, SiegelPoint) else to_siegel(y)
    qx = q_form(*_lift(xs))
    qy = q_form(*_lift(ys))
    if qx >= 0 or qy >= 0:
        raise ValueError("dist needs interior points")
    c2 = phi_form(_lift(xs), _lift(ys)).norm() / (qx * qy)
    c2 = max(c2, 1.0)
    return math.acosh(math.sqrt(c2))


def busemann(xi, x, y) -> float:
    """Busemann cocycle beta_xi(x, y) for xi in the boundary or INFINITY.

    For xi = infinity this is (1/2) ln(t'/t); for a finite boundary point
    it is (1/2) ln of the Cygan-distance expression of the horospherical
    heights and fourth powers.
    """
    xh = x if isinstance(x, HoroPoint) else to_horo(x)
    yh = y if isinstance(y, HoroPoint) else to_horo(y)
    if xi == INFINITY:
        return 0.5 * math.log(yh.t / xh.t)
    xih = xi if isinstance(xi, HoroPoint) else to_horo(xi)
    d4x = _cygan4(xh, xih)
    d4y = _cygan4(yh, xih)
    if d4x == 0 or d4y == 0:
        raise ValueError("Busemann point coincides with an argument footprint")
    return 0.5 * math.log(yh.t * d4x / (xh.t * d4y))


def _cygan4(p: HoroPoint, q: HoroPoint) -> float:
    return float(_cygan4_zut(p.zeta, p.u, p.t, q.zeta, q.u, q.t))


def cygan(p, q) -> float:
    ph = p if isinstance(p, HoroPoint) else to_horo(p)
    qh = q if isinstance(q, HoroPoint) else to_horo(q)
    return _cygan4(ph, qh) ** 0.25


# ---------------------------------------------------------------------------
# geodesics and projections


def geodesic_to_zero(p: SiegelPoint):
    """Unit-speed geodesic line from the boundary point p = (w0, w) (as
    s -> -inf) to the boundary origin (0,0) (as s -> +inf); needs w0 != 0.
    """
    if abs(p.height) > 1e-9 * (1 + abs(p.w0.trace())):
        raise ValueError("geodesic_to_zero needs an isotropic boundary point")
    if p.w0.norm() == 0:
        raise ValueError("w0 = 0: the point is the origin itself")

    def gamma(s: float) -> SiegelPoint:
        f = (Q_ONE + (2.0 * math.exp(2 * s)) * p.w0).inv()
        return SiegelPoint(p.w0 * f, vec_scale_right(p.w, f))

    return gamma


def vertical_geodesic(zeta, u):
    """s -> (zeta, u, e^{2s}), the unit-speed geodesic to infinity."""
    if isinstance(zeta, Quaternion):
        zeta = (zeta,)

    def gamma(s: float) -> HoroPoint:
        return HoroPoint(tuple(zeta), u, math.exp(2 * s))

    return gamma


def project_to_vertical_geodesic(p) -> HoroPoint:
    """Orthogonal projection of a boundary point != (0,0), infinity onto the
    geodesic line joining (0,0) and infinity: (0, 0, (n(zeta)^2 + n(u))^(1/2))."""
    ph = p if isinstance(p, HoroPoint) else to_horo(p)
    nz = vec_norm(ph.zeta)
    nu = ph.u.norm()
    if nz == 0 and nu == 0:
        raise ValueError("projection undefined at the line's endpoints")
    n = len(ph.zeta)
    return HoroPoint((Q_ZERO,) * n, 0 * ph.u, math.sqrt(nz * nz + nu))


def project_to_quaternionic_line(p):
    """Orthogonal projection to C = {w = 0}: interior (w0, w) -> (w0, 0);
    boundary (zeta, u, 0) -> (0, u, n(zeta)) in horospherical coordinates."""
    if isinstance(p, SiegelPoint) and p.height > 0:
        return SiegelPoint(p.w0, tuple(Q_ZERO for _ in p.w))
    ph = p if isinstance(p, HoroPoint) else to_horo(p)
    if ph.t > 0:
        ps = to_siegel(ph)
        return to_horo(SiegelPoint(ps.w0, tuple(Q_ZERO for _ in ps.w)))
    nz = vec_norm(ph.zeta)
    if nz == 0:
        raise ValueError("boundary point lies on the boundary circle of the line")
    n = len(ph.zeta)
    return HoroPoint((Q_ZERO,) * n, ph.u, nz)


# ---------------------------------------------------------------------------
# the unitary group U_q for n = 2 (3x3 quaternionic matrices)


QMatrix3 = Tuple[Tuple[Quaternion, ...], ...]


def qmat(rows) -> QMatrix3:
    out = []
    for row in rows:
        out.append(tuple(x if isinstance(x, Quaternion) else q_scalar(x)
                         for x in row))
    return tuple(out)


J3 = qmat([[0, 0, -1], [0, 1, 0], [-1, 0, 0]])
IDENTITY3 = qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
IOTA = qmat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def qmat_mul(A: QMatrix3, B: QMatrix3) -> QMatrix3:
    n = len(A)
    m = len(B[0])
    inner = len(B)
    return tuple(tuple(sum((A[r][t] * B[t][c] for t in range(inner)),
                           start=Q_ZERO) for c in range(m)) for r in range(n))


def qmat_star(A: QMatrix3) -> QMatrix3:
    n, m = len(A), len(A[0])
    return tuple(tuple(A[c][r].conj() for c in range(n)) for r in range(m))


def qmat_sub(A: QMatrix3, B: QMatrix3) -> QMatrix3:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def qmat_inverse_unitary(g: QMatrix3) -> QMatrix3:
    """Inverse of g in U_q: g^-1 = J g* J."""
    return qmat_mul(qmat_mul(J3, qmat_star(g)), J3)


def _maxabs(A: QMatrix3) -> float:
    return max(abs(c) for row in A for x in row for c in x.coeffs)


def is_unitary(g: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """g* J g = J within tolerance."""
    return _maxabs(qmat_sub(qmat_mul(qmat_star(g), qmat_mul(J3, g)), J3)) <= tol


def six_equations(g: QMatrix3) -> List[float]:
    """Residuals of the six identities characterising U_q for n = 2.

    Entries of g are named a, gamma*, b / alpha, A, beta / c, delta*, d.
    """
    a, gs, b = g[0]
    al, A, be = g[1]
    c, ds, d = g[2]
    gam = gs.conj()
    dl = ds.conj()
    eqs = [
        c * d.conj() - ds * dl + d * c.conj(),
        a * b.conj() - gs * gam + b * a.conj(),
        -(al * be.conj()) + A * A.conj() - be * al.conj() - Q_ONE,
        c * b.conj() - ds * gam + d * a.conj() - Q_ONE,
        al * d.conj() - A * dl + be * c.conj(),
        al * b.conj() - A * gam + be * a.conj(),
    ]
    return [max(abs(x) for x in e.coeffs) for e in eqs]


def heis_translation_matrix(zeta: Quaternion, u: Quaternion) -> QMatrix3:
    """The Heisenberg translation (zeta, u) as an element of U_q (n = 2)."""
    b = 0.5 * (q_scalar(zeta.norm()) + u)
    return qmat([[Q_ONE, zeta.conj(), b],
                 [Q_ZERO, Q_ONE, zeta],
                 [Q_ZERO, Q_ZERO, Q_ONE]])


def upper_triangular_matrix(zeta: Quaternion, u: Quaternion, U: Quaternion,
                            mu: Quaternion, r: float) -> QMatrix3:
    """General element of the upper-triangular group B_q (n = 2)."""
    b = (0.5 / r) * ((q_scalar(zeta.norm()) + u) * mu)
    return qmat([[mu * r, zeta.conj(), b],
                 [Q_ZERO, U, (1.0 / r) * (U * zeta * mu)],
                 [Q_ZERO, Q_ZERO, (1.0 / r) * mu]])


def apply_matrix(g: QMatrix3, p) -> SiegelPoint:
    """Projective action on Siegel points via the lift (w0, w, 1)."""
    ps = p if isinstance(p, SiegelPoint) else to_siegel(p)
    col = (ps.w0,) + ps.w + (Q_ONE,)
    out = [sum((g[r][t] * col[t] for t in range(len(col))), start=Q_ZERO)
           for r in range(len(col))]
    zn_inv = out[-1].inv()
    return SiegelPoint(out[0] * zn_inv,
                       tuple(x * zn_inv for x in out[1:-1]))


def horoball_distance(g: QMatrix3, s: float) -> float:
    """d(H_s, g H_s) = (1/2) log n(c_g) + log(s/2) for g in U_q with c_g != 0."""
    cg = g[2][0]
    ncg = cg.norm()
    if ncg == 0:
        raise ValueError("g fixes infinity (c_g = 0)")
    return 0.5 * math.log(ncg) + math.log(s / 2.0)


# ---------------------------------------------------------------------------
# metric and volume density in horospherical coordinates


def metric_and_volume(p: HoroPoint, v) -> Tuple[float, float]:
    """Squared length of the tangent vector v = (dzeta, du, dt) at p, and
    the Riemannian volume density 1/(16 t^{2n+2}) at p.

    ds^2 = (dt^2 + n(du - 2 Im(conj(dzeta) . zeta)) + 4 t n(dzeta)) / (4 t^2).
    """
    if p.t <= 0:
        raise ValueError("metric needs t > 0")
    dzeta, du, dt = v
    if isinstance(dzeta, Quaternion):
        dzeta = (dzeta,)
    n = len(p.zeta) + 1
    cross = vec_dot_conj(dzeta, p.zeta).imag()
    sq = (dt * dt + (du - 2 * cross).norm() + 4 * p.t * vec_norm(dzeta)) \
        / (4 * p.t * p.t)
    density = 1.0 / (16.0 * p.t ** (2 * n + 2))
    return sq, density


def metric_matrix(p: HoroPoint) -> List[List[float]]:
    """Gram matrix of the metric in the coordinates (zeta coords, u coords, t)."""
    m = len(p.zeta)
    dim = 4 * m + 4

    def basis_vector(i):
        dz = [Q_ZERO] * m
        du = Q_ZERO
        dt = 0.0
        if i < 4 * m:
            q, r = divmod(i, 4)
            coeffs = [0.0] * 4
            coeffs[r] = 1.0
            dz[q] = Quaternion(HAMILTON, *coeffs)
        elif i < 4 * m + 3:
            coeffs = [0.0] * 4
            coeffs[i - 4 * m + 1] = 1.0
            du = Quaternion(HAMILTON, *coeffs)
        else:
            dt = 1.0
        return tuple(dz), du, dt

    def q_of(v):
        return metric_and_volume(p, v)[0]

    vecs = [basis_vector(i) for i in range(dim)]
    G = [[0.0] * dim for _ in range(dim)]
    qs = [q_of(v) for v in vecs]
    for i in range(dim):
        G[i][i] = qs[i]
    for i in range(dim):
        for j in range(i + 1, dim):
            vij = (tuple(x + y for x, y in zip(vecs[i][0], vecs[j][0])),
                   vecs[i][1] + vecs[j][1], vecs[i][2] + vecs[j][2])
            G[i][j] = G[j][i] = 0.5 * (q_of(vij) - qs[i] - qs[j])
    return G


# ---------------------------------------------------------------------------
# self-test report


def geom_selftest(seed: int = 20240801, n_triples: int = 200,
                  tol_identity: float = DEFAULT_TOL,
                  tol_limit: float = 1e-6) -> dict:
    """Numerical residual suite for the geometry kernel; returns a report
    dict with per-check maxima and pass flags."""
    import random

    rng = random.Random(seed)

    def rq(scale=1.0):
        return q_scalar(*(rng.uniform(-scale, scale) for _ in range(4)))

    def rim(scale=1.0):
        return Quaternion(HAMILTON, 0.0, rng.uniform(-scale, scale),
                          rng.uniform(-scale, scale), rng.uniform(-scale, scale))

    def rpoint(scale=1.0):
        return horo(rq(scale), rim(scale), math.exp(rng.uniform(-1.5, 1.5)))

    report = {}

    worst = 0.0
    for _ in range(n_triples):
        a, b, c = rpoint(), rpoint(), rpoint()
        worst = max(worst, dist(a, c) - dist(a, b) - dist(b, c))
    report["triangle_inequality_slack"] = worst

    worst = 0.0
    for _ in range(50):
        a, b = rpoint(), rpoint()
        worst = max(worst, abs(dist(a, b) - dist(b, a)))
    report["distance_symmetry"] = worst

    # invariance under Heisenberg translations and the inversion iota
    worst = 0.0
    for _ in range(50):
        a, b = rpoint(), rpoint()
        tau = heis_translation_matrix(rq(), rim())
        worst = max(worst, abs(dist(apply_matrix(tau, a), apply_matrix(tau, b))
                               - dist(a, b)))
        worst = max(worst, abs(dist(apply_matrix(IOTA, a), apply_matrix(IOTA, b))
                               - dist(a, b)))
    report["isometry_invariance"] = worst

    # Busemann cocycle identity and the closed form vs the limit definition
    worst = 0.0
    worst_lim = 0.0
    for _ in range(30):
        x, y, z = rpoint(), rpoint(), rpoint()
        xi = horo(rq(), rim(), 0.0)
        worst = max(worst, abs(busemann(xi, x, z) - busemann(xi, x, y)
                               - busemann(xi, y, z)))
        gam = geodesic_to_zero(to_siegel(xi))
        far = gam(-0.5 * math.log(1e8))
        worst_lim = max(worst_lim,
                        abs(busemann(xi, x, y) - (dist(far, x) - dist(far, y))))
    report["busemann_cocycle"] = worst
    report["busemann_limit"] = worst_lim

    # unit speed: dist(gamma(s), gamma(s + h)) = h holds exactly, so h need
    # not be small; a small h puts acosh near 1, where round-off in dist
    # reaches 1e-6
    worst = 0.0
    h = 0.5
    for _ in range(10):
        xi = horo(rq(), rim(), 0.0)
        gam = geodesic_to_zero(to_siegel(xi))
        for s in (-2.0, -0.7, 0.0, 0.9, 2.1):
            worst = max(worst, abs(dist(gam(s), gam(s + h)) / h - 1.0))
    report["geodesic_unit_speed"] = worst

    # unitarity test equivalence on B_q samples and products with iota
    agree = True
    worst = 0.0
    for _ in range(200):
        zeta, u = rq(), rim()
        U = rq(); U = U * (1.0 / math.sqrt(U.norm()))
        mu = rq(); mu = mu * (1.0 / math.sqrt(mu.norm()))
        r = math.exp(rng.uniform(-1, 1))
        g = upper_triangular_matrix(zeta, u, U, mu, r)
        if rng.random() < 0.5:
            g = qmat_mul(g, IOTA)
        res = max(six_equations(g))
        worst = max(worst, res)
        agree &= (is_unitary(g) == (res <= DEFAULT_TOL))
    report["unitarity_equivalence"] = 0.0 if agree else 1.0
    report["unitarity_residual"] = worst

    # Lemma on horoball distances vs direct numerical computation; both
    # families g = t1 iota t2 (n(c_g) = 1) and iota-conjugates with c_g != 1
    worst = 0.0
    checked = 0
    while checked < 20:
        t1 = heis_translation_matrix(rq(2.0), rim(2.0))
        t2 = heis_translation_matrix(rq(2.0), rim(2.0))
        g = qmat_mul(qmat_mul(t1, IOTA), t2)
        if checked % 2:
            t3 = heis_translation_matrix(rq(2.0), rim(2.0))
            g = qmat_mul(qmat_mul(g, IOTA), t3)
        s = rng.uniform(2.5, 8.0)
        val = horoball_distance(g, s)
        if val < 0.2:
            continue
        num = _numeric_horoball_distance(g, s)
        worst = max(worst, abs(val - num))
        checked += 1
    report["horoball_distance"] = worst

    # volume density vs sqrt(det) of the metric matrix
    worst = 0.0
    for _ in range(10):
        p = rpoint()
        G = metric_matrix(p)
        det = _det(G)
        density = metric_and_volume(p, ((Q_ZERO,), Q_ZERO, 1.0))[1]
        worst = max(worst, abs(math.sqrt(det) / density - 1.0))
    report["volume_density_consistency"] = worst

    report["pass"] = (
        report["triangle_inequality_slack"] <= 1e-10
        and report["distance_symmetry"] <= 1e-10
        and report["isometry_invariance"] <= 1e-9
        and report["busemann_cocycle"] <= 1e-9
        and report["busemann_limit"] <= tol_limit
        and report["geodesic_unit_speed"] <= tol_limit
        and report["unitarity_equivalence"] == 0.0
        and report["horoball_distance"] <= tol_limit
        and report["volume_density_consistency"] <= 1e-8
    )
    return report


def _numeric_horoball_distance(g: QMatrix3, s: float) -> float:
    """Distance between H_s and g H_s along the geodesic joining their
    centres (infinity and g.infinity), located by bisection.

    Membership p in g H_s is tested division-free: with z the lift of p,
    height(g^-1 p) = -q(z) / n((g^-1 z)_last) since q is g-invariant, so
    p in g H_s iff -q(z) >= s n((g^-1 z)_last).
    """
    zeta, u = apply_matrix_boundary_infinity(g)
    gam = vertical_geodesic(zeta, u)
    r1 = 0.5 * math.log(s)      # the geodesic leaves H_s at t = s
    ginv = qmat_inverse_unitary(g)

    def inside(r):
        p = to_siegel(gam(r))
        col = (p.w0,) + p.w + (Q_ONE,)
        out = [sum((ginv[rr][t] * col[t] for t in range(len(col))), start=Q_ZERO)
               for rr in range(len(col))]
        return math.exp(2 * r) >= s * out[-1].norm()

    lo, hi = -10.0, r1
    if not inside(lo):
        raise ValueError("geodesic does not meet the horoball")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return r1 - 0.5 * (lo + hi)


def apply_matrix_boundary_infinity(g: QMatrix3):
    """Image of infinity under g as horospherical boundary coordinates."""
    a, al, c = g[0][0], g[1][0], g[2][0]
    cinv = c.inv()
    w0 = a * cinv
    w = al * cinv
    return (w,), 2.0 * w0.imag()


def _det(M: List[List[float]]) -> float:
    n = len(M)
    A = [row[:] for row in M]
    det = 1.0
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(A[r][k]))
        if abs(A[piv][k]) < 1e-300:
            return 0.0
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det *= A[k][k]
        for r in range(k + 1, n):
            f = A[r][k] / A[k][k]
            for c in range(k, n):
                A[r][c] -= f * A[k][c]
    return det
