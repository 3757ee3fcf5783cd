"""Floating-point geometry kernel for the quaternionic hyperbolic plane.

The Siegel domain model is {(w0, w) : tr(w0) - n(w) > 0} with w0, w
quaternions; horospherical coordinates are (zeta, u, t) with
t = tr(w0) - n(w) the height over the boundary.  The metric is normalised
to sectional curvature in [-4, -1], and n = 2 throughout: U_q acts by 3x3
quaternionic matrices.

Everything works on numpy float arrays.  A quaternion is an array of
shape (..., 4) holding its coefficients in the basis 1, i, j, k; a point
holds one such array per quaternion coordinate (and its height t of shape
(...)); a U_q matrix has shape (..., 3, 3, 4).  The leading axes are a
batch, which every function broadcasts over; a single point is a batch of
shape ().  One Hamilton-product kernel, `qmul`, with `qconj`, `qnorm` and
`qinv` beside it, does all the quaternion arithmetic.  It evaluates each
coefficient in the order of `quaternion.Quaternion.__mul__`, and no
function sums across the batch, so a batch gives, bit for bit, what each
of its points gives alone.  Exact arithmetic stays with `Quaternion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

INFINITY = "infinity"  # the boundary point at infinity


# ---------------------------------------------------------------------------
# the quaternion kernel on (..., 4) arrays


def qmul(x, y):
    """Hamilton product x y, broadcast over the leading axes."""
    x0, x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    y0, y1, y2, y3 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    return np.stack([x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3,
                     x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2,
                     x0 * y2 + x2 * y0 - x1 * y3 + x3 * y1,
                     x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1], axis=-1)


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
_IMAG = np.array([0.0, 1.0, 1.0, 1.0])


def qconj(x):
    return x * _CONJ


def qnorm(x):
    """Reduced norm n(x) = x conj(x), of shape (...)."""
    return x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1] \
        + x[..., 2] * x[..., 2] + x[..., 3] * x[..., 3]


def qinv(x):
    n = qnorm(x)
    if np.any(n == 0):
        raise ZeroDivisionError("not invertible")
    return qconj(x) * (1.0 / n)[..., None]


def qimag(x):
    """Imaginary part x - tr(x)/2."""
    return x * _IMAG


def qtrace(x):
    return 2 * x[..., 0]


def qreal(r):
    """The real quaternion r, for r of shape (...)."""
    r = np.asarray(r, dtype=float)
    return np.stack([r, *([np.zeros_like(r)] * 3)], axis=-1)


def q_scalar(*coeffs) -> np.ndarray:
    """The quaternion with the given leading coefficients (the rest 0)."""
    return np.array(list(coeffs) + [0.0] * (4 - len(coeffs)), dtype=float)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


Q_ZERO = _frozen(q_scalar(0.0))
Q_ONE = _frozen(q_scalar(1.0))


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """Interior or boundary points (w0, w) in the Siegel domain model."""

    w0: np.ndarray
    w: np.ndarray

    @property
    def height(self):
        return qtrace(self.w0) - qnorm(self.w)


@dataclass(frozen=True, eq=False)
class HoroPoint:
    """Points in horospherical coordinates (zeta, u, t); t = 0 on the boundary."""

    zeta: np.ndarray
    u: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if np.any(abs(qtrace(self.u)) > 1e-12 * (1 + abs(qnorm(self.u)))):
            raise ValueError("vertical coordinate u must be purely imaginary")


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def siegel(w0, w) -> SiegelPoint:
    return SiegelPoint(_arr(w0), _arr(w))


def horo(zeta, u, t) -> HoroPoint:
    return HoroPoint(_arr(zeta), _arr(u), _arr(t))


def to_siegel(p: HoroPoint) -> SiegelPoint:
    """(zeta, u, t) -> ((n(zeta) + t + u)/2, zeta)."""
    w0 = 0.5 * (qreal(qnorm(p.zeta) + p.t) + p.u)
    return SiegelPoint(w0, p.zeta)


def to_horo(p: SiegelPoint) -> HoroPoint:
    """(w0, w) -> (w, 2 Im w0, tr w0 - n(w))."""
    return HoroPoint(p.w, 2.0 * qimag(p.w0), p.height)


def coords(p):
    """Convert between Siegel and horospherical coordinates (involutive)."""
    if isinstance(p, SiegelPoint):
        return to_horo(p)
    if isinstance(p, HoroPoint):
        return to_siegel(p)
    raise TypeError("expected SiegelPoint or HoroPoint")


def _as_siegel(p) -> SiegelPoint:
    return p if isinstance(p, SiegelPoint) else to_siegel(p)


def _as_horo(p) -> HoroPoint:
    return p if isinstance(p, HoroPoint) else to_horo(p)


# ---------------------------------------------------------------------------
# Hermitian form, distance, Busemann cocycle


def q_form(z0, z, zn):
    """q(z0, z, zn) = -tr(conj(z0) zn) + n(z); real valued."""
    return -qtrace(qmul(qconj(z0), zn)) + qnorm(z)


def phi_form(x, y):
    """Sesquilinear Phi((x0,x,xn),(y0,y,yn)) = -conj(x0) yn - conj(xn) y0 + conj(x) y."""
    x0, xv, xn = x
    y0, yv, yn = y
    return -qmul(qconj(x0), yn) - qmul(qconj(xn), y0) + qmul(qconj(xv), yv)


def _lift(p: SiegelPoint):
    return (p.w0, p.w, Q_ONE)


def dist(x, y):
    """Riemannian distance; cosh^2 d = n(Phi(x,y)) / (q(x) q(y))."""
    xs, ys = _as_siegel(x), _as_siegel(y)
    qx = q_form(*_lift(xs))
    qy = q_form(*_lift(ys))
    if np.any(qx >= 0) or np.any(qy >= 0):
        raise ValueError("dist needs interior points")
    c2 = qnorm(phi_form(_lift(xs), _lift(ys))) / (qx * qy)
    return np.arccosh(np.sqrt(np.maximum(c2, 1.0)))


def busemann(xi, x, y):
    """Busemann cocycle beta_xi(x, y) for xi in the boundary or INFINITY.

    For xi = infinity this is (1/2) ln(t'/t); for a finite boundary point
    it is (1/2) ln of the Cygan-distance expression of the horospherical
    heights and fourth powers.
    """
    xh, yh = _as_horo(x), _as_horo(y)
    if xi == INFINITY:
        return 0.5 * np.log(yh.t / xh.t)
    xih = _as_horo(xi)
    d4x = _cygan4(xh, xih)
    d4y = _cygan4(yh, xih)
    if np.any(d4x == 0) or np.any(d4y == 0):
        raise ValueError("Busemann point coincides with an argument footprint")
    return 0.5 * np.log(yh.t * d4x / (xh.t * d4y))


def _cygan4(p: HoroPoint, q: HoroPoint):
    """Fourth power of the Cygan distance: the formula of
    `heisenberg._cygan4_zut`, in its order of operations."""
    re = qnorm(p.zeta - q.zeta) + abs(p.t - q.t)
    im = p.u - q.u + 2 * qimag(qmul(qconj(p.zeta), q.zeta))
    return re * re + qnorm(im)


def cygan(p, q):
    return _cygan4(_as_horo(p), _as_horo(q)) ** 0.25


# ---------------------------------------------------------------------------
# geodesics and projections


def geodesic_to_zero(p: SiegelPoint):
    """Unit-speed geodesic line from the boundary point p = (w0, w) (as
    s -> -inf) to the boundary origin (0,0) (as s -> +inf); needs w0 != 0.
    gamma(s) broadcasts s against the batch of p.
    """
    if np.any(abs(p.height) > 1e-9 * (1 + abs(qtrace(p.w0)))):
        raise ValueError("geodesic_to_zero needs an isotropic boundary point")
    if np.any(qnorm(p.w0) == 0):
        raise ValueError("w0 = 0: the point is the origin itself")

    def gamma(s) -> SiegelPoint:
        f = qinv(Q_ONE + (2.0 * np.exp(2 * _arr(s)))[..., None] * p.w0)
        return SiegelPoint(qmul(p.w0, f), qmul(p.w, f))

    return gamma


def vertical_geodesic(zeta, u):
    """s -> (zeta, u, e^{2s}), the unit-speed geodesic to infinity."""
    zeta, u = _arr(zeta), _arr(u)

    def gamma(s) -> HoroPoint:
        return HoroPoint(zeta, u, np.exp(2 * _arr(s)))

    return gamma


def project_to_vertical_geodesic(p) -> HoroPoint:
    """Orthogonal projection of a boundary point != (0,0), infinity onto the
    geodesic line joining (0,0) and infinity: (0, 0, (n(zeta)^2 + n(u))^(1/2))."""
    ph = _as_horo(p)
    nz = qnorm(ph.zeta)
    nu = qnorm(ph.u)
    if np.any((nz == 0) & (nu == 0)):
        raise ValueError("projection undefined at the line's endpoints")
    return HoroPoint(0 * ph.zeta, 0 * ph.u, np.sqrt(nz * nz + nu))


def project_to_quaternionic_line(p):
    """Orthogonal projection to C = {w = 0}: interior (w0, w) -> (w0, 0);
    boundary (zeta, u, 0) -> (0, u, n(zeta)) in horospherical coordinates.

    An interior point given in horospherical coordinates maps to
    (0, u, n(zeta) + t), which is (w0, 0) in Siegel coordinates.
    """
    if isinstance(p, SiegelPoint) and np.all(p.height > 0):
        return SiegelPoint(p.w0, 0 * p.w)
    ph = _as_horo(p)
    nz = qnorm(ph.zeta)
    if np.any((ph.t <= 0) & (nz == 0)):
        raise ValueError("boundary point lies on the boundary circle of the line")
    return HoroPoint(0 * ph.zeta, ph.u, nz + np.maximum(ph.t, 0.0))


# ---------------------------------------------------------------------------
# the unitary group U_q (3x3 quaternionic matrices of shape (..., 3, 3, 4))


def qmat(rows) -> np.ndarray:
    """Matrix from rows of reals or (..., 4) quaternion arrays."""
    ents = np.broadcast_arrays(*(q_scalar(x) if np.ndim(x) == 0 else _arr(x)
                                 for row in rows for x in row))
    shape = ents[0].shape[:-1] + (len(rows), len(rows[0]), 4)
    return np.stack(ents, axis=-2).reshape(shape)


J3 = _frozen(qmat([[0, 0, -1], [0, 1, 0], [-1, 0, 0]]))
IDENTITY3 = _frozen(qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
IOTA = _frozen(qmat([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))


def qmat_mul(A, B):
    """Matrix product over the quaternions; B may be a column (..., k, 1, 4)."""
    P = qmul(A[..., :, :, None, :], B[..., None, :, :, :])
    out = P[..., 0, :, :]
    for t in range(1, P.shape[-3]):
        out = out + P[..., t, :, :]
    return out


def qmat_star(A):
    return qconj(np.swapaxes(A, -3, -2))


def qmat_inverse_unitary(g):
    """Inverse of g in U_q: g^-1 = J g* J."""
    return qmat_mul(qmat_mul(J3, qmat_star(g)), J3)


def is_unitary(g):
    """g* J g = J within DEFAULT_TOL."""
    res = qmat_mul(qmat_star(g), qmat_mul(J3, g)) - J3
    return np.max(abs(res), axis=(-3, -2, -1)) <= DEFAULT_TOL


def six_equations(g):
    """Residuals of the six identities characterising U_q, shape (..., 6).

    Entries of g are named a, gamma*, b / alpha, A, beta / c, delta*, d.
    """
    (a, gs, b), (al, A, be), (c, ds, d) = [[g[..., r, k, :] for k in range(3)]
                                           for r in range(3)]
    gam = qconj(gs)
    dl = qconj(ds)
    eqs = [
        qmul(c, qconj(d)) - qmul(ds, dl) + qmul(d, qconj(c)),
        qmul(a, qconj(b)) - qmul(gs, gam) + qmul(b, qconj(a)),
        -qmul(al, qconj(be)) + qmul(A, qconj(A)) - qmul(be, qconj(al)) - Q_ONE,
        qmul(c, qconj(b)) - qmul(ds, gam) + qmul(d, qconj(a)) - Q_ONE,
        qmul(al, qconj(d)) - qmul(A, dl) + qmul(be, qconj(c)),
        qmul(al, qconj(b)) - qmul(A, gam) + qmul(be, qconj(a)),
    ]
    return np.stack([np.max(abs(e), axis=-1) for e in eqs], axis=-1)


def heis_translation_matrix(zeta, u):
    """The Heisenberg translation (zeta, u) as an element of U_q."""
    zeta, u = _arr(zeta), _arr(u)
    b = 0.5 * (qreal(qnorm(zeta)) + u)
    return qmat([[Q_ONE, qconj(zeta), b],
                 [Q_ZERO, Q_ONE, zeta],
                 [Q_ZERO, Q_ZERO, Q_ONE]])


def upper_triangular_matrix(zeta, u, U, mu, r):
    """General element of the upper-triangular group B_q."""
    zeta, u, U, mu = _arr(zeta), _arr(u), _arr(U), _arr(mu)
    r = _arr(r)[..., None]
    b = (0.5 / r) * qmul(qreal(qnorm(zeta)) + u, mu)
    return qmat([[mu * r, qconj(zeta), b],
                 [Q_ZERO, U, (1.0 / r) * qmul(qmul(U, zeta), mu)],
                 [Q_ZERO, Q_ZERO, (1.0 / r) * mu]])


def _column(p: SiegelPoint):
    """The lift (w0, w, 1) as a (..., 3, 1, 4) column."""
    w0, w, one = np.broadcast_arrays(p.w0, p.w, Q_ONE)
    return np.stack([w0, w, one], axis=-2)[..., None, :]


def apply_matrix(g, p) -> SiegelPoint:
    """Projective action on Siegel points via the lift (w0, w, 1)."""
    out = qmat_mul(g, _column(_as_siegel(p)))[..., 0, :]
    zn_inv = qinv(out[..., 2, :])
    return SiegelPoint(qmul(out[..., 0, :], zn_inv), qmul(out[..., 1, :], zn_inv))


def horoball_distance(g, s):
    """d(H_s, g H_s) = (1/2) log n(c_g) + log(s/2) for g in U_q with c_g != 0."""
    ncg = qnorm(g[..., 2, 0, :])
    if np.any(ncg == 0):
        raise ValueError("g fixes infinity (c_g = 0)")
    return 0.5 * np.log(ncg) + np.log(_arr(s) / 2.0)


def apply_matrix_boundary_infinity(g):
    """Image (zeta, u) of infinity under g, in horospherical boundary coordinates."""
    cinv = qinv(g[..., 2, 0, :])
    w0 = qmul(g[..., 0, 0, :], cinv)
    w = qmul(g[..., 1, 0, :], cinv)
    return w, 2.0 * qimag(w0)


def _numeric_horoball_distance(g, s):
    """Distance between H_s and g H_s along the geodesic joining their
    centres (infinity and g.infinity), located by bisection, for all
    matrices of the batch at once.

    Membership p in g H_s is tested division-free: with z the lift of p,
    height(g^-1 p) = -q(z) / n((g^-1 z)_last) since q is g-invariant, so
    p in g H_s iff -q(z) >= s n((g^-1 z)_last).
    """
    s = _arr(s)
    gam = vertical_geodesic(*apply_matrix_boundary_infinity(g))
    r1 = 0.5 * np.log(s)        # the geodesic leaves H_s at t = s
    last_row = qmat_inverse_unitary(g)[..., 2:, :, :]

    def inside(r):
        z = qmat_mul(last_row, _column(to_siegel(gam(r))))[..., 0, 0, :]
        return np.exp(2 * r) >= s * qnorm(z)

    lo = np.full(np.shape(r1), -10.0)
    hi = r1
    if not np.all(inside(lo)):
        raise ValueError("geodesic does not meet the horoball")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ins = inside(mid)
        lo = np.where(ins, mid, lo)
        hi = np.where(ins, hi, mid)
    return r1 - 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# metric and volume density in horospherical coordinates


def metric_and_volume(p: HoroPoint, v):
    """Squared length of the tangent vector v = (dzeta, du, dt) at p, and
    the Riemannian volume density 1/(16 t^6) at p.

    ds^2 = (dt^2 + n(du - 2 Im(conj(dzeta) zeta)) + 4 t n(dzeta)) / (4 t^2).
    """
    if np.any(p.t <= 0):
        raise ValueError("metric needs t > 0")
    dzeta, du, dt = (_arr(x) for x in v)
    cross = qimag(qmul(qconj(dzeta), p.zeta))
    sq = (dt * dt + qnorm(du - 2 * cross) + 4 * p.t * qnorm(dzeta)) \
        / (4 * p.t * p.t)
    density = 1.0 / (16.0 * p.t ** 6)
    return sq, density


# the coordinate basis (zeta coords, u coords, t) of the tangent space
_BASIS = np.eye(8)


def _tangent(vecs):
    """(dzeta, du, dt) of coordinate vectors of shape (..., 8)."""
    du = np.concatenate([np.zeros(vecs.shape[:-1] + (1,)), vecs[..., 4:7]], axis=-1)
    return vecs[..., :4], du, vecs[..., 7]


def metric_matrix(p: HoroPoint):
    """Gram matrix (..., 8, 8) of the metric in the coordinates
    (zeta coords, u coords, t), by polarisation of the squared length."""
    at = HoroPoint(p.zeta[..., None, None, :], p.u[..., None, None, :],
                   p.t[..., None, None])
    qpair = metric_and_volume(at, _tangent(_BASIS[:, None, :] + _BASIS[None, :, :]))[0]
    # q(e_i + e_i) = 4 q(e_i) exactly: the squared length is a quadratic
    # form, and scaling by a power of two rounds the same
    qi = np.diagonal(qpair, axis1=-2, axis2=-1) / 4
    G = 0.5 * (qpair - qi[..., :, None] - qi[..., None, :])
    diag = np.arange(8)
    G[..., diag, diag] = qi
    return G


# ---------------------------------------------------------------------------
# self-test report


def geom_selftest(seed: int = 20240801) -> dict:
    """Numerical residual suite for the geometry kernel; returns a report
    dict with per-check maxima and pass flags.

    The samples are drawn one by one from random.Random(seed); each check
    then runs on its whole sample as one batch.
    """
    import random

    rng = random.Random(seed)

    def rq(scale=1.0):
        return [rng.uniform(-scale, scale) for _ in range(4)]

    def rim(scale=1.0):
        return [0.0] + [rng.uniform(-scale, scale) for _ in range(3)]

    def rpoint(scale=1.0):
        return rq(scale), rim(scale), math.exp(rng.uniform(-1.5, 1.5))

    def points(draws):
        zeta, u, t = zip(*draws)
        return horo(zeta, u, t)

    def worst(residuals):
        return max(0.0, float(np.max(residuals)))

    report = {}

    draws = [rpoint() for _ in range(600)]
    a, b, c = points(draws[0::3]), points(draws[1::3]), points(draws[2::3])
    report["triangle_inequality_slack"] = worst(dist(a, c) - dist(a, b) - dist(b, c))

    draws = [rpoint() for _ in range(100)]
    a, b = points(draws[0::2]), points(draws[1::2])
    report["distance_symmetry"] = worst(abs(dist(a, b) - dist(b, a)))

    # invariance under Heisenberg translations and the inversion iota
    draws = [(rpoint(), rpoint(), rq(), rim()) for _ in range(50)]
    pa, pb, zeta, u = zip(*draws)
    a, b = points(pa), points(pb)
    tau = heis_translation_matrix(zeta, u)
    dab = dist(a, b)
    report["isometry_invariance"] = worst(np.concatenate([
        abs(dist(apply_matrix(tau, a), apply_matrix(tau, b)) - dab),
        abs(dist(apply_matrix(IOTA, a), apply_matrix(IOTA, b)) - dab)]))

    # Busemann cocycle identity and the closed form vs the limit definition
    draws = [(rpoint(), rpoint(), rpoint(), rq(), rim()) for _ in range(30)]
    px, py, pz, zeta, u = zip(*draws)
    x, y, z = points(px), points(py), points(pz)
    xi = horo(zeta, u, np.zeros(30))
    bxy = busemann(xi, x, y)
    report["busemann_cocycle"] = worst(abs(busemann(xi, x, z) - bxy - busemann(xi, y, z)))
    far = geodesic_to_zero(to_siegel(xi))(-0.5 * math.log(1e8))
    report["busemann_limit"] = worst(abs(bxy - (dist(far, x) - dist(far, y))))

    # unit speed: dist(gamma(s), gamma(s + h)) = h holds exactly, so h need
    # not be small; a small h puts acosh near 1, where round-off in dist
    # reaches 1e-6.  The 10 geodesics run along axis 0, the 5 values of s
    # along axis 1.
    draws = [(rq(), rim()) for _ in range(10)]
    zeta, u = (np.array(v)[:, None, :] for v in zip(*draws))
    gam = geodesic_to_zero(to_siegel(horo(zeta, u, np.zeros((10, 1)))))
    s = np.array([-2.0, -0.7, 0.0, 0.9, 2.1])
    h = 0.5
    report["geodesic_unit_speed"] = worst(abs(dist(gam(s), gam(s + h)) / h - 1.0))

    # unitarity test equivalence on B_q samples and products with iota
    draws = [(rq(), rim(), rq(), rq(), math.exp(rng.uniform(-1, 1)), rng.random() < 0.5)
             for _ in range(200)]
    zeta, u, U, mu, r, flip = (np.array(v) for v in zip(*draws))
    U = U * (1.0 / np.sqrt(qnorm(U)))[:, None]
    mu = mu * (1.0 / np.sqrt(qnorm(mu)))[:, None]
    g = upper_triangular_matrix(zeta, u, U, mu, r)
    g = np.where(flip[:, None, None, None], qmat_mul(g, IOTA), g)
    res = np.max(six_equations(g), axis=-1)
    agree = np.all(is_unitary(g) == (res <= DEFAULT_TOL))
    report["unitarity_equivalence"] = 0.0 if agree else 1.0
    report["unitarity_residual"] = worst(res)

    # Lemma on horoball distances vs direct numerical computation; both
    # families g = t1 iota t2 (n(c_g) = 1) and iota-conjugates with c_g != 1.
    # The draws depend on which samples are kept, so they are made one by one.
    gs, ss = [], []
    while len(gs) < 20:
        t1 = heis_translation_matrix(rq(2.0), rim(2.0))
        t2 = heis_translation_matrix(rq(2.0), rim(2.0))
        g = qmat_mul(qmat_mul(t1, IOTA), t2)
        if len(gs) % 2:
            t3 = heis_translation_matrix(rq(2.0), rim(2.0))
            g = qmat_mul(qmat_mul(g, IOTA), t3)
        s = rng.uniform(2.5, 8.0)
        if horoball_distance(g, s) < 0.2:
            continue
        gs.append(g)
        ss.append(s)
    g, s = np.array(gs), np.array(ss)
    report["horoball_distance"] = worst(abs(horoball_distance(g, s)
                                            - _numeric_horoball_distance(g, s)))

    # volume density vs sqrt(det) of the metric matrix
    p = points([rpoint() for _ in range(10)])
    det = np.linalg.det(metric_matrix(p))
    density = metric_and_volume(p, (Q_ZERO, Q_ZERO, 1.0))[1]
    report["volume_density_consistency"] = worst(abs(np.sqrt(det) / density - 1.0))

    report["pass"] = (
        report["triangle_inequality_slack"] <= 1e-10
        and report["distance_symmetry"] <= 1e-10
        and report["isometry_invariance"] <= 1e-9
        and report["busemann_cocycle"] <= 1e-9
        and report["busemann_limit"] <= 1e-6
        and report["geodesic_unit_speed"] <= 1e-6
        and report["unitarity_equivalence"] == 0.0
        and report["horoball_distance"] <= 1e-6
        and report["volume_density_consistency"] <= 1e-8
    )
    return report
