import math
import random
from fractions import Fraction

import numpy as np
import pytest

from heisquat.heisenberg import _cygan4_zut
from heisquat.hyperbolic import (DEFAULT_TOL, IDENTITY3, INFINITY, IOTA,
                                 HoroPoint, Q_ZERO, SiegelPoint, apply_matrix,
                                 busemann, coords, cygan, dist, geodesic_to_zero,
                                 geom_selftest, heis_translation_matrix, horo,
                                 horoball_distance, is_unitary, metric_and_volume,
                                 metric_matrix, project_to_quaternionic_line,
                                 project_to_vertical_geodesic, q_scalar, qconj,
                                 qimag, qmat_mul, qmat_inverse_unitary, qmul, qnorm,
                                 six_equations, siegel, to_horo, to_siegel,
                                 upper_triangular_matrix, vertical_geodesic, _cygan4)
from heisquat.quaternion import HAMILTON, Quaternion


def imq(a, b, c):
    return np.array([0.0, a, b, c])


def rand_point(rng, spread=1.0):
    return horo(q_scalar(*(rng.uniform(-spread, spread) for _ in range(4))),
                imq(*(rng.uniform(-spread, spread) for _ in range(3))),
                math.exp(rng.uniform(-1.5, 1.5)))


def test_coords_examples():
    p = horo(Q_ZERO, 0 * Q_ZERO, 1.0)
    s = to_siegel(p)
    assert tuple(s.w0) == (0.5, 0.0, 0.0, 0.0)
    assert to_horo(s).t == 1.0
    assert isinstance(coords(s), HoroPoint) and isinstance(coords(p), SiegelPoint)
    # boundary t = 0
    b = horo(q_scalar(1.0), imq(2, 0, 0), 0.0)
    sb = to_siegel(b)
    assert tuple(sb.w0) == (0.5, 1.0, 0.0, 0.0)
    assert to_horo(sb).t == 0.0


def test_coords_roundtrip_random():
    rng = random.Random(0)
    for _ in range(50):
        p = rand_point(rng)
        q = to_horo(to_siegel(p))
        assert abs(q.t - p.t) <= 1e-12 * (1 + abs(p.t))
        assert max(abs(a - b) for a, b in zip(q.u, p.u)) < 1e-12


def test_dist_examples():
    p = horo(Q_ZERO, 0 * Q_ZERO, 1.0)
    q = horo(Q_ZERO, 0 * Q_ZERO, math.e ** 2)
    assert abs(dist(p, q) - 1.0) < 1e-12
    assert dist(p, p) == 0.0
    rng = random.Random(1)
    for _ in range(100):
        a, b = rand_point(rng), rand_point(rng)
        assert abs(dist(a, b) - dist(b, a)) <= 1e-10


def test_triangle_inequality():
    rng = random.Random(2)
    for _ in range(1000):
        a, b, c = (rand_point(rng) for _ in range(3))
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-10


def test_dist_rejects_boundary():
    with pytest.raises(ValueError):
        dist(horo(Q_ZERO, 0 * Q_ZERO, 0.0), horo(Q_ZERO, 0 * Q_ZERO, 1.0))


def test_busemann_examples():
    x = horo(Q_ZERO, 0 * Q_ZERO, 1.0)
    y = horo(Q_ZERO, 0 * Q_ZERO, math.e ** 2)
    assert abs(busemann(INFINITY, x, y) - 1.0) < 1e-12
    xi = horo(q_scalar(0.7, -0.2, 0, 0.1), imq(0.4, 0, -1), 0.0)
    assert busemann(xi, x, x) == 0.0


def test_busemann_cocycle_and_limit():
    rng = random.Random(3)
    for _ in range(25):
        xi = horo(q_scalar(*(rng.uniform(-1, 1) for _ in range(4))),
                  imq(*(rng.uniform(-1, 1) for _ in range(3))), 0.0)
        x, y, z = (rand_point(rng) for _ in range(3))
        lhs = busemann(xi, x, z)
        rhs = busemann(xi, x, y) + busemann(xi, y, z)
        assert abs(lhs - rhs) <= 1e-9
        gam = geodesic_to_zero(to_siegel(xi))
        far = gam(-0.5 * math.log(1e8))
        assert abs(busemann(xi, x, y) - (dist(far, x) - dist(far, y))) <= 1e-6


def test_geodesic_limits_and_unit_speed():
    rng = random.Random(4)
    for _ in range(10):
        xi = horo(q_scalar(*(rng.uniform(-1, 1) for _ in range(4))),
                  imq(*(rng.uniform(-1, 1) for _ in range(3))), 0.0)
        if qnorm(to_siegel(xi).w0) < 1e-6:
            continue
        gam = geodesic_to_zero(to_siegel(xi))
        assert cygan(to_horo(gam(-30.0)), xi) <= 1e-9
        assert cygan(to_horo(gam(30.0)), horo(Q_ZERO, 0 * Q_ZERO, 0.0)) <= 1e-9
        h = 1e-4
        for s in (-2.0, 0.0, 1.5):
            assert abs(dist(gam(s), gam(s + h)) / h - 1.0) <= 1e-6
        # the identity is exact for any h; away from acosh(1) it holds
        # to round-off
        h = 0.5
        for s in (-2.0, 0.0, 1.5):
            assert abs(dist(gam(s), gam(s + h)) / h - 1.0) <= 1e-12


def test_vertical_geodesic_unit_speed():
    gam = vertical_geodesic(q_scalar(0.3, 0, 0.2, 0), imq(1, 0, 0))
    h = 1e-4
    for s in (-1.0, 0.0, 2.0):
        assert abs(dist(gam(s), gam(s + h)) / h - 1.0) <= 1e-6
    h = 0.5
    for s in (-1.0, 0.0, 2.0):
        assert abs(dist(gam(s), gam(s + h)) / h - 1.0) <= 1e-12


def test_geodesic_rejects_origin_and_interior():
    with pytest.raises(ValueError):
        geodesic_to_zero(to_siegel(horo(Q_ZERO, 0 * Q_ZERO, 0.0)))
    with pytest.raises(ValueError):
        geodesic_to_zero(to_siegel(horo(Q_ZERO, 0 * Q_ZERO, 1.0)))


def test_project_vertical_examples():
    p = project_to_vertical_geodesic(horo(q_scalar(1.0), 0 * Q_ZERO, 0.0))
    assert abs(p.t - 1.0) < 1e-12
    p = project_to_vertical_geodesic(horo(Q_ZERO, imq(2, 0, 0), 0.0))
    assert abs(p.t - 2.0) < 1e-12
    # preimage spheres: same Cygan gauge implies the same projection
    a = horo(q_scalar(1.0), 0 * Q_ZERO, 0.0)
    b = horo(Q_ZERO, imq(1, 0, 0), 0.0)
    pa = project_to_vertical_geodesic(a)
    pb = project_to_vertical_geodesic(b)
    assert abs(pa.t - pb.t) < 1e-12


def test_project_vertical_variational():
    # interior points approaching the boundary point project nearby, and the
    # stated image beats other points of the line
    p0 = horo(q_scalar(0.8, 0.1, 0, 0), imq(0.5, -0.3, 0.2), 0.0)
    proj = project_to_vertical_geodesic(p0)
    near = horo(p0.zeta, p0.u, 1e-6)
    base = dist(near, proj)
    for t in (proj.t * 0.8, proj.t * 1.25, proj.t * 2.0):
        assert base <= dist(near, horo(Q_ZERO, 0 * Q_ZERO, t)) + 1e-9


def test_project_qline_examples():
    s = siegel(q_scalar(1.0, 0.5, 0, 0), q_scalar(0.3, 0, 0, 0))
    pr = project_to_quaternionic_line(s)
    assert np.array_equal(pr.w0, s.w0) and qnorm(pr.w) == 0
    b = project_to_quaternionic_line(horo(q_scalar(1.0), imq(1, 0, 0), 0.0))
    assert tuple(b.u) == (0.0, 1.0, 0.0, 0.0) and abs(b.t - 1.0) < 1e-12
    with pytest.raises(ValueError):
        project_to_quaternionic_line(horo(Q_ZERO, imq(1, 0, 0), 0.0))


def test_project_qline_minimizer():
    rng = random.Random(5)
    p = horo(q_scalar(0.4, -0.2, 0.3, 0.1), imq(0.2, 0.5, -0.1), 0.7)
    pr = project_to_quaternionic_line(p)
    base = dist(p, pr)
    for _ in range(100):
        c = horo(Q_ZERO, imq(*(rng.uniform(-2, 2) for _ in range(3))),
                 math.exp(rng.uniform(-2, 2)))
        assert base <= dist(p, c) + 1e-9


def test_unitary_examples():
    assert is_unitary(IDENTITY3)
    assert is_unitary(IOTA)
    tau = heis_translation_matrix(q_scalar(1, 2, 0.5, 0), imq(0.3, 0.7, -2))
    assert is_unitary(tau)
    assert max(six_equations(tau)) <= DEFAULT_TOL
    # non-unitary perturbation fails both tests
    bad = qmat_mul(tau, heis_translation_matrix(q_scalar(1e-3), 0 * Q_ZERO))
    bad = bad + q_scalar(1e-3)
    assert not is_unitary(bad)
    assert max(six_equations(bad)) > DEFAULT_TOL


def test_unitarity_equivalence_random():
    rng = random.Random(6)
    for _ in range(200):
        U = q_scalar(*(rng.uniform(-1, 1) for _ in range(4)))
        U = U * (1.0 / math.sqrt(qnorm(U)))
        mu = q_scalar(*(rng.uniform(-1, 1) for _ in range(4)))
        mu = mu * (1.0 / math.sqrt(qnorm(mu)))
        g = upper_triangular_matrix(q_scalar(*(rng.uniform(-2, 2) for _ in range(4))),
                                    imq(*(rng.uniform(-2, 2) for _ in range(3))),
                                    U, mu, math.exp(rng.uniform(-1, 1)))
        if rng.random() < 0.5:
            g = qmat_mul(g, IOTA)
        assert is_unitary(g) == (max(six_equations(g)) <= DEFAULT_TOL)
        assert is_unitary(g)
        # the U_q inverse really inverts
        prod = qmat_mul(g, qmat_inverse_unitary(g))
        assert max(abs(c) for r in range(3) for c in prod[r, r] - q_scalar(1)) <= 1e-9


def test_horoball_distance_examples():
    assert abs(horoball_distance(IOTA, 2.0)) < 1e-12
    assert abs(horoball_distance(IOTA, 2 * math.e ** 2) - 2.0) < 1e-12
    with pytest.raises(ValueError, match="fixes infinity"):
        horoball_distance(IDENTITY3, 2.0)
    # d(dH_1, dH_s) = ln(s)/2 along the vertical geodesic
    one = horo(Q_ZERO, 0 * Q_ZERO, 1.0)
    s4 = horo(Q_ZERO, 0 * Q_ZERO, math.e ** 4)
    assert abs(dist(one, s4) - 2.0) < 1e-12


def test_metric_examples():
    p = horo(Q_ZERO, 0 * Q_ZERO, 1.0)
    sq, dens = metric_and_volume(p, (Q_ZERO, 0 * Q_ZERO, 1.0))
    assert abs(sq - 0.25) < 1e-15
    assert abs(dens - 1 / 16) < 1e-18
    with pytest.raises(ValueError):
        metric_and_volume(horo(Q_ZERO, 0 * Q_ZERO, 0.0), (Q_ZERO, 0 * Q_ZERO, 1.0))


def test_volume_density_det_consistency():
    rng = random.Random(7)
    for _ in range(10):
        p = rand_point(rng)
        det = np.linalg.det(metric_matrix(p))
        dens = metric_and_volume(p, (Q_ZERO, 0 * Q_ZERO, 1.0))[1]
        assert abs(math.sqrt(det) / dens - 1.0) <= 1e-8


def test_isometry_invariance():
    rng = random.Random(8)
    for _ in range(50):
        a, b = rand_point(rng), rand_point(rng)
        tau = heis_translation_matrix(
            q_scalar(*(rng.uniform(-1, 1) for _ in range(4))),
            imq(*(rng.uniform(-1, 1) for _ in range(3))))
        assert abs(dist(apply_matrix(tau, a), apply_matrix(tau, b)) - dist(a, b)) <= 1e-9
        assert abs(dist(apply_matrix(IOTA, a), apply_matrix(IOTA, b)) - dist(a, b)) <= 1e-9


def test_translation_matrix_matches_group_action():
    rng = random.Random(9)
    for _ in range(30):
        z = q_scalar(*(rng.uniform(-1, 1) for _ in range(4)))
        u = imq(*(rng.uniform(-1, 1) for _ in range(3)))
        p = rand_point(rng)
        moved = to_horo(apply_matrix(heis_translation_matrix(z, u), p))
        # expected: (z + zeta, u + u' + 2 Im(conj(z) zeta'), t)
        exp_zeta = z + p.zeta
        exp_u = u + p.u + 2 * qimag(qmul(qconj(z), p.zeta))
        assert max(abs(a - b) for a, b in zip(moved.zeta, exp_zeta)) < 1e-9
        assert max(abs(a - b) for a, b in zip(moved.u, exp_u)) < 1e-9
        assert abs(moved.t - p.t) < 1e-9


def dyadic(rng, n):
    """n dyadic rationals k/2^8, |k| <= 2^10: the kernel's products and sums
    of them stay below 2^53 / 2^32, so a double holds every result exactly."""
    return [Fraction(rng.randint(-2 ** 10, 2 ** 10), 2 ** 8) for _ in range(n)]


def test_kernel_equals_exact_arithmetic_on_dyadic_inputs():
    rng = random.Random(10)
    xs = [dyadic(rng, 4) for _ in range(200)]
    ys = [dyadic(rng, 4) for _ in range(200)]
    xa, ya = np.array(xs, dtype=float), np.array(ys, dtype=float)
    prod, conj, norm = qmul(xa, ya), qconj(xa), qnorm(xa)
    for i, (x, y) in enumerate(zip(xs, ys)):
        X, Y = Quaternion(HAMILTON, *x), Quaternion(HAMILTON, *y)
        assert [Fraction(c) for c in prod[i]] == list((X * Y).coeffs)
        assert [Fraction(c) for c in conj[i]] == list(X.conj().coeffs)
        assert Fraction(norm[i]) == X.norm()


def test_float_cygan_equals_the_exact_cygan_gauge():
    rng = random.Random(11)
    for _ in range(200):
        z, zp = dyadic(rng, 4), dyadic(rng, 4)
        u, up = [0] + dyadic(rng, 3), [0] + dyadic(rng, 3)
        t, tp = (abs(x) for x in dyadic(rng, 2))
        exact = _cygan4_zut(Quaternion(HAMILTON, *z), Quaternion(HAMILTON, *u), t,
                            Quaternion(HAMILTON, *zp), Quaternion(HAMILTON, *up), tp)
        got = _cygan4(horo(z, u, t), horo(zp, up, tp))
        assert Fraction(got) == exact


def stack(points):
    return horo([p.zeta for p in points], [p.u for p in points], [p.t for p in points])


def test_batches_equal_single_points_bit_for_bit():
    rng = random.Random(12)
    n = 12
    xs = [rand_point(rng) for _ in range(n)]
    ys = [rand_point(rng) for _ in range(n)]
    xis = [horo(q_scalar(*(rng.uniform(-1, 1) for _ in range(4))),
                imq(*(rng.uniform(-1, 1) for _ in range(3))), 0.0) for _ in range(n)]
    gs = [qmat_mul(heis_translation_matrix(q_scalar(*(rng.uniform(-1, 1) for _ in range(4))),
                                           imq(*(rng.uniform(-1, 1) for _ in range(3)))),
                   IOTA) for _ in range(n)]
    x, y, xi, g = stack(xs), stack(ys), stack(xis), np.stack(gs)
    d = dist(x, y)
    bxi, binf = busemann(xi, x, y), busemann(INFINITY, x, y)
    moved = apply_matrix(g, x)
    res = six_equations(g)
    assert d.shape == bxi.shape == binf.shape == (n,) and res.shape == (n, 6)
    for i in range(n):
        assert np.shape(dist(xs[i], ys[i])) == ()
        assert dist(xs[i], ys[i]) == d[i]
        assert busemann(xis[i], xs[i], ys[i]) == bxi[i]
        assert busemann(INFINITY, xs[i], ys[i]) == binf[i]
        one = apply_matrix(gs[i], xs[i])
        assert np.array_equal(one.w0, moved.w0[i]) and np.array_equal(one.w, moved.w[i])
        assert np.array_equal(six_equations(gs[i]), res[i])


def test_one_bad_point_in_a_batch_raises():
    rng = random.Random(13)
    good = [rand_point(rng) for _ in range(3)]
    edge = horo(Q_ZERO, 0 * Q_ZERO, 0.0)
    with pytest.raises(ValueError):
        dist(stack(good + [edge]), stack(good + good[:1]))
    xi = horo(q_scalar(0.5), imq(0, 1, 0), 0.0)
    with pytest.raises(ValueError):
        busemann(stack([xi, xi]), stack([good[0], xi]), stack(good[1:]))
    with pytest.raises(ValueError):
        horo([Q_ZERO, Q_ZERO], [imq(1, 0, 0), q_scalar(1.0)], [1.0, 1.0])
    with pytest.raises(ValueError):
        geodesic_to_zero(to_siegel(stack([xi, good[0]])))
    with pytest.raises(ValueError, match="fixes infinity"):
        horoball_distance(np.stack([IOTA, IDENTITY3]), 2.0)
    with pytest.raises(ValueError):
        metric_and_volume(stack([good[0], edge]), (Q_ZERO, 0 * Q_ZERO, 1.0))


def test_selftest_passes():
    rep = geom_selftest()
    assert rep["pass"], rep


def test_selftest_passes_for_every_seed():
    failing = [s for s in range(1, 41) if not geom_selftest(seed=s)["pass"]]
    assert failing == []
