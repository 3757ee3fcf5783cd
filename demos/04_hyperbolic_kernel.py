"""Tour of the quaternionic hyperbolic geometry kernel.

Distances, Busemann cocycles, geodesics, projections, the unitary group
of the Hermitian form, and horoball distances -- all in the Siegel /
horospherical models with curvature normalised to [-4, -1].
"""

import math

import numpy as np

from heisquat.hyperbolic import (INFINITY, IOTA, Q_ZERO, busemann, cygan, dist,
                                 geodesic_to_zero, geom_selftest,
                                 heis_translation_matrix, horo,
                                 horoball_distance, is_unitary,
                                 metric_and_volume, project_to_quaternionic_line,
                                 project_to_vertical_geodesic, q_scalar,
                                 six_equations, to_horo, to_siegel)


def imq(a, b, c):
    return np.array([0.0, a, b, c])


# Vertical geodesics are unit speed: d((0,0,1), (0,0,e^2)) = 1.
p1 = horo(Q_ZERO, 0 * Q_ZERO, 1.0)
p2 = horo(Q_ZERO, 0 * Q_ZERO, math.e ** 2)
print("d((0,0,1),(0,0,e^2)) =", dist(p1, p2))
print("busemann at infinity  =", busemann(INFINITY, p1, p2))

# A geodesic from a boundary point to the origin, with its limits.
xi = horo(q_scalar(1.0), imq(1, 0, 0), 0.0)
gamma = geodesic_to_zero(to_siegel(xi))
print("Cygan distance of gamma(-30) to its source:",
      cygan(to_horo(gamma(-30.0)), xi))
# d(gamma(0), gamma(h)) = h exactly for any h; near acosh(1) (small h) the
# round-off of dist reaches 1e-6, so check at h = 0.5.
print("unit speed check:",
      dist(gamma(0.0), gamma(0.5)) / 0.5)

# Projections to the vertical geodesic and the quaternionic line.
print("projection of (zeta,u,0), n(zeta)=1, u=0:",
      project_to_vertical_geodesic(horo(q_scalar(1.0), 0 * Q_ZERO, 0.0)).t)
print("projection to {w=0} of boundary (zeta,u,0):",
      project_to_quaternionic_line(horo(q_scalar(1.0), imq(1, 0, 0), 0.0)).t)

# The unitary group: Heisenberg translations and the inversion are in U_q.
tau = heis_translation_matrix(q_scalar(1, 2, 0, 0.5), imq(0.3, -1, 0.7))
print("translation matrix unitary:", is_unitary(tau),
      " six-equation residual:", max(six_equations(tau)))
print("inversion iota unitary:", is_unitary(IOTA))

# Horoball distances: d(H_s, g H_s) = log n(c_g)/2 + log(s/2).
print("d(H_2, iota H_2) =", horoball_distance(IOTA, 2.0))
print("d(H_s, iota H_s) at s = 2e^2:", horoball_distance(IOTA, 2 * math.e ** 2))

# Metric and volume density in horospherical coordinates.
sq, dens = metric_and_volume(p1, (Q_ZERO, 0 * Q_ZERO, 1.0))
print("squared length of d/dt at (0,0,1):", sq, " volume density:", dens)

# Full residual report.
rep = geom_selftest()
print("selftest pass:", rep["pass"],
      " worst busemann-limit residual:", f"{rep['busemann_limit']:.2e}")
