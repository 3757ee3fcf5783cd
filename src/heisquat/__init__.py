"""heisquat: exact rational-point counting in the quaternionic Heisenberg
group Heis_7 over maximal quaternion orders, a floating-point geometry
kernel for quaternionic hyperbolic space, and a closed-form constants
engine with numerical cross-checks."""

from .quaternion import Algebra, Quaternion, HAMILTON
from .orders import (Order, OrderElement, OrderError, make_order, builtin_order,
                     load_order_spec, reduced_discriminant, covolume, units,
                     enumerate_by_norm, left_ideal_is_full, ideal_inverse,
                     imaginary_sublattice, trace_one_element)
from .heisenberg import (HeisPoint, Triple, heis_mul, heis_inv, cygan_dist,
                         cygan_dist4, in_lattice, shear, heis_point_of_triple,
                         FundamentalDomain, canonicalize, in_fundamental_domain,
                         haar_mass_check)
from .counting import (psi_count, brute_force_psi, brute_force_counts, CountTable,
                       fit_and_compare, equidist_histogram, EquidistReport)
from . import hyperbolic, constants, orbitlaw

__version__ = "0.1.0"
