"""heisquat: exact rational-point counting in the quaternionic Heisenberg
group Heis_7 over maximal quaternion orders, a floating-point geometry
kernel for quaternionic hyperbolic space, and a closed-form constants
engine with numerical cross-checks.

Importing the package loads none of its modules: import names from the
submodules (heisquat.orders, heisquat.counting, heisquat.constants, ...),
so that each command pays only for the modules it runs.  Integer
factoring (prime_factors) lives in heisquat.lattices, with the other
pure-Python integer algebra; heisquat.orders re-exports it.
"""

__version__ = "0.1.0"
