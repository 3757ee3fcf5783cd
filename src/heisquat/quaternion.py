"""Quaternion algebras (a,b/Q) and their elements.

An algebra is determined by two negative integers a, b with i^2 = a,
j^2 = b, ij = k = -ji.  Elements carry four coefficients in the basis
1, i, j, k, each an int or a Fraction: this class is exact only.  The
floating-point geometry kernel (`hyperbolic`) works on numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Algebra:
    """Quaternion algebra over Q with i^2 = a, j^2 = b, ij = -ji = k.

    Definiteness (a < 0 and b < 0) is required, so that the algebra
    embeds into Hamilton's quaternions.
    """

    a: int
    b: int

    def __post_init__(self):
        if self.a >= 0 or self.b >= 0:
            raise ValueError("algebra must be definite: need a < 0 and b < 0")

    def quat(self, x0=0, x1=0, x2=0, x3=0) -> "Quaternion":
        return Quaternion(self, x0, x1, x2, x3)

    def from_coeffs(self, coeffs) -> "Quaternion":
        x0, x1, x2, x3 = coeffs
        return Quaternion(self, x0, x1, x2, x3)

    @property
    def one(self) -> "Quaternion":
        return Quaternion(self, 1, 0, 0, 0)

    @property
    def i(self) -> "Quaternion":
        return Quaternion(self, 0, 1, 0, 0)

    @property
    def j(self) -> "Quaternion":
        return Quaternion(self, 0, 0, 1, 0)

    @property
    def k(self) -> "Quaternion":
        return Quaternion(self, 0, 0, 0, 1)


HAMILTON = Algebra(-1, -1)


class Quaternion:
    """Element x0 + x1*i + x2*j + x3*k of a quaternion algebra."""

    __slots__ = ("alg", "x0", "x1", "x2", "x3")

    def __init__(self, alg: Algebra, x0, x1, x2, x3):
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "x3", x3)

    def __setattr__(self, *_):
        raise AttributeError("Quaternion is immutable")

    def __reduce__(self):
        # unpickle through the constructor: the default slot restore would
        # go through the __setattr__ above
        return Quaternion, (self.alg, *self.coeffs)

    @property
    def coeffs(self):
        return (self.x0, self.x1, self.x2, self.x3)

    def _check(self, other: "Quaternion"):
        if self.alg != other.alg:
            raise ValueError("mixed quaternion algebras")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return Quaternion(self.alg, self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return Quaternion(self.alg, self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Quaternion(self.alg, -self.x0, -self.x1, -self.x2, -self.x3)

    def _coerce(self, other):
        if isinstance(other, Quaternion):
            return other
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.alg, other, 0, 0, 0)
        return NotImplemented

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        a, b = self.alg.a, self.alg.b
        x0, x1, x2, x3 = self.coeffs
        y0, y1, y2, y3 = other.coeffs
        return Quaternion(
            self.alg,
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def __rmul__(self, other):
        # only scalars reach here
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.alg, other * self.x0, other * self.x1,
                              other * self.x2, other * self.x3)
        return NotImplemented

    def conj(self) -> "Quaternion":
        return Quaternion(self.alg, self.x0, -self.x1, -self.x2, -self.x3)

    def norm(self):
        """Reduced norm n(x) = x * conj(x), a scalar."""
        a, b = self.alg.a, self.alg.b
        x0, x1, x2, x3 = self.coeffs
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def trace(self):
        """Reduced trace tr(x) = x + conj(x), a scalar."""
        return 2 * self.x0

    def imag(self) -> "Quaternion":
        """Imaginary part x - tr(x)/2."""
        zero = self.x0 - self.x0
        return Quaternion(self.alg, zero, self.x1, self.x2, self.x3)

    def inv(self) -> "Quaternion":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("not invertible")
        return self.conj() * (Fraction(1) / n)

    def is_zero(self) -> bool:
        return not (self.x0 or self.x1 or self.x2 or self.x3)

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.alg == other.alg and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.alg, self.coeffs))

    def __repr__(self):
        return f"Quaternion({self.alg.a},{self.alg.b}; {self.x0}, {self.x1}, {self.x2}, {self.x3})"
