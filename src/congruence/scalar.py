"""Field and skew-field elements with involutions.

Supported bases: rationals, Gaussian rationals, rational quaternions,
64-bit real/complex floats and the two-element field GF(2).  A FieldMode
bundles a base with an involution and (for floats) a comparison
tolerance, and provides the generic arithmetic hooks the matrix code
needs.
"""

import numbers
from fractions import Fraction

rational = Fraction


def is_rational(x):
    """Exact rational scalar (int or Fraction)."""
    return isinstance(x, numbers.Rational)


class GaussianRational:
    """a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # arithmetic results are already rational: skip the copy
        self.re = re if type(re) is rational else rational(re)
        self.im = im if type(im) is rational else rational(im)

    @staticmethod
    def promote(x):
        if isinstance(x, GaussianRational):
            return x
        if is_rational(x):
            return GaussianRational(x, 0)
        return None

    def __add__(self, other):
        other = GaussianRational.promote(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.promote(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = GaussianRational.promote(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = GaussianRational.promote(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.promote(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        other = GaussianRational.promote(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (GaussianRational(1, 0) / self) ** (-k)
        out = GaussianRational(1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = GaussianRational.promote(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conj(self):
        return GaussianRational(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s*i" % self.im
        return "(%s%s%s*i)" % (self.re, "+" if self.im >= 0 else "-", abs(self.im))


class Quaternion:
    """a + b*i + c*j + d*k with rational components."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = rational(a)
        self.b = rational(b)
        self.c = rational(c)
        self.d = rational(d)

    @staticmethod
    def promote(x):
        if isinstance(x, Quaternion):
            return x
        if is_rational(x):
            return Quaternion(x)
        if isinstance(x, GaussianRational):
            return Quaternion(x.re, x.im)
        return None

    def __add__(self, other):
        other = Quaternion.promote(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = Quaternion.promote(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __rsub__(self, other):
        other = Quaternion.promote(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = Quaternion.promote(other)
        if other is None:
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __rmul__(self, other):
        other = Quaternion.promote(other)
        if other is None:
            return NotImplemented
        return other * self

    def norm(self):
        return self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2

    def conj(self):
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quaternion")
        return Quaternion(self.a / n, -self.b / n, -self.c / n, -self.d / n)

    def __truediv__(self, other):
        # right division: self * other^{-1}
        other = Quaternion.promote(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __neg__(self):
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __eq__(self, other):
        other = Quaternion.promote(other)
        if other is None:
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self):
        return self.norm() != 0

    def __repr__(self):
        return "(%s+%s*i+%s*j+%s*k)" % (self.a, self.b, self.c, self.d)


class GF2:
    """Element of the two-element field."""

    __slots__ = ("v",)

    def __init__(self, v=0):
        self.v = int(v) % 2

    def __add__(self, other):
        if isinstance(other, int):
            other = GF2(other)
        if not isinstance(other, GF2):
            return NotImplemented
        return GF2(self.v ^ other.v)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            other = GF2(other)
        if not isinstance(other, GF2):
            return NotImplemented
        return GF2(self.v & other.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = GF2(other)
        if other.v == 0:
            raise ZeroDivisionError("division by zero in GF(2)")
        return GF2(self.v)

    def __neg__(self):
        return GF2(self.v)

    def __eq__(self, other):
        if isinstance(other, int):
            other = GF2(other)
        if not isinstance(other, GF2):
            return NotImplemented
        return self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return str(self.v)


# base names
RATIONAL = "rational"
GAUSSIAN = "gaussian"
QUATERNION = "quaternion"
REAL_FLOAT = "real-float"
COMPLEX_FLOAT = "complex-float"
GF2_BASE = "gf2"

# involution names
IDENTITY = "identity"
CONJUGATION = "conjugation"
QUAT_CONJUGATION = "quat-conjugation"
QUAT_SEMICONJUGATION = "quat-semiconjugation"

_EXACT_BASES = (RATIONAL, GAUSSIAN, QUATERNION, GF2_BASE)
_DEFAULT_TOLERANCE = 1e-10


class FieldMode:
    """A base field plus involution plus (for floats) a tolerance."""

    __slots__ = ("base", "involution", "tolerance")

    def __init__(self, base, involution, tolerance=None):
        if base not in (RATIONAL, GAUSSIAN, QUATERNION, REAL_FLOAT,
                        COMPLEX_FLOAT, GF2_BASE):
            raise ValueError("unknown base %r" % base)
        if involution not in (IDENTITY, CONJUGATION, QUAT_CONJUGATION,
                              QUAT_SEMICONJUGATION):
            raise ValueError("unknown involution %r" % involution)
        if involution in (QUAT_CONJUGATION, QUAT_SEMICONJUGATION):
            if base != QUATERNION:
                raise ValueError("quaternionic involutions need the quaternion base")
        if base == QUATERNION and involution == IDENTITY:
            # the identity may be an involution only on a commutative base
            raise ValueError("identity involution is not allowed on quaternions")
        if base in _EXACT_BASES:
            if tolerance not in (None, 0):
                raise ValueError("exact bases take no tolerance")
            tolerance = 0
        elif tolerance is None:
            tolerance = _DEFAULT_TOLERANCE
        elif tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        self.base = base
        self.involution = involution
        self.tolerance = tolerance

    # -- structural helpers -------------------------------------------------

    @property
    def exact(self):
        return self.base in _EXACT_BASES

    def __eq__(self, other):
        if not isinstance(other, FieldMode):
            return NotImplemented
        return (self.base == other.base and self.involution == other.involution
                and self.tolerance == other.tolerance)

    def __hash__(self):
        return hash((self.base, self.involution, self.tolerance))

    def __repr__(self):
        return "FieldMode(%r, %r, %r)" % (self.base, self.involution, self.tolerance)

    # -- element construction ----------------------------------------------

    def zero(self):
        return self.promote(0)

    def one(self):
        return self.promote(1)

    def i(self):
        """The imaginary unit, where the base has one."""
        if self.base == GAUSSIAN:
            return GaussianRational(0, 1)
        if self.base == QUATERNION:
            return Quaternion(0, 1, 0, 0)
        if self.base == COMPLEX_FLOAT:
            return 1j
        raise ValueError("base %r has no imaginary unit" % self.base)

    def promote(self, x):
        """Coerce x into this base; raises TypeError when impossible."""
        if self.base == RATIONAL:
            if is_rational(x):
                return rational(x)
            if isinstance(x, GaussianRational) and x.im == 0:
                return x.re
        elif self.base == GAUSSIAN:
            y = GaussianRational.promote(x)
            if y is not None:
                return y
        elif self.base == QUATERNION:
            y = Quaternion.promote(x)
            if y is not None:
                return y
        elif self.base == REAL_FLOAT:
            if isinstance(x, float) or is_rational(x):
                return float(x)
            if isinstance(x, GaussianRational) and x.im == 0:
                return float(x.re)
        elif self.base == COMPLEX_FLOAT:
            if isinstance(x, (float, complex)) or is_rational(x):
                return complex(x)
            if isinstance(x, GaussianRational):
                return complex(float(x.re), float(x.im))
        elif self.base == GF2_BASE:
            if isinstance(x, GF2):
                return x
            if isinstance(x, int):
                return GF2(x)
        raise TypeError("cannot promote %r into base %r" % (x, self.base))

    # -- arithmetic hooks ---------------------------------------------------

    def involve(self, x):
        """Apply the mode's involution to a scalar."""
        if self.involution == IDENTITY:
            return x
        if self.involution == CONJUGATION:
            if isinstance(x, GaussianRational):
                return x.conj()
            if isinstance(x, complex):
                return x.conjugate()
            return x  # rationals and reals are fixed
        if self.involution == QUAT_CONJUGATION:
            return Quaternion.promote(x).conj()
        # semiconjugation: a + bi + cj + dk -> a - bi + cj + dk
        q = Quaternion.promote(x)
        return Quaternion(q.a, -q.b, q.c, q.d)

    def inv(self, x):
        if isinstance(x, Quaternion):
            return x.inverse()
        return self.one() / x

    def is_zero(self, x):
        if self.exact:
            return not bool(x)
        return self.abs_key(x) <= self.tolerance

    def eq(self, x, y):
        if self.exact:
            return x == y
        scale = max(1.0, self.abs_key(x), self.abs_key(y))
        return self.abs_key(x - y) <= self.tolerance * scale

    def abs_key(self, x):
        """Nonnegative size of a float or complex scalar (the float pivoting
        and tolerances; exact bases compare exactly)."""
        return abs(x)


# ready-made modes
MODE_RATIONAL = FieldMode(RATIONAL, IDENTITY)
MODE_GAUSSIAN_ID = FieldMode(GAUSSIAN, IDENTITY)
MODE_GAUSSIAN = FieldMode(GAUSSIAN, CONJUGATION)
MODE_QUAT_CONJ = FieldMode(QUATERNION, QUAT_CONJUGATION)
MODE_QUAT_SEMI = FieldMode(QUATERNION, QUAT_SEMICONJUGATION)
MODE_REAL_FLOAT = FieldMode(REAL_FLOAT, IDENTITY)
MODE_COMPLEX_FLOAT = FieldMode(COMPLEX_FLOAT, CONJUGATION)
MODE_GF2 = FieldMode(GF2_BASE, IDENTITY)


def complex_mode(mode):
    """The complex extension of a rational or real-float mode: the Gaussian
    rationals, or the complex floats at the same tolerance, under
    conjugation."""
    if mode.exact:
        return MODE_GAUSSIAN
    return FieldMode(COMPLEX_FLOAT, CONJUGATION, mode.tolerance)


def abs_squared(x):
    """a^2 + b^2 for a complex-type scalar (the square of its absolute value)."""
    if isinstance(x, Quaternion):
        raise TypeError("use the 4-component quaternion norm instead")
    if isinstance(x, GaussianRational):
        return x.re * x.re + x.im * x.im
    if isinstance(x, complex):
        return x.real * x.real + x.imag * x.imag
    if is_rational(x):
        return rational(x) ** 2
    if isinstance(x, float):
        return x * x
    raise TypeError("no absolute value for %r" % x)


def is_unimodular(x, mode):
    """Whether x * involve(x) equals 1 (to tolerance in float modes)."""
    if mode.is_zero(x):
        raise ZeroDivisionError("zero scalar has no modulus condition")
    if mode.base == QUATERNION:
        # both quaternionic involutions give x*involve(x) real for the
        # complex-subfield scalars the canonical blocks use
        return mode.eq(x * mode.involve(x), mode.one())
    if mode.involution == IDENTITY:
        return mode.eq(x * x, mode.one())
    return mode.eq(mode.promote(abs_squared(x)), mode.one())


def scalar_key(x):
    """(re, im) of a rational, Gaussian-rational, float or complex scalar:
    the one ordering, cache and comparison key of those scalars."""
    if is_rational(x):
        return (rational(x), rational(0))
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    if isinstance(x, float):
        return (x, 0.0)
    if isinstance(x, complex):
        return (x.real, x.imag)
    raise TypeError("no (re, im) key for %r" % (x,))


# -- JSON encoding ----------------------------------------------------------

def scalar_to_json(x):
    if isinstance(x, bool):
        raise TypeError("booleans are not scalars")
    if is_rational(x):
        return str(rational(x))
    if isinstance(x, GaussianRational):
        return [str(x.re), str(x.im)]
    if isinstance(x, Quaternion):
        return [str(x.a), str(x.b), str(x.c), str(x.d)]
    if isinstance(x, GF2):
        return x.v
    if isinstance(x, float):
        return x
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    raise TypeError("not a scalar: %r" % x)


def scalar_from_json(data, mode):
    if isinstance(data, str):
        return mode.promote(rational(data))
    if isinstance(data, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(data, (int, float)):
        return mode.promote(data)
    if isinstance(data, dict):
        return mode.promote(complex(data["re"], data["im"]))
    if isinstance(data, list):
        parts = [rational(p) for p in data]
        if len(parts) == 2:
            return mode.promote(GaussianRational(*parts))
        if len(parts) == 4:
            return mode.promote(Quaternion(*parts))
    raise TypeError("bad scalar encoding: %r" % data)
