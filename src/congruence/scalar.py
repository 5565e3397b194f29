"""Field and skew-field elements with involutions.

Supported bases: rationals, Gaussian rationals, rational quaternions,
64-bit real/complex floats and the two-element field GF(2).  A FieldMode
bundles a base with an involution and (for floats) a comparison
tolerance, and provides the generic arithmetic hooks the matrix code
needs.

GaussianRational, Quaternion and GF2 share one base, _Parts: each is a
tuple of parts, and each supplies only its constructor, _parts() (the
parts in constructor order), promote (an operand into its class, or
None), its product and its repr.  The base promotes the other operand of
every binary operator, and returns NotImplemented where that fails; it
adds, subtracts, negates, compares, hashes and tests for zero part by
part.  The conjugate negates every part after the first, the norm is the
sum of the squared parts, and x / y is x * y^-1 with y^-1 = conj(y) /
norm(y).  GF2 has its own inverse, which divides nothing, and its own ==,
under which an int equals only its own value 0 or 1 (promote still
reduces ints mod 2 for arithmetic).
"""

import numbers
import re
from fractions import Fraction
from operator import add, sub

rational = Fraction


def is_rational(x):
    """Exact rational scalar (int or Fraction)."""
    return isinstance(x, numbers.Rational)


def _promoted(op):
    """The binary operator op(x, y), with y first promoted into x's class:
    NotImplemented when it does not promote."""
    def method(self, other):
        other = self.promote(other)
        return NotImplemented if other is None else op(self, other)
    return method


class _Parts:
    """Arithmetic of an exact scalar that is a tuple of parts (see the
    module docstring for what a subclass supplies)."""

    __slots__ = ()

    @_promoted
    def __add__(self, other):
        return type(self)(*map(add, self._parts(), other._parts()))

    __radd__ = __add__

    @_promoted
    def __sub__(self, other):
        return type(self)(*map(sub, self._parts(), other._parts()))

    @_promoted
    def __rsub__(self, other):
        return other - self

    @_promoted
    def __rmul__(self, other):
        return other * self

    @_promoted
    def __truediv__(self, other):
        # right division: self * other^-1
        return self * other.inverse()

    @_promoted
    def __rtruediv__(self, other):
        return other * self.inverse()

    def __neg__(self):
        return type(self)(*(-p for p in self._parts()))

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** -k
        out, base = type(self)(1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @_promoted
    def __eq__(self, other):
        return self._parts() == other._parts()

    def __hash__(self):
        # trailing zero parts are dropped, and a lone part hashes as
        # itself: equal scalars of different classes hash equal
        parts = self._parts()
        n = len(parts)
        while n > 1 and not parts[n - 1]:
            n -= 1
        return hash(parts[0] if n == 1 else parts[:n])

    def __bool__(self):
        return any(self._parts())

    def conj(self):
        first, *rest = self._parts()
        return type(self)(first, *(-p for p in rest))

    def norm(self):
        return sum(p * p for p in self._parts())

    def inverse(self):
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero %s" % type(self).__name__)
        return type(self)(*(p / n for p in self.conj()._parts()))


class GaussianRational(_Parts):
    """a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # arithmetic results are already rational: skip the copy
        self.re = re if type(re) is rational else rational(re)
        self.im = im if type(im) is rational else rational(im)

    def _parts(self):
        return self.re, self.im

    @staticmethod
    def promote(x):
        if isinstance(x, GaussianRational):
            return x
        if is_rational(x):
            return GaussianRational(x, 0)
        return None

    @_promoted
    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s*i" % self.im
        return "(%s%s%s*i)" % (self.re, "+" if self.im >= 0 else "-", abs(self.im))


class Quaternion(_Parts):
    """a + b*i + c*j + d*k with rational components."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = rational(a)
        self.b = rational(b)
        self.c = rational(c)
        self.d = rational(d)

    def _parts(self):
        return self.a, self.b, self.c, self.d

    @staticmethod
    def promote(x):
        if isinstance(x, Quaternion):
            return x
        if is_rational(x):
            return Quaternion(x)
        if isinstance(x, GaussianRational):
            return Quaternion(x.re, x.im)
        return None

    @_promoted
    def __mul__(self, other):
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __repr__(self):
        return "(%s+%s*i+%s*j+%s*k)" % (self.a, self.b, self.c, self.d)


class GF2(_Parts):
    """Element of the two-element field."""

    __slots__ = ("v",)

    def __init__(self, v=0):
        self.v = int(v) % 2

    def _parts(self):
        return (self.v,)

    @staticmethod
    def promote(x):
        if isinstance(x, GF2):
            return x
        if isinstance(x, int):
            return GF2(x)
        return None

    def __eq__(self, other):
        # an int equals only its own value: promote's reduction mod 2 would
        # make GF2(1) == 3 while the two hash apart
        if isinstance(other, int):
            return self.v == other
        return _Parts.__eq__(self, other)

    __hash__ = _Parts.__hash__

    @_promoted
    def __mul__(self, other):
        return GF2(self.v & other.v)

    __rmul__ = __mul__

    def inverse(self):
        if not self.v:
            raise ZeroDivisionError("division by zero in GF(2)")
        return self

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

BASES = (RATIONAL, GAUSSIAN, QUATERNION, REAL_FLOAT, COMPLEX_FLOAT, GF2_BASE)
INVOLUTIONS = (IDENTITY, CONJUGATION, QUAT_CONJUGATION, QUAT_SEMICONJUGATION)
_EXACT_BASES = (RATIONAL, GAUSSIAN, QUATERNION, GF2_BASE)
_PART_CLASSES = {GAUSSIAN: GaussianRational, QUATERNION: Quaternion,
                 GF2_BASE: GF2}
_DEFAULT_TOLERANCE = 1e-10


class FieldMode:
    """A base field plus involution plus (for floats) a tolerance."""

    __slots__ = ("base", "involution", "tolerance")

    def __init__(self, base, involution, tolerance=None):
        if base not in BASES:
            raise ValueError("unknown base %r" % base)
        if involution not in INVOLUTIONS:
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
        elif (isinstance(tolerance, bool)
              or not isinstance(tolerance, numbers.Real)
              or not 0 <= tolerance < float("inf")):
            raise ValueError("tolerance must be a finite nonnegative real, "
                             "not %r" % (tolerance,))
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
        if self.base in (GAUSSIAN, QUATERNION):
            return _PART_CLASSES[self.base](0, 1)
        if self.base == COMPLEX_FLOAT:
            return 1j
        raise ValueError("base %r has no imaginary unit" % self.base)

    def promote(self, x):
        """Coerce x into this base; raises TypeError when impossible."""
        cls = _PART_CLASSES.get(self.base)
        if cls is not None:
            y = cls.promote(x)
            if y is not None:
                return y
        elif self.base == RATIONAL:
            if is_rational(x):
                return rational(x)
            if isinstance(x, GaussianRational) and x.im == 0:
                return x.re
        elif self.base == REAL_FLOAT:
            if isinstance(x, float) or is_rational(x):
                return float(x)
            if isinstance(x, GaussianRational) and x.im == 0:
                return float(x.re)
        elif self.base == COMPLEX_FLOAT:
            if (isinstance(x, (float, complex, GaussianRational))
                    or is_rational(x)):
                return complex(x)
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
        return self.one() / x

    def is_zero(self, x):
        if self.exact:
            return not bool(x)
        return abs(x) <= self.tolerance

    def eq(self, x, y):
        if self.exact:
            return x == y
        return abs(x - y) <= self.tolerance * max(1.0, abs(x), abs(y))


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
        return x.norm()
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
    if isinstance(x, (GaussianRational, Quaternion)):
        return [str(p) for p in x._parts()]
    if isinstance(x, GF2):
        return x.v
    if isinstance(x, float):
        return x
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    raise TypeError("not a scalar: %r" % x)


_ASCII_INT = re.compile("-?[0-9]+").fullmatch


def _json_ratio(e):
    """(numerator, denominator) of an exact JSON string or an int (not a
    bool), else None.  An ASCII integer string is read by int alone; every
    other string ("p/q", "0.5", "1e3", " 3", "+3", other digits,
    underscores) by Fraction, which reduces it and raises for what it does
    not accept."""
    if isinstance(e, str):
        if _ASCII_INT(e):
            return int(e), 1
        return rational(e).as_integer_ratio()
    return (e, 1) if type(e) is int else None


def _rational_from_json(p):
    return rational(*_json_ratio(p)) if isinstance(p, str) else rational(p)


def scalar_from_json(data, mode):
    if isinstance(data, str):
        return mode.promote(_rational_from_json(data))
    if isinstance(data, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(data, (int, float)):
        return mode.promote(data)
    if isinstance(data, dict):
        return mode.promote(complex(data["re"], data["im"]))
    if isinstance(data, list):
        parts = [_rational_from_json(p) for p in data]
        if len(parts) == 2:
            return mode.promote(GaussianRational(*parts))
        if len(parts) == 4:
            return mode.promote(Quaternion(*parts))
    raise TypeError("bad scalar encoding: %r" % data)
