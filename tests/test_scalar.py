"""Scalar arithmetic across the supported fields and involutions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from congruence.scalar import (GaussianRational, Quaternion, GF2, FieldMode,
                               MODE_RATIONAL, MODE_GAUSSIAN, MODE_GAUSSIAN_ID,
                               MODE_QUAT_CONJ, MODE_QUAT_SEMI, MODE_GF2,
                               MODE_REAL_FLOAT, MODE_COMPLEX_FLOAT,
                               QUATERNION, IDENTITY, rational, is_rational,
                               is_unimodular, abs_squared, scalar_key,
                               scalar_to_json, scalar_from_json)


def gr(a, b=0):
    return GaussianRational(a, b)


class TestGaussianRational:
    def test_field_ops(self):
        x = gr(Fraction(1, 2), 3)
        y = gr(2, -1)
        assert x + y == gr(Fraction(5, 2), 2)
        assert x - y == gr(Fraction(-3, 2), 4)
        # (1/2 + 3i)(2 - i) = 1 - 1/2 i + 6i + 3 = 4 + 11/2 i
        assert x * y == gr(4, Fraction(11, 2))
        assert (x / y) * y == x
        assert x * x.conj() == gr(abs_squared(x))

    def test_pow_and_neg(self):
        i = gr(0, 1)
        assert i ** 2 == gr(-1)
        assert i ** 0 == gr(1)
        assert (-i) * i == gr(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / gr(0)

    @given(st.integers(-9, 9), st.integers(-9, 9),
           st.integers(-9, 9), st.integers(-9, 9))
    def test_conj_is_multiplicative(self, a, b, c, d):
        x, y = gr(a, b), gr(c, d)
        assert (x * y).conj() == x.conj() * y.conj()


class TestQuaternion:
    def test_units(self):
        i = Quaternion(0, 1)
        j = Quaternion(0, 0, 1)
        k = Quaternion(0, 0, 0, 1)
        assert i * j == k
        assert j * i == -k
        assert i * i == j * j == k * k == Quaternion(-1)

    def test_inverse(self):
        q = Quaternion(1, 2, -1, 3)
        assert q * q.inverse() == Quaternion(1)
        assert q.inverse() * q == Quaternion(1)

    def test_conj_antihomomorphism(self):
        p = Quaternion(1, 1, 0, 2)
        q = Quaternion(0, 3, -1, 1)
        assert (p * q).conj() == q.conj() * p.conj()

    def test_norm(self):
        q = Quaternion(1, 2, 3, 4)
        assert q.norm() == 30
        assert q * q.conj() == Quaternion(30)


class TestGF2:
    def test_arithmetic(self):
        one, zero = GF2(1), GF2(0)
        assert one + one == zero
        assert one * one == one
        assert one / one == one
        assert -one == one

    @pytest.mark.parametrize("other", [Fraction(1), "x", 1.0])
    def test_division_by_a_foreign_operand_is_a_type_error(self, other):
        with pytest.raises(TypeError):
            GF2(1) / other
        with pytest.raises(TypeError):
            other / GF2(1)

    @pytest.mark.parametrize("v", [0, 1])
    def test_equal_to_an_int_only_at_its_own_value(self, v):
        # promote reduces ints mod 2 for arithmetic, but == must not: equal
        # values hash equal, and {GF2(1), 3} has two members
        for k in range(-5, 6):
            assert (GF2(v) == k) == (k == v)
            if GF2(v) == k:
                assert hash(GF2(v)) == hash(k)
        assert GF2(v) == GF2(v + 2) and GF2(1) + 3 == GF2(0)
        assert len({GF2(1), 3}) == 2 and len({GF2(v), v}) == 1


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# each class's elements, and the plain scalars that promote into it
CLASSES = [
    (GaussianRational, st.builds(GaussianRational, SMALL, SMALL),
     st.one_of(st.integers(-5, 5), SMALL)),
    (Quaternion, st.builds(Quaternion, SMALL, SMALL, SMALL, SMALL),
     st.one_of(st.integers(-5, 5), SMALL)),
    (GF2, st.builds(GF2, st.integers(0, 1)), st.integers(-3, 3)),
]


class TestSharedArithmetic:
    """The operations GaussianRational, Quaternion and GF2 share."""

    @pytest.mark.parametrize("cls, elements, scalars", CLASSES)
    @given(data=st.data())
    def test_field_laws(self, cls, elements, scalars, data):
        x, y = data.draw(elements), data.draw(elements)
        one = cls(1)
        assert x + y - y == x
        assert -(-x) == x
        assert x.conj().conj() == x
        assert x ** 2 == x * x and x ** 0 == one
        if x:
            assert x * x.inverse() == x.inverse() * x == one
            assert x ** -1 == x.inverse()
        else:
            with pytest.raises(ZeroDivisionError):
                y / x
        if y:
            assert (x / y) * y == x

    @pytest.mark.parametrize("cls, elements, scalars", CLASSES)
    @given(data=st.data())
    def test_plain_scalars_on_either_side(self, cls, elements, scalars, data):
        x, c = data.draw(elements), data.draw(scalars)
        p = cls.promote(c)
        assert type(p) is cls
        assert x + c == c + x == x + p
        assert x - c == x - p and c - x == p - x
        assert x * c == x * p and c * x == p * x
        if p:
            assert x / c == x / p
        if x:
            assert c / x == p / x
        # GF2 equals an int only at the int's own value (TestGF2)
        equal = x == p and (cls is not GF2 or c in (0, 1))
        assert (x == c) == (c == x) == equal

    @given(st.lists(st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]),
                    min_size=4, max_size=4),
           st.sampled_from(range(4)), st.sampled_from(range(4)))
    def test_equal_scalars_hash_equal(self, parts, k1, k2):
        kinds = [lambda p: p[0],  # an int or Fraction(1, 2)
                 lambda p: Fraction(p[0]),
                 lambda p: GaussianRational(*p[:2]),
                 lambda p: Quaternion(*p)]
        x, y = kinds[k1](parts), kinds[k2](parts)
        if x == y:
            assert hash(x) == hash(y)

    def test_a_set_keeps_one_of_equal_scalars(self):
        assert len({Quaternion(2), Fraction(2), GaussianRational(2), 2}) == 1
        assert len({Quaternion(1, 2), GaussianRational(1, 2)}) == 1


class TestFieldMode:
    def test_promote(self):
        assert MODE_GAUSSIAN.promote(2) == gr(2)
        assert MODE_QUAT_CONJ.promote(gr(1, 2)) == Quaternion(1, 2)
        assert is_rational(MODE_RATIONAL.promote(3))
        assert MODE_COMPLEX_FLOAT.promote(rational(1, 2)) == 0.5 + 0j

    def test_involutions(self):
        i, j = Quaternion(0, 1), Quaternion(0, 0, 1)
        assert MODE_QUAT_CONJ.involve(j) == -j
        assert MODE_QUAT_SEMI.involve(j) == j
        assert MODE_QUAT_SEMI.involve(i) == -i
        assert MODE_GAUSSIAN.involve(gr(1, 2)) == gr(1, -2)
        assert MODE_GAUSSIAN_ID.involve(gr(1, 2)) == gr(1, 2)

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            FieldMode(QUATERNION, IDENTITY)
        with pytest.raises(ValueError):
            FieldMode("rational", "quat-conjugation")

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), True,
                                     1e-8j, "1e-8"])
    @pytest.mark.parametrize("base", ["real-float", "complex-float"])
    def test_float_tolerance_must_be_a_finite_real(self, base, tol):
        # a nan or infinite tolerance used to be accepted and then fail
        # classification with a misleading structural error
        with pytest.raises(ValueError, match="tolerance"):
            FieldMode(base, "identity", tol)

    def test_float_eq_is_relative(self):
        m = FieldMode("real-float", "identity", 1e-8)
        assert m.eq(1e9, 1e9 + 1.0)
        assert not m.eq(1.0, 1.0 + 1e-6)

    def test_unimodular(self):
        assert is_unimodular(gr(Fraction(3, 5), Fraction(4, 5)), MODE_GAUSSIAN)
        assert not is_unimodular(gr(1, 1), MODE_GAUSSIAN)


class TestScalarKey:
    def test_rational_and_gaussian_rational_share_a_key(self):
        assert scalar_key(Fraction(1, 2)) == scalar_key(gr(Fraction(1, 2), 0))
        assert scalar_key(gr(1, -2)) == (1, -2)
        assert scalar_key(0.5) == scalar_key(0.5 + 0j)

    def test_quaternion_has_no_key(self):
        with pytest.raises(TypeError):
            scalar_key(Quaternion(1, 2))


class TestJson:
    @pytest.mark.parametrize("x,mode", [
        (rational(-7, 3), MODE_RATIONAL),
        (gr(Fraction(1, 2), -5), MODE_GAUSSIAN),
        (Quaternion(1, -2, 3, Fraction(1, 4)), MODE_QUAT_CONJ),
        (GF2(1), MODE_GF2),
        (1.5, MODE_REAL_FLOAT),
        (2 - 3j, MODE_COMPLEX_FLOAT),
    ])
    def test_round_trip(self, x, mode):
        assert scalar_from_json(scalar_to_json(x), mode) == x

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            scalar_to_json(True)
