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
