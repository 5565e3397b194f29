"""Cosquares, dual polynomials, recurrence extension, Toeplitz roots."""

import pytest

from congruence import cosquare as cosquare_module
from congruence.scalar import (GaussianRational, MODE_RATIONAL, MODE_GAUSSIAN,
                               MODE_GAUSSIAN_ID, rational)
from congruence.matrix import Matrix, Poly
from congruence.blocks import frobenius_block, jordan_block
from congruence.cosquare import (cosquare, poly_dual, recurrent_extend,
                                 root_exists, root_exists_jordan,
                                 toeplitz_root, star_root_jordan,
                                 RootNotFound)


def gr(a, b=0):
    return GaussianRational(a, b)


def poly(cs, mode=MODE_RATIONAL):
    return Poly(cs, mode)


class TestCosquare:
    def test_defining_identity(self):
        A = Matrix([[1, -3], [1, 1]], MODE_RATIONAL)
        Phi = cosquare(A)
        assert A.transpose() * Phi == A

    def test_requires_square(self):
        with pytest.raises(ValueError):
            cosquare(Matrix([[1, 2]], MODE_RATIONAL))


class TestPolyDual:
    def test_reverses_and_conjugates(self):
        p = poly([gr(0, 1), gr(2), gr(1)], MODE_GAUSSIAN)  # i + 2x + x^2
        d = poly_dual(p)
        # reversal [1, 2, -i], monic via leading -i
        assert d.coeff(2) == gr(1)
        assert d == poly([gr(0, 1), gr(0, 2), gr(1)], MODE_GAUSSIAN)

    def test_involution_on_roots(self):
        # p = (x - 2): dual should vanish at 1/2
        d = poly_dual(poly([-2, 1]))
        assert d.eval(rational(1, 2)) == 0

    def test_self_dual_palindromic(self):
        p = poly([1, -3, 1])
        assert poly_dual(p) == p


class TestRecurrence:
    def test_window_rule(self):
        # f = x^2 - x - 1: window a[l] = a[l+1] + a[l+2]
        f = poly([-1, -1, 1])
        vals = recurrent_extend([1, 1], f, add_left=2, add_right=3)
        assert vals == [3, 2, 1, 1, 0, 1, -1]

    def test_rejects_non_recurrent_seed(self):
        f = poly([-1, 0, 1])  # x^2 - 1: a[l] = a[l+2]
        with pytest.raises(ValueError):
            recurrent_extend([1, 2, 3], f, add_right=1)


class TestExistence:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("lam", [gr(1), gr(-1), gr(0, 1), gr(0, -1),
                                     gr(2), gr(rational(1, 2)),
                                     gr(rational(3, 5), rational(4, 5))])
    def test_jordan_closed_form(self, n, lam):
        idm = root_exists_jordan(n, lam, MODE_GAUSSIAN_ID)[0]
        assert idm == (lam == gr((-1) ** (n + 1)))
        conj = root_exists_jordan(n, lam, MODE_GAUSSIAN)[0]
        assert conj == (lam * lam.conj() == gr(1))

    def test_prime_power_factors_the_coefficient_list(self):
        # over QQ_I for a Gaussian base; the factor comes back monic
        lin = poly([gr(-1, -1), 1], MODE_GAUSSIAN)
        assert cosquare_module._prime_power(lin ** 2) == (lin, 2)
        third = poly([rational(-1, 3), 1])
        assert cosquare_module._prime_power(third ** 3) == (third, 3)

    def test_rejects_non_prime_power(self):
        F = frobenius_block(poly([-1, 0, 1]))  # (x-1)(x+1)
        ok, reason = root_exists(F)
        assert not ok and "prime power" in reason


class TestToeplitzRoot:
    def test_worked_example(self):
        F = frobenius_block(poly([1, 2, 1]))
        A = toeplitz_root(F)
        assert A == Matrix([[1, -3], [1, 1]], MODE_RATIONAL)
        assert A.transpose().inverse() * A == F

    def test_linear_pins(self):
        assert toeplitz_root(frobenius_block(poly([-1, 1]))).a == ((-2,),)
        A = toeplitz_root(frobenius_block(poly([gr(1), gr(1)], MODE_GAUSSIAN)))
        assert A.a == ((gr(0, 2),),)

    @pytest.mark.parametrize("cs", [[-1, 1], [1, -3, 1], [1, -6, 11, -6, 1],
                                    [-1, 3, -3, 1]])
    def test_defining_identity_and_nonsingular(self, cs):
        F = frobenius_block(poly(cs).monic())
        A = toeplitz_root(F)
        assert A.conj_transpose() * F == A
        assert A.det() != 0

    def test_rejects_excluded_linear_factor(self):
        # x + 1 under the transpose involution has no root
        with pytest.raises(RootNotFound):
            toeplitz_root(frobenius_block(poly([1, 1])))

    def test_transport_preserves_root(self):
        F = frobenius_block(poly([1, -3, 1]))
        A = toeplitz_root(F)
        S = Matrix([[1, 1], [0, 1]], MODE_RATIONAL)
        B = S.conj_transpose() * A * S
        assert cosquare(B) == S.inverse() * F * S


class TestStarRootJordan:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cosquare_recovers_jordan(self, n):
        lam = gr(rational(3, 5), rational(4, 5))
        R = star_root_jordan(n, lam, MODE_GAUSSIAN)
        assert cosquare(R) == jordan_block(n, lam, MODE_GAUSSIAN)

    def test_identity_involution(self):
        R = star_root_jordan(3, 1, MODE_RATIONAL)
        assert cosquare(R) == jordan_block(3, 1, MODE_RATIONAL)

    def test_rejects_bad_parameter(self):
        with pytest.raises(RootNotFound):
            star_root_jordan(2, gr(2), MODE_GAUSSIAN)

    def test_no_second_existence_test(self, monkeypatch):
        # root_exists_jordan has decided existence; root_exists factors
        calls = []

        def counted(*args):
            calls.append(args)
            return root_exists(*args)

        monkeypatch.setattr(cosquare_module, "root_exists", counted)
        for n, lam in ((3, gr(rational(3, 5), rational(4, 5))), (2, gr(0, 1))):
            R = star_root_jordan(n, lam, MODE_GAUSSIAN)
            assert cosquare(R) == jordan_block(n, lam, MODE_GAUSSIAN)
        assert calls == []

