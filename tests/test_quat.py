"""The quaternionic sign rule, forced-sign witnesses and witness verification
(no block constructors remain)."""

import random

import pytest

from congruence.scalar import (GaussianRational, Quaternion, MODE_QUAT_CONJ,
                               MODE_GAUSSIAN, QUAT_CONJUGATION,
                               QUAT_SEMICONJUGATION, rational)
from congruence.matrix import Matrix, realify
from congruence.blocks import gamma, delta
from congruence.canon import ClassificationError, CongruenceWitness
from congruence.quat import (GAMMA_FORM, DELTA_FORM, EpsilonRule,
                             epsilon_choices, verify_witness, j_scaling,
                             forced_epsilon_witness, conjugation_flip,
                             quat_mode, J)


def gr(a, b=0):
    return GaussianRational(a, b)


UNITS = [gr(1), gr(-1), gr(0, 1), gr(0, -1)]


class TestEpsilonRule:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lam", UNITS)
    @pytest.mark.parametrize("inv", [QUAT_CONJUGATION, QUAT_SEMICONJUGATION])
    def test_forcing_table(self, n, lam, inv):
        # re-derive the rule independently: the sign collapses exactly when
        # lam equals the parity-matched power of -1 for that involution
        if inv == QUAT_CONJUGATION:
            expect = {1} if lam == gr((-1) ** n) else {1, -1}
        else:
            expect = {1} if lam == gr((-1) ** (n + 1)) else {1, -1}
        assert epsilon_choices(EpsilonRule(inv, lam, n)) == expect

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            EpsilonRule(QUAT_CONJUGATION, gr(2), 1)

    def test_rejects_parameters_outside_complex_subfield(self):
        with pytest.raises(ValueError):
            EpsilonRule(QUAT_CONJUGATION, Quaternion(0, 0, 1), 1)


class TestVerifyWitness:
    def test_identity_witness(self):
        A = delta(2, 1, MODE_GAUSSIAN).cast(MODE_QUAT_CONJ)
        assert verify_witness(A, A, Matrix.identity(2, MODE_QUAT_CONJ))

    def test_dimension_mismatch(self):
        A = Matrix.identity(2, MODE_QUAT_CONJ)
        S = Matrix.identity(3, MODE_QUAT_CONJ)
        with pytest.raises(ValueError):
            verify_witness(A, A, S)

    def test_singular_witness_rejected(self):
        A = Matrix.identity(1, MODE_QUAT_CONJ)
        S = Matrix.zeros(1, 1, MODE_QUAT_CONJ)
        with pytest.raises(ValueError):
            verify_witness(A, A, S)

    def test_respects_noncommutative_order(self):
        # S* A S and S A S* differ over the quaternions
        m = MODE_QUAT_CONJ
        A = Matrix([[Quaternion(0, 1)]], m)
        S = Matrix([[Quaternion(1, 0, 1)]], m)
        left = S.conj_transpose() * A * S
        right = S * A * S.conj_transpose()
        assert left != right
        assert verify_witness(A, left, S)
        assert not verify_witness(A, right, S)

    @pytest.mark.parametrize("inv", [QUAT_CONJUGATION, QUAT_SEMICONJUGATION])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_delta_j_diagonal_identity(self, inv, n):
        # S = diag(j,-j,...): S Delta S = (-1)^n Delta; applying the
        # involution to S's entries contributes the extra sign under
        # conjugation, none under semiconjugation
        m = quat_mode(inv)
        D = delta(n, 1, MODE_GAUSSIAN).cast(m)
        S = j_scaling(n, m)
        assert S * D * S == D.scale_left(rational((-1) ** n))
        sign = (-1) ** n if inv == QUAT_SEMICONJUGATION else (-1) ** (n + 1)
        assert verify_witness(D, D.scale_left(rational(sign)), S, inv)

    def test_excluded_orbit_mate_is_star_congruent(self):
        # (-a-bi)Gamma_n falls outside the b >= 0 normalization of the Gamma
        # form under conjugation, but j-conjugation maps it onto the allowed
        # (-a+bi)Gamma_n, so nothing is lost
        a, b = rational(3, 5), rational(4, 5)
        m = MODE_QUAT_CONJ
        excluded = gamma(2).cast(m).scale_left(Quaternion(-a, -b))
        allowed = gamma(2).cast(m).scale_left(Quaternion(-a, b))
        S = Matrix.identity(2, m).scale_left(J)
        assert verify_witness(excluded, allowed, S, m)


class TestForcedWitnesses:
    @pytest.mark.parametrize("inv", [QUAT_CONJUGATION, QUAT_SEMICONJUGATION])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("form", [DELTA_FORM, GAMMA_FORM])
    def test_block_meets_its_negative(self, inv, n, form):
        w = forced_epsilon_witness(n, inv, form)
        assert w.rhs == w.lhs.scale_left(rational(-1))
        assert w.verify()

    @pytest.mark.parametrize("inv", [QUAT_CONJUGATION, QUAT_SEMICONJUGATION])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_primed_gamma_witness_verifies(self, inv, n):
        w = forced_epsilon_witness(n, inv, GAMMA_FORM, prime=True)
        assert w.rhs == w.lhs.scale_left(rational(-1))
        assert w.verify()

    def test_failed_verification_raises(self, monkeypatch):
        monkeypatch.setattr(CongruenceWitness, "verify", lambda self: False)
        with pytest.raises(ClassificationError):
            forced_epsilon_witness(2, QUAT_CONJUGATION, DELTA_FORM)


class TestRealification:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_flip_conjugates(self, n):
        rng = random.Random(80 + n)
        A = Matrix([[gr(rng.randint(-5, 5), rng.randint(-5, 5))
                     for _ in range(n)] for _ in range(n)], MODE_GAUSSIAN)
        S = conjugation_flip(2 * n)
        conj = Matrix([[x.conj() for x in row] for row in A.a], MODE_GAUSSIAN)
        assert S.transpose() * realify(A) * S == realify(conj)

