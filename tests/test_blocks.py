"""Canonical block families, ordering and serialization."""

import pytest

from congruence.scalar import (GaussianRational, FieldMode, MODE_RATIONAL,
                               MODE_GAUSSIAN, MODE_REAL_FLOAT, REAL_FLOAT,
                               IDENTITY, complex_mode, is_unimodular,
                               rational)
from congruence.matrix import Matrix, Poly
from congruence.blocks import (STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL,
                               SINGULAR_JORDAN, SKEW_PAIR, SIGNED_ROOT,
                               REAL_SIGNED_ROOT, REAL_SKEW_PAIR,
                               CanonicalBlock, BlockSum, block_order_key,
                               block_matrix, block_sum_matrix, check_block,
                               field_mode_for, jordan_block, frobenius_block,
                               gamma, gamma_prime, delta, m_pair)
from congruence.cosquare import cosquare
from congruence.jordan import jordan_structure


def gr(a, b=0):
    return GaussianRational(a, b)


class TestFamilies:
    def test_gamma_small(self):
        assert gamma(1) == Matrix([[1]], MODE_RATIONAL)
        assert gamma(2) == Matrix([[0, -1], [1, 1]], MODE_RATIONAL)
        assert gamma(3) == Matrix([[0, 0, 1], [0, -1, -1], [1, 1, 0]],
                                  MODE_RATIONAL)

    def test_gamma_prime_small(self):
        assert gamma_prime(2) == Matrix([[0, -1], [1, 1]], MODE_RATIONAL)
        assert gamma_prime(3) == Matrix([[0, 0, 1], [0, 1, 0], [1, 1, 0]],
                                        MODE_RATIONAL)

    def test_delta_small(self):
        i = gr(0, 1)
        assert delta(2, 1, MODE_GAUSSIAN) == Matrix([[0, 1], [1, i]],
                                                    MODE_GAUSSIAN)
        mu = gr(2, 1)
        assert delta(2, mu, MODE_GAUSSIAN) == Matrix([[0, mu], [mu, i]],
                                                     MODE_GAUSSIAN)

    def test_frobenius_block(self):
        F = frobenius_block(Poly([1, 2, 1], MODE_RATIONAL))
        assert F == Matrix([[0, -1], [1, -2]], MODE_RATIONAL)

    def test_jordan_block(self):
        J = jordan_block(3, gr(0, 1), MODE_GAUSSIAN)
        assert J.a[0][0] == gr(0, 1) and J.a[0][1] == gr(1)
        assert J.a[2][1] == gr(0)

    def test_m_pair_shifts(self):
        M, N = m_pair(3)
        assert (M.rows, M.cols) == (2, 3)
        # M drops the last coordinate, N the first
        v = Matrix([[1], [2], [3]], MODE_RATIONAL)
        assert M * v == Matrix([[1], [2]], MODE_RATIONAL)
        assert N * v == Matrix([[2], [3]], MODE_RATIONAL)


class TestGammaCosquare:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_eigenvalue_alternates(self, n):
        Phi = cosquare(gamma(n))
        js = jordan_structure(Phi)
        assert js.entries == [(rational((-1) ** (n + 1)), (n,))]


class TestOrdering:
    def test_sum_is_order_insensitive(self):
        a = CanonicalBlock(SIGNED_ROOT, 2, lam=gr(1), eps=1)
        b = CanonicalBlock(SKEW_PAIR, 1, lam=gr(2))
        c = CanonicalBlock(SINGULAR_JORDAN, 3)
        assert BlockSum(STAR_AC, [a, b, c]) == BlockSum(STAR_AC, [c, a, b])

    def test_order_key_separates_signs(self):
        p = CanonicalBlock(SIGNED_ROOT, 2, lam=gr(1), eps=1)
        m = CanonicalBlock(SIGNED_ROOT, 2, lam=gr(1), eps=-1)
        assert block_order_key(p) < block_order_key(m)

    def test_sizes_descend_within_kind(self):
        small = CanonicalBlock(SINGULAR_JORDAN, 1)
        big = CanonicalBlock(SINGULAR_JORDAN, 4)
        bs = BlockSum(CONGRUENCE_REAL, [small, big])
        assert [b.n for b in bs.blocks] == [4, 1]


class TestValidation:
    def test_signed_root_needs_unimodular(self):
        fm = field_mode_for(STAR_AC)
        bad = CanonicalBlock(SIGNED_ROOT, 1, lam=gr(2), eps=1)
        with pytest.raises(ValueError):
            check_block(bad, STAR_AC, fm)

    def test_ac_skew_pair_rejects_unit_lambda_of_right_parity(self):
        fm = field_mode_for(CONGRUENCE_AC)
        bad = CanonicalBlock(SKEW_PAIR, 2, lam=gr(-1))
        with pytest.raises(ValueError):
            check_block(bad, CONGRUENCE_AC, fm)

    def test_real_signed_root_parity(self):
        fm = field_mode_for(CONGRUENCE_REAL)
        bad = CanonicalBlock(SIGNED_ROOT, 2, lam=rational(1), eps=1)
        with pytest.raises(ValueError):
            check_block(bad, CONGRUENCE_REAL, fm)

    def test_realified_root_keeps_the_float_tolerance(self):
        # unimodular at the mode's tolerance 1e-3, though not at the
        # default 1e-10 of a complex float mode
        fm = FieldMode(REAL_FLOAT, IDENTITY, 1e-3)
        lam = (0.6 + 0.8j) * (1 + 2e-4)
        assert is_unimodular(lam, complex_mode(fm))
        b = CanonicalBlock(REAL_SIGNED_ROOT, 1, lam=lam, eps=1)
        check_block(b, CONGRUENCE_REAL, fm)
        assert block_matrix(b, CONGRUENCE_REAL, fm).rows == 2

    def test_realified_skew_pair_rejects_a_root_at_the_float_tolerance(self):
        # |lam|^2 = 1.0004 is 1 at tolerance 1e-3, so J_1(lam) has a
        # cosquare root and lam cannot be a real-skew-pair parameter
        fm = FieldMode(REAL_FLOAT, IDENTITY, 1e-3)
        lam = (0.6 + 0.8j) * (1 + 2e-4)
        with pytest.raises(ValueError, match="not to have a cosquare root"):
            check_block(CanonicalBlock(REAL_SKEW_PAIR, 1, lam=lam),
                        CONGRUENCE_REAL, fm)

    def test_zero_parameter_raises_value_error(self):
        # zero has no modulus: the root test must answer, not divide by it
        b = CanonicalBlock(SIGNED_ROOT, 1, lam=0, eps=1)
        with pytest.raises(ValueError):
            check_block(b, STAR_AC, field_mode_for(STAR_AC))

    def test_realified_root_needs_a_sign(self):
        b = CanonicalBlock(REAL_SIGNED_ROOT, 1,
                           lam=gr(rational(3, 5), rational(4, 5)))
        with pytest.raises(ValueError):
            check_block(b, CONGRUENCE_REAL, field_mode_for(CONGRUENCE_REAL))
        with pytest.raises(ValueError):
            block_matrix(b, CONGRUENCE_REAL)

    @pytest.mark.parametrize("n", [0, -1, 2.5, 2.0, True, False, "2", None])
    def test_size_must_be_a_positive_int(self, n):
        with pytest.raises(ValueError):
            CanonicalBlock(SINGULAR_JORDAN, n)
        with pytest.raises(ValueError):
            CanonicalBlock(SKEW_PAIR, n, lam=rational(2))

    @pytest.mark.parametrize("eps", [True, 1.0, -1.0, rational(-1), 1 + 0j])
    def test_sign_must_be_the_int_one_or_minus_one(self, eps):
        # each of these compares equal to 1 or -1, and to_json wrote it
        # back as "epsilon": true or 1.0
        with pytest.raises(ValueError):
            CanonicalBlock(SIGNED_ROOT, 1, lam=gr(1), eps=eps)
        with pytest.raises(ValueError):
            CanonicalBlock(REAL_SIGNED_ROOT, 1,
                           lam=gr(rational(3, 5), rational(4, 5)), eps=eps)
        with pytest.raises(ValueError):
            BlockSum.from_json({"mode": STAR_AC, "blocks": [
                {"kind": SIGNED_ROOT, "n": 1, "lambda": ["1", "0"],
                 "epsilon": eps}]})

    def test_singular_block_takes_no_parameter(self):
        # J_n(0) has no parameter: a lam here was dropped by block_matrix,
        # which built J_n(0) for a block that claimed J_n(3)
        with pytest.raises(ValueError):
            CanonicalBlock(SINGULAR_JORDAN, 2, lam=rational(3))
        with pytest.raises(ValueError):
            BlockSum.from_json({"mode": STAR_AC, "blocks": [
                {"kind": SINGULAR_JORDAN, "n": 2, "lambda": "3"}]})

    @pytest.mark.parametrize("kind, eps", [
        (SKEW_PAIR, None), (SIGNED_ROOT, 1), (REAL_SKEW_PAIR, None),
        (REAL_SIGNED_ROOT, -1)])
    def test_other_kinds_need_a_parameter(self, kind, eps):
        with pytest.raises(ValueError):
            CanonicalBlock(kind, 1, eps=eps)
        data = {"kind": kind, "n": 1}
        if eps is not None:
            data["epsilon"] = eps
        with pytest.raises(ValueError):
            BlockSum.from_json({"mode": CONGRUENCE_REAL, "blocks": [data]})

    def test_general_field_kinds_are_unknown(self):
        with pytest.raises(ValueError):
            CanonicalBlock("gf-type-ii", 1)
        with pytest.raises(ValueError):
            BlockSum.from_json({"mode": CONGRUENCE_REAL,
                                "blocks": [{"kind": "gf-type-iii", "n": 1}]})


GRID_LAMS = [gr(0), gr(1), gr(-1), gr(0, 1), gr(0, -1),
             gr(rational(3, 5), rational(4, 5)), gr(2), gr(1, 1)]
REALIFIED = (REAL_SKEW_PAIR, REAL_SIGNED_ROOT)
ROOTS = (SIGNED_ROOT, REAL_SIGNED_ROOT)


def closed_form_accepts(kind, cmode, lam, n):
    """J_n(lam) has a cosquare root iff lam = (-1)^(n+1) under the
    transpose and |lam| = 1 under the conjugate transpose (the realified
    kinds read a non-real lam over C); root kinds need one, skew pairs
    none, and zero is never a parameter."""
    realified = kind in REALIFIED
    if lam == 0 or realified and (cmode != CONGRUENCE_REAL or lam.im == 0):
        return False
    if cmode == STAR_AC or realified:
        root = lam.re ** 2 + lam.im ** 2 == 1
    else:
        root = lam == (-1) ** (n + 1)
    return root == (kind in ROOTS)


class TestKindRule:
    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC,
                                       CONGRUENCE_REAL])
    @pytest.mark.parametrize("kind", [SKEW_PAIR, SIGNED_ROOT,
                                      REAL_SKEW_PAIR, REAL_SIGNED_ROOT])
    def test_acceptance_matches_the_closed_forms(self, kind, cmode):
        fm = field_mode_for(cmode)
        signed = kind in ROOTS and cmode != CONGRUENCE_AC
        for lam in GRID_LAMS:
            for n in range(1, 5):
                b = CanonicalBlock(kind, n, lam=lam,
                                   eps=1 if signed else None)
                if (cmode == CONGRUENCE_REAL and kind not in REALIFIED
                        and lam.im):
                    with pytest.raises(TypeError):  # not a real scalar
                        check_block(b, cmode, fm)
                elif closed_form_accepts(kind, cmode, lam, n):
                    check_block(b, cmode, fm)
                    if kind in ROOTS:
                        # signed in every mode except congruence-ac
                        flip = CanonicalBlock(kind, n, lam=lam,
                                              eps=None if signed else 1)
                        with pytest.raises(ValueError):
                            check_block(flip, cmode, fm)
                else:
                    with pytest.raises(ValueError):
                        check_block(b, cmode, fm)


class TestRealization:
    def test_singular_block_is_nilpotent_jordan(self):
        b = CanonicalBlock(SINGULAR_JORDAN, 3)
        M = block_matrix(b, CONGRUENCE_REAL)
        assert M == jordan_block(3, 0, MODE_RATIONAL)

    def test_signed_root_realizes_cosquare(self):
        lam = gr(rational(3, 5), rational(4, 5))
        b = CanonicalBlock(SIGNED_ROOT, 2, lam=lam, eps=1)
        A = block_matrix(b, STAR_AC)
        js = jordan_structure(cosquare(A))
        assert js.entries == [(lam, (2,))]

    def test_a_write_into_a_block_leaves_the_next_one_unchanged(self):
        b = CanonicalBlock(SIGNED_ROOT, 2, lam=1, eps=1)
        first = block_matrix(b, STAR_AC)
        copy = Matrix(first.a, first.mode)
        with pytest.raises(TypeError):
            first.a[0][0] = first.mode.promote(7)
        assert block_matrix(b, STAR_AC) == copy

    def test_negated_sign_is_negated_matrix(self):
        lam = gr(0, 1)
        p = block_matrix(CanonicalBlock(SIGNED_ROOT, 1, lam=lam, eps=1),
                         STAR_AC)
        m = block_matrix(CanonicalBlock(SIGNED_ROOT, 1, lam=lam, eps=-1),
                         STAR_AC)
        assert m == p.scale_left(gr(-1))

    def test_block_sum_matrix_is_direct_sum(self):
        bs = BlockSum(CONGRUENCE_REAL,
                      [CanonicalBlock(SINGULAR_JORDAN, 1),
                       CanonicalBlock(SIGNED_ROOT, 1, lam=rational(1), eps=1)])
        M = block_sum_matrix(bs)
        assert M.rows == 2
        assert M.a[0][1] == 0 and M.a[1][0] == 0


class TestJson:
    def test_round_trip(self):
        bs = BlockSum(CONGRUENCE_REAL, [
            CanonicalBlock(SINGULAR_JORDAN, 2),
            CanonicalBlock(SIGNED_ROOT, 1, lam=rational(-1), eps=-1),
            CanonicalBlock(REAL_SIGNED_ROOT, 1,
                           lam=gr(rational(3, 5), rational(4, 5)), eps=1),
            CanonicalBlock(REAL_SKEW_PAIR, 2, lam=gr(1, 1)),
        ])
        assert BlockSum.from_json(bs.to_json()) == bs

    def test_float_round_trip(self):
        # realified kinds carry complex parameters over a real float field
        bs = BlockSum(CONGRUENCE_REAL, [
            CanonicalBlock(SIGNED_ROOT, 1, lam=-1.0, eps=-1),
            CanonicalBlock(REAL_SIGNED_ROOT, 1, lam=complex(0.6, 0.8), eps=1),
            CanonicalBlock(REAL_SKEW_PAIR, 2, lam=complex(1.0, 1.0)),
        ])
        back = BlockSum.from_json(bs.to_json(), MODE_REAL_FLOAT)
        assert back == bs
        lams = {b.kind: b.lam for b in back.blocks}
        assert lams[REAL_SIGNED_ROOT] == complex(0.6, 0.8)
