"""Jordan structure recovery: exact eigenvalues, partitions, chain bases."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from congruence.scalar import (GaussianRational, FieldMode, MODE_RATIONAL,
                               MODE_GAUSSIAN, MODE_GAUSSIAN_ID, MODE_REAL_FLOAT,
                               rational)
from congruence.matrix import Matrix, Poly, direct_sum
from congruence.blocks import jordan_block, frobenius_block
from congruence.jordan import (jordan_structure, generalized_eigenbasis,
                               eigenvalues, UnsplittablePolynomial, RootSpace,
                               chain_counts, preimage_chain)
from test_matrix import exact_matrix


def gr(a, b=0):
    return GaussianRational(a, b)


def scrambled(blocks, mode, seed):
    """Similarity-scramble a direct sum of Jordan blocks; oracle is the input."""
    J = blocks[0]
    for b in blocks[1:]:
        J = direct_sum(J, b)
    rng = random.Random(seed)
    n = J.rows
    while True:
        S = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
                   mode)
        if S.det() != 0:
            return S.inverse() * J * S


class TestExact:
    def test_single_block(self):
        A = scrambled([jordan_block(3, rational(2), MODE_RATIONAL)],
                      MODE_RATIONAL, 1)
        js = jordan_structure(A)
        assert js.entries == [(rational(2), (3,))]

    def test_mixed_partition(self):
        blocks = [jordan_block(2, 1, MODE_RATIONAL),
                  jordan_block(1, 1, MODE_RATIONAL),
                  jordan_block(2, -1, MODE_RATIONAL)]
        A = scrambled(blocks, MODE_RATIONAL, 7)
        js = jordan_structure(A)
        assert sorted(js.entries, key=lambda e: e[0]) == [
            (rational(-1), (2,)), (rational(1), (2, 1))]

    def test_gaussian_eigenvalues(self):
        blocks = [jordan_block(2, gr(0, 1), MODE_GAUSSIAN),
                  jordan_block(1, gr(2, -1), MODE_GAUSSIAN)]
        A = scrambled(blocks, MODE_GAUSSIAN, 3)
        js = jordan_structure(A)
        assert js.sizes(gr(0, 1), MODE_GAUSSIAN) == (2,)
        assert js.sizes(gr(2, -1), MODE_GAUSSIAN) == (1,)

    def test_unsplittable_raises(self):
        A = Matrix([[0, 2], [1, 0]], MODE_RATIONAL)  # x^2 - 2
        with pytest.raises(UnsplittablePolynomial):
            jordan_structure(A)

    def test_complex_root_over_real_field(self):
        A = Matrix([[0, -1], [1, 0]], MODE_RATIONAL)
        with pytest.raises(UnsplittablePolynomial):
            eigenvalues(A)


def with_roots(roots, mode):
    """A companion matrix whose characteristic polynomial is prod (x - r)."""
    chi = Poly([1], mode)
    for r in roots:
        chi = chi * Poly([-r, 1], mode)
    return frobenius_block(chi)


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
GAUSSIAN_MODES = [MODE_GAUSSIAN, MODE_GAUSSIAN_ID]


class TestRootFinder:
    """The oracle is the multiset of roots the polynomial was built from."""

    @pytest.mark.parametrize("coeffs, factor", [
        ([gr(0, -1), 0, 1], "x**4 + 1"),  # x^2 - i, through its norm
        ([1, 1, 1], "x**2 + x + 1"),      # 4AC - B^2 = 3, not a square
        ([-2, 0, 1], "x**2 - 2"),
    ])
    def test_unsplittable_names_the_factor(self, coeffs, factor):
        A = frobenius_block(Poly(coeffs, MODE_GAUSSIAN))
        with pytest.raises(UnsplittablePolynomial, match=re.escape(factor)):
            eigenvalues(A)

    @pytest.mark.parametrize("mode", GAUSSIAN_MODES)
    def test_conjugate_candidate_rejected(self, mode):
        # the norm has the root 1 - i too; it must not divide chi
        roots = [gr(1, 1), gr(2)]
        assert Counter(eigenvalues(with_roots(roots, mode))) == Counter(roots)

    def test_multiplicities(self):
        roots = [gr(0, 1)] * 3 + [gr(rational(1, 2))] * 2
        got = eigenvalues(with_roots(roots, MODE_GAUSSIAN))
        assert Counter(got) == Counter(roots)

    @pytest.mark.parametrize("mode", GAUSSIAN_MODES + [MODE_RATIONAL])
    def test_empty_matrix(self, mode):
        A = Matrix.zeros(0, 0, mode)
        assert eigenvalues(A) == []
        assert jordan_structure(A).entries == []

    @pytest.mark.parametrize("mode", GAUSSIAN_MODES)
    @settings(max_examples=40, deadline=None)
    @given(parts=st.lists(st.tuples(SMALL, SMALL), min_size=1, max_size=6))
    def test_split_polynomials(self, mode, parts):
        roots = [GaussianRational(a, b) for a, b in parts]
        assert Counter(eigenvalues(with_roots(roots, mode))) == Counter(roots)


class TestRankChain:
    def test_multiplicity_past_the_rank_profile_raises(self):
        blocks = [jordan_block(2, 1, MODE_RATIONAL),
                  jordan_block(1, 1, MODE_RATIONAL),
                  jordan_block(2, -1, MODE_RATIONAL)]
        A = scrambled(blocks, MODE_RATIONAL, 7)
        assert RootSpace(A, rational(1), 3).sizes == (2, 1)
        with pytest.raises(ValueError, match="multiplicity 4"):
            RootSpace(A, rational(1), 4)

    # step k > 1 of the chain takes two kernels (the complement of K_(k-1)
    # and K_k) and one product
    @pytest.mark.parametrize("lam, mult, part, kernels, products", [
        (2, 1, (1,), 1, 0),     # a simple eigenvalue: one kernel, no product
        (1, 3, (3,), 5, 2),     # stops at nullity 3, no kernel past it
    ])
    def test_chain_stops_at_the_multiplicity(self, monkeypatch, lam, mult,
                                             part, kernels, products):
        A = scrambled([jordan_block(3, 1, MODE_RATIONAL),
                       jordan_block(1, 2, MODE_RATIONAL)], MODE_RATIONAL, 5)
        calls = Counter()
        for name in ("right_kernel", "__mul__"):
            def counted(*args, _name=name, _orig=getattr(Matrix, name)):
                calls[_name] += 1
                return _orig(*args)
            monkeypatch.setattr(Matrix, name, counted)
        assert RootSpace(A, rational(lam), mult).sizes == part
        assert calls == Counter(right_kernel=kernels, __mul__=products)


class TestPreimageChain:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_identity_chain_is_the_kernels_of_the_powers(self, data):
        n = data.draw(st.integers(0, 5))
        N = data.draw(exact_matrix(rows=(n, data.draw(st.booleans())),
                                   cols=n))
        power = N
        for k, K in zip(range(1, n + 2), preimage_chain(N)):
            assert K == power.right_kernel(), k
            power = power * N

    @pytest.mark.parametrize("dims, counts", [
        ([0], []),
        ([0, 2, 3, 4], [1, 0, 1]),     # J_1 + J_3
        ([0, 2, 4, 5], [0, 1, 1]),     # J_2 + J_3
    ])
    def test_chain_counts(self, dims, counts):
        assert chain_counts(dims) == counts


EIGENVALUES = {
    "rational": st.integers(-3, 3).map(rational),
    "gaussian": st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda ab: gr(*ab)),
}
MODES = {"rational": MODE_RATIONAL, "gaussian": MODE_GAUSSIAN}


class TestRootSpace:
    """The oracle is the Jordan sum the matrix was scrambled from."""

    @pytest.mark.parametrize("field", sorted(MODES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_sizes_and_chain_basis(self, field, data):
        mode = MODES[field]
        lams = data.draw(st.lists(EIGENVALUES[field], min_size=1, max_size=3,
                                  unique=True))
        parts = [data.draw(st.lists(st.integers(1, 3), min_size=1,
                                    max_size=2)) for _ in lams]
        A = scrambled([jordan_block(m, lam, mode)
                       for lam, sizes in zip(lams, parts) for m in sizes],
                      mode, data.draw(st.integers(0, 10 ** 6)))
        for lam, sizes in zip(lams, parts):
            want = tuple(sorted(sizes, reverse=True))
            space = RootSpace(A, lam, sum(sizes))
            assert space.sizes == want
            # P has full column rank, so A P = P J pins J down
            P = space.basis()
            assert P.rank() == P.cols
            assert A * P == P * direct_sum(
                *[jordan_block(m, lam, mode) for m in want])


class TestChainBasis:
    @pytest.mark.parametrize("seed", [2, 9, 14])
    def test_chain_relations(self, seed):
        blocks = [jordan_block(3, 1, MODE_RATIONAL),
                  jordan_block(1, 1, MODE_RATIONAL)]
        A = scrambled(blocks, MODE_RATIONAL, seed)
        P = generalized_eigenbasis(A, rational(1))
        assert P.cols == 4 and P.rank() == 4
        # restriction of A is the direct sum of upper Jordan blocks
        J = P.solve(A * P)
        assert J == direct_sum(jordan_block(3, 1, MODE_RATIONAL),
                               jordan_block(1, 1, MODE_RATIONAL))

    def test_not_an_eigenvalue(self):
        A = Matrix.identity(2, MODE_RATIONAL)
        with pytest.raises(ValueError):
            generalized_eigenbasis(A, rational(5))


class TestFloat:
    def test_clusters_simple_spectrum(self):
        m = FieldMode("real-float", "identity", 1e-8)
        A = Matrix([[2.0, 1.0], [0.0, -1.0]], m)
        vals = sorted(v.real for v in eigenvalues(A))
        assert abs(vals[0] + 1) < 1e-8 and abs(vals[1] - 2) < 1e-8

    def test_real_float_root_space(self):
        # a real-float matrix is read over the complex floats, so its
        # (complex) computed eigenvalues compare with a real lam
        A = Matrix([[2, 0], [0, 3]], MODE_REAL_FLOAT)
        P = generalized_eigenbasis(A, 2)
        assert P.cols == 1 and abs(complex(P.a[1][0])) < 1e-12
        assert jordan_structure(A).sizes(2, MODE_REAL_FLOAT) == (1,)
        assert jordan_structure(A).sizes(5, MODE_REAL_FLOAT) == ()

    def test_clusters_defective_eigenvalue(self):
        # a 4-chain scatters its computed eigenvalues roughly like eps^(1/4);
        # single-linkage clustering at radius sqrt(tolerance) must merge them
        m = FieldMode("real-float", "identity", 1e-5)
        base = jordan_block(4, 1, MODE_RATIONAL)
        A = scrambled([base], MODE_RATIONAL, 21).cast(m)
        js = jordan_structure(A)
        assert len(js.entries) == 1
        lam, part = js.entries[0]
        assert abs(complex(lam) - 1) < 1e-4
        assert tuple(part) == (4,)
