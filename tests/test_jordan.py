"""Jordan structure recovery: exact eigenvalues, partitions, chain bases."""

import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import ZZ
from sympy.polys.sqfreetools import dup_sqf_part

import congruence

from congruence.scalar import (GaussianRational, FieldMode, MODE_RATIONAL,
                               MODE_GAUSSIAN, MODE_GAUSSIAN_ID, MODE_REAL_FLOAT,
                               rational)
from congruence.matrix import Matrix, Poly, complexify, direct_sum, realify
from congruence.blocks import (STAR_AC, SIGNED_ROOT, SKEW_PAIR, BlockSum,
                               CanonicalBlock, block_sum_matrix, jordan_block,
                               frobenius_block)
from congruence.canon import canonicalize, random_congruence
from congruence import jordan
from congruence.jordan import (jordan_structure, generalized_eigenbasis,
                               eigenvalues, UnsplittablePolynomial, RootSpace,
                               chain_counts, preimage_chain, _distinct)
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

    def test_real_matrix_roots_in_the_gaussian_rationals(self):
        # a rational chi's roots sought in Q(i), with multiplicity: those of
        # the complexified matrix, with no complexification eliminated
        u = gr(rational(3, 5), rational(4, 5))
        A = realify(scrambled([jordan_block(2, u, MODE_GAUSSIAN),
                               jordan_block(1, gr(2), MODE_GAUSSIAN)],
                              MODE_GAUSSIAN, 4))
        got = eigenvalues(A, MODE_GAUSSIAN)
        assert got == eigenvalues(A.cast(MODE_GAUSSIAN))
        assert Counter(got) == Counter({u: 2, u.conj(): 2, gr(2): 2})


def with_roots(roots, mode):
    """A companion matrix whose characteristic polynomial is prod (x - r)."""
    chi = Poly([1], mode)
    for r in roots:
        chi = chi * Poly([-r, 1], mode)
    return frobenius_block(chi)


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
GAUSSIAN_MODES = [MODE_GAUSSIAN, MODE_GAUSSIAN_ID]


HIGH = GaussianRational(rational(1009, 997), rational(355, 113))


def refuse_factoring(*args):
    raise AssertionError("factored %r" % (args[0],))


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

    @pytest.mark.parametrize("mode, roots", [
        (mode, [gr(1), gr(-1), gr(0, 1), gr(rational(3, 5), rational(4, 5)),
                gr(2), gr(rational(1, 2))]) for mode in GAUSSIAN_MODES] + [
        # high height: the guesses still round to 1009/997 and 355/113
        (mode, [HIGH] * 3 + [gr(rational(-1009, 997))] * 2 + [HIGH.conj(),
                                                               gr(2)])
        for mode in GAUSSIAN_MODES] + [
        (MODE_RATIONAL, [rational(1009, 997)] * 3 + [rational(-355, 113), 2]),
        # large modulus: a tolerance relative to |z| would accept a simpler
        # wrong convergent of 123456.789 first
        (MODE_RATIONAL, [rational(123456789, 1000), rational(1, 3)])] + [
        (mode, [gr(rational(123456789, 1000), 7), gr(rational(1, 3), -2)])
        for mode in GAUSSIAN_MODES],
        ids=["small-conj", "small-id", "high-conj", "high-id", "high-rational",
             "large-rational", "large-conj", "large-id"])
    def test_split_spectrum_takes_no_factoring(self, mode, roots,
                                               monkeypatch):
        monkeypatch.setattr(jordan, "dup_factor_list", refuse_factoring)
        assert Counter(eigenvalues(with_roots(roots, mode))) == Counter(roots)

    @pytest.mark.parametrize("guess", ["none", "wrong"])
    @pytest.mark.parametrize("mode", GAUSSIAN_MODES + [MODE_RATIONAL])
    def test_factoring_tail_without_good_guesses(self, mode, guess,
                                                 monkeypatch):
        # only exact division accepts a root, so missing or wrong guesses
        # leave the roots to the factoring of what stays undivided
        guesses = jordan._guesses

        def patched(f, m):
            if guess == "none":
                return []
            return [x + rational(1, 7) for x in guesses(f, m)]

        monkeypatch.setattr(jordan, "_guesses", patched)
        roots = [rational(1), rational(-1), rational(1, 2), rational(1, 2),
                 rational(2, 3)]
        if mode != MODE_RATIONAL:
            roots = [gr(x) for x in roots] + [gr(rational(3, 5),
                                                 rational(4, 5))]
        assert Counter(eigenvalues(with_roots(roots, mode))) == Counter(roots)

    def test_overflowing_guesses_leave_the_roots_to_the_tail(self):
        # 10^400 is no float: the guesses for (x - 10^400)(3x - 1) overflow
        # and yield nothing
        big = rational(10) ** 400
        f = [3, -3 * 10 ** 400 - 1, 10 ** 400]
        assert jordan._guesses(f, MODE_RATIONAL) == []
        roots = [big, rational(1, 3)]
        got = eigenvalues(with_roots(roots, MODE_RATIONAL))
        assert Counter(got) == Counter(roots)

    def test_unsettled_approximations_still_give_guesses(self, monkeypatch):
        # chi's norm has degree 24 here, and Aberth's corrections stay at
        # the noise of evaluating it in doubles: the last approximations
        # still divide out 7 of the 12 roots, so less is left to factor
        units = [gr(rational(a, c), rational(b, c)) for a, b, c in
                 ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))]
        bs = BlockSum(STAR_AC, [
            CanonicalBlock(SIGNED_ROOT, 1, lam=u, eps=1) for u in units] + [
            CanonicalBlock(SKEW_PAIR, 1,
                           lam=gr(rational(j + 2, j + 1), rational(1, j + 3)))
            for j in range(4)])
        A, _ = random_congruence(block_sum_matrix(bs), 1)
        degrees = []
        factor_list = jordan.dup_factor_list
        monkeypatch.setattr(jordan, "dup_factor_list",
                            lambda f: degrees.append(len(f) - 1)
                            or factor_list(f))
        assert canonicalize(A, STAR_AC) == bs
        assert all(d < 24 for d in degrees)

    def test_non_finite_approximations_give_no_guess(self, monkeypatch):
        # a NaN would make the rounding's floor raise ValueError
        nan, inf = float("nan"), float("inf")
        monkeypatch.setattr(jordan, "_approximate_roots", lambda f: [
            (complex(nan, 0), nan), (complex(inf, 1), inf), (0.5 + 0j, 0.0)])
        f = [2, -3, 1]  # (2x - 1)(x - 1)
        assert jordan._guesses(f, MODE_RATIONAL) == [rational(1, 2)]


def times(f, g):
    """The product of integer polynomials (highest power first)."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@st.composite
def repeated_products(draw):
    """c x^z times a product of integer factors of degree 1 to 3 with
    coefficients up to 200 bits, each repeated 1 to 3 times."""
    big = 2 ** 200
    f = [draw(st.integers(1, 10 ** 6)) * draw(st.sampled_from([1, -1]))]
    f += [0] * draw(st.integers(0, 3))
    factors = st.lists(st.integers(-big, big), min_size=2, max_size=4)
    for g in draw(st.lists(factors.filter(lambda g: g[0]), min_size=1,
                           max_size=4)):
        for _ in range(draw(st.integers(1, 3))):
            f = times(f, g)
    return f


class TestSquarefreePart:
    @settings(max_examples=60, deadline=None)
    @given(f=repeated_products())
    @example(f=[-6, 0, 0])                                 # -6 x^2
    # the first point's candidate x - 1 divides f but not f'
    @example(f=[9, 12, -13, 17, -20, -5])
    @example(f=times([12], times([1, 0, -2], [1, 0, -2])))  # 12 (x^2 - 2)^2
    @example(f=times([-3 ** 120, 5, 2 ** 199, 7], [-3 ** 120, 5, 2 ** 199, 7]))
    def test_matches_sympy(self, f):
        assert jordan._squarefree_part(f) == dup_sqf_part(f, ZZ)

    @pytest.mark.parametrize("mode", GAUSSIAN_MODES + [MODE_RATIONAL])
    def test_failed_gcd_leaves_the_roots_to_the_tail(self, mode,
                                                     monkeypatch):
        # x + xi divides neither f nor f': xi exceeds twice a root bound
        points = []

        def never_divides(h, x):
            points.append(x)
            return [1, x]

        monkeypatch.setattr(jordan, "_interpolate", never_divides)
        roots = [rational(1, 2)] * 2 + [rational(-3)] * 3 + [rational(2, 3)]
        f = [1]
        for r in roots:
            f = times(f, [r.denominator, -r.numerator])
        assert jordan._squarefree_part(f) is None
        assert len(set(points)) == 6
        assert jordan._guesses(f, mode) == []
        if mode != MODE_RATIONAL:
            roots = [gr(x) for x in roots] + [gr(rational(3, 5),
                                                 rational(4, 5))] * 2
        assert Counter(eigenvalues(with_roots(roots, mode))) == Counter(roots)


def run_fresh(script):
    """Run script in a new interpreter that imports this congruence."""
    src = os.path.dirname(os.path.dirname(congruence.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


class TestSympyOnDemand:
    def test_canonical_forms_leave_sympy_unloaded(self):
        # each form's cosquare has a repeated eigenvalue, so the squarefree
        # part runs; the star-ac one's chi has non-real coefficients, whose
        # roots come from its Gaussian norm
        run_fresh("""
import sys
from fractions import Fraction
from congruence import canon, cli, jordan
from congruence.blocks import (CONGRUENCE_AC, CONGRUENCE_REAL, STAR_AC,
                               SIGNED_ROOT, SKEW_PAIR, BlockSum,
                               CanonicalBlock, block_sum_matrix)
from congruence.scalar import GaussianRational

calls = []
squarefree_part = jordan._squarefree_part
jordan._squarefree_part = lambda f: calls.append(f) or squarefree_part(f)
lam = GaussianRational(Fraction(3, 5), Fraction(4, 5))
forms = [
    BlockSum(STAR_AC, [CanonicalBlock(SIGNED_ROOT, 2, lam=lam, eps=-1),
                       CanonicalBlock(SIGNED_ROOT, 1, lam=lam, eps=1)]),
    BlockSum(CONGRUENCE_AC, [CanonicalBlock(SIGNED_ROOT, 3, lam=1),
                             CanonicalBlock(SIGNED_ROOT, 1, lam=1),
                             CanonicalBlock(SKEW_PAIR, 1, lam=2)]),
    BlockSum(CONGRUENCE_REAL, [CanonicalBlock(SIGNED_ROOT, 1, lam=1, eps=1),
                               CanonicalBlock(SIGNED_ROOT, 1, lam=1, eps=-1),
                               CanonicalBlock(SKEW_PAIR, 2, lam=2)]),
]
for bs in forms:
    A, _ = canon.random_congruence(block_sum_matrix(bs), 5)
    before = len(calls)
    assert canon.canonicalize(A, bs.cmode) == bs, bs.cmode
    assert len(calls) > before, bs.cmode
assert 'sympy' not in sys.modules
# numpy, which the float modes use, stays off the exact path too
assert 'numpy' not in sys.modules
""")

    def test_factoring_tail_loads_sympy_and_names_the_factor(self):
        run_fresh("""
import sys
from congruence.blocks import frobenius_block
from congruence.jordan import UnsplittablePolynomial, eigenvalues
from congruence.matrix import Poly
from congruence.scalar import MODE_RATIONAL

try:
    eigenvalues(frobenius_block(Poly([-2, 0, 1], MODE_RATIONAL)))
    sys.exit("x^2 - 2 split over the rationals")
except UnsplittablePolynomial as e:
    assert "x**2 - 2" in str(e), e
assert 'sympy' in sys.modules
""")


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
        (2, 1, (1,), 0, 0),     # a simple eigenvalue: no chain until chain()
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

    def test_simple_eigenvalue_builds_its_chain_at_basis(self, monkeypatch):
        A = scrambled([jordan_block(3, 1, MODE_RATIONAL),
                       jordan_block(1, 2, MODE_RATIONAL)], MODE_RATIONAL, 5)
        kernel = Matrix.right_kernel
        calls = []

        def counted(M):
            calls.append(1)
            return kernel(M)

        monkeypatch.setattr(Matrix, "right_kernel", counted)
        space = RootSpace(A, rational(2), 1)
        assert space.sizes == (1,) and not calls
        K = space.chain()[-1]
        assert len(calls) == 1
        assert K.cols == 1 and A * K == K.scale_left(rational(2))
        space.chain()
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_GAUSSIAN])
    def test_simple_non_eigenvalue_raises_at_basis(self, mode):
        A = scrambled([jordan_block(3, 1, mode), jordan_block(1, 2, mode)],
                      mode, 5)
        space = RootSpace(A, mode.promote(3), 1)
        assert space.sizes == (1,)
        with pytest.raises(ValueError, match="multiplicity 1"):
            space.chain()


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
            P = generalized_eigenbasis(A, lam)
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


def _pairwise_distinct(vals, mode):
    """The grouping _distinct's runs replaced: each value joins every
    earlier group whose value it equals at mode's tolerance."""
    out = []
    for v in vals:
        if not any(mode.eq(mode.promote(v), mode.promote(w)) for w, _ in out):
            out.append((v, 1))
        else:
            out = [(w, c + 1) if mode.eq(mode.promote(v), mode.promote(w))
                   else (w, c) for w, c in out]
    return out


class TestRunGrouping:
    def test_runs_are_the_pairwise_tolerance_groups(self):
        # eigenvalues() lists equal exact roots together (sorted) and
        # repeats each float cluster's mean, so runs are the pairwise
        # groups, also where a defective float eigenvalue scatters its
        # computed copies next to simple ones 1/500 or 1/1200 away
        rng = random.Random(27)
        for seed in range(20):
            mode = rng.choice([MODE_RATIONAL, MODE_GAUSSIAN])
            pool = ([gr(a, b) for a in range(-2, 3) for b in range(-1, 2)]
                    if mode == MODE_GAUSSIAN else range(-3, 4))
            blocks = [jordan_block(rng.randint(1, 3), lam, mode)
                      for lam in rng.sample(pool, rng.randint(1, 3))
                      for _ in range(rng.randint(1, 2))]
            A = scrambled(blocks, mode, seed)
            vals = eigenvalues(A)
            assert _distinct(vals) == _pairwise_distinct(vals, mode)
        fm = FieldMode("real-float", "identity", 1e-8)
        for seed in range(4):
            for d in (Fraction(1, 500), Fraction(1, 1200)):
                A = complexify(scrambled(
                    [jordan_block(3, 1, MODE_RATIONAL),
                     jordan_block(1, 1 + d, MODE_RATIONAL),
                     jordan_block(2, 2, MODE_RATIONAL),
                     jordan_block(1, 1 - d, MODE_RATIONAL)],
                    MODE_RATIONAL, seed).cast(fm))
                vals = eigenvalues(A)
                groups = _distinct(vals)
                assert [c for _, c in groups] == [1, 3, 1, 2]
                assert groups == _pairwise_distinct(vals, A.mode)


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
        # single-linkage clustering at the comparison tolerance, tolerance**0.4,
        # must merge them
        m = FieldMode("real-float", "identity", 1e-5)
        base = jordan_block(4, 1, MODE_RATIONAL)
        A = scrambled([base], MODE_RATIONAL, 21).cast(m)
        js = jordan_structure(A)
        assert len(js.entries) == 1
        lam, part = js.entries[0]
        assert abs(complex(lam) - 1) < 1e-4
        assert tuple(part) == (4,)
