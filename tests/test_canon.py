"""Regularization, representatives, sign extraction and classification."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from congruence import canon, matrix
from congruence import cosquare as cosquare_module
from congruence.scalar import (GaussianRational, FieldMode, MODE_RATIONAL,
                               MODE_GAUSSIAN, MODE_GAUSSIAN_ID, MODE_GF2,
                               MODE_QUAT_CONJ, MODE_COMPLEX_FLOAT, QUATERNION,
                               IDENTITY,
                               complex_mode, rational, scalar_key)
from congruence.matrix import Matrix, direct_sum, skew_sum
from congruence.blocks import (STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL,
                               SINGULAR_JORDAN, SKEW_PAIR, SIGNED_ROOT,
                               REAL_SIGNED_ROOT, REAL_SKEW_PAIR,
                               CanonicalBlock, BlockSum, block_sum_matrix,
                               field_mode_for, jordan_block)
from congruence.cosquare import (cosquare, star_root_jordan, plus_root,
                                 plus_realified_root)
from congruence.jordan import (RootSpace, jordan_structure, preimage_chain,
                               eigenvalues, _distinct)
from congruence.canon import (regularize, extract_signs, canonicalize, canonicalize_with_confidence,
                              are_equivalent, random_congruence,
                              CongruenceWitness, ClassificationError)
from test_acceptance import close_blocks, sample_blocks


def gr(a, b=0):
    return GaussianRational(a, b)


def scramble(K, seed):
    A, w = random_congruence(K, seed)
    assert w.verify()
    return A


def _column_complement(S, T):
    """The columns of T that extend the columns of S to a basis of their
    joint span: the pivot columns of [S | T] that fall in T."""
    k = S.cols
    piv = S.hstack(T).rref().pivots
    return T.submatrix(range(T.rows), [j - k for j in piv if j >= k])


class TestRegularize:
    @pytest.mark.parametrize("sizes", [(1,), (2,), (3, 1), (2, 2, 1)])
    def test_recovers_singular_blocks(self, sizes):
        parts = [jordan_block(m, 0, MODE_RATIONAL) for m in sizes]
        parts.append(Matrix([[1, 2], [0, 1]], MODE_RATIONAL))
        K = parts[0]
        for p in parts[1:]:
            K = direct_sum(K, p)
        A = scramble(K, hash(sizes) % 10 ** 6)
        reg = regularize(A)
        assert sorted(reg.singular_blocks, reverse=True) == \
            sorted(sizes, reverse=True)
        assert reg.core.rows == 2
        assert reg.witness.verify()

    def test_nonsingular_passthrough(self):
        A = Matrix([[0, 1], [2, 3]], MODE_RATIONAL)
        reg = regularize(A)
        assert reg.singular_blocks == []
        assert reg.core.rank() == 2

    def test_zero_matrix(self):
        A = Matrix.zeros(3, 3, MODE_RATIONAL)
        reg = regularize(A)
        assert sorted(reg.singular_blocks) == [1, 1, 1]
        assert reg.core.rows == 0

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL])
    def test_nonsingular_form_takes_no_exact_elimination(self, cmode,
                                                          monkeypatch):
        # the mod-p profile [] proves det A != 0, so A is its own core
        fm = field_mode_for(cmode)
        A = scramble(direct_sum(plus_root(1, 1, fm), jordan_block(3, 1, fm),
                                skew_sum(jordan_block(2, 2, fm),
                                         jordan_block(2, 2, fm))), 17)
        rref, kernel = Matrix.rref, canon._kernel_mod_p
        calls, eliminations = [], []

        def counting(*args, **kwargs):
            calls.append(1)
            return rref(*args, **kwargs)

        def counting_kernel(*args):
            eliminations.append(1)
            return kernel(*args)

        monkeypatch.setattr(Matrix, "rref", counting)
        monkeypatch.setattr(canon, "_kernel_mod_p", counting_kernel)
        reg = regularize(A)
        assert not calls
        # the image's kernel is empty after one elimination, ending the profile
        assert len(eliminations) == 1
        monkeypatch.undo()
        assert reg.singular_blocks == [] and reg.core == A
        assert reg.witness.verify() and reg.witness.rhs == A

    def test_singular_form_reads_the_mod_p_profile_once(self, monkeypatch):
        A = scramble(direct_sum(jordan_block(3, 0, MODE_GAUSSIAN),
                                jordan_block(1, 0, MODE_GAUSSIAN),
                                Matrix([[gr(2, 1)]], MODE_GAUSSIAN)), 23)
        profile, kernel = canon._profile_mod_p, canon._kernel_mod_p
        calls, eliminations = [], []

        def counting(M):
            calls.append(1)
            return profile(M)

        def counting_kernel(*args):
            eliminations.append(1)
            return kernel(*args)

        def exact_profile(*args):
            raise AssertionError("exact singular_profile computed")

        monkeypatch.setattr(canon, "_profile_mod_p", counting)
        monkeypatch.setattr(canon, "_kernel_mod_p", counting_kernel)
        monkeypatch.setattr(canon, "singular_profile", exact_profile)
        assert regularize(A).singular_blocks == [3, 1]
        assert len(calls) == 1
        # each chain takes one kernel for its first step and two for each
        # step after; both stall at their third step: 2 (1 + 2 + 2)
        assert len(eliminations) == 10


    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL])
    def test_products_do_not_grow_with_the_chain_count(self, cmode,
                                                        monkeypatch):
        # every chain pairing is one product, whatever the number of chains
        fm = field_mode_for(cmode)
        mul = Matrix.__mul__
        calls = []

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        counts = []
        for k in (2, 4):
            A = scramble(direct_sum(*[jordan_block(2, 0, fm)] * k), 40 + k)
            monkeypatch.setattr(Matrix, "__mul__", counting)
            del calls[:]
            reg = regularize(A)
            counts.append(len(calls))
            monkeypatch.setattr(Matrix, "__mul__", mul)
            assert reg.singular_blocks == [2] * k
            assert reg.witness.verify()
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL])
    def test_eliminations_do_not_grow_with_the_chain_count(self, cmode,
                                                            monkeypatch):
        # scrambled J_2^k takes every chain lift from the homogeneous
        # solutions: one elimination, whatever the number of chains (rank
        # reads rref too)
        fm = field_mode_for(cmode)
        rref = Matrix.rref
        calls = []

        def counting(a, limit=None):
            calls.append(1)
            return rref(a, limit)

        counts = []
        for k in (2, 4, 8):
            A = scramble(direct_sum(*[jordan_block(2, 0, fm)] * k), k)
            monkeypatch.setattr(Matrix, "rref", counting)
            del calls[:]
            reg = regularize(A)
            counts.append(len(calls))
            monkeypatch.setattr(Matrix, "rref", rref)
            assert reg.singular_blocks == [2] * k
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL])
    def test_kernel_line_without_a_chain_reduces_the_lifts_once(self, cmode,
                                                                monkeypatch):
        # J_2 + [1]: the kernel line carries no chain (nlive = 0 < nch = 1),
        # so its lift comes from H = ker (A X)*, read off the elimination of
        # [(A X)* | -R].  Seven eliminations: A, K* A and A* K (which give
        # ker A, W, V0 and K's complement of V0), the core's kernel, the
        # lifts, [G | K* A H] and G^-1 (an eighth reduced (A X)* again for H)
        fm = field_mode_for(cmode)
        A = scramble(direct_sum(jordan_block(2, 0, fm),
                                Matrix.identity(1, fm)), 3)
        rref = Matrix.rref
        calls = []

        def counting(a, limit=None):
            calls.append(1)
            return rref(a, limit)

        monkeypatch.setattr(Matrix, "rref", counting)
        X, lengths = canon._reg_rec(A)
        monkeypatch.setattr(Matrix, "rref", rref)
        assert lengths == [2] and len(calls) == 7
        D = X.conj_transpose() * A * X
        assert D == direct_sum(D.submatrix([0], [0]), jordan_block(2, 0, fm))

    @pytest.mark.parametrize("cmode, tolerance", [
        pytest.param(cmode, tolerance, id=cmode + ("-%g" % tolerance
                                                   if tolerance else ""))
        for tolerance in (None, 1e-8)
        for cmode in (STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL)])
    def test_two_sided_kernel_and_complements_take_no_extra_elimination(
            self, cmode, tolerance, monkeypatch):
        # J_1 + J_2 + [1], exact and cast to floats: V0, K's complement of
        # V0 and W are read off the eliminations of A, K* A and A* K, so no
        # [A; A*] is reduced and no column complement is taken
        fm = field_mode_for(cmode)
        A = scramble(direct_sum(jordan_block(1, 0, fm), jordan_block(2, 0, fm),
                                Matrix.identity(1, fm)), 11)
        if tolerance is not None:
            fm = field_mode_for(cmode, floating=True)
            fm = FieldMode(fm.base, fm.involution, tolerance)
            A = A.cast(fm)
        rref = Matrix.rref
        rows = []

        def recording(a, limit=None):
            rows.append(a.rows)
            return rref(a, limit)

        assert not hasattr(canon, "column_complement")
        monkeypatch.setattr(Matrix, "rref", recording)
        X, lengths = canon._reg_rec(A)
        monkeypatch.undo()
        assert lengths == [2, 1] and max(rows) <= A.rows
        D = X.conj_transpose() * A * X
        assert D == direct_sum(D.submatrix([0], [0]), jordan_block(2, 0, fm),
                               jordan_block(1, 0, fm))

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL])
    def test_level_bases_match_the_stacked_and_complement_formulas(self,
                                                                    cmode):
        # oracle: the formulas the reads replace, on random singular forms
        # (low-rank products, and scrambled nilpotent sums with J_1's)
        fm = field_mode_for(cmode)
        rng = random.Random(2006)

        def entry():
            re = rng.randint(-2, 2)
            if cmode == CONGRUENCE_REAL:
                return re
            return gr(re, rng.randint(-2, 2))

        with_v0 = with_w = 0
        for t in range(40):
            n = rng.randint(1, 7)
            if t % 2:
                r = rng.randint(0, n - 1)
                B = Matrix([[entry() for _ in range(r)] for _ in range(n)], fm,
                           shape=(n, r))
                C = Matrix([[entry() for _ in range(n)] for _ in range(r)], fm,
                           shape=(r, n))
                A = B * C
            else:
                sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
                A = scramble(direct_sum(*[jordan_block(m, 0, fm)
                                          for m in sizes]), t)
            K, KA, W, V0 = canon._level_bases(A)
            ker = A.right_kernel()
            assert V0 == A.vstack(A.conj_transpose()).right_kernel()
            assert K == _column_complement(V0, ker)
            assert KA == K.conj_transpose() * A
            assert W == _column_complement(
                ker, (ker.conj_transpose() * A).right_kernel())
            with_v0 += V0.cols > 0
            with_w += W.cols > 0
        assert with_v0 >= 10 and with_w >= 10

    def test_basis_entries_stay_bounded_on_a_nilpotent_sum(self):
        # growth guard: J_1^2 + J_2^2 + J_3^2 + J_4^2 (n = 20, star-ac); T's
        # entries are bounded at the bit lengths this regularization gives
        fm = field_mode_for(STAR_AC)
        sizes = [4, 4, 3, 3, 2, 2, 1, 1]
        A = scramble(direct_sum(*[jordan_block(m, 0, fm)
                                  for m in reversed(sizes)]), 12345)
        reg = regularize(A)
        assert reg.singular_blocks == sizes and reg.witness.verify()
        parts = [q for row in reg.witness.S.a for x in row for q in (x.re, x.im)]
        assert max(abs(q.numerator).bit_length() for q in parts) <= 167
        assert max(q.denominator.bit_length() for q in parts) <= 168

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL])
    def test_all_nilpotent_sizes_twice_plus_a_root(self, cmode):
        fm = field_mode_for(cmode)
        sizes = [4, 4, 3, 3, 2, 2, 1, 1]
        root = CanonicalBlock(SIGNED_ROOT, 1, lam=rational(1),
                              eps=None if cmode == CONGRUENCE_AC else 1)
        want = BlockSum(cmode, [CanonicalBlock(SINGULAR_JORDAN, m)
                                for m in sizes] + [root])
        A = scramble(block_sum_matrix(want), 2006)
        assert A.rows == 21 and A.mode == fm
        reg = regularize(A)
        assert reg.singular_blocks == sizes
        assert reg.core.rows == 1
        assert reg.witness.verify()
        assert canonicalize(A, cmode) == want

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL])
    def test_checks_take_one_product_pair_and_no_determinant(self, cmode,
                                                             monkeypatch):
        # T* A T is formed once and holds the core; T's and the core's
        # nonsingularity are proved without an exact determinant, and the
        # sizes are checked mod p, so the exact chains never run
        fm = field_mode_for(cmode)
        A = scramble(direct_sum(*[jordan_block(m, 0, fm)
                                  for m in (4, 3, 2, 1)]), 31)

        def refuse(*args):
            raise AssertionError("determinant computed")

        mul = Matrix.__mul__
        calls = []

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        def products(fn):
            del calls[:]
            fn(A)
            return len(calls)

        def exact_profile(*args):
            raise AssertionError("exact singular_profile computed")

        monkeypatch.setattr(Matrix, "det", refuse)
        monkeypatch.setattr(Matrix, "__mul__", counting)
        monkeypatch.setattr(canon, "singular_profile", exact_profile)
        assert products(regularize) == products(canon._reg_rec) + 2

    @pytest.mark.parametrize("entry", [matrix._P, Fraction(1, matrix._P)])
    def test_exact_profile_arbitrates_a_bad_image(self, entry, monkeypatch):
        # diag(p, 0) has the image profile [1, 1] and diag(1/p, 0) none;
        # the exact chains then run once and confirm the sizes [1]
        exact = canon.singular_profile
        calls = []

        def counting(A):
            calls.append(1)
            return exact(A)

        A = Matrix([[entry, 0], [0, 0]], MODE_RATIONAL)
        assert canon._profile_mod_p(A) == ([1, 1] if entry == matrix._P
                                           else None)
        monkeypatch.setattr(canon, "singular_profile", counting)
        reg = regularize(A)
        assert reg.singular_blocks == [1]
        assert reg.core == Matrix([[entry]], MODE_RATIONAL)
        assert len(calls) == 1

    def test_singular_core_is_refused(self, monkeypatch):
        # a basis that leaves J_2(0) in the core passes the block-form and
        # basis checks; only the core certificate catches it
        A = scramble(direct_sum(jordan_block(2, 0, MODE_RATIONAL),
                                Matrix([[1]], MODE_RATIONAL)), 5)
        monkeypatch.setattr(canon, "_reg_rec", lambda A: (
            Matrix.identity(A.rows, A.mode), []))
        with pytest.raises(ClassificationError, match="singular core"):
            regularize(A)

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL])
    def test_length_two_chain_takes_a_homogeneous_lift(self, cmode):
        # a J_2 has no chain to carry, so its lift is a solution of the
        # homogeneous system, picked where it raises the pairing's rank
        fm = field_mode_for(cmode)
        K = direct_sum(jordan_block(3, 0, fm), jordan_block(2, 0, fm),
                       Matrix.identity(1, fm))
        reg = regularize(scramble(K, 7))
        assert reg.singular_blocks == [3, 2]
        assert reg.witness.verify()

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL])
    def test_two_sided_kernel_takes_no_level_of_its_own(self, cmode,
                                                         monkeypatch):
        # the J_1 is split off inside the level that finds the J_2's kernel
        # line, so the recursion sees the full form and then the core only
        fm = field_mode_for(cmode)
        K = direct_sum(jordan_block(1, 0, fm), jordan_block(2, 0, fm),
                       Matrix.identity(1, fm))
        rec = canon._reg_rec
        sizes = []

        def counting(A):
            sizes.append(A.rows)
            return rec(A)

        monkeypatch.setattr(canon, "_reg_rec", counting)
        reg = regularize(scramble(K, 11))
        assert sizes == [4, 1]
        assert reg.singular_blocks == [2, 1]
        assert reg.witness.verify()

    @pytest.mark.parametrize("tolerance", [1e-6, 1e-8])
    def test_float_two_sided_kernels_keep_the_block_form(self, tolerance):
        # the float sample's J_3(0) + J_3(0) + a signed J_3(1) root: the
        # middles of the J_3(0)'s are a two-sided kernel one level down, and
        # the basis stays well enough scaled for the block form to hold at
        # the working tolerance
        bs = sample_blocks(CONGRUENCE_REAL, random.Random(72041), maxtotal=10)
        A = scramble(block_sum_matrix(bs), 79041)
        fm = field_mode_for(CONGRUENCE_REAL, floating=True)
        fm = FieldMode(fm.base, fm.involution, tolerance)
        assert close_blocks(canonicalize(A.cast(fm), CONGRUENCE_REAL), bs)


def _model_dims(lengths):
    """The subspace-chain dimensions singular_profile reads for a
    singular part with these chain lengths: dim M_j and dim (M_j meet P_j)."""
    halves = [(m + 1) // 2 for m in lengths]
    top = max(halves, default=0)
    dims = [sum(min(j, h) for h in halves) for j in range(top + 1)]
    inter = [sum(max(0, 2 * min(j, (m + 1) // 2) - (m + 1) // 2)
                 for m in lengths if m % 2) for j in range(1, top + 1)]
    return dims, inter


def _enumerated_sizes(dims, inter):
    """Chain sizes by searching every odd/even split of each half-length
    class for the one that matches all the intersection dimensions."""
    w = [b - a for a, b in zip(dims, dims[1:])] + [0]
    counts = {t: w[t - 1] - w[t] for t in range(1, len(w))}
    ts = [t for t in sorted(counts) if counts[t] > 0]
    for combo in itertools.product(*[range(counts[t] + 1) for t in ts]):
        if all(sum(o * max(0, 2 * min(j, h) - h) for o, h in zip(combo, ts))
               == inter[j - 1] for j in range(1, len(inter) + 1)):
            sizes = []
            for o, t in zip(combo, ts):
                sizes += [2 * t - 1] * o + [2 * t] * (counts[t] - o)
            return sorted(sizes, reverse=True)
    return None


def _length_multisets(largest, total):
    if total == 0 or largest == 0:
        yield []
        return
    for m in range(min(largest, total), 0, -1):
        for rest in _length_multisets(m, total - m):
            yield [m] + rest
    yield []


class TestChainOrder:
    """_reg_rec returns its chains longest first, so regularize reads the
    sizes and the basis as they come."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC,
                                       CONGRUENCE_REAL])
    def test_scrambled_nilpotent_sums(self, cmode, k):
        bs = BlockSum(cmode, [CanonicalBlock(SINGULAR_JORDAN, m)
                              for m in (1, 2, 3, 4) for _ in range(k)])
        A = scramble(block_sum_matrix(bs), 31 + k)
        assert canon._reg_rec(A)[1] == [m for m in (4, 3, 2, 1)
                                        for _ in range(k)]

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC,
                                       CONGRUENCE_REAL])
    def test_random_singular_sums(self, cmode):
        checked = 0
        for t in range(60):
            bs = sample_blocks(cmode, random.Random(4100 + t), maxtotal=10)
            sizes = sorted((b.n for b in bs.blocks
                            if b.kind == SINGULAR_JORDAN), reverse=True)
            if sizes:
                A = scramble(block_sum_matrix(bs), 4200 + t)
                assert canon._reg_rec(A)[1] == sizes, (cmode, t)
                checked += 1
        assert checked >= 15


class TestSingularProfile:
    def test_solve_matches_the_enumeration(self):
        seen = 0
        for lengths in _length_multisets(8, 16):
            dims, inter = _model_dims(lengths)
            want = sorted(lengths, reverse=True)
            assert _enumerated_sizes(dims, inter) == want
            assert canon._profile_sizes(dims, inter) == want
            seen += 1
            # one intersection off by one: both agree, or both find nothing
            for j in range(len(inter)):
                for step in (-1, 1):
                    bad = inter[:j] + [inter[j] + step] + inter[j + 1:]
                    old = _enumerated_sizes(dims, bad)
                    if old is None:
                        with pytest.raises(ClassificationError):
                            canon._profile_sizes(dims, bad)
                    else:
                        assert canon._profile_sizes(dims, bad) == old
        assert seen == 795  # partitions of 0..16 into parts <= 8

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL])
    def test_pencil_chains_match_the_preimage_recursion(self, cmode):
        # the oracle takes each step by hand: {x : A x in span V} is the
        # kernel of (V^perp)^* A, and ker A while V is empty
        def preimage(A, V):
            if V.cols == 0:
                return A.right_kernel()
            perp = V.conj_transpose().right_kernel()
            return (perp.conj_transpose() * A).right_kernel()

        fm = field_mode_for(cmode)
        K = direct_sum(*[jordan_block(m, 0, fm) for m in (4, 3, 2, 1, 1)],
                       Matrix.identity(2, fm))
        A = scramble(K, 23)
        As = A.conj_transpose()
        for S, T in ((As, A), (A, As)):
            M = Matrix.zeros(A.rows, 0, fm)
            for j, got in zip(range(4), preimage_chain(T, S)):
                M = preimage(T, S * M)
                assert got == M, j
            assert M.cols == 7  # (m + 1) // 2 per nilpotent block

    @given(st.sampled_from([STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL]),
           st.lists(st.integers(1, 4), min_size=1, max_size=5),
           st.integers(0, 2), st.sampled_from([1, -1, 2]),
           st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_mod_p_profile_matches_the_exact_one(self, cmode, sizes, k, lam,
                                                 seed):
        # nilpotent blocks plus a nonsingular J_k(lam), scrambled
        fm = field_mode_for(cmode)
        parts = [jordan_block(m, 0, fm) for m in sizes]
        if k:
            parts.append(jordan_block(k, lam, fm))
        A = scramble(direct_sum(*parts), seed)
        assert (canon._profile_mod_p(A) == canon.singular_profile(A)
                == sorted(sizes, reverse=True))

    def test_matches_regularize(self):
        K = direct_sum(jordan_block(4, 0, MODE_GAUSSIAN),
                       jordan_block(3, 0, MODE_GAUSSIAN),
                       jordan_block(1, 0, MODE_GAUSSIAN),
                       Matrix.identity(2, MODE_GAUSSIAN))
        assert canon.singular_profile(scramble(K, 11)) == [4, 3, 1]


class TestWitness:
    def test_verify_checks_the_identity(self):
        A = Matrix([[1, 0], [0, -1]], MODE_RATIONAL)
        S = Matrix([[1, 1], [0, 1]], MODE_RATIONAL)
        B = S.conj_transpose() * A * S
        assert CongruenceWitness(S, A, B).verify()
        assert not CongruenceWitness(S, A, A).verify()

    def test_rejects_singular_witness(self):
        A = Matrix([[1]], MODE_RATIONAL)
        S = Matrix([[0]], MODE_RATIONAL)
        assert not CongruenceWitness(S, A, Matrix([[0]], MODE_RATIONAL)).verify()


class TestOrbit:
    def test_star(self):
        lam = gr(2, 1)
        assert canon._orbit(lam, STAR_AC, MODE_GAUSSIAN) == [
            lam, gr(rational(2, 5), rational(1, 5))]
        u = gr(rational(3, 5), rational(4, 5))
        assert canon._orbit(u, STAR_AC, MODE_GAUSSIAN) == [u]

    def test_congruence_ac(self):
        fm = MODE_GAUSSIAN_ID
        assert canon._orbit(gr(0, 2), CONGRUENCE_AC, fm) == [
            gr(0, 2), gr(0, rational(-1, 2))]
        assert canon._orbit(gr(1), CONGRUENCE_AC, fm) == [gr(1)]
        assert canon._orbit(gr(-1), CONGRUENCE_AC, fm) == [gr(-1)]

    def test_congruence_real(self):
        g = MODE_GAUSSIAN
        assert canon._orbit(gr(3), CONGRUENCE_REAL, g) == [
            gr(3), gr(rational(1, 3))]
        u = gr(rational(3, 5), rational(-4, 5))
        assert canon._orbit(u, CONGRUENCE_REAL, g) == [u, u.conj()]
        half = rational(1, 2)
        assert canon._orbit(gr(1, 1), CONGRUENCE_REAL, g) == [
            gr(1, 1), gr(1, -1), gr(half, -half), gr(half, half)]

    def test_star_picks_outside_unit_circle(self):
        orbit = canon._orbit(gr(rational(1, 2)), STAR_AC, MODE_GAUSSIAN)
        assert canon._representative(orbit, MODE_GAUSSIAN) == gr(2)

    def test_real_real_orbit(self):
        orbit = canon._orbit(gr(rational(1, 3)), CONGRUENCE_REAL,
                             MODE_GAUSSIAN)
        assert canon._representative(orbit, MODE_GAUSSIAN) == gr(3)

    def test_real_complex_orbit(self):
        orbit = canon._orbit(gr(rational(1, 2), -2), CONGRUENCE_REAL,
                             MODE_GAUSSIAN)
        assert canon._representative(orbit, MODE_GAUSSIAN) == gr(
            rational(1, 2), 2)

    @pytest.mark.parametrize("lam", [gr(0, -1),
                                     gr(rational(3, 5), rational(-4, 5))])
    def test_ac_unimodular_pair_representative(self, lam):
        # lam and 1/lam tie in |x|^2 and re, so the larger im wins
        orbit = canon._orbit(lam, CONGRUENCE_AC, MODE_GAUSSIAN_ID)
        assert canon._representative(orbit, MODE_GAUSSIAN_ID) == lam.conj()

    def test_representative_is_largest_by_modulus_then_re_then_im(self):
        orbit = canon._orbit(gr(rational(1, 2), rational(-1, 2)),
                             CONGRUENCE_REAL, MODE_GAUSSIAN)
        assert canon._representative(orbit, MODE_GAUSSIAN) == gr(1, 1)

    def test_unpaired_error_names_the_eigenvalue(self, monkeypatch):
        orbit = canon._orbit
        monkeypatch.setattr(canon, "_orbit", lambda lam, cmode, g:
                            orbit(lam, cmode, g) + [g.promote(7)])
        A = Matrix([[gr(2)]], MODE_GAUSSIAN)
        with pytest.raises(ClassificationError,
                           match="^unpaired eigenvalue 1$"):
            canonicalize(A, STAR_AC)


SIGNED_LAMS = [gr(1), gr(-1), gr(0, 1), gr(0, -1),
               gr(rational(3, 5), rational(4, 5)),
               gr(rational(5, 13), rational(-12, 13))]


def _plus_top_form_signs(n, lam, fm, realified, eps):
    """The top-form sign counts of the eps block of size n."""
    if realified:
        g = complex_mode(fm)
        R, lam = plus_realified_root(n, lam, fm).cast(g), g.promote(lam)
    else:
        R, lam = plus_root(n, lam, fm), fm.promote(lam)
    R = R if eps == 1 else -R
    return canon._top_form_signs(R, RootSpace(cosquare(R), lam, n), [n])


class TestExtractSigns:
    @pytest.mark.parametrize("tol", [None, 1e-8])
    @pytest.mark.parametrize("setting", ["star", "sym", "realified"])
    def test_top_form_signs(self, setting, tol):
        # the + root reads d_n = +1 and its negative -1, at every size and lam
        fm = field_mode_for(STAR_AC if setting == "star" else CONGRUENCE_REAL,
                            floating=tol is not None)
        if tol is not None:
            fm = FieldMode(fm.base, fm.involution, tol)
        nmax = 8 if tol is None else 5
        if setting == "sym":
            cases = [(n, (-1) ** (n + 1)) for n in range(1, nmax + 1)]
        else:
            lams = SIGNED_LAMS if setting == "star" else SIGNED_LAMS[2:]
            cases = [(n, lam if tol is None else complex(lam))
                     for lam in lams for n in range(1, nmax + 1)]
        for n, lam in cases:
            for eps in (1, -1):
                got = _plus_top_form_signs(n, lam, fm, setting == "realified",
                                           eps)
                assert got == {n: eps}, (n, lam, eps)

    def test_reads_back_constructed_signs(self):
        lam = gr(rational(3, 5), rational(4, 5))
        want = [(2, 1), (1, -1), (1, -1)]
        C = None
        for n, e in want:
            R = plus_root(n, lam, MODE_GAUSSIAN)
            if e < 0:
                R = R.scale_left(gr(-1))
            C = R if C is None else direct_sum(C, R)
        C = scramble(C, 42)
        got = extract_signs(C, RootSpace(cosquare(C), lam, 4), [2, 1, 1],
                            STAR_AC)
        assert sorted(got) == sorted(want)

    def test_realified_signs(self):
        lam = gr(rational(3, 5), rational(4, 5))
        R = plus_realified_root(2, lam, MODE_RATIONAL)
        C = scramble(R, 5)
        space = RootSpace(cosquare(C).cast(complex_mode(C.mode)), lam, 2)
        assert extract_signs(C, space, [2], CONGRUENCE_REAL) == [(2, 1)]

    @pytest.mark.parametrize("tol", [None, 1e-8])
    @pytest.mark.parametrize("lam", [1, -1])
    def test_real_signs_beside_rootless_pairs(self, lam, tol):
        # several root sizes of both signs and the sizes at lam with no
        # cosquare root (skew pairs) share one root space at lam = +-1
        if lam == 1:
            roots, pairs = [(3, 1), (3, -1), (1, -1), (1, -1)], [2]
        else:
            roots, pairs = [(4, -1), (2, 1), (2, 1), (2, -1)], [3, 1]
        bs = BlockSum(CONGRUENCE_REAL,
                      [CanonicalBlock(SIGNED_ROOT, n, lam=rational(lam), eps=e)
                       for n, e in roots]
                      + [CanonicalBlock(SKEW_PAIR, n, lam=rational(lam))
                         for n in pairs]
                      + [CanonicalBlock(SKEW_PAIR, 1, lam=rational(2))])
        C = scramble(block_sum_matrix(bs), 17)
        mult = sum(n for n, _ in roots) + 2 * sum(pairs)
        if tol is not None:
            fm = field_mode_for(CONGRUENCE_REAL, floating=True)
            C = C.cast(FieldMode(fm.base, fm.involution, tol))
        space = RootSpace(cosquare(C), C.mode.promote(lam), mult)
        got = extract_signs(C, space, [n for n, _ in roots], CONGRUENCE_REAL)
        assert sorted(got) == sorted(roots)

    def test_chain_form_check_raises(self):
        # i R has the cosquare -Phi, so R's chain basis breaks H = H* J
        lam = gr(rational(3, 5), rational(4, 5))
        R = plus_root(2, lam, MODE_GAUSSIAN)
        space = RootSpace(cosquare(R), lam, 2)
        with pytest.raises(ClassificationError) as err:
            extract_signs(R.scale_left(gr(0, 1)), space, [2], STAR_AC)
        assert str(err.value) == ("signs at eigenvalue %s, sizes [2]: the "
                                  "chain form H is not H* J" % (lam,))

    @pytest.mark.parametrize("pos, neg", [(0, 0), (1, 1)])
    def test_sign_errors_name_the_eigenvalue_and_size(self, pos, neg,
                                                      monkeypatch):
        # one chain of size 1, so the top form must have rank 1
        lam = gr(rational(3, 5), rational(4, 5))
        R = plus_root(1, lam, MODE_GAUSSIAN)
        space = RootSpace(cosquare(R), lam, 1)
        monkeypatch.setattr(canon, "_inertia", lambda G: (pos, neg))
        with pytest.raises(ClassificationError) as err:
            extract_signs(R, space, [1], STAR_AC)
        assert str(err.value) == ("signs at eigenvalue %s, size 1: the top "
                                  "form has rank %d, not 1" % (lam, pos + neg))

    def test_size_mismatch_raises(self):
        R = plus_root(1, gr(1), MODE_GAUSSIAN)
        with pytest.raises(ValueError):
            extract_signs(R, RootSpace(cosquare(R), gr(1), 1), [2], STAR_AC)

    def test_zero_parameter_raises_value_error(self):
        # zero has no modulus: the root test must answer, not divide by it
        Z = Matrix([[gr(0)]], MODE_GAUSSIAN)
        space = RootSpace(Z, gr(0), 1)
        with pytest.raises(ValueError):
            extract_signs(Matrix([[gr(1)]], MODE_GAUSSIAN), space, [1],
                          STAR_AC)


class TestColdReferenceCache:
    def test_canonicalize_builds_no_reference_root(self, monkeypatch):
        u = gr(rational(3, 5), rational(4, 5))
        forms = [
            BlockSum(STAR_AC, [
                CanonicalBlock(SIGNED_ROOT, 2, lam=u, eps=-1),
                CanonicalBlock(SIGNED_ROOT, 1, lam=gr(1), eps=1),
                CanonicalBlock(SIGNED_ROOT, 1, lam=gr(0, -1), eps=-1)]),
            BlockSum(CONGRUENCE_REAL, [
                CanonicalBlock(SIGNED_ROOT, 3, lam=rational(1), eps=-1),
                CanonicalBlock(SIGNED_ROOT, 1, lam=rational(1), eps=1),
                CanonicalBlock(SIGNED_ROOT, 2, lam=rational(-1), eps=1),
                CanonicalBlock(REAL_SIGNED_ROOT, 1, lam=u, eps=-1)])]
        mats = [scramble(block_sum_matrix(bs), 9) for bs in forms]
        calls = []

        def counted_root(*args):
            calls.append(args)
            return star_root_jordan(*args)

        monkeypatch.setattr(canon, "_REF_CACHE", {})
        monkeypatch.setattr("congruence.cosquare.star_root_jordan",
                            counted_root)
        for bs, A in zip(forms, mats):
            assert canonicalize(A, bs.cmode) == bs
        assert canon._REF_CACHE == {}
        assert calls == []

    def test_one_sign_read_per_reference_root(self, monkeypatch):
        # each reference root builds one raw root and reads its sign off one
        # entry: no cosquare, root space or extract_signs
        calls = []

        def counted_root(*args):
            calls.append(args)
            return star_root_jordan(*args)

        def refused(*args):
            raise AssertionError("sign read through a root space")

        monkeypatch.setattr("congruence.cosquare.star_root_jordan",
                            counted_root)
        for name in ("extract_signs", "RootSpace"):
            monkeypatch.setattr(canon, name, refused)
        u = gr(rational(3, 5), rational(4, 5))
        plus_root(3, u, MODE_GAUSSIAN)
        assert len(calls) == 1
        plus_realified_root(2, u, MODE_RATIONAL)
        assert len(calls) == 2
        plus_root(2, rational(-1), MODE_RATIONAL)
        assert len(calls) == 3

    @pytest.mark.parametrize("setting", ["star", "sym", "realified"])
    def test_one_entry_rule_matches_extract_signs(self, setting):
        # the + root is the raw root, negated by the one-entry rule; the
        # kernel-chain sign read of the same raw root decides the same:
        # n = 1-6 at six lam under conjugation, lam = (-1)^(n+1) under the
        # identity, and realified roots at n = 1-5 for three lam
        if setting == "star":
            fm, cmode = MODE_GAUSSIAN, STAR_AC
            cases = [(n, lam) for lam in SIGNED_LAMS[:4] + [
                gr(rational(3, 5), rational(4, 5)),
                gr(rational(-5, 13), rational(12, 13))]
                for n in range(1, 7)]
        elif setting == "sym":
            fm, cmode = MODE_RATIONAL, CONGRUENCE_REAL
            cases = [(n, rational((-1) ** (n + 1))) for n in range(1, 7)]
        else:
            fm, cmode = MODE_RATIONAL, CONGRUENCE_REAL
            cases = [(n, lam) for lam in (
                gr(0, 1), gr(rational(3, 5), rational(4, 5)),
                gr(rational(-5, 13), rational(12, 13))) for n in range(1, 6)]
        g = complex_mode(fm) if setting == "realified" else fm
        for n, lam in cases:
            lam = g.promote(lam)
            raw = cosquare_module._raw_root(n, lam, g)
            if setting == "realified":
                raw = matrix.realify(raw).cast(fm)
                plus = plus_realified_root(n, lam, fm)
            else:
                plus = plus_root(n, lam, fm)
            space = RootSpace(cosquare(raw.cast(g)), lam, n)
            ((_, sign),) = extract_signs(raw, space, [n], cmode)
            assert plus == (raw if sign == 1 else -raw), (n, lam)


class TestOneChainPerEigenvalue:
    def test_one_cosquare_and_one_root_space_each(self, monkeypatch):
        u = gr(rational(3, 5), rational(4, 5))
        bs = BlockSum(STAR_AC, [
            CanonicalBlock(SIGNED_ROOT, 2, lam=gr(1), eps=1),
            CanonicalBlock(SIGNED_ROOT, 1, lam=gr(1), eps=-1),
            CanonicalBlock(SIGNED_ROOT, 2, lam=u, eps=-1),
            CanonicalBlock(SKEW_PAIR, 1, lam=gr(2))])
        A = scramble(block_sum_matrix(bs), 3)
        counts = {"cosquare": 0}
        lams = []

        def counted_cosquare(M):
            counts["cosquare"] += 1
            return cosquare(M)

        def counted_space(M, lam, mult, pencil):
            # the chain runs on the core's pencil (C, C*), of cosquare M
            C, Cs = pencil
            assert Cs == C.conj_transpose() and Cs * M == C
            lams.append(lam)
            return RootSpace(M, lam, mult, pencil)

        monkeypatch.setattr(canon, "cosquare", counted_cosquare)
        monkeypatch.setattr(canon, "RootSpace", counted_space)
        assert canonicalize(A, STAR_AC) == bs
        assert counts["cosquare"] == 1
        # 1, u and the skew pair's 2 and 1/2: one RootSpace each, and at
        # most one kernel chain (a simple eigenvalue's only once read)
        assert sorted(lams, key=lambda x: (x.re, x.im)) == [
            gr(rational(1, 2)), gr(rational(3, 5), rational(4, 5)), gr(1),
            gr(2)]


def _height(M):
    """The largest bit length of a numerator or denominator of M's entries
    (real and imaginary parts apart)."""
    def bits(x):
        if isinstance(x, GaussianRational):
            return max(bits(x.re), bits(x.im))
        x = Fraction(x)
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return max((bits(x) for row in M.a for x in row), default=0)


def _semisimple_star_form(lams, skew):
    """A regular star-ac BlockSum: a + and a - root of size 1 at each
    unimodular lam, and a size-1 skew pair at each of skew."""
    return BlockSum(STAR_AC, [
        CanonicalBlock(SIGNED_ROOT, 1, lam=lam, eps=e)
        for lam in lams for e in (1, -1)]
        + [CanonicalBlock(SKEW_PAIR, 1, lam=mu) for mu in skew])


PYTHAGOREAN = [gr(rational(a, c), rational(b, c))
               for a, b, c in ((3, 4, 5), (5, 12, 13), (8, 15, 17),
                               (7, 24, 25))]


class TestPencilChain:
    """The root-space chain runs on the pencil C - lam C*, and its kernels
    are those of (Phi - lam)^k, bit for bit."""

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC,
                                       CONGRUENCE_REAL])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_kernels_are_the_cosquare_chain(self, cmode, data):
        # the oracle is the preimage chain of Phi - lam itself; a real lam
        # of a congruence-real form is read on the real pencil as well
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        blocks = [b for b in sample_blocks(cmode, rng, maxtotal=8).blocks
                  if b.kind != SINGULAR_JORDAN]
        assume(blocks)
        C = scramble(block_sum_matrix(BlockSum(cmode, blocks)),
                     data.draw(st.integers(0, 10 ** 6)))
        Phi = cosquare(C)
        g = complex_mode(C.mode) if cmode == CONGRUENCE_REAL else C.mode
        routes = [(Phi.cast(g), C.cast(g))]
        for lam, mult in _distinct(eigenvalues(Phi, g)):
            if cmode == CONGRUENCE_REAL and lam.im == 0:
                routes.append((Phi, C))
            for M, Cm in routes:
                mu = M.mode.promote(lam if M.mode == g else lam.re)
                got = RootSpace(M, mu, mult,
                                (Cm, Cm.conj_transpose())).chain()
                want = [Matrix.zeros(M.rows, 0, M.mode)] + list(
                    itertools.islice(preimage_chain(M.minus_scalar(mu)),
                                     len(got) - 1))
                assert got == want, (cmode, mu)
                assert [K.mode for K in got] == [K.mode for K in want]
            del routes[1:]

    def test_eliminations_stay_at_the_height_of_the_form(self, monkeypatch):
        # each root space here is semisimple, so its chain is the one
        # elimination of C - lam C*: no entry taller than C's and lam's
        # heights together (the cosquare's entries have about 150 bits)
        bs = _semisimple_star_form(PYTHAGOREAN[:2], [
            gr(rational(j + 2, j + 1), rational(1, j + 3)) for j in range(4)])
        A = scramble(block_sum_matrix(bs), 1)
        rref, chain, seen, at = Matrix.rref, RootSpace.chain, [], [None]

        def recorded_rref(M, limit=None):
            if at[0] is not None:
                seen.append((at[0], _height(M)))
            return rref(M, limit)

        def marked_chain(space):
            at[0] = space.lam
            try:
                return chain(space)
            finally:
                at[0] = None

        monkeypatch.setattr(Matrix, "rref", recorded_rref)
        monkeypatch.setattr(RootSpace, "chain", marked_chain)
        assert canonicalize(A, STAR_AC) == bs
        assert sorted({lam for lam, _ in seen}, key=scalar_key) == sorted(
            PYTHAGOREAN[:2], key=scalar_key)
        hC = _height(A)
        for lam, h in seen:
            assert h <= hC + _height(Matrix([[lam]], A.mode)), (lam, h, hC)


class TestLargeRegular:
    """Regular star-ac forms above n = 11, brought to their BlockSums (CI
    prints each one's wall time)."""

    def test_n25_roots_and_skew_pairs(self):
        u = gr(rational(3, 5), rational(4, 5))
        bs = BlockSum(STAR_AC, [
            CanonicalBlock(SIGNED_ROOT, n, lam=lam, eps=e)
            for n, lam, e in ((3, gr(1), 1), (2, gr(1), -1), (2, gr(1), 1),
                              (2, gr(-1), -1), (1, gr(-1), 1),
                              (3, gr(0, 1), -1), (2, gr(0, -1), 1),
                              (3, u, 1), (1, u, -1))]
            + [CanonicalBlock(SKEW_PAIR, 2, lam=gr(2)),
               CanonicalBlock(SKEW_PAIR, 1, lam=gr(1, 1))])
        A = scramble(block_sum_matrix(bs), 12345)
        assert A.rows == 25
        assert canonicalize(A, STAR_AC) == bs

    def test_n24_unimodular_roots_and_skew_pairs(self):
        bs = _semisimple_star_form(PYTHAGOREAN, [
            gr(rational(j + 2, j + 1), rational(1, j + 3)) for j in range(8)])
        A = scramble(block_sum_matrix(bs), 1)
        assert A.rows == 24
        assert canonicalize(A, STAR_AC) == bs


class TestLargeSingular:
    """Scrambled J_1^k + J_2^k + J_3^k + J_4^k, n = 10 k, in each mode:
    regularization eliminates at the full size (CI prints each one's wall
    time)."""

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC,
                                       CONGRUENCE_REAL])
    def test_round_trip(self, monkeypatch, cmode, k):
        sizes = [m for m in (1, 2, 3, 4) for _ in range(k)]
        bs = BlockSum(cmode, [CanonicalBlock(SINGULAR_JORDAN, m)
                              for m in sizes])
        A = scramble(block_sum_matrix(bs), 12345)
        assert A.rows == 10 * k
        # the regularization canonicalize makes, in the mode's own field
        regs = []
        monkeypatch.setattr(canon, "regularize",
                            lambda M: regs.append(regularize(M)) or regs[-1])
        assert canonicalize(A, cmode) == bs
        [reg] = regs
        assert reg.witness.verify()
        assert sorted(reg.singular_blocks) == sizes
        assert reg.core.rows == 0


class TestSignsFromTheKernelChain:
    def test_no_chain_basis_and_one_solve(self, monkeypatch):
        # the signs read the kernel chain: the only solve is the cosquare's
        u = gr(rational(3, 5), rational(4, 5))
        forms = [
            BlockSum(STAR_AC, [
                CanonicalBlock(SIGNED_ROOT, 3, lam=gr(1), eps=-1),
                CanonicalBlock(SIGNED_ROOT, 2, lam=u, eps=1),
                CanonicalBlock(SIGNED_ROOT, 1, lam=gr(0, -1), eps=-1),
                CanonicalBlock(SKEW_PAIR, 1, lam=gr(2))]),
            BlockSum(CONGRUENCE_AC, [
                CanonicalBlock(SIGNED_ROOT, 3, lam=gr(1)),
                CanonicalBlock(SIGNED_ROOT, 2, lam=gr(-1)),
                CanonicalBlock(SIGNED_ROOT, 1, lam=gr(1))]),
            BlockSum(CONGRUENCE_REAL, [
                CanonicalBlock(SIGNED_ROOT, 3, lam=rational(1), eps=1),
                CanonicalBlock(SIGNED_ROOT, 2, lam=rational(-1), eps=-1),
                CanonicalBlock(SIGNED_ROOT, 1, lam=rational(1), eps=-1),
                CanonicalBlock(REAL_SIGNED_ROOT, 2, lam=u, eps=-1)])]
        mats = [scramble(block_sum_matrix(bs), 11) for bs in forms]
        solve, where, inside = Matrix.solve, [None], []

        def counted_solve(M, B):
            inside.append(where[0])
            return solve(M, B)

        def marked_cosquare(M):
            where[0] = "cosquare"
            try:
                return cosquare(M)
            finally:
                where[0] = None

        monkeypatch.setattr(Matrix, "solve", counted_solve)
        monkeypatch.setattr(canon, "cosquare", marked_cosquare)
        for bs, A in zip(forms, mats):
            inside.clear()
            assert canonicalize(A, bs.cmode) == bs
            assert inside == ["cosquare"], bs.cmode


def _chain_basis(space):
    """The chain-ordered basis of space, longest chains first, each chain
    (x_1 ... x_h) with A x_j = lam x_j + x_{j-1}: the tops at height h
    extend ker N^(h-1) and the chains pushed down to h to ker N^h."""
    kernels = space.chain()
    N = space.A.minus_scalar(space.lam)
    chains = []  # each from its top vector down to height h
    for h in range(len(kernels) - 1, 0, -1):
        for chain in chains:
            chain.append(N * chain[-1])
        span = functools.reduce(Matrix.hstack, [c[-1] for c in chains],
                                kernels[h - 1])
        new = _column_complement(span, kernels[h])
        chains += [[new.submatrix(range(N.rows), [j])]
                   for j in range(new.cols)]
    return functools.reduce(Matrix.hstack,
                            [v for chain in chains for v in reversed(chain)])


def _chain_basis_top_form_signs(C, space, sizes):
    """d_m from the chain basis P of space, as the signs were read before
    the kernel form: H = P* C P must be H* J with J the Jordan matrix
    P^-1 Phi P, and the top form is H on the rows at the tops of the size-m
    chains and the columns at their bottoms, scaled by sigma_m."""
    fm, lam = C.mode, space.lam
    P = _chain_basis(space)
    J = P.solve(space.A * P)
    if J != direct_sum(*[jordan_block(m, lam, fm) for m in space.sizes]):
        raise ClassificationError("restriction is not a Jordan matrix")
    H = P.conj_transpose() * C * P
    if H != H.conj_transpose() * J:
        raise ClassificationError("the chain form H is not H* J")
    if fm.involution == IDENTITY:
        c, z = fm.one(), lam
    else:
        z = fm.i() * fm.involve(lam)
        c = fm.i() if fm.eq(lam, -fm.one()) else fm.one() + fm.involve(lam)
    starts = list(itertools.accumulate(space.sizes, initial=0))
    out = {}
    for m in sizes:
        bottoms = [s for s, h in zip(starts, space.sizes) if h == m]
        G = H.submatrix([s + m - 1 for s in bottoms], bottoms)
        G = G.scale_left(c * z ** (m - 1))
        if G != G.conj_transpose():
            raise ClassificationError("the top form is not Hermitian")
        pos, neg = canon._inertia(G)
        if (len(bottoms) + pos - neg) % 2 or abs(pos - neg) > len(bottoms):
            raise ClassificationError("sign count out of range")
        out[m] = pos - neg
    return out


class TestKernelTopFormOracle:
    @pytest.mark.parametrize("tol", [None, 1e-8])
    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_REAL])
    def test_matches_the_chain_basis_top_form(self, cmode, tol,
                                              monkeypatch):
        # 30 seeded acceptance-gate forms: wherever the chain-basis oracle
        # reads signs, the kernel form reads the same d_m at rank c_m
        top_form_signs, inertia = canon._top_form_signs, canon._inertia
        ranks, compared = [], []

        def recorded_inertia(G):
            pos, neg = inertia(G)
            ranks.append(pos + neg)
            return pos, neg

        def checked(C, space, sizes):
            try:
                want = _chain_basis_top_form_signs(C, space, sizes)
            except ValueError:
                assert tol is not None
                return top_form_signs(C, space, sizes)
            ranks.clear()
            got = top_form_signs(C, space, sizes)
            assert got == want
            assert ranks == [space.sizes.count(m) for m in sizes]
            compared.append(len(sizes))
            return got

        monkeypatch.setattr(canon, "_inertia", recorded_inertia)
        monkeypatch.setattr(canon, "_top_form_signs", checked)
        fm = field_mode_for(cmode, floating=tol is not None)
        if tol is not None:
            fm = FieldMode(fm.base, fm.involution, tol)
        forms = 0
        for t in itertools.count():
            if forms == 30:
                break
            bs = sample_blocks(cmode, random.Random(90000 + t), maxtotal=10)
            if not any(b.eps for b in bs.blocks):
                continue
            forms += 1
            A = scramble(block_sum_matrix(bs), 91000 + t).cast(fm)
            try:
                got = canonicalize(A, cmode)
            except ValueError:
                assert tol is not None
                continue
            assert close_blocks(got, bs), (t, bs, got)
        assert sum(compared) >= 30


class TestFloatSample:
    @staticmethod
    def plus(A, E):
        """The float matrix A plus the numpy array E."""
        return Matrix([[x + e.item() for x, e in zip(row, erow)]
                       for row, erow in zip(A.a, E)], A.mode)

    # 1 form fails at 1e-8: congruence-real t = 23, in the sign stage (the
    # top form's inertia); the other bounds count the forms recovered at
    # 1e-10 and under noise 1e-12
    @pytest.mark.parametrize("tolerance, noise, bound", [
        pytest.param(1e-8, 0, 179, id="tol1e-8"),
        pytest.param(1e-10, 0, 176, id="tol1e-10"),
        pytest.param(1e-8, 1e-12, 177, id="tol1e-8-noise1e-12")])
    def test_no_wrong_answer(self, tolerance, noise, bound):
        # 60 non-empty acceptance-gate forms per mode (total size <= 10),
        # scrambled exactly, then cast to floats at the tolerance, plus
        # noise from one generator in sample order; the float path may
        # fail on a form but must not answer wrongly
        import numpy
        rng = numpy.random.default_rng(123)
        recovered = errors = 0
        for base, cmode in enumerate((STAR_AC, CONGRUENCE_AC,
                                      CONGRUENCE_REAL)):
            fm = field_mode_for(cmode, floating=True)
            fm = FieldMode(fm.base, fm.involution, tolerance)
            forms = 0
            for t in itertools.count():
                if forms == 60:
                    break
                bs = sample_blocks(cmode, random.Random(70000 + 1000 * base
                                                        + t), maxtotal=10)
                if bs.total_size() == 0:
                    continue
                forms += 1
                A = scramble(block_sum_matrix(bs), 77000 + 1000 * base + t)
                A = A.cast(fm)
                if noise:
                    # complex noise in the complex modes, real noise under
                    # congruence-real
                    E = noise * rng.standard_normal((A.rows, A.cols))
                    if cmode != CONGRUENCE_REAL:
                        E = E + 1j * noise * rng.standard_normal(E.shape)
                    A = self.plus(A, E)
                try:
                    got = canonicalize(A, cmode)
                except ValueError:
                    errors += 1
                    continue
                assert close_blocks(got, bs), (cmode, t, bs, got)
                recovered += 1
        assert recovered + errors == 180
        assert recovered >= bound

    def test_noisy_star_form_is_not_answered_wrongly(self):
        # noise 1e-10 scatters the copies of this form's J_3(2i) skew pair;
        # three size-1 skew pairs near 2i would be a wrong answer, not an error
        import numpy
        bs = sample_blocks(STAR_AC, random.Random(70012), maxtotal=10)
        fm = field_mode_for(STAR_AC, floating=True)
        fm = FieldMode(fm.base, fm.involution, 1e-8)
        A = scramble(block_sum_matrix(bs), 77012).cast(fm)
        z = numpy.random.default_rng(123).normal(0, 1, (A.rows, A.cols, 2))
        A = self.plus(A, 1e-10 * (z[..., 0] + 1j * z[..., 1]))
        try:
            got = canonicalize(A, STAR_AC)
        except ValueError:
            return
        assert close_blocks(got, bs), (bs, got)


class TestCanonicalize:
    def test_diagonal_star(self):
        A = Matrix([[gr(2), gr(0)], [gr(0), gr(-3)]], MODE_GAUSSIAN)
        bs = canonicalize(A, STAR_AC)
        assert bs == BlockSum(STAR_AC, [
            CanonicalBlock(SIGNED_ROOT, 1, lam=gr(1), eps=1),
            CanonicalBlock(SIGNED_ROOT, 1, lam=gr(1), eps=-1)])

    def test_skew_pair_congruence(self):
        A = Matrix([[gr(0), gr(1)], [gr(2), gr(0)]],
                   field_mode_for(CONGRUENCE_AC))
        bs = canonicalize(A, CONGRUENCE_AC)
        assert bs.blocks == [CanonicalBlock(SKEW_PAIR, 1, lam=gr(2))]

    def test_skew_symmetric_is_a_pair(self):
        A = Matrix([[0, 1], [-1, 0]], MODE_RATIONAL)
        bs = canonicalize(A, CONGRUENCE_REAL)
        assert bs.blocks == [CanonicalBlock(SKEW_PAIR, 1, lam=rational(-1))]

    def test_ac_self_paired_minus_one(self):
        # J_1(-1) has no cosquare root under the transpose: the two sizes 1
        # of the one-member orbit {-1} pair off into one skew pair
        A = Matrix([[0, 1], [-1, 0]], field_mode_for(CONGRUENCE_AC))
        bs = canonicalize(A, CONGRUENCE_AC)
        assert bs.blocks == [CanonicalBlock(SKEW_PAIR, 1, lam=gr(-1))]

    @pytest.mark.parametrize("lam", [gr(0, -1),
                                     gr(rational(3, 5), rational(-4, 5))])
    def test_ac_unimodular_pair_takes_the_positive_imaginary_part(self, lam):
        fm = field_mode_for(CONGRUENCE_AC)
        A = scramble(skew_sum(jordan_block(1, lam, fm),
                              Matrix.identity(1, fm)), 4)
        assert canonicalize(A, CONGRUENCE_AC).blocks == [
            CanonicalBlock(SKEW_PAIR, 1, lam=lam.conj())]

    def test_real_rotation_is_realified_root(self):
        A = Matrix([[1, 1], [-1, 1]], MODE_RATIONAL)
        bs = canonicalize(A, CONGRUENCE_REAL)
        (b,) = bs.blocks
        assert b.kind == REAL_SIGNED_ROOT and b.n == 1
        assert b.lam == gr(0, 1)

    def test_idempotent(self):
        bs = BlockSum(CONGRUENCE_REAL, [
            CanonicalBlock(SINGULAR_JORDAN, 2),
            CanonicalBlock(SIGNED_ROOT, 1, lam=rational(1), eps=-1),
            CanonicalBlock(REAL_SKEW_PAIR, 1, lam=gr(1, 1))])
        K = block_sum_matrix(bs)
        assert canonicalize(K, CONGRUENCE_REAL) == bs
        assert canonicalize(scramble(K, 9), CONGRUENCE_REAL) == bs

    def test_equivalence_necessity_via_cosquare(self):
        # equivalent nonsingular matrices must share the cosquare Jordan type
        K = block_sum_matrix(BlockSum(STAR_AC, [
            CanonicalBlock(SKEW_PAIR, 2, lam=gr(2))]))
        A = scramble(K, 77)
        assert jordan_structure(cosquare(A)) == jordan_structure(cosquare(K))
        assert are_equivalent(A, K, STAR_AC)

    def test_are_equivalent_negative(self):
        A = Matrix([[gr(1)]], MODE_GAUSSIAN)
        B = Matrix([[gr(-1)]], MODE_GAUSSIAN)
        assert not are_equivalent(A, B, STAR_AC)

    def test_float_are_equivalent_matches_parameters_at_a_tolerance(self):
        # both answers hold the same blocks, but the root's computed lam
        # differs in the last bits between the two scramblings
        fm = field_mode_for(STAR_AC, floating=True)
        lam = gr(rational(3, 5), rational(4, 5))

        def scrambled(root, eps, seed):
            bs = BlockSum(STAR_AC, [
                CanonicalBlock(SIGNED_ROOT, 1, lam=root, eps=eps),
                CanonicalBlock(SKEW_PAIR, 1, lam=gr(2))])
            return random_congruence(block_sum_matrix(bs), seed)[0].cast(fm)

        A = scrambled(lam, 1, 1)
        assert are_equivalent(A, scrambled(lam, 1, 2), STAR_AC)
        assert not are_equivalent(A, scrambled(lam, -1, 2), STAR_AC)
        assert not are_equivalent(
            A, scrambled(gr(rational(4, 5), rational(3, 5)), 1, 2), STAR_AC)

    def test_invalid_mode(self):
        A = Matrix([[gr(1)]], MODE_GAUSSIAN)
        with pytest.raises(ValueError):
            canonicalize(A, "general-field")


class TestRationalInput:
    @pytest.mark.parametrize("seed", range(4))
    def test_cast_into_the_mode_field(self, seed):
        # canonicalize casts a rational matrix into the Gaussian field of
        # star-ac and congruence-ac; the answer is the cast matrix's
        t = 4300 + 10 * seed
        while not (bs := sample_blocks(CONGRUENCE_REAL, random.Random(t),
                                       8)).blocks:
            t += 1
        A = scramble(block_sum_matrix(bs), 4400 + seed)
        assert A.mode == MODE_RATIONAL
        for cmode in (STAR_AC, CONGRUENCE_AC):
            assert (canonicalize(A, cmode)
                    == canonicalize(A.cast(field_mode_for(cmode)), cmode))

    def test_real_gaussian_entries_enter_congruence_real(self):
        A = Matrix([[1, gr(2)], [gr(2), 3]], MODE_GAUSSIAN)
        assert (canonicalize(A, CONGRUENCE_REAL)
                == canonicalize(A.cast(MODE_RATIONAL), CONGRUENCE_REAL))


class TestFieldOfTheMode:
    """A matrix that cannot enter its mode's field is refused up front, with
    the mode and the matrix's base named."""

    @staticmethod
    def refused(A, cmode):
        with pytest.raises(ValueError) as e:
            canonicalize(A, cmode)
        assert repr(cmode) in str(e.value)
        assert repr(A.mode.base) in str(e.value)

    @pytest.mark.parametrize("cmode", [STAR_AC, CONGRUENCE_AC,
                                       CONGRUENCE_REAL])
    @pytest.mark.parametrize("mode", [MODE_GF2, MODE_QUAT_CONJ])
    def test_gf2_and_quaternion_matrices(self, mode, cmode):
        self.refused(Matrix([[1, 0], [0, 1]], mode), cmode)

    @pytest.mark.parametrize("mode, z", [(MODE_GAUSSIAN, gr(1, 1)),
                                         (MODE_COMPLEX_FLOAT, 1 + 1j)])
    def test_non_real_entry_under_congruence_real(self, mode, z):
        self.refused(Matrix([[z, 0], [0, 1]], mode), CONGRUENCE_REAL)


class TestSignConservation:
    def test_total_signature_preserved(self):
        # sum of signs at lam = 1 is a congruence invariant
        bs = BlockSum(STAR_AC, [
            CanonicalBlock(SIGNED_ROOT, 1, lam=gr(1), eps=1),
            CanonicalBlock(SIGNED_ROOT, 1, lam=gr(1), eps=1),
            CanonicalBlock(SIGNED_ROOT, 1, lam=gr(1), eps=-1)])
        K = block_sum_matrix(bs)
        for seed in (1, 2, 3):
            got = canonicalize(scramble(K, seed), STAR_AC)
            signs = [b.eps for b in got.blocks]
            assert sorted(signs) == [-1, 1, 1]


class TestRandomCongruence:
    def test_deterministic(self):
        K = Matrix([[gr(1), gr(0)], [gr(0), gr(-1)]], MODE_GAUSSIAN)
        A1, w1 = random_congruence(K, 123)
        A2, w2 = random_congruence(K, 123)
        assert A1 == A2 and w1.S == w2.S
        A3, _ = random_congruence(K, 124)
        assert A1 != A3

    # sizes at which some of the 50 seeds draw a singular S first
    @pytest.mark.parametrize("mode, n", [(MODE_RATIONAL, 2),
                                         (MODE_GAUSSIAN, 2),
                                         (MODE_QUAT_CONJ, 1)])
    def test_draws_what_the_determinant_test_drew(self, mode, n, monkeypatch):
        # the certificate changes no decision: every seed gets the S that
        # the det != 0 (rank == n over the quaternions) test accepted, and
        # no determinant is taken
        det, rank = Matrix.det, Matrix.rank
        tests = []

        def old_test(S):
            tests.append(1)
            if S.mode.base == QUATERNION:
                return rank(S) == S.rows
            return det(S) != 0

        def refuse(*args):
            raise AssertionError("determinant computed")

        K = Matrix.identity(n, mode)
        for seed in range(50):
            with monkeypatch.context() as m:
                m.setattr(Matrix, "is_nonsingular", old_test)
                _, want = random_congruence(K, seed)
            with monkeypatch.context() as m:
                m.setattr(Matrix, "det", refuse)
                _, got = random_congruence(K, seed)
            assert got.S == want.S
        assert len(tests) > 50

    def test_gf2_draws_gf2_entries(self):
        K = Matrix([[1, 0], [1, 1]], MODE_GF2)
        for seed in range(10):
            A, w = random_congruence(K, seed)
            assert A.mode == w.S.mode == MODE_GF2
            assert w.verify()

    def test_witness_verifies(self):
        K = Matrix([[rational(2)]], MODE_RATIONAL)
        A, w = random_congruence(K, 5)
        assert w.lhs == K and w.rhs == A
        assert w.verify()


class TestFloatReport:
    def test_confidence_report_fields(self):
        m = FieldMode("complex-float", "conjugation", 1e-8)
        A = Matrix([[2.0 + 0j, 0j], [0j, -1.0 + 0j]], m)
        bs, report = canonicalize_with_confidence(A, STAR_AC)
        assert not report["exact"]
        assert "min_singular_matrix" in report
        assert "eigenvalue_gap" in report
        assert len(bs.blocks) == 2
