"""Regularization, representatives, sign extraction and classification."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congruence import canon, matrix
from congruence.scalar import (GaussianRational, FieldMode, MODE_RATIONAL,
                               MODE_GAUSSIAN, MODE_GAUSSIAN_ID, MODE_GF2,
                               MODE_QUAT_CONJ, QUATERNION, complex_mode,
                               rational, scalar_key)
from congruence.matrix import Matrix, direct_sum, skew_sum
from congruence.blocks import (STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL,
                               SINGULAR_JORDAN, SKEW_PAIR, SIGNED_ROOT,
                               REAL_SIGNED_ROOT, REAL_SKEW_PAIR,
                               CanonicalBlock, BlockSum, block_sum_matrix,
                               field_mode_for, jordan_block)
from congruence.cosquare import cosquare, star_root_jordan
from congruence.jordan import RootSpace, jordan_structure, preimage_chain
from congruence.canon import (regularize, extract_signs, canonicalize, canonicalize_with_confidence,
                              are_equivalent, random_congruence,
                              plus_root, plus_realified_root,
                              CongruenceWitness, ClassificationError)
from test_acceptance import close_blocks, sample_blocks


def gr(a, b=0):
    return GaussianRational(a, b)


def scramble(K, seed):
    A, w = random_congruence(K, seed)
    assert w.verify()
    return A


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
        rref = Matrix.rref
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return rref(*args, **kwargs)

        monkeypatch.setattr(Matrix, "rref", counting)
        reg = regularize(A)
        assert not calls
        monkeypatch.undo()
        assert reg.singular_blocks == [] and reg.core == A
        assert reg.witness.verify() and reg.witness.rhs == A

    def test_singular_form_reads_the_mod_p_profile_once(self, monkeypatch):
        A = scramble(direct_sum(jordan_block(3, 0, MODE_GAUSSIAN),
                                jordan_block(1, 0, MODE_GAUSSIAN),
                                Matrix([[gr(2, 1)]], MODE_GAUSSIAN)), 23)
        profile = canon._profile_mod_p
        calls = []

        def counting(M):
            calls.append(1)
            return profile(M)

        def exact_profile(*args):
            raise AssertionError("exact singular_profile computed")

        monkeypatch.setattr(canon, "_profile_mod_p", counting)
        monkeypatch.setattr(canon, "singular_profile", exact_profile)
        assert regularize(A).singular_blocks == [3, 1]
        assert len(calls) == 1


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
        # [(A X)* | -R].  Eight eliminations: ker A, ker [A; A*], the
        # quotient's complement and ker K* A, the core's kernel, the lifts,
        # [G | K* A H] and G^-1 (a ninth reduced (A X)* again for H)
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
        assert lengths == [2] and len(calls) == 8
        D = X.conj_transpose() * A * X
        assert D == direct_sum(D.submatrix([0], [0]), jordan_block(2, 0, fm))

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

    @pytest.mark.parametrize("d, what", [(0, "odd sign defect"),
                                         (3, "sign count out of range")])
    def test_sign_errors_name_the_eigenvalue_and_size(self, d, what,
                                                      monkeypatch):
        lam = gr(rational(3, 5), rational(4, 5))
        R = plus_root(1, lam, MODE_GAUSSIAN)
        space = RootSpace(cosquare(R), lam, 1)
        monkeypatch.setattr(canon, "_signature", lambda G: d)
        with pytest.raises(ClassificationError) as err:
            extract_signs(R, space, [1], STAR_AC)
        assert str(err.value) == ("signs at eigenvalue %s, size 1: %s"
                                  % (lam, what))

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
        monkeypatch.setattr(canon, "star_root_jordan", counted_root)
        for bs, A in zip(forms, mats):
            assert canonicalize(A, bs.cmode) == bs
        assert canon._REF_CACHE == {}
        assert calls == []

    def test_one_sign_read_per_reference_root(self, monkeypatch):
        calls = []

        def counted_signs(*args):
            calls.append(args)
            return extract_signs(*args)

        monkeypatch.setattr(canon, "_REF_CACHE", {})
        monkeypatch.setattr(canon, "extract_signs", counted_signs)
        u = gr(rational(3, 5), rational(4, 5))
        plus_root(3, u, MODE_GAUSSIAN)
        assert len(calls) == 1
        plus_realified_root(2, u, MODE_RATIONAL)
        assert len(calls) == 2
        plus_root(2, rational(-1), MODE_RATIONAL)
        assert len(calls) == 3
        plus_root(3, u, MODE_GAUSSIAN)  # a cache hit reads nothing
        assert len(calls) == 3

    def test_bounded_oldest_entry_evicted(self, monkeypatch):
        monkeypatch.setattr(canon, "_REF_CACHE", {})
        monkeypatch.setattr(canon, "_REF_CACHE_MAX", 3)
        lams = [gr(rational(a, c), rational(b, c))
                for a, b, c in ((3, 4, 5), (5, 12, 13), (8, 15, 17),
                                (7, 24, 25), (20, 21, 29))]
        roots = [plus_root(1, lam, MODE_GAUSSIAN) for lam in lams]
        assert len(canon._REF_CACHE) == 3
        assert [key[1] for key in canon._REF_CACHE] == [
            scalar_key(lam) for lam in lams[2:]]
        assert plus_root(1, lams[-1], MODE_GAUSSIAN) is roots[-1]
        assert plus_root(1, lams[0], MODE_GAUSSIAN) == roots[0]
        assert len(canon._REF_CACHE) == 3


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

        def counted_space(M, lam, mult):
            lams.append(lam)
            return RootSpace(M, lam, mult)

        monkeypatch.setattr(canon, "cosquare", counted_cosquare)
        monkeypatch.setattr(canon, "RootSpace", counted_space)
        assert canonicalize(A, STAR_AC) == bs
        assert counts["cosquare"] == 1
        # 1, u and the skew pair's 2 and 1/2: one RootSpace each, and at
        # most one kernel chain (a simple eigenvalue's only once read)
        assert sorted(lams, key=lambda x: (x.re, x.im)) == [
            gr(rational(1, 2)), gr(rational(3, 5), rational(4, 5)), gr(1),
            gr(2)]


class TestFloatSample:
    def test_no_wrong_answer(self):
        # 60 non-empty acceptance-gate forms per mode (total size <= 10),
        # scrambled exactly, then cast to floats at tolerance 1e-8; the
        # float path may fail on a form but must not answer wrongly
        recovered = errors = 0
        for base, cmode in enumerate((STAR_AC, CONGRUENCE_AC,
                                      CONGRUENCE_REAL)):
            fm = field_mode_for(cmode, floating=True)
            fm = FieldMode(fm.base, fm.involution, 1e-8)
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
                try:
                    got = canonicalize(A.cast(fm), cmode)
                except ValueError:
                    errors += 1
                    continue
                assert close_blocks(got, bs), (cmode, t, bs, got)
                recovered += 1
        assert recovered + errors == 180
        # 2 forms fail, both congruence-real, both in the sign stage
        assert recovered >= 178


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
