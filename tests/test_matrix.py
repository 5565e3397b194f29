"""Exact and float matrix arithmetic, factorizations, polynomial helpers."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from congruence.scalar import (GaussianRational, FieldMode, MODE_RATIONAL,
                               MODE_GAUSSIAN, MODE_GF2, MODE_QUAT_CONJ,
                               Quaternion, REAL_FLOAT, IDENTITY, rational)
from congruence import matrix
from congruence.matrix import (Matrix, Poly, char_poly, direct_sum, skew_sum,
                               realify, complexify, _mul_generic,
                               _rref_generic, _char_poly_generic)


def mat(rows, mode=MODE_RATIONAL):
    return Matrix(rows, mode)


def rand_matrix(n, rng, mode=MODE_RATIONAL):
    return Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)],
                  mode)


class TestArithmetic:
    def test_mul_hand_checked(self):
        A = mat([[1, 2], [3, 4]])
        B = mat([[0, 1], [1, 1]])
        assert A * B == mat([[2, 3], [4, 7]])
        assert B * A == mat([[3, 4], [4, 6]])

    def test_mul_respects_quaternion_order(self):
        i, j, k = Quaternion(0, 1), Quaternion(0, 0, 1), Quaternion(0, 0, 0, 1)
        A = Matrix([[i]], MODE_QUAT_CONJ)
        B = Matrix([[j]], MODE_QUAT_CONJ)
        assert (A * B).a[0][0] == k
        assert (B * A).a[0][0] == -k

    def test_conj_transpose(self):
        A = Matrix([[GaussianRational(1, 2), GaussianRational(0, 1)],
                    [GaussianRational(3), GaussianRational(1, -1)]],
                   MODE_GAUSSIAN)
        H = A.conj_transpose()
        assert H.a[0][1] == GaussianRational(3)
        assert H.a[1][0] == GaussianRational(0, -1)

    def test_scale_sides_differ_over_quaternions(self):
        j = Quaternion(0, 0, 1)
        i = Quaternion(0, 1)
        A = Matrix([[i]], MODE_QUAT_CONJ)
        assert A.scale_left(j) != A * Matrix([[j]], MODE_QUAT_CONJ)


class TestSolveInvertRank:
    def test_inverse_round_trip(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 4):
            A = rand_matrix(n, rng)
            while A.det() == 0:
                A = rand_matrix(n, rng)
            assert A * A.inverse() == Matrix.identity(n, MODE_RATIONAL)

    def test_det_hand_checked(self):
        A = mat([[2, 0, 1], [1, 1, 0], [3, 1, 2]])
        # cofactor expansion: 2*(2-0) - 0 + 1*(1-3) = 2
        assert A.det() == 2

    def test_det_multiplicative(self):
        rng = random.Random(11)
        A, B = rand_matrix(3, rng), rand_matrix(3, rng)
        assert (A * B).det() == A.det() * B.det()

    def test_rank_and_kernel(self):
        A = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert A.rank() == 2
        K = A.right_kernel()
        assert K.cols == 1
        assert A * K == Matrix.zeros(3, 1, MODE_RATIONAL)

    def test_solve(self):
        A = mat([[2, 1], [1, 1]])
        B = mat([[1], [0]])
        X = A.solve(B)
        assert A * X == B

    TALL = [(MODE_RATIONAL, [[1, 2], [0, 1], [3, -1], [2, 0]],
             [[1, -2, 0], [rational(1, 2), 3, 1]]),
            (MODE_GAUSSIAN, [[GaussianRational(1, 1), 2], [0, 1],
                             [GaussianRational(0, 3), -1]],
             [[GaussianRational(2, -1)], [rational(1, 3)]])]

    @pytest.mark.parametrize("mode, rows, x", TALL, ids=["Q", "Q(i)"])
    def test_solve_tall_recovers_the_exact_solution(self, mode, rows, x):
        A, X = Matrix(rows, mode), Matrix(x, mode)
        assert A.solve(A * X) == X

    @pytest.mark.parametrize("mode, rows, x", TALL, ids=["Q", "Q(i)"])
    def test_solve_tall_rejects_a_rhs_outside_the_span(self, mode, rows, x):
        A = Matrix(rows, mode)
        e = Matrix([[1]] + [[0]] * (A.rows - 1), mode)
        assert A.hstack(e).rank() == A.cols + 1
        with pytest.raises(ValueError, match="outside the column span"):
            A.solve(e)

    @pytest.mark.parametrize("mode, rows, x", TALL, ids=["Q", "Q(i)"])
    def test_solve_tall_rejects_dependent_columns(self, mode, rows, x):
        A = Matrix(rows, mode)
        D = A.hstack(A.submatrix(range(A.rows), [0]).scale_left(2))
        with pytest.raises(ValueError, match="dependent columns"):
            D.solve(A * Matrix(x, mode))

    def test_gf2_rank(self):
        A = Matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]], MODE_GF2)
        assert A.rank() == 2

    def test_float_rank_uses_relative_threshold(self):
        m = FieldMode("real-float", "identity", 1e-8)
        big = Matrix([[1e12, 2e12], [2e12, 4e12 + 1e-3]], m)
        assert big.rank() == 1
        small = Matrix([[1e-6, 0.0], [0.0, 1e-6]], m)
        assert small.rank() == 2

    def test_float_det_uses_the_rank_threshold(self):
        # det is the product of the pivots rank keeps: a pivot under the
        # tolerance times the largest entry makes it exactly 0.0
        m = FieldMode("real-float", "identity", 1e-8)
        big = Matrix([[1e12, 2e12], [2e12, 4e12 + 1e-3]], m)
        assert big.det() == 0.0
        small = Matrix([[1e-6, 0.0], [0.0, 1e-6]], m)
        assert small.det() == pytest.approx(1e-12)
        assert Matrix([[2.0, 1.0], [1.0, 3.0]], m).det() == pytest.approx(5.0)


class TestCharPoly:
    def test_companion_matrix_oracle(self):
        # chi of the companion matrix is the polynomial it was built from
        F = Matrix([[0, 0, -2], [1, 0, 3], [0, 1, -1]], MODE_RATIONAL)
        chi = char_poly(F)
        assert [chi.coeff(k) for k in range(4)] == [2, -3, 1, 1]

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_trace_and_det_coefficients(self, seed):
        rng = random.Random(seed)
        A = rand_matrix(3, rng)
        chi = char_poly(A)
        tr = A.a[0][0] + A.a[1][1] + A.a[2][2]
        assert chi.coeff(2) == -tr
        assert chi.coeff(0) == -A.det()


class TestCharPolyAnyBase:
    def test_gf2_three_by_three(self):
        # Faddeev-LeVerrier would divide by k = 2 = 0 here
        A = Matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]], MODE_GF2)
        chi = char_poly(A)
        # det(xI - A) = (x + 1)^3 + 1 = x^3 + x^2 + x over GF(2)
        assert [chi.coeff(k).v for k in range(4)] == [0, 1, 1, 1]

    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_gf2_is_the_integer_polynomial_mod_2(self, seed, n):
        rng = random.Random(seed)
        ints = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        over_q = char_poly(Matrix(ints, MODE_RATIONAL))
        over_f2 = char_poly(Matrix(ints, MODE_GF2))
        assert over_f2.degree == n
        for k in range(n + 1):
            assert over_f2.coeff(k).v == over_q.coeff(k).numerator % 2

    @given(st.integers(0, 10 ** 6), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_cayley_hamilton_gaussian(self, seed, n):
        rng = random.Random(seed)
        A = Matrix([[GaussianRational(Fraction(rng.randint(-3, 3),
                                               rng.randint(1, 3)),
                                      rng.randint(-3, 3))
                     for _ in range(n)] for _ in range(n)], MODE_GAUSSIAN)
        chi = char_poly(A)
        assert chi.degree == n
        acc = Matrix.zeros(n, n, MODE_GAUSSIAN)
        for c in reversed(chi.c):
            acc = acc * A + Matrix.identity(n, MODE_GAUSSIAN).scale_left(c)
        assert acc == Matrix.zeros(n, n, MODE_GAUSSIAN)


# -- integer kernels against the generic scalar path ------------------------

@st.composite
def exact_matrix(draw, rows=None, cols=None):
    """A rational or Gaussian-rational matrix, each row over its own
    denominator, sometimes with a dependent row, a zero row or a zero
    column."""
    gauss = draw(st.booleans()) if rows is None else rows[1]
    mode = MODE_GAUSSIAN if gauss else MODE_RATIONAL
    m = draw(st.integers(0, 6)) if rows is None else rows[0]
    n = draw(st.integers(0, 6)) if cols is None else cols
    small = st.integers(-4, 4)
    out = []
    for _ in range(m):
        den = draw(st.integers(1, 12))
        row = []
        for _ in range(n):
            re = Fraction(draw(small), den) if draw(st.booleans()) else 0
            if gauss:
                im = Fraction(draw(small), den) if draw(st.booleans()) else 0
                row.append(GaussianRational(re, im))
            else:
                row.append(re)
        out.append(row)
    A = Matrix(out, mode, shape=(m, n))
    z = mode.zero()
    if m >= 3 and draw(st.booleans()):
        c = mode.promote(GaussianRational(2, -1) if gauss else Fraction(-3, 2))
        A.a[m - 1] = [x + c * y for x, y in zip(A.a[0], A.a[1])]
    if m and draw(st.booleans()):
        A.a[draw(st.integers(0, m - 1))] = [z] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in A.a:
            row[j] = z
    return A


@st.composite
def exact_pair(draw):
    """(A, B) over one base with A.cols == B.rows."""
    A = draw(exact_matrix())
    gauss = A.mode == MODE_GAUSSIAN
    B = draw(exact_matrix(rows=(A.cols, gauss), cols=draw(st.integers(0, 6))))
    return A, B


def same_entries(X, Y):
    return ((X.rows, X.cols) == (Y.rows, Y.cols)
            and all(type(x) is type(y) and x == y
                    for rx, ry in zip(X.a, Y.a) for x, y in zip(rx, ry)))


class TestIntegerKernels:
    @given(exact_pair())
    @settings(max_examples=200, deadline=None)
    def test_product(self, pair):
        A, B = pair
        assert same_entries(A * B, _mul_generic(A, B))

    @given(exact_matrix(), st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_rref_pivots_rows_det(self, A, limit):
        for lim in (None, min(limit, A.cols)):
            got = A.rref(lim)
            want = _rref_generic(A, A.cols if lim is None else lim)
            assert got.pivots == want.pivots
            assert got.det == want.det
            assert same_entries(got.rows, want.rows)

    @given(exact_matrix())
    @settings(max_examples=200, deadline=None)
    def test_rank_kernel_det_inverse(self, A):
        ref = _rref_generic(A, A.cols)
        assert A.rank() == len(ref.pivots)
        K = A.right_kernel()
        assert K.cols == A.cols - len(ref.pivots)
        assert A * K == Matrix.zeros(A.rows, K.cols, A.mode)
        if not A.is_square():
            return
        assert A.det() == ref.det
        if len(ref.pivots) < A.rows:
            with pytest.raises(ValueError):
                A.inverse()
            return
        n = A.rows
        aug = _rref_generic(A.hstack(Matrix.identity(n, A.mode)), n)
        assert same_entries(A.inverse(),
                            aug.rows.submatrix(range(n), range(n, 2 * n)))

    def test_zero_row_shapes(self):
        for mode in (MODE_RATIONAL, MODE_GAUSSIAN):
            E = Matrix.zeros(0, 4, mode)
            red = E.rref()
            assert red.pivots == [] and (red.rows.rows, red.rows.cols) == (0, 4)
            assert E.right_kernel() == Matrix.identity(4, mode)
            assert (E.transpose() * E).rows == 4
            assert Matrix.zeros(0, 0, mode).det() == mode.one()


def count_calls(monkeypatch, name):
    """Count the calls of the Matrix method name from here on."""
    orig = getattr(Matrix, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(Matrix, name, counting)
    return calls


class TestIntegerCharPoly:
    @given(st.integers(0, 6), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scalar_berkowitz(self, n, gauss, data):
        A = data.draw(exact_matrix(rows=(n, gauss), cols=n))
        got = char_poly(A).c
        want = _char_poly_generic(A)[::-1]
        assert len(got) == len(want) == n + 1
        assert all(type(x) is type(y) and x == y for x, y in zip(got, want))

    @given(st.integers(0, 6), st.booleans(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_value_is_the_determinant(self, n, gauss, data):
        A = data.draw(exact_matrix(rows=(n, gauss), cols=n))
        points = ([GaussianRational(0), GaussianRational(Fraction(1, 2), -1),
                   GaussianRational(-3, Fraction(2, 3))] if gauss
                  else [rational(0), rational(1, 2), rational(-3)])
        chi = char_poly(A)
        for t in points:
            assert chi.eval(t) == A.minus_scalar(t).scale_left(-1).det()

    @pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_GAUSSIAN])
    def test_empty_and_one_by_one(self, mode):
        assert char_poly(Matrix.zeros(0, 0, mode)) == Poly([1], mode)
        a = mode.promote(GaussianRational(Fraction(-2, 3), 5)
                         if mode == MODE_GAUSSIAN else Fraction(-2, 3))
        assert char_poly(Matrix([[a]], mode)) == Poly([-a, 1], mode)

    @pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_GAUSSIAN])
    def test_nilpotent_is_a_power_of_x(self, mode):
        # S J S^-1 for J the 5 x 5 shift: nilpotent with full entries
        n = 5
        J = Matrix([[1 if j == i + 1 else 0 for j in range(n)]
                    for i in range(n)], mode)
        c = GaussianRational(Fraction(1, 3), -1) if mode == MODE_GAUSSIAN else 2
        S = Matrix([[c if i == j else Fraction(i - j, 2 + i) for j in range(n)]
                    for i in range(n)], mode)
        N = S * J * S.inverse()
        assert char_poly(N) == Poly([0] * n + [1], mode)
        assert char_poly(Matrix.zeros(n, n, mode)) == Poly([0] * n + [1], mode)

    def test_gaussian_six_by_six_makes_no_matrix_product(self, monkeypatch):
        rng = random.Random(3)
        A = Matrix([[GaussianRational(Fraction(rng.randint(-5, 5),
                                               rng.randint(1, 7)),
                                      rng.randint(-5, 5))
                     for _ in range(6)] for _ in range(6)], MODE_GAUSSIAN)
        calls = count_calls(monkeypatch, "__mul__")
        chi = char_poly(A)
        assert calls == []
        assert chi.degree == 6 and chi.coeff(0) == A.det()


def gr(re, im=0):
    return GaussianRational(re, im)


class TestGaussianBareissUpdate:
    """The Z[i] row update (p x - f y) / q against the generic elimination,
    with the update's calls recorded as (q, f == 0, p == q, returned x)."""

    def reduce(self, monkeypatch, rows):
        calls = []
        orig = matrix._GaussRows.update

        def spy(x, y, c, p, q):
            out = orig(x, y, c, p, q)
            f = (x[0][c], x[1][c])
            calls.append((q, f == (0, 0), p == q, out is x))
            return out

        monkeypatch.setattr(matrix._GaussRows, "update", staticmethod(spy))
        A = Matrix(rows, MODE_GAUSSIAN)
        got, want = A.rref(), _rref_generic(A, A.cols)
        assert got.pivots == want.pivots
        assert got.det == want.det
        assert same_entries(got.rows, want.rows)
        return calls

    def test_non_real_pivots(self, monkeypatch):
        # pivots 1 + i, then the minor (1 + i)(1 - 2i) - 1 = 2 - i: the
        # later steps divide by q with conj(q) != q
        rows = [[gr(1, 1), 1, 2, gr(0, 1)],
                [1, gr(1, -2), 0, 3],
                [2, gr(0, 1), gr(1, -1), 1],
                [gr(0, 3), 1, gr(2, 5), gr(-1, 2)]]
        qs = {q for q, _, _, _ in self.reduce(monkeypatch, rows)}
        assert {(1, 1), (2, -1)} <= qs

    def test_zero_in_the_pivot_column(self, monkeypatch):
        # the last row has no entry under the pivot 1 + i != 1
        rows = [[gr(1, 1), 1, gr(2, -1)],
                [1, gr(1, -2), 0],
                [0, gr(3, 1), gr(1, 1)]]
        calls = self.reduce(monkeypatch, rows)
        assert (matrix._GaussRows.one, True, False, False) in calls

    def test_unit_first_pivot_keeps_rows(self, monkeypatch):
        rows = [[1, 2, gr(0, 1)],
                [0, 3, 1],
                [gr(0, 1), 1, gr(1, 1)]]
        calls = self.reduce(monkeypatch, rows)
        assert calls[0] == ((1, 0), True, True, True)


class TestIsNonsingular:
    @given(st.integers(0, 6), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_determinant(self, n, gauss, data):
        A = data.draw(exact_matrix(rows=(n, gauss), cols=n))
        assert A.is_nonsingular() == (A.det() != 0)

    @pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_GAUSSIAN])
    def test_rank_deficient_is_singular(self, mode):
        c = mode.promote(GaussianRational(1, 2) if mode == MODE_GAUSSIAN
                         else 3)
        r0 = [mode.promote(x) for x in (1, 2, 5)]
        r1 = [mode.promote(Fraction(x, 7)) for x in (0, -1, 4)]
        A = Matrix([r0, r1, [x + c * y for x, y in zip(r0, r1)]], mode)
        assert not A.is_nonsingular()
        assert not Matrix.zeros(2, 2, mode).is_nonsingular()

    def test_multiple_of_the_prime_falls_back(self, monkeypatch):
        # diag(p, 1) vanishes mod p, so only exact elimination proves it
        calls = count_calls(monkeypatch, "rref")
        assert Matrix.diagonal([matrix._P, 1], MODE_RATIONAL).is_nonsingular()
        assert calls

    def test_image_of_i_falls_back(self, monkeypatch):
        # s - i maps to s - s = 0 in GF(p)
        calls = count_calls(monkeypatch, "rref")
        z = GaussianRational(matrix._I_MOD_P, -1)
        assert Matrix.diagonal([z, 1], MODE_GAUSSIAN).is_nonsingular()
        assert calls

    def test_root_of_minus_one_mod_the_prime(self):
        assert sympy.isprime(matrix._P) and matrix._P % 4 == 1
        assert (matrix._I_MOD_P ** 2 + 1) % matrix._P == 0

    @pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_GAUSSIAN,
                                      MODE_QUAT_CONJ])
    def test_empty_is_nonsingular(self, mode):
        assert Matrix.zeros(0, 0, mode).is_nonsingular()

    def test_nonsquare_raises(self):
        with pytest.raises(ValueError):
            Matrix.zeros(2, 3, MODE_RATIONAL).is_nonsingular()

    def test_quaternion_and_float_go_through_rank(self, monkeypatch):
        calls = count_calls(monkeypatch, "rank")
        i, j = Quaternion(0, 1), Quaternion(0, 0, 1)
        Q = Matrix([[i, j], [j, i]], MODE_QUAT_CONJ)
        assert Q.is_nonsingular()
        # row 1 = i * row 0 (left multiple) over the quaternions
        assert not Matrix([[1, j], [i, i * j]], MODE_QUAT_CONJ).is_nonsingular()
        F = FieldMode("real-float", "identity", 1e-9)
        assert Matrix([[1.0, 2.0], [3.0, 4.0]], F).is_nonsingular()
        assert not Matrix([[1.0, 2.0], [2.0, 4.0]], F).is_nonsingular()
        assert len(calls) == 4

    def test_generic_gaussian_needs_no_exact_elimination(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("exact elimination reached")

        rng = random.Random(11)
        A = Matrix([[GaussianRational(Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 9)),
                                      rng.randint(-9, 9))
                     for _ in range(11)] for _ in range(11)], MODE_GAUSSIAN)
        assert A.det() != 0
        monkeypatch.setattr(Matrix, "rref", refuse)
        assert A.is_nonsingular()


def check_stored(M):
    """M's integer rows: one per row, each over its least positive
    denominator, and each the integer row of its own scalars."""
    ring = matrix._RINGS[M.mode.base]
    rows = M._ints()
    assert len(rows) == M.rows
    for v, d in rows:
        ints = v if ring is matrix._IntRows else v[0] + v[1]
        assert d > 0 and math.gcd(d, *ints) == 1
        assert len(ints) == M.cols * (1 if ring is matrix._IntRows else 2)
        assert ring.vector(ring.scalars(v, d)) == (v, d)
    return M


def entries(M):
    return [list(row) for row in M.a]


class TestStoredRows:
    """Rational and Gaussian-rational matrices are stored as integer rows;
    every operation keeps them least, and reads back the scalars that the
    entrywise definition gives."""

    @given(exact_pair())
    @settings(max_examples=150, deadline=None)
    def test_products_and_stacks(self, pair):
        A, B = pair
        a, b = entries(A), entries(B)
        assert entries(check_stored(A * B)) == entries(_mul_generic(A, B))
        assert entries(check_stored(A.hstack(A))) == [r + r for r in a]
        assert entries(check_stored(B.vstack(B))) == b + b
        assert entries(check_stored(A + A)) == [[x + x for x in r] for r in a]
        assert entries(check_stored(A - A)) == [[0] * A.cols] * A.rows
        rows = list(range(A.rows))[::-2]
        cols = list(range(A.cols))[1::2]
        assert (entries(check_stored(A.submatrix(rows, cols)))
                == [[a[i][j] for j in cols] for i in rows])
        at = [[a[i][j] for i in range(A.rows)] for j in range(A.cols)]
        assert entries(check_stored(A.transpose())) == at
        assert entries(check_stored(A.conj_transpose())) == [
            [x.conj() if A.mode == MODE_GAUSSIAN else x for x in c]
            for c in at]
        if A.mode == MODE_RATIONAL:
            C = check_stored(A.cast(MODE_GAUSSIAN))
            assert entries(C) == [[GaussianRational(x) for x in r] for r in a]

    @given(exact_matrix())
    @settings(max_examples=150, deadline=None)
    def test_eliminations(self, A):
        red = A.rref()
        check_stored(red.rows)
        K = check_stored(A.right_kernel())
        assert (K.rows, K.cols) == (A.cols, A.cols - len(red.pivots))
        assert A * K == Matrix.zeros(A.rows, K.cols, A.mode)
        if A.is_square():
            assert A.is_nonsingular() == (A.det() != 0)
            assert char_poly(A).c == _char_poly_generic(A)[::-1]
        if A.is_square() and A.det() != 0:
            X = check_stored(A.inverse())
            assert A * X == Matrix.identity(A.rows, A.mode)
            B = A.submatrix(range(A.rows), range(A.cols)[::-1])
            assert entries(check_stored(A.solve(B))) == entries(
                Matrix.identity(A.rows, A.mode).submatrix(
                    range(A.rows), range(A.cols)[::-1]))

    @given(st.integers(0, 6), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_images_mod_p_read_one_common_denominator(self, n, gauss, data):
        A = data.draw(exact_matrix(rows=(n, gauss), cols=n))
        d = math.lcm(*[x.as_integer_ratio()[1] for row in A.a for z in row
                       for x in ((z.re, z.im) if gauss else (z,))])
        B, Bc = matrix._images_mod_p(A)
        s = matrix._I_MOD_P
        image = lambda z, t: (z.re * d + t * z.im * d if gauss else z * d)
        assert B == [[int(image(z, s)) % matrix._P for z in row]
                     for row in A.a]
        t = -s if gauss and A.mode.involution != IDENTITY else s
        assert Bc == [[int(image(A.a[i][j], t)) % matrix._P
                       for i in range(n)] for j in range(n)]

    @given(exact_matrix(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equality_is_entrywise(self, A, data):
        B = Matrix(entries(A), A.mode, shape=(A.rows, A.cols))
        assert A == B
        if A.rows and A.cols:
            i = data.draw(st.integers(0, A.rows - 1))
            j = data.draw(st.integers(0, A.cols - 1))
            x = data.draw(st.sampled_from([0, 1, Fraction(-1, 3)]))
            B.a[i][j] = A.mode.promote(x)
            same = all(x == y for r, s in zip(A.a, B.a)
                       for x, y in zip(r, s))
            assert (A == B) == same == (B == A)

    @pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_GAUSSIAN])
    def test_empty_shapes(self, mode):
        E, F = Matrix.zeros(0, 3, mode), Matrix.zeros(3, 0, mode)
        full = Matrix([[1, 2, 0], [0, 1, 5], [3, 0, 1]], mode)
        for M in (E, F, E * F, F * E, E.transpose(), F.conj_transpose(),
                  F.hstack(F), E.vstack(E), F.submatrix([2, 0], []),
                  full.right_kernel(), F.rref().rows, E.rref().rows):
            check_stored(M)
        assert (full.right_kernel().rows, full.right_kernel().cols) == (3, 0)
        assert F * E == Matrix.zeros(3, 3, mode)
        assert (E * F).rows == (E * F).cols == 0


class TestWritesThroughA:
    """Reading a makes the scalar rows the storage, so a write through it is
    seen by every later operation, never hidden by stale integer rows."""

    @pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_GAUSSIAN])
    def test_write_into_zeros_then_multiply(self, mode):
        Z = Matrix.zeros(2, 2, mode)
        assert Z * Z == Matrix.zeros(2, 2, mode)  # builds the integer rows
        Z.a[0][1] = mode.promote(Fraction(3, 2))
        assert Z * Matrix.identity(2, mode) == Matrix([[0, Fraction(3, 2)],
                                                       [0, 0]], mode)
        Z.a[1][0] = mode.promote(2)
        assert Z * Z == Matrix([[3, 0], [0, 3]], mode)

    @pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_GAUSSIAN])
    def test_write_into_a_product_then_multiply_again(self, mode):
        A = Matrix([[1, 2], [3, 4]], mode)
        P = A * A
        assert P.a[0][0] == 7
        P.a[0][0] = mode.promote(Fraction(1, 5))
        P.a[1] = [mode.promote(0), mode.promote(1)]
        want = Matrix([[Fraction(1, 5), 10], [0, 1]], mode)
        assert P == want
        assert P * A == Matrix([[Fraction(151, 5), Fraction(202, 5)],
                                [3, 4]], mode)
        P.a[1][1] = mode.promote(-1)  # after an operation, through a again
        assert P.conj_transpose() == Matrix([[Fraction(1, 5), 0],
                                             [10, -1]], mode)


class TestStructure:
    def test_direct_sum(self):
        S = direct_sum(mat([[1]]), mat([[2, 0], [0, 3]]))
        assert S == mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])

    def test_skew_sum(self):
        S = skew_sum(mat([[1, 2]]), mat([[3], [4]]))
        assert S.rows == S.cols == 3
        assert S.a[0][2] == 3 and S.a[1][2] == 4
        assert S.a[2][0] == 1 and S.a[2][1] == 2

    def test_realify_multiplicative(self):
        A = Matrix([[GaussianRational(1, 2)]], MODE_GAUSSIAN)
        B = Matrix([[GaussianRational(0, 1)]], MODE_GAUSSIAN)
        assert realify(A * B) == realify(A) * realify(B)

    def test_complexify_inverts_realify_structure(self):
        A = Matrix([[GaussianRational(2, -1), GaussianRational(0, 3)],
                    [GaussianRational(1), GaussianRational(1, 1)]],
                   MODE_GAUSSIAN)
        R = realify(A)
        assert R.mode == MODE_RATIONAL
        assert R.rows == 2 * A.rows
        assert complexify(R).rank() == R.rank()

    def test_hstack_vstack_shapes(self):
        A, B = mat([[1], [2]]), mat([[3], [4]])
        assert A.hstack(B).cols == 2
        assert A.vstack(B).rows == 4

    def test_json_round_trip(self):
        A = Matrix([[GaussianRational(1, -2), GaussianRational(Fraction(1, 3))]],
                   MODE_GAUSSIAN)
        assert Matrix.from_json(A.to_json()) == A

    @pytest.mark.parametrize("tol", [0.0, 1e-6, None])
    def test_json_round_trip_keeps_a_float_tolerance(self, tol):
        # a tolerance of 0 must not come back as the default
        A = Matrix([[0.5, -1.25]], FieldMode(REAL_FLOAT, IDENTITY, tol))
        B = Matrix.from_json(A.to_json())
        assert B.mode == A.mode and B == A

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0)])
    def test_json_empty_shapes(self, m, n):
        A = Matrix.zeros(m, n, MODE_RATIONAL)
        B = Matrix.from_json(A.to_json())
        assert (B.rows, B.cols) == (m, n) and B == A

    @pytest.mark.parametrize("rows, cols", [(3, 3), (2, 3), (3, 2), (0, 2)])
    def test_json_rejects_a_shape_the_entries_miss(self, rows, cols):
        data = mat([[1, 0], [0, 1]]).to_json()
        data["rows"], data["cols"] = rows, cols
        with pytest.raises(ValueError, match="declared"):
            Matrix.from_json(data)


class TestPoly:
    def test_mul_and_eval(self):
        p = Poly([1, 1], MODE_RATIONAL)        # 1 + x
        q = Poly([-1, 1], MODE_RATIONAL)       # -1 + x
        assert p * q == Poly([-1, 0, 1], MODE_RATIONAL)
        assert (p ** 2).eval(rational(2)) == 9

    def test_monic(self):
        p = Poly([2, 4], MODE_RATIONAL)
        assert p.monic() == Poly([Fraction(1, 2), 1], MODE_RATIONAL)

    def test_degree_strips_leading_zeros(self):
        p = Poly([1, 2, 0, 0], MODE_RATIONAL)
        assert p.degree == 1
