"""Exact and float matrix arithmetic, factorizations, polynomial helpers."""

import functools
import math
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from congruence.scalar import (GaussianRational, FieldMode, MODE_RATIONAL,
                               MODE_GAUSSIAN, MODE_GF2, MODE_QUAT_CONJ, GF2,
                               MODE_COMPLEX_FLOAT, MODE_REAL_FLOAT, Quaternion,
                               REAL_FLOAT, IDENTITY, rational)
from congruence import matrix
from congruence.matrix import (Matrix, Poly, char_poly, direct_sum, skew_sum,
                               realify, complexify, _rref_generic)


def mat(rows, mode=MODE_RATIONAL):
    return Matrix(rows, mode)


# the entrywise definitions on the scalars, the oracles of the row arithmetic

def _mul_generic(A, B):
    """A B entrywise: sum over k of A[i][k] B[k][j], from zero, in order."""
    b, z = B.a, A.mode.zero()
    out = [[functools.reduce(lambda s, k: s + row[k] * b[k][j],
                             range(A.cols), z)
            for j in range(B.cols)] for row in A.a]
    return Matrix(out, A.mode, promote=False, shape=(A.rows, B.cols))


def _char_poly_generic(A):
    """char_poly's coefficients, highest power first, on A's scalars: each
    step of v <- v A_r and v C is one row of products with [A_r | C]."""
    mode = A.mode
    zero, one = mode.zero(), mode.one()
    a = A.a
    p = [one]
    for r in range(A.rows):
        col = [one, -a[r][r]]
        AC = list(zip(*[row[:r + 1] for row in a[:r]]))
        v = a[r][:r]
        for _ in range(r):
            w = [sum(map(operator.mul, v, c), zero) for c in AC]
            col.append(-w[r])
            v = w[:r]
        p = [sum(map(operator.mul, col[i::-1], p), zero)
             for i in range(r + 2)]
    return p


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

    @pytest.mark.parametrize("scalar", [2, rational(1, 2),
                                        GaussianRational(0, 1)])
    def test_scalar_factors_raise(self, scalar):
        # a scalar factor goes through scale_left
        A = mat([[1, 2], [3, 4]])
        with pytest.raises(TypeError):
            A * scalar
        with pytest.raises(TypeError):
            scalar * A

    @pytest.mark.parametrize("other", [
        Matrix([[GaussianRational(1, 1), 0], [0, 1]], MODE_GAUSSIAN),
        Matrix([[1.5, 0.0], [0.0, 1.0]], FieldMode(REAL_FLOAT, IDENTITY)),
    ])
    def test_binary_operations_take_one_base(self, other):
        """Sums, products and stacks of matrices over two bases raise, and
        matrices over two bases are never equal."""
        Q = mat([[1, 2], [3, 4]])
        for op in (operator.add, operator.sub, operator.mul, Matrix.hstack,
                   Matrix.vstack):
            with pytest.raises(ValueError, match="base mismatch"):
                op(Q, other)
            with pytest.raises(ValueError, match="base mismatch"):
                op(other, Q)
        I = Matrix.identity(2, other.mode)
        assert Matrix.identity(2, MODE_RATIONAL) != I
        assert I != Matrix.identity(2, MODE_RATIONAL)


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
    if m >= 3 and draw(st.booleans()):
        c = GaussianRational(2, -1) if gauss else Fraction(-3, 2)
        out[m - 1] = [x + c * y for x, y in zip(out[0], out[1])]
    if m and draw(st.booleans()):
        out[draw(st.integers(0, m - 1))] = [0] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in out:
            row[j] = 0
    return Matrix(out, mode, shape=(m, n))


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
        # a residue must stay one CPython digit (30 bits), so that each
        # reduction mod p is a single-digit division
        assert matrix._P < 2 ** 30

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
    rows = M._rows
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

    @given(st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mod_p_elimination_matches_the_exact_one(self, gauss, data):
        # where the image in GF(_P) keeps the rank, _bareiss mod p finds the
        # exact pivots and _kernel_mod_p the image of the exact kernel basis
        m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
        small = st.integers(-3, 3)
        entry = st.builds(GaussianRational, small, small) if gauss else small
        A = Matrix(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                      min_size=m, max_size=m)),
                   MODE_GAUSSIAN if gauss else MODE_RATIONAL, shape=(m, n))
        ring, P = matrix._RINGS[A.mode.base], matrix._P
        rows = [ring.mod_p(v) for v, _ in A._rows]
        pivots = matrix._bareiss(list(rows), n, matrix._ModP)[0]
        red = A.rref()
        assume(len(pivots) == len(red.pivots))
        assert pivots == red.pivots

        def image(z):
            re, im = (z.re, z.im) if gauss else (z, 0)
            q = Fraction(re) + matrix._I_MOD_P * Fraction(im)
            return q.numerator * pow(q.denominator, -1, P) % P

        K = A.right_kernel()
        assert matrix._kernel_mod_p(rows, n) == [
            [image(K.a[i][j]) for i in range(n)] for j in range(K.cols)]

    @given(exact_matrix(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equality_is_entrywise(self, A, data):
        rows = entries(A)
        assert A == Matrix(rows, A.mode, shape=(A.rows, A.cols))
        if A.rows and A.cols:
            i = data.draw(st.integers(0, A.rows - 1))
            j = data.draw(st.integers(0, A.cols - 1))
            x = data.draw(st.sampled_from([0, 1, Fraction(-1, 3)]))
            rows[i][j] = A.mode.promote(x)
            B = Matrix(rows, A.mode, shape=(A.rows, A.cols))
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


_Q = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
_FLOAT = st.floats(-8, 8)
SCALARS = {
    MODE_RATIONAL: _Q,
    MODE_GAUSSIAN: st.builds(GaussianRational, _Q, _Q),
    MODE_QUAT_CONJ: st.builds(Quaternion, _Q, _Q, _Q, _Q),
    MODE_GF2: st.builds(GF2, st.integers(0, 1)),
    MODE_REAL_FLOAT: _FLOAT,
    MODE_COMPLEX_FLOAT: st.builds(complex, _FLOAT, _FLOAT),
}


class TestRowOperations:
    """scale_left, unary minus and diagonal work on the stored rows of every
    base, and read back the entrywise results."""

    @given(st.sampled_from(list(SCALARS)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_scale_negate_diagonal(self, mode, data):
        scalar = SCALARS[mode]
        m, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        A = Matrix([[data.draw(scalar) for _ in range(n)] for _ in range(m)],
                   mode, shape=(m, n))
        c = data.draw(scalar)
        d = data.draw(st.lists(scalar, max_size=5))
        z = mode.zero()
        for M, want in [
                (A.scale_left(c), [[c * x for x in r] for r in A.a]),
                (-A, [[-x for x in r] for r in A.a]),
                (Matrix.diagonal(d, mode),
                 [[x if i == j else z for j in range(len(d))]
                  for i, x in enumerate(d)])]:
            assert entries(M) == want
            assert all(type(x) is type(z) for r in M.a for x in r)
            if mode.base in matrix._RINGS:
                check_stored(M)


class TestImmutable:
    """A Matrix never changes after its construction: the rows that `a`
    returns are tuples, built anew over the exact bases."""

    @pytest.mark.parametrize("mode, rows", [
        (MODE_RATIONAL, [[1, Fraction(1, 2)], [0, 3]]),
        (MODE_GAUSSIAN, [[GaussianRational(1, 1), 2], [0, Fraction(1, 3)]]),
        (FieldMode(REAL_FLOAT, IDENTITY), [[1.5, 2.0], [0.0, 3.0]]),
        (MODE_QUAT_CONJ, [[Quaternion(0, 1), 1], [0, Quaternion(0, 0, 1)]]),
        (MODE_GF2, [[GF2(1), GF2(0)], [GF2(1), GF2(1)]]),
    ])
    def test_writes_into_a_never_reach_the_matrix(self, mode, rows):
        M, copy = Matrix(rows, mode), Matrix(rows, mode)
        M * M  # an operation before the reads
        a = M.a
        with pytest.raises(TypeError):
            a[0][0] = mode.one()
        with pytest.raises(TypeError):
            a[1] = a[0]
        assert M == copy and M.a == copy.a and M * M == copy * copy

    def test_exact_matrix_keeps_its_rank_deficient_draws(self):
        """The strategy's dependent row, zero row and zero column take
        effect: 177 of the 274 draws with three rows or more are rank
        deficient, 65 when the matrix is built before them."""
        drawn = []

        @given(exact_matrix())
        @settings(max_examples=400, derandomize=True, database=None,
                  deadline=None)
        def draw(A):
            if A.rows >= 3:
                drawn.append(A.rank() < min(A.rows, A.cols))

        draw()
        assert sum(drawn) * 274 >= 177 * len(drawn)


class TestStructure:
    def test_direct_sum(self):
        S = direct_sum(mat([[1]]), mat([[2, 0], [0, 3]]))
        assert S == mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])

    def test_skew_sum(self):
        S = skew_sum(mat([[1, 2]]), mat([[3], [4]]))
        assert S.rows == S.cols == 3
        assert S.a[0][2] == 3 and S.a[1][2] == 4
        assert S.a[2][0] == 1 and S.a[2][1] == 2

    @given(st.sampled_from(list(SCALARS)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_sums_are_the_stacks_of_their_blocks(self, mode, data):
        # the rows of each block placed among zeros are those of stacking
        # the block beside zero matrices, over every base
        def block():
            m, n = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
            return Matrix([[data.draw(SCALARS[mode]) for _ in range(n)]
                           for _ in range(m)], mode, shape=(m, n))

        def zeros(m, n):
            return Matrix.zeros(m, n, mode)

        def stored(M):
            return M._shape, (M._rows if mode.base in matrix._RINGS
                              else M.a)

        blocks = [block() for _ in range(data.draw(st.integers(1, 4)))]
        n = sum(x.cols for x in blocks)
        want, j = zeros(0, n), 0
        for x in blocks:
            want = want.vstack(zeros(x.rows, j).hstack(x).hstack(
                zeros(x.rows, n - j - x.cols)))
            j += x.cols
        assert stored(direct_sum(*blocks)) == stored(want)
        A, B = blocks[0], block()
        want = zeros(B.rows, A.cols).hstack(B).vstack(
            A.hstack(zeros(A.rows, B.cols)))
        assert stored(skew_sum(A, B)) == stored(want)

    def test_sums_need_one_base(self):
        Q, G = mat([[1]]), mat([[1]], MODE_GAUSSIAN)
        for bad in (lambda: direct_sum(Q, G), lambda: skew_sum(Q, G),
                    lambda: skew_sum(G, Q)):
            with pytest.raises(ValueError, match="base mismatch"):
                bad()

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

    def test_str_prints_the_scalars_alike_over_q_and_q_i(self):
        # a rational printed by repr reads Fraction(7, 2), by str 7/2
        rows = [[Fraction(1, 2), 1], [0, 3]]
        over_q, over_qi = Matrix(rows, MODE_RATIONAL), Matrix(rows, MODE_GAUSSIAN)
        assert str(char_poly(over_q)) == str(char_poly(over_qi)) \
            == "1*x^2 + -7/2*x + 3/2"
        assert str(over_q) == str(over_qi) == "1/2 1\n0 3"
