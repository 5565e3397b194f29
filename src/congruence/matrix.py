"""Dense matrices and univariate polynomials over a FieldMode.

Everything here is pure: operations return new objects.  Matrix entries are
the scalars of scalar.py; this module owns how products, elimination and
the characteristic polynomial treat them, through two back ends chosen by
the base alone:

- over the rationals and the Gaussian rationals, each row (or column) is
  written as integer numerators over one common denominator.  Products are
  integer dot products; elimination is fraction-free (Bareiss), dividing
  exactly by the previous pivot; char_poly, the third primitive here, runs
  Berkowitz's division-free recursion on the integer rows of d A.  Each is
  written once: only the integer arithmetic differs, ints over the
  rationals and (re, im) int pairs over the Gaussian rationals.  Each result
  entry or coefficient becomes one rational(num, den) at the end, so
  gmpy2's rationals serve when present;
- over the quaternions, GF(2) and the floats, one generic scalar
  elimination uses left-multiplication row operations (valid over the
  noncommutative quaternions) and, for floats, the largest pivot above a
  tolerance relative to the matrix scale; char_poly runs Berkowitz on the
  scalars of GF(2) and the floats.

Matrix.rref is the one elimination primitive of both back ends; rank, det,
inverse, solve and right_kernel read its result.  Matrix.is_nonsingular
first tries a cheaper exact certificate: the integer rows reduced mod one
prime.
"""

from collections import namedtuple
from math import lcm, prod
from operator import mul

from .scalar import (FieldMode, GaussianRational, rational,
                     RATIONAL, GAUSSIAN, QUATERNION, REAL_FLOAT,
                     COMPLEX_FLOAT, MODE_RATIONAL, MODE_REAL_FLOAT,
                     complex_mode, scalar_to_json, scalar_from_json)

Reduction = namedtuple("Reduction", "pivots rows det")


class Matrix:
    __slots__ = ("a", "mode", "_shape")

    def __init__(self, rows, mode, promote=True, shape=None):
        if promote:
            rows = [[mode.promote(e) for e in row] for row in rows]
        ncols = {len(row) for row in rows}
        if len(ncols) > 1:
            raise ValueError("ragged rows")
        if shape is None:
            shape = (len(rows), len(rows[0]) if rows else 0)
        self.a = rows
        self.mode = mode
        self._shape = shape

    # -- construction -------------------------------------------------------

    @staticmethod
    def zeros(m, n, mode):
        z = mode.zero()
        return Matrix([[z] * n for _ in range(m)], mode, promote=False,
                      shape=(m, n))

    @staticmethod
    def identity(n, mode):
        z, o = mode.zero(), mode.one()
        return Matrix([[o if i == j else z for j in range(n)]
                       for i in range(n)], mode, promote=False)

    @staticmethod
    def diagonal(entries, mode):
        n = len(entries)
        z = mode.zero()
        rows = [[z] * n for _ in range(n)]
        for i, e in enumerate(entries):
            rows[i][i] = mode.promote(e)
        return Matrix(rows, mode, promote=False)

    # -- shape --------------------------------------------------------------

    @property
    def rows(self):
        return self._shape[0]

    @property
    def cols(self):
        return self._shape[1]

    def is_square(self):
        return self.rows == self.cols

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix([[x + y for x, y in zip(r1, r2)]
                       for r1, r2 in zip(self.a, other.a)], self.mode,
                      promote=False, shape=self._shape)

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix([[x - y for x, y in zip(r1, r2)]
                       for r1, r2 in zip(self.a, other.a)], self.mode,
                      promote=False, shape=self._shape)

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self.a], self.mode,
                      promote=False, shape=self._shape)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch %dx%d * %dx%d"
                                 % (self.rows, self.cols, other.rows, other.cols))
            if self.mode.base in _RINGS and other.mode.base == self.mode.base:
                return _mul_int(self, other)
            return _mul_generic(self, other)
        return self.scale_left(other)

    def __rmul__(self, other):
        return self.scale_left(other)

    def scale_left(self, c):
        c = self.mode.promote(c)
        return Matrix([[c * x for x in row] for row in self.a], self.mode,
                      promote=False, shape=self._shape)

    def minus_scalar(self, c):
        """self - c I, for a square matrix."""
        c = self.mode.promote(c)
        rows = [row[:] for row in self.a]
        for i, row in enumerate(rows):
            row[i] = row[i] - c
        return Matrix(rows, self.mode, promote=False, shape=self._shape)

    def scale_right(self, c):
        c = self.mode.promote(c)
        return Matrix([[x * c for x in row] for row in self.a], self.mode,
                      promote=False, shape=self._shape)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        eq = self.mode.eq
        return all(eq(x, y) for r1, r2 in zip(self.a, other.a)
                   for x, y in zip(r1, r2))

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        return "Matrix(%d x %d over %s)" % (self.rows, self.cols, self.mode.base)

    def __str__(self):
        return "\n".join(" ".join(repr(e) for e in row) for row in self.a)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- transposes ---------------------------------------------------------

    def transpose(self):
        return Matrix([[self.a[i][j] for i in range(self.rows)]
                       for j in range(self.cols)], self.mode, promote=False,
                      shape=(self.cols, self.rows))

    def conj_transpose(self):
        inv = self.mode.involve
        return Matrix([[inv(self.a[i][j]) for i in range(self.rows)]
                       for j in range(self.cols)], self.mode, promote=False,
                      shape=(self.cols, self.rows))

    def conj(self):
        inv = self.mode.involve
        return Matrix([[inv(e) for e in row] for row in self.a], self.mode,
                      promote=False, shape=self._shape)

    # -- elimination --------------------------------------------------------

    def rref(self, limit=None):
        """Reduced row echelon form: Reduction(pivots, rows, det).

        pivots are the pivot columns, sought among the first `limit` columns
        (all by default; the rest ride along as right-hand sides), each on
        the first usable row.  rows is the len(pivots) x cols matrix of the
        reduced pivot rows: 1 at each pivot, 0 elsewhere in pivot columns.
        det is the determinant of a square matrix reduced over all its
        columns, else None (and always None over the quaternions).
        The transform rides along the same way: for a nonsingular square
        self, reducing [self | B] with limit=self.cols leaves self^-1 B in
        the right block (solve; inverse takes B = I).
        """
        if limit is None:
            limit = self.cols
        if self.mode.base in _RINGS:
            return _rref_int(self, limit)
        return _rref_generic(self, limit)

    def rank(self):
        return len(self.rref().pivots)

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of a nonsquare matrix")
        if self.mode.base == QUATERNION:
            raise ValueError("no determinant over the quaternions here")
        return self.rref().det

    def is_nonsingular(self):
        """Whether this square matrix is nonsingular, proved exactly.

        Over the rationals and Gaussian rationals each row is scaled to
        integer numerators, which keeps det = 0 or det != 0 as it was, and
        mapped into GF(_P) by the ring homomorphism Z[i] -> GF(_P),
        i -> _I_MOD_P.  The determinant maps to the determinant of the
        image, so a nonzero image proves det != 0 with no tolerance and no
        chance involved.  A zero image proves nothing: that case, and every
        other base, is decided by rank (exact elimination, or the float
        tolerance).
        """
        if not self.is_square():
            raise ValueError("nonsingularity of a nonsquare matrix")
        ring = _RINGS.get(self.mode.base)
        if ring is not None and _nonzero_mod_p(
                [ring.mod_p(ring.vector(row)[0]) for row in self.a]):
            return True
        return self.rank() == self.rows

    def inverse(self):
        return self.solve(Matrix.identity(self.rows, self.mode))

    def right_kernel(self):
        """Columns spanning {x : A x = 0}: one per free column f, with
        x_f = 1 and the other free coordinates 0."""
        mode = self.mode
        n = self.cols
        red = self.rref()
        pivset = set(red.pivots)
        free = [c for c in range(n) if c not in pivset]
        zero, one = mode.zero(), mode.one()
        out = [[zero] * len(free) for _ in range(n)]
        for j, fc in enumerate(free):
            out[fc][j] = one
            for pc, row in zip(red.pivots, red.rows.a):
                out[pc][j] = -row[fc]
        return Matrix(out, mode, promote=False, shape=(n, len(free)))

    def solve(self, B):
        """X with self * X = B (self square nonsingular)."""
        if not self.is_square():
            raise ValueError("solve (and inverse) need a square matrix")
        n = self.rows
        red = self.hstack(B).rref(limit=n)
        if len(red.pivots) != n:
            raise ValueError("singular matrix")
        return red.rows.submatrix(range(n), range(n, n + B.cols))

    # -- block structure ----------------------------------------------------

    def submatrix(self, rows, cols):
        return Matrix([[self.a[i][j] for j in cols] for i in rows],
                      self.mode, promote=False,
                      shape=(len(rows), len(cols)))

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Matrix([r1 + r2 for r1, r2 in zip(self.a, other.a)],
                      self.mode, promote=False,
                      shape=(self.rows, self.cols + other.cols))

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return Matrix(self.a + other.a, self.mode, promote=False,
                      shape=(self.rows + other.rows, self.cols))

    # -- scalar-type changes -------------------------------------------------

    def cast(self, mode):
        return Matrix(self.a, mode)

    def to_json(self):
        return {
            "mode": {"base": self.mode.base,
                     "involution": self.mode.involution,
                     "tolerance": self.mode.tolerance},
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[scalar_to_json(e) for e in row] for row in self.a],
        }

    @staticmethod
    def from_json(data):
        m = data["mode"]
        mode = FieldMode(m["base"], m["involution"], m.get("tolerance"))
        shape = (data["rows"], data["cols"])
        rows = [[scalar_from_json(e, mode) for e in row]
                for row in data["entries"]]
        if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
            raise ValueError("entries do not match the declared %rx%r shape"
                             % shape)
        return Matrix(rows, mode, promote=False, shape=shape)


# -- generic scalar back end ------------------------------------------------

def _mul_generic(A, B):
    z = A.mode.zero()
    b = B.a
    out = []
    for row in A.a:
        new = []
        for j in range(B.cols):
            s = z
            for k, x in enumerate(row):
                s = s + x * b[k][j]
            new.append(s)
        out.append(new)
    return Matrix(out, A.mode, promote=False, shape=(A.rows, B.cols))


def _rref_generic(M, limit):
    """Gauss-Jordan elimination over any base with left-multiplication row
    operations.  Exact bases pivot on the first nonzero entry; floats on the
    largest entry above the tolerance times the largest entry overall."""
    mode = M.mode
    m, n = M.rows, M.cols
    R = [row[:] for row in M.a]
    zero, one = mode.zero(), mode.one()
    if mode.exact:
        negligible = mode.is_zero
    else:
        scale = max([mode.abs_key(x) for row in R for x in row] + [1.0])
        thr = mode.tolerance * scale
        negligible = lambda v: mode.abs_key(v) <= thr
    pivots = []
    det = one
    r = 0
    for c in range(limit):
        if r == m:
            break
        best, key = None, None
        for i in range(r, m):
            if not negligible(R[i][c]):
                if mode.exact:
                    best = i
                    break
                k = mode.abs_key(R[i][c])
                if best is None or k > key:
                    best, key = i, k
        if best is None:
            continue
        if best != r:
            R[r], R[best] = R[best], R[r]
            det = -det
        det = det * R[r][c]
        pinv = mode.inv(R[r][c])
        R[r] = [pinv * x for x in R[r]]
        R[r][c] = one
        for i in range(m):
            if i == r or mode.is_zero(R[i][c]):
                continue
            f = R[i][c]
            R[i] = [x - f * y for x, y in zip(R[i], R[r])]
            R[i][c] = zero
        pivots.append(c)
        r += 1
    if not m == n == limit or mode.base == QUATERNION:
        det = None
    elif len(pivots) < n:
        det = zero
    k = len(pivots)
    return Reduction(pivots, Matrix(R[:k], mode, promote=False, shape=(k, n)),
                     det)


# -- integer-numerator back end (rational and Gaussian-rational bases) ------
#
# A vector is held as integer numerators over one common denominator.  The
# product and the elimination below, and char_poly's Berkowitz after Poly,
# are written once; only the arithmetic on the integer rows depends on the
# base, and _RINGS holds it.

_Q0 = rational(0)

# the prime of Matrix.is_nonsingular; _P = 1 (mod 4), so -1 has the square
# root _I_MOD_P in GF(_P) and i -> _I_MOD_P maps Z[i] into GF(_P)
_P = 2147483629
_I_MOD_P = 629208553


def _q(num, den):
    """num / den as a rational."""
    if not num:
        return _Q0
    return rational(num) if den == 1 else rational(num, den)


def _scaled(ratios):
    den = lcm(*[b for _, b in ratios])
    return [a * (den // b) for a, b in ratios], den


class _IntRows:
    """Rationals: a row is one int list, an entry one int."""
    one = 1

    @staticmethod
    def vector(vec):
        return _scaled([x.as_integer_ratio() for x in vec])

    @staticmethod
    def nonzero(row):
        return any(row)

    @staticmethod
    def dot(x, y):
        return sum(map(mul, x, y))

    @staticmethod
    def part(vec, s):
        return vec[s]

    @staticmethod
    def pack(entries):
        return entries

    @staticmethod
    def scalar(num, den):
        return _q(num, den)

    @staticmethod
    def at(row, c):
        return row[c]

    @staticmethod
    def update(x, y, c, p, q):
        """(p x - x[c] y) / q, exact."""
        f = x[c]
        if f:
            return [(p * a - f * b) // q for a, b in zip(x, y)]
        if p != q:
            return [p * a // q for a in x]
        return x

    @staticmethod
    def divide(row, d):
        return [_q(a, d) for a in row]

    @staticmethod
    def mod_p(row):
        return [a % _P for a in row]


class _GaussRows:
    """Gaussian rationals: a row is a pair (re, im) of int lists, an entry a
    (re, im) pair of ints."""
    one = (1, 0)

    @staticmethod
    def vector(vec):
        n = len(vec)
        ints, den = _scaled([x.re.as_integer_ratio() for x in vec]
                            + [x.im.as_integer_ratio() for x in vec])
        return (ints[:n], ints[n:]), den

    @staticmethod
    def nonzero(row):
        return any(row[0]) or any(row[1])

    @staticmethod
    def dot(x, y):
        (xr, xi), (yr, yi) = x, y
        return (sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)),
                sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)))

    @staticmethod
    def part(vec, s):
        """The entries that the slice s picks."""
        return vec[0][s], vec[1][s]

    @staticmethod
    def pack(entries):
        """The row of a list of (re, im) entries."""
        return [a for a, _ in entries], [b for _, b in entries]

    @staticmethod
    def scalar(num, den):
        return GaussianRational(_q(num[0], den), _q(num[1], den))

    @staticmethod
    def at(row, c):
        """The entry in column c, or 0 when it is zero."""
        re, im = row[0][c], row[1][c]
        return (re, im) if re or im else 0

    @staticmethod
    def update(x, y, c, p, q):
        """(p x - x[c] y) / q = ((p conj(q)) x - (x[c] conj(q)) y) / |q|^2,
        exact in Z[i]: conj(q) is folded into the two scalars."""
        (xr, xi), (yr, yi) = x, y
        (pr, pi), (qr, qi) = p, q
        fr, fi = xr[c], xi[c]
        if not (fr or fi) and p == q:
            return x
        nq = qr * qr + qi * qi
        sr, si = pr * qr + pi * qi, pi * qr - pr * qi
        if fr or fi:
            gr, gi = fr * qr + fi * qi, fi * qr - fr * qi
            return ([(sr * a - si * b - gr * u + gi * v) // nq
                     for a, b, u, v in zip(xr, xi, yr, yi)],
                    [(sr * b + si * a - gr * v - gi * u) // nq
                     for a, b, u, v in zip(xr, xi, yr, yi)])
        return ([(sr * a - si * b) // nq for a, b in zip(xr, xi)],
                [(sr * b + si * a) // nq for a, b in zip(xr, xi)])

    @staticmethod
    def divide(row, d):
        # x / (dr + i di) = x (dr - i di) / |d|^2
        dr, di = d
        nd = dr * dr + di * di
        return [GaussianRational(_q(a * dr + b * di, nd),
                                 _q(b * dr - a * di, nd))
                for a, b in zip(*row)]

    @staticmethod
    def mod_p(row):
        return [(a + _I_MOD_P * b) % _P for a, b in zip(*row)]


_RINGS = {RATIONAL: _IntRows, GAUSSIAN: _GaussRows}


def _mul_int(A, B):
    """A B by one integer dot product per entry, skipping zero rows and
    columns; one rational(num, den) per nonzero part of an entry."""
    mode = A.mode
    m, n = A.rows, B.cols
    if A.cols == 0:
        return Matrix.zeros(m, n, mode)
    ring = _RINGS[mode.base]
    vector, dot, scalar = ring.vector, ring.dot, ring.scalar
    cols = [vector(c) for c in zip(*B.a)]
    live = [j for j, (v, _) in enumerate(cols) if ring.nonzero(v)]
    zero = mode.zero()
    out = []
    for row in A.a:
        a, ad = vector(row)
        new = [zero] * n
        out.append(new)
        if not ring.nonzero(a):
            continue
        for j in live:
            b, bd = cols[j]
            new[j] = scalar(dot(a, b), ad * bd)
    return Matrix(out, mode, promote=False, shape=(m, n))


def _bareiss(rows, limit, ring):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Each update (p x - f y) / q divides exactly by the previous pivot q:
    the entries stay minors of the input.  Returns (pivots, last pivot d,
    sign of the row permutation).  The first len(pivots) rows end as d
    times the reduced rows; for a square matrix d is the determinant of the
    row-permuted input.
    """
    at, update = ring.at, ring.update
    m = len(rows)
    pivots = []
    prev, sign, r = ring.one, 1, 0
    for c in range(limit):
        if r == m:
            break
        p = r
        while p < m and not at(rows[p], c):
            p += 1
        if p == m:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        prow = rows[r]
        piv = at(prow, c)
        for i in range(m):
            if i != r:
                rows[i] = update(rows[i], prow, c, piv, prev)
        prev = piv
        pivots.append(c)
        r += 1
    return pivots, prev, sign


def _rref_int(M, limit):
    """Matrix.rref over the rationals and Gaussian rationals: rows scaled to
    integers, reduced fraction-free, divided back once per entry."""
    mode = M.mode
    m, n = M.rows, M.cols
    ring = _RINGS[mode.base]
    vecs = [ring.vector(row) for row in M.a]
    rows = [v for v, _ in vecs]
    pivots, d, sign = _bareiss(rows, limit, ring)
    k = len(pivots)
    det = None
    if m == n == limit:
        if k < n:
            det = mode.zero()
        else:
            det = ring.scalar(d, prod(den for _, den in vecs))
            if sign < 0:
                det = -det
    out = [ring.divide(rows[r], d) for r in range(k)]
    return Reduction(pivots, Matrix(out, mode, promote=False, shape=(k, n)),
                     det)


def _nonzero_mod_p(rows):
    """Whether the square matrix of residues mod _P in rows has a nonzero
    determinant in GF(_P): forward elimination, dropping each pivot row and
    the first column."""
    while rows:
        k = next((i for i, row in enumerate(rows) if row[0]), None)
        if k is None:
            return False
        prow = rows.pop(k)
        inv = pow(prow[0], -1, _P)
        prow = [b * inv % _P for b in prow[1:]]
        rest = []
        for row in rows:
            f = row[0]
            rest.append([(a - f * b) % _P for a, b in zip(row[1:], prow)]
                        if f else row[1:])
        rows = rest
    return True


def column_complement(S, T):
    """The columns of T that extend the columns of S to a basis of their
    joint span: the pivot columns of [S | T] that fall in T."""
    k = S.cols
    piv = S.hstack(T).rref().pivots
    return T.submatrix(range(T.rows), [j - k for j in piv if j >= k])


def direct_sum(*mats):
    mats = list(mats)
    if not mats:
        raise ValueError("empty direct sum")
    mode = mats[0].mode
    m = sum(x.rows for x in mats)
    n = sum(x.cols for x in mats)
    out = Matrix.zeros(m, n, mode)
    i0 = j0 = 0
    for x in mats:
        for i in range(x.rows):
            for j in range(x.cols):
                out.a[i0 + i][j0 + j] = x.a[i][j]
        i0 += x.rows
        j0 += x.cols
    return out


def skew_sum(A, B):
    """[A \\ B] = [[0, B], [A, 0]] (B upper right, A lower left)."""
    mode = A.mode
    m = B.rows + A.rows
    n = A.cols + B.cols
    out = Matrix.zeros(m, n, mode)
    for i in range(B.rows):
        for j in range(B.cols):
            out.a[i][A.cols + j] = B.a[i][j]
    for i in range(A.rows):
        for j in range(A.cols):
            out.a[B.rows + i][j] = A.a[i][j]
    return out


def realify(M):
    """Replace each entry a+bi by the 2x2 block [[a, -b], [b, a]]."""
    mode = M.mode
    if mode.base == GAUSSIAN:
        new_mode = MODE_RATIONAL
        parts = lambda e: (e.re, e.im)
    elif mode.base == COMPLEX_FLOAT:
        new_mode = MODE_REAL_FLOAT
        parts = lambda e: (e.real, e.imag)
    else:
        raise ValueError("realification needs a complex-type base")
    out = Matrix.zeros(2 * M.rows, 2 * M.cols, new_mode)
    for i in range(M.rows):
        for j in range(M.cols):
            a, b = parts(M.a[i][j])
            out.a[2 * i][2 * j] = a
            out.a[2 * i][2 * j + 1] = -b
            out.a[2 * i + 1][2 * j] = b
            out.a[2 * i + 1][2 * j + 1] = a
    return out


def complexify(M):
    """View a rational or real-float matrix over the complex extension."""
    if M.mode.base in (RATIONAL, REAL_FLOAT):
        return M.cast(complex_mode(M.mode))
    if M.mode.base in (GAUSSIAN, COMPLEX_FLOAT):
        return M
    raise ValueError("cannot complexify base %r" % M.mode.base)


class Poly:
    """Univariate polynomial; coefficient list indexed by power."""

    __slots__ = ("c", "mode")

    def __init__(self, coeffs, mode, promote=True):
        if promote:
            coeffs = [mode.promote(x) for x in coeffs]
        while coeffs and mode.is_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        self.c = coeffs
        self.mode = mode

    @property
    def degree(self):
        return len(self.c) - 1 if self.c else -1

    def is_zero(self):
        return not self.c

    def coeff(self, k):
        if 0 <= k < len(self.c):
            return self.c[k]
        return self.mode.zero()

    def leading(self):
        if not self.c:
            raise ValueError("zero polynomial")
        return self.c[-1]

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.c), len(other.c))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)],
                    self.mode, promote=False)

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.c), len(other.c))
        return Poly([self.coeff(k) - other.coeff(k) for k in range(n)],
                    self.mode, promote=False)

    def __neg__(self):
        return Poly([-x for x in self.c], self.mode, promote=False)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly([], self.mode, promote=False)
        out = [self.mode.zero()] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            for j, y in enumerate(other.c):
                out[i + j] = out[i + j] + x * y
        return Poly(out, self.mode, promote=False)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, k):
        out = Poly([1], self.mode)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        return Poly([other], self.mode)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.degree != other.degree:
            return False
        return all(self.mode.eq(x, y) for x, y in zip(self.c, other.c))

    def __hash__(self):
        return hash(self.degree)

    def monic(self):
        if self.is_zero():
            raise ValueError("zero polynomial")
        lead = self.leading()
        if self.mode.eq(lead, self.mode.one()):
            return self
        linv = self.mode.inv(lead)
        return Poly([linv * x for x in self.c], self.mode, promote=False)

    def eval(self, v):
        v = self.mode.promote(v)
        acc = self.mode.zero()
        for x in reversed(self.c):
            acc = acc * v + x
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            x = self.coeff(k)
            if self.mode.is_zero(x):
                continue
            if k == 0:
                terms.append(repr(x))
            elif k == 1:
                terms.append("%s*x" % repr(x))
            else:
                terms.append("%s*x^%d" % (repr(x), k))
        return " + ".join(terms)

    __repr__ = __str__


def char_poly(A):
    """Monic characteristic polynomial det(xI - A), by Berkowitz's method.

    Nothing is divided, so it holds over every commutative base, GF(2)
    included.  With a, R and C the next diagonal entry, row and column
    beyond the leading r x r block A_r, the block's polynomial p_r gives
    p_(r+1) = T p_r: T is lower-triangular Toeplitz on the column
    (1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C).

    Over the rationals and Gaussian rationals it is the third primitive on
    the integer back end: A is scaled once to the integer (Z[i]) matrix
    N = d A, Berkowitz runs on N's integer rows, and coefficient k of
    det(xI - N), d^k times A's, becomes one rational.  Over GF(2) and the
    floats the same recursion runs on the scalars.
    """
    if not A.is_square():
        raise ValueError("characteristic polynomial of a nonsquare matrix")
    mode = A.mode
    if mode.base == QUATERNION:
        raise ValueError("no characteristic polynomial over the quaternions")
    ring = _RINGS.get(mode.base)
    p = _char_poly_generic(A) if ring is None else _char_poly_int(A, ring)
    return Poly(p[::-1], mode, promote=False)


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
            w = [sum(map(mul, v, c), zero) for c in AC]
            col.append(-w[r])
            v = w[:r]
        p = [sum(map(mul, col[i::-1], p), zero) for i in range(r + 2)]
    return p


def _char_poly_int(A, ring):
    """char_poly's coefficients, highest power first, over the rationals and
    Gaussian rationals: Berkowitz on the integer rows of N = d A, then
    coefficient k divided by d^k."""
    n = A.rows
    dot, part, pack = ring.dot, ring.part, ring.pack
    flat, d = ring.vector([x for row in A.a for x in row])
    rows = [part(flat, slice(i * n, (i + 1) * n)) for i in range(n)]
    zero, one = A.mode.zero(), A.mode.one()
    p = [ring.one]
    for r, row in enumerate(rows):
        # the column is (1, row . u) for u = -e_r, -C, -N_r C, ...: dot cuts
        # the longer rows of N to u's length, so that x . u over the first r
        # rows x is N_r u, and row . u is -a, then -R N_r^k C
        head = rows[:r]
        u = ring.vector([zero] * r + [-one])[0]
        col = [ring.one, dot(row, u)]
        for _ in range(r):
            u = pack([dot(x, u) for x in head])
            col.append(dot(row, u))
        # p <- T p: entry i is col[i], ..., col[0] against p
        col, pv = pack(col), pack(p)
        p = [dot(part(col, slice(i, None, -1)), pv) for i in range(r + 2)]
    return [ring.scalar(c, d ** k) for k, c in enumerate(p)]
