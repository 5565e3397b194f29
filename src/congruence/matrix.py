"""Dense matrices and univariate polynomials over a FieldMode.

Everything here is pure: operations return new objects.  Matrix entries are
the scalars of scalar.py; this module owns how they are stored and how
products, elimination and the characteristic polynomial treat them, through
two back ends chosen by the base alone:

- over the rationals and the Gaussian rationals a matrix is stored as
  integer rows: each row its numerators (ints, or a pair (re, im) of int
  lists) over its least positive denominator, its scalars built only when
  Matrix.a is read.  Every operation takes and returns these rows; a result
  row over a common denominator D is reduced by one gcd(D, n_1, ..., n_k),
  so equal matrices have equal rows.  Products are integer dot products;
  elimination is fraction-free (Bareiss), dividing exactly by the previous
  pivot; char_poly, the third primitive here, runs Berkowitz's division-free
  recursion on the integer rows of d A.  Each is written once: only the
  integer arithmetic differs between the two bases;
- over the quaternions, GF(2) and the floats the rows of scalars are the
  storage.  One generic scalar elimination uses left-multiplication row
  operations (valid over the noncommutative quaternions) and, for floats,
  the largest pivot above a tolerance relative to the matrix scale;
  char_poly runs Berkowitz on the scalars of GF(2) and the floats.

Matrix.rref is the one elimination primitive of both back ends; rank, det,
inverse, solve and right_kernel read its result.  One elimination mod a
prime, _rref_mod_p, gives Matrix.is_nonsingular a cheaper exact certificate
and the canon module its mod-p singular profile.
"""

from collections import namedtuple
from math import gcd, lcm, prod
from operator import add, mul, sub

from .scalar import (FieldMode, GaussianRational, rational, IDENTITY,
                     RATIONAL, GAUSSIAN, QUATERNION, REAL_FLOAT,
                     COMPLEX_FLOAT, MODE_RATIONAL, MODE_REAL_FLOAT,
                     complex_mode, scalar_key, scalar_to_json,
                     scalar_from_json)


class Reduction(namedtuple("Reduction", "pivots rows det")):
    """Matrix.rref's result (see there)."""
    __slots__ = ()

    def kernel(self):
        """Columns spanning the right kernel of the reduced matrix: one per
        free column f, with x_f = 1 and the other free coordinates 0."""
        mode, n = self.rows.mode, self.rows.cols
        pivset = set(self.pivots)
        free = [c for c in range(n) if c not in pivset]
        out = [None] * n
        for f, row in zip(free, Matrix.identity(len(free), mode)._stored()):
            out[f] = row
        ring = _RINGS.get(mode.base)
        for pc, row in zip(self.pivots, self.rows._stored()):
            # over the integer rows, v / -d is the negated row
            out[pc] = ([-row[f] for f in free] if ring is None
                       else _picked(ring, (row[0], -row[1]), free))
        return Matrix._of(out, mode, (n, len(free)))


class Matrix:
    """A dense matrix over a FieldMode.

    Over the rationals and Gaussian rationals the integer rows are stored;
    reading `a` builds the rows of scalars and stores them instead, so a
    write through `M.a[i][j] = x` or `M.a[i] = row` is seen by every later
    operation: the next one that needs integer rows rebuilds them and drops
    the scalars.  A list taken from `a` is thus the storage only until that
    next operation; read `a` again to write after it.  Over the other bases
    `a` is always the storage.
    """
    __slots__ = ("_a", "_r", "mode", "_shape")

    def __init__(self, rows, mode, promote=True, shape=None):
        if promote:
            rows = [[mode.promote(e) for e in row] for row in rows]
        if len({len(row) for row in rows}) > 1:
            raise ValueError("ragged rows")
        if shape is None:
            shape = (len(rows), len(rows[0]) if rows else 0)
        self._a, self._r, self.mode, self._shape = rows, None, mode, shape

    @staticmethod
    def _of(rows, mode, shape):
        """The matrix whose storage is rows, as _stored returns it."""
        M = object.__new__(Matrix)
        M._a, M._r = (None, rows) if mode.base in _RINGS else (rows, None)
        M.mode, M._shape = mode, shape
        return M

    @property
    def a(self):
        """The rows of scalars (see the class docstring)."""
        if self._a is None:
            scalars = _RINGS[self.mode.base].scalars
            self._a = [scalars(v, d) for v, d in self._r]
            self._r = None
        return self._a

    def _ints(self):
        """The integer rows (v, d) of a rational or Gaussian matrix."""
        if self._r is None:
            vector = _RINGS[self.mode.base].vector
            self._r = [vector(row) for row in self._a]
            self._a = None
        return self._r

    def _stored(self):
        """The integer rows where there are any, else the scalar rows.  No
        operation changes an integer row in place: matrices share them."""
        return self._ints() if self.mode.base in _RINGS else self._a

    # -- construction -------------------------------------------------------

    @staticmethod
    def zeros(m, n, mode):
        ring = _RINGS.get(mode.base)
        if ring is not None:
            return Matrix._of([(ring.lift([0] * n), 1)] * m, mode, (m, n))
        z = mode.zero()
        return Matrix([[z] * n for _ in range(m)], mode, promote=False,
                      shape=(m, n))

    @staticmethod
    def identity(n, mode):
        ring = _RINGS.get(mode.base)
        if ring is not None:
            return Matrix._of([(ring.lift([int(i == j) for j in range(n)]), 1)
                               for i in range(n)], mode, (n, n))
        z, o = mode.zero(), mode.one()
        return Matrix([[o if i == j else z for j in range(n)]
                       for i in range(n)], mode, promote=False)

    @staticmethod
    def diagonal(entries, mode):
        z, n = mode.zero(), len(entries)
        return Matrix([[mode.promote(e) if i == j else z for j in range(n)]
                       for i, e in enumerate(entries)], mode, promote=False)

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
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def _combine(self, other, op):
        """self op other entrywise, op being add or sub."""
        self._check_same_shape(other)
        ring = _RINGS.get(self.mode.base)
        if ring is None or other.mode.base != self.mode.base:
            return Matrix([list(map(op, r1, r2))
                           for r1, r2 in zip(self.a, other.a)], self.mode,
                          promote=False, shape=self._shape)
        entrywise = lambda x, y: list(map(op, x, y))
        pairs = zip(self._ints(), other._ints())
        return Matrix._of([_least(ring, *_aligned(ring, x, y, entrywise))
                           for x, y in pairs], self.mode, self._shape)

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
        return self - Matrix.diagonal([c] * self.rows, self.mode)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        if self.mode.base in _RINGS and other.mode.base == self.mode.base:
            # least denominators make the integer rows unique
            return self._ints() == other._ints()
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
        return self._flip(False)

    def conj_transpose(self):
        return self._flip(True)

    def _flip(self, conj):
        mode = self.mode
        shape = (self.cols, self.rows)
        ring = _RINGS.get(mode.base)
        if ring is None:
            a, inv = self.a, mode.involve
            return Matrix._of([[inv(r[j]) if conj else r[j] for r in a]
                               for j in range(self.cols)], mode, shape)
        vs, L = _common(ring, self._ints())
        cols = ring.columns(vs, self.cols)
        if conj and mode.involution != IDENTITY:
            cols = [ring.conj(c) for c in cols]
        return Matrix._of([_least(ring, c, L) for c in cols], mode, shape)

    # -- elimination --------------------------------------------------------

    def rref(self, limit=None):
        """Reduced row echelon form: Reduction(pivots, rows, det).

        pivots are the pivot columns, sought among the first `limit` columns
        (all by default; the rest ride along as right-hand sides), each on
        the first usable row.  rows is the len(pivots) x cols matrix of the
        reduced pivot rows: 1 at each pivot, 0 elsewhere in pivot columns.
        det is the determinant of a square matrix reduced over all its
        columns, else None (and always None over the quaternions).
        The transform rides along the same way: for a full-column-rank
        self, reducing [self | B] leaves X with self X = B in the right
        block of the first self.cols rows (solve; inverse takes B = I).
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

        Over the rationals and Gaussian rationals the integer rows, each
        its row times a nonzero integer, keep det = 0 or det != 0 as it
        was, and are mapped into GF(_P) by the ring homomorphism
        Z[i] -> GF(_P), i -> _I_MOD_P.  The determinant maps to the
        determinant of the image, so a nonzero image proves det != 0 with
        no tolerance and no chance involved.  A zero image proves nothing:
        that case, and every other base, is decided by rank (exact
        elimination, or the float tolerance).
        """
        if not self.is_square():
            raise ValueError("nonsingularity of a nonsquare matrix")
        ring = _RINGS.get(self.mode.base)
        if ring is not None and len(_rref_mod_p(
                [ring.mod_p(v) for v, _ in self._ints()],
                self.cols)[0]) == self.rows:
            return True
        return self.rank() == self.rows

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of a nonsquare matrix")
        return self.solve(Matrix.identity(self.rows, self.mode))

    def right_kernel(self):
        """Columns spanning {x : A x = 0}: one per free column f, with
        x_f = 1 and the other free coordinates 0."""
        return self.rref().kernel()

    def solve(self, B):
        """X with self * X = B, for self of full column rank whose column
        span contains B.  Exact modes reduce [self | B] over all columns, so
        a B outside the span gets a pivot; floats stop at self.cols, so
        residues of B outside the span stay below the pivots."""
        d = self.cols
        red = self.hstack(B).rref(limit=None if self.mode.exact else d)
        if red.pivots[:d] != list(range(d)):
            raise ValueError("dependent columns")
        if len(red.pivots) > d:
            raise ValueError("right-hand side outside the column span")
        return red.rows.submatrix(range(d), range(d, d + B.cols))

    # -- block structure ----------------------------------------------------

    def submatrix(self, rows, cols):
        cols = list(cols)
        stored = self._stored()
        ring = _RINGS.get(self.mode.base)
        return Matrix._of([[stored[i][j] for j in cols] if ring is None
                           else _picked(ring, stored[i], cols) for i in rows],
                          self.mode, (len(rows), len(cols)))

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        ring = _RINGS.get(self.mode.base)
        # the lcm of two least denominators is least for the joined row
        out = [x + y if ring is None else _aligned(ring, x, y, add)
               for x, y in zip(self._stored(), other._stored())]
        return Matrix._of(out, self.mode, (self.rows, self.cols + other.cols))

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return Matrix._of(self._stored() + other._stored(), self.mode,
                          (self.rows + other.rows, self.cols))

    # -- scalar-type changes -------------------------------------------------

    def cast(self, mode):
        base = self.mode.base
        if base in _RINGS and mode.base == base:
            return Matrix._of(self._ints(), mode, self._shape)
        if (base, mode.base) == (RATIONAL, GAUSSIAN):
            return Matrix._of([(_GaussRows.lift(v), d)
                               for v, d in self._ints()], mode, self._shape)
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
# A vector is held as integer numerators over one common denominator, and a
# stored row as (vector, its least positive denominator).  The product and
# the elimination below, and char_poly's Berkowitz after Poly, are written
# once; only the arithmetic on the integer vectors depends on the base, and
# _RINGS holds it.

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
    """Rationals: a vector is one int list, an entry one int.  Where a
    Gaussian vector has two parts, a rational one is its own single part."""
    zero, one = 0, 1
    each = staticmethod(lambda f, *vs: f(*vs))  # f of the parts, as a vector
    lift = pack = staticmethod(lambda ints: ints)  # the vector of entries
    at = staticmethod(lambda row, c: row[c])
    over = staticmethod(lambda v, d: (v, d))  # v / d over an int denominator
    scalar = staticmethod(_q)
    nonzero = staticmethod(any)
    scalars = staticmethod(lambda v, d: [_q(a, d) for a in v])
    content = staticmethod(lambda v, d: gcd(d, *v))  # gcd(d, numerators)
    dot = staticmethod(lambda x, y: sum(map(mul, x, y)))
    mod_p = staticmethod(lambda row, i=_I_MOD_P: [a % _P for a in row])

    @staticmethod
    def vector(vec):
        """Scalars as (numerators, least positive common denominator)."""
        return _scaled([x.as_integer_ratio() for x in vec])

    @staticmethod
    def columns(vs, n):
        """The n columns of the vectors vs, as vectors."""
        return [list(c) for c in zip(*vs)] if vs else [[] for _ in range(n)]

    @staticmethod
    def update(x, y, c, p, q):
        """(p x - x[c] y) / q, exact."""
        f = x[c]
        if f:
            return [(p * a - f * b) // q for a, b in zip(x, y)]
        if p != q:
            return [p * a // q for a in x]
        return x


class _GaussRows:
    """Gaussian rationals: a vector is a pair (re, im) of int lists, an entry
    a (re, im) pair of ints."""
    zero, one = (0, 0), (1, 0)
    each = staticmethod(lambda f, *vs: tuple(map(f, *vs)))
    lift = staticmethod(lambda ints: (ints, [0] * len(ints)))
    content = staticmethod(lambda v, d: gcd(d, *v[0], *v[1]))
    conj = staticmethod(lambda v: (v[0], [-b for b in v[1]]))
    nonzero = staticmethod(lambda row: any(row[0]) or any(row[1]))

    @staticmethod
    def vector(vec):
        n = len(vec)
        ints, den = _scaled([x.re.as_integer_ratio() for x in vec]
                            + [x.im.as_integer_ratio() for x in vec])
        return (ints[:n], ints[n:]), den

    @staticmethod
    def scalars(v, d):
        return [GaussianRational(_q(a, d), _q(b, d)) for a, b in zip(*v)]

    @staticmethod
    def columns(vs, n):
        return list(zip(_IntRows.columns([v[0] for v in vs], n),
                        _IntRows.columns([v[1] for v in vs], n)))

    @staticmethod
    def dot(x, y):
        (xr, xi), (yr, yi) = x, y
        return (sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)),
                sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)))

    @staticmethod
    def pack(entries):
        """The vector of a list of (re, im) entries."""
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
    def over(v, d):
        # v / (dr + i di) = v (dr - i di) / |d|^2
        dr, di = d
        if not di:
            return v, dr
        re, im = v
        return ([a * dr + b * di for a, b in zip(re, im)],
                [b * dr - a * di for a, b in zip(re, im)]), dr * dr + di * di

    @staticmethod
    def mod_p(row, i=_I_MOD_P):
        return [(a + i * b) % _P for a, b in zip(*row)]


_RINGS = {RATIONAL: _IntRows, GAUSSIAN: _GaussRows}


def _least(ring, v, den):
    """The stored row of v / den: over den's least positive divisor that
    keeps the numerators integral, den / gcd(den, v's numerators)."""
    g = ring.content(v, den)
    if den < 0:
        g = -g
    if g == 1:
        return v, den
    return ring.each(lambda p: [a // g for a in p], v), den // g


def _times(ring, v, k):
    return ring.each(lambda p: [k * a for a in p], v)


def _common(ring, rows):
    """Stored rows over one common denominator L: (their vectors, L)."""
    L = lcm(*[d for _, d in rows])
    return [v if d == L else _times(ring, v, L // d) for v, d in rows], L


def _picked(ring, row, cols):
    """The stored row of the entries of row in the columns cols."""
    v, d = row
    return _least(ring, ring.each(lambda p: [p[j] for j in cols], v), d)


def _aligned(ring, x, y, op):
    """op of the vectors of stored rows x and y over the lcm of their
    denominators, and that lcm."""
    (v, d), (w, e) = x, y
    L = lcm(d, e)
    return ring.each(op, v if d == L else _times(ring, v, L // d),
                     w if e == L else _times(ring, w, L // e)), L


def _mul_int(A, B):
    """A B: row i of A over d_i times B's rows over one common denominator
    L is one integer dot product per entry, over d_i L; zero rows and
    columns are skipped."""
    ring = _RINGS[A.mode.base]
    n = B.cols
    vs, L = _common(ring, B._ints())
    cols = [c if ring.nonzero(c) else None for c in ring.columns(vs, n)]
    dot, zero, zrow = ring.dot, ring.zero, (ring.lift([0] * n), 1)
    out = [_least(ring, ring.pack([zero if c is None else dot(a, c)
                                   for c in cols]), d * L)
           if ring.nonzero(a) else zrow for a, d in A._ints()]
    return Matrix._of(out, A.mode, (A.rows, n))


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
    """Matrix.rref over the rationals and Gaussian rationals: the integer
    rows reduced fraction-free, each pivot row divided once by the last
    pivot."""
    mode = M.mode
    m, n = M.rows, M.cols
    ring = _RINGS[mode.base]
    ints = M._ints()
    rows = [v for v, _ in ints]
    pivots, d, sign = _bareiss(rows, limit, ring)
    k = len(pivots)
    det = None
    if m == n == limit:
        det = (mode.zero() if k < n
               else ring.scalar(d, sign * prod(den for _, den in ints)))
    out = [_least(ring, *ring.over(rows[r], d)) for r in range(k)]
    return Reduction(pivots, Matrix._of(out, mode, (k, n)), det)


def _rref_mod_p(rows, ncols):
    """Gauss-Jordan elimination of residue rows mod _P with ncols columns:
    (pivots, the reduced pivot rows).  The input lists are not changed."""
    rows, pivots = list(rows), []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        inv = pow(rows[k][c], -1, _P)
        # columns before c are zero in the pivot row
        prow = rows[k][:c] + [b * inv % _P for b in rows[k][c:]]
        rows[k], rows[r] = rows[r], prow
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = row[:c] + [(a - f * b) % _P
                                     for a, b in zip(row[c:], prow[c:])]
        pivots.append(c)
    return pivots, rows[:len(pivots)]


def _kernel_mod_p(rows, ncols):
    """A basis of {x : M x = 0} over GF(_P), M given by its residue rows,
    one vector per free column as in Matrix.right_kernel."""
    at = dict(zip(*_rref_mod_p(rows, ncols)))  # pivot column -> its row
    return [[-at[c][f] % _P if c in at else int(c == f) for c in range(ncols)]
            for f in range(ncols) if f not in at]


def _images_mod_p(M):
    """The residue rows of d M and of (d M)* in GF(_P), for d one common
    denominator of all of M's entries (not one per row: a chain mixes the
    rows of M and M*), i -> _I_MOD_P and so conj(i) -> -_I_MOD_P; None over
    a base without integer rows or when _P divides d."""
    ring = _RINGS.get(M.mode.base)
    if ring is None:
        return None
    vs, d = _common(ring, M._ints())
    if d % _P == 0:
        return None
    B = [ring.mod_p(v) for v in vs]
    Bc = ([ring.mod_p(v, _P - _I_MOD_P) for v in vs]
          if M.mode.involution != IDENTITY else B)
    return B, _IntRows.columns(Bc, M.cols)


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
    n = sum(x.cols for x in mats)
    out, j = Matrix.zeros(0, n, mode), 0
    for x in mats:
        out = out.vstack(Matrix.zeros(x.rows, j, mode).hstack(x).hstack(
            Matrix.zeros(x.rows, n - j - x.cols, mode)))
        j += x.cols
    return out


def skew_sum(A, B):
    """[A \\ B] = [[0, B], [A, 0]] (B upper right, A lower left)."""
    mode = A.mode
    return Matrix.zeros(B.rows, A.cols, mode).hstack(B).vstack(
        A.hstack(Matrix.zeros(A.rows, B.cols, mode)))


def realify(M):
    """Replace each entry a+bi by the 2x2 block [[a, -b], [b, a]]."""
    if M.mode.base not in (GAUSSIAN, COMPLEX_FLOAT):
        raise ValueError("realification needs a complex-type base")
    out = []
    for row in M.a:
        parts = [scalar_key(e) for e in row]
        out += [[x for a, b in parts for x in (a, -b)],
                [x for a, b in parts for x in (b, a)]]
    return Matrix(out, MODE_RATIONAL if M.mode.exact else MODE_REAL_FLOAT,
                  promote=False, shape=(2 * M.rows, 2 * M.cols))


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
    dot, pack = ring.dot, ring.pack
    rows, d = _common(ring, A._ints())
    p = [ring.one]
    for r, row in enumerate(rows):
        # the column is (1, row . u) for u = -e_r, -C, -N_r C, ...: dot cuts
        # the longer rows of N to u's length, so that x . u over the first r
        # rows x is N_r u, and row . u is -a, then -R N_r^k C
        head = rows[:r]
        u = ring.lift([0] * r + [-1])
        col = [ring.one, dot(row, u)]
        for _ in range(r):
            u = pack([dot(x, u) for x in head])
            col.append(dot(row, u))
        # p <- T p: entry i is col[i], ..., col[0] against p
        col, pv = pack(col), pack(p)
        p = [dot(ring.each(lambda c: c[i::-1], col), pv) for i in range(r + 2)]
    return [ring.scalar(c, d ** k) for k, c in enumerate(p)]
