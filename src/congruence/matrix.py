"""Dense matrices and univariate polynomials over a FieldMode.

Everything here is pure: a Matrix never changes after its construction,
and operations return new objects.  Matrix entries are the scalars of
scalar.py; this module owns how they are stored and how products,
elimination and the characteristic polynomial treat them.

A matrix is stored as rows, each a vector over a positive denominator,
and one row arithmetic per base holds the vector operations (_ring).  Over
the rationals and Gaussian rationals a vector is its integer numerators
(ints, or a pair (re, im) of int lists) over the least denominator, so
equal matrices have equal rows; over the quaternions, GF(2) and the floats
it is its scalars over 1.  Products, stacks, transposes, scaling, negation
and char_poly (Berkowitz's division-free recursion on the rows of d A) have
one body for every base, with each left factor kept on the left.  Only
these depend on the base:

- Matrix.rref, the one elimination primitive (rank, det, inverse, solve
  and right_kernel read it): on integer rows a fraction-free (Bareiss)
  forward pass, dividing exactly by the previous pivot, then
  back-substitution on the free columns only (the row rings' back), run
  when the reduced rows are first read, so rank and det stop after the
  forward pass; else one generic scalar elimination by left-multiplication
  row operations, which for floats takes the largest pivot above a
  tolerance relative to the matrix scale;
- the mod-p certificate of Matrix.is_nonsingular and the canon module's
  mod-p singular profile, on the residues of integer rows only, which
  _bareiss eliminates too (_ModP, with no division in the forward pass);
  their ranks stop after it, their kernels back-substitute;
- the float tolerance of ==, and cast.

Matrix.from_json and the CLI's bare lists decode JSON straight to stored
rows over the rationals and Gaussian rationals (_from_entries): an exact
string, an int or, over the Gaussian rationals, a [re, im] pair of them
becomes its (numerator, denominator) ratios with no scalar built.  Every
other entry form (floats, {"re", "im"} objects, quaternion 4-lists, a pair
in a rational matrix) and every entry over the other bases takes the
scalar path, scalar_from_json, so both accept and reject the same entries.
"""

from functools import reduce
from itertools import accumulate
from math import gcd, lcm, prod
from operator import add, mul, sub

from .scalar import (FieldMode, GaussianRational, rational, IDENTITY,
                     RATIONAL, GAUSSIAN, QUATERNION, REAL_FLOAT,
                     COMPLEX_FLOAT, MODE_RATIONAL, MODE_REAL_FLOAT,
                     complex_mode, scalar_key, scalar_to_json,
                     scalar_from_json, _json_ratio)


class Reduction:
    """Matrix.rref's result (see there).  free lists the columns without a
    pivot, and part is the len(pivots) x len(free) matrix of the reduced
    rows on them: all that kernel and Matrix.solve read.  part is given as
    a function of no arguments, called on its first reading (over integer
    rows, the back phase), and rows, given as None over integer rows, is
    built from part on its first reading, so callers that read only pivots
    and det (rank, det, is_nonsingular) stop after the forward pass."""
    __slots__ = ("pivots", "det", "free", "_rows", "_part")

    def __init__(self, pivots, det, free, rows, part):
        self.pivots, self.det, self.free = pivots, det, free
        self._rows, self._part = rows, part

    @property
    def part(self):
        if callable(self._part):
            self._part = self._part()
        return self._part

    @property
    def rows(self):
        if self._rows is None:
            # row i over its least denominator e: its part, and e at c_i
            part, n = self.part, len(self.pivots) + len(self.free)
            spread = _RINGS[part.mode.base].spread
            self._rows = Matrix._of(
                [(spread(n, self.free, v, c, e), e)
                 for c, (v, e) in zip(self.pivots, part._rows)],
                part.mode, (part.rows, n))
        return self._rows

    def kernel(self, free=None):
        """Columns spanning the right kernel of the reduced matrix: one per
        free column f, with x_f = 1 and the other free coordinates 0 (only
        those of the free columns listed in free, when given)."""
        part = self.part
        mode, n = part.mode, len(self.pivots) + len(self.free)
        if free is None:
            free, at = self.free, None
        else:
            at = [self.free.index(f) for f in free]
        ring = _ring(mode)
        out = [(ring.lift([0] * len(free)), 1)] * n
        for f, row in zip(free, Matrix.identity(len(free), mode)._rows):
            out[f] = row
        for pc, (v, d) in zip(self.pivots, part._rows):
            v = _negated(ring, v)
            out[pc] = (v, d) if at is None else _picked(ring, (v, d), at)
        return Matrix._of(out, mode, (n, len(free)))


class Matrix:
    """A dense matrix over a FieldMode: an immutable value.

    Its one storage, set at construction, is its rows as (vector,
    denominator) pairs.  `a` returns the rows of scalars as tuples built
    anew, so a write into them raises instead of changing a matrix.
    """
    __slots__ = ("_rows", "mode", "_shape")

    def __init__(self, rows, mode, promote=True, shape=None):
        if promote:
            rows = [[mode.promote(e) for e in row] for row in rows]
        self._shape = _checked_shape(rows, shape)
        self._rows = list(map(_ring(mode).vector, rows))
        self.mode = mode

    @staticmethod
    def _of(rows, mode, shape):
        """The matrix whose storage is rows.  No operation changes a stored
        row in place: matrices share them."""
        M = object.__new__(Matrix)
        M._rows, M.mode, M._shape = rows, mode, shape
        return M

    @property
    def a(self):
        """The rows of scalars, as a tuple of tuples."""
        scalars = _ring(self.mode).scalars
        return tuple(tuple(scalars(v, d)) for v, d in self._rows)

    # -- construction -------------------------------------------------------

    @staticmethod
    def zeros(m, n, mode):
        return Matrix._of([(_ring(mode).lift([0] * n), 1)] * m, mode, (m, n))

    @staticmethod
    def identity(n, mode):
        lift = _ring(mode).lift
        return Matrix._of([(lift([int(i == j) for j in range(n)]), 1)
                           for i in range(n)], mode, (n, n))

    @staticmethod
    def diagonal(entries, mode):
        """The diagonal matrix of entries: each row is its entry's one-entry
        stored row placed among lifted zeros."""
        ring, n = _ring(mode), len(entries)
        zero = ring.lift([0] * n)
        rows = [ring.vector([mode.promote(e)]) for e in entries]
        return Matrix._of([(_placed(ring, zero, i, v), d)
                           for i, (v, d) in enumerate(rows)], mode, (n, n))

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
        self._check_same_base(other)
        if self._shape != other._shape:
            raise ValueError("shape mismatch")
        ring = _ring(self.mode)
        entrywise = lambda x, y: list(map(op, x, y))
        return Matrix._of([_least(ring, *_aligned(ring, x, y, entrywise))
                           for x, y in zip(self._rows, other._rows)],
                          self.mode, self._shape)

    def __neg__(self):
        ring = _ring(self.mode)
        return Matrix._of([(_negated(ring, v), d) for v, d in self._rows],
                          self.mode, self._shape)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_base(other)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        return _mul_int(self, other)

    def scale_left(self, c):
        """c self, c on the left: each stored row times c's stored row."""
        ring = _ring(self.mode)
        cv, q = ring.vector([self.mode.promote(c)])
        return Matrix._of([_least(ring, ring.scale(cv, v), q * d)
                           for v, d in self._rows], self.mode, self._shape)

    def minus_scalar(self, c):
        """self - c I, for a square matrix."""
        return self - Matrix.diagonal([c] * self.rows, self.mode)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.mode.base != other.mode.base or self._shape != other._shape:
            return False
        if self.mode.exact:
            # least denominators make the exact rows unique
            return self._rows == other._rows
        eq = self.mode.eq
        return all(eq(x, y) for (v, _), (w, _) in zip(self._rows, other._rows)
                   for x, y in zip(v, w))

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        return "Matrix(%d x %d over %s)" % (self.rows, self.cols, self.mode.base)

    def __str__(self):
        return "\n".join(" ".join(str(e) for e in row) for row in self.a)

    def _check_same_base(self, other):
        if self.mode.base != other.mode.base:
            raise ValueError("base mismatch: %s and %s"
                             % (self.mode.base, other.mode.base))

    # -- transposes ---------------------------------------------------------

    def transpose(self):
        return self._flip(False)

    def conj_transpose(self):
        return self._flip(True)

    def _flip(self, conj):
        mode, ring = self.mode, _ring(self.mode)
        vs, L = _common(ring, self._rows)
        cols = ring.columns(vs, self.cols)
        if conj and mode.involution != IDENTITY:
            cols = [ring.conj(c) for c in cols]
        return Matrix._of([_least(ring, c, L) for c in cols], mode,
                          (self.cols, self.rows))

    # -- elimination --------------------------------------------------------

    def rref(self, limit=None):
        """Reduced row echelon form: a Reduction with pivots, rows, det,
        free and part.

        pivots are the pivot columns, sought among the first `limit` columns
        (all by default; the rest ride along as right-hand sides), each on
        the first usable row.  rows is the len(pivots) x cols matrix of the
        reduced pivot rows: 1 at each pivot, 0 elsewhere in pivot columns;
        part is rows on the free (non-pivot) columns only.  det is the
        determinant of a square matrix reduced over all its columns, else
        None (and always None over the quaternions).
        The transform rides along the same way: for a full-column-rank
        self, reducing [self | B] leaves X with self X = B as the part
        (solve; inverse takes B = I).
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
        if ring is not None and len(_bareiss(
                [ring.mod_p(v) for v, _ in self._rows],
                self.cols, _ModP)[0]) == self.rows:
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
        return red.part

    # -- block structure ----------------------------------------------------

    def submatrix(self, rows, cols):
        cols = list(cols)
        stored, ring = self._rows, _ring(self.mode)
        return Matrix._of([_picked(ring, stored[i], cols) for i in rows],
                          self.mode, (len(rows), len(cols)))

    def hstack(self, other):
        self._check_same_base(other)
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        ring = _ring(self.mode)
        # the lcm of two least denominators is least for the joined row
        out = [_aligned(ring, x, y, add)
               for x, y in zip(self._rows, other._rows)]
        return Matrix._of(out, self.mode, (self.rows, self.cols + other.cols))

    def vstack(self, other):
        self._check_same_base(other)
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return Matrix._of(self._rows + other._rows, self.mode,
                          (self.rows + other.rows, self.cols))

    # -- scalar-type changes -------------------------------------------------

    def cast(self, mode):
        base = self.mode.base
        if mode.base == base:
            return Matrix._of(self._rows, mode, self._shape)
        if (base, mode.base) == (RATIONAL, GAUSSIAN):
            return Matrix._of([(_GaussRows.lift(v), d)
                               for v, d in self._rows], mode, self._shape)
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
        return _from_entries(data["entries"], mode,
                             (data["rows"], data["cols"]))


def _checked_shape(rows, shape=None):
    """The shape of rows: the declared shape, checked against them, or when
    none is given the one read from them, which rejects ragged rows."""
    if shape is None:
        if len({len(row) for row in rows}) > 1:
            raise ValueError("ragged rows")
        return (len(rows), len(rows[0]) if rows else 0)
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise ValueError("entries do not match the declared %rx%r shape"
                         % shape)
    return shape


def _from_entries(entries, mode, shape=None):
    """The matrix of the JSON rows of entries in mode (see the module
    docstring): all of them decoded first, then checked against the
    declared shape, or when none is given for ragged rows."""
    ring = _RINGS.get(mode.base)
    if ring is None:
        return Matrix([[scalar_from_json(e, mode) for e in row]
                       for row in entries], mode, promote=False, shape=shape)
    decode, ratio = ring.decode, ring.ratio
    rows = [[decode(e) or ratio(scalar_from_json(e, mode)) for e in row]
            for row in entries]
    return Matrix._of(list(map(ring.stored, rows)), mode,
                      _checked_shape(rows, shape))


# -- entrywise scalar elimination -------------------------------------------
#
# _rref_generic is the elimination of every base without integer rows.

def _rref_generic(M, limit):
    """Gauss-Jordan elimination over any base with left-multiplication row
    operations.  Exact bases pivot on the first nonzero entry; floats on the
    largest entry above the tolerance times the largest entry overall."""
    mode = M.mode
    m, n = M.rows, M.cols
    R = [list(row) for row in M.a]
    zero, one = mode.zero(), mode.one()
    if mode.exact:
        negligible = mode.is_zero
    else:
        thr = mode.tolerance * max([abs(x) for row in R for x in row] + [1.0])
        negligible = lambda v: abs(v) <= thr
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
                k = abs(R[i][c])
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
    rows = Matrix(R[:k], mode, promote=False, shape=(k, n))
    free = [c for c in range(n) if c not in pivots]
    return Reduction(pivots, det, free, rows,
                     lambda: rows.submatrix(range(k), free))


# -- row arithmetic --------------------------------------------------------
#
# A stored row is (vector, its least positive denominator), and _ring(mode)
# holds the arithmetic on the vectors: an entry of _RINGS, the integer rows
# of the rationals and Gaussian rationals, or _Scalars for the rest.

_Q0 = rational(0)

# the prime of Matrix.is_nonsingular; _P = 1 (mod 4), so -1 has the square
# root _I_MOD_P in GF(_P) and i -> _I_MOD_P maps Z[i] into GF(_P).  _P is
# the largest such prime below 2^30, so a residue is one CPython digit
# (sys.int_info.bits_per_digit == 30) and % _P a single-digit division
_P = 1073741789
_I_MOD_P = 140687844


def _q(num, den):
    """num / den as a rational."""
    if not num:
        return _Q0
    return rational(num) if den == 1 else rational(num, den)


def _scaled(ratios):
    den = lcm(*[b for _, b in ratios])
    return [a * (den // b) for a, b in ratios], den


def _spread(n, cols, vals, c, e):
    """The length-n list of vals at the columns cols, e at c, else 0."""
    out = [0] * n
    for j, x in zip(cols, vals):
        out[j] = x
    out[c] = e
    return out


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
    scale = staticmethod(lambda c, v: [c[0] * a for a in v])  # c[0] v
    # ratio: a scalar's (num, den); decode: a JSON entry's, or None for a
    # form only scalar_from_json reads; stored: a row of them, stored
    ratio = staticmethod(lambda x: x.as_integer_ratio())
    decode = staticmethod(_json_ratio)
    stored = staticmethod(_scaled)

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

    divided = staticmethod(lambda z, p: [x // p for x in z])  # exact
    spread = staticmethod(_spread)  # a reduced row from its free part

    @classmethod
    def back(ring, rows, pivots, free, d):
        """Back-substitution on the pivot rows u_i that _bareiss leaves, on
        the free columns F only: z_i, the entries on F of d times the i-th
        reduced row (which is d at its pivot c_i and 0 at the other
        pivots), bottom up:

            z_i = (d u_i[F] - sum over j > i of u_i[c_j] z_j) / u_i[c_i],

        skipping each u_i[c_j] = 0; a last row whose pivot is d (over the
        integers, always) needs no work.  Over the integer rows the
        division is exact, d times a reduced entry being a minor (Cramer's
        rule); mod _P, d = 1 and it is one inverse per row (divided)."""
        zs = []
        for i in range(len(pivots) - 1, -1, -1):
            u = rows[i]
            p = u[pivots[i]]
            if zs or p != d:
                z = [d * u[f] for f in free]
                for c, y in zip(pivots[i + 1:], zs):
                    a = u[c]
                    if a:
                        z = [x - a * b for x, b in zip(z, y)]
                z = ring.divided(z, p)
            else:
                z = [u[f] for f in free]
            zs.insert(0, z)
        return zs


class _GaussRows:
    """Gaussian rationals: a vector is a pair (re, im) of int lists, an entry
    a (re, im) pair of ints."""
    zero, one = (0, 0), (1, 0)
    each = staticmethod(lambda f, *vs: tuple(map(f, *vs)))
    lift = staticmethod(lambda ints: (ints, [0] * len(ints)))
    content = staticmethod(lambda v, d: gcd(d, *v[0], *v[1]))
    conj = staticmethod(lambda v: (v[0], [-b for b in v[1]]))
    nonzero = staticmethod(lambda row: any(row[0]) or any(row[1]))
    ratio = staticmethod(lambda x: (x.re.as_integer_ratio(),
                                    x.im.as_integer_ratio()))

    @staticmethod
    def decode(e):
        """The (re, im) ratios of an exact JSON string, an int or a pair of
        them, else None.  A pair's second part is read only after its
        first, as scalar_from_json reads them, so both raise alike."""
        if type(e) is list and len(e) == 2:
            re = _json_ratio(e[0])
            im = re and _json_ratio(e[1])
            return im and (re, im)
        re = _json_ratio(e)
        return re and (re, (0, 1))

    @staticmethod
    def stored(ratios):
        """The stored row of (re, im) ratios: real parts, then imaginary
        parts, over their least common denominator."""
        n = len(ratios)
        ints, den = _scaled([re for re, _ in ratios]
                            + [im for _, im in ratios])
        return (ints[:n], ints[n:]), den

    @staticmethod
    def vector(vec):
        return _GaussRows.stored(list(map(_GaussRows.ratio, vec)))

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
    def scale(c, v):
        (cr,), (ci,) = c
        return ([cr * a - ci * b for a, b in zip(*v)],
                [cr * b + ci * a for a, b in zip(*v)])

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
    def back(rows, pivots, free, d):
        """_IntRows.back in Z[i]: the division is by p's conjugate and its
        norm."""
        dr, di = d
        zs = []
        for i in range(len(pivots) - 1, -1, -1):
            ur, ui = rows[i]
            if zs:
                zr = [dr * ur[f] - di * ui[f] for f in free]
                zi = [dr * ui[f] + di * ur[f] for f in free]
                for c, (yr, yi) in zip(pivots[i + 1:], zs):
                    ar, ai = ur[c], ui[c]
                    if ar or ai:
                        zr = [x - ar * a + ai * b
                              for x, a, b in zip(zr, yr, yi)]
                        zi = [x - ar * b - ai * a
                              for x, a, b in zip(zi, yr, yi)]
                # divided by p: times conj(p), over |p|^2
                pr, pi = ur[pivots[i]], ui[pivots[i]]
                q = pr * pr + pi * pi
                zr, zi = ([(a * pr + b * pi) // q for a, b in zip(zr, zi)],
                          [(b * pr - a * pi) // q for a, b in zip(zr, zi)])
            else:
                zr, zi = [ur[f] for f in free], [ui[f] for f in free]
            zs.insert(0, (zr, zi))
        return zs

    @staticmethod
    def spread(n, free, z, c, e):
        return _spread(n, free, z[0], c, e), _spread(n, free, z[1], c, 0)

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


class _ModP(_IntRows):
    """Rows of residues mod _P, for _bareiss and back: a forward update
    divides by no pivot, since a row times a nonzero residue spans the same
    line, and the back phase, with d = 1, multiplies by its inverse."""

    @staticmethod
    def update(x, y, c, p, q):
        """p x - x[c] y mod _P; x itself when x[c] = 0."""
        f = x[c]
        return [(p * a - f * b) % _P for a, b in zip(x, y)] if f else x

    @staticmethod
    def divided(z, p):
        inv = pow(p, -1, _P)
        return [x * inv % _P for x in z]


class _Scalars(_IntRows):
    """The quaternions, GF(2) and the floats: a vector is a list of scalars
    over 1, with _IntRows' list operations but the mode's scalars (their
    elimination is _rref_generic's, not _IntRows.update's)."""
    content = staticmethod(lambda v, d: 1)
    vector = staticmethod(lambda vec: (list(vec), 1))
    scalar = staticmethod(lambda x, d: x)
    scalars = staticmethod(lambda v, d: v)

    def __init__(self, mode):
        self.zero, self.one = mode.zero(), mode.one()
        self.lift = lambda ints: [mode.promote(a) for a in ints]
        self.conj = lambda v: [mode.involve(x) for x in v]

    def dot(self, x, y):
        return reduce(add, map(mul, x, y), self.zero)


def _ring(mode):
    """The row arithmetic of mode's base."""
    return _RINGS.get(mode.base) or _Scalars(mode)


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


def _negated(ring, v):
    return ring.each(lambda p: [-a for a in p], v)


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
    L is one dot product per entry, over d_i L; zero rows and columns are
    skipped."""
    ring = _ring(A.mode)
    n = B.cols
    vs, L = _common(ring, B._rows)
    cols = [c if ring.nonzero(c) else None for c in ring.columns(vs, n)]
    dot, zero, zrow = ring.dot, ring.zero, (ring.lift([0] * n), 1)
    out = [_least(ring, ring.pack([zero if c is None else dot(a, c)
                                   for c in cols]), d * L)
           if ring.nonzero(a) else zrow for a, d in A._rows]
    return Matrix._of(out, A.mode, (A.rows, n))


def _bareiss(rows, limit, ring):
    """Fraction-free forward elimination of integer rows or residues mod p,
    in place: each pivot updates only the rows below it.

    Each integer update (p x - f y) / q divides exactly by the previous
    pivot q: the entries stay minors of the input.  Returns (pivots, last
    pivot d, sign of the row permutation).  The first len(pivots) rows end
    in echelon form, row i with the (i+1)-th leading minor of the permuted
    input at its pivot (mod p, _ModP, with nonzero multiples of them), and
    the other rows as zero in the first limit columns; for a square matrix
    d is the determinant of the permuted input.  Rank-only callers stop
    here; ring.back reduces the rows.
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
        for i in range(r + 1, m):
            rows[i] = update(rows[i], prow, c, piv, prev)
        prev = piv
        pivots.append(c)
        r += 1
    return pivots, prev, sign


def _rref_int(M, limit):
    """Matrix.rref over the rationals and Gaussian rationals: the integer
    rows eliminated forward fraction-free; on the first reading of the
    reduced rows, back-substituted on the free columns and each divided
    once by the last pivot."""
    mode = M.mode
    m, n = M.rows, M.cols
    ring = _RINGS[mode.base]
    ints = M._rows
    rows = [v for v, _ in ints]
    pivots, d, sign = _bareiss(rows, limit, ring)
    k = len(pivots)
    det = None
    if m == n == limit:
        det = (mode.zero() if k < n
               else ring.scalar(d, sign * prod(den for _, den in ints)))
    free = [c for c in range(n) if c not in pivots]
    return Reduction(pivots, det, free, None, lambda: Matrix._of(
        [_least(ring, *ring.over(z, d))
         for z in ring.back(rows, pivots, free, d)], mode, (k, len(free))))


def _kernel_mod_p(rows, ncols):
    """A basis of {x : M x = 0} over GF(_P), M given by its residue rows,
    one vector per free column as in Matrix.right_kernel, read off the
    free entries of the reduced rows that _ModP.back leaves.  The input
    list is not changed."""
    rows = list(rows)
    pivots = _bareiss(rows, ncols, _ModP)[0]
    free = [c for c in range(ncols) if c not in pivots]
    zs = _ModP.back(rows, pivots, free, 1)
    return [_spread(ncols, pivots, [-z[t] % _P for z in zs], f, 1)
            for t, f in enumerate(free)]


def _images_mod_p(M):
    """The residue rows of d M and of (d M)* in GF(_P), for d one common
    denominator of all of M's entries (not one per row: a chain mixes the
    rows of M and M*), i -> _I_MOD_P and so conj(i) -> -_I_MOD_P; None over
    a base without integer rows or when _P divides d."""
    ring = _RINGS.get(M.mode.base)
    if ring is None:
        return None
    vs, d = _common(ring, M._rows)
    if d % _P == 0:
        return None
    B = [ring.mod_p(v) for v in vs]
    Bc = ([ring.mod_p(v, _P - _I_MOD_P) for v in vs]
          if M.mode.involution != IDENTITY else B)
    return B, _IntRows.columns(Bc, M.cols)


def _placed(ring, zero, j, v):
    """The vector v placed from column j on in the lifted zero vector."""
    return ring.each(lambda z, p: z[:j] + p + z[j + len(p):], zero, v)


def _laid_out(M, blocks, n):
    """The n-column matrix, over M's mode, of the stored rows of each
    (block, column j) of blocks in turn, each placed from column j on."""
    ring = _ring(M.mode)
    zero = ring.lift([0] * n)
    rows = []
    for x, j in blocks:
        M._check_same_base(x)
        rows += [(_placed(ring, zero, j, v), d) for v, d in x._rows]
    return Matrix._of(rows, M.mode, (len(rows), n))


def direct_sum(*mats):
    if not mats:
        raise ValueError("empty direct sum")
    cols = [x.cols for x in mats]
    return _laid_out(mats[0], zip(mats, accumulate(cols, initial=0)),
                     sum(cols))


def skew_sum(A, B):
    """[A \\ B] = [[0, B], [A, 0]] (B upper right, A lower left)."""
    return _laid_out(A, [(B, A.cols), (A, 0)], A.cols + B.cols)


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
                terms.append(str(x))
            elif k == 1:
                terms.append("%s*x" % x)
            else:
                terms.append("%s*x^%d" % (x, k))
        return " + ".join(terms)

    __repr__ = __str__


def char_poly(A):
    """Monic characteristic polynomial det(xI - A), by Berkowitz's method.

    Nothing is divided, so it holds over every commutative base, GF(2)
    included.  With a, R and C the next diagonal entry, row and column
    beyond the leading r x r block A_r, the block's polynomial p_r gives
    p_(r+1) = T p_r: T is lower-triangular Toeplitz on the column
    (1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C).

    It runs on the stored rows of N = d A, d their common denominator (1
    over GF(2) and the floats), and coefficient k of det(xI - N), d^k
    times A's, is divided back once.
    """
    if not A.is_square():
        raise ValueError("characteristic polynomial of a nonsquare matrix")
    mode = A.mode
    if mode.base == QUATERNION:
        raise ValueError("no characteristic polynomial over the quaternions")
    return Poly(_char_poly_int(A, _ring(mode))[::-1], mode, promote=False)


def _char_poly_int(A, ring):
    """char_poly's coefficients, highest power first: Berkowitz on the rows
    of N = d A, then coefficient k divided by d^k."""
    dot, pack = ring.dot, ring.pack
    rows, d = _common(ring, A._rows)
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
