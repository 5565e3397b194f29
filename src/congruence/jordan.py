"""Jordan structure: eigenvalues, block-size partitions, kernel chains.

Exact modes restrict eigenvalues to the working field, the rationals or
the Gaussian rationals.  Write the characteristic polynomial as
chi = (p + i q) / d with integer polynomials p, q.  Every root of chi is a
root of p when q = 0, and otherwise of the norm p^2 + q^2 = d^2 chi conj(chi)
(complex conjugation of the coefficients, whatever the mode's involution).
The squarefree part of that integer polynomial is computed here, from a
heuristic gcd of it and its derivative, accepted only when it divides both
exactly.  Its roots are approximated in complex floats (the Aberth-Ehrlich
iteration, settled or not after 60 sweeps; a linear one's root is read off
exactly), and each part of each finite approximation is rounded to the
simplest rational within the root's last correction, or 64 ulps at least;
over the rationals only real guesses are kept.  A guess is accepted only
by exact synthetic division of d chi on its integer coefficients, which
also counts its multiplicity, so a wrong guess, or a root of conj(chi)
alone, divides nothing.  Whatever the guesses leave undivided goes
through sympy's factoring over the integers, and only then is sympy
imported: a linear factor of its norm gives a rational candidate; a
quadratic A x^2 + B x + C whose 4AC - B^2 is a positive square gives, over
the Gaussian rationals only, the pair (-B +- i sqrt(4AC - B^2)) / 2A.
Any other factor raises UnsplittablePolynomial naming it, and so does any
factor of chi left undivided.  The floats only choose what to try: the
root multiset is exact whatever they do.

Float modes cluster numerically computed eigenvalues at _comparison_mode's
tolerance, the one yardstick they are compared at.

A rational chi's roots can be sought in the Gaussian rationals
(eigenvalues(A, mode)), so a real cosquare's complex eigenvalues need no
complexified matrix.

preimage_chain builds every chain of subspaces, K_k = {x : B x in S K_(k-1)}.
RootSpace holds the kernels of (A - lam)^k at an eigenvalue lam, stopped
once the nullity reaches lam's algebraic multiplicity (a nullity that stalls
below it or passes it raises ValueError), as the preimage chain of a pencil
B - lam S with A = S^-1 B: A - lam with S = I by default, C - lam C* for a
cosquare A = C^-* C, whose eliminations then run on C's entries and give
the same kernels.  The Jordan partition (chain_counts) and the root-block
signs read it.  In exact modes the chain is built, with its checks, only
for the signs, for generalized_eigenbasis, or when the first nullity d
leaves the partition open: a simple eigenvalue has (1,) with no
elimination, and d = 1, mult - 1 or mult fixes the partition off one
forward elimination of the pencil, which the chain starts from if read.
generalized_eigenbasis reads a chain-ordered basis off the same chain.
"""

from cmath import isfinite, rect
from functools import reduce
from itertools import groupby
from math import floor, gcd, isqrt, lcm, pi, ulp

from .scalar import (GaussianRational, FieldMode, GAUSSIAN, REAL_FLOAT,
                     complex_mode, rational, scalar_key)
from .matrix import Matrix, Poly, char_poly, complexify, _RINGS


class UnsplittablePolynomial(ValueError):
    """The characteristic polynomial has roots outside the working field."""


def _norm(p, q):
    """The integer polynomial p, or p^2 + q^2 when q != 0 (coefficients
    highest power first): every root of p + i q is one of its roots."""
    return [a + b for a, b in zip(_square(p), _square(q))] if any(q) else p


def _square(f):
    out = [0] * (2 * len(f) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(f):
            out[i + j] += a * b
    return out


def _candidates(f, mode):
    """The roots in the base of an irreducible integer polynomial f
    (highest power first)."""
    if len(f) == 2:
        return [mode.promote(rational(-f[1], f[0]))]
    if len(f) == 3 and mode.base == GAUSSIAN:
        a, b, c = f
        d = 4 * a * c - b * b
        s = isqrt(max(d, 0))
        if d > 0 and s * s == d:
            re, im = rational(-b, 2 * a), rational(s, 2 * a)
            return [GaussianRational(re, im), GaussianRational(re, -im)]
    import sympy
    field = "Gaussian rationals" if mode.base == GAUSSIAN else "rationals"
    raise UnsplittablePolynomial(
        "characteristic polynomial: irreducible factor %s has no root in "
        "the %s" % (sympy.Poly(f, sympy.Symbol("x")).as_expr(), field))


def _divide_out(p, q, r):
    """(p + i q) / (x - r) by synthetic division on integer coefficients
    (highest power first), or None when r is not a root of p + i q.

    With r = (a + i c) / b over one positive integer b, the quotient at a
    root is integral (Gauss's lemma on b x - (a + i c), whose content in
    Z[i] divides b), so each step divides (a + i c) times the last
    coefficient by b exactly, and one that leaves a remainder rejects r."""
    re, im = (r.re, r.im) if isinstance(r, GaussianRational) else (r, 0)
    b = lcm(re.denominator, im.denominator)
    a = re.numerator * (b // re.denominator)
    c = im.numerator * (b // im.denominator)
    qp, qq = [p[0]], [q[0]]
    for x, y in zip(p[1:], q[1:]):
        u, s = divmod(a * qp[-1] - c * qq[-1], b)
        v, t = divmod(a * qq[-1] + c * qp[-1], b)
        if s or t:
            return None
        qp.append(x + u)
        qq.append(y + v)
    return None if qp.pop() or qq.pop() else (qp, qq)


def _primitive(f):
    """f over its content, with a positive leading coefficient."""
    g = gcd(*f)
    return [a // g for a in f] if f[0] > 0 else [-a // g for a in f]


def _quotient(f, h):
    """f / h over the integers (highest power first), or None when h does
    not divide f."""
    rem = list(f)
    quot = []
    for k in range(len(f) - len(h) + 1):
        c, r = divmod(rem[k], h[0])
        if r:
            return None
        quot.append(c)
        if c:
            for j in range(1, len(h)):
                rem[k + j] -= c * h[j]
    return None if any(rem[len(quot):]) else quot


def _interpolate(h, x):
    """The integer polynomial whose coefficients are the symmetric base-x
    digits of the integer h."""
    out = []
    while h:
        g = h % x
        if g > x // 2:
            g -= x
        out.append(g)
        h = (h - g) // x
    return out[::-1]


def _squarefree_part(f):
    """The squarefree part f / gcd(f, f') of the integer polynomial f
    (highest power first), primitive with a positive leading coefficient;
    None when the heuristic gcd fails at all six evaluation points.

    The gcd is GCDHEU's (Char, Geddes & Gonnet, 1989; sympy's on the
    integers, with its evaluation points): the integer gcd of f and f' at a
    large x, read back as the polynomial of its symmetric base-x digits and
    made primitive, is the gcd when it divides both f and f' exactly, as x
    exceeds twice a root bound of either."""
    f = _primitive(f)
    if len(f) < 3:
        return f
    df = [a * k for a, k in zip(f, range(len(f) - 1, 0, -1))]
    fn, gn = max(map(abs, f)), max(map(abs, df))
    bound = 2 * min(fn, gn) + 29
    x = max(min(bound, 99 * isqrt(bound)),
            2 * min(fn // f[0], gn // df[0]) + 4)
    for _ in range(6):
        fx = reduce(lambda v, a: v * x + a, f)
        gx = reduce(lambda v, a: v * x + a, df)
        if fx and gx:
            h = _primitive(_interpolate(gcd(fx, gx), x))
            quot = _quotient(f, h)
            if quot is not None and _quotient(df, h) is not None:
                return quot
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _approximate_roots(f):
    """The roots of the squarefree integer polynomial f (highest power
    first) in complex floats, each with the size of its last correction, by
    the Aberth-Ehrlich iteration from a circle about the roots, stopped once
    settled or after 60 sweeps."""
    d = len(f) - 1
    c = [a / f[0] for a in f]
    r = max(abs(a) ** (1 / k) for k, a in enumerate(c) if k) or 1.0
    z = [rect(r, 2 * pi * k / d + 0.5) for k in range(d)]
    step = [0.0] * d
    for _ in range(60):
        settled = True
        for i, x in enumerate(z):
            v = dv = 0j
            for a in c:
                dv = dv * x + v
                v = v * x + a
            ratio = v / dv
            w = ratio / (1 - ratio * sum(1 / (x - y) for j, y in enumerate(z)
                                         if j != i))
            z[i] = x - w
            step[i] = abs(w)
            settled = settled and step[i] <= 1e-12 * max(1.0, abs(x))
        if settled:
            break
    return list(zip(z, step))


def _simplest(x, tol):
    """The first continued-fraction convergent h/k of x within tol of x (the
    40th at most, k > 10^8: only exact division trusts it)."""
    h, h0, k, k0 = 1, 0, 0, 1
    y = x
    for _ in range(40):
        a = floor(y)
        h, h0, k, k0 = a * h + h0, h, a * k + k0, k
        if abs(h / k - x) <= tol or y == a:
            break
        y = 1 / (y - a)
    return rational(h, k)


def _guesses(f, mode):
    """Candidate roots in the base for the integer polynomial f: its
    squarefree part's roots approximated in floats, each part rounded to
    the simplest rational within the root's last correction, or 64 ulps
    of |z| at least: a settled root can be off by more than its last
    correction, but by a few ulps only, while a tolerance relative to |z|
    lets a simpler wrong convergent of a large root win.  Unsettled roots
    count too (on a badly conditioned f the corrections stop at the noise
    of evaluating it in doubles): only exact division accepts a guess.  No
    guess from a non-finite root, none at all when the floats overflow or
    the squarefree part fails.  A linear f gives its root exactly."""
    if len(f) == 2:
        return _candidates(f, mode)
    sqf = _squarefree_part(f)
    if sqf is None:
        return []
    out = []
    try:
        for z, step in _approximate_roots(sqf):
            if not isfinite(z):
                continue
            tol = max(step, 64 * ulp(abs(z)))
            re, im = _simplest(z.real, tol), _simplest(z.imag, tol)
            if mode.base == GAUSSIAN:
                out.append(GaussianRational(re, im))
            elif im == 0:
                out.append(mode.promote(re))
    except (OverflowError, ZeroDivisionError):
        return []
    return out


def dup_factor_list(f):
    """sympy's factoring of the integer polynomial f (highest power first)
    over the integers, sympy imported at the first call: the factoring tail
    is the one place the eigenvalues need it."""
    from sympy import ZZ
    from sympy.polys.factortools import dup_factor_list as factor_list
    return factor_list(f, ZZ)


def _factored(f, mode):
    """The candidate roots in the base from sympy's factoring of the integer
    polynomial f; UnsplittablePolynomial at a factor without them."""
    for g, _ in dup_factor_list(f)[1]:
        yield from _candidates(g, mode)


def _exact_roots(chi, mode):
    """The roots of chi in mode's base, with multiplicity, ordered by
    scalar_key: the guesses first, then the factoring of what they leave.
    chi is deflated on the integer numerators p + i q of d chi; a rational
    chi has q = 0, whichever base its roots are sought in."""
    ring = _RINGS.get(chi.mode.base)
    if ring is None or mode.base not in _RINGS:
        raise ValueError("exact eigenvalues need a rational or Gaussian "
                         "rational base, not %r"
                         % (mode.base if ring else chi.mode.base))
    ints, d = ring.vector(chi.c[::-1])
    gauss = chi.mode.base == GAUSSIAN
    p, q = ints if gauss else (ints, [0] * len(ints))
    roots = []
    for candidates in (_guesses, _factored):
        if len(p) > 1:
            for r in candidates(_norm(p, q), mode):
                while (quot := _divide_out(p, q, r)) is not None:
                    roots.append(r)
                    p, q = quot
    if len(p) > 1:
        rest = ring.scalars((p, q) if gauss else p, d)
        raise UnsplittablePolynomial(
            "characteristic polynomial: the factor %s has no root among the "
            "candidates" % Poly(rest[::-1], chi.mode, promote=False))
    return sorted(roots, key=scalar_key)


def _comparison_mode(fm):
    """fm when exact; over the floats the coarser yardstick eigenvalues are
    clustered and compared at, since a defective eigenvalue scatters its
    computed copies far beyond the working tolerance while the cluster mean
    stays accurate."""
    if fm.exact:
        return fm
    return FieldMode(fm.base, fm.involution, fm.tolerance ** 0.4)


def _float_eigenvalues(A):
    import numpy as np
    arr = np.array([[complex(x) for x in row] for row in A.a], dtype=complex)
    if A.rows == 0:
        return []
    vals = np.linalg.eigvals(arr)
    radius = _comparison_mode(A.mode).tolerance
    clusters = []  # list of lists
    for v in sorted(vals, key=lambda z: (z.real, z.imag)):
        # single linkage: near any member joins; merge clusters v bridges
        hit = [cl for cl in clusters
               if any(abs(v - w) <= radius * max(1.0, abs(w)) for w in cl)]
        if hit:
            hit[0].append(v)
            for cl in hit[1:]:
                hit[0].extend(cl)
                clusters.remove(cl)
        else:
            clusters.append([v])
    out = []
    for cl in clusters:
        mean = sum(cl) / len(cl)
        out.extend([mean] * len(cl))
    return out


def eigenvalues(A, mode=None):
    """Roots of the characteristic polynomial, with multiplicity, in mode's
    field (A's by default): a rational A's in the Gaussian rationals too,
    with no elimination of its complexification.  Float eigenvalues are
    complex whatever the mode."""
    if not A.is_square():
        raise ValueError("square matrix required")
    if not A.mode.exact:
        return _float_eigenvalues(A)
    return _exact_roots(char_poly(A), mode or A.mode)


class JordanStructure:
    __slots__ = ("entries",)

    def __init__(self, entries):
        # entries: list of (eigenvalue, sorted-descending tuple of sizes)
        self.entries = entries

    def sizes(self, lam, mode):
        mode = complex_mode(mode) if mode.base == REAL_FLOAT else mode
        for v, s in self.entries:
            if mode.eq(mode.promote(v), mode.promote(lam)):
                return s
        return ()

    def key(self):
        return tuple(sorted((scalar_key(v), tuple(s))
                            for v, s in self.entries))

    def __eq__(self, other):
        if not isinstance(other, JordanStructure):
            return NotImplemented
        return self.key() == other.key()

    def __repr__(self):
        return "JordanStructure(%r)" % (self.entries,)


def _distinct(vals):
    """(value, multiplicity) of each run of equal values in vals, which
    eigenvalues() lists together: the exact roots sorted, each float
    cluster's mean repeated."""
    return [(v, len(list(run))) for v, run in groupby(vals)]


def preimage_chain(B, S=None, red=None):
    """K_1, K_2, ... with K_0 = 0 and K_k = {x : B x in S K_(k-1)} (S = None
    for the identity): the kernel of ((S K_(k-1))^perp)^* B, or of B while
    K_(k-1) is empty, read off red, B's rref, when given.  right_kernel's
    basis depends only on the subspace."""
    K = B.right_kernel() if red is None else red.kernel()
    while True:
        yield K
        if K.cols:
            V = K if S is None else S * K
            K = (V.conj_transpose().right_kernel().conj_transpose()
                 * B).right_kernel()


def chain_counts(dims):
    """c_k, the number of chains of length exactly k (k = 1, 2, ...), from
    the dimensions dims[k] = dim K_k (dims[0] = 0): the increments w_k count
    the chains of length at least k, so c_k = w_k - w_(k+1)."""
    w = [b - a for a, b in zip(dims, dims[1:])] + [0]
    return [a - b for a, b in zip(w, w[1:])]


def _missed(lam, nullities, mult):
    return ValueError("eigenvalue %s: the nullities %s of (A - lam)^k miss "
                      "its algebraic multiplicity %d" % (lam, nullities, mult))


class RootSpace:
    """The root subspace of A at lam, an eigenvalue of algebraic
    multiplicity mult, as the preimage chain of the pencil B - lam S with
    A = S^-1 B: the kernels K_k = {x : (B - lam S) x in S K_(k-1)} of
    (A - lam)^k for k = 1, 2, ... until the nullity reaches mult, since
    B - lam S = S (A - lam) with S nonsingular.

    pencil is (B, S), by default (A, None), S = None standing for the
    identity.  A cosquare Phi = C^-* C takes (C, C*), so its eliminations
    run on the entries of C rather than of Phi; right_kernel's basis
    depends only on the subspace, so the kernels are the same either way.
    A nullity that stalls below mult or passes it raises ValueError: in
    exact modes neither can happen, in float modes either means the
    eigenvalue clusters are wrong.  The Jordan block sizes at lam (sizes)
    and the root-block signs (through chain()) read this one kernel chain,
    and so does generalized_eigenbasis.

    Exact sizes trust mult, which exact division of the characteristic
    polynomial counts, so the chain is built for them only when the first
    nullity d, the number of blocks, leaves the partition open.  A simple
    eigenvalue has sizes (1,) with no elimination.  Any other eliminates
    its pencil forward once: a d outside 1..mult raises ValueError, and
    d = 1, mult - 1 or mult, the only part counts at which mult has one
    partition, fix sizes with no kernel.  chain() starts from that same
    elimination and keeps both nullity checks, so a lam that is not a
    simple eigenvalue, or a mult that d alone cannot show wrong, raises at
    its first read.
    """

    __slots__ = ("A", "lam", "mult", "sizes", "_pencil", "_red", "_kernels")

    def __init__(self, A, lam, mult, pencil=None):
        self.A, self.lam, self.mult = A, A.mode.promote(lam), mult
        self._pencil = (A, None) if pencil is None else pencil
        self._red = self._kernels = None
        if A.mode.exact and mult == 1:
            self.sizes = (1,)
            return
        if A.mode.exact:
            P = self._matrix()
            red = P.rref()
            self._red, d = (P, red), len(red.free)
            if not 1 <= d <= mult:
                raise _missed(self.lam, [d], mult)
            if d in (1, mult - 1, mult):
                self.sizes = (mult - d + 1,) + (1,) * (d - 1)
                return
        counts = chain_counts([K.cols for K in self.chain()])
        self.sizes = tuple(k for k in range(len(counts), 0, -1)
                           for _ in range(counts[k - 1]))

    def _matrix(self):
        """The pencil's matrix B - lam S."""
        B, S = self._pencil
        return (B.minus_scalar(self.lam) if S is None
                else B - S.scale_left(self.lam))

    def chain(self):
        """The kernels of (A - lam)^k, k = 0, 1, ..., up to the root
        subspace, built once, from the construction's elimination when it
        made one."""
        if self._kernels is None:
            A, mult, S = self.A, self.mult, self._pencil[1]
            P, red = self._red or (self._matrix(), None)
            kernels = [Matrix.zeros(A.rows, 0, A.mode)]
            for K in preimage_chain(P, S, red):
                kernels.append(K)
                nul = [K.cols for K in kernels]
                if nul[-1] == nul[-2] or nul[-1] > mult:
                    raise _missed(self.lam, nul[1:], mult)
                if nul[-1] == mult:
                    break
            self._kernels = kernels
        return self._kernels


def jordan_structure(A):
    """Eigenvalues with their Jordan size partitions."""
    if A.mode.base == REAL_FLOAT:
        # complex eigenvalues force the analysis into the complexification
        A = complexify(A)
    return JordanStructure([(lam, RootSpace(A, lam, mult).sizes)
                            for lam, mult in _distinct(eigenvalues(A))])


def generalized_eigenbasis(A, lam):
    """Chain-ordered basis of the root subspace at lam, longest chains
    first, each chain (x_1 ... x_h) with A x_j = lam x_j + x_{j-1};
    ValueError when lam is not an eigenvalue.  A real-float A is read over
    the complex floats, as in jordan_structure."""
    A = complexify(A) if A.mode.base == REAL_FLOAT else A
    mode = A.mode
    lam = mode.promote(lam)
    mult = sum(mode.eq(mode.promote(v), lam) for v in eigenvalues(A))
    kernels = RootSpace(A, lam, mult).chain()
    N, n = A.minus_scalar(lam), A.rows
    chains = []  # each from its top vector down to height h
    for h in range(len(kernels) - 1, 0, -1):
        for chain in chains:
            chain.append(N * chain[-1])
        # the new tops, each heading a chain of length h, extend ker N^(h-1)
        # and the chains at height h to ker N^h: [span | ker N^h]'s pivots
        span = reduce(Matrix.hstack, [c[-1] for c in chains], kernels[h - 1])
        k = span.cols
        chains += [[kernels[h].submatrix(range(n), [j - k])]
                   for j in span.hstack(kernels[h]).rref().pivots if j >= k]
    return reduce(Matrix.hstack, [v for c in chains for v in reversed(c)])
