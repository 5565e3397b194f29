"""Jordan structure: eigenvalues, block-size partitions, chain bases.

Exact modes restrict eigenvalues to the working field (Gaussian rationals
at most); anything irreducible of higher degree raises
UnsplittablePolynomial.  Float modes cluster numerically computed
eigenvalues at radius tolerance**(1/2).
"""

import sympy

from .scalar import (GaussianRational, GAUSSIAN, RATIONAL, rational,
                     is_rational)
from .matrix import Matrix, char_poly, column_complement


class UnsplittablePolynomial(ValueError):
    """The characteristic polynomial has roots outside the working field."""


def _sympy_roots(chi):
    x = sympy.Symbol("x")
    expr = 0
    for k in range(chi.degree + 1):
        c = chi.coeff(k)
        if isinstance(c, GaussianRational):
            sc = sympy.Rational(c.re) + sympy.Rational(c.im) * sympy.I
        else:
            sc = sympy.Rational(c)
        expr += sc * x ** k
    domain = "QQ_I" if chi.mode.base == GAUSSIAN else "QQ"
    poly = sympy.Poly(expr, x, domain=domain)
    _, factors = poly.factor_list()
    roots = []
    for fac, mult in factors:
        if fac.degree() != 1:
            raise UnsplittablePolynomial(
                "irreducible factor of degree %d" % fac.degree())
        # monic linear factor x - r
        r = -fac.all_coeffs()[-1] / fac.all_coeffs()[0]
        re = sympy.Rational(sympy.re(r))
        im = sympy.Rational(sympy.im(r))
        if chi.mode.base == GAUSSIAN:
            val = GaussianRational(rational(int(re.p), int(re.q)),
                                   rational(int(im.p), int(im.q)))
        else:
            if im != 0:
                raise UnsplittablePolynomial("complex root over a real field")
            val = rational(int(re.p), int(re.q))
        roots.extend([val] * mult)
    return roots


def _float_eigenvalues(A):
    import numpy as np
    mode = A.mode
    arr = np.array([[complex(x) for x in row] for row in A.a], dtype=complex)
    if A.rows == 0:
        return []
    vals = np.linalg.eigvals(arr)
    radius = max(mode.tolerance, 1e-300) ** 0.5
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


def eigenvalues(A):
    """Roots of the characteristic polynomial, with multiplicity."""
    if not A.is_square():
        raise ValueError("square matrix required")
    mode = A.mode
    if not mode.exact:
        vals = _float_eigenvalues(A)
        if mode.base == "real-float":
            # keep as complex for analysis; caller decides how to pair
            return vals
        return vals
    return _sympy_roots(char_poly(A))


class JordanStructure:
    __slots__ = ("entries", "basis")

    def __init__(self, entries, basis=None):
        # entries: list of (eigenvalue, sorted-descending tuple of sizes)
        self.entries = entries
        self.basis = basis

    def sizes(self, lam, mode):
        for v, s in self.entries:
            if mode.eq(mode.promote(v), mode.promote(lam)):
                return s
        return ()

    def key(self, order_key=None):
        ks = []
        for v, s in self.entries:
            ks.append((_eig_key(v), tuple(s)))
        return tuple(sorted(ks))

    def __eq__(self, other):
        if not isinstance(other, JordanStructure):
            return NotImplemented
        return self.key() == other.key()

    def __repr__(self):
        return "JordanStructure(%r)" % (self.entries,)


def _eig_key(v):
    if isinstance(v, GaussianRational):
        return (v.re, v.im)
    if is_rational(v):
        return (rational(v), rational(0))
    if isinstance(v, complex):
        return (v.real, v.imag)
    return (float(v), 0.0)


def _distinct(vals, mode):
    out = []
    for v in vals:
        if not any(mode.eq(mode.promote(v), mode.promote(w)) for w, _ in out):
            out.append((v, 1))
        else:
            out = [(w, c + 1) if mode.eq(mode.promote(v), mode.promote(w))
                   else (w, c) for w, c in out]
    return out


def _partition_from_ranks(A, lam):
    mode = A.mode
    n = A.rows
    I = Matrix.identity(n, mode)
    N = A - I.scale_left(mode.promote(lam))
    sizes = []
    P = I
    prev = n
    ranks = [n]
    for _ in range(n):
        P = P * N
        r = P.rank()
        ranks.append(r)
        if r == prev:
            break
        prev = r
    # blocks of size >= k: ranks[k-1] - ranks[k]
    counts = []
    for k in range(1, len(ranks)):
        counts.append(ranks[k - 1] - ranks[k])
    sizes = []
    for k, c in enumerate(counts, start=1):
        more = counts[k] if k < len(counts) else 0
        sizes.extend([k] * (c - more))
    return tuple(sorted(sizes, reverse=True))


def jordan_structure(A, basis=False):
    """Eigenvalues with their Jordan size partitions; optional chain basis."""
    if A.mode.base == "real-float":
        # complex eigenvalues force the analysis into the complexification
        from .scalar import FieldMode
        A = A.cast(FieldMode("complex-float", "conjugation", A.mode.tolerance))
    mode = A.mode
    vals = eigenvalues(A)
    distinct = _distinct(vals, mode)
    entries = []
    cols = []
    for lam, _ in distinct:
        part = _partition_from_ranks(A, lam)
        entries.append((lam, part))
        if basis:
            cols.append(generalized_eigenbasis(A, lam))
    S = None
    if basis:
        S = cols[0]
        for c in cols[1:]:
            S = S.hstack(c)
    return JordanStructure(entries, S)


def generalized_eigenbasis(A, lam):
    """Chain-ordered basis of the root subspace at lam.

    Each chain (x_1 ... x_h) satisfies A x_j = lam x_j + x_{j-1}, so the
    restriction of A is a direct sum of upper Jordan blocks.
    """
    mode = A.mode
    n = A.rows
    I = Matrix.identity(n, mode)
    N = A - I.scale_left(mode.promote(lam))
    # kernel bases of N^k
    kernels = [Matrix.zeros(n, 0, mode)]
    P = I
    while True:
        P = P * N
        K = P.right_kernel()
        if K.cols == kernels[-1].cols:
            break
        kernels.append(K)
        if K.cols == n:
            break
    d = len(kernels) - 1
    if d == 0:
        raise ValueError("not an eigenvalue")

    tops = {h: [] for h in range(1, d + 2)}
    for h in range(d, 0, -1):
        descended = [N * v for v in tops[h + 1]]
        span = kernels[h - 1]
        for v in descended:
            span = span.hstack(v)
        new = column_complement(span, kernels[h])
        tops[h] = descended + [new.submatrix(range(n), [j])
                               for j in range(new.cols)]
    # build chains from every vector first reaching its height
    chains = []
    for h in range(d, 0, -1):
        for v in tops[h][len(tops[h + 1]):]:
            chain = [v]
            for _ in range(h - 1):
                chain.append(N * chain[-1])
            chain.reverse()
            chains.append(chain)
    if not chains:
        raise ValueError("not an eigenvalue")
    cols = [v for ch in chains for v in ch]
    S = cols[0]
    for c in cols[1:]:
        S = S.hstack(c)
    return S
