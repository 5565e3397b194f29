"""Jordan structure: eigenvalues, block-size partitions, chain bases.

Exact modes restrict eigenvalues to the working field, the rationals or
the Gaussian rationals.  Write the characteristic polynomial as
chi = (p + i q) / d with integer polynomials p, q.  Every root of chi is a
root of p when q = 0, and otherwise of the norm p^2 + q^2 = d^2 chi conj(chi)
(complex conjugation of the coefficients, whatever the mode's involution).
sympy factors that integer polynomial over the integers.  A linear factor
gives a rational candidate root; a quadratic A x^2 + B x + C whose
4AC - B^2 is a positive square gives, over the Gaussian rationals only,
the pair (-B +- i sqrt(4AC - B^2)) / 2A.
Each candidate's multiplicity in chi is found by exact synthetic division
over the base, so a root of conj(chi) alone divides nothing.  Any other
factor raises UnsplittablePolynomial naming it, and so does any factor of
chi left undivided.

Float modes cluster numerically computed eigenvalues at radius
tolerance**(1/2).

RootSpace holds the one kernel chain at an eigenvalue lam: the kernels of
(A - lam)^k, which stop as soon as the nullity reaches lam's algebraic
multiplicity (a nullity that stalls below it or passes it raises
ValueError).  The Jordan partition at lam is read from their dimensions and
the chain-ordered basis from the kernels themselves.
"""

from functools import reduce
from math import isqrt

import sympy
from sympy.polys.factortools import dup_factor_list

from .scalar import (GaussianRational, GAUSSIAN, REAL_FLOAT, rational,
                     scalar_key)
from .matrix import (Matrix, Poly, char_poly, column_complement, complexify,
                     _RINGS)


class UnsplittablePolynomial(ValueError):
    """The characteristic polynomial has roots outside the working field."""


def _numerators(chi):
    """Integer coefficient lists p, q, highest power first, with
    chi = (p + i q) / d for one positive integer d."""
    ring = _RINGS.get(chi.mode.base)
    if ring is None:
        raise ValueError("exact eigenvalues need a rational or Gaussian "
                         "rational base, not %r" % chi.mode.base)
    ints, _ = ring.vector(chi.c[::-1])
    return ints if chi.mode.base == GAUSSIAN else (ints, [])


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
    field = "Gaussian rationals" if mode.base == GAUSSIAN else "rationals"
    raise UnsplittablePolynomial(
        "characteristic polynomial: irreducible factor %s has no root in "
        "the %s" % (sympy.Poly(f, sympy.Symbol("x")).as_expr(), field))


def _divide_out(c, r):
    """c / (x - r) by synthetic division (coefficients highest power
    first), or None when r is not a root of c."""
    quot = [c[0]]
    for a in c[1:]:
        quot.append(a + r * quot[-1])
    return None if quot.pop() else quot


def _exact_roots(chi):
    """The roots of chi in its base, with multiplicity."""
    p, q = _numerators(chi)
    norm = [a + b for a, b in zip(_square(p), _square(q))] if any(q) else p
    rest = chi.c[::-1]
    roots = []
    for f, _ in dup_factor_list(norm, sympy.ZZ)[1]:
        for r in _candidates(f, chi.mode):
            while (quot := _divide_out(rest, r)) is not None:
                roots.append(r)
                rest = quot
    if len(rest) > 1:
        raise UnsplittablePolynomial(
            "characteristic polynomial: the factor %s has no root among the "
            "candidates" % Poly(rest[::-1], chi.mode, promote=False))
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
    if not A.mode.exact:
        return _float_eigenvalues(A)
    return _exact_roots(char_poly(A))


class JordanStructure:
    __slots__ = ("entries",)

    def __init__(self, entries):
        # entries: list of (eigenvalue, sorted-descending tuple of sizes)
        self.entries = entries

    def sizes(self, lam, mode):
        for v, s in self.entries:
            if mode.eq(mode.promote(v), mode.promote(lam)):
                return s
        return ()

    def key(self):
        ks = []
        for v, s in self.entries:
            ks.append((scalar_key(v), tuple(s)))
        return tuple(sorted(ks))

    def __eq__(self, other):
        if not isinstance(other, JordanStructure):
            return NotImplemented
        return self.key() == other.key()

    def __repr__(self):
        return "JordanStructure(%r)" % (self.entries,)


def _distinct(vals, mode):
    out = []
    for v in vals:
        if not any(mode.eq(mode.promote(v), mode.promote(w)) for w, _ in out):
            out.append((v, 1))
        else:
            out = [(w, c + 1) if mode.eq(mode.promote(v), mode.promote(w))
                   else (w, c) for w, c in out]
    return out


class RootSpace:
    """The root subspace of A at lam, an eigenvalue of algebraic
    multiplicity mult, as the kernels of (A - lam)^k for k = 1, 2, ...
    until the nullity reaches mult.

    A nullity that stalls below mult or passes it raises ValueError: in
    exact modes neither can happen, in float modes either means the
    eigenvalue clusters are wrong.  The Jordan block sizes at lam (sizes)
    and the chain-ordered basis (basis()) both read this one kernel chain.
    """

    __slots__ = ("A", "lam", "sizes", "_N", "_kernels")

    def __init__(self, A, lam, mult):
        n = A.rows
        self.A, self.lam = A, A.mode.promote(lam)
        N = self._N = A.minus_scalar(self.lam)
        kernels = [Matrix.zeros(n, 0, A.mode)]
        P = N
        while True:
            kernels.append(P.right_kernel())
            nul = [K.cols for K in kernels]
            if nul[-1] == nul[-2] or nul[-1] > mult:
                raise ValueError(
                    "eigenvalue %s: the nullities %s of (A - lam)^k miss its "
                    "algebraic multiplicity %d" % (lam, nul[1:], mult))
            if nul[-1] == mult:
                break
            P = P * N
        self._kernels = kernels
        # blocks of size >= k: nul[k] - nul[k-1]
        counts = [b - a for a, b in zip(nul, nul[1:])]
        sizes = []
        for k, c in enumerate(counts, start=1):
            more = counts[k] if k < len(counts) else 0
            sizes.extend([k] * (c - more))
        self.sizes = tuple(sorted(sizes, reverse=True))

    def basis(self):
        """Chain-ordered basis, longest chains first.

        Each chain (x_1 ... x_h) satisfies A x_j = lam x_j + x_{j-1}, so the
        restriction of A is the direct sum of the upper Jordan blocks
        J_h(lam), h in sizes.
        """
        N, kernels = self._N, self._kernels
        n = N.rows
        chains = []  # each from its top vector down to height h
        for h in range(len(kernels) - 1, 0, -1):
            for chain in chains:
                chain.append(N * chain[-1])
            # new tops extend ker N^(h-1) and the chains pushed down to
            # height h to a basis of ker N^h; each heads a chain of length h
            span = reduce(Matrix.hstack, [c[-1] for c in chains],
                          kernels[h - 1])
            new = column_complement(span, kernels[h])
            chains += [[new.submatrix(range(n), [j])] for j in range(new.cols)]
        cols = [v for chain in chains for v in reversed(chain)]
        return reduce(Matrix.hstack, cols)


def jordan_structure(A):
    """Eigenvalues with their Jordan size partitions."""
    if A.mode.base == REAL_FLOAT:
        # complex eigenvalues force the analysis into the complexification
        A = complexify(A)
    return JordanStructure([(lam, RootSpace(A, lam, mult).sizes)
                            for lam, mult in _distinct(eigenvalues(A),
                                                       A.mode)])


def generalized_eigenbasis(A, lam):
    """Chain-ordered basis of the root subspace at lam (RootSpace.basis);
    ValueError when lam is not an eigenvalue."""
    mode = A.mode
    lam = mode.promote(lam)
    mult = sum(mode.eq(mode.promote(v), lam) for v in eigenvalues(A))
    return RootSpace(A, lam, mult).basis()
