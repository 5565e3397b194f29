"""Cosquares, dual polynomials, recurrent vectors and Toeplitz cosquare roots.

The central construction: for a nonsingular companion matrix F whose
characteristic polynomial chi equals its own dual, build a Toeplitz
matrix A with A = A* F, so that the cosquare A^{-*} A is exactly F.

This module also owns the Jordan and companion families (jordan_block,
frobenius_block, whose layout chi_of_frobenius reads back) and the + roots
that block matrices are built from: the cosquare root of J_n(lam) in its
Jordan basis (star_root_jordan), negated where its one-entry sign read
(_reference) is negative.
"""

from functools import reduce

from .scalar import (GaussianRational, GAUSSIAN, IDENTITY, rational,
                     complex_mode, is_unimodular, scalar_key)
from .matrix import Matrix, Poly, char_poly, realify


class RootNotFound(ValueError):
    """No cosquare root exists for the requested matrix."""


def cosquare(A):
    """A^{-*} A (the involution is the plain transpose in identity modes)."""
    if not A.is_square():
        raise ValueError("cosquare needs a square matrix")
    return A.conj_transpose().solve(A)


def poly_dual(f, mode=None):
    """Monic conjugate-reversal: the roots map to inverse-involutions."""
    if mode is None:
        mode = f.mode
    n = f.degree
    if f.is_zero() or mode.is_zero(f.coeff(0)):
        raise ValueError("dual needs a nonzero constant term")
    rev = [mode.involve(f.coeff(n - k)) for k in range(n + 1)]
    return Poly(rev, mode).monic()


def recurrent_extend(seed, f, add_left=0, add_right=0):
    """Extend a sequence in both directions by the linear recurrence of f.

    Window rule: if f = g0 x^m + g1 x^(m-1) + ... + gm, every m+1
    consecutive entries satisfy g0*a[l] + g1*a[l+1] + ... + gm*a[l+m] = 0,
    the earliest entry paired with the leading coefficient.
    """
    mode = f.mode
    m = f.degree
    if m == 0:
        raise ValueError("constant generators admit no recurrent vectors")
    if len(seed) < m:
        raise ValueError("seed shorter than the recurrence order")
    if mode.is_zero(f.coeff(0)):
        raise ValueError("generator needs a nonzero constant term")
    g = [f.coeff(m - j) for j in range(m + 1)]  # g[0] leading ... g[m] constant
    vals = [mode.promote(x) for x in seed]

    def window(coeffs, entries):
        # one order for every window: from zero, left to right, each
        # coefficient the left factor (quaternions do not commute)
        acc = mode.zero()
        for c, x in zip(coeffs, entries):
            acc = acc + c * x
        return acc

    # any full window already inside the seed must hold
    for l in range(len(vals) - m):
        if not mode.is_zero(window(g, vals[l:l + m + 1])):
            raise ValueError("seed is not recurrent for the generator")
    for _ in range(add_right):
        vals.append(-window(g[:m], vals[-m:]) / g[m])
    for _ in range(add_left):
        vals.insert(0, -window(g[1:], vals[:m]) / g[0])
    return vals


def _from_qq(c):
    return rational(c.numerator, c.denominator)


def _prime_power(chi):
    """Return (p, s) with chi = p^s, p irreducible, or raise ValueError.

    chi's dense coefficient list is factored by sympy, imported here, over
    QQ, or over QQ_I for a Gaussian base."""
    import sympy
    from sympy.polys.factortools import dup_factor_list
    gauss = chi.mode.base == GAUSSIAN
    dom = sympy.QQ_I if gauss else sympy.QQ
    cs = [dom(c.re, c.im) if gauss else dom(c) for c in chi.c[::-1]]
    factors = dup_factor_list(cs, dom)[1]
    if len(factors) != 1:
        raise ValueError("characteristic polynomial is not a prime power")
    fac, s = factors[0]
    return Poly([GaussianRational(_from_qq(c.x), _from_qq(c.y)) if gauss
                 else _from_qq(c) for c in fac[::-1]], chi.mode).monic(), s


def root_exists(Phi, mode=None):
    """Whether Phi has a cosquare root; returns (bool, reason)."""
    if mode is None:
        mode = Phi.mode
    chi = char_poly(Phi)
    if mode.is_zero(chi.coeff(0)):
        return False, "singular matrix"
    try:
        p, _ = _prime_power(chi)
    except ValueError as e:
        return False, str(e)
    if p.degree == 1:
        return root_exists_jordan(Phi.rows, -p.coeff(0), mode)
    if p != poly_dual(p, mode):
        return False, "characteristic factor is not self-dual"
    return True, "ok"


def root_exists_jordan(n, lam, mode):
    """Closed-form existence test for a single nonsingular Jordan block."""
    lam = mode.promote(lam)
    if mode.is_zero(lam):
        return False, "singular matrix"
    if mode.involution == IDENTITY:
        if mode.eq(lam, mode.promote((-1) ** (n + 1))):
            return True, "ok"
        return False, "eigenvalue is not (-1)^(n+1)"
    if is_unimodular(lam, mode):
        return True, "ok"
    return False, "eigenvalue is not unimodular"


def jordan_block(n, lam, mode):
    """J_n(lam): lam on the diagonal, ones on the superdiagonal."""
    lam, one, z = mode.promote(lam), mode.one(), mode.zero()
    return Matrix([[lam if j == i else one if j == i + 1 else z
                    for j in range(n)] for i in range(n)], mode, promote=False)


def frobenius_block(chi):
    """Companion matrix with last column -c_n, ..., -c_1 (top to bottom)."""
    if chi.is_zero() or chi.degree < 1:
        raise ValueError("need a polynomial of degree at least 1")
    chi = chi.monic()
    mode, n = chi.mode, chi.degree
    one, z = mode.one(), mode.zero()
    # row i ends in -c_{n-i}, i.e. minus the coefficient of x^i
    return Matrix([[-chi.coeff(i) if j == n - 1 else one if j == i - 1 else z
                    for j in range(n)] for i in range(n)], mode, promote=False)


def chi_of_frobenius(F):
    """Read the characteristic polynomial off a companion matrix."""
    mode = F.mode
    n = F.rows
    c = [-row[n - 1] for row in F.a] + [mode.one()]
    return Poly(c, mode)


def _is_frobenius(F):
    """Whether F is square with the columns e_2, ..., e_n before its last."""
    n, mode = F.rows, F.mode
    if not F.is_square() or n < 1:
        return False
    shift = Matrix.zeros(1, n - 1, mode).vstack(Matrix.identity(n - 1, mode))
    return F.submatrix(range(n), range(n - 1)) == shift


def _root_seed_value(chi, mode):
    """The scalar seeding the Toeplitz entries, by parity case analysis."""
    n = chi.degree
    one = mode.one()
    if n % 2 == 0:
        # exception: chi = (x+c)^n with c^(n-1) = -1
        c = chi.coeff(n - 1) / mode.promote(n)
        linear = Poly([c, one], mode)
        if linear ** n == chi and mode.eq(c ** (n - 1), -one):
            return mode.i() - mode.involve(mode.i())  # e - conj(e) with e = i
        return one
    val = chi.eval(-one)
    if not mode.is_zero(val):
        return val
    # chi = (x+1)^n with n odd
    return mode.i() - mode.involve(mode.i())


def toeplitz_root(F, mode=None):
    """A Toeplitz matrix A with A = A* F and hence cosquare(A) = F."""
    if mode is None:
        mode = F.mode
    if not _is_frobenius(F):
        raise ValueError("expected a companion matrix")
    if mode.exact:
        ok, reason = root_exists(F, mode)
        if not ok:
            raise RootNotFound(reason)
    return _toeplitz(F, mode)


def _toeplitz(F, mode):
    """toeplitz_root's construction, for a companion F known to have a root."""
    chi = chi_of_frobenius(F)
    n = chi.degree
    a = _root_seed_value(chi, mode)
    m = n // 2 if n % 2 == 0 else (n + 1) // 2
    seed = [a] + [mode.zero()] * (2 * m - 2) + [mode.involve(a)]
    if n == 1:
        vals = seed[:1]
    else:
        # seed occupies indices 1-m .. m; target is 1-n .. n-1
        vals = recurrent_extend(seed, chi, add_left=n - m, add_right=n - 1 - m)
    A = Matrix([[vals[(i - j) + (n - 1)] for j in range(n)] for i in range(n)],
               mode, promote=False)
    if A.conj_transpose() * F != A:
        raise RootNotFound("construction failed the defining identity")
    return A


def star_root_jordan(n, lam, mode):
    """A cosquare root of the Jordan block J_n(lam), via the companion form."""
    lam = mode.promote(lam)
    ok, reason = root_exists_jordan(n, lam, mode)
    if not ok:
        raise RootNotFound(reason)
    chi = Poly([-lam, mode.one()], mode) ** n
    F = frobenius_block(chi)
    R = _toeplitz(F, mode)  # root_exists_jordan has decided existence
    # Jordan chain of the companion matrix: columns (F - lam)^{n-k} e0
    N = F.minus_scalar(lam)
    cols = [Matrix.identity(n, mode).submatrix(range(n), [0])]
    for _ in range(n - 1):
        cols.append(N * cols[-1])
    S = reduce(Matrix.hstack, reversed(cols))
    RJ = S.conj_transpose() * R * S  # a root of S^-1 F S = J_n(lam)
    if not mode.exact:
        return RJ
    if cosquare(RJ) != jordan_block(n, lam, mode):
        raise RootNotFound("transport failed the cosquare identity")
    return RJ


def _sign_scale(m, lam, fm):
    """sigma_m, the scale that makes the size-m top form carry the signs:
    lam^(m-1) under the identity (lam = +-1) and c (i conj(lam))^(m-1),
    c = 1 + conj(lam) (c = i at lam = -1), under a conjugation."""
    if fm.involution == IDENTITY:
        return lam ** (m - 1)
    c = fm.i() if fm.eq(lam, -fm.one()) else fm.one() + fm.involve(lam)
    return c * (fm.i() * fm.involve(lam)) ** (m - 1)


def _raw_root(n, lam, fm):
    """Deterministic cosquare root of J_n(lam), scale-normalized at n = 1."""
    R = star_root_jordan(n, lam, fm)
    if n == 1:
        s = max(map(abs, scalar_key(R.a[0][0])))
        R = R.scale_left(fm.inv(fm.promote(s)))
    return R


def _reference(n, lam, fm, realified):
    """The calibrated (+1) root at size n: the deterministic root R,
    negated when sigma_n R[n-1][0] is negative (realified, R is the complex
    root before realify).  R is a single block of J_n(lam) in its Jordan
    basis, so K_n is the whole space and N^(n-1) the matrix unit E_1n: the
    top form G_n of canon._top_form_signs is the one entry
    sigma_n R[n-1][0], and its sign is the block's."""
    g = complex_mode(fm) if realified else fm
    lam = g.promote(lam)
    R = _raw_root(n, lam, g)
    if scalar_key(_sign_scale(n, lam, g) * R.a[n - 1][0])[0] < 0:
        R = -R
    return realify(R).cast(fm) if realified else R


def plus_root(n, lam, field_mode, signed=True):
    """The cosquare-root block representative carrying the + sign.

    With signed=False (plain congruence over an algebraically closed
    field, where the block is signless) the deterministic root is
    returned without calibration.
    """
    lam = field_mode.promote(lam)
    if not signed:
        return _raw_root(n, lam, field_mode)
    return _reference(n, lam, field_mode, False)


def plus_realified_root(n, lam, field_mode):
    """The + representative of a realified unimodular root block."""
    return _reference(n, lam, field_mode, True)
