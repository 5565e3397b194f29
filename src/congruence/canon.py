"""Classification engine: regularization, eigenvalue pairing, sign
extraction, and canonical block-sum assembly.

Pipeline: split off the singular summands first (a kernel-quotient
recursion that builds an explicit congruence witness), then read the
Jordan structure of the core's cosquare, pair non-unimodular eigenvalues
into skew sums, and attach signs to the unimodular ones through
signatures of the chain pairing forms on each root subspace.
"""

import random
from fractions import Fraction

from .scalar import (GaussianRational, Quaternion, FieldMode, rational,
                     GAUSSIAN, RATIONAL, QUATERNION, REAL_FLOAT,
                     COMPLEX_FLOAT, IDENTITY, CONJUGATION,
                     MODE_RATIONAL, MODE_GAUSSIAN, MODE_COMPLEX_FLOAT,
                     abs_squared, is_unimodular)
from .matrix import (Matrix, direct_sum, realify, char_poly,
                     column_complement)
from .blocks import (CONGRUENCE_AC, CONGRUENCE_REAL, STAR_AC,
                     QUATERNION_STAR, SINGULAR_JORDAN, SKEW_PAIR,
                     SIGNED_ROOT, REAL_SKEW_PAIR, REAL_SIGNED_ROOT,
                     CanonicalBlock, BlockSum, jordan_block,
                     field_mode_for)
from .cosquare import cosquare, star_root_jordan
from .jordan import (UnsplittablePolynomial, jordan_structure,
                     generalized_eigenbasis)


class ClassificationError(ValueError):
    """An internal structural invariant failed during classification."""


def _complex_mode_for(fm):
    """The complex extension used for eigenvalue work over a real field."""
    if fm.exact:
        return MODE_GAUSSIAN
    return FieldMode(COMPLEX_FLOAT, CONJUGATION, fm.tolerance)


# -- column-space utilities -------------------------------------------------

def _cols(M):
    return [M.submatrix(range(M.rows), [j]) for j in range(M.cols)]


def _from_cols(cols, n, mode):
    if not cols:
        return Matrix.zeros(n, 0, mode)
    M = cols[0]
    for c in cols[1:]:
        M = M.hstack(c)
    return M


def _colspace(X):
    """Reduce columns to a basis of their span."""
    return X.transpose().rref().rows.transpose()


def _intersect(U, V):
    """Basis of the intersection of two column spaces."""
    mode = U.mode
    n = U.rows
    if U.cols == 0 or V.cols == 0:
        return Matrix.zeros(n, 0, mode)
    K = U.hstack(-V).right_kernel()
    if K.cols == 0:
        return Matrix.zeros(n, 0, mode)
    co = K.submatrix(range(U.cols), range(K.cols))
    return _colspace(U * co)


def _preimage(A, V):
    """Basis of {x : A x in col-space(V)}."""
    mode = A.mode
    n = A.cols
    if V.cols == 0:
        return A.right_kernel()
    K = A.hstack(-V).right_kernel()
    if K.cols == 0:
        return Matrix.zeros(n, 0, mode)
    return _colspace(K.submatrix(range(n), range(K.cols)))


def _perp(V):
    """Orthogonal complement of a column space, standard inner product."""
    return V.conj_transpose().right_kernel()


def _solve_any(Arows, rhs, mode):
    """One solution x of Arows x = rhs, or None."""
    n = Arows.cols
    red = Arows.hstack(rhs).rref()
    if n in red.pivots:
        return None
    x = [[mode.zero()] for _ in range(n)]
    for pc, row in zip(red.pivots, red.rows.a):
        x[pc][0] = row[n]
    return Matrix(x, mode, promote=False, shape=(n, 1))


def _solve_cols(A, B):
    """X with A X = B for a full-column-rank A whose span contains B."""
    d = A.cols
    # float residues of B outside the span stay below the pivots
    red = A.hstack(B).rref(limit=None if A.mode.exact else d)
    if red.pivots[:d] != list(range(d)):
        raise ClassificationError("basis columns are dependent")
    if len(red.pivots) > d:
        raise ClassificationError("columns leave the invariant subspace")
    return red.rows.submatrix(range(d), range(d, d + B.cols))


# -- singular structure oracle ----------------------------------------------

def singular_profile(A):
    """Multiset of nilpotent block sizes in the congruence canonical form.

    Read off two recursively defined subspace chains M_j = A^{-1}(A^* M_{j-1})
    and its swap; the dimension increments and intersections pin down how
    many chains of each length the singular part carries, independently of
    any basis choice.
    """
    import itertools
    mode = A.mode
    n = A.rows
    As = A.conj_transpose()
    M = Matrix.zeros(n, 0, mode)
    P = Matrix.zeros(n, 0, mode)
    Ms = [0]
    Ps = [0]
    Is = []
    while True:
        M2 = _preimage(A, As * M)
        P2 = _preimage(As, A * P)
        inter = _intersect(M2, P2)
        if M2.cols == Ms[-1] and P2.cols == Ps[-1]:
            break
        M, P = M2, P2
        Ms.append(M.cols)
        Ps.append(P.cols)
        Is.append(inter.cols)
        if len(Ms) > n + 2:
            break
    w = [Ms[j] - Ms[j - 1] for j in range(1, len(Ms))]
    maxt = len(w)
    counts = {}
    for t in range(1, maxt + 1):
        wt = w[t - 1]
        wt1 = w[t] if t < len(w) else 0
        if wt - wt1 > 0:
            counts[t] = wt - wt1
    # split each half-length class into odd/even lengths via the
    # intersection dimensions: a chain of odd length 2h-1 meets both
    # subspace chains in max(0, 2*min(j,h)-h) directions at step j
    ts = sorted(counts)
    best = None
    for combo in itertools.product(*[range(counts[t] + 1) for t in ts]):
        ok = True
        for j in range(1, maxt + 1):
            aj = Is[j - 1] if j - 1 < len(Is) else (Is[-1] if Is else 0)
            s = sum(o * max(0, 2 * min(j, h) - h) for o, h in zip(combo, ts))
            if s != aj:
                ok = False
                break
        if ok:
            best = combo
            break
    if best is None:
        raise ClassificationError("inconsistent singular chain dimensions")
    sizes = []
    for o, t in zip(best, ts):
        sizes += [2 * t - 1] * o + [2 * t] * (counts[t] - o)
    return sorted(sizes, reverse=True)


# -- regularization ---------------------------------------------------------

class CongruenceWitness:
    """A nonsingular S asserting S* . lhs . S = rhs."""

    __slots__ = ("S", "lhs", "rhs")

    def __init__(self, S, lhs, rhs):
        self.S = S
        self.lhs = lhs
        self.rhs = rhs

    def verify(self):
        S = self.S
        n = S.rows
        if S.cols != n or self.lhs.rows != n or not self.lhs.is_square():
            return False
        if S.rank() != n:
            return False
        return S.conj_transpose() * self.lhs * S == self.rhs


class RegularizationResult:
    __slots__ = ("singular_blocks", "core", "witness")

    def __init__(self, singular_blocks, core, witness):
        self.singular_blocks = singular_blocks
        self.core = core
        self.witness = witness

    def __repr__(self):
        return ("RegularizationResult(singular=%r, core=%dx%d)"
                % (self.singular_blocks, self.core.rows, self.core.cols))


def _reg_rec(A):
    """Chains and core columns of the singular decomposition.

    Returns (chains, core_cols) where each chain c_1..c_m of column
    vectors satisfies c_i^* A c_j = [j == i+1], core columns span a
    complement on which A restricts nonsingularly, and all cross
    pairings vanish, so stacking them realizes core + nilpotent Jordan
    blocks exactly.
    """
    mode = A.mode
    n = A.rows
    if n == 0:
        return [], []
    I = Matrix.identity(n, mode)
    K = A.right_kernel()
    if K.cols == 0:
        return [], _cols(I)
    Ks = A.conj_transpose().right_kernel()
    V0 = _intersect(K, Ks)
    if V0.cols:
        # two-sided kernel: split exact 1x1 zero summands off first
        W0 = column_complement(V0, I)
        chains, core = _reg_rec(W0.conj_transpose() * A * W0)
        chains = [[W0 * v for v in ch] for ch in chains]
        core = [W0 * v for v in core]
        chains += [[c] for c in _cols(V0)]
        return chains, core
    # ker A now meets ker A* trivially; each kernel line heads a chain of
    # length >= 2.  Pass to the quotient W of P = (A* ker A)^perp by ker A,
    # which shortens every chain by two and leaves the core untouched.
    nch = K.cols
    P = _perp(A.conj_transpose() * K)
    W = column_complement(K, P)
    chains_s, core_s = _reg_rec(W.conj_transpose() * A * W)
    chains_x = [[W * v for v in ch] for ch in chains_s]
    core_x = [W * v for v in core_s]
    allx = [v for ch in chains_x for v in ch] + core_x
    # lift each chain by a second vector y: the pairings y^* A v for the
    # carried vectors v are prescribed, rewritten as v^* A^* y = conj(rhs)
    rows = [(v.conj_transpose() * A.conj_transpose()).a[0] for v in allx]
    Arows = (Matrix(rows, mode, promote=False, shape=(len(allx), n))
             if rows else Matrix.zeros(0, n, mode))
    nlive = len(chains_x)
    ys = []
    for j in range(nch):
        rhs = [[mode.zero()] for _ in range(len(allx))]
        if j < nlive:
            rhs[sum(len(c) for c in chains_x[:j])][0] = mode.one()
        rhsM = Matrix(rhs, mode, promote=False, shape=(len(allx), 1))
        y = _solve_any(Arows, rhsM, mode)
        if y is None:
            raise ClassificationError("no chain lift vector")
        ys.append(y)
    H = Arows.right_kernel() if Arows.rows else I
    kcols = _cols(K)

    def gmat():
        return Matrix([[(kcols[i].conj_transpose() * A * ys[j]).a[0][0]
                        for j in range(nch)] for i in range(nch)],
                      mode, promote=False, shape=(nch, nch))

    G = gmat()
    if G.rank() < nch:
        # adjust lifts inside the homogeneous solution space until the
        # kernel-vs-lift pairing matrix becomes invertible
        hs = _cols(H)
        for j in range(nch):
            if G.rank() == nch:
                break
            for h in hs:
                old = ys[j]
                ys[j] = ys[j] + h
                G2 = gmat()
                if G2.rank() > G.rank():
                    G = G2
                    break
                ys[j] = old
    if G.rank() < nch:
        raise ClassificationError("cannot normalize chain pairings")
    # dual kernel basis: k'_i pairs to 1 against y_i and 0 against the rest
    Hk = G.inverse().conj_transpose()
    kprime = []
    for j in range(nch):
        v = Matrix.zeros(n, 1, mode)
        for i in range(nch):
            v = v + kcols[i].scale_left(Hk.a[i][j])
        kprime.append(v)
    # kill pairings among the lifts themselves
    E = [[(ys[j].conj_transpose() * A * ys[l]).a[0][0] for l in range(nch)]
         for j in range(nch)]
    for j in range(nch):
        for l in range(nch):
            mu = -mode.involve(E[j][l])
            if not mode.is_zero(mu):
                ys[j] = ys[j] + kprime[l].scale_left(mu)
    # the carried vectors were only determined modulo ker A; fix their
    # coset so the remaining left pairings against the lifts vanish
    def _shift(v):
        for j in range(nch):
            t = -mode.involve((v.conj_transpose() * A * ys[j]).a[0][0])
            if not mode.is_zero(t):
                v = v + kprime[j].scale_left(t)
        return v

    chains_x = [[_shift(v) for v in ch] for ch in chains_x]
    core_x = [_shift(v) for v in core_x]
    chains = []
    for j in range(nch):
        tail = chains_x[j] if j < nlive else []
        chains.append([kprime[j], ys[j]] + tail)
    return chains, core_x


def regularize(A, mode=None):
    """Split A into a nonsingular core plus nilpotent Jordan summands.

    The returned witness satisfies S* A S = core + J_m1(0) + ... exactly
    in exact modes (to tolerance otherwise); the block sizes are also
    cross-checked against the basis-free subspace-chain profile.
    """
    if mode is not None and A.mode != mode:
        A = A.cast(mode)
    fm = A.mode
    if not A.is_square():
        raise ValueError("regularize needs a square matrix")
    n = A.rows
    chains, core = _reg_rec(A)
    chains.sort(key=len, reverse=True)
    cols = core + [v for ch in chains for v in ch]
    if len(cols) != n:
        raise ClassificationError("regularizing basis has wrong size")
    T = _from_cols(cols, n, fm)
    sizes = [len(c) for c in chains]
    C0 = _from_cols(core, n, fm)
    C0 = C0.conj_transpose() * A * C0
    if sizes:
        D = direct_sum(C0, *[jordan_block(m, 0, fm) for m in sizes])
    else:
        D = C0
    if T.conj_transpose() * A * T != D:
        raise ClassificationError("regularizing basis fails the block form")
    if fm.exact:
        if n and fm.is_zero(T.det()):
            raise ClassificationError("singular regularizing basis")
        if sizes != singular_profile(A):
            raise ClassificationError("block sizes disagree with the "
                                      "subspace-chain profile")
    elif T.rank() != n:
        raise ClassificationError("singular regularizing basis")
    witness = CongruenceWitness(T, A, D)
    return RegularizationResult(sizes, C0, witness)


# -- representative selection -----------------------------------------------

def select_representative(lam, n, cmode, field_mode=None):
    """Normalize a type-(ii) parameter within its pairing orbit.

    Returns (representative, is_self_paired); rejects parameters that
    belong to the signed (type-(iii)) family instead.
    """
    if cmode == CONGRUENCE_REAL:
        g = MODE_GAUSSIAN
        try:
            gl = g.promote(lam)
            is_cplx = gl.im != 0
        except TypeError:
            gl = None
            is_cplx = isinstance(lam, complex) and lam.imag != 0
        if is_cplx:
            return _select_complex_pair(lam, cmode)
        fm = field_mode or MODE_RATIONAL
    else:
        fm = field_mode or field_mode_for(cmode)
    lam = fm.promote(lam)
    if fm.is_zero(lam):
        raise ValueError("zero is not a valid parameter")
    one = fm.one()
    if cmode in (STAR_AC, QUATERNION_STAR):
        if is_unimodular(lam, fm):
            raise ValueError("unimodular parameters belong to the signed kind")
        mu = fm.inv(fm.involve(lam))
        rep = lam if _abs2(lam) > _abs2(mu) else mu
        if cmode == QUATERNION_STAR and _im_part(rep) < 0:
            rep = fm.involve(rep)
        return rep, False
    if cmode == CONGRUENCE_AC:
        mu = fm.inv(lam)
        if fm.eq(lam, mu):
            if fm.eq(lam, fm.promote((-1) ** (n + 1))):
                raise ValueError("parameter (-1)^(n+1) belongs to the "
                                 "root kind")
            return lam, True
        a, b = _abs2(lam), _abs2(mu)
        if not fm.eq(fm.promote(a), fm.promote(b)):
            return (lam if a > b else mu), False
        # unimodular non-real orbit: prefer the larger (re, im) pair
        return (lam if _lex_gt(lam, mu, fm) else mu), False
    if cmode == CONGRUENCE_REAL:
        mu = fm.inv(lam)
        if fm.eq(lam, mu):
            if fm.eq(lam, fm.promote((-1) ** (n + 1))):
                raise ValueError("parameter (-1)^(n+1) belongs to the "
                                 "root kind")
            return lam, True
        return (lam if _abs2(lam) > _abs2(mu) else mu), False
    raise ValueError("unsupported mode %r" % cmode)


def _select_complex_pair(lam, cmode):
    """Real-mode complex parameter: pick b > 0 and a^2 + b^2 > 1."""
    g = MODE_GAUSSIAN if not isinstance(lam, complex) else MODE_COMPLEX_FLOAT
    lam = g.promote(lam)
    s = _abs2(lam)
    if g.eq(g.promote(s), g.one()):
        raise ValueError("unimodular parameters belong to the signed kind")
    orbit = [lam, g.involve(lam)]
    orbit += [g.inv(x) for x in orbit]
    for x in orbit:
        if _im_part(x) > 0 and _abs2(x) > 1:
            return x, False
    raise ValueError("no normalized member in the orbit of %r" % (lam,))


def _abs2(x):
    return abs_squared(x)


def _im_part(x):
    if isinstance(x, GaussianRational):
        return x.im
    if isinstance(x, complex):
        return x.imag
    if isinstance(x, Quaternion):
        return x.b
    return 0


def _parts(x):
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    if isinstance(x, complex):
        return (x.real, x.imag)
    return (x, 0)


def _lex_gt(x, y, fm):
    """x > y by (re, im), comparing coordinates up to the mode tolerance."""
    xr, xi = _parts(x)
    yr, yi = _parts(y)
    if not fm.eq(fm.promote(xr - yr), fm.zero()):
        return xr > yr
    return xi > yi


# -- sign extraction --------------------------------------------------------

def _signature(G):
    """Signature of a Hermitian/symmetric matrix (exactly, where exact)."""
    fm = G.mode
    if not fm.exact:
        import numpy as np
        if G.rows == 0:
            return 0
        arr = np.array([[complex(x) for x in row] for row in G.a])
        vals = np.linalg.eigvalsh(arr)
        scale = max(1.0, float(np.max(np.abs(vals))))
        thr = max(fm.tolerance, 1e-300) ** 0.5 * scale
        return int((vals > thr).sum()) - int((vals < -thr).sum())
    p = char_poly(G)
    cs = []
    for k in range(p.degree + 1):
        c = p.coeff(k)
        if isinstance(c, GaussianRational):
            if c.im != 0:
                raise ClassificationError("non-real characteristic "
                                          "polynomial of a pairing form")
            c = c.re
        cs.append(rational(c))
    while cs and cs[0] == 0:
        cs.pop(0)  # zero eigenvalues contribute nothing
    # all roots are real, so sign variation counts are exact
    def variations(seq):
        signs = [1 if c > 0 else -1 for c in seq if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = variations(cs)
    neg = variations([c if k % 2 == 0 else -c for k, c in enumerate(cs)])
    return pos - neg


def _chain_sizes(J, lam):
    """Block sizes of a chain-ordered Jordan matrix at lam."""
    mode = J.mode
    d = J.rows
    lam = mode.promote(lam)
    sizes = []
    cur = 1
    for i in range(d):
        if not mode.eq(J.a[i][i], lam):
            raise ClassificationError("restriction is not a Jordan matrix")
        if i + 1 < d and mode.eq(J.a[i][i + 1], mode.one()):
            cur += 1
        else:
            sizes.append(cur)
            cur = 1
    return sorted(sizes, reverse=True)


def _pairing_setup(C, lam):
    """Common data for the pairing forms on the root subspace at lam."""
    fm = C.mode
    Phi = cosquare(C)
    P = generalized_eigenbasis(Phi, lam)
    J = _solve_cols(P, Phi * P)
    H = P.conj_transpose() * C * P
    return H, J, _chain_sizes(J, lam)


def _s_vector_star(C, lam, kmax):
    """Signatures of the Hermitian chain pairing forms F K^(k-1).

    Writing the form on the root subspace as H with H* = H J^{-1}, the
    matrices F = H f(J) and K = i (lbar J - I)(lbar J + I)^{-1} make every
    F K^(k-1) Hermitian; their signatures are congruence invariants that
    add over direct summands and flip with the block sign.
    """
    fm = C.mode
    lam = fm.promote(lam)
    lbar = fm.involve(lam)
    H, J, csizes = _pairing_setup(C, lam)
    d = J.rows
    I = Matrix.identity(d, fm)
    Jinv = J.inverse()
    if fm.eq(lam, -fm.one()):
        F = (H * (I - Jinv)).scale_left(fm.i())
    else:
        c = (fm.one() + lbar) * fm.inv(fm.promote(2))
        F = (H * (I + Jinv.scale_left(lam))).scale_left(c)
    K = ((J.scale_left(lbar) - I)
         * (J.scale_left(lbar) + I).inverse()).scale_left(fm.i())
    out = {}
    G = F
    for k in range(1, kmax + 1):
        if G != G.conj_transpose():
            raise ClassificationError("pairing form is not hermitian")
        out[k] = _signature(G)
        G = G * K
    return out, csizes


def _s_vector_sym(C, lam, kmax):
    """Transpose-involution analogue; only one parity of k is symmetric."""
    fm = C.mode
    lam = fm.promote(lam)
    H, J, csizes = _pairing_setup(C, lam)
    d = J.rows
    I = Matrix.identity(d, fm)
    Jinv = J.inverse()
    if fm.eq(lam, fm.one()):
        F = H * (I + Jinv)
        K = (J - I) * (J + I).inverse()
        usable = 1
    elif fm.eq(lam, -fm.one()):
        F = H * (I - Jinv)
        K = (J + I) * (J - I).inverse()
        usable = 0
    else:
        raise ClassificationError("signed congruence blocks need lam = +-1")
    out = {}
    G = F
    for k in range(1, kmax + 1):
        if k % 2 == usable:
            if G != G.transpose():
                raise ClassificationError("pairing form is not symmetric")
            out[k] = _signature(G)
        elif G != -G.transpose():
            raise ClassificationError("pairing form is not skew-symmetric")
        G = G * K
    return out, csizes


_REF_CACHE = {}


def _lam_cache_key(lam):
    if isinstance(lam, GaussianRational):
        return ("g", lam.re, lam.im)
    if isinstance(lam, complex):
        return ("c", lam.real, lam.imag)
    if isinstance(lam, float):
        return ("f", lam)
    return ("q", rational(lam))


def _raw_root(n, lam, fm):
    """Deterministic cosquare root of J_n(lam), scale-normalized at n = 1."""
    R = star_root_jordan(n, lam, fm)
    if n == 1:
        e = R.a[0][0]
        if isinstance(e, GaussianRational):
            s = max(abs(e.re), abs(e.im))
        elif isinstance(e, complex):
            s = max(abs(e.real), abs(e.imag))
        else:
            s = abs(e)
        R = R.scale_left(fm.inv(fm.promote(s)))
    return R


def _reference(n, lam, fm, realified):
    """Calibrated (+1)-reference root and its signature vector at size n."""
    key = (n, _lam_cache_key(lam), fm.base, fm.involution, fm.tolerance,
           realified)
    hit = _REF_CACHE.get(key)
    if hit is not None:
        return hit
    if realified:
        g = _complex_mode_for(fm)
        gl = g.promote(lam)
        R = realify(_raw_root(n, gl, g))
        if R.mode != fm:
            R = R.cast(fm)
        svec, csizes = _s_vector_star(R.cast(g), gl, n)
    else:
        lam = fm.promote(lam)
        R = _raw_root(n, lam, fm)
        if fm.involution == IDENTITY:
            svec, csizes = _s_vector_sym(R, lam, n)
        else:
            svec, csizes = _s_vector_star(R, lam, n)
    if csizes != [n]:
        raise ClassificationError("reference root has wrong chain structure")
    sign = int(round(float(svec[n])))
    if sign not in (1, -1):
        raise ClassificationError("reference root calibration failed")
    sigma = {k: sign * int(round(float(v))) for k, v in svec.items()}
    entry = (sign, sigma, R)
    _REF_CACHE[key] = entry
    return entry


def plus_root(n, lam, field_mode, signed=True):
    """The cosquare-root block representative carrying the + sign.

    With signed=False (plain congruence over an algebraically closed
    field, where the block is signless) the deterministic root is
    returned without calibration.
    """
    lam = field_mode.promote(lam)
    if not signed:
        return _raw_root(n, lam, field_mode)
    sign, _, R = _reference(n, lam, field_mode, False)
    return R if sign == 1 else -R


def plus_realified_root(n, lam, field_mode):
    """The + representative of a realified unimodular root block."""
    sign, _, R = _reference(n, lam, field_mode, True)
    return R if sign == 1 else -R


def extract_signs(core, lam, sizes, cmode, field_mode=None):
    """The sign multiset attached to lam's root blocks inside core.

    Solves s = sum_n d_n sigma^(n) where s is the core's signature vector
    at lam and sigma^(n) the calibrated single-block references; the
    triangular system yields the (+-1)-counts per block size uniquely.
    """
    fm = field_mode or core.mode
    sizes = sorted(int(n) for n in sizes)
    if not sizes:
        return []
    counts = {}
    for n in sizes:
        counts[n] = counts.get(n, 0) + 1
    if cmode == STAR_AC:
        lam = fm.promote(lam)
        if not is_unimodular(lam, fm):
            raise ValueError("signed blocks need a unimodular parameter")
        realified = False
        svec, csizes = _s_vector_star(core, lam, max(sizes))
        expected = sorted(csizes)
    elif cmode == CONGRUENCE_REAL:
        g = _complex_mode_for(fm)
        gl = g.promote(lam)
        im = gl.im if g.exact else gl.imag
        realified = not (im == 0 if g.exact else abs(im) <= g.tolerance)
        if realified:
            if not g.eq(g.promote(abs_squared(gl)), g.one()):
                raise ValueError("signed blocks need a unimodular parameter")
            svec, csizes = _s_vector_star(core.cast(g), gl, max(sizes))
            expected = sorted(csizes)
            lam = gl
        else:
            lam = fm.promote(lam)
            if not (fm.eq(lam, fm.one()) or fm.eq(lam, -fm.one())):
                raise ValueError("real signed blocks need lam = +-1")
            lint = 1 if fm.eq(lam, fm.one()) else -1
            if any((-1) ** (n + 1) != lint for n in sizes):
                raise ValueError("block size parity contradicts lam")
            svec, csizes = _s_vector_sym(core, lam, max(sizes))
            expected = sorted(n for n in csizes if (-1) ** (n + 1) == lint)
    else:
        raise ValueError("mode %r carries no signs" % cmode)
    if expected != sizes:
        raise ValueError("sizes disagree with the cosquare structure: "
                         "%r vs %r" % (sizes, expected))
    refs = {n: _reference(n, lam, fm, realified) for n in counts}
    out = []
    solved = {}
    for n in sorted(counts, reverse=True):
        t = svec[n]
        for m, dm in solved.items():
            t -= dm * refs[m][1].get(n, 0)
        dn = int(round(float(t)))
        if (counts[n] + dn) % 2:
            raise ClassificationError("odd sign defect at size %d" % n)
        p = (counts[n] + dn) // 2
        if not 0 <= p <= counts[n]:
            raise ClassificationError("sign count out of range at size %d" % n)
        solved[n] = dn
        out += [(n, 1)] * p + [(n, -1)] * (counts[n] - p)
    return out


# -- canonicalization -------------------------------------------------------

def canonicalize(A, cmode):
    """The ordered canonical BlockSum of A under the given equivalence."""
    return _canonicalize_impl(A, cmode)[0]


def canonicalize_with_confidence(A, cmode):
    """canonicalize plus a report of the numerical margins used."""
    return _canonicalize_impl(A, cmode)


def _canonicalize_impl(A, cmode):
    if cmode not in (CONGRUENCE_AC, STAR_AC, CONGRUENCE_REAL):
        raise ValueError("unsupported mode %r" % cmode)
    if not A.is_square():
        raise ValueError("canonicalize needs a square matrix")
    floating = not A.mode.exact
    fm = field_mode_for(cmode, floating)
    if floating and A.mode.tolerance not in (None, fm.tolerance):
        fm = FieldMode(fm.base, fm.involution, A.mode.tolerance)
    if A.mode != fm:
        A = A.cast(fm)
    report = {"mode": cmode, "exact": not floating}
    reg = regularize(A)
    blocks = [CanonicalBlock(SINGULAR_JORDAN, m) for m in reg.singular_blocks]
    C = reg.core
    if floating:
        report["singular_blocks"] = list(reg.singular_blocks)
        report["core_size"] = C.rows
        report.update(_float_margins(A, C, reg.witness.S))
    if C.rows:
        # eigenvalue comparisons need a coarser yardstick in float mode: a
        # defective eigenvalue scatters its computed copies far beyond the
        # working tolerance; the cluster mean is accurate again, so only
        # the comparison stage runs coarse while Phi keeps the fine
        # tolerance (rank profiles inside the Jordan analysis depend on it).
        sfm = fm
        if floating:
            sfm = FieldMode(fm.base, fm.involution, fm.tolerance ** 0.4)
        if cmode == CONGRUENCE_REAL:
            work_mode = _complex_mode_for(sfm)
            Phi = cosquare(C).cast(_complex_mode_for(fm))
        else:
            work_mode = sfm
            Phi = cosquare(C)
        js = jordan_structure(Phi)
        ents = [(work_mode.promote(l), sorted(s, reverse=True))
                for l, s in js.entries]
        if floating:
            report["eigenvalue_gap"] = _eigen_gap(ents)
        used = [False] * len(ents)

        def find(val):
            for idx, (l, _) in enumerate(ents):
                if work_mode.eq(l, val):
                    return idx
            return -1

        def take_partner(val, sizes, who):
            j = find(val)
            if j < 0 or used[j] or sorted(ents[j][1]) != sorted(sizes):
                raise ClassificationError("unpaired eigenvalue in %s" % who)
            used[j] = True

        for idx, (lam, sizes) in enumerate(ents):
            if used[idx]:
                continue
            used[idx] = True
            if cmode == STAR_AC:
                _partition_star(C, sfm, fm, lam, sizes, blocks, take_partner)
            elif cmode == CONGRUENCE_AC:
                _partition_ac(sfm, lam, sizes, blocks, take_partner)
            else:
                _partition_real(C, sfm, fm, work_mode, lam, sizes, blocks,
                                take_partner)
    return BlockSum(cmode, blocks), report


def _unit_snap(lam, fm):
    """Project a float eigenvalue known to be unimodular onto the circle."""
    if fm.exact:
        return lam
    z = complex(lam)
    return fm.promote(z / abs(z))


def _partition_star(C, fm, efm, lam, sizes, blocks, take_partner):
    if is_unimodular(lam, fm):
        lam = _unit_snap(lam, fm)
        for n, e in extract_signs(C, lam, sizes, STAR_AC, efm):
            blocks.append(CanonicalBlock(SIGNED_ROOT, n, lam=lam, eps=e))
        return
    mu = fm.inv(fm.involve(lam))
    take_partner(mu, sizes, "star pairing")
    rep, _ = select_representative(lam, sizes[0], STAR_AC, fm)
    for n in sizes:
        blocks.append(CanonicalBlock(SKEW_PAIR, n, lam=rep))


def _partition_ac(fm, lam, sizes, blocks, take_partner):
    one = fm.one()
    if fm.eq(lam, one) or fm.eq(lam, -one):
        lint = 1 if fm.eq(lam, one) else -1
        lam = fm.promote(lint)
        pairs = {}
        for n in sizes:
            if (-1) ** (n + 1) == lint:
                blocks.append(CanonicalBlock(SIGNED_ROOT, n, lam=lam))
            else:
                pairs[n] = pairs.get(n, 0) + 1
        for n, c in pairs.items():
            if c % 2:
                raise ClassificationError("odd multiplicity in a "
                                          "self-paired orbit")
            blocks += [CanonicalBlock(SKEW_PAIR, n, lam=lam)] * (c // 2)
        return
    mu = fm.inv(lam)
    take_partner(mu, sizes, "congruence pairing")
    rep, _ = select_representative(lam, sizes[0], CONGRUENCE_AC, fm)
    for n in sizes:
        blocks.append(CanonicalBlock(SKEW_PAIR, n, lam=rep))


def _partition_real(C, fm, efm, g, lam, sizes, blocks, take_partner):
    im = lam.im if g.exact else lam.imag
    real = (im == 0) if g.exact else abs(im) <= g.tolerance
    if real:
        lr = lam.re if g.exact else lam.real
        lr = fm.promote(lr)
        one = fm.one()
        if fm.eq(lr, one) or fm.eq(lr, -one):
            lint = 1 if fm.eq(lr, one) else -1
            lr = fm.promote(lint)
            roots = [n for n in sizes if (-1) ** (n + 1) == lint]
            pairs = {}
            for n in sizes:
                if (-1) ** (n + 1) != lint:
                    pairs[n] = pairs.get(n, 0) + 1
            for n, e in extract_signs(C, lr, roots, CONGRUENCE_REAL, efm):
                blocks.append(CanonicalBlock(SIGNED_ROOT, n, lam=lr, eps=e))
            for n, c in pairs.items():
                if c % 2:
                    raise ClassificationError("odd multiplicity in a "
                                              "self-paired orbit")
                blocks += [CanonicalBlock(SKEW_PAIR, n, lam=lr)] * (c // 2)
            return
        mu = fm.inv(lr)
        take_partner(g.promote(mu), sizes, "real pairing")
        rep, _ = select_representative(lr, sizes[0], CONGRUENCE_REAL, fm)
        for n in sizes:
            blocks.append(CanonicalBlock(SKEW_PAIR, n, lam=rep))
        return
    conjl = g.involve(lam)
    if g.eq(g.promote(abs_squared(lam)), g.one()):
        take_partner(conjl, sizes, "realified root pairing")
        rep = _unit_snap(lam if im > 0 else conjl, g)
        for n, e in extract_signs(C, rep, sizes, CONGRUENCE_REAL, efm):
            blocks.append(CanonicalBlock(REAL_SIGNED_ROOT, n, lam=rep, eps=e))
        return
    take_partner(conjl, sizes, "realified pairing")
    li = g.inv(lam)
    take_partner(li, sizes, "realified pairing")
    take_partner(g.involve(li), sizes, "realified pairing")
    rep, _ = select_representative(lam, sizes[0], CONGRUENCE_REAL, fm)
    for n in sizes:
        blocks.append(CanonicalBlock(REAL_SKEW_PAIR, n, lam=rep))


def _eigen_gap(ents):
    vals = [complex(l) for l, _ in ents]
    gap = None
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            d = abs(vals[i] - vals[j])
            if gap is None or d < gap:
                gap = d
    return gap


def _float_margins(A, core, S):
    import numpy as np
    out = {}
    for name, M in (("matrix", A), ("core", core), ("witness", S)):
        if M.rows == 0 or M.cols == 0:
            out["min_singular_%s" % name] = None
            continue
        arr = np.array([[complex(x) for x in row] for row in M.a])
        out["min_singular_%s" % name] = float(np.linalg.svd(arr,
                                                            compute_uv=False)[-1])
    return out


# -- equivalence and instance generation ------------------------------------

def are_equivalent(A, B, cmode):
    """Whether A and B share the same canonical BlockSum."""
    if A.rows != B.rows or A.cols != B.cols:
        return False
    return canonicalize(A, cmode) == canonicalize(B, cmode)


def random_congruence(K, seed, cmode=None):
    """A seeded small-entry congruence scrambling of K, with witness."""
    fm = K.mode
    rng = random.Random(seed)
    n = K.rows

    def entry():
        if fm.base == GAUSSIAN:
            return GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
        if fm.base == QUATERNION:
            return Quaternion(rng.randint(-1, 1), rng.randint(-1, 1),
                              rng.randint(-1, 1), rng.randint(-1, 1))
        if fm.base == COMPLEX_FLOAT:
            return complex(rng.randint(-2, 2), rng.randint(-2, 2))
        if fm.base == REAL_FLOAT:
            return float(rng.randint(-3, 3))
        return rational(rng.randint(-3, 3))

    while True:
        if n == 0:
            S = Matrix.zeros(0, 0, fm)
            break
        S = Matrix([[entry() for _ in range(n)] for _ in range(n)], fm,
                   promote=False)
        if fm.base == QUATERNION:
            if S.rank() == n:
                break
        elif fm.exact:
            if not fm.is_zero(S.det()):
                break
        elif abs(S.det()) >= 0.5:
            break
    B = S.conj_transpose() * K * S
    return B, CongruenceWitness(S, K, B)
