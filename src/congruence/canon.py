"""Classification engine: regularization, eigenvalue orbits, sign
extraction, and canonical block-sum assembly.

Pipeline: split off the singular summands first (a kernel-quotient
recursion that builds an explicit congruence witness), then compute the
core C's cosquare Phi once and its eigenvalues (in the Gaussian rationals
or complex floats for a real Phi).  Each distinct eigenvalue lam gets one
kernel chain (jordan.RootSpace), the kernels of (Phi - lam)^k read off the
pencil C - lam C* with C* formed once, built after a unimodular float
eigenvalue is snapped onto the unit circle; an exact simple eigenvalue
builds it only if its signs are read.  The eigenvalues are grouped into
orbits under x -> 1/conj(x) (star-ac) or x -> 1/x (congruence), plus
conjugation over the reals.  A one-member orbit (two for a unimodular
non-real lam over the reals) gives root blocks at the sizes n where
J_n(lam) has a cosquare root (cosquare.root_exists_jordan) and pairs the
other sizes off into skew pairs; any larger orbit gives skew pairs at its
representative.  The root
blocks get their signs from the kernel chain: on K_n = ker (Phi - lam)^n
the scaled form x* C (Phi - lam)^(n-1) y has rank the number of size-n
chains and signature d_n, the signed count of the size-n root blocks.

regularize proves T* A T = C0 + J_m1(0) + ... with T and the core C0
nonsingular, which fixes the sizes m_i; their subspace-chain profile is
read mod a prime and recomputed exactly only when that image disagrees.
In exact modes that profile comes first: an empty one proves A
nonsingular, and A is returned as its own core with no recursion.
"""

import random
from collections import Counter, namedtuple
from itertools import accumulate, islice
from operator import mul

from .scalar import (GaussianRational, Quaternion, GF2, FieldMode, rational,
                     GAUSSIAN, QUATERNION, REAL_FLOAT, COMPLEX_FLOAT, GF2_BASE,
                     IDENTITY, abs_squared, complex_mode, is_unimodular,
                     scalar_key)
from .matrix import (Matrix, direct_sum, char_poly, complexify, _P, _ModP,
                     _bareiss, _images_mod_p, _kernel_mod_p)
from .cosquare import (cosquare, jordan_block, root_exists_jordan,
                       _sign_scale)
from .blocks import (CONGRUENCE_AC, CONGRUENCE_REAL, STAR_AC,
                     SINGULAR_JORDAN, SKEW_PAIR, SIGNED_ROOT,
                     REAL_SKEW_PAIR, REAL_SIGNED_ROOT, CanonicalBlock,
                     BlockSum, field_mode_for)
from .jordan import (RootSpace, chain_counts, eigenvalues, preimage_chain,
                     _comparison_mode, _distinct)


class ClassificationError(ValueError):
    """An internal structural invariant failed during classification."""


# -- singular structure oracle ----------------------------------------------

def singular_profile(A):
    """Multiset of nilpotent block sizes in the congruence canonical form.

    Follows the preimage chains M_j = A^{-1}(A^* M_{j-1}) of (A, A^*) and
    P_j of (A^*, A) (_chain_profile), independently of any basis choice:
    the exact arbiter when the mod-p profile (_profile_mod_p) disagrees.
    """
    As = A.conj_transpose()
    return _chain_profile(zip(preimage_chain(A, As), preimage_chain(As, A)),
                          A.rows, lambda M: M.cols,
                          lambda M, P: M.hstack(P).rank())


def _profile_mod_p(A):
    """singular_profile of A's image in GF(_P) (matrix._images_mod_p); None
    when that is undefined or inconsistent.  K_k = {x : B x in S K_(k-1)}
    is the kernel of L^T B, L spanning {y : y^T S K_(k-1) = 0}: transposes
    only, so the chain holds over any field.  An image with an empty kernel
    is nonsingular, and so is its conjugate transpose: the profile is []
    after that one elimination."""
    images = _images_mod_p(A)
    if images is None:
        return None
    n = A.rows
    B, Bs = images
    K = _kernel_mod_p(B, n)
    if not K:
        return []

    def chain(B, S, K):
        Bt = list(zip(*B))
        while True:
            yield K
            if K:
                SK = [[sum(map(mul, row, x)) % _P for row in S] for x in K]
                K = _kernel_mod_p([[sum(map(mul, col, y)) % _P for col in Bt]
                                   for y in _kernel_mod_p(SK, n)], n)

    try:
        return _chain_profile(zip(chain(B, Bs, K),
                                  chain(Bs, B, _kernel_mod_p(Bs, n))), n, len,
                              lambda M, P: len(_bareiss(M + P, n, _ModP)[0]))
    except ClassificationError:
        return None


def _chain_profile(chains, n, dim, joint_rank):
    """Block sizes from the chain pairs (M_j, P_j) of an n x n matrix, read
    until both stall (at most n + 2 steps: a float chain need not grow):
    only dim M_j and dim (M_j meet P_j) = dim M + dim P - joint_rank(M, P)
    are used, and _profile_sizes turns them into chain counts."""
    dims, inter, last = [0], [], (0, 0)
    for M, P in islice(chains, n + 2):
        if (dim(M), dim(P)) == last:
            break
        last = (dim(M), dim(P))
        dims.append(last[0])
        inter.append(sum(last) - joint_rank(M, P))
    return _profile_sizes(dims, inter)


def _profile_sizes(dims, inter):
    """Chain sizes from dims[j] = dim M_j (dims[0] = 0) and
    inter[j-1] = dim (M_j meet P_j), largest first.

    Class t (sizes 2t-1 and 2t) holds chain_counts(dims)[t-1] chains.  Only
    the o_h odd chains of class h meet both subspace chains, in
    max(0, 2 min(j, h) - h) directions at step j, so the differences
    D_j = inter_j - inter_{j-1} read 2 (o_j + ... + o_{2j-2}) + o_{2j-1}
    (just o_1 for j = 1): triangular, solved from the largest class down.
    Every equation is checked, since a class with no chains must get o = 0.
    """
    counts = chain_counts(dims)
    maxt = len(inter)
    odd = [0] * (2 * maxt + 1)
    for j in range(maxt, 0, -1):
        d = inter[j - 1] - (inter[j - 2] if j > 1 else 0)
        if j > 1:
            d -= 2 * sum(odd[j + 1:2 * j - 1]) + odd[2 * j - 1]
        o, rem = divmod(d, 2 if j > 1 else 1)
        if rem or not 0 <= o <= counts[j - 1]:
            raise ClassificationError("inconsistent singular chain dimensions")
        odd[j] = o
    sizes = []
    for t in range(1, maxt + 1):
        sizes += [2 * t - 1] * odd[t] + [2 * t] * (counts[t - 1] - odd[t])
    return sorted(sizes, reverse=True)


# -- regularization ---------------------------------------------------------

class CongruenceWitness(namedtuple("CongruenceWitness", "S lhs rhs")):
    """A nonsingular S asserting S* . lhs . S = rhs."""
    __slots__ = ()

    def verify(self):
        S = self.S
        n = S.rows
        if S.cols != n or self.lhs.rows != n or not self.lhs.is_square():
            return False
        if not S.is_nonsingular():
            return False
        return S.conj_transpose() * self.lhs * S == self.rhs


RegularizationResult = namedtuple("RegularizationResult",
                                  "singular_blocks core witness")


def _reg_rec(A):
    """Regularizing basis of A as (X, lengths).

    X's columns are a core basis, on which A restricts nonsingularly,
    followed by one chain c_1..c_m per entry of lengths, with
    c_i^* A c_j = [j == i+1] within a chain and every cross pairing zero,
    so X^* A X is the core plus nilpotent Jordan blocks exactly.  The
    chains come longest first: the lifted ones, of lengths 2 + the
    sub-call's, keep its order, then come the chains of length 2, then the
    1s of the two-sided kernel.

    Every level has one shape.  The quotient W, a complement of ker A in
    ker K* A = (A* K)^perp for K = ker A, shortens every chain by two and
    leaves the core untouched; the vectors carried up from it are mapped
    once, X = W Xs.  The two-sided kernel V0 = ker A meet ker A* pairs to
    zero with every vector (A v = 0 and A* v = 0), so each of its lines is
    a J_1(0) summand as it stands, appended as a chain of length 1.  Its
    rows of K* A are zero, so W is the same with or without it, and K then
    shrinks to a complement of V0 in ker A, which meets ker A* trivially:
    each of its lines heads a chain of length >= 2.

    _level_bases reads all three off eliminations of A, K* A and
    A* K = (K* A)*, with k_f in K at each free column f of A: a column is
    free when it depends on the earlier ones, and a kernel basis vector is
    fixed by its free coordinates.  f is free in [A; A*] when A* k_f
    depends on the earlier A* k's, so V0 = K ker(A* K), basis for basis;
    k_j depends on V0 and the earlier k's when A* k_j depends on the
    earlier A* k's, so the complement is K at A* K's pivots, with those
    rows of K* A.  A's free columns stay free in K* A.  As k_f is nonzero
    only at f and at earlier pivots of A, ker K* A's basis vector at f lies
    in ker A plus the earlier ones, and one at a pivot g of A does not (ker
    A is zero at g when zero at the free columns after g): W is those.

    Chain j is lifted by y_j with y_j^* A x = 1 on its head x (the first
    vector of a carried chain) and 0 on the other carried vectors: the
    nlive live heads solve (A X)^* Y = R.  One elimination of
    [(A X)^* | -R], with no pivot beyond (A X)^*, gives both Y and
    H = ker (A X)^*: its kernel basis holds (y_j, e_j) at the columns of
    -R and (h, 0) at the free columns of (A X)^*.  A head h pairs to zero
    with K and W, so A h lies in span A* K, and the head rows of (A X)^*
    then pin the head columns of G = (K^* A) Y to full rank; G is
    singular exactly when some kernel line carries no chain
    (nlive < nch).  Those lines take their lifts from H: the columns of H
    at the pivots beyond the heads in one elimination of [G | K^* A H].
    The dual kernel basis K' = K (G^-1)^* then clears the lift-lift and
    carried-lift pairings at once, [Y | X] -= K' (A Y)^* [Y | X].
    """
    mode = A.mode
    n = A.rows
    level = _level_bases(A)
    if level is None:
        return Matrix.identity(n, mode), []
    K, KA, W, V0 = level
    Xs, lengths = _reg_rec(W.conj_transpose() * A * W)
    X = W * Xs
    ones = [1] * V0.cols
    nch = K.cols
    if nch == 0:
        return X.hstack(V0), lengths + ones
    starts = list(accumulate(lengths, initial=X.cols - sum(lengths)))
    nlive = min(len(lengths), nch)
    R = -Matrix.identity(X.cols, mode).submatrix(range(X.cols), starts[:nlive])
    red = (A * X).conj_transpose().hstack(R).rref()
    if red.pivots and red.pivots[-1] >= n:
        raise ClassificationError("no chain lift vector")
    L = red.kernel()
    h = L.cols - nlive
    Y = L.submatrix(range(n), range(h, L.cols))
    G = KA * Y
    if nlive < nch:
        H = L.submatrix(range(n), range(h))
        KH = KA * H
        pivots = G.hstack(KH).rref().pivots
        if pivots[:nlive] != list(range(nlive)) or len(pivots) < nch:
            raise ClassificationError("cannot normalize chain pairings")
        extra = [p - nlive for p in pivots[nlive:nch]]
        Y = Y.hstack(H.submatrix(range(n), extra))
        G = G.hstack(KH.submatrix(range(nch), extra))
    # dual kernel basis: k'_i pairs to 1 against y_i and 0 against the rest;
    # A K' = 0, so A Y stays put while Y and X move by multiples of K'
    Kp = K * G.inverse().conj_transpose()
    AY = A * Y
    Z = Y.hstack(X)
    Z = Kp.hstack(Z - Kp * (AY.conj_transpose() * Z))
    order = [2 * nch + c for c in range(starts[0])]
    for j in range(nch):
        order += [j, nch + j]
        if j < nlive:
            order += range(2 * nch + starts[j], 2 * nch + starts[j + 1])
    return (Z.submatrix(range(n), order).hstack(V0),
            [2 + (lengths[j] if j < nlive else 0) for j in range(nch)]
            + ones)


def _level_bases(A):
    """(K, K* A, W, V0) of a _reg_rec level, K shrunk to a complement of
    V0 in ker A; None for a nonsingular A."""
    n = A.rows
    red = A.rref()
    K = red.kernel()
    if K.cols == 0:
        return None
    KA = K.conj_transpose() * A
    redKA = KA.rref()
    if not set(redKA.pivots) <= set(red.pivots):
        raise ClassificationError("a free column of A is a pivot of K* A")
    W = redKA.kernel([c for c in red.pivots if c not in redKA.pivots])
    redAK = KA.conj_transpose().rref()
    return (K.submatrix(range(n), redAK.pivots),
            KA.submatrix(redAK.pivots, range(n)), W, K * redAK.kernel())


def regularize(A):
    """Split A into a nonsingular core plus nilpotent Jordan summands.

    The returned witness satisfies S* A S = core + J_m1(0) + ... exactly
    in exact modes (to tolerance otherwise).  In exact modes the
    subspace-chain profile of A's image mod a prime (_profile_mod_p) comes
    first.  The profile [] means that image has no kernel (read off one
    elimination of the image, which then ends the profile), so det A != 0
    and A is its own core: the sizes are [], the core is A and the witness
    is (I, A, A).  Every check below then holds by construction: T* A T = D
    reads A = A, T = I is nonsingular, C0 = A is nonsingular by the same
    certificate, and the sizes [] equal the profile.

    Otherwise, on the basis T of the recursion, T* A T is formed once: its
    leading block is the core C0, and the rest must equal the Jordan blocks
    and zeros.  T must be nonsingular, proved by Matrix.is_nonsingular (mod
    a prime, with an exact fallback; the float rank in float mode).  In
    exact modes C0 must be nonsingular too; then, by the uniqueness of the
    regularization (Horn & Sergeichuk 2006), the sizes are A's singular
    sizes.  As a cross-check they must match that mod-prime profile, or
    failing that (an unlucky prime, or no image) the exact one.
    """
    fm = A.mode
    if not A.is_square():
        raise ValueError("regularize needs a square matrix")
    n = A.rows
    profile = _profile_mod_p(A) if fm.exact else None
    if profile == []:
        return RegularizationResult(
            [], A, CongruenceWitness(Matrix.identity(n, fm), A, A))
    T, sizes = _reg_rec(A)
    if T.cols != n:
        raise ClassificationError("regularizing basis has wrong size")
    TAT = T.conj_transpose() * A * T
    k = n - sum(sizes)
    C0 = TAT.submatrix(range(k), range(k))
    D = direct_sum(C0, *[jordan_block(m, 0, fm) for m in sizes])
    if TAT != D:
        raise ClassificationError("regularizing basis fails the block form")
    if not T.is_nonsingular():
        raise ClassificationError("singular regularizing basis")
    if fm.exact and not C0.is_nonsingular():
        raise ClassificationError("regularizing basis leaves a singular core")
    if fm.exact and sizes != profile and sizes != singular_profile(A):
        raise ClassificationError("block sizes disagree with the "
                                  "subspace-chain profile")
    witness = CongruenceWitness(T, A, D)
    return RegularizationResult(sizes, C0, witness)


# -- eigenvalue orbits ------------------------------------------------------

def _orbit(lam, cmode, g):
    """lam's orbit under the maps that pair cosquare eigenvalues, lam first:
    x -> 1/conj(x) under star-ac, x -> 1/x under congruence, and complex
    conjugation too under congruence-real; duplicates removed under g.eq."""
    images = [lam]
    if cmode == CONGRUENCE_REAL:
        images.append(g.involve(lam))
    images += [g.inv(g.involve(x) if cmode == STAR_AC else x) for x in images]
    orbit = []
    for x in images:
        if not any(g.eq(x, y) for y in orbit):
            orbit.append(x)
    return orbit


def _representative(orbit, fm):
    """The member largest by (|x|^2, re, im), each compared at fm's
    tolerance; the first of the tied members wins."""
    def key(x):
        return (abs_squared(x),) + scalar_key(x)

    best = orbit[0]
    for x in orbit[1:]:
        for a, b in zip(key(x), key(best)):
            if not fm.eq(fm.promote(a), fm.promote(b)):
                if a > b:
                    best = x
                break
    return best


# -- sign extraction --------------------------------------------------------

def _inertia(G):
    """(pos, neg), the numbers of positive and negative eigenvalues of a
    Hermitian/symmetric matrix (exactly, where exact)."""
    fm = G.mode
    if not fm.exact:
        import numpy as np
        if G.rows == 0:
            return 0, 0
        arr = np.array([[complex(x) for x in row] for row in G.a])
        vals = np.linalg.eigvalsh(arr)
        scale = max(1.0, float(np.max(np.abs(vals))))
        thr = max(fm.tolerance, 1e-300) ** 0.5 * scale
        return int((vals > thr).sum()), int((vals < -thr).sum())
    p = char_poly(G)
    cs = []
    for k in range(p.degree + 1):
        c = p.coeff(k)
        if isinstance(c, GaussianRational):
            if c.im != 0:
                raise ClassificationError("non-real characteristic "
                                          "polynomial of a pairing form")
            c = c.re
        cs.append(c)

    def variations(seq):  # Descartes' rule, exact as all roots are real
        signs = [c > 0 for c in seq if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(cs), variations([(-1) ** k * c
                                       for k, c in enumerate(cs)])


def _top_form_signs(C, space, sizes):
    """d_m, the signed count of the root blocks of size m at space.lam, for
    each m in sizes: the signature of G_m = sigma_m K_m* C N^(m-1) K_m on
    K_m = ker N^m, N = Phi - lam, K_m read off space's kernel chain and
    sigma_m = _sign_scale(m, lam).  N is formed only when some m >= 2
    needs it.

    In a canonical basis N^(m-1) maps K_m onto the bottoms of the chains
    of length >= m, and C pairs a bottom only with the top of a chain of
    the same length, which lies in K_m only at length m.  So G_m vanishes
    off the size-m tops, where it is the classical sign characteristic:
    Hermitian (symmetric), of rank c_m, the number of size-m chains, and of
    signature d_m (a + block adds 1, a - block -1), in any basis of K_m.
    Checked: C = C* Phi on the root subspace the chain reached (so H = H* J
    for the chain form H = P* C P), G_m Hermitian and of rank c_m.
    """
    fm = C.mode
    lam = space.lam
    at = "signs at eigenvalue %s, " % (lam,)
    kernels = space.chain()
    R = kernels[-1]
    if C * R != C.conj_transpose() * (space.A * R):
        raise ClassificationError(at + "sizes %s: the chain form H is not "
                                  "H* J" % (list(space.sizes),))
    kind = "symmetric" if fm.involution == IDENTITY else "hermitian"
    N = space.A.minus_scalar(lam) if max(sizes) > 1 else None
    out = {}
    for m in sizes:
        K = V = kernels[m]
        for _ in range(m - 1):
            V = N * V
        G = (K.conj_transpose() * C * V).scale_left(_sign_scale(m, lam, fm))
        if G != G.conj_transpose():
            raise ClassificationError(at + "size %d: the top form is not %s"
                                      % (m, kind))
        pos, neg = _inertia(G)
        chains = space.sizes.count(m)
        if pos + neg != chains:
            raise ClassificationError(at + "size %d: the top form has rank "
                                      "%d, not %d" % (m, pos + neg, chains))
        out[m] = pos - neg
    return out


# read by perfbench/measure.py after every run (its canon.ref_cache_entries
# metric); the package keeps no reference cache, so it stays empty
_REF_CACHE = {}


def extract_signs(core, space, sizes, cmode):
    """The sign multiset attached to the root blocks at space.lam in core.

    space is the RootSpace of core's cosquare at lam (of its complexification
    for a non-real lam under congruence-real).  The sizes must be those of
    space.sizes at which J_n(lam) has a cosquare root.  The signed count d_n
    of the blocks of size n is the signature of the scaled top form of the
    size-n chains (_top_form_signs), so p = (count + d_n) / 2 of them carry
    the + sign.
    """
    fm = space.A.mode
    lam = space.lam
    sizes = sorted(int(n) for n in sizes)
    if not sizes:
        return []
    counts = Counter(sizes)
    if cmode not in (STAR_AC, CONGRUENCE_REAL):
        raise ValueError("mode %r carries no signs" % cmode)
    expected = sorted(n for n in space.sizes
                      if root_exists_jordan(n, lam, fm)[0])
    if expected != sizes:
        raise ValueError("sizes disagree with the cosquare structure: "
                         "%r vs %r" % (sizes, expected))
    if core.mode != fm:
        core = core.cast(fm)
    d = _top_form_signs(core, space, counts)
    out = []
    for n in sorted(counts, reverse=True):
        p = (counts[n] + d[n]) // 2
        out += [(n, 1)] * p + [(n, -1)] * (counts[n] - p)
    return out


# -- canonicalization -------------------------------------------------------

def canonicalize(A, cmode):
    """The ordered canonical BlockSum of A under the given equivalence."""
    return canonicalize_with_confidence(A, cmode)[0]


def canonicalize_with_confidence(A, cmode):
    """canonicalize plus a report of the numerical margins used."""
    if cmode not in (CONGRUENCE_AC, STAR_AC, CONGRUENCE_REAL):
        raise ValueError("unsupported mode %r" % cmode)
    if not A.is_square():
        raise ValueError("canonicalize needs a square matrix")
    floating = not A.mode.exact
    fm = field_mode_for(cmode, floating)
    if floating and A.mode.tolerance not in (None, fm.tolerance):
        fm = FieldMode(fm.base, fm.involution, A.mode.tolerance)
    if A.mode != fm:
        try:
            A = A.cast(fm)
        except TypeError:
            raise ValueError("mode %r classifies matrices over %r; this %r "
                             "matrix does not enter it"
                             % (cmode, fm.base, A.mode.base)) from None
    report = {"mode": cmode, "exact": not floating}
    reg = regularize(A)
    blocks = [CanonicalBlock(SINGULAR_JORDAN, m) for m in reg.singular_blocks]
    C = reg.core
    if floating:
        report["singular_blocks"] = list(reg.singular_blocks)
        report["core_size"] = C.rows
        report.update(_float_margins(A, C, reg.witness.S))
    if C.rows:
        # only the comparison stage runs coarse while Phi keeps the fine
        # tolerance (rank profiles inside the Jordan analysis depend on it)
        sfm = _comparison_mode(fm)
        Phi = cosquare(C)
        forms = (Phi, C, C.conj_transpose())
        if cmode == CONGRUENCE_REAL:
            work_mode, cfm = complex_mode(sfm), complex_mode(fm)
        else:
            work_mode, cfm = sfm, fm
        ents = [_root_space(forms, sfm, work_mode, lam, mult, cmode)
                for lam, mult in _distinct(eigenvalues(Phi, cfm))]
        if floating:
            report["eigenvalue_gap"] = _eigen_gap(ents)
        used = [False] * len(ents)
        for idx, (lam, space) in enumerate(ents):
            if used[idx]:
                continue
            used[idx] = True
            # the orbit's other members must be unused eigenvalues with the
            # same partition; their spaces line up with the orbit
            orbit = _orbit(lam, cmode, work_mode)
            spaces = [space]
            for x in orbit[1:]:
                j = next((j for j, (l, _) in enumerate(ents)
                          if work_mode.eq(l, x)), None)
                if j is None or used[j] or ents[j][1].sizes != space.sizes:
                    raise ClassificationError("unpaired eigenvalue %r"
                                              % (lam,))
                used[j] = True
                spaces.append(ents[j][1])
            rep = _representative(orbit, work_mode)
            blocks += _orbit_blocks(C, cmode, sfm, orbit, rep,
                                    spaces[orbit.index(rep)])
    return BlockSum(cmode, blocks), report


def _root_space(forms, fm, g, lam, mult, cmode):
    """(lam, RootSpace) for one distinct eigenvalue lam of the cosquare.

    forms is (Phi, C, C*), the cosquare and its pencil; fm and g are the
    comparison modes (g the complex one under congruence-real, else fm).
    A real lam of a congruence-real form is read in fm on the real forms,
    so its +-1 signs run over the reals; any other lam in g, on the forms
    complexified under congruence-real.  In float mode a lam that is
    unimodular at the comparison tolerance is first projected onto
    x involve(x) = 1 (the unit circle, or +-1 under the identity), so the
    chain and the signs read the same lam.
    """
    lam, mode = g.promote(lam), g
    if cmode == CONGRUENCE_REAL:
        if g.is_zero(scalar_key(lam)[1]):
            mode, lam = fm, fm.promote(scalar_key(lam)[0])
        else:
            forms = tuple(map(complexify, forms))
    if not mode.exact and is_unimodular(lam, mode):
        z = complex(lam)
        lam = mode.promote(z / abs(z) if mode.involution != IDENTITY
                           else (1.0 if z.real > 0 else -1.0))
    return g.promote(lam), RootSpace(forms[0], lam, mult, forms[1:])


def _orbit_blocks(C, cmode, fm, orbit, rep, space):
    """The canonical blocks of one eigenvalue orbit of C's cosquare.

    rep is the orbit's representative and space its RootSpace.  An orbit
    of one member (of two under congruence-real: a unimodular non-real lam
    and its conjugate) stays at space.lam: the sizes n at which J_n(lam)
    has no cosquare root (root_exists_jordan) pair off into skew pairs, and
    the others give root blocks, signed by extract_signs except under
    congruence-ac.  A larger orbit gives one skew pair at rep per block
    size, realified for a non-real rep under congruence-real.
    """
    sizes = space.sizes
    realified = (cmode == CONGRUENCE_REAL
                 and not fm.is_zero(scalar_key(rep)[1]))
    if len(orbit) > (2 if realified else 1):
        if realified:
            return [CanonicalBlock(REAL_SKEW_PAIR, n, lam=rep) for n in sizes]
        if cmode == CONGRUENCE_REAL:
            rep = fm.promote(scalar_key(rep)[0])
        return [CanonicalBlock(SKEW_PAIR, n, lam=rep) for n in sizes]
    lam, blocks = space.lam, []
    pairs = Counter(n for n in sizes
                    if not root_exists_jordan(n, lam, space.A.mode)[0])
    for n, c in pairs.items():
        if c % 2:
            raise ClassificationError("odd multiplicity in a "
                                      "self-paired orbit")
        blocks += [CanonicalBlock(SKEW_PAIR, n, lam=lam)] * (c // 2)
    roots = [n for n in sizes if n not in pairs]
    if cmode == CONGRUENCE_AC:
        signs = [(n, None) for n in roots]
    else:
        signs = extract_signs(C, space, roots, cmode)
    kind = REAL_SIGNED_ROOT if realified else SIGNED_ROOT
    return blocks + [CanonicalBlock(kind, n, lam=lam, eps=e)
                     for n, e in signs]


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
    """Whether A and B share one canonical BlockSum: equal kinds, sizes and
    signs, and parameters equal at canonicalize's comparison tolerance."""
    if A.rows != B.rows or A.cols != B.cols:
        return False
    cm = complex_mode(_comparison_mode(B.mode if A.mode.exact else A.mode))
    rest = list(canonicalize(B, cmode).blocks)
    for b in canonicalize(A, cmode).blocks:
        same = [c for c in rest if (c.kind, c.n, c.eps) == (b.kind, b.n, b.eps)
                and (b.lam is None
                     or cm.eq(cm.promote(b.lam), cm.promote(c.lam)))]
        if not same:
            return False
        rest.remove(same[0])
    return not rest


def random_congruence(K, seed):
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
        if fm.base == GF2_BASE:
            return GF2(rng.randint(0, 1))
        return rational(rng.randint(-3, 3))

    while True:
        if n == 0:
            S = Matrix.zeros(0, 0, fm)
            break
        S = Matrix([[entry() for _ in range(n)] for _ in range(n)], fm,
                   promote=False)
        if fm.exact:
            if S.is_nonsingular():
                break
        elif abs(S.det()) >= 0.5:
            break
    B = S.conj_transpose() * K * S
    return B, CongruenceWitness(S, K, B)
