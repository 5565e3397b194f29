"""Classification engine: regularization, eigenvalue orbits, sign
extraction, and canonical block-sum assembly.

Pipeline: split off the singular summands first (a kernel-quotient
recursion that builds an explicit congruence witness), then compute the
core's cosquare once and its eigenvalues.  Each distinct eigenvalue gets one
kernel chain (jordan.RootSpace), built after a unimodular float eigenvalue
is snapped onto the unit circle; an exact simple eigenvalue builds it only
if its basis is read.  The eigenvalues are grouped into orbits under
x -> 1/conj(x) (star-ac) or x -> 1/x (congruence), plus conjugation over
the reals.  A one-member orbit (two for a unimodular non-real lam over
the reals) gives root blocks at the sizes n where J_n(lam) has a cosquare
root (cosquare.root_exists_jordan) and pairs the other sizes off into skew
pairs; any larger orbit gives skew pairs at its representative.  The root
blocks get their signs from the chain basis: the signature of the scaled
form that pairs the tops of the size-n chains with their bottoms is the
signed count d_n of the size-n root blocks.

regularize proves T* A T = C0 + J_m1(0) + ... with T and the core C0
nonsingular, which fixes the sizes m_i; their subspace-chain profile is
read mod a prime and recomputed exactly only when that image disagrees.
In exact modes that profile comes first: an empty one proves A
nonsingular, and A is returned as its own core with no recursion.
"""

import random
from collections import Counter
from itertools import accumulate, islice
from operator import mul

from .scalar import (GaussianRational, Quaternion, GF2, FieldMode, rational,
                     GAUSSIAN, QUATERNION, REAL_FLOAT, COMPLEX_FLOAT, GF2_BASE,
                     IDENTITY, abs_squared, complex_mode, is_unimodular,
                     scalar_key)
from .matrix import (Matrix, direct_sum, realify, char_poly,
                     column_complement, _P, _images_mod_p, _kernel_mod_p,
                     _rref_mod_p)
from .blocks import (CONGRUENCE_AC, CONGRUENCE_REAL, STAR_AC,
                     SINGULAR_JORDAN, SKEW_PAIR, SIGNED_ROOT,
                     REAL_SKEW_PAIR, REAL_SIGNED_ROOT, CanonicalBlock,
                     BlockSum, jordan_block, field_mode_for)
from .cosquare import cosquare, root_exists_jordan, star_root_jordan
from .jordan import (RootSpace, chain_counts, eigenvalues, preimage_chain,
                     _distinct)


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
    only, so the chain holds over any field."""
    images = _images_mod_p(A)
    if images is None:
        return None
    n = A.rows

    def chain(B, S):
        Bt = list(zip(*B))
        K = _kernel_mod_p(B, n)
        while True:
            yield K
            if K:
                SK = [[sum(map(mul, row, x)) % _P for row in S] for x in K]
                K = _kernel_mod_p([[sum(map(mul, col, y)) % _P for col in Bt]
                                   for y in _kernel_mod_p(SK, n)], n)

    B, Bs = images
    try:
        return _chain_profile(zip(chain(B, Bs), chain(Bs, B)), n, len,
                              lambda M, P: len(_rref_mod_p(M + P, n)[0]))
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
        if not S.is_nonsingular():
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
    """Regularizing basis of A as (X, lengths).

    X's columns are a core basis, on which A restricts nonsingularly,
    followed by one chain c_1..c_m per entry of lengths, with
    c_i^* A c_j = [j == i+1] within a chain and every cross pairing zero,
    so X^* A X is the core plus nilpotent Jordan blocks exactly.

    Every level has one shape.  The quotient W, a complement of ker A in
    ker K* A = (A* K)^perp for K = ker A, shortens every chain by two and
    leaves the core untouched; the vectors carried up from it are mapped
    once, X = W Xs.  The two-sided kernel V0 = ker A meet ker A* pairs to
    zero with every vector (A v = 0 and A* v = 0), so each of its lines is
    a J_1(0) summand as it stands, appended as a chain of length 1.  Its
    rows of K* A are zero, so W is the same with or without it, and K then
    shrinks to a complement of V0 in ker A, which meets ker A* trivially:
    each of its lines heads a chain of length >= 2.

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
    K = A.right_kernel()
    if K.cols == 0:
        return Matrix.identity(n, mode), []
    V0 = A.vstack(A.conj_transpose()).right_kernel()
    ones = [1] * V0.cols
    KA = K.conj_transpose() * A
    W = column_complement(K, KA.right_kernel())
    Xs, lengths = _reg_rec(W.conj_transpose() * A * W)
    X = W * Xs
    if V0.cols:
        K = column_complement(V0, K)
        KA = K.conj_transpose() * A
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


def regularize(A):
    """Split A into a nonsingular core plus nilpotent Jordan summands.

    The returned witness satisfies S* A S = core + J_m1(0) + ... exactly
    in exact modes (to tolerance otherwise).  In exact modes the
    subspace-chain profile of A's image mod a prime (_profile_mod_p) comes
    first.  The profile [] means that image has no kernel, so det A != 0
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
    X, lengths = _reg_rec(A)
    if X.cols != n:
        raise ClassificationError("regularizing basis has wrong size")
    starts = list(accumulate(lengths, initial=n - sum(lengths)))
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    cols = list(range(starts[0]))
    for j in order:
        cols += range(starts[j], starts[j + 1])
    T = X.submatrix(range(n), cols)
    sizes = [lengths[j] for j in order]
    TAT = T.conj_transpose() * A * T
    C0 = TAT.submatrix(range(starts[0]), range(starts[0]))
    if sizes:
        D = direct_sum(C0, *[jordan_block(m, 0, fm) for m in sizes])
    else:
        D = C0
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


def _top_form_signs(C, space, sizes):
    """d_m, the signed count of the root blocks of size m at space.lam, for
    each m in sizes.

    On the chain basis P of space (chains longest first, each from its
    bottom to its top) the form H = P* C P satisfies H = H* J, J the
    cosquare's restriction, since C = C* Phi.  The top form G_m pairs the
    tops of the size-m chains (rows) with their bottoms (columns); scaled
    by sigma_m = lam^(m-1) under the identity (lam = +-1), by
    c (i conj(lam))^(m-1) with c = 1 + conj(lam) (c = i at lam = -1) under
    a conjugation, it is Hermitian (symmetric), and its signature is the
    classical sign characteristic: a + block of size m adds 1, a - block
    -1.  It is the form x* C (Phi - lam)^(m-1) y on the size-m tops, so up
    to congruence it does not depend on the chains chosen.
    """
    fm = C.mode
    lam = space.lam
    at = "signs at eigenvalue %s, " % (lam,)
    P = space.basis()
    J = P.solve(space.A * P)
    if J != direct_sum(*[jordan_block(m, lam, fm) for m in space.sizes]):
        raise ClassificationError(at + "sizes %s: restriction is not a "
                                  "Jordan matrix" % (list(space.sizes),))
    H = P.conj_transpose() * C * P
    if H != H.conj_transpose() * J:
        raise ClassificationError(at + "sizes %s: the chain form H is not "
                                  "H* J" % (list(space.sizes),))
    if fm.involution == IDENTITY:
        c, z, kind = fm.one(), lam, "symmetric"
    else:
        z, kind = fm.i() * fm.involve(lam), "hermitian"
        c = fm.i() if fm.eq(lam, -fm.one()) else fm.one() + fm.involve(lam)
    starts = list(accumulate(space.sizes, initial=0))
    out = {}
    for m in sizes:
        bottoms = [s for s, h in zip(starts, space.sizes) if h == m]
        G = H.submatrix([s + m - 1 for s in bottoms], bottoms)
        G = G.scale_left(c * z ** (m - 1))
        if G != G.conj_transpose():
            raise ClassificationError(at + "size %d: the top form is not %s"
                                      % (m, kind))
        out[m] = _signature(G)
    return out


# calibrated roots by (n, lam, mode, realified); the oldest entry is evicted
# past _REF_CACHE_MAX, so a long-lived process stays bounded
_REF_CACHE = {}
_REF_CACHE_MAX = 256


def _raw_root(n, lam, fm):
    """Deterministic cosquare root of J_n(lam), scale-normalized at n = 1."""
    R = star_root_jordan(n, lam, fm)
    if n == 1:
        s = max(map(abs, scalar_key(R.a[0][0])))
        R = R.scale_left(fm.inv(fm.promote(s)))
    return R


def _reference(n, lam, fm, realified):
    """The calibrated (+1) root at size n: the deterministic root, negated
    when extract_signs reads its single block as -1."""
    key = (n, scalar_key(lam), fm.base, fm.involution, fm.tolerance,
           realified)
    hit = _REF_CACHE.get(key)
    if hit is not None:
        return hit
    if realified:
        g = complex_mode(fm)
        lam = g.promote(lam)
        R = realify(_raw_root(n, lam, g)).cast(fm)
        space = RootSpace(cosquare(R.cast(g)), lam, n)
    else:
        lam = fm.promote(lam)
        R = _raw_root(n, lam, fm)
        space = RootSpace(cosquare(R), lam, n)
    cmode = (CONGRUENCE_REAL if realified or fm.involution == IDENTITY
             else STAR_AC)
    ((_, sign),) = extract_signs(R, space, [n], cmode)
    R = R if sign == 1 else -R
    if len(_REF_CACHE) >= _REF_CACHE_MAX:
        del _REF_CACHE[next(iter(_REF_CACHE))]
    _REF_CACHE[key] = R
    return R


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
        at = "signs at eigenvalue %s, size %d: " % (lam, n)
        if (counts[n] + d[n]) % 2:
            raise ClassificationError(at + "odd sign defect")
        p = (counts[n] + d[n]) // 2
        if not 0 <= p <= counts[n]:
            raise ClassificationError(at + "sign count out of range")
        out += [(n, 1)] * p + [(n, -1)] * (counts[n] - p)
    return out


# -- canonicalization -------------------------------------------------------

def canonicalize(A, cmode):
    """The ordered canonical BlockSum of A under the given equivalence."""
    return canonicalize_with_confidence(A, cmode)[0]


def _comparison_mode(fm):
    """fm when exact; over the floats the coarser yardstick eigenvalues are
    compared at, since a defective eigenvalue scatters its computed copies
    far beyond the working tolerance while the cluster mean stays accurate."""
    if fm.exact:
        return fm
    return FieldMode(fm.base, fm.involution, fm.tolerance ** 0.4)


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
        # only the comparison stage runs coarse while Phi keeps the fine
        # tolerance (rank profiles inside the Jordan analysis depend on it)
        sfm = _comparison_mode(fm)
        Phi = cosquare(C)
        if cmode == CONGRUENCE_REAL:
            work_mode = complex_mode(sfm)
            Phic = Phi.cast(complex_mode(fm))
        else:
            work_mode, Phic = sfm, Phi
        ents = [_root_space(Phi, Phic, sfm, work_mode, lam, mult, cmode)
                for lam, mult in _distinct(eigenvalues(Phic), Phic.mode)]
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


def _root_space(Phi, Phic, fm, g, lam, mult, cmode):
    """(lam, RootSpace) for one distinct eigenvalue lam of the cosquare.

    Phic is Phi, complexified under congruence-real; fm and g are the
    comparison modes (g the complex one under congruence-real, else fm).
    A real lam of a congruence-real form is read in fm on the real Phi, so
    its +-1 signs run over the reals; any other lam in g on Phic.  In float
    mode a lam that is unimodular at the comparison tolerance is first
    projected onto x involve(x) = 1 (the unit circle, or +-1 under the
    identity), so the chain and the signs read the same lam.
    """
    lam = g.promote(lam)
    if cmode == CONGRUENCE_REAL and g.is_zero(scalar_key(lam)[1]):
        mode, M, lam = fm, Phi, fm.promote(scalar_key(lam)[0])
    else:
        mode, M = g, Phic
    if not mode.exact and is_unimodular(lam, mode):
        z = complex(lam)
        lam = mode.promote(z / abs(z) if mode.involution != IDENTITY
                           else (1.0 if z.real > 0 else -1.0))
    return g.promote(lam), RootSpace(M, lam, mult)


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
