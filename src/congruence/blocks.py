"""The canonical-block taxonomy, its block matrices and the M, Gamma and
Delta families.

A CanonicalBlock is one summand of a canonical decomposition; a BlockSum
is a canonically ordered list of blocks together with the classification
mode it belongs to.  block_matrix builds each block from cosquare's
families: J_n(lam) for singular blocks and skew pairs, and the + roots
(plus_root, plus_realified_root) for root blocks.  jordan_block and
frobenius_block are re-exported from cosquare, where they are defined.
"""

from .scalar import (FieldMode, MODE_RATIONAL, MODE_GAUSSIAN,
                     MODE_GAUSSIAN_ID, MODE_REAL_FLOAT, MODE_COMPLEX_FLOAT,
                     COMPLEX_FLOAT, IDENTITY, complex_mode, scalar_key,
                     scalar_to_json, scalar_from_json)
from .matrix import Matrix, direct_sum, skew_sum, realify
from .cosquare import (frobenius_block, jordan_block, plus_root,
                       plus_realified_root, root_exists_jordan)

__all__ = ["CONGRUENCE_AC", "CONGRUENCE_REAL", "STAR_AC", "SINGULAR_JORDAN",
           "SKEW_PAIR", "SIGNED_ROOT", "REAL_SKEW_PAIR", "REAL_SIGNED_ROOT",
           "field_mode_for", "jordan_block", "frobenius_block", "m_pair",
           "gamma", "gamma_prime", "delta", "CanonicalBlock",
           "block_order_key", "BlockSum", "check_block", "block_matrix",
           "block_sum_matrix"]

# classification modes
CONGRUENCE_AC = "congruence-ac"
CONGRUENCE_REAL = "congruence-real"
STAR_AC = "star-ac"

# block kinds
SINGULAR_JORDAN = "singular-jordan"
SKEW_PAIR = "skew-pair"
SIGNED_ROOT = "signed-root"
REAL_SKEW_PAIR = "real-skew-pair"
REAL_SIGNED_ROOT = "real-signed-root"

_KIND_RANK = {
    SINGULAR_JORDAN: 0,
    SKEW_PAIR: 1,
    SIGNED_ROOT: 2,
    REAL_SKEW_PAIR: 3,
    REAL_SIGNED_ROOT: 4,
}

_SIGNED_KINDS = (SIGNED_ROOT, REAL_SIGNED_ROOT)


def field_mode_for(cmode, floating=False):
    """The scalar field a classification mode's matrices live over."""
    if cmode == CONGRUENCE_AC:
        return FieldMode(COMPLEX_FLOAT, IDENTITY) if floating else MODE_GAUSSIAN_ID
    if cmode == STAR_AC:
        return MODE_COMPLEX_FLOAT if floating else MODE_GAUSSIAN
    if cmode == CONGRUENCE_REAL:
        return MODE_REAL_FLOAT if floating else MODE_RATIONAL
    raise ValueError("no fixed field for mode %r" % cmode)


# -- basic families ---------------------------------------------------------

def m_pair(n, mode=MODE_RATIONAL):
    """The pair M_n = [I | 0], N_n = [0 | I], both (n-1) x n."""
    I, z = Matrix.identity(n - 1, mode), Matrix.zeros(n - 1, 1, mode)
    return I.hstack(z), z.hstack(I)


def gamma(n, mode=MODE_RATIONAL):
    """Anti-triangular block with paired +-1 entries along the anti-diagonal."""
    if n < 1:
        raise ValueError("size must be positive")
    # row r: (-1)^(n-1-r) on the anti-diagonal and just right of it
    return Matrix([[(-1) ** (n - 1 - r) if c in (n - 1 - r, n - r) else 0
                    for c in range(n)] for r in range(n)], mode)


def gamma_prime(n, mode=MODE_RATIONAL):
    """The primed variant: sign pattern grouped around the center."""
    if n < 1:
        raise ValueError("size must be positive")
    half, odd = (n + 1) // 2, n % 2
    G = [[0] * n for _ in range(n)]
    for r in range(n):
        # the anti-diagonal holds -1 above the center when n is even; the
        # entry right of it is 1 below the center (n odd) or past row 0
        G[r][n - 1 - r] = 1 if odd or r >= half else -1
        if r >= (half if odd else 1):
            G[r][n - r] = 1
    return Matrix(G, mode)


def delta(n, mu, mode=MODE_GAUSSIAN):
    """mu along the anti-diagonal, i along the next lower anti-diagonal."""
    try:
        iunit = mode.i()
    except ValueError:
        raise ValueError("this block needs a base containing i")
    mu = mode.promote(mu)
    if mode.is_zero(mu):
        raise ValueError("parameter must be nonzero")
    z = mode.zero()
    return Matrix([[mu if c == n - 1 - r else iunit if c == n - r else z
                    for c in range(n)] for r in range(n)], mode, promote=False)


# -- canonical blocks -------------------------------------------------------

class CanonicalBlock:
    __slots__ = ("kind", "n", "lam", "eps")

    def __init__(self, kind, n, lam=None, eps=None):
        if kind not in _KIND_RANK:
            raise ValueError("unknown block kind %r" % kind)
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("block size must be a positive int, not %r"
                             % (n,))
        if (lam is None) != (kind == SINGULAR_JORDAN):
            raise ValueError("%s blocks %s a parameter" % (
                kind, "carry no" if kind == SINGULAR_JORDAN else "need"))
        if kind in _SIGNED_KINDS:
            if eps not in (None, 1, -1):
                raise ValueError("bad sign")
        elif eps is not None:
            raise ValueError("%s blocks carry no sign" % kind)
        self.kind = kind
        self.n = n
        self.lam = lam
        self.eps = eps

    def total_size(self):
        if self.kind == SKEW_PAIR:
            return 2 * self.n
        if self.kind == REAL_SKEW_PAIR:
            return 4 * self.n
        if self.kind == REAL_SIGNED_ROOT:
            return 2 * self.n
        return self.n

    def __eq__(self, other):
        if not isinstance(other, CanonicalBlock):
            return NotImplemented
        return block_order_key(self) == block_order_key(other)

    def __hash__(self):
        return hash((self.kind, self.n, self.eps))

    def __repr__(self):
        bits = [self.kind, "n=%d" % self.n]
        if self.lam is not None:
            bits.append("lam=%r" % self.lam)
        if self.eps is not None:
            bits.append("eps=%+d" % self.eps)
        return "Block(%s)" % ", ".join(bits)

    def to_json(self):
        out = {"kind": self.kind, "n": self.n}
        if self.lam is not None:
            out["lambda"] = scalar_to_json(self.lam)
        if self.eps is not None:
            out["epsilon"] = self.eps
        return out

    @staticmethod
    def from_json(data, field_mode):
        lam = data.get("lambda")
        if lam is not None:
            try:
                lam = scalar_from_json(lam, field_mode)
            except TypeError:
                # realified kinds carry parameters from the complex extension
                lam = scalar_from_json(lam, complex_mode(field_mode))
        return CanonicalBlock(data["kind"], data["n"], lam=lam,
                              eps=data.get("epsilon"))


def block_order_key(b):
    """Deterministic total order: kind, size descending, parameter, sign."""
    param = () if b.lam is None else scalar_key(b.lam)
    eps_rank = 0 if b.eps in (None, 1) else 1
    return (_KIND_RANK[b.kind], -b.n, param, eps_rank)


class BlockSum:
    __slots__ = ("cmode", "blocks")

    def __init__(self, cmode, blocks):
        self.cmode = cmode
        self.blocks = sorted(blocks, key=block_order_key)

    def total_size(self):
        return sum(b.total_size() for b in self.blocks)

    def __eq__(self, other):
        if not isinstance(other, BlockSum):
            return NotImplemented
        if self.cmode != other.cmode or len(self.blocks) != len(other.blocks):
            return False
        return all(block_order_key(x) == block_order_key(y)
                   for x, y in zip(self.blocks, other.blocks))

    def __hash__(self):
        return hash((self.cmode, len(self.blocks)))

    def __repr__(self):
        return "BlockSum(%s, [%s])" % (self.cmode,
                                       ", ".join(repr(b) for b in self.blocks))

    def to_json(self):
        return {"mode": self.cmode,
                "blocks": [b.to_json() for b in self.blocks]}

    @staticmethod
    def from_json(data, field_mode=None):
        cmode = data["mode"]
        if field_mode is None:
            field_mode = field_mode_for(cmode)
        return BlockSum(cmode, [CanonicalBlock.from_json(b, field_mode)
                                for b in data["blocks"]])


# -- block realization ------------------------------------------------------

def check_block(b, cmode, field_mode):
    """Validate a block's parameters against its classification mode.

    lam must be nonzero; the root kinds need J_n(lam) to have a cosquare
    root (root_exists_jordan) and the skew-pair kinds need it not to.  The
    realified kinds occur only under congruence-real and read a non-real
    lam over the complex extension.  A root block carries a sign in every
    mode except congruence-ac.
    """
    if b.kind == SINGULAR_JORDAN:
        return
    fm = field_mode
    realified = b.kind in (REAL_SKEW_PAIR, REAL_SIGNED_ROOT)
    if realified:
        if cmode != CONGRUENCE_REAL:
            raise ValueError("realified blocks only occur over a real "
                             "closed field")
        fm = complex_mode(fm)
    lam = fm.promote(b.lam)
    if fm.is_zero(lam):
        raise ValueError("block parameters must be nonzero")
    if realified and fm.is_zero(scalar_key(lam)[1]):
        raise ValueError("realified blocks need a strictly complex parameter")
    root = b.kind in _SIGNED_KINDS
    if root_exists_jordan(b.n, lam, fm)[0] != root:
        raise ValueError("%s blocks need J_n(lam) %s a cosquare root"
                         % (b.kind, "to have" if root else "not to have"))
    if root and (b.eps is None) != (cmode == CONGRUENCE_AC):
        raise ValueError("root blocks carry a sign in every mode except "
                         "congruence-ac")


def block_matrix(b, cmode, field_mode=None):
    """The concrete representative matrix of one canonical block."""
    if field_mode is None:
        field_mode = field_mode_for(cmode)
    fm = field_mode
    check_block(b, cmode, fm)
    n = b.n
    if b.kind == SINGULAR_JORDAN:
        return jordan_block(n, 0, fm)
    if b.kind == SKEW_PAIR:
        return skew_sum(jordan_block(n, b.lam, fm), Matrix.identity(n, fm))
    if b.kind == SIGNED_ROOT:
        R = plus_root(n, b.lam, fm, signed=b.eps is not None)
        return -R if b.eps == -1 else R
    g = complex_mode(fm)
    if b.kind == REAL_SKEW_PAIR:
        J = realify(jordan_block(n, g.promote(b.lam), g))
        return skew_sum(J, Matrix.identity(2 * n, fm))
    R = plus_realified_root(n, g.promote(b.lam), fm)
    return -R if b.eps == -1 else R


def block_sum_matrix(bs, field_mode=None):
    """Direct sum of the block matrices in canonical order."""
    if field_mode is None:
        field_mode = field_mode_for(bs.cmode)
    if not bs.blocks:
        return Matrix.zeros(0, 0, field_mode)
    return direct_sum(*[block_matrix(b, bs.cmode, field_mode)
                        for b in bs.blocks])
