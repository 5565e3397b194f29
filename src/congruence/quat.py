"""The quaternionic sign rule and *congruence witness checking.

No decomposition runs over the quaternions and no block constructor is
offered: the epsilon rule says which signs survive on a block,
forced_epsilon_witness exhibits a forced-sign block as *congruent to its
negative, and verify_witness checks explicit witnesses with the
noncommutative multiplication order respected.
"""

from .scalar import (GaussianRational, Quaternion, FieldMode, QUATERNION,
                     QUAT_CONJUGATION, QUAT_SEMICONJUGATION,
                     MODE_QUAT_CONJ, MODE_QUAT_SEMI, MODE_RATIONAL,
                     MODE_GAUSSIAN, is_rational, abs_squared)
from .matrix import Matrix
from .blocks import gamma, gamma_prime, delta
from .canon import ClassificationError, CongruenceWitness

GAMMA_FORM = "gamma-form"
DELTA_FORM = "delta-form"

J = Quaternion(0, 0, 1, 0)


def quat_mode(involution):
    if isinstance(involution, FieldMode):
        if involution.base != QUATERNION:
            raise ValueError("expected a quaternion mode")
        return involution
    if involution == QUAT_CONJUGATION:
        return MODE_QUAT_CONJ
    if involution == QUAT_SEMICONJUGATION:
        return MODE_QUAT_SEMI
    raise ValueError("unknown quaternion involution %r" % involution)


def _complex_param(lam):
    """Promote lam into the complex subfield, rejecting j/k components."""
    if isinstance(lam, Quaternion):
        if lam.c or lam.d:
            raise ValueError("parameter must lie in the complex subfield")
        return GaussianRational(lam.a, lam.b)
    if isinstance(lam, GaussianRational):
        return lam
    if is_rational(lam):
        return GaussianRational(lam)
    raise ValueError("parameter must lie in the complex subfield")


class EpsilonRule:
    """Which signs survive on a size-n block with unimodular parameter lam."""

    __slots__ = ("involution", "lam", "n")

    def __init__(self, involution, lam, n):
        self.involution = quat_mode(involution).involution
        self.lam = _complex_param(lam)
        self.n = int(n)
        if abs_squared(self.lam) != 1:
            raise ValueError("parameter must be unimodular")

    def __repr__(self):
        return "EpsilonRule(%s, %r, %d)" % (self.involution, self.lam, self.n)


def epsilon_choices(rule):
    """{+1} when the sign is forced by the involution parity, else {+1, -1}."""
    forced = GaussianRational((-1) ** rule.n)
    if rule.involution == QUAT_SEMICONJUGATION:
        forced = -forced
    if rule.lam == forced:
        return {1}
    return {1, -1}


def verify_witness(A, B, S, involution=None):
    """Whether S*AS = B exactly; S must be square and nonsingular."""
    mode = quat_mode(involution) if involution is not None else A.mode
    if A.mode != mode:
        A = A.cast(mode)
    if B.mode != mode:
        B = B.cast(mode)
    if S.mode != mode:
        S = S.cast(mode)
    if not (A.is_square() and B.is_square() and S.is_square()):
        raise ValueError("witness verification needs square matrices")
    if not A.rows == B.rows == S.rows:
        raise ValueError("dimension mismatch")
    if not S.is_nonsingular():
        raise ValueError("witness must be nonsingular")
    return S.conj_transpose() * A * S == B


def j_scaling(n, involution):
    """diag(j, -j, j, -j, ...) over the requested quaternion mode."""
    return Matrix.diagonal([J if k % 2 == 0 else -J for k in range(n)],
                           quat_mode(involution))


def forced_epsilon_witness(n, involution, form=DELTA_FORM, prime=False):
    """A verified witness that the forced-sign block is *congruent to its negative.

    For the parameter value whose epsilon is pinned to +1, the block B and
    -B are *congruent; the j-built S returned here exhibits it, so both
    signs name one congruence class and the rule loses no generality.
    """
    mode = quat_mode(involution)
    lam = GaussianRational((-1) ** n)
    if mode.involution == QUAT_SEMICONJUGATION:
        lam = -lam
    assert epsilon_choices(EpsilonRule(mode, lam, n)) == {1}
    if form == DELTA_FORM:
        # Delta carries sqrt(lam): 1 when lam = 1, i when lam = -1
        base = delta(n, 1, MODE_GAUSSIAN).cast(mode)
        S = j_scaling(n, mode)
        c = Quaternion(1) if lam == 1 else Quaternion(0, 1)
    elif form == GAMMA_FORM:
        # Gamma carries sqrt(lam * (-1)^(n+1)), constant per involution
        base = (gamma_prime(n) if prime else gamma(n)).cast(mode)
        S = Matrix.identity(n, mode).scale_left(J)
        c = (Quaternion(0, 1) if mode.involution == QUAT_CONJUGATION
             else Quaternion(1))
    else:
        raise ValueError("unknown block kind %r" % form)
    A = base.scale_left(c)
    w = CongruenceWitness(S, A, -A)
    if not w.verify():
        raise ClassificationError("forced-sign witness fails to verify")
    return w


def conjugation_flip(n, mode=MODE_RATIONAL):
    """diag(1, -1, 1, -1, ...) of size n."""
    return Matrix.diagonal([(-1) ** k for k in range(n)], mode)

