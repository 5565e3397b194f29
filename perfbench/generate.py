"""Seeded instance sets for the canonicalize benchmark.

    python3 perfbench/generate.py --workload roundtrip-mixed --seed 7 > set.json

Each instance is a canonical BlockSum turned into a matrix with
block_sum_matrix and scrambled with random_congruence.  This runs in its own
process because building the block matrices fills congruence.canon's
reference cache: generating in the timed process would hide the cache misses
a real caller pays.  The timed process gets only the serialized matrices and
expected forms.

Every workload has a fixed list of block shapes and parameters; the seed
draws the signs of the signed blocks and the scrambling congruence.  Keeping
the shapes fixed keeps the work per instance set steady from seed to seed,
so one run of a few seconds is comparable with the next.
"""

import argparse
import json
import random
import sys
from fractions import Fraction as F

from congruence.blocks import (CONGRUENCE_AC, CONGRUENCE_REAL, STAR_AC,
                               SINGULAR_JORDAN, SKEW_PAIR, SIGNED_ROOT,
                               REAL_SIGNED_ROOT, REAL_SKEW_PAIR,
                               CanonicalBlock, BlockSum, block_sum_matrix)
from congruence.canon import random_congruence
from congruence.scalar import GaussianRational as G

MODES = (STAR_AC, CONGRUENCE_AC, CONGRUENCE_REAL)


def sample_blocks(cmode, rng, maxtotal):
    """Blocks of a legal canonical BlockSum, drawn like the acceptance gate's
    round trips (a copy, so the benchmark's inputs stay put when tests change;
    signs are drawn later from the workload seed)."""
    blocks = []
    total = 0
    while total < maxtotal and rng.random() < 0.8:
        room = maxtotal - total
        for _ in range(30):
            kind = rng.choice(["sing", "pair", "root", "rroot", "rpair"])
            n = rng.randint(1, 3)
            b = None
            if kind == "sing" and n <= room:
                b = CanonicalBlock(SINGULAR_JORDAN, n)
            elif kind == "pair" and 2 * n <= room:
                if cmode == STAR_AC:
                    lam = rng.choice([F(2), F(3), G(1, 1), G(0, 2)])
                elif cmode == CONGRUENCE_AC:
                    lam = rng.choice([F(2), F(3), G(1, 1), G(0, 1),
                                      F((-1) ** n)])
                else:
                    lam = rng.choice([F(2), F(3), F(-2), F((-1) ** n)])
                b = CanonicalBlock(SKEW_PAIR, n, lam=lam)
            elif kind == "root" and n <= room:
                if cmode == STAR_AC:
                    lam = rng.choice([F(1), F(-1), G(0, 1), G(0, -1),
                                      G(F(3, 5), F(4, 5))])
                    b = CanonicalBlock(SIGNED_ROOT, n, lam=lam, eps=1)
                elif cmode == CONGRUENCE_AC:
                    b = CanonicalBlock(SIGNED_ROOT, n, lam=F((-1) ** (n + 1)))
                else:
                    b = CanonicalBlock(SIGNED_ROOT, n, lam=F((-1) ** (n + 1)),
                                       eps=1)
            elif kind == "rroot" and cmode == CONGRUENCE_REAL and 2 * n <= room:
                b = CanonicalBlock(REAL_SIGNED_ROOT, n,
                                   lam=G(F(3, 5), F(4, 5)), eps=1)
            elif kind == "rpair" and cmode == CONGRUENCE_REAL and 4 * n <= room:
                b = CanonicalBlock(REAL_SKEW_PAIR, n,
                                   lam=rng.choice([G(1, 1), G(1, 2)]))
            if b is not None:
                blocks.append(b)
                total += b.total_size()
                break
    return blocks


def _acceptance_shapes(per_mode):
    """The first non-empty draws of the acceptance distribution, per mode."""
    shapes = []
    for cmode in MODES:
        t = 0
        drawn = 0
        while drawn < per_mode:
            rng = random.Random("shape:%s:%d" % (cmode, t))
            blocks = sample_blocks(cmode, rng, maxtotal=10)
            t += 1
            if blocks:
                shapes.append((cmode, blocks))
                drawn += 1
    # interleave the modes so a partial pass still mixes them
    return [shapes[i + k * per_mode] for i in range(per_mode)
            for k in range(len(MODES))]


def _root(cmode, n, lam=None):
    """A root block of size n: signed (eps=+1 until the seed draws it), or
    unsigned at lam = (-1)^(n+1) under congruence-ac."""
    if cmode == CONGRUENCE_AC:
        return CanonicalBlock(SIGNED_ROOT, n, lam=F((-1) ** (n + 1)))
    if lam is None:
        lam = F((-1) ** (n + 1))
    return CanonicalBlock(SIGNED_ROOT, n, lam=lam, eps=1)


def _singular_shapes():
    """Nilpotent blocks J_1..J_4 with multiplicities, plus a 1x1 root."""
    mults = [(1, 1, 1, 0), (2, 1, 0, 1), (0, 1, 1, 1), (0, 0, 2, 1)]
    shapes = []
    for m in mults:
        for cmode in MODES:
            blocks = [CanonicalBlock(SINGULAR_JORDAN, size)
                      for size, count in zip((1, 2, 3, 4), m)
                      for _ in range(count)]
            shapes.append((cmode, blocks + [_root(cmode, 1)]))
    return shapes


def _regular_shapes():
    """Nonsingular sums of roots at several unimodular values and skew pairs."""
    u = G(F(3, 5), F(4, 5))
    star = [
        [_root(STAR_AC, 2, F(1)), _root(STAR_AC, 1, F(-1)),
         _root(STAR_AC, 2, G(0, 1)), _root(STAR_AC, 1, u),
         CanonicalBlock(SKEW_PAIR, 1, lam=F(2))],
        [_root(STAR_AC, 3, u), _root(STAR_AC, 1, F(1)),
         _root(STAR_AC, 1, G(0, -1)), CanonicalBlock(SKEW_PAIR, 1, lam=G(1, 1))],
        [_root(STAR_AC, 3, F(1)), _root(STAR_AC, 2, G(0, -1)),
         CanonicalBlock(SKEW_PAIR, 1, lam=F(2))],
    ]
    ac = [
        [_root(CONGRUENCE_AC, 3), _root(CONGRUENCE_AC, 2),
         CanonicalBlock(SKEW_PAIR, 1, lam=F(2)),
         CanonicalBlock(SKEW_PAIR, 1, lam=G(1, 1))],
        [_root(CONGRUENCE_AC, 3), _root(CONGRUENCE_AC, 1),
         CanonicalBlock(SKEW_PAIR, 1, lam=G(0, 1)),
         CanonicalBlock(SKEW_PAIR, 1, lam=F(2))],
        [_root(CONGRUENCE_AC, 3), _root(CONGRUENCE_AC, 3),
         CanonicalBlock(SKEW_PAIR, 1, lam=G(1, 1))],
    ]
    real = [
        [_root(CONGRUENCE_REAL, 3), _root(CONGRUENCE_REAL, 2),
         CanonicalBlock(REAL_SIGNED_ROOT, 1, lam=u, eps=1),
         CanonicalBlock(SKEW_PAIR, 1, lam=F(2))],
        [_root(CONGRUENCE_REAL, 2), _root(CONGRUENCE_REAL, 3),
         CanonicalBlock(REAL_SKEW_PAIR, 1, lam=G(1, 1))],
        [_root(CONGRUENCE_REAL, 1), _root(CONGRUENCE_REAL, 2),
         CanonicalBlock(REAL_SIGNED_ROOT, 1, lam=u, eps=1),
         CanonicalBlock(SKEW_PAIR, 2, lam=F(1))],
    ]
    return [(cmode, blocks) for trio in zip(star, ac, real)
            for cmode, blocks in zip(MODES, trio)]


WORKLOADS = {
    "roundtrip-mixed": lambda: _acceptance_shapes(4),
    "singular-heavy": _singular_shapes,
    "regular-large": _regular_shapes,
}


def _with_signs(blocks, rng):
    return [CanonicalBlock(b.kind, b.n, lam=b.lam, eps=rng.choice([1, -1]))
            if b.eps is not None else b for b in blocks]


def generate(workload, seed):
    """The workload's instance set for this seed, as JSON-ready dicts."""
    shapes = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    out = []
    for ident, (cmode, blocks) in enumerate(shapes()):
        bs = BlockSum(cmode, _with_signs(blocks, rng))
        K = block_sum_matrix(bs)
        scramble = rng.getrandbits(32)
        A, w = random_congruence(K, scramble)
        out.append({"id": ident, "cmode": cmode, "size": K.rows,
                    "scramble": scramble,
                    "K": K.to_json(), "S": w.S.to_json(), "A": A.to_json(),
                    "expected": bs.to_json()})
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    args = ap.parse_args()
    json.dump(generate(args.workload, args.seed), sys.stdout)


if __name__ == "__main__":
    main()
