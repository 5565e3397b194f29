"""The timed process of the canonicalize benchmark.

    python3 perfbench/measure.py --spawned-at T --seconds 30 --trace 0 < set.json

Reads an instance set (generate.py's output) on stdin.  One caller sends
the next canonicalize(A, mode) only after the previous one returned, cycling
through the set until the time is up and every instance has run at least
once (with --trace 1: once traced and once not).  Answers are checked
outside the timed region; the scrambling witnesses are verified after the
loop.  Between calls, a fixed piece of reference work is timed to gauge the
machine's speed; every latency is reported with the reference time around
it.  Prints one JSON summary on stdout.
"""

import argparse
import gc
import json
import resource
import sys
import time
from fractions import Fraction

from congruence import canon
from congruence.blocks import BlockSum
from congruence.canon import CongruenceWitness
from congruence.matrix import Matrix

# the reference work runs this often, between calls, this many times
REFERENCE_EVERY_S = 0.2
REFERENCE_REPS = 5


def reference_work():
    """Fixed exact work the program does not own: Fraction elimination of
    the 10x10 Hilbert matrix.  Its time tracks the speed of the machine."""
    n = 10
    a = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a[-1][-1]


class Instance:
    __slots__ = ("id", "cmode", "size", "scramble", "A", "K", "S",
                 "expected")

    def __init__(self, d):
        self.id = d["id"]
        self.cmode = d["cmode"]
        self.size = d["size"]
        self.scramble = d["scramble"]
        self.A = Matrix.from_json(d["A"])
        self.K = Matrix.from_json(d["K"])
        self.S = Matrix.from_json(d["S"])
        self.expected = BlockSum.from_json(d["expected"])


def reference_batch(reference):
    """Time REFERENCE_REPS rounds of the reference work; their median."""
    times = []
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    reference.extend(times)
    return sorted(times)[REFERENCE_REPS // 2]


def run(insts, seconds, tracer):
    """Closed loop over the set: per-instance latencies, the local
    reference time of each, errors, and the times of the reference work run
    between calls.

    A call's local reference time is the mean of the reference batches just
    before and just after it, so the speed of a machine that drifts within
    the run can be divided out call by call.  With a tracer, each instance
    runs traced and untraced on alternate passes, so both sides see the
    same machine; the loop then makes at least two passes.
    """
    n = len(insts)
    plain = [[] for _ in insts]
    traced = [[] for _ in insts]
    ok = [0] * n
    errors = [None] * n
    reference = []
    batches = []
    calls = []  # (instance, traced, latency, index of the batch before)
    least = n if tracer is None else 2 * n
    deadline = time.perf_counter() + seconds
    next_reference = 0.0
    k = 0
    while k < least or time.perf_counter() < deadline:
        if time.perf_counter() >= next_reference:
            batches.append(reference_batch(reference))
            next_reference = time.perf_counter() + REFERENCE_EVERY_S
        i = k % n
        inst = insts[i]
        on = tracer is not None and (k // n + i) % 2 == 0
        if on:
            tracer.instance = i
            tracer.install()
        err = None
        t0 = time.perf_counter()
        try:
            got = canon.canonicalize(inst.A, inst.cmode)
        except Exception as e:  # a failed instance never stops the run
            err = "%s: %s" % (type(e).__name__, e)
        dt = time.perf_counter() - t0
        if on:
            tracer.uninstall()
        if err is None:
            try:
                if got != inst.expected:
                    err = "wrong canonical form %r" % (got,)
            except Exception as e:
                err = "uncomparable answer: %s: %s" % (type(e).__name__, e)
        calls.append((i, on, dt, len(batches) - 1))
        if err is None:
            ok[i] += 1
        elif errors[i] is None:
            errors[i] = err
        k += 1
    batches.append(reference_batch(reference))
    for i, on, dt, b in calls:
        (traced if on else plain)[i].append(
            (dt, (batches[b] + batches[b + 1]) / 2))
    return plain, traced, ok, errors, reference


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report only its time")
    args = ap.parse_args()

    insts = [Instance(d) for d in json.load(sys.stdin)]
    gc.collect()
    setup_s = time.monotonic() - args.spawned_at
    # the machine's speed just after set-up, to scale set-up by
    setup_ref = reference_batch([])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref": setup_ref}))
        return

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    plain, traced, ok, errors, reference = run(insts, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"setup_s": setup_s, "setup_ref": setup_ref,
           "peak_rss_mb": peak_rss_mb,
           "ref_cache_entries": len(canon._REF_CACHE),
           "reference": reference}
    if tracer is not None:
        out["layers"] = tracer.per_pass([len(t) for t in traced])
    out["instances"] = [
        {"id": inst.id, "cmode": inst.cmode, "size": inst.size,
         "scramble": inst.scramble,
         "samples": [dt for dt, _ in p], "traced": [dt for dt, _ in t],
         "samples_ref": [r for _, r in p], "traced_ref": [r for _, r in t],
         "ok": n, "error": e,
         "witness": CongruenceWitness(inst.S, inst.K, inst.A).verify()}
        for inst, p, t, n, e in zip(insts, plain, traced, ok, errors)]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
