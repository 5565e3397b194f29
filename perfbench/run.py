"""Seeded benchmark of congruence canonicalization.

    python3 perfbench/run.py --workload roundtrip-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout; the package is imported from ./src.
For each workload it generates the seeded instance set in one process
(generate.py), then times canonicalize on it in fresh processes
(measure.py): a single-threaded closed loop, one call at a time.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  The last line of stdout is one JSON object.
"""

import os

# single-threaded: numpy's BLAS must not spawn threads in any child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("roundtrip-mixed", "singular-heavy", "regular-large")
MODES = ("star-ac", "congruence-ac", "congruence-real")
# set-up is timed in this many fresh processes besides the measuring one
SETUP_PROBES = 6
# a run ends well inside three minutes, whatever hangs
RUN_LIMIT_S = 170
# time of measure.reference_work() at which reported times are wall times;
# a time is scaled by (this / reference time) ** ELASTICITY, so that a shared
# machine's drift in speed cancels out: each latency by the reference time
# around it (the speed drifts within a run too), each set-up by the one just
# after it, per-layer times by the median of the run.  The program's times
# move less than the reference's: a least-squares fit of log times over 50
# twenty-second runs on a noisy 2-vCPU host gave 0.81.
REFERENCE_NOMINAL_S = 0.0015
REFERENCE_ELASTICITY = 0.8


class RunFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, seconds):
        self.seconds = seconds
        self.deadline = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def child(self, script, args, stdin=b""):
        """Run a benchmark script to completion; its stdout."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed("out of time before %s" % script)
        cmd = [sys.executable, str(HERE / script)] + args
        try:
            proc = subprocess.run(cmd, input=stdin, stdout=subprocess.PIPE,
                                  env=self.env, cwd=str(ROOT), timeout=left)
        except subprocess.TimeoutExpired:
            raise RunFailed("%s did not finish in time" % script)
        if proc.returncode != 0:
            raise RunFailed("%s exited with code %d" % (script, proc.returncode))
        return proc.stdout

    def measure(self, instances, trace, setup_only=False):
        args = ["--spawned-at", repr(time.monotonic()),
                "--seconds", str(self.seconds), "--trace", str(int(trace))]
        if setup_only:
            args.append("--setup-only")
        return json.loads(self.child("measure.py", args, stdin=instances))

    def workload(self, name, seed, trace):
        """(result object, report lines) for one workload."""
        self.deadline = time.monotonic() + RUN_LIMIT_S
        instances = self.child("generate.py",
                               ["--workload", name, "--seed", str(seed)])
        if trace:
            main = self.measure(instances, True)
            metrics, notes = per_layer(main, _scale(main["reference"])), {}
        else:
            probes = [self.measure(instances, False, setup_only=True)
                      for _ in range(SETUP_PROBES)]
            main = self.measure(instances, False)
            setups = [p["setup_s"] * _factor(p["setup_ref"])
                      for p in probes + [main]]
            metrics, notes = end_to_end(main, setups)
        insts = main["instances"]
        for r in insts:
            r["attempts"] = len(r["samples"]) + len(r["traced"])
        attempted = sum(r["attempts"] for r in insts)
        failed = attempted - sum(r["ok"] for r in insts)
        # every mode is exact: one wrong answer or failed witness is wrong
        correct = failed == 0 and all(r["witness"] for r in insts)
        result = {"correct": correct, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        lines = ["workload %s  seed %d  trace %d  instances %d  attempted %d"
                 "  failed %d  correct %s" % (name, seed, int(trace),
                                              len(insts), attempted, failed,
                                              correct),
                 "  times scaled by %.4f: reference work took %.4f ms"
                 " (median of %d), nominal %.4f ms; latencies call by call"
                 % (_scale(main["reference"]),
                    1000 * statistics.median(main["reference"]),
                    len(main["reference"]), 1000 * REFERENCE_NOMINAL_S)]
        width = max(len(k) for k in metrics)
        for key, m in metrics.items():
            line = "  %-*s %14.6g %s" % (width, key, m["value"], m["unit"])
            if key in notes:
                line += "   (%s)" % notes[key]
            lines.append(line)
        if not trace:
            lines.append("  %-*s %14.6g ratio   (%d of %d attempts)"
                         % (width, "fail_ratio", failed / attempted, failed,
                            attempted))
        for r in insts:
            if r["error"] is not None or not r["witness"]:
                lines.append(
                    "  failed instance %d (%s, n=%d, seed %d, scramble %d):"
                    " %d of %d attempts, witness %s, %s"
                    % (r["id"], r["cmode"], r["size"], seed, r["scramble"],
                       r["attempts"] - r["ok"], r["attempts"],
                       "ok" if r["witness"] else "FAILED", r["error"]))
        return result, lines


def _factor(reference_s):
    return (REFERENCE_NOMINAL_S / reference_s) ** REFERENCE_ELASTICITY


def _scale(reference):
    return _factor(statistics.median(reference))


def _scaled(r, side):
    """An instance's latencies on one side ("samples" or "traced"), each
    scaled by its local reference time."""
    return [dt * _factor(ref) for dt, ref in zip(r[side], r[side + "_ref"])]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _quantile(pairs, q):
    """Harrell-Davis estimate of the q-quantile of weighted samples.

    pairs are (value, weight) sorted by value.  The estimate is a mean of
    all samples weighted by a Beta kernel around q, so one instance more or
    less near q moves it a little, not from one sample to the next.
    """
    total = sum(w for _, w in pairs)
    n = total * total / sum(w * w for _, w in pairs)  # effective sample size
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 1 << 14
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    cdf = [0.0]
    for i in range(steps):
        x = (i + 0.5) / steps
        cdf.append(cdf[-1] + math.exp((a - 1) * math.log(x)
                                      + (b - 1) * math.log1p(-x) - log_beta))
    est = acc = 0.0
    prev = 0.0
    for value, w in pairs:
        acc += w
        cur = cdf[min(steps, round(acc / total * steps))] / cdf[-1]
        est += value * (cur - prev)
        prev = cur
    return est


def end_to_end(main, setups):
    """Metrics a caller sees, over the workload's fixed instance set.

    Every instance weighs the same, however often it ran in the time: its
    median latency stands for it in instances_per_s (correct answers per
    second of one pass over the set) and mode_s (seconds one pass spends
    on each mode's instances), and its samples share one unit of weight in
    the latency percentiles.  The median also drops the slow samples of a
    noisy machine.  Each latency is scaled by the reference time around
    it, each set-up time by the reference time just after it.
    """
    insts = main["instances"]
    scaled = [_scaled(r, "samples") for r in insts]
    medians = [statistics.median(x) for x in scaled]
    pass_s = sum(medians)
    correct = sum(r["ok"] / len(r["samples"]) for r in insts)
    lat = sorted((x, 1.0 / len(xs)) for xs in scaled for x in xs)
    n = len(lat)
    # the highest percentile with ten samples beyond it, never below the median
    q_tail = max(0.5, (n - 10) / n)
    failed = n - sum(r["ok"] for r in insts)
    metrics = {
        "instances_per_s": _metric(correct / pass_s, "1/s"),
        "latency_p50_ms": _metric(1000 * _quantile(lat, 0.5), "ms"),
        "latency_tail_ms": _metric(1000 * _quantile(lat, q_tail),
                                   "ms"),
        "ok_ratio": _metric((n - failed) / n, "ratio"),
    }
    for mode in MODES:
        metrics["mode_s." + mode] = _metric(
            sum(m for m, r in zip(medians, insts) if r["cmode"] == mode), "s")
    metrics["setup_s"] = _metric(statistics.median(setups), "s")
    metrics["peak_rss_mb"] = _metric(main["peak_rss_mb"], "MB")
    notes = {"latency_tail_ms": "p%.1f of %d samples" % (100 * q_tail, n),
             "setup_s": "median of %d processes" % len(setups),
             "instances_per_s": "%d instances, %.3f s per pass"
                                % (len(insts), pass_s)}
    return metrics, notes


def per_layer(main, scale):
    """Per-pass layer metrics of the traced calls, plus the tracing overhead.

    Self times are multiplied by scale."""
    metrics = {}
    for key, value in main["layers"].items():
        if key.endswith("_s"):
            metrics[key] = _metric(scale * value, "s")
        else:
            metrics[key] = _metric(value, "count")
    metrics["canon.ref_cache_entries"] = _metric(main["ref_cache_entries"],
                                                 "count")
    # throughput traced / untraced, from each instance's median scaled
    # latency on its traced and its untraced passes
    insts = main["instances"]
    plain = sum(statistics.median(_scaled(r, "samples")) for r in insts)
    traced = sum(statistics.median(_scaled(r, "traced")) for r in insts)
    metrics["trace.overhead_ratio"] = _metric(plain / traced, "ratio")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "congruence" / "canon.py").is_file():
        sys.exit("error: %s holds no congruence source tree" % SRC)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(args.seconds)
    results = {}
    try:
        for name in names:
            results[name], lines = runner.workload(name, args.seed,
                                                   bool(args.trace))
            print("\n".join(lines), flush=True)
    except RunFailed as e:
        sys.exit("error: %s" % e)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))


if __name__ == "__main__":
    main()
