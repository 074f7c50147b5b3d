"""Before/after record of the Euler step, appended to BENCH_euler_step.json.

    python3 bench/euler_step.py --before OLD --after NEW \
        [--reps 8] [--pairs 10] [--seconds 30] [--workloads mc-ladder]

OLD and NEW are roots of two source checkouts (each with src/ and
perfbench/).  Three kinds of rows, each run alternately on the two trees
(the side that goes first swaps every repetition), on one machine:

* path-steps/s of one simulate_ladder call over one CHUNK of paths,
  levels 8, 16, 32, 64, 128 (an mc-ladder bias ladder with its 1x
  reference), for tanh-vol from one start and from three CRN spots, GBM,
  the 1-D constant model and a 2-D constant model (d = r = 2) from two
  starts.  A call outside a reduction splits its paths over the
  library's default worker count, as every simulation does; before that
  it ran on one thread, so these rows from trees on either side of that
  change do not compare like with like.
* path-steps/s of two one-chunk reductions of cli-mix, at the library's
  default worker count: bias-limit's Monte Carlo half (bias_times_n_limit,
  OU(1, 1), the square, rungs 8, 16, 32, N = 16384: levels up to 256) and
  greeks' reference (price_romberg, OU(1.75, 0.5), the identity payoff at
  spot e^2, n = 128, N = 16384).
* perfbench pairs: `perfbench/run.py --workload W --seconds S --seed s`,
  untraced, in each tree, with seeds 1701, 1702, ...; every end-to-end
  metric of the run's last JSON line.

For the first two, each repetition is a fresh interpreter that runs every
case once to warm up, then CALLS times timed, and reports the fastest
call of each case; one timed call per interpreter is too noisy to read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEVELS = [8, 16, 32, 64, 128]
CASES = ["tanh-vol k=1", "tanh-vol k=3", "gbm", "constant-1d",
         "constant-2d k=2", "cli bias-limit MC", "cli greeks reference"]
CLI_N = 16384
# timed calls per interpreter after the warm-up; rows keep the min (the
# fastest of 3 still spread by 10-15%)
CALLS = 7
LOWER_IS_BETTER = {"setup_s", "wall_s", "peak_rss_mb", "task_p50_s",
                   "task_tail_s"}


def measure():
    """Path-steps/s of the fastest of CALLS timed calls per case in this
    interpreter, as JSON."""
    from weaklab import models as mdl
    from weaklab import testfunctions as tf
    from weaklab.euler import CHUNK, simulate_ladder
    from weaklab.montecarlo import bias_times_n_limit
    from weaklab.pricing import OptionSpec, make_payoff, price_romberg
    from weaklab.rng import RngStream

    def ladder(model, x):
        def run():
            simulate_ladder(model, x, LEVELS, 1.0, RngStream(17, 3), CHUNK)
            return len(x) * CHUNK * LEVELS[-1]
        return run

    def bias_limit():
        bias_times_n_limit(mdl.make_ou_model(1.0, 1.0), tf.square(), [1.0],
                           1.0, [8, 16, 32], CLI_N, RngStream(17, 4))
        return CLI_N * 2 * 4 * 32  # the reference's fine level: 2 x 4 x 32

    def greeks_reference():
        opt = OptionSpec(make_payoff("identity"), t=1.0, v=math.exp(2.0))
        price_romberg(mdl.make_ou_model(1.75, 0.5), opt, 128, CLI_N,
                      RngStream(17, 5))
        return CLI_N * 2 * 128

    tanh = mdl.make_bounded_vol_model(0.05, 0.6, 0.5)
    spots = [[math.log(v)] for v in (0.99, 1.0, 1.01)]
    cases = {"tanh-vol k=1": ladder(tanh, [[0.0]]),
             "tanh-vol k=3": ladder(tanh, spots),
             "gbm": ladder(mdl.make_gbm_model(0.1, 0.2), [[1.0]]),
             "constant-1d": ladder(mdl.make_constant_model([-0.02], [[0.2]]),
                                   [[0.0]]),
             "constant-2d k=2": ladder(mdl.make_constant_model(
                 [0.1, -0.2], [[0.3, 0.1], [0.0, 0.4]]),
                 [[0.0, 0.0], [0.1, -0.1]]),
             "cli bias-limit MC": bias_limit,
             "cli greeks reference": greeks_reference}
    rate = dict.fromkeys(CASES, 0.0)
    for rep in range(1 + CALLS):  # rep 0 warms up
        for name in CASES:
            t0 = time.perf_counter()
            work = cases[name]()
            if rep:
                rate[name] = max(rate[name],
                                 work / (time.perf_counter() - t0))
    print(json.dumps(rate))


def _summary(before, after, lower_is_better):
    q = lambda v: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    wins = sum((a < b) if lower_is_better else (a > b)
               for b, a in zip(before, after))
    mb, ma = statistics.median(before), statistics.median(after)
    return {"before_median": mb, "before_q1": q(before)[0],
            "before_q3": q(before)[2], "after_median": ma,
            "after_q1": q(after)[0], "after_q3": q(after)[2],
            # no relative change from a zero median (a count none made)
            "change": ma / mb - 1.0 if mb else None, "after_wins": wins,
            "pairs": len(before)}


def append_record(path, record):
    """Append record to the list of records in the JSON file at path; a
    file that holds one record, a dict, is read as a one-record list."""
    records = []
    if os.path.exists(path):
        with open(path) as fh:
            records = json.load(fh)
    if isinstance(records, dict):
        records = [records]
    with open(path, "w") as fh:
        json.dump(records + [record], fh, indent=1)
        fh.write("\n")


def _child(tree, args, cwd=None):
    env = {k: v for k, v in os.environ.items() if k != "WEAKLAB_WORKERS"}
    env["PYTHONPATH"] = os.path.join(tree, "src")
    return subprocess.run([sys.executable] + args, env=env, cwd=cwd,
                          check=True, capture_output=True, text=True).stdout


def micro_rows(trees, reps):
    runs = {side: [] for side in trees}
    for rep in range(reps):
        order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
        for side in order:
            out = _child(trees[side], [os.path.abspath(__file__),
                                       "--measure"])
            runs[side].append(json.loads(out.strip().splitlines()[-1]))
    rows = {}
    for name in CASES:
        before = [r[name] for r in runs["before"]]
        after = [r[name] for r in runs["after"]]
        rows[name] = dict(_summary(before, after, lower_is_better=False),
                          unit="path-steps/s", before=before, after=after)
    return rows


def harness_rows(trees, workload, pairs, seconds, seed0=1701):
    """Alternating perfbench pairs of one workload on the two trees, seeds
    seed0, seed0 + 1, ...; the side that runs first swaps every pair."""
    log = []
    for i in range(pairs):
        seed = seed0 + i
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            env = {k: v for k, v in os.environ.items()
                   if k not in ("WEAKLAB_WORKERS", "PYTHONPATH")}
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seconds", str(seconds), "--seed", str(seed)],
                cwd=trees[side], env=env, check=True, capture_output=True,
                text=True).stdout
            last = json.loads(out.strip().splitlines()[-1])
            pair[side] = {k: v["value"] for k, v in last["metrics"].items()}
            pair[side]["failed"] = last["failed"]
        log.append(pair)
    summary = {m: _summary([p["before"][m] for p in log],
                           [p["after"][m] for p in log],
                           lower_is_better=m in LOWER_IS_BETTER)
               for m in log[0]["before"] if m != "failed"}
    return {"seconds": seconds, "summary": summary, "pairs": log}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--before")
    p.add_argument("--after")
    p.add_argument("--reps", type=int, default=8)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--workloads", default="mc-ladder")
    p.add_argument("--out", default=os.path.join(ROOT,
                                                 "BENCH_euler_step.json"))
    args = p.parse_args()
    if args.measure:
        return measure()
    trees = {"before": os.path.abspath(args.before),
             "after": os.path.abspath(args.after)}
    import numpy
    import scipy
    record = {"command": " ".join(["python3"] + sys.argv),
              "machine": {"nproc": os.cpu_count(),
                          "affinity": len(os.sched_getaffinity(0)),
                          "python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__},
              "ladder_levels": LEVELS,
              "path_steps_per_s": micro_rows(trees, args.reps)
              if args.reps else {},
              "perfbench": {w: harness_rows(trees, w, args.pairs,
                                            args.seconds)
                            for w in args.workloads.split(",")
                            if w and args.pairs}}
    append_record(args.out, record)


if __name__ == "__main__":
    main()
