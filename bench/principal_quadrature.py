"""Before/after record of the principal-term quadrature, appended to
BENCH_principal_quadrature.json.

    python3 bench/principal_quadrature.py --before OLD --after NEW \
        [--reps 10] [--pairs 10] [--seconds 30] \
        [--workloads quad-kernel,cli-mix]

OLD and NEW are roots of two source checkouts (each with src/ and
perfbench/).  Two kinds of rows, each run alternately on the two trees
(the side that goes first swaps every repetition), on one machine:

* seconds per call, integrand calls and peak RSS of one routine, each
  repetition in a fresh interpreter at one worker that warms the node
  caches with one small pi, then times the routine CALLS times and
  reports the fastest (one timed call per interpreter is too noisy to
  read):
  - pi: quad-kernel's 16 pi points of its first pass at seed 1, on
    OU(1, 1), beta = 1 on every fourth; seconds per point;
  - ct-ou-square, ct-gbm-identity: C_t f for OU(1, 1) with the square at
    t = 0.75, x = 0.3, and GBM(0.1, 0.2) with the identity at t = 0.75,
    x = 1.1, tol 1e-6;
  - pairing: <S, pi> for OU(1, 1), the square, t = 0.75, x = 0.3,
    tol 1e-4;
  - heldout-grid: the 700-point held-out grid of ROADMAP item 1 (t in
    [0.1, 1] in 7 steps, x and y in [-3, 3] in 10 steps each) through
    pi_rows, one call per t; seconds for the whole grid.
  Integrand calls are the value_at calls node_doubling makes in one
  untimed run of the routine before the timed ones, counted by wrapping
  weaklab.quadrature.node_doubling (every Gauss-Hermite and
  Gauss-Legendre doubling of these routines goes through it).  Peak RSS
  is the interpreter's largest resident set, import included.
* perfbench pairs: bench/euler_step.py's runner, untraced, seeds from
  --seed0 on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time

from euler_step import CALLS, ROOT, _child, _summary, append_record, \
    harness_rows

ROUTINES = ["pi", "ct-ou-square", "ct-gbm-identity", "pairing",
            "heldout-grid"]


def measure(routine):
    """Time one routine CALLS times in this interpreter; print the fastest,
    and the integrand calls of one run, as its row, in JSON."""
    import numpy as np
    from weaklab import error_expansion as ee
    from weaklab import models as mdl
    from weaklab import quadrature as quad
    from weaklab import testfunctions as tf

    calls = [0]
    doubling = quad.node_doubling

    def counted_doubling(value_at, *args, **kwargs):
        def counted(*a):
            calls[0] += 1
            return value_at(*a)
        return doubling(counted, *args, **kwargs)

    ou, gbm = mdl.make_ou_model(1.0, 1.0), mdl.make_gbm_model(0.1, 0.2)
    ee.principal_density_pi(ou, 0.5, 0.0, 0.0)
    points = 16 if routine == "pi" else 1

    def run():
        if routine == "pi":
            g = np.random.default_rng([1, 2, 0])
            for j in range(points):
                t = int(g.integers(8, 33)) / 32.0
                x = float(g.uniform(-1.0, 1.0))
                y = x + float(g.uniform(-1.0, 1.0)) * math.sqrt(t)
                ee.principal_density_pi(ou, t, x, y, 0,
                                        1 if j % 4 == 3 else 0)
        elif routine == "ct-ou-square":
            ee.principal_term_Ct(ou, tf.square(), 0.75, 0.3)
        elif routine == "ct-gbm-identity":
            ee.principal_term_Ct(gbm, tf.identity(), 0.75, 1.1, tol=1e-6)
        elif routine == "pairing":
            ee.pairing_with_pi(ou, tf.square(), 0.75, 0.3, tol=1e-4)
        elif routine == "heldout-grid":
            xs, ys = np.meshgrid(np.linspace(-3.0, 3.0, 10),
                                 np.linspace(-3.0, 3.0, 10))
            for t in np.linspace(0.1, 1.0, 7):
                ee.pi_rows(ou, float(t), xs.ravel(), ys.ravel())

    quad.node_doubling = counted_doubling
    run()
    quad.node_doubling = doubling
    best = math.inf
    for _ in range(CALLS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    seconds = best / points
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"s_per_call": seconds, "value_at_calls": calls[0],
                      "peak_rss_mb": rss}))


def micro_rows(trees, reps):
    runs = {side: {r: [] for r in ROUTINES} for side in trees}
    for rep in range(reps):
        order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
        for routine in ROUTINES:
            for side in order:
                out = _child(trees[side], [os.path.abspath(__file__),
                                           "--measure", routine])
                runs[side][routine].append(
                    json.loads(out.strip().splitlines()[-1]))
    rows = {}
    for routine in ROUTINES:
        rows[routine] = {}
        for metric, unit in (("s_per_call", "s"),
                             ("value_at_calls", "count"),
                             ("peak_rss_mb", "MB")):
            before = [r[metric] for r in runs["before"][routine]]
            after = [r[metric] for r in runs["after"][routine]]
            rows[routine][metric] = dict(
                _summary(before, after, lower_is_better=True), unit=unit,
                before=before, after=after)
    return rows


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--measure", choices=ROUTINES, help=argparse.SUPPRESS)
    p.add_argument("--before")
    p.add_argument("--after")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed0", type=int, default=1501)
    p.add_argument("--workloads", default="quad-kernel,cli-mix")
    p.add_argument("--out", default=os.path.join(
        ROOT, "BENCH_principal_quadrature.json"))
    args = p.parse_args()
    if args.measure:
        return measure(args.measure)
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
              "routines": micro_rows(trees, args.reps) if args.reps else {},
              "perfbench": {w: harness_rows(trees, w, args.pairs,
                                            args.seconds, args.seed0)
                            for w in args.workloads.split(",")
                            if w and args.pairs}}
    append_record(args.out, record)


if __name__ == "__main__":
    main()
