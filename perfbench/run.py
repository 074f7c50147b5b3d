"""weaklab benchmark: one workload, one seed, checked against oracles.

    python3 perfbench/run.py --workload mc-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; weaklab is imported from its
``src`` directory.  The run

1. sets up the workload three times in fresh child processes and takes
   the median as ``setup_s`` (interpreter start to ready: imports,
   models, one warm-up call per layer, which fills the quadrature node
   caches);
2. sets up once more in this process and repeats passes over the
   workload's task list, one task after another, until ``--seconds``
   would be exceeded (after the workload's minimum number of passes);
3. checks every task's result against its oracle, then the run-level
   pooled checks;
4. prints a table of every metric, writes the full results (and, with
   ``--trace 1``, the spans) under ``.perfbench_out/``, and prints one
   JSON line last: the end-to-end metrics, or with ``--trace 1`` the
   per-layer ones.

End-to-end times are scaled to a reference host speed by a calibration
kernel timed between tasks; see ``speed_scale`` and perfbench/README.md.

With ``--trace 1`` every task runs twice on the same inputs, untraced
and traced in alternating order.  The traced copy feeds the per-layer
metrics, must return bit-identical results, and the ratio of the two
copies' task times gives ``trace.overhead_frac``.

The process removes WEAKLAB_WORKERS from its environment, so the
library's default worker count applies; the results record it.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
TAIL_BEYOND = 10     # a tail percentile needs this many samples beyond it
CAL_REF_S = 0.003    # calibration kernel time that defines reference speed
CAL_EVERY_S = 0.1    # one calibration sample per this much task time
CAL_MIN_REPS = 3     # calibration samples after every task, at least
CAL_PAD_S = 0.3      # a task is scaled by the samples this close to it


def _import_weaklab():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import weaklab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import weaklab from {src}: {exc}")
    if src not in Path(weaklab.__file__).resolve().parents:
        sys.exit(f"perfbench: weaklab imported from {weaklab.__file__}, "
                 f"not from {src}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- statistics -----------------------------------------------------------

def tail(samples):
    """(q, value): the highest integer percentile q with at least
    TAIL_BEYOND samples above its nearest-rank value; the median when
    there are too few samples for any q >= 50."""
    xs = sorted(samples)
    n = len(xs)
    for q in range(99, 49, -1):
        rank = -(-q * n // 100)          # ceil(q n / 100), nearest rank
        if n - rank >= TAIL_BEYOND:
            return q, xs[rank - 1]
    return 50, statistics.median(xs)


def summary(samples):
    if not samples:
        return {"n": 0}
    q, v = tail(samples)
    return {"n": len(samples), "p50": statistics.median(samples),
            "tail_q": q, "tail": v}


# -- host speed -----------------------------------------------------------

def calibrate(reps=1):
    """(start, seconds) samples of a fixed kernel that mixes the three
    kinds of work the workloads do: an interpreter loop, small numpy
    calls and a large-array special function."""
    import numpy as np
    from scipy.special import ndtri
    small = np.linspace(-1.0, 1.0, 64)
    u = np.linspace(0.01, 0.99, 1 << 16)
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        for _ in range(100):
            float(np.exp(-small * small).sum())
        float(ndtri(u).sum())
        out.append((t0, time.perf_counter() - t0))
    return out


def speed_scale(cal, start, end):
    """Factor from seconds measured over [start, end] to seconds at
    reference host speed, from the calibration samples within CAL_PAD_S
    of that interval; cal is sorted by time."""
    times = [c[0] for c in cal]
    lo = bisect.bisect_left(times, start - CAL_PAD_S)
    hi = bisect.bisect_right(times, end + CAL_PAD_S)
    return CAL_REF_S / statistics.median(c[1] for c in cal[lo:hi])


# -- set-up ---------------------------------------------------------------

def _workdir(tag):
    return str(OUT / f"work-{tag}-{os.getpid()}")


def setup_workload(name, seed, workdir):
    import workloads
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.warm_up()
    return wl


def child_setup_seconds(args) -> float:
    """Wall time from spawning a fresh interpreter to its 'ready' line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=300)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child failed (exit {rc}): {line!r}")
    return elapsed


# -- the timed body -------------------------------------------------------

class Run:
    """The timed body: passes over the task list, until time is up."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.log = []                # (kind, start, seconds, work, pass)
        self.traced_time = 0.0       # trace mode: traced copies
        self.untraced_time = 0.0
        self.traced_passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cal = calibrate(CAL_MIN_REPS)
        self._cal_due = 0.0

    def record(self, kind, checks):
        for name, ok, detail in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"{kind}: {name}: {detail}")

    def _timed(self, task, task_id, traced):
        t0 = time.perf_counter()
        if traced:
            with self.tracer.task(task_id):
                out = task.run()
        else:
            out = task.run()
        return out, time.perf_counter() - t0

    def _calibrate_after(self, seconds):
        """At least CAL_MIN_REPS samples after every task, and one per
        CAL_EVERY_S of task time, so long tasks get as many as short ones."""
        self._cal_due += seconds
        n = int(self._cal_due / CAL_EVERY_S)
        self._cal_due -= n * CAL_EVERY_S
        self.cal += calibrate(max(n, CAL_MIN_REPS))

    def run_pass(self, index):
        for j, task in enumerate(self.wl.tasks(index)):
            task_id = f"{index}.{j}"
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    out, dur = self._timed(task, task_id, False)
                else:
                    # alternate which copy runs first
                    order = (False, True) if (index + j) % 2 == 0 else (True, False)
                    res = {tr: self._timed(task, task_id, tr) for tr in order}
                    out, dur = res[False]
                    self.untraced_time += dur
                    self.traced_time += res[True][1]
                    self.record(task.kind, [(
                        "traced result bit-identical",
                        repr(res[True][0]) == repr(out), "")])
            except Exception as exc:   # a library failure is a failed check
                self.record(task.kind, [("raised", False, repr(exc))])
                self._calibrate_after(time.perf_counter() - t0)
                continue
            self._calibrate_after(time.perf_counter() - t0)
            self.log.append((task.kind, t0, dur, task.work, index))
            try:
                self.record(task.kind, task.check(out))
            except Exception as exc:
                self.record(task.kind, [("oracle check", False, repr(exc))])
        if self.tracer is not None:
            self.traced_passes += 1

    def run(self, seconds):
        start = time.perf_counter()
        clock = []
        index = 0
        while True:
            t0 = time.perf_counter()
            self.run_pass(index)
            clock.append(time.perf_counter() - t0)
            index += 1
            if index >= self.wl.min_passes and \
                    time.perf_counter() - start + statistics.median(clock) > seconds:
                break
        try:
            if self.tracer is None:
                checks = self.wl.finish()
            else:
                with self.tracer.task("finish"):
                    checks = self.wl.finish()
        except Exception as exc:
            checks = [("run-level checks", False, repr(exc))]
        self.record("run", checks)
        self.body_s = time.perf_counter() - start

    def latency(self, kinds, scaled=True):
        return [dur * (speed_scale(self.cal, t0, t0 + dur) if scaled else 1.0)
                for kind, t0, dur, _, _ in self.log if kind in kinds]

    def passes(self):
        """[(scaled task time, work)] of each pass."""
        out = defaultdict(lambda: [0.0, 0.0])
        for _, t0, dur, work, index in self.log:
            out[index][0] += dur * speed_scale(self.cal, t0, t0 + dur)
            out[index][1] += work
        return [tuple(v) for _, v in sorted(out.items())]


# -- metrics --------------------------------------------------------------

def end_to_end(run, setup_s):
    """End-to-end metrics, times at reference host speed."""
    wl = run.wl
    head = run.latency(wl.latency_groups[wl.headline])
    passes = run.passes()
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(t for t, _ in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "task_p50_s": (statistics.median(head), "s"),
        "task_tail_s": (tail(head)[1], "s"),
        "work_per_s": (statistics.median(w / t for t, w in passes), "1/s"),
    }


def named(run, e2e):
    """The workload's metrics under their per-workload names."""
    wl = run.wl
    out = {}
    for group, kinds in wl.latency_groups.items():
        s = summary(run.latency(kinds))
        if s["n"]:
            out[f"{group}_p50_s"] = (s["p50"], "s")
            out[f"{group}_tail_s"] = (s["tail"], "s")
    out[wl.work_name] = e2e["work_per_s"]
    out["fail_frac"] = (run.failed / max(run.attempted, 1), "ratio")
    return out


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def per_layer(run):
    """Per-layer metrics of the traced copies; counts and times per pass."""
    s = run.tracer.stats()
    p = max(run.traced_passes, 1)
    per = lambda key: s.get(key, 0.0) / p
    sim_time = s["euler.simulate_euler.time_s"] + s["euler.simulate_ladder.time_s"]
    rng_time = s["rng.normals_from.time_s"]
    workers = s.get("euler.workers", 0.0)
    if workers == 0:
        import weaklab.euler
        workers = float(weaklab.euler.worker_count())
    m = {
        "rng.normals": (per("rng.normals"), "count"),
        "rng.busy_s": (rng_time / p, "s"),
        "rng.normals_per_s": (_ratio(s["rng.normals"], rng_time), "1/s"),
        "models.coeff_calls": (per("models.coeff.calls"), "count"),
        "models.coeff_busy_s": (per("models.coeff.busy_s"), "s"),
        "euler.sim_calls": (per("euler.sim_calls"), "count"),
        "euler.path_steps": (per("euler.path_steps"), "count"),
        "euler.self_s": (per("euler.self_s"), "s"),
        "euler.path_steps_per_s": (_ratio(s["euler.path_steps"], sim_time), "1/s"),
        "euler.reduce_calls": (per("euler.reduce_calls"), "count"),
        "euler.reduce_chunks": (per("euler.reduce_chunks"), "count"),
        "euler.reduce_self_s": (per("euler_reduce.self_s"), "s"),
        "euler.workers": (workers, "count"),
        "euler.reduce_parallel_eff": (
            _ratio(s["euler.chunk_busy_s"], s["euler.reduce_slots_s"]), "ratio"),
        "testfunctions.busy_s": (per("testfunctions.busy_s"), "s"),
        "montecarlo.self_s": (per("montecarlo.self_s"), "s"),
        "montecarlo.rungs_excluded": (s["montecarlo.rungs_excluded"], "count"),
        "pricing.ladders_per_chunk": (
            _ratio(s["pricing.ladder_calls"], s["pricing.chunks"]), "ratio"),
        "pricing.self_s": (per("pricing.self_s"), "s"),
        "quadrature.gh_calls": (per("quadrature.gh_calls"), "count"),
        "quadrature.gh_points": (per("quadrature.gh_points"), "count"),
        "quadrature.gh_useful_frac": (
            _ratio(s["quadrature.gh_useful"], s["quadrature.gh_points"]), "ratio"),
        "quadrature.gl_calls": (per("quadrature.gl_calls"), "count"),
        "quadrature.gl_points": (per("quadrature.gl_points"), "count"),
        "quadrature.gl_useful_frac": (
            _ratio(s["quadrature.gl_useful"], s["quadrature.gl_points"]), "ratio"),
        "quadrature.unconverged": (per("quadrature.unconverged"), "count"),
        "quadrature.self_s": (per("quadrature.self_s"), "s"),
        "gaussian.deriv_calls": (per("gaussian.deriv.calls"), "count"),
        "gaussian.busy_s": (per("gaussian.deriv.busy_s")
                            + per("gaussian.density.busy_s"), "s"),
        "error_expansion.ct_calls": (
            per("error_expansion.principal_term_Ct.calls"), "count"),
        "error_expansion.pi_calls": (
            per("error_expansion.principal_density_pi.calls"), "count"),
        "error_expansion.pairing_calls": (
            per("error_expansion.pairing_with_pi.calls"), "count"),
        "error_expansion.self_s": (per("error_expansion.self_s"), "s"),
        "cli.self_s": (per("cli.self_s"), "s"),
        "reporting.bytes_written": (per("reporting.bytes_written"), "bytes"),
        "reporting.busy_s": (per("reporting.write_csv.time_s")
                             + per("reporting.write_json.time_s"), "s"),
        "trace.overhead_frac": (
            _ratio(run.traced_time, run.untraced_time) - 1.0, "ratio"),
    }
    return m


# -- context and output ---------------------------------------------------

def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def context(args):
    import numpy
    import scipy
    import weaklab.euler
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _commit(),
        "weaklab_workers": weaklab.euler.worker_count(),
        "loop": "closed, one caller",
    }


def _table(title, metrics):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.pop("WEAKLAB_WORKERS", None)
    _import_weaklab()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")

    if args.setup_child:
        workdir = _workdir("setup")
        try:
            setup_workload(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("ready", flush=True)
        return 0

    setup_samples, setup_cal = [], calibrate(CAL_MIN_REPS)
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        setup_samples.append(child_setup_seconds(args))
        setup_cal += calibrate(CAL_MIN_REPS)
        setup_samples[-1] *= speed_scale(setup_cal, t0,
                                         t0 + setup_samples[-1])
    setup_s = statistics.median(setup_samples)
    workdir = _workdir(args.workload)
    try:
        wl = setup_workload(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(models=wl.models)
        run = Run(wl, tracer)
        try:
            run.run(args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ctx = context(args)
    e2e = end_to_end(run, setup_s)
    also = named(run, e2e)
    latency = {k: summary(run.latency({k}, scaled=False))
               for k in sorted({entry[0] for entry in run.log})}
    print(f"# weaklab benchmark: {json.dumps(ctx)}")
    _table("end-to-end", e2e)
    _table(f"{args.workload} metrics", also)
    raw = sum(dur for _, _, dur, _, _ in run.log)
    scaled = sum(t for t, _ in run.passes())
    print(f"# host speed: {len(run.cal)} calibration samples, median "
          f"{statistics.median(c[1] for c in run.cal):.6f} s (reference "
          f"{CAL_REF_S} s); scaled / raw task time {scaled / raw:.4f}; "
          f"raw seconds below")
    print("# task latency (s), raw: kind n p50 tail_q tail")
    for kind, s in latency.items():
        print(f"{kind:32s} {s['n']:5d} {s['p50']:12.6g} p{s['tail_q']:<3d} "
              f"{s['tail']:12.6g}")
    print(f"# checks: {run.attempted} attempted, {run.failed} failed; "
          f"{len(run.passes())} passes in {run.body_s:.1f} s")
    for line in run.failures:
        print(f"# FAILED {line}")
    layers = None
    if tracer is not None:
        layers = per_layer(run)
        _table("per-layer (traced copies, per pass)", layers)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    record = {"context": ctx, "setup_samples_s": setup_samples,
              "setup_calibration_s": setup_cal, "calibration_s": run.cal,
              "task_log": run.log,
              "scaled_over_raw": scaled / raw,
              "end_to_end": e2e, "named": also, "latency": latency,
              "per_layer": layers, "passes": run.passes(),
              "attempted": run.attempted,
              "failed": run.failed, "failures": run.failures}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(str(OUT / f"{stem}-spans.csv.gz"))

    shown = layers if tracer is not None else e2e
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
