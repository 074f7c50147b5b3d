"""Call tracer for the benchmark's traced run.

The tracer rebinds weaklab's public functions at every place the library
imported them (the defining module and each module that did
``from .x import name``), and restores every binding on ``uninstall``.
Wrappers pass arguments and results through untouched, so a traced
task returns bit-identical results.

Two kinds of wrapper:

* span: coarse boundaries (a Monte Carlo reduction, a chunk, one Euler
  simulation, one quadrature routine call, one study).  Each call records
  a span (name, start, end, parent span, task id) in memory; the self
  time of its layer is the span minus the time of its children.
* leaf: per-node boundaries (density derivatives, test functions, model
  coefficients).  Each call is counted; only every ``every``-th call is
  timed and its duration is scaled by ``every``.  Timing every density
  derivative would cost about half the quadrature time again.

The tracer is inert unless ``active`` is set, so the benchmark can leave
it installed while it computes oracles.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import math
import os
import sys
import threading
import time
from collections import defaultdict

_now = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "stats", "leaf")

    def __init__(self):
        self.stack = []            # open spans: [span index, child time]
        self.stats = defaultdict(float)
        self.leaf = 0              # depth of leaf calls on this thread


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def euler_steps(n: int, t: float) -> int:
    """Euler steps at resolution n over (0, t]: full steps plus a partial one."""
    k = int(math.floor(n * t + 1e-12))
    return k + (1 if t - k / n > 1e-14 else 0)


class Tracer:
    """Spans and counters for the calls made while ``active`` is true."""

    LEAF_SAMPLE = 16   # time one in this many density-kernel calls

    def __init__(self):
        self.spans = []
        self.active = False
        self.task_id = None
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._undo = []
        self._reduce_parent = None

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            with self._states_lock:
                self._states.append(st)
            return st

    def stats(self) -> dict:
        """Counters merged over every thread that ran traced code."""
        out = defaultdict(float)
        for st in self._states:
            for k, v in st.stats.items():
                out[k] += v
        return out

    # -- recording --------------------------------------------------------

    def call_span(self, name, bucket, fn, args, kwargs, post=None):
        st = self._state()
        parent = st.stack[-1][0] if st.stack else self._reduce_parent
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, 0.0]
        st.stack.append(frame)
        t0 = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _now()
            st.stack.pop()
            dur = t1 - t0
            self.spans[idx] = (name, t0, t1, parent, self.task_id)
            stats = st.stats
            stats[bucket + ".self_s"] += dur - frame[1]
            stats[name + ".calls"] += 1
            stats[name + ".time_s"] += dur
            if st.stack:
                st.stack[-1][1] += dur
        if post is not None:
            post(st.stats, args, kwargs, result)
        return result

    def call_frame(self, bucket, fn, args):
        """Time a callback into a layer without recording a span: its self
        time goes to ``bucket`` and its duration to the caller's children."""
        st = self._state()
        frame = [st.stack[-1][0] if st.stack else None, 0.0]
        st.stack.append(frame)
        t0 = _now()
        try:
            return fn(*args)
        finally:
            dur = _now() - t0
            st.stack.pop()
            st.stats[bucket + ".self_s"] += dur - frame[1]
            if st.stack:
                st.stack[-1][1] += dur

    @contextlib.contextmanager
    def task(self, task_id):
        """One benchmark task: the root span of the calls it makes."""
        self.task_id = task_id
        self.active = True
        st = self._state()
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, 0.0]
        st.stack.append(frame)
        t0 = _now()
        try:
            yield
        finally:
            t1 = _now()
            self.active = False
            st.stack.pop()
            self.spans[idx] = ("bench.task", t0, t1, None, task_id)
            st.stats["bench.self_s"] += (t1 - t0) - frame[1]

    # -- wrappers ---------------------------------------------------------

    def span_wrapper(self, fn, name, bucket, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call_span(name, bucket, fn, args, kwargs, post)
        return wrapper

    def leaf_wrapper(self, fn, key, every):
        tracer = self
        calls_key, busy_key = key + ".calls", key + ".busy_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            if st.leaf:
                return fn(*args, **kwargs)
            stats = st.stats
            n = stats[calls_key] + 1
            stats[calls_key] = n
            st.leaf = 1
            try:
                if n % every:
                    return fn(*args, **kwargs)
                t0 = _now()
                result = fn(*args, **kwargs)
                dt = (_now() - t0) * every
                stats[busy_key] += dt
                if st.stack:
                    st.stack[-1][1] += dt
                return result
            finally:
                st.leaf = 0
        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, module, attr, make):
        """Replace module.attr, and every alias of it in weaklab, by make(orig)."""
        orig = getattr(module, attr)
        wrapped = make(orig)
        for mod in self._modules:
            for k, v in list(vars(mod).items()):
                if v is orig:
                    self._set(mod, k, wrapped)
        return wrapped

    def wrap_model(self, model, set_attr=None):
        """Count and time a model instance's drift and diffusion callables."""
        set_attr = set_attr or self._set
        for attr in ("drift", "diffusion"):
            set_attr(model, attr,
                     self.leaf_wrapper(getattr(model, attr), "models.coeff", 1))

    def install(self, models=()):
        """Rebind the library's public functions; wrap the given models."""
        import weaklab.cli as cli
        import weaklab.error_expansion as ee
        import weaklab.euler as euler
        import weaklab.gaussian as gaussian
        import weaklab.models as mdl
        import weaklab.montecarlo as mc
        import weaklab.pricing as pricing
        import weaklab.quadrature as quad
        import weaklab.reporting as reporting
        import weaklab.rng as rng
        import weaklab.testfunctions as tf

        self._modules = [m for name, m in sorted(sys.modules.items())
                         if name == "weaklab" or name.startswith("weaklab.")]

        def span(module, attr, post=None, bucket=None):
            name = f"{_layer(module.__name__)}.{attr}"
            self._rebind(module, attr, lambda f: self.span_wrapper(
                f, name, bucket or _layer(module.__name__), post))

        # rng: normals drawn
        span(rng, "normals_from", post=_count_normals)

        # euler: simulations (path-steps from their arguments) and reductions
        span(euler, "simulate_euler", post=_count_euler)
        span(euler, "simulate_ladder", post=_count_ladder)
        for attr in ("simulate_coupled", "empirical_moment",
                     "euler_density_1d", "gbm_euler_mean"):
            span(euler, attr)
        for attr in ("mc_reduce", "mc_reduce_multi"):
            self._rebind(euler, attr, self._reduce_wrapper)

        # pricing calls simulate_ladder once per bumped spot; count them
        inner = pricing.simulate_ladder

        def pricing_ladder(*args, **kwargs):
            if self.active:
                self._state().stats["pricing.ladder_calls"] += 1
            return inner(*args, **kwargs)
        self._set(pricing, "simulate_ladder",
                  functools.wraps(inner)(pricing_ladder))

        for attr in ("bias_ladder", "romberg_ladder", "bias_times_n_limit",
                     "estimate_expectation", "romberg_estimate",
                     "reference_value", "samples_for_ci"):
            span(mc, attr)
        span(mc, "fit_rate", post=_count_excluded)
        for attr in ("greeks_euler", "correction_estimate", "price_euler",
                     "price_romberg"):
            span(pricing, attr)

        # quadrature routines: points evaluated and accepted
        self._rebind(quad, "integrate_gaussian",
                     lambda f: self._gh_wrapper(f, "quadrature.integrate_gaussian"))
        self._rebind(quad, "expect_gaussian",
                     lambda f: self._gh_wrapper(f, "quadrature.expect_gaussian"))
        self._rebind(quad, "adaptive_interval", self._gl_wrapper)
        self._rebind(quad, "split_time_integral", self._callback_wrapper)

        for attr in ("principal_term_Ct", "principal_density_pi",
                     "pairing_with_pi"):
            span(ee, attr)
        span(mdl, "semigroup_apply")
        span(mdl, "model_from_config",
             post=lambda stats, a, k, model: self.wrap_model(
                 model, set_attr=setattr))
        span(cli, "main")
        for attr in ("write_csv", "write_json"):
            span(reporting, attr, post=_count_bytes)

        # per-node boundaries: counted, sampled timing
        for cls in (gaussian.AffineGaussianDensity, gaussian.LognormalDensity):
            for attr in ("deriv", "density"):
                self._set(cls, attr, self.leaf_wrapper(
                    getattr(cls, attr), f"gaussian.{attr}", self.LEAF_SAMPLE))
        self._set(tf.TestFunction, "__call__", self.leaf_wrapper(
            tf.TestFunction.__call__, "testfunctions", 1))
        self._set(pricing.Payoff, "__call__", self.leaf_wrapper(
            pricing.Payoff.__call__, "testfunctions", 1))
        for model in models:
            self.wrap_model(model)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _reduce_wrapper(self, fn):
        """mc_reduce*: reduce span, one chunk span per chunk_fn call."""
        import weaklab.euler as euler
        tracer = self
        name = f"euler.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(chunk_fn, *args, **kwargs):
            if not tracer.active:
                return fn(chunk_fn, *args, **kwargs)
            layer = _layer(getattr(chunk_fn, "__module__", "") or "bench")
            chunk_name = f"{layer}.chunk"

            def chunk(stream, size):
                t0 = _now()
                try:
                    return tracer.call_span(chunk_name, layer, chunk_fn,
                                            (stream, size), {})
                finally:
                    st = tracer._state().stats
                    st["euler.chunk_busy_s"] += _now() - t0
                    st["euler.reduce_chunks"] += 1
                    st[layer + ".chunks"] += 1

            st = tracer._state()
            st.stats["euler.reduce_calls"] += 1
            workers = euler.worker_count()
            st.stats["euler.workers"] = max(st.stats["euler.workers"], workers)
            outer = tracer._reduce_parent
            tracer._reduce_parent = len(tracer.spans)
            t0 = _now()
            try:
                return tracer.call_span(name, "euler_reduce", fn,
                                        (chunk,) + args, kwargs)
            finally:
                wall = _now() - t0
                st.stats["euler.reduce_wall_s"] += wall
                st.stats["euler.reduce_slots_s"] += wall * workers
                tracer._reduce_parent = outer
        return wrapper

    def _callback_wrapper(self, fn):
        """A span whose first argument is a callback into another layer."""
        tracer = self
        name = f"{_layer(fn.__module__)}.{fn.__name__}"
        bucket = _layer(fn.__module__)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if not tracer.active:
                return fn(f, *args, **kwargs)
            f_bucket = _layer(getattr(f, "__module__", None) or "bench")
            return tracer.call_span(
                name, bucket, fn,
                (lambda x: tracer.call_frame(f_bucket, f, (x,)),) + args,
                kwargs)
        return wrapper

    def _gh_wrapper(self, fn, name):
        """Gauss-Hermite routine: one fn call per node doubling."""
        tracer = self
        params = list(inspect.signature(fn).parameters.values())
        names = [p.name for p in params]
        i_rtol, i_atol = names.index("rtol"), names.index("atol")
        d_rtol = params[i_rtol].default
        d_atol = params[i_atol].default

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if not tracer.active:
                return fn(f, *args, **kwargs)
            sizes = []
            bucket = _layer(getattr(f, "__module__", None) or "bench")

            def counted(x):
                sizes.append(_size(x))
                return tracer.call_frame(bucket, f, (x,))

            val, err = tracer.call_span(name, "quadrature", fn,
                                        (counted,) + args, kwargs)
            rtol = args[i_rtol - 1] if len(args) >= i_rtol else \
                kwargs.get("rtol", d_rtol)
            atol = args[i_atol - 1] if len(args) >= i_atol else \
                kwargs.get("atol", d_atol)
            ok = err <= max(atol, rtol * abs(val))
            stats = tracer._state().stats
            if not ok:
                stats["quadrature.gh_unconverged"] += 1
            stats["quadrature.gh_calls"] += 1
            stats["quadrature.gh_points"] += sum(sizes)
            stats["quadrature.gh_useful"] += sizes[-1] if ok and sizes else 0
            stats["quadrature.unconverged"] += 0 if ok else 1
            return val, err
        return wrapper

    def _gl_wrapper(self, fn):
        """adaptive_interval: composite Gauss-Legendre with panel doubling.

        Each doubling level sweeps the panels from left to right, so a
        call whose first node lies left of the previous call's starts a
        new level.
        """
        tracer = self
        name = f"quadrature.{fn.__name__}"
        params = list(inspect.signature(fn).parameters.values())
        i_tol = [p.name for p in params].index("tol")
        d_tol = params[i_tol].default

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if not tracer.active:
                return fn(f, *args, **kwargs)
            levels, last = [], [math.inf]
            bucket = _layer(getattr(f, "__module__", None) or "bench")

            def counted(x):
                first = float(x.flat[0]) if _size(x) else math.inf
                if first < last[0] or not levels:
                    levels.append(0)
                last[0] = first
                levels[-1] += _size(x)
                return tracer.call_frame(bucket, f, (x,))

            val, err = tracer.call_span(name, "quadrature", fn,
                                        (counted,) + args, kwargs)
            tol = args[i_tol - 1] if len(args) >= i_tol else \
                kwargs.get("tol", d_tol)
            ok = err <= max(tol, 1e-14 * abs(val))
            stats = tracer._state().stats
            if not ok:
                stats["quadrature.gl_unconverged"] += 1
            stats["quadrature.gl_calls"] += 1
            stats["quadrature.gl_points"] += sum(levels)
            stats["quadrature.gl_useful"] += levels[-1] if ok and levels else 0
            stats["quadrature.unconverged"] += 0 if ok else 1
            return val, err
        return wrapper

    # -- output -----------------------------------------------------------

    def write_spans(self, path):
        """Write every recorded span as gzipped CSV."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,task\n")
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, t0, t1, parent, task = s
                fh.write(f"{i},{name},{t0!r},{t1!r},"
                         f"{'' if parent is None else parent},{task}\n")


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_normals(stats, args, kwargs, result):
    stats["rng.normals"] += result.size


def _count_euler(stats, args, kwargs, result):
    # simulate_euler(model, x, n, t, rng, size) -> (size, d)
    n, t = _arg(args, kwargs, 2, "n"), _arg(args, kwargs, 3, "t")
    stats["euler.sim_calls"] += 1
    stats["euler.path_steps"] += result.shape[0] * euler_steps(int(n),
                                                               float(t))


def _count_ladder(stats, args, kwargs, result):
    # simulate_ladder(model, x, ns, t, rng, size) -> {n: (size, d)}
    ns, t = _arg(args, kwargs, 2, "ns"), _arg(args, kwargs, 3, "t")
    stats["euler.sim_calls"] += 1
    stats["euler.path_steps"] += next(iter(result.values())).shape[0] \
        * euler_steps(max(int(n) for n in ns), float(t))


def _count_excluded(stats, args, kwargs, result):
    stats["montecarlo.rungs_excluded"] += len(result.excluded)


def _count_bytes(stats, args, kwargs, result):
    stats["reporting.bytes_written"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))
