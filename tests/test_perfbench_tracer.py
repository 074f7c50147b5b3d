"""The benchmark's tracer rebinds library names by getattr, so a rename or
deletion in the library shows up only in traced runs; this test keeps the
names it rebinds in place and checks that uninstall restores them."""

import importlib.util
import os
import sys

import weaklab.gaussian as gaussian
import weaklab.pricing as pricing
import weaklab.quadrature as quad
import weaklab.testfunctions as tf

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _bindings():
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "weaklab" or name.startswith("weaklab.")]
    owners += [gaussian.AffineGaussianDensity, gaussian.LognormalDensity,
               tf.TestFunction, pricing.Payoff]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_tracer_install_and_uninstall_restore_library():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import weaklab.cli  # noqa: F401  (install rebinds its names too)

    before = _bindings()
    originals = quad.integrate_gaussian, quad.split_time_integral
    t = tracer.Tracer()
    t.install()
    try:
        assert quad.integrate_gaussian is not originals[0]
        assert quad.split_time_integral is not originals[1]
    finally:
        t.uninstall()
    for owner, attrs in before:
        now = vars(owner)
        changed = [k for k, v in attrs.items() if now.get(k) is not v]
        assert not changed, (owner, changed)
