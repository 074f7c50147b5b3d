import numpy as np
import pytest

from weaklab import testfunctions as tf


def test_dirac_kinds_not_pointwise():
    d = tf.dirac(0.5)
    assert not d.pointwise
    with pytest.raises(tf.UnsupportedFunctional):
        d(np.zeros(3))
    for beta in (3, 1.5):
        with pytest.raises(ValueError):
            tf.dirac(0.0, beta)


def test_identity_and_square_accept_path_arrays():
    pts = np.array([[1.0], [2.0], [3.0]])
    assert np.allclose(tf.identity()(pts), [1.0, 2.0, 3.0])
    assert np.allclose(tf.square()(pts), [1.0, 4.0, 9.0])
