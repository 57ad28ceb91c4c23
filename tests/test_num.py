import numpy as np

from ctreemix._num import log_add


def test_log_add_matches_numpy():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b = rng.uniform(-800, 100, size=2)
        assert np.isclose(log_add(a, b), np.logaddexp(a, b), rtol=0, atol=1e-12)
    assert log_add(-2000.0, -1.0) == -1.0
