"""A fixed reference computation, timed between passes to track the host's speed.

The development host (2 cores, Python 3.11.7, numpy 2.4.6) runs 20-60 second
spells in which everything is up to 60% slower, and its speed drifts over
tens of minutes, while process CPU time stays equal to wall time.  No run is
long enough to average that out, so ``pass_rel`` divides the mean pass time
by the mean time of this computation, timed in the same process between the
same passes.

It does not use ctreemix, so a change to the package cannot move it.  Its
mix follows the package's: a pure-Python recursion over a binary tree with
log-sum-exp combines, like the context-tree sweep, and small numpy Cholesky
solves, like the AR leaf marginals.  In two sets of 10 runs of 35 seconds
on each workload, the ratio spread 0.013-0.078 (interquartile range / median)
where the raw pass time spread 0.07-0.15.  A burst takes about 0.13 s on that
host.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((64, 3))
_Y = _rng.standard_normal(64)
# Nodes 0..65534 are internal, 65535..131070 leaves: about 4 MB of float
# objects, more than a core's cache, as the grid's tries of 30 000-40 000 nodes are.
_LEAF = 65535
_VALUES = [float(v) for v in _rng.standard_normal(2 * _LEAF + 1)]

TREE_REPS = 1
SOLVE_REPS = 2700


def _combine(i: int) -> float:
    if i >= _LEAF:
        return _VALUES[i]
    a = _combine(2 * i + 1) + _combine(2 * i + 2)
    b = _VALUES[i]
    m = a if a > b else b
    return m + math.log(0.5 * math.exp(a - m) + 0.5 * math.exp(b - m))


def _solves() -> float:
    g = _A.T @ _A + np.eye(3)
    c = np.linalg.cholesky(g)
    z = np.linalg.solve(c, _A.T @ _Y)
    return float(np.log(np.diag(c)).sum() + z @ z)


def burst_s() -> float:
    """Wall time of one burst of the reference computation."""
    t0 = perf_counter()
    for _ in range(TREE_REPS):
        _combine(0)
    for _ in range(SOLVE_REPS):
        _solves()
    return perf_counter() - t0
