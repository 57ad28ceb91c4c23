"""Scalar numeric helpers shared by the leaf models and the tree sweeps.

The per-node combine step of the sweeps works on Python floats, one node
at a time; everything is float64.
"""

from __future__ import annotations

from math import exp, log, log1p

LOG_2PI = log(2.0 * 3.141592653589793)


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without overflow."""
    if a < b:
        a, b = b, a
    d = b - a
    if d < -745.0:  # exp underflows to 0
        return a
    return a + log1p(exp(d))
