"""Cubic Hermite segments in power form, and their knot weights.

A segment is parameterized by endpoint values and velocities (x0, v0, x1, v1)
over a duration delta; evaluation uses the local coordinate u in [0, delta].
Every quantity is linear in the knots, so it is a weight vector applied to
them, shared across axes.
"""
from __future__ import annotations

from math import perm

import numpy as np

# power-basis coefficients (s^0 .. s^3) of the Hermite basis functions in the
# normalized coordinate s = u / delta; the velocity knots carry a factor delta
_BASIS = np.array([[1.0, 0.0, -3.0, 2.0],
                   [0.0, 1.0, -2.0, 1.0],
                   [0.0, 0.0, 3.0, -2.0],
                   [0.0, 0.0, -1.0, 1.0]])
_DELTA_POWER = np.array([0.0, 1.0, 0.0, 1.0])
# d^r/ds^r s^m = _FALLING[r, m] s^(m - r)
_FALLING = np.array([[perm(m, r) for m in range(4)] for r in range(4)], dtype=float)


def hermite_coeffs(x0, v0, x1, v1, delta):
    """Power-basis coefficients (a0, a1, a2, a3) of the Hermite segment."""
    d = delta
    a0 = x0
    a1 = v0
    a2 = (-3.0 * x0 - 2.0 * d * v0 + 3.0 * x1 - d * v1) / d ** 2
    a3 = (2.0 * x0 + d * v0 - 2.0 * x1 + d * v1) / d ** 3
    return a0, a1, a2, a3


def hermite_eval(x0, v0, x1, v1, delta, u, order=0):
    a0, a1, a2, a3 = hermite_coeffs(x0, v0, x1, v1, delta)
    if order == 0:
        return a0 + u * (a1 + u * (a2 + u * a3))
    if order == 1:
        return a1 + u * (2.0 * a2 + 3.0 * u * a3)
    if order == 2:
        return 2.0 * a2 + 6.0 * u * a3
    if order == 3:
        return 6.0 * a3 * np.ones_like(u) if np.ndim(u) else 6.0 * a3
    raise ValueError(f"order {order}")


def hermite_weights(u, delta, order=0):
    """Weights w such that eval = w @ (x0, v0, x1, v1). Shape (..., 4).

    u and delta broadcast against each other.
    """
    if not 0 <= order <= 3:
        raise ValueError(f"order {order}")
    u, delta = np.broadcast_arrays(np.asarray(u, dtype=float),
                                   np.asarray(delta, dtype=float))
    s = (u / delta)[..., None]
    powers = _FALLING[order] * s ** np.maximum(np.arange(4) - order, 0)
    return (powers @ _BASIS.T) * delta[..., None] ** (_DELTA_POWER - order)


def locate(t, delta, n_segs):
    """Segment index and local coordinate for times t in a uniform track.

    Knot times are assigned to the segment on their right, except the final
    endpoint which belongs to the last segment. delta and n_segs broadcast
    against t.
    """
    k = np.clip(np.floor(t / delta + 1e-12).astype(int), 0, n_segs - 1)
    return k, t - k * delta


def segment_count(duration, max_seg_time=2.0, per_block=6):
    """Number of polynomials for a foot or force phase of the given duration."""
    return max(per_block, int(np.ceil(duration / max_seg_time)) * per_block)
