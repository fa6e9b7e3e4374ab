"""Finite-difference gradient oracle, and the scalar loss tests put on a
tensor-valued op.

Central differences over every parameter element, independent of the
engine's backward pass. Used in float64 where truncation and roundoff are
both far below the comparison tolerance.
"""

import numpy as np

from mscope import tensor as T


def weighted_sum(x, w):
    """The scalar ``sum(x * w)`` for a tensor ``x`` and a number or an
    array ``w`` broadcastable to it; the gradient into ``x`` is ``w``
    broadcast to its shape."""
    w = np.asarray(w, dtype=x.dtype)

    def bwd(g):
        x._accumulate(np.broadcast_to(g * w, x.shape))

    return T._node(np.asarray((x.data * w).sum(), dtype=x.dtype), (x,), bwd)


def numerical_gradients(loss_fn, params, h=1e-5):
    """Central-difference gradient of ``loss_fn()`` w.r.t. each parameter."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    """max over elements of |a - n| / max(1, |a|, |n|)."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
