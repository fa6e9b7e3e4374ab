"""Finite-difference gradient oracle, the scalar loss tests put on a
tensor-valued op, and the composed train-mode ops that ``tensor.conv_bn``
fuses.

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


def conv2d(x, w, stride, padding):
    """A train-mode convolution as a node of its own: the convolution of
    ``tensor.conv_bn``, keeping its padded input for the backward."""
    xc = T._padded(x.data, padding)

    def bwd(g):
        T._conv_backward(g, x, w, xc, stride, padding)

    return T._node(T._conv_forward(xc, w.data, stride, 0, None, None, False),
                   (x, w), bwd)


def batchnorm2d(x, gamma, beta, running_mean, running_var):
    """Train-mode BatchNorm as a node of its own: the BatchNorm of
    ``tensor.conv_bn``, moving the running statistics."""
    y, bn_bwd = T._bn_train(x.data, gamma, beta, running_mean, running_var)

    def bwd(g):
        x._accumulate(bn_bwd(g))

    return T._node(y, (x, gamma, beta), bwd)


def conv_bn(conv, bn, x, relu=False, residual=None):
    """Train-mode ``layers.conv_bn`` composed of ``conv2d``,
    ``batchnorm2d``, ``T.add`` and ``T.relu`` in turn: the reference that
    the one node is compared against."""
    out = batchnorm2d(conv2d(x, conv.weight, conv.stride, conv.padding),
                      bn.gamma, bn.beta, bn.running_mean, bn.running_var)
    if residual is not None:
        out = T.add(out, residual)
    return T.relu(out) if relu else out


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
