"""Adam with classic L2, the one training loop, and the training losses."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor

# Adam's moment decay rates and the constant added to the step's divisor
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# probabilities are clipped this far from 0 and 1 before their logarithm
CLIP = 1e-7


@dataclass
class AdamState:
    """First/second moment estimates plus the learning rate and L2.

    ``weight_decay`` is a plain L2 coefficient: it is added to the raw
    gradient (decay * param) before the moment updates.
    """
    lr: float
    weight_decay: float
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def ensure(self, params):
        if not self.m:
            self.m = [np.zeros_like(p.data) for p in params]
            self.v = [np.zeros_like(p.data) for p in params]
        for slot, p in zip(self.m, params):
            if slot.shape != p.data.shape:
                raise ValueError("optimizer state does not match parameter shapes")


def adam_step(params, grads, state: AdamState):
    """One Adam update with bias correction; mutates params and state."""
    state.ensure(params)
    if len(grads) != len(params):
        raise ValueError("one gradient per parameter required")
    state.t += 1
    b1, b2 = BETA1, BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape}")
        if not np.isfinite(g).all():
            raise T.NumericsError("non-finite gradient in adam_step")
        if state.weight_decay:
            g = g + state.weight_decay * p.data
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data = p.data - state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params, state


def _fit(net, lr, l2, max_epochs, epoch_batches, batch_loss, end_epoch, log):
    """The one Adam training loop behind every trainer.

    Each epoch puts ``net`` in train mode and takes one Adam step per item
    of ``epoch_batches(epoch)``, on the scalar loss ``batch_loss(item)``.
    ``end_epoch(epoch, losses)`` then gets the epoch's step losses and
    returns True to stop early.

    Divergence: a non-finite loss, or a ``NumericsError`` raised inside a
    step (by a layer's finiteness check or by ``adam_step``) or by
    ``end_epoch`` (an eval-mode validation pass overflowing), ends training
    at once and discards the epoch; ``end_epoch`` must therefore record
    nothing before its last chance to raise. Returns the diverged epoch,
    or None when training did not diverge; a first epoch that diverges
    leaves no state to keep and raises ``NumericsError``.
    """
    params = net.parameters()
    state = AdamState(lr=lr, weight_decay=l2)
    for epoch in range(1, max_epochs + 1):
        net.train()
        losses = []
        try:
            for batch in epoch_batches(epoch):
                loss = batch_loss(batch)
                if not np.isfinite(loss.data):
                    raise T.NumericsError("non-finite loss")
                adam_step(params, T.collect_gradients(loss, params), state)
                losses.append(float(loss.data))
            stop = end_epoch(epoch, losses)
        except T.NumericsError as exc:
            log(f"training diverged in epoch {epoch} ({exc}); "
                "discarding that epoch")
            if epoch == 1:
                raise T.NumericsError("training diverged in its first "
                                      "epoch") from exc
            return epoch
        if stop:
            break
    return None


def weighted_batch_cross_entropy(logits: Tensor, labels, weights):
    """Mean over the batch of -w[y_i] * log softmax(logits_i)[y_i].

    ``logits``: (N, K). Gradients flow through logits only.
    """
    ld = logits.data
    labels = np.asarray(labels)
    w = np.asarray(weights, dtype=ld.dtype)
    n, k = ld.shape
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError("label out of range")
    shifted = ld - ld.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    logp = shifted[np.arange(n), labels] - lse
    wl = w[labels]
    loss_val = float((-wl * logp).mean())

    def bwd(g):
        p = np.exp(shifted - lse[:, None])
        p[np.arange(n), labels] -= 1.0
        logits._accumulate((float(g) / n) * wl[:, None] * p)

    return T._node(np.asarray(loss_val, dtype=ld.dtype), (logits,), bwd)


def binary_cross_entropy(probs: Tensor, targets):
    """Mean BCE against probabilities already in (0, 1).

    Targets are a plain array broadcastable to ``probs``. Probabilities are
    clipped ``CLIP`` away from {0, 1}; gradient is zero in the clipped
    region.
    """
    y = np.asarray(targets, dtype=probs.dtype)
    p = probs.data
    pc = np.clip(p, CLIP, 1.0 - CLIP)
    loss_val = float(-(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)).mean())

    def bwd(g):
        inside = (p > CLIP) & (p < 1.0 - CLIP)
        grad = np.where(inside, (pc - y) / (pc * (1.0 - pc)), 0.0)
        probs._accumulate((float(g) / p.size) * grad.astype(p.dtype))

    return T._node(np.asarray(loss_val, dtype=probs.dtype), (probs,), bwd)


def nll_on_probs(probs: Tensor, labels):
    """Mean -log p[label] for probabilities (N, K); used by 3-way heads."""
    labels = np.asarray(labels)
    p = probs.data
    n = p.shape[0]
    pc = np.clip(p[np.arange(n), labels], CLIP, 1.0)

    def bwd(g):
        grad = np.zeros_like(p)
        sel = p[np.arange(n), labels]
        grad[np.arange(n), labels] = np.where(sel > CLIP, -1.0 / pc, 0.0)
        probs._accumulate((float(g) / n) * grad)

    return T._node(np.asarray(float(-np.log(pc).mean()), dtype=p.dtype),
                   (probs,), bwd)
