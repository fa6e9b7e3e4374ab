"""Training orchestration: crop augmentation, balanced epoch subsampling,
the 3-way assessment pretraining task, cancer-model training with early
stopping, test-time augmentation, and ensembling.

Both multi-view trainers build only their net and epoch draw; one body,
``_train_multiview``, runs the batches, validation, early stopping and
best-state restore, checks the splits before the first step, and reads
what differs by task (output columns, target row, loss) from ``TASKS``.

A view is an (H, W, C) stack from its file to its column: C is 1, or 3
with the heatmap planes exactly when a heatmap directory is given.

The validation pass, ``predict_exams``, maps its chunks onto as many
threads as OpenBLAS has in the calling process (``seeding._map_blas``),
each with one BLAS thread. The train steps run on the thread that calls
them; ``predict_tta``'s eval forward maps its four column calls the same
way (``MultiViewNet.forward``), unless it already runs in a mapped task,
such as an exam of ``predict``'s ``--jobs`` map or a validation chunk.

All randomness flows through substreams of the run seed keyed by purpose
(epoch index, exam id, member id), so a rerun with the same config and
seed reproduces every byte, and per-exam work can be parallelized without
changing results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import KEYS, ConfigError
from .evaluation import MetricError, roc_auc
from .formats import FormatError, write_table
from .heatmaps import heatmap_path, load_heatmap
from .multiview import (MultiViewNet, OUTPUT_ORDER, VIEW_ORDER,
                        transfer_from_pretrained)
from .optim import _fit, binary_cross_entropy, nll_on_probs
from .phantom import load_image
from .resample import bicubic_resize
from .seeding import _map_blas, substream

TRAIN_LOG_HEADER = "epoch,split,label,auc,loss"
# an epoch improves only when its validation metric beats the best so far
# by more than this
IMPROVEMENT_EPS = 1e-6
# exams per eval-mode forward of ``predict_exams``
PREDICT_BATCH = 8


class SplitError(ValueError):
    """A manifest split with no exam for a run to train or validate on."""


@dataclass
class TrainRunConfig:
    lr: float
    batch_size: int
    l2: float
    patience: int
    max_epochs: int
    seed: int
    max_offset: int                   # crop jitter
    variant: str
    input_channels: int
    epoch_exams: int = KEYS["train.epoch_exams"][1]  # exams per epoch, 0 = all
    val_exams: int = KEYS["train.val_exams"][1]      # exams validated, 0 = all


# ---------------------------------------------------------------------------
# input preparation

def load_view_stack(record, data_dir, view, heatmap_dir):
    """(H, W, C) float32 stack of a view: the image alone (C = 1), or with
    its malignant and benign heatmap planes (C = 3) exactly when a
    ``heatmap_dir`` is given."""
    img = load_image(data_dir, record, view)
    if heatmap_dir is None:
        return img[..., None]
    path = heatmap_path(heatmap_dir, record, view)
    mal, ben = load_heatmap(path)
    if mal.shape != img.shape:
        raise FormatError(f"{path}: dims {mal.shape}, not the image's {img.shape}")
    return np.stack([img, mal, ben], axis=-1)


def augment_window(stack, rng, max_offset):
    """Jittered crop of an (H, W, C) stack, zero-padded where the window
    leaves the image, cubic-resampled back to (H, W).

    Each window edge moves independently by an integer in
    [-max_offset, max_offset], which realizes both size and location
    jitter while keeping every window corner within max_offset of the
    canonical crop. An offset that could empty the window is refused.
    """
    h, w = stack.shape[:2]
    if 2 * max_offset >= min(h, w):
        raise ConfigError(f"train.max_offset={max_offset} could crop a "
                          f"{h}x{w} view to nothing: it must stay below "
                          "half of the view's smaller side")
    d_top, d_bottom, d_left, d_right = rng.integers(
        -max_offset, max_offset + 1, size=4)
    top, bottom = int(d_top), h + int(d_bottom)
    left, right = int(d_left), w + int(d_right)
    window = np.zeros((bottom - top, right - left, *stack.shape[2:]),
                      dtype=np.float32)
    sy0, sy1 = max(top, 0), min(bottom, h)
    sx0, sx1 = max(left, 0), min(right, w)
    window[sy0 - top:sy1 - top, sx0 - left:sx1 - left] = \
        stack[sy0:sy1, sx0:sx1]
    return bicubic_resize(window, h, w).astype(np.float32)


def prepare_views(records, data_dir, heatmap_dir, rng, max_offset, copies=1):
    """All four views of ``records`` as channels-last (len(records) *
    copies, H, W, C) arrays, left views flipped so every breast is oriented
    the same way; row ``i * copies + j`` is copy j of record i, and C comes
    from ``load_view_stack``. Augmentation applies only when an rng is
    given, drawn record by record, then view by view (``VIEW_ORDER``), then
    copy by copy."""
    out = {}
    for i, record in enumerate(records):
        for view in VIEW_ORDER:
            stack = load_view_stack(record, data_dir, view, heatmap_dir)
            if view not in out:
                out[view] = np.empty((len(records) * copies, *stack.shape),
                                     np.float32)
            flip = slice(None, None, -1 if view.startswith("l") else 1)
            for copy in out[view][i * copies:(i + 1) * copies]:
                s = augment_window(stack, rng, max_offset) \
                    if rng is not None and max_offset > 0 else stack
                copy[...] = s[:, flip]
    return out


def exam_labels(record):
    return np.array([record.left_benign, record.left_malignant,
                     record.right_benign, record.right_malignant],
                    dtype=np.float32)


# ---------------------------------------------------------------------------
# epoch construction

def subsample_epoch(records, rng, log):
    """All biopsied train exams plus an equally sized random draw of
    non-biopsied ones, shuffled. Returns exam ids. When there are fewer
    non-biopsied exams than biopsied ones, all are taken and ``log`` gets
    a warning."""
    train = [r for r in records if r.split == "train"]
    biopsied = [r.exam_id for r in train if r.any_biopsied]
    clean = [r.exam_id for r in train if not r.any_biopsied]
    if len(clean) < len(biopsied):
        log(f"warning: only {len(clean)} non-biopsied train exams for "
            f"{len(biopsied)} biopsied ones; taking all")
        chosen = clean
    else:
        idx = rng.choice(len(clean), size=len(biopsied), replace=False)
        chosen = [clean[i] for i in idx]
    ids = biopsied + chosen
    order = rng.permutation(len(ids))
    return [ids[i] for i in order]


def _batched(seq, size):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def _forward_batch(net, recs, data_dir, heatmap_dir, rng, max_offset):
    views = prepare_views(recs, data_dir, heatmap_dir, rng, max_offset)
    return net({v: T.Tensor(a) for v, a in views.items()})


def predict_exams(net, records, data_dir, heatmap_dir):
    """Deterministic eval-mode probabilities, (N, 4) aligned with records.

    The ``PREDICT_BATCH`` chunks run on the process's BLAS threads, one
    BLAS thread each (``seeding._map_blas``); every chunk is the same
    forward as on one thread, so the bytes do not depend on where it ran.
    """
    net.eval()

    def forward(chunk):
        return _forward_batch(net, chunk, data_dir, heatmap_dir, rng=None,
                              max_offset=0).data
    return np.concatenate(_map_blas(
        forward, list(_batched(list(records), PREDICT_BATCH))), axis=0)


def mean_column_auc(probs, targets, names, log):
    """Mean AUC over the columns of (N, K) 0/1 ``targets``, each scored by
    the same column of ``probs``, and the AUCs by column name; a column
    with a single class is skipped with a warning."""
    aucs = {}
    for k, name in enumerate(names):
        try:
            aucs[name] = roc_auc(probs[:, k], targets[:, k].astype(int))
        except MetricError:
            log(f"warning: label {name} has a single class; skipped in the "
                "validation metric")
    if not aucs:
        raise MetricError("no label had both classes in validation")
    return float(np.mean(list(aucs.values()))), aucs


# ---------------------------------------------------------------------------
# training loops

def validation_exams(records, cap, rng):
    """The validation exams a run scores: every val exam, or with a ``cap``
    below their count, every biopsied one plus a draw by ``rng`` of clean
    ones up to ``cap`` exams, so the scores always see positives."""
    val = [r for r in records if r.split == "val"]
    if not cap or cap >= len(val):
        return val
    biopsied = [r for r in val if r.any_biopsied]
    clean = [r for r in val if not r.any_biopsied]
    idx = rng.choice(len(clean), max(0, cap - len(biopsied)), replace=False)
    return biopsied + [clean[i] for i in idx]


class EarlyStopper:
    """Strict-improvement tracker; also remembers the best state.

    An epoch improves only if its metric beats the best so far by more than
    ``IMPROVEMENT_EPS``. ``update`` returns True ``patience`` epochs after
    the last such improvement. The best state is the full ``state_dict``,
    BatchNorm running statistics included.
    """

    def __init__(self, patience):
        self.patience = patience
        self.best_metric = None
        self.best_epoch = None
        self.best_state = None
        self.stale = 0

    def update(self, metric, epoch, net):
        if self.best_metric is None or \
                metric > self.best_metric + IMPROVEMENT_EPS:
            self.best_metric = metric
            self.best_epoch = epoch
            self.best_state = {k: v.copy() for k, v in net.state_dict().items()}
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience


# per ``MultiViewNet.task``: output columns, an exam's 0/1 target row, the
# loss of (probs, target rows), what an epoch draws; the lambdas look module
# functions up when called, so a replaced function is the one run
TASKS = {
    "cancer": (OUTPUT_ORDER, lambda r: exam_labels(r),
               lambda probs, y: binary_cross_entropy(probs, y),
               "biopsied train exam"),
    "birads": (("birads_0", "birads_1", "birads_2"),
               lambda r: np.eye(3)[r.birads],
               lambda probs, y: nll_on_probs(probs, y.argmax(axis=1)),
               "train exam"),
}


def _train_multiview(net, records, data_dir, cfg: TrainRunConfig,
                     heatmap_dir, epoch_records, log):
    """Train ``net`` on its task over the exams and rng that
    ``epoch_records(epoch)`` gives; return (net in its best state and eval
    mode, log rows, best_epoch). Before the first step, an empty validation
    set or train epoch raises ``SplitError``, and validation labels with no
    two-class column ``MetricError``. An epoch logs a train and a val row
    per column with its losses, then the val ``mean`` AUC that
    ``EarlyStopper`` tracks; ``optim._fit`` handles divergence."""
    names, target, loss, trains_on = TASKS[net.task]
    val_records = validation_exams(records, cfg.val_exams,
                                   substream(cfg.seed, "valsubset"))
    if not val_records:
        raise SplitError("no val exam to validate on")
    val_y = np.stack([target(r) for r in val_records])
    mean_column_auc(val_y, val_y, names, log)   # raises, or warns once
    stopper = EarlyStopper(cfg.patience)
    log_rows = []
    seen = []                         # (probs, targets) of this epoch's steps

    def epoch_batches(epoch):
        seen.clear()
        recs, rng = epoch_records(epoch)
        if not recs:
            raise SplitError(f"no {trains_on} to train on")
        for chunk in _batched(recs[:cfg.epoch_exams or None], cfg.batch_size):
            yield chunk, rng

    def batch_loss(batch):
        recs, rng = batch
        probs = _forward_batch(net, recs, data_dir, heatmap_dir, rng,
                               cfg.max_offset)
        y = np.stack([target(r) for r in recs])
        seen.append((probs.data, y))
        return loss(probs, y)

    def end_epoch(epoch, losses):
        # the validation pass comes first: it may raise NumericsError, and
        # a diverged epoch must leave no rows
        val_probs = predict_exams(net, val_records, data_dir, heatmap_dir)
        val_loss = float(loss(T.Tensor(val_probs), val_y).data)
        metric, aucs = mean_column_auc(val_probs, val_y, names, lambda _: None)
        train_loss = float(np.mean(losses))
        tp, ty = (np.concatenate(a) for a in zip(*seen))
        for i, name in enumerate(names):
            try:
                auc_i = roc_auc(tp[:, i], ty[:, i].astype(int))
            except MetricError:
                auc_i = None
            log_rows.append((epoch, "train", name, auc_i, train_loss))
        for name in names:
            log_rows.append((epoch, "val", name, aucs.get(name), val_loss))
        log_rows.append((epoch, "val", "mean", metric, val_loss))
        log(f"epoch {epoch}: train loss {train_loss:.4f} val mean auc "
            f"{metric:.4f}")
        if stopper.update(metric, epoch, net):
            log(f"no improvement for {cfg.patience} epochs; stopping")
            return True
        return False

    _fit(net, cfg.lr, cfg.l2, cfg.max_epochs, epoch_batches, batch_loss,
         end_epoch, log)
    if stopper.best_state is not None:
        net.load_state_dict(stopper.best_state)
    net.eval()
    return net, log_rows, stopper.best_epoch


def train_cancer_model(records, data_dir, cfg: TrainRunConfig,
                       heatmap_dir=None, init_state=None, log=print):
    """Four-label training on balanced epochs (``subsample_epoch``) from
    ``init_state`` or a fresh net, run by ``_train_multiview``. ``lr=0``
    fixes the parameters, but train-mode forward passes still move the
    BatchNorm running statistics, so the validation metric can change from
    epoch to epoch."""
    if init_state is not None:
        net = transfer_from_pretrained(init_state, variant=cfg.variant,
                                       input_channels=cfg.input_channels,
                                       seed=cfg.seed)
    else:
        net = MultiViewNet(variant=cfg.variant,
                           input_channels=cfg.input_channels,
                           task="cancer", seed=cfg.seed)
    by_id = {r.exam_id: r for r in records}

    def epoch_records(epoch):
        rng = substream(cfg.seed, "epoch", epoch)
        return [by_id[i] for i in subsample_epoch(records, rng, log=log)], rng

    return _train_multiview(net, records, data_dir, cfg, heatmap_dir,
                            epoch_records, log)


def pretrain_birads(records, data_dir, cfg: TrainRunConfig):
    """3-way assessment pretraining on every train exam, shuffled each
    epoch, run by ``_train_multiview`` with its log on stdout; the metric
    is the mean one-vs-rest AUC."""
    net = MultiViewNet(variant="view_wise", input_channels=cfg.input_channels,
                       task="birads", seed=cfg.seed)
    train = [r for r in records if r.split == "train"]

    def epoch_records(epoch):
        rng = substream(cfg.seed, "birads-epoch", epoch)
        return [train[i] for i in rng.permutation(len(train))], rng

    return _train_multiview(net, records, data_dir, cfg, None, epoch_records,
                            print)


# ---------------------------------------------------------------------------
# inference

def predict_tta(net, record, data_dir, rng, heatmap_dir, n, max_offset):
    """Mean probability over n jittered forward passes of one exam by an
    eval-mode net, which the call only reads: threads may share it."""
    if net.training:
        raise T.GraphError("predict_tta needs an eval-mode net")
    views = prepare_views([record], data_dir, heatmap_dir, rng, max_offset,
                          copies=n)
    return net({v: T.Tensor(a) for v, a in views.items()}).data.mean(axis=0)


def ensemble_predict(nets, record, data_dir, seed, heatmap_dir, n, max_offset):
    """Arithmetic mean of the members' TTA predictions."""
    if not nets:
        raise ValueError("an ensemble needs at least one member")
    outs = []
    for mi, net in enumerate(nets):
        rng = substream(seed, "tta", record.exam_id, mi)
        outs.append(predict_tta(net, record, data_dir, rng, heatmap_dir, n,
                                max_offset))
    return np.mean(outs, axis=0)


def save_train_log(path, rows):
    write_table(path, TRAIN_LOG_HEADER, (
        (epoch, split, label, "" if auc is None else f"{auc:.6f}",
         f"{loss:.6f}") for epoch, split, label, auc, loss in rows))
