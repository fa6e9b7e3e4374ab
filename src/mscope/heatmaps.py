"""Dense sliding-window heatmaps from the patch classifier.

``stride_list`` tiles an image axis with steps of at most a prefixed
stride (itself at most the patch) so that the last window ends at the
border; an axis's window starts are 0 and the running sums of its steps.
The grid's windows are gathered in one fancy index of the image's
sliding-window view and classified in one batch, in row-major order. A
pixel gets the mean probability of the windows over it: with each axis's
0/1 (pixels x windows) cover matrix, ``cover_rows @ probs_grid @
cover_cols.T`` over the outer product of the cover counts, in float64,
cast to float32. Each product there is exact (a probability times 0 or
1), so the sums differ from adding window after window only in the order
of a few nonzero terms, by a float64 ulp or so, which the cast drops
unless a sum lies that near a float32 rounding boundary. The tests pin
the planes equal to a float64 loop over the windows in row-major order,
on seeded cases with extreme softmax outputs.

A heatmap file is a ``formats`` container under "MSHM" holding the arrays
``malignant`` and ``benign``; ``heatmap_path`` names an exam view's file,
``<exam>_<view>.mshm`` in a heatmap directory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ConfigError
from .formats import Reader, save_arrays
from .pgm import pgm_dims
from .phantom import VIEWS, image_path, load_image
from .seeding import _map_blas, substream

HEATMAP_MAGIC = b"MSHM"
PLANES = ("malignant", "benign")


def stride_list(image_extent, patch_size, prefixed_stride, rng):
    """Stride sequence along one axis.

    The strides sum to ``image_extent - patch_size``; each is at most the
    prefixed stride and they differ by at most one. When the extent is not
    an exact multiple, the shortfall is spread by decrementing a randomly
    chosen subset of entries.
    """
    if image_extent < patch_size:
        raise ValueError(f"extent {image_extent} smaller than patch {patch_size}")
    if not 1 <= prefixed_stride <= patch_size:
        raise ValueError(f"prefixed stride {prefixed_stride} outside "
                         f"[1, {patch_size}]")
    diff = image_extent - patch_size
    steps = diff // prefixed_stride
    remaining = diff % prefixed_stride
    if remaining == 0:
        return [prefixed_stride] * steps
    steps += 1
    overlap = prefixed_stride - remaining
    avg = prefixed_stride - overlap // steps
    strides = [avg] * steps
    for i in rng.choice(steps, size=overlap % steps, replace=False):
        strides[i] -= 1
    return strides


def generate_heatmaps(image, predict, patch_size, prefixed_stride, rng):
    """(malignant, benign) float32 planes matching ``image``'s shape, on a
    grid whose strides are drawn from ``rng``, rows first. ``predict`` maps
    an (N, p, p) window batch to (N, 4) probabilities ordered (malignant,
    benign, outside, negative); the last two columns are ignored."""
    p = patch_size
    ys, xs = (np.cumsum([0] + stride_list(extent, p, prefixed_stride, rng))
              for extent in image.shape)
    windows = sliding_window_view(image, (p, p))[np.ix_(ys, xs)]
    windows = windows.reshape(-1, p, p)
    probs = np.asarray(predict(windows), dtype=np.float64)
    if probs.shape != (len(windows), 4):
        raise ValueError(f"predict returned shape {probs.shape}")
    # cover[y, i] is 1 where the axis's window i covers its pixel y
    rows, cols = (((np.arange(n)[:, None] - starts) // p == 0) * 1.0
                  for n, starts in zip(image.shape, (ys, xs)))
    counts = np.outer(rows.sum(axis=1), cols.sum(axis=1))
    return tuple(
        (rows @ probs[:, k].reshape(len(ys), len(xs)) @ cols.T / counts)
        .astype(np.float32) for k in (0, 1))


def heatmap_path(heatmap_dir, record, view):
    return Path(heatmap_dir) / f"{record.exam_id}_{view}.mshm"


def save_heatmap(path, malignant, benign):
    if np.shape(malignant) != np.shape(benign):
        raise ValueError("heatmap planes must share dims")
    save_arrays(path, HEATMAP_MAGIC, dict(zip(PLANES, (malignant, benign))))


def load_heatmap(path):
    """The (malignant, benign) planes, as read-only views."""
    r = Reader(path)
    mal, ben = r.arrays(HEATMAP_MAGIC, PLANES).values()
    if mal.ndim != 2 or ben.shape != mal.shape:
        r.fail(f"heatmap planes {mal.shape} and {ben.shape} do not share "
               "one 2-D shape", at=r.payload["malignant"])
    return mal, ben


def heatmap_breast_score(heatmap_pairs):
    """Max pixel per label over all of a breast's view heatmaps."""
    if not heatmap_pairs:
        raise ValueError("at least one heatmap required")
    p_mal = max(float(np.max(mal)) for mal, _ in heatmap_pairs)
    p_ben = max(float(np.max(ben)) for _, ben in heatmap_pairs)
    return p_mal, p_ben


def check_views_fit(record, data_dir, patch_size):
    """Raise ``ConfigError`` naming the first view of an exam that is
    smaller than the patch. Reads each view's PGM header only."""
    for view in VIEWS:
        path = image_path(data_dir, record, view)
        dims = pgm_dims(path)
        if min(dims) < patch_size:
            raise ConfigError(f"{path}: image dims {dims} below "
                              f"patch.size={patch_size}")


def exam_views(record, data_dir, patch_size):
    """An exam's four images by view, once ``check_views_fit`` passes."""
    check_views_fit(record, data_dir, patch_size)
    return {view: load_image(data_dir, record, view) for view in VIEWS}


def heatmaps_for_exam(record, images, predict, patch_size, prefixed_stride,
                      seed):
    """Heatmap planes for the four ``images`` of an exam (``exam_views``),
    one view per thread of ``seeding._map_blas``; stride randomness is
    keyed by (seed, exam, view) so any processing order or thread gives
    identical output."""
    def planes(view):
        return generate_heatmaps(images[view], predict, patch_size,
                                 prefixed_stride, substream(
                                     seed, "strides", record.exam_id, view))
    return dict(zip(images, _map_blas(planes, list(images))))


def selection_labels(records):
    """The malignant and benign labels of the breasts of ``records``, in
    exam then side order; a single class of either, which leaves checkpoint
    selection undefined, raises ``MetricError``."""
    from .evaluation import MetricError

    pairs = [rec.labels(side) for rec in records for side in ("L", "R")]
    labels = {"malignant": [m for _, m in pairs],
              "benign": [b for b, _ in pairs]}
    for task in ("malignant", "benign"):
        if len(set(labels[task])) < 2:
            raise MetricError(f"the {len(records)} selection exams have a "
                              f"single {task} class; checkpoint selection "
                              "undefined")
    return labels


def select_patch_checkpoint(checkpoints, records, data_dir, patch_size,
                            prefixed_stride, seed):
    """Pick the checkpoint whose heatmap-derived breast scores maximize the
    mean of malignant and benign AUC over the breasts of ``records``, whose
    ``selection_labels`` it checks first; ties go to the earliest
    checkpoint."""
    from .checkpoint import load_into
    from .evaluation import roc_auc
    from .patches import PatchNet

    labels = selection_labels(records)
    nets = [PatchNet(patch_size=patch_size, seed=None) for _ in checkpoints]
    for net, (_, path) in zip(nets, checkpoints):
        load_into(net, path)
        net.eval()
    scores = [{"malignant": [], "benign": []} for _ in checkpoints]
    for rec in records:
        images = exam_views(rec, data_dir, patch_size)
        for net, score in zip(nets, scores):
            maps = heatmaps_for_exam(rec, images, net.predict_proba,
                                     patch_size, prefixed_stride, seed)
            for views in (("lcc", "lmlo"), ("rcc", "rmlo")):
                p_mal, p_ben = heatmap_breast_score([maps[v] for v in views])
                score["malignant"].append(p_mal)
                score["benign"].append(p_ben)
    best = None
    table = []
    for (epoch, path), score in zip(checkpoints, scores):
        aucs = {task: roc_auc(score[task], labels[task])
                for task in ("malignant", "benign")}
        mean_auc = (aucs["malignant"] + aucs["benign"]) / 2.0
        table.append((epoch, path, aucs["malignant"], aucs["benign"], mean_auc))
        print(f"checkpoint epoch {epoch}: auc_mal {aucs['malignant']:.3f} "
              f"auc_ben {aucs['benign']:.3f} mean {mean_auc:.3f}")
        if best is None or mean_auc > best[4]:
            best = table[-1]
    return best, table
