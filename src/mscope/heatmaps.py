"""Dense sliding-window heatmaps from the patch classifier.

A stride plan tiles each image axis with steps no larger than a prefixed
stride, adjusted so the windows end exactly at the image border; the
window grid is the cumulative sum of the strides. Every window's
malignant/benign probabilities are painted over the window's pixels and
overlapping windows are averaged (float64 accumulation, so the result is
independent of evaluation order).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .binary import Reader
from .seeding import substream

HEATMAP_MAGIC = b"MSHM"
HEATMAP_VERSION = 1


def stride_list(image_extent, patch_size, prefixed_stride, rng):
    """Stride sequence along one axis.

    The strides sum to ``image_extent - patch_size``; each is at most the
    prefixed stride and they differ by at most one. When the extent is not
    an exact multiple, the shortfall is spread by decrementing a randomly
    chosen subset of entries.
    """
    if image_extent < patch_size:
        raise ValueError(f"extent {image_extent} smaller than patch {patch_size}")
    if prefixed_stride < 1:
        raise ValueError("prefixed stride must be >= 1")
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


@dataclass
class StridePlan:
    vertical: list
    horizontal: list
    patch_size: int
    prefixed_stride: int

    def positions(self, axis):
        strides = self.vertical if axis == 0 else self.horizontal
        return [0] + list(np.cumsum(strides))

    def validate(self, dims):
        h, w = dims
        if sum(self.vertical) != h - self.patch_size or \
                sum(self.horizontal) != w - self.patch_size:
            raise ValueError("stride plan does not match image dims")


def make_stride_plan(dims, patch_size, prefixed_stride, rng):
    return StridePlan(
        vertical=stride_list(dims[0], patch_size, prefixed_stride, rng),
        horizontal=stride_list(dims[1], patch_size, prefixed_stride, rng),
        patch_size=patch_size,
        prefixed_stride=prefixed_stride)


def generate_heatmaps(image, predict, plan: StridePlan):
    """(malignant, benign) float32 planes matching ``image``'s shape.

    ``predict`` maps an (N, p, p) window batch to (N, 4) class
    probabilities ordered (malignant, benign, outside, negative); the
    trailing two columns are ignored.
    """
    image = np.asarray(image)
    plan.validate(image.shape)
    p = plan.patch_size
    ys = plan.positions(0)
    xs = plan.positions(1)
    windows = np.stack([image[y:y + p, x:x + p] for y in ys for x in xs])
    probs = np.asarray(predict(windows), dtype=np.float64)
    if probs.shape != (len(windows), 4):
        raise ValueError(f"predict returned shape {probs.shape}")

    sums = np.zeros(image.shape + (2,), dtype=np.float64)
    count = np.zeros(image.shape, dtype=np.float64)
    k = 0
    for y in ys:
        for x in xs:
            sums[y:y + p, x:x + p, 0] += probs[k, 0]
            sums[y:y + p, x:x + p, 1] += probs[k, 1]
            count[y:y + p, x:x + p] += 1.0
            k += 1
    if (count == 0).any():
        raise ValueError("stride plan leaves pixels uncovered")
    mal = (sums[..., 0] / count).astype(np.float32)
    ben = (sums[..., 1] / count).astype(np.float32)
    return mal, ben


def save_heatmap(path, malignant, benign):
    malignant = np.ascontiguousarray(malignant, dtype="<f4")
    benign = np.ascontiguousarray(benign, dtype="<f4")
    if malignant.shape != benign.shape:
        raise ValueError("heatmap planes must share dims")
    h, w = malignant.shape
    with open(path, "wb") as f:
        f.write(HEATMAP_MAGIC)
        f.write(struct.pack("<III", HEATMAP_VERSION, h, w))
        f.write(malignant.tobytes())
        f.write(benign.tobytes())


def load_heatmap(path):
    r = Reader(path)
    if r.take(len(HEATMAP_MAGIC), "magic") != HEATMAP_MAGIC:
        r.fail(f"bad magic {r.blob[:4]!r}, expected {HEATMAP_MAGIC!r}", at=0)
    version, h, w = r.unpack("<III", "header")
    if version != HEATMAP_VERSION:
        r.fail(f"unsupported version {version}", at=len(HEATMAP_MAGIC))
    mal = r.array("<f4", (h, w), "malignant plane").copy()
    ben = r.array("<f4", (h, w), "benign plane").copy()
    r.end()
    return mal, ben


def heatmap_breast_score(heatmap_pairs):
    """Max pixel per label over all of a breast's view heatmaps."""
    if not heatmap_pairs:
        raise ValueError("at least one heatmap required")
    p_mal = max(float(np.max(mal)) for mal, _ in heatmap_pairs)
    p_ben = max(float(np.max(ben)) for _, ben in heatmap_pairs)
    return p_mal, p_ben


def heatmaps_for_exam(record, data_dir, predict, patch_size, prefixed_stride,
                      seed):
    """Heatmap planes for all four views; stride randomness is keyed by
    (seed, exam, view) so any processing order gives identical output."""
    from .pgm import read_pgm
    from .phantom import MAXVAL, VIEWS, image_path

    out = {}
    for view in VIEWS:
        img = read_pgm(image_path(data_dir, record, view)).astype(np.float32) / MAXVAL
        rng = substream(seed, "strides", record.exam_id, view)
        plan = make_stride_plan(img.shape, patch_size, prefixed_stride, rng)
        out[view] = generate_heatmaps(img, predict, plan)
    return out


def select_patch_checkpoint(checkpoints, records, data_dir, patch_size,
                            prefixed_stride, seed, log=print):
    """Pick the checkpoint whose heatmap-derived breast scores maximize the
    mean of malignant and benign AUC over ``records``; ties go to the
    earliest checkpoint.

    Raises ``MetricError`` before any heatmap is made when the breasts of
    ``records`` have a single malignant or a single benign class: the
    labels do not depend on the checkpoint, and neither AUC is defined.
    """
    from .checkpoint import load_into
    from .evaluation import MetricError, roc_auc
    from .patches import PatchNet

    if not checkpoints:
        raise ValueError("no checkpoints to select from")
    sides = (("L", ("lcc", "lmlo")), ("R", ("rcc", "rmlo")))
    labels = {"malignant": [], "benign": []}
    for rec in records:
        for side, _ in sides:
            benign, malignant = rec.labels(side)
            labels["malignant"].append(malignant)
            labels["benign"].append(benign)
    for task in ("malignant", "benign"):
        if len(set(labels[task])) < 2:
            raise MetricError(f"the {len(records)} selection exams have a "
                              f"single {task} class; checkpoint selection "
                              "undefined")
    best = None
    table = []
    for epoch, path in checkpoints:
        net = PatchNet(patch_size=patch_size)
        load_into(net, path)
        scores = {"malignant": [], "benign": []}
        for rec in records:
            maps = heatmaps_for_exam(rec, data_dir, net.predict_proba,
                                     patch_size, prefixed_stride, seed)
            for _, views in sides:
                p_mal, p_ben = heatmap_breast_score([maps[v] for v in views])
                scores["malignant"].append(p_mal)
                scores["benign"].append(p_ben)
        aucs = {task: roc_auc(scores[task], labels[task])
                for task in ("malignant", "benign")}
        mean_auc = (aucs["malignant"] + aucs["benign"]) / 2.0
        table.append((epoch, path, aucs["malignant"], aucs["benign"], mean_auc))
        log(f"checkpoint epoch {epoch}: auc_mal {aucs['malignant']:.3f} "
            f"auc_ben {aucs['benign']:.3f} mean {mean_auc:.3f}")
        if best is None or mean_auc > best[4]:
            best = table[-1]
    return best, table
