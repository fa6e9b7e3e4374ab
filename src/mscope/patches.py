"""Patch extraction, class balancing, and the patch-level classifier.

Square windows are sampled with random center, side, and rotation, then
resampled (bilinear) to a fixed patch size. A window's class comes from
which lesion masks it overlaps: only-malignant, only-benign, none on a
segmented image ("outside"), or drawn from an exam with no biopsied
findings at all ("negative"). Windows touching both mask classes are
rejected outright, as are windows leaving the image or containing only
zero-valued pixels.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .binary import Reader
from .checkpoint import save_checkpoint
from .config import KEYS
from .layers import BatchNorm2d, Conv2d, Linear, Module, conv_bn
from .optim import _fit, weighted_batch_cross_entropy
from .phantom import VIEWS, load_image, load_mask, mask_path
from .seeding import substream

PATCH_CLASSES = ("malignant", "benign", "outside", "negative")
# pool sampling: draws per source image and round, and the round budget
ATTEMPTS_PER_ROUND = 6
MAX_ROUNDS = 400


@dataclass
class PatchConfig:
    patch_size: int = KEYS["patch.size"][1]
    side_min: float = KEYS["patch.side_min"][1]
    side_max: float = KEYS["patch.side_max"][1]
    max_angle: float = KEYS["patch.max_angle"][1]   # degrees


@dataclass
class PatchSample:
    pixels: np.ndarray        # (patch_size, patch_size) float32 in [0, 1]
    label: int                # index into PATCH_CLASSES
    source_id: str
    center: tuple
    side: float
    angle: float


@dataclass
class EpochPlan:
    counts: tuple             # per-class, aligned with PATCH_CLASSES

    def __post_init__(self):
        if len(self.counts) != len(PATCH_CLASSES):
            raise ValueError("one count per patch class required")
        if any(c < 0 for c in self.counts) or sum(self.counts) <= 0:
            raise ValueError("counts must be nonnegative with positive total")


def class_weights(counts):
    """Inverse-frequency weights normalized to sum to one.

    Equivalent formulations: w_c proportional to the product of the other
    classes' counts, or to 1/N_c.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if (counts <= 0).any():
        raise ValueError("class weights undefined for zero counts")
    inv = 1.0 / counts
    return inv / inv.sum()


def _window_corners(center, side, angle_rad):
    cy, cx = center
    half = side / 2.0
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    corners = []
    for dy, dx in ((-half, -half), (-half, half), (half, -half), (half, half)):
        corners.append((cy + dy * c - dx * s, cx + dy * s + dx * c))
    return corners


def _points_in_window(ys, xs, center, side, angle_rad):
    """Which (ys, xs) points fall inside the rotated square window."""
    cy, cx = center
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    dy = ys - cy
    dx = xs - cx
    ay = dy * c + dx * s
    ax = -dy * s + dx * c
    half = side / 2.0
    return (np.abs(ay) <= half) & (np.abs(ax) <= half)


def sample_patch(image, mask_points, rng, cfg: PatchConfig, source_kind,
                 source_id):
    """Draw one window; returns (PatchSample | None, reason).

    ``image`` is a float array scaled to [0, 1]; ``mask_points`` maps
    "malignant"/"benign" to (ys, xs) arrays of lesion pixels (may be empty);
    ``source_kind`` is "segmented" or "negative". Reasons for rejection:
    outside_image, all_zero, mixed_classes.
    """
    h, w = image.shape
    cy = rng.uniform(0, h)
    cx = rng.uniform(0, w)
    side = rng.uniform(cfg.side_min, cfg.side_max)
    angle = rng.uniform(-cfg.max_angle, cfg.max_angle)
    rad = math.radians(angle)

    for y, x in _window_corners((cy, cx), side, rad):
        if not (0 <= y <= h - 1 and 0 <= x <= w - 1):
            return None, "outside_image"

    overlaps = {}
    for malignancy, (ys, xs) in mask_points.items():
        overlaps[malignancy] = bool(
            len(ys) and _points_in_window(ys, xs, (cy, cx), side, rad).any())
    if overlaps.get("malignant") and overlaps.get("benign"):
        return None, "mixed_classes"

    pixels = _extract_window(image, (cy, cx), side, rad, cfg.patch_size)
    if pixels.max() <= 0:
        return None, "all_zero"

    if overlaps.get("malignant"):
        label = 0
    elif overlaps.get("benign"):
        label = 1
    elif source_kind == "segmented":
        label = 2
    else:
        label = 3
    return PatchSample(pixels=pixels.astype(np.float32), label=label,
                       source_id=source_id, center=(cy, cx), side=side,
                       angle=angle), "ok"


def _extract_window(image, center, side, angle_rad, patch_size):
    from .resample import bilinear_sample
    offs = (np.arange(patch_size) + 0.5) / patch_size * side - side / 2.0
    vy, vx = np.meshgrid(offs, offs, indexing="ij")
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    ys = center[0] + vy * c - vx * s
    xs = center[1] + vy * s + vx * c
    return bilinear_sample(image, ys, xs)


def build_epoch(pools, plan: EpochPlan, rng):
    """Exact per-class counts drawn from the pools, then shuffled.

    A class is drawn without replacement when its pool is large enough,
    with replacement otherwise.
    """
    chosen = []
    for ci, cls in enumerate(PATCH_CLASSES):
        count = plan.counts[ci]
        if count == 0:
            continue
        pool = pools.get(cls, [])
        if not pool:
            raise ValueError(f"empty pool for class {cls!r} with requested count {count}")
        idx = rng.choice(len(pool), size=count, replace=len(pool) < count)
        chosen.extend(pool[i] for i in idx)
    order = rng.permutation(len(chosen))
    return [chosen[i] for i in order]


# ---------------------------------------------------------------------------
# pool construction from a dataset

def eligible_images(records, data_dir):
    """Classify train-split images into patch sources.

    Returns (segmented, negative): lists of (record, view). A view image is
    "segmented" when its breast carries at least one rendered mask;
    "negative" images come from exams without any biopsied breast.
    """
    segmented, negative = [], []
    for rec in records:
        if rec.split != "train":
            continue
        for view in VIEWS:
            if not rec.any_biopsied:
                negative.append((rec, view))
                continue
            has_mask = any(
                mask_path(data_dir, rec, view, m).exists()
                and load_mask(data_dir, rec, view, m).any()
                for m in ("benign", "malignant"))
            if has_mask:
                segmented.append((rec, view))
    return segmented, negative


def _load_image_and_masks(data_dir, rec, view):
    img = load_image(data_dir, rec, view)
    points = {}
    for malignancy in ("malignant", "benign"):
        mask = load_mask(data_dir, rec, view, malignancy, dims=img.shape)
        ys, xs = np.nonzero(mask)
        points[malignancy] = (ys, xs)
    return img, points


def build_patch_pools(records, data_dir, cfg: PatchConfig, targets, seed):
    """Sample until each class pool reaches its target (or ``MAX_ROUNDS``
    rounds of ``ATTEMPTS_PER_ROUND`` draws per source image run out).

    Returns (pools, stats) where stats counts accepted/rejected draws by
    reason. Deterministic in (records order, seed).
    """
    segmented, negative = eligible_images(records, data_dir)
    targets = dict(zip(PATCH_CLASSES, targets))
    pools = {c: [] for c in PATCH_CLASSES}
    stats = {"ok": 0, "outside_image": 0, "all_zero": 0, "mixed_classes": 0}

    seg_needed = any(targets[c] > 0 for c in ("malignant", "benign", "outside"))
    if seg_needed and not segmented:
        raise ValueError("no segmented images available for patch sampling")
    if targets["negative"] > 0 and not negative:
        raise ValueError("no negative images available for patch sampling")

    cache = {}

    def get(rec, view):
        key = (rec.exam_id, view)
        if key not in cache:
            if len(cache) > 64:
                cache.clear()
            cache[key] = _load_image_and_masks(data_dir, rec, view)
        return cache[key]

    for rnd in range(MAX_ROUNDS):
        unmet = {c for c in PATCH_CLASSES if len(pools[c]) < targets[c]}
        if not unmet:
            break
        sources = []
        if unmet & {"malignant", "benign", "outside"}:
            sources.extend(("segmented", rv) for rv in segmented)
        if "negative" in unmet:
            sources.extend(("negative", rv) for rv in negative)
        for kind, (rec, view) in sources:
            img, points = get(rec, view)
            rng = substream(seed, "patch", rec.exam_id, view, rnd)
            for _ in range(ATTEMPTS_PER_ROUND):
                sample, reason = sample_patch(
                    img, points, rng, cfg, kind, f"{rec.exam_id}_{view}")
                stats[reason] += 1
                if sample is None:
                    continue
                cls = PATCH_CLASSES[sample.label]
                if len(pools[cls]) < targets[cls]:
                    pools[cls].append(sample)
    return pools, stats


# ---------------------------------------------------------------------------
# patch cache file

def save_patch_cache(path, samples):
    """Concatenated records: u32 class, u32 side (rounded), f32 pixels."""
    with open(path, "wb") as f:
        for s in samples:
            f.write(struct.pack("<II", s.label, int(round(s.side))))
            f.write(np.ascontiguousarray(s.pixels, dtype="<f4").tobytes())


def load_patch_cache(path, patch_size):
    r = Reader(path)
    samples = []
    while r.off < len(r.blob):
        label, side = r.unpack("<II", "patch record")
        if label >= len(PATCH_CLASSES):
            r.fail(f"label {label} is not a patch class index", at=r.off - 8)
        pixels = r.array("<f4", (patch_size, patch_size), "patch pixels")
        samples.append(PatchSample(pixels=pixels.copy(), label=label,
                                   source_id="cache", center=(0, 0),
                                   side=float(side), angle=0.0))
    return samples


# ---------------------------------------------------------------------------
# the classifier

class PatchNet(Module):
    """Compact 6-layer convnet (4 conv + 2 fc) over single-channel patches."""

    def __init__(self, patch_size, seed=0):
        super().__init__()
        rng = substream(seed, "patchnet-init")
        self.patch_size = patch_size
        # full-resolution first layer: fine speck/margin structure must be
        # seen before any downsampling
        self.conv1 = Conv2d(1, 8, 3, stride=1, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(8)
        self.conv2 = Conv2d(8, 16, 3, stride=2, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(16)
        self.conv3 = Conv2d(16, 32, 3, stride=1, padding=1, rng=rng)
        self.bn3 = BatchNorm2d(32)
        self.conv4 = Conv2d(32, 64, 3, stride=1, padding=1, rng=rng)
        self.bn4 = BatchNorm2d(64)
        self.fc1 = Linear(64, 32, rng=rng)
        self.fc2 = Linear(32, 4, rng=rng)

    def forward(self, x):
        h = T.relu(conv_bn(self.conv1, self.bn1, x))
        h = T.relu(conv_bn(self.conv2, self.bn2, h))
        h = T.maxpool2d(h)
        h = T.relu(conv_bn(self.conv3, self.bn3, h))
        h = T.maxpool2d(h)
        h = T.relu(conv_bn(self.conv4, self.bn4, h))
        h = T.relu(self.fc1(T.global_avgpool2d(h)))
        return self.fc2(h)

    def predict_proba(self, batch):
        """Class probabilities for a raw (N, H, W) batch."""
        arr = np.asarray(batch, dtype=np.float32)[..., None]
        was_training = self.training
        self.eval()
        logits = self.forward(T.Tensor(arr))
        probs = T.softmax(logits).data
        self.train(was_training)
        return probs


@dataclass
class PatchTrainConfig:
    epochs: int
    save_every: int
    batch_size: int
    plan_counts: tuple
    seed: int
    lr: float = KEYS["patch.lr"][1]
    weight_decay: float = KEYS["patch.l2"][1]


def train_patch_classifier(pools, out_dir, cfg: PatchTrainConfig, patch_size,
                           log=print):
    """Balanced-epoch training; saves a checkpoint every ``save_every``
    epochs (plus the final epoch when it is off-cycle).

    Returns (checkpoints, history): checkpoints as [(epoch, path)], history
    as per-epoch lists of minibatch losses. Divergence (a non-finite loss,
    or a ``NumericsError`` raised in a training step) ends the run and
    discards the diverged epoch; when no checkpoint was saved yet, the last
    completed epoch is saved. If the first epoch diverges, ``NumericsError``
    is raised: there is no state to save.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    weights = class_weights(cfg.plan_counts)
    net = PatchNet(patch_size=patch_size, seed=cfg.seed)
    checkpoints = []
    history = []
    last_good = {}

    def save(epoch):
        path = out_dir / f"patch_ep{epoch:04d}.ckpt"
        save_checkpoint(path, net.state_dict())
        checkpoints.append((epoch, path))

    def epoch_batches(epoch):
        samples = build_epoch(pools, EpochPlan(cfg.plan_counts),
                              substream(cfg.seed, "epoch", epoch))
        for start in range(0, len(samples), cfg.batch_size):
            yield samples[start:start + cfg.batch_size]

    def batch_loss(batch):
        x = np.stack([s.pixels for s in batch])[..., None]
        y = np.array([s.label for s in batch])
        return weighted_batch_cross_entropy(net(T.Tensor(x)), y, weights)

    def end_epoch(epoch, losses):
        history.append(losses)
        last_good.update({k: v.copy() for k, v in net.state_dict().items()})
        if epoch % cfg.save_every == 0:
            save(epoch)
        log(f"patch epoch {epoch}/{cfg.epochs} loss {np.mean(losses):.4f}")
        return False

    diverged = _fit(net, cfg.lr, cfg.weight_decay, cfg.epochs, epoch_batches,
                    batch_loss, end_epoch, log)
    if diverged == 1:
        raise T.NumericsError("training diverged in its first epoch")
    if diverged is None:
        if cfg.epochs % cfg.save_every != 0:
            save(cfg.epochs)
    elif not checkpoints:
        net.load_state_dict(last_good)
        save(diverged - 1)
    return checkpoints, history
