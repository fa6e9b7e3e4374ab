"""Patch extraction, class balancing, and the patch-level classifier.

Square windows are sampled with random center, side, and rotation, then
resampled (bilinear) to a fixed patch size. A window's class comes from
which lesion masks it overlaps: only-malignant, only-benign, none on a
segmented image ("outside"), or drawn from an exam with no biopsied
findings at all ("negative"). Windows touching both mask classes are
rejected outright, as are windows leaving the image or containing only
zero-valued pixels.

The pools are two class-major arrays, ``(pixels, labels)``: (N, p, p)
float32 windows and their (N,) uint8 indices into ``PATCH_CLASSES``. An
epoch is an index order into them. The patch cache is a ``formats``
container under "MSPC" holding them as the arrays ``pixels`` and
``labels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint
from .config import KEYS, ConfigError
from .formats import Reader, save_arrays
from .layers import BatchNorm2d, Conv2d, Linear, Module, conv_bn
from .optim import _fit, weighted_batch_cross_entropy
from .phantom import VIEWS, load_image, mask_points
from .seeding import substream

PATCH_CLASSES = ("malignant", "benign", "outside", "negative")
# pool sampling: draws per source image and round, and the round budget
ATTEMPTS_PER_ROUND = 6
MAX_ROUNDS = 400
CACHE_MAGIC = b"MSPC"
CACHE_ARRAYS = ("pixels", "labels")


@dataclass
class PatchConfig:
    patch_size: int = KEYS["patch.size"][1]
    side_min: float = KEYS["patch.side_min"][1]
    side_max: float = KEYS["patch.side_max"][1]
    max_angle: float = KEYS["patch.max_angle"][1]   # degrees


class EmptyPoolError(ValueError):
    """An epoch asks for patches of a class whose pool holds none."""


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


def sample_patch(image, mask_points, rng, cfg: PatchConfig, source_kind):
    """Draw one window; returns ("ok", label, pixels) or (reason, None,
    None).

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
            return "outside_image", None, None

    overlaps = {}
    for malignancy, (ys, xs) in mask_points.items():
        overlaps[malignancy] = bool(
            len(ys) and _points_in_window(ys, xs, (cy, cx), side, rad).any())
    if overlaps.get("malignant") and overlaps.get("benign"):
        return "mixed_classes", None, None

    pixels = _extract_window(image, (cy, cx), side, rad, cfg.patch_size)
    if pixels.max() <= 0:
        return "all_zero", None, None

    if overlaps.get("malignant"):
        label = 0
    elif overlaps.get("benign"):
        label = 1
    elif source_kind == "segmented":
        label = 2
    else:
        label = 3
    return "ok", label, pixels


def _extract_window(image, center, side, angle_rad, patch_size):
    from .resample import bilinear_sample
    offs = (np.arange(patch_size) + 0.5) / patch_size * side - side / 2.0
    vy, vx = np.meshgrid(offs, offs, indexing="ij")
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    ys = center[0] + vy * c - vx * s
    xs = center[1] + vy * s + vx * c
    return bilinear_sample(image, ys, xs)


def build_epoch(labels, counts, rng):
    """An epoch's order of pool indices: ``counts[c]`` windows of each
    class ``c`` drawn from the pool labels, then shuffled.

    A class is drawn without replacement when its pool is large enough,
    with replacement otherwise; a class with no windows to draw from
    raises ``EmptyPoolError``.
    """
    chosen = []
    for ci, (cls, count) in enumerate(zip(PATCH_CLASSES, counts)):
        if count == 0:
            continue
        pool = np.flatnonzero(labels == ci)
        if not len(pool):
            raise EmptyPoolError(f"no {cls} patches to draw {count} from: "
                                 f"no training image or cache gave one")
        chosen.append(pool[rng.choice(len(pool), size=count,
                                      replace=len(pool) < count)])
    chosen = np.concatenate(chosen)
    return chosen[rng.permutation(len(chosen))]


# ---------------------------------------------------------------------------
# pool construction from a dataset

def eligible_images(records, data_dir):
    """Classify train-split images into patch sources.

    Returns (segmented, negative): lists of (record, view, points), with
    ``points`` the view's ``phantom.mask_points``. A view image is
    "segmented" when its breast carries at least one rendered mask;
    "negative" images come from exams without any biopsied breast, and
    their points are empty.
    """
    segmented, negative = [], []
    for rec in records:
        if rec.split != "train":
            continue
        for view in VIEWS:
            if not rec.any_biopsied:
                negative.append((rec, view, {}))
                continue
            points = mask_points(data_dir, rec, view)
            if any(len(ys) for ys, _ in points.values()):
                segmented.append((rec, view, points))
    return segmented, negative


def train_split_classes(records):
    """Whether the train split can give each of ``PATCH_CLASSES``, read
    from the records alone: a malignant or benign window needs a breast
    with that finding drawn (not occult), an outside window the images of
    such a breast, a negative window an exam with no biopsied breast."""
    train = [rec for rec in records if rec.split == "train"]
    drawn = [rec.labels(side) for rec in train for side, occult in
             (("L", rec.left_occult), ("R", rec.right_occult)) if not occult]
    malignant = any(m for _, m in drawn)
    benign = any(b for b, _ in drawn)
    return [malignant, benign, malignant or benign,
            any(not rec.any_biopsied for rec in train)]


def build_patch_pools(records, data_dir, cfg: PatchConfig, targets, seed):
    """Sample until each class pool reaches its target (or ``MAX_ROUNDS``
    rounds of ``ATTEMPTS_PER_ROUND`` draws per source image run out).

    Returns (pools, stats) where stats counts accepted/rejected draws by
    reason; a class short of its target keeps what it got, possibly none.
    Deterministic in (records order, seed). Pools too large to allocate
    raise ``ConfigError``.
    """
    p = cfg.patch_size
    try:
        pixels = np.empty((sum(targets), p, p), dtype=np.float32)
    except (MemoryError, ValueError) as exc:    # ValueError: 2**63 bytes up
        raise ConfigError(
            f"patch.pool_targets={','.join(map(str, targets))} at "
            f"patch.size={p} ask for {sum(targets) * p * p * 4} bytes of "
            "patch pools: more than can be allocated") from exc
    segmented, negative = eligible_images(records, data_dir)
    starts = np.cumsum(targets) - targets
    filled = [0] * len(PATCH_CLASSES)
    stats = {"ok": 0, "outside_image": 0, "all_zero": 0, "mixed_classes": 0}

    cache = {}

    def image(rec, view):
        key = (rec.exam_id, view)
        if key not in cache:
            if len(cache) > 64:
                cache.clear()
            cache[key] = load_image(data_dir, rec, view)
        return cache[key]

    for rnd in range(MAX_ROUNDS):
        unmet = {c for c, n, t in zip(PATCH_CLASSES, filled, targets)
                 if n < t}
        sources = []
        if unmet & {"malignant", "benign", "outside"}:
            sources.extend(("segmented", rv) for rv in segmented)
        if "negative" in unmet:
            sources.extend(("negative", rv) for rv in negative)
        if not sources:
            break
        for kind, (rec, view, points) in sources:
            img = image(rec, view)
            rng = substream(seed, "patch", rec.exam_id, view, rnd)
            for _ in range(ATTEMPTS_PER_ROUND):
                reason, label, window = sample_patch(img, points, rng, cfg,
                                                     kind)
                stats[reason] += 1
                if window is not None and filled[label] < targets[label]:
                    pixels[starts[label] + filled[label]] = window
                    filled[label] += 1

    # close the gaps a class left short of its target, in place
    n = 0
    for start, count in zip(starts, filled):
        if start != n:
            pixels[n:n + count] = pixels[start:start + count]
        n += count
    labels = np.repeat(np.arange(len(PATCH_CLASSES), dtype=np.uint8), filled)
    return (pixels[:n], labels), stats


# ---------------------------------------------------------------------------
# patch cache file

def save_patch_cache(path, pools):
    save_arrays(path, CACHE_MAGIC, dict(zip(CACHE_ARRAYS, pools)))


def load_patch_cache(path, patch_size):
    """The pools a cache holds, the pixels as a read-only view. A cache
    written at another patch size raises ``FormatError``."""
    r = Reader(path)
    pixels, labels = r.arrays(CACHE_MAGIC, CACHE_ARRAYS).values()
    if pixels.ndim != 3 or pixels.shape[1] != pixels.shape[2] or \
            labels.shape != pixels.shape[:1]:
        r.fail(f"patch pixels {pixels.shape} and labels {labels.shape} are "
               "not (N, p, p) and (N,)", at=r.payload["pixels"])
    p = pixels.shape[1]
    if p != patch_size:
        r.fail(f"patches are {p}x{p}, but patch.size is {patch_size}",
               at=r.payload["pixels"])
    bad = np.flatnonzero(~np.isin(labels, np.arange(len(PATCH_CLASSES))))
    if len(bad):
        r.fail(f"label {labels[bad[0]]:g} is not a patch class index",
               at=r.payload["labels"] + 4 * bad[0])
    return pixels, labels.astype(np.uint8)


# ---------------------------------------------------------------------------
# the classifier

# the smallest patch side PatchNet maps to a non-empty feature map: its
# stride-2 conv and two 2x2 pools leave ceil(7 / 2) // 2 // 2 = 1 pixel
MIN_PATCH = 7


class PatchNet(Module):
    """Compact 6-layer convnet (4 conv + 2 fc) over single-channel patches;
    a ``seed`` of None leaves it unfilled (``layers.he_normal``)."""

    def __init__(self, patch_size, seed):
        super().__init__()
        rng = None if seed is None else substream(seed, "patchnet-init")
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
        h = conv_bn(self.conv1, self.bn1, x, relu=True)
        h = conv_bn(self.conv2, self.bn2, h, relu=True)
        h = T.maxpool2d(h)
        h = conv_bn(self.conv3, self.bn3, h, relu=True)
        h = T.maxpool2d(h)
        h = conv_bn(self.conv4, self.bn4, h, relu=True)
        h = T.relu(self.fc1(T.global_avgpool2d(h)))
        return self.fc2(h)

    def predict_proba(self, batch):
        """Class probabilities for a raw (N, H, W) batch from an eval-mode
        net, which the call only reads: threads may share it."""
        if self.training:
            raise T.GraphError("predict_proba needs an eval-mode PatchNet")
        arr = np.asarray(batch, dtype=np.float32)[..., None]
        return T.softmax(self.forward(T.Tensor(arr))).data


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
    completed epoch is saved. If the first epoch diverges, ``_fit`` raises
    ``NumericsError``: there is no state to save.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pixels, labels = pools
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
        order = build_epoch(labels, cfg.plan_counts,
                            substream(cfg.seed, "epoch", epoch))
        for start in range(0, len(order), cfg.batch_size):
            yield order[start:start + cfg.batch_size]

    def batch_loss(idx):
        x = pixels[idx][..., None]
        return weighted_batch_cross_entropy(net(T.Tensor(x)), labels[idx],
                                            weights)

    def end_epoch(epoch, losses):
        history.append(losses)
        last_good.update({k: v.copy() for k, v in net.state_dict().items()})
        if epoch % cfg.save_every == 0:
            save(epoch)
        log(f"patch epoch {epoch}/{cfg.epochs} loss {np.mean(losses):.4f}")
        return False

    diverged = _fit(net, cfg.lr, cfg.weight_decay, cfg.epochs, epoch_batches,
                    batch_loss, end_epoch, log)
    if diverged is None:
        if cfg.epochs % cfg.save_every != 0:
            save(cfg.epochs)
    elif not checkpoints:
        net.load_state_dict(last_good)
        save(diverged - 1)
    return checkpoints, history
