"""Flat key=value run configuration.

Two named profiles carry the default constant sets: ``desk`` (scaled-down
images, shorter schedules, everything runnable on CPU in minutes) and
``paper`` (full-scale constants). A config file overrides profile
defaults; command-line ``--set key=value`` flags override the file.
Unknown keys and out-of-range values (a negative count, a share outside
[0, 1], a ``patch.size`` below ``patches.MIN_PATCH``, ``heatmap.stride``
above ``patch.size``, and the low end of a range in ``_ORDERED`` above
its high end, such as ``patch.side_min`` above ``patch.side_max``, among
them) are rejected, naming the keys;
so is a config file that is not UTF-8. Every run directory receives the
fully resolved config.

``KEYS`` is the only home of a default value. Each stage's record
(``phantom.DatasetConfig``, ``patches.PatchConfig`` and
``PatchTrainConfig``, ``training.TrainRunConfig``) is built in one place
from a resolved config; the few record fields that keep a default read
their desk value from ``KEYS``.
"""

from __future__ import annotations

from pathlib import Path


class ConfigError(ValueError):
    pass


# key -> (parser, desk default, paper default)
KEYS = {
    "profile": (str, "desk", "paper"),

    "data.exams": (int, 2000, 229426),
    "data.cc_height": (int, 224, 2677),
    "data.cc_width": (int, 162, 1942),
    "data.mlo_height": (int, 248, 2974),
    "data.mlo_width": (int, 146, 1748),
    "data.biopsied_fraction": (float, 0.025, 0.025),
    "data.malignant_fraction": (float, 0.17, 0.17),
    "data.both_fraction": (float, 0.02, 0.02),
    "data.bilateral_fraction": (float, 0.08, 0.08),
    "data.occult_fraction": (float, 0.328, 0.328),
    "data.split_train": (float, 0.6, 0.6),
    "data.split_val": (float, 0.2, 0.2),
    "data.split_test": (float, 0.2, 0.2),
    "data.multi_exam_fraction": (float, 0.05, 0.05),
    "data.birads_noise": (float, 0.1, 0.1),
    "data.lesion_min_frac": (float, 0.075, 0.075),
    "data.lesion_max_frac": (float, 0.150, 0.150),
    "data.density_coupling": (float, 0.2, 0.2),

    "patch.size": (int, 64, 256),
    "patch.side_min": (float, 32.0, 128.0),
    "patch.side_max": (float, 96.0, 384.0),
    "patch.max_angle": (float, 30.0, 30.0),
    "patch.plan": (str, "150,200,850,800", "20,35,5000,4945"),
    "patch.pool_targets": (str, "600,800,1800,1800",
                           "50000,80000,2500000,2400000"),
    "patch.epochs": (int, 20, 2000),
    "patch.save_every": (int, 5, 200),
    "patch.batch_size": (int, 100, 100),
    "patch.lr": (float, 5e-4, 1e-5),
    "patch.l2": (float, 10 ** -4.5, 10 ** -4.5),
    "patch.select_exams": (int, 48, 0),     # 0 = full validation split

    "heatmap.stride": (int, 18, 70),

    "model.variant": (str, "view_wise", "view_wise"),
    "model.input_channels": (int, 1, 1),

    "train.lr": (float, 2e-4, 1e-5),
    "train.batch_size": (int, 4, 4),
    "train.birads_batch_size": (int, 24, 24),
    "train.l2": (float, 10 ** -4.5, 10 ** -4.5),
    "train.patience": (int, 20, 20),
    "train.max_epochs": (int, 60, 1000),
    "train.max_offset": (int, 8, 100),
    "train.tta_samples": (int, 10, 10),
    "train.ensemble_size": (int, 5, 5),
    "train.epoch_exams": (int, 0, 0),        # 0 = all subsampled exams
    "train.val_exams": (int, 0, 0),          # 0 = full validation split
    "train.birads_epoch_exams": (int, 0, 0),

    "eval.population": (str, "all", "all"),
    "eval.readers": (int, 14, 14),
    "eval.reader_auc_low": (float, 0.705, 0.705),
    "eval.reader_auc_high": (float, 0.860, 0.860),
    "eval.reader_biopsied": (int, 0, 368),   # 0 = every biopsied test exam
    "eval.reader_clean": (int, 0, 372),      # 0 = match the biopsied count
    "eval.hybrid_lambda": (float, 0.5, 0.5),
}

PROFILES = ("desk", "paper")

# keys that count something which must happen at least once
_AT_LEAST_ONE = ("patch.epochs", "patch.save_every", "patch.batch_size",
                 "heatmap.stride", "train.batch_size",
                 "train.birads_batch_size", "train.patience",
                 "train.tta_samples", "train.ensemble_size", "eval.readers")
# keys that hold one count per patch class
_CLASS_COUNTS = ("patch.plan", "patch.pool_targets")
# keys that hold a share of something: every float of the dataset's
_SHARES = ("eval.hybrid_lambda", *(k for k, (kind, *_) in KEYS.items()
                                  if k.startswith("data.") and kind is float))

# (low, high) keys of one range: the low end may not exceed the high end
_ORDERED = (("data.lesion_min_frac", "data.lesion_max_frac"),
            ("patch.side_min", "patch.side_max"))


def _out_of_range(key, value):
    """Why ``value`` is not a valid value of ``key``, or None if it is."""
    if key in _AT_LEAST_ONE and value < 1:
        return "must be at least 1"
    if KEYS[key][0] is int and value < 0:
        return "must be at least 0"
    if key in _SHARES and not 0.0 <= value <= 1.0:
        return "must lie in [0, 1]"
    if key == "data.birads_noise" and not 0.0 <= value < 1.0:
        return "must lie in [0, 1)"
    if key == "patch.size":
        from .patches import MIN_PATCH
        if value < MIN_PATCH:
            return f"must be at least {MIN_PATCH}, or PatchNet's map is empty"
    if key in _CLASS_COUNTS:
        from .patches import PATCH_CLASSES
        counts = value.split(",")
        if len(counts) != len(PATCH_CLASSES) or \
                not all(c.strip().isdigit() and int(c) > 0 for c in counts):
            return (f"must be {len(PATCH_CLASSES)} positive counts, one "
                    f"per class of {', '.join(PATCH_CLASSES)}")
    if key == "model.input_channels" and value not in (1, 3):
        return "must be 1, or 3 with heatmaps"
    if key == "model.variant":
        from .multiview import FUSION_VARIANTS
        if value not in FUSION_VARIANTS:
            return f"must be one of {', '.join(FUSION_VARIANTS)}"
    if key == "eval.population":
        from .evaluation import POPULATIONS
        if value != "all" and value not in POPULATIONS:
            return f"must be all or one of {', '.join(POPULATIONS)}"
    return None


class RunConfig:
    def __init__(self, values):
        self.values = values

    def __getitem__(self, key):
        return self.values[key]

    def ints(self, key):
        return tuple(int(x) for x in str(self.values[key]).split(","))

    def dataset_config(self):
        from .phantom import DatasetConfig
        v = self.values
        return DatasetConfig(
            exams=v["data.exams"],
            cc_dims=(v["data.cc_height"], v["data.cc_width"]),
            mlo_dims=(v["data.mlo_height"], v["data.mlo_width"]),
            biopsied_fraction=v["data.biopsied_fraction"],
            malignant_fraction=v["data.malignant_fraction"],
            both_fraction=v["data.both_fraction"],
            bilateral_fraction=v["data.bilateral_fraction"],
            occult_fraction=v["data.occult_fraction"],
            split_fractions=(v["data.split_train"], v["data.split_val"],
                             v["data.split_test"]),
            multi_exam_fraction=v["data.multi_exam_fraction"],
            birads_noise=v["data.birads_noise"],
            lesion_frac_range=(v["data.lesion_min_frac"],
                               v["data.lesion_max_frac"]),
            density_coupling=v["data.density_coupling"])

    def dump(self, path):
        with open(path, "w") as f:
            for key in sorted(self.values):
                f.write(f"{key}={self.values[key]}\n")


def parse_file(path):
    raw = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 at byte {exc.start}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def resolve(file_values=None, overrides=None):
    """Profile defaults <- config file <- CLI overrides, typed and
    range-checked."""
    file_values = dict(file_values or {})
    overrides = dict(overrides or {})
    merged_raw = dict(file_values)
    merged_raw.update(overrides)

    for key in merged_raw:
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")

    profile = str(merged_raw.get("profile", "desk"))
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r} (choose from {PROFILES})")
    col = 1 if profile == "desk" else 2

    values = {key: spec[col] for key, spec in KEYS.items()}
    values["profile"] = profile
    for key, raw in merged_raw.items():
        parser = KEYS[key][0]
        try:
            values[key] = parser(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
        why = _out_of_range(key, values[key])
        if why:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({why})")
    stride, size = values["heatmap.stride"], values["patch.size"]
    if stride > size:
        raise ConfigError(f"heatmap.stride={stride} exceeds patch.size={size}: "
                          "the heatmap windows would leave pixels uncovered")
    for low, high in _ORDERED:
        if values[low] > values[high]:
            raise ConfigError(f"{low}={values[low]} exceeds "
                              f"{high}={values[high]}")
    return RunConfig(values)


def load(path, overrides=None):
    file_values = parse_file(path) if path else {}
    return resolve(file_values, overrides)
