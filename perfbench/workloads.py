"""The benchmark workloads: train and infer.

Each workload builds its own seeded inputs in ``setup`` and then repeats a
fixed unit of work, a round, through the program's public entry points.
``run_round`` only does the work and times its stage boundaries; the
runner may trace it. ``check_round`` runs afterwards, untimed and
untraced, and counts every operation it verifies in ``Gates``.

Each round reports two stages (``stage1``, ``stage2``) and its wall time
(``round``):

=========  ======================================  =====================
workload   stage1                                  stage2
=========  ======================================  =====================
train      PatchNet epoch + cancer training phase  cancer validation pass
infer      ``mscope gen-heatmaps``                 ``mscope predict``
=========  ======================================  =====================

``infer``'s round then runs ``mscope evaluate`` and ``mscope reader-study``
on a manifest of its own; they count in ``round`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import shutil
from pathlib import Path
from statistics import median
from time import perf_counter as clock

import numpy as np

from mscope import checkpoint, cli, config, evaluation, heatmaps, patches
from mscope import phantom, training
from mscope.multiview import MultiViewNet
from mscope.pgm import read_pgm

from tracer import Patches

# Desk dims are the desk profile's; ``tiny`` exists for the smoke test.
SIZES = {
    "bench": {
        "dims": {},
        # 8 training exams and 54 validation exams per epoch keep the desk
        # profile's ratio of about 60 to 400.
        "train_biopsied": 4, "train_clean": 8,
        "val_biopsied": 1, "val_clean": 53,
        "pool_targets": (100, 120, 270, 270),
        "patch_plan": (23, 30, 127, 120),   # desk plan 150,200,850,800 scaled
        "patch_geometry": {},
        "patch_batch": 100,
        "max_offset": 8,
        "infer_exams": 3,
        "infer_sets": (),
        "eval_exams": 10000,
        "eval_sets": ("eval.readers=1",),
    },
    "tiny": {
        "dims": {"data.cc_height": "64", "data.cc_width": "48",
                 "data.mlo_height": "72", "data.mlo_width": "44"},
        "train_biopsied": 2, "train_clean": 4,
        "val_biopsied": 1, "val_clean": 5,
        "pool_targets": (20, 20, 40, 40),
        "patch_plan": (10, 10, 20, 20),
        "patch_geometry": {"patch_size": 16, "side_min": 8.0, "side_max": 24.0},
        "patch_batch": 20,
        "max_offset": 2,
        "infer_exams": 1,
        "infer_sets": ("patch.size=16", "heatmap.stride=8",
                       "train.tta_samples=2", "train.max_offset=2"),
        "eval_exams": 2000,
        "eval_sets": ("eval.readers=3", "eval.reader_auc_low=0.75",
                      "eval.reader_auc_high=0.8", "eval.reader_biopsied=0",
                      "eval.reader_clean=0"),
    },
}

# Enough biopsied test exams (about 600 of 2,000) for the paper profile's
# 368 + 372 exam reader study (1,480 breasts) on a manifest small enough to
# build three times per run; the paper's 2.5% would need about 100,000 exams.
EVAL_BIOPSIED_FRACTION = 0.3


class Gates:
    """Operations attempted and failed; an operation fails if it raises or
    fails its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def _sets(pairs):
    return [arg for kv in pairs for arg in ("--set", kv)]


def _overrides(pairs):
    return dict(kv.split("=", 1) for kv in pairs)


def _digest(paths, extra=()):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    for blob in extra:
        h.update(blob)
    return h.hexdigest()


def _in_unit_interval(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return bool(np.isfinite(arr).all() and (arr >= 0).all() and (arr <= 1).all())


def _is_biopsied(spec):
    return bool(spec.left.biopsied or spec.right.biopsied)


def _desk_dataset_config(size):
    return config.resolve(overrides=dict(size["dims"])).dataset_config()


def _render(specs, dcfg, seed, out_dir):
    """Run ``phantom.generate_dataset`` on a chosen subset of a population."""
    shutil.rmtree(out_dir, ignore_errors=True)
    undo = Patches()
    undo.set(phantom, "build_population", lambda _config, _seed: specs)
    try:
        return phantom.generate_dataset(dcfg, seed, out_dir)
    finally:
        undo.restore()


def _quiet(log_path):
    """Send the program's own prints to a log file, keeping stdout for the
    benchmark's result."""
    stack = contextlib.ExitStack()
    f = stack.enter_context(open(log_path, "a"))
    stack.enter_context(contextlib.redirect_stdout(f))
    stack.enter_context(contextlib.redirect_stderr(f))
    return stack


def mann_whitney_auc(scores, labels):
    """Reference ROC AUC by midranks in O(n log n), independent of
    ``evaluation.roc_auc``."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    return (ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class Workload:
    name = ""

    def __init__(self, size, seed, work, gates):
        self.size = size
        self.seed = seed
        self.work = Path(work)
        self.gates = gates
        self.digests = []
        self.pool_accept_ratio = 0.0
        self.log = self.work / "program.log"

    def prepare(self):
        """Seeded inputs and models; traced in a traced run."""
        raise NotImplementedError

    def warm_up(self):
        """Work of the round's shapes, so caches fill before timing."""
        raise NotImplementedError

    def run_round(self):
        raise NotImplementedError

    def check_round(self, result):
        raise NotImplementedError

    def named_metrics(self, rounds):
        raise NotImplementedError

    def _record_digest(self, digest):
        """Every round does the same work, so every round's outputs must be
        byte-identical to the first round's."""
        if self.digests:
            self.gates.check(digest == self.digests[0],
                             f"{self.name}: round outputs differ from round 1")
        self.digests.append(digest)


def _discard(*_):
    pass


class TrainWorkload(Workload):
    """PatchNet epochs, then view_wise cancer-model epochs at desk dims."""

    name = "train"

    def prepare(self):
        size, seed = self.size, self.seed
        dcfg = _desk_dataset_config(size)
        specs = phantom.build_population(dcfg, seed)
        train = [s for s in specs if s.split == "train"]
        val = [s for s in specs if s.split == "val"]
        # Patch pools need a malignant and a benign lesion that is drawn,
        # so the training exams start with one of each.
        drawn = [s for s in train if _is_biopsied(s)
                 and not (s.left.occult or s.right.occult)]
        first_mal = next(s for s in drawn
                         if s.left.malignant or s.right.malignant)
        first_ben = next(s for s in drawn if not (s.left.malignant
                                                  or s.right.malignant))
        rest = [s for s in train if _is_biopsied(s)
                and s.exam_id not in (first_mal.exam_id, first_ben.exam_id)]
        chosen = [first_mal, first_ben] + rest[:size["train_biopsied"] - 2]
        chosen += [s for s in train if not _is_biopsied(s)][:size["train_clean"]]
        chosen += [s for s in val if _is_biopsied(s)][:size["val_biopsied"]]
        chosen += [s for s in val if not _is_biopsied(s)][:size["val_clean"]]
        chosen.sort(key=lambda s: s.exam_id)

        self.data = self.work / "data"
        self.records = _render(chosen, dcfg, seed, self.data)
        n_val = sum(1 for r in self.records if r.split == "val")
        if n_val != size["val_biopsied"] + size["val_clean"]:
            raise RuntimeError(f"population has only {n_val} validation exams")

        pcfg = patches.PatchConfig(**size["patch_geometry"])
        self.pools, stats = patches.build_patch_pools(
            self.records, self.data, pcfg, size["pool_targets"], seed=seed)
        self.pool_accept_ratio = stats["ok"] / sum(stats.values())
        self.patch_size = pcfg.patch_size
        self.patch_cfg = patches.PatchTrainConfig(
            epochs=1, save_every=1, batch_size=size["patch_batch"],
            lr=5e-4, weight_decay=10 ** -4.5, plan_counts=size["patch_plan"],
            seed=seed)
        desk = config.resolve(overrides=dict(size["dims"]))
        # patience above the epoch count: every round does the same work
        self.cancer_cfg = training.TrainRunConfig(
            lr=desk["train.lr"], batch_size=desk["train.batch_size"],
            l2=desk["train.l2"], patience=2, max_epochs=1, seed=seed,
            max_offset=size["max_offset"],
            variant="view_wise", input_channels=1)

    def warm_up(self):
        """One patch batch, one cancer step and one validation batch."""
        def pick(split, biopsied, n):
            return [r for r in self.records if r.split == split and
                    bool(r.left_biopsied or r.right_biopsied) == biopsied][:n]
        warm_recs = pick("train", True, 2) + pick("train", False, 2) + \
            pick("val", True, 1) + pick("val", False, 7)
        warm_patch = patches.PatchTrainConfig(
            epochs=1, save_every=1, batch_size=self.size["patch_batch"],
            plan_counts=tuple(max(1, c // 3) for c in self.size["patch_plan"]),
            seed=self.seed)
        with _quiet(self.log):
            patches.train_patch_classifier(self.pools, self.work / "warm",
                                           warm_patch, self.patch_size,
                                           log=_discard)
            training.train_cancer_model(warm_recs, self.data, self.cancer_cfg,
                                        log=_discard)

    def run_round(self):
        marks = {}
        undo = Patches()
        subsample, predict = training.subsample_epoch, training.predict_exams

        def epoch_start(*args, **kwargs):
            marks["epoch_start"] = clock()
            ids = subsample(*args, **kwargs)
            marks["train_exams"] = len(ids)
            return ids

        def validation(*args, **kwargs):
            t0 = clock()
            probs = predict(*args, **kwargs)
            marks["val"] = (t0, clock())
            marks["val_probs"] = probs
            return probs

        undo.set(training, "subsample_epoch", epoch_start)
        undo.set(training, "predict_exams", validation)
        try:
            with _quiet(self.log):
                t0 = clock()
                ckpts, history = patches.train_patch_classifier(
                    self.pools, self.work / "patch", self.patch_cfg,
                    self.patch_size, log=_discard)
                t1 = clock()
                net, rows, _ = training.train_cancer_model(
                    self.records, self.data, self.cancer_cfg, log=_discard)
                t2 = clock()
        finally:
            undo.restore()
        val0, val1 = marks["val"]
        train_phase = val0 - marks["epoch_start"]
        return {
            "round": t2 - t0, "stage1": (t1 - t0) + train_phase,
            "stage2": val1 - val0,
            "patch_s": t1 - t0, "train_phase_s": train_phase,
            "val_s": val1 - val0, "epoch_s": t2 - marks["epoch_start"],
            "train_exams": marks["train_exams"],
            "val_exams": len(marks["val_probs"]),
            "patches": sum(self.patch_cfg.plan_counts),
            "_history": history, "_rows": rows, "_ckpts": ckpts,
            "_val_probs": marks["val_probs"], "_net": net,
        }

    def check_round(self, r):
        g = self.gates
        batch = self.patch_cfg.batch_size
        patch_steps = math.ceil(r["patches"] / batch)
        losses = r["_history"][0] if r["_history"] else []
        for i in range(patch_steps):
            g.check(i < len(losses) and math.isfinite(losses[i]),
                    f"train: patch step {i + 1} loss not finite")
        steps = math.ceil(r["train_exams"] / self.cancer_cfg.batch_size)
        train_losses = [row[4] for row in r["_rows"] if row[1] == "train"]
        epoch_ok = bool(train_losses) and all(math.isfinite(x) for x in train_losses)
        for i in range(steps):
            g.check(epoch_ok, f"train: cancer step {i + 1} loss not finite")
        n_val = sum(1 for rec in self.records if rec.split == "val")
        probs = r["_val_probs"]
        g.check(probs.shape == (n_val, 4) and _in_unit_interval(probs),
                "train: validation probabilities malformed")
        state = r["_net"].state_dict()
        blobs = [state[k].tobytes() for k in sorted(state)] + [probs.tobytes()]
        self._record_digest(_digest([p for _, p in r["_ckpts"]], blobs))

    def named_metrics(self, rounds):
        return {
            "train_exams_per_s": (median([r["train_exams"] / r["train_phase_s"]
                                           for r in rounds]), "exams/s"),
            "val_exams_per_s": (median([r["val_exams"] / r["val_s"]
                                         for r in rounds]), "exams/s"),
            "epoch_s": (median([r["epoch_s"] for r in rounds]), "s"),
            "patch_train_patches_per_s": (median([r["patches"] / r["patch_s"]
                                                   for r in rounds]), "patches/s"),
        }


class InferWorkload(Workload):
    """gen-heatmaps with an untrained PatchNet, then TTA predict with an
    untrained image-and-heatmaps view_wise model, then evaluate and
    reader-study on a manifest with no images rendered."""

    name = "infer"

    def prepare(self):
        size, seed = self.size, self.seed
        dcfg = _desk_dataset_config(size)
        specs = phantom.build_population(dcfg, seed)
        test = [s for s in specs if s.split == "test"][:size["infer_exams"] + 1]
        self.data = self.work / "data"
        self.records = _render(test[1:], dcfg, seed, self.data)
        self.warm_data = self.work / "warm_data"
        _render(test[:1], dcfg, seed, self.warm_data)

        cfg = config.resolve(overrides={**size["dims"],
                                        **_overrides(size["infer_sets"]),
                                        "model.input_channels": "3"})
        self.ckpt = self.work / "patch.ckpt"
        checkpoint.save_checkpoint(
            self.ckpt, patches.PatchNet(cfg["patch.size"], seed=seed).state_dict())
        self.run_dir = self.work / "run"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        net = MultiViewNet("view_wise", input_channels=3, task="cancer", seed=seed)
        checkpoint.save_checkpoint(self.run_dir / "best.ckpt", net.state_dict())
        cfg.dump(self.run_dir / "config.txt")

        self.heatmaps = self.work / "heatmaps"
        self.preds = self.work / "predict"
        self._prepare_evaluation()

    def _prepare_evaluation(self):
        size, seed = self.size, self.seed
        dcfg = config.resolve(overrides={
            "profile": "paper", "data.exams": str(size["eval_exams"]),
            "data.biopsied_fraction": str(EVAL_BIOPSIED_FRACTION)}).dataset_config()
        specs = phantom.build_population(dcfg, seed)
        records = []
        for s in specs:
            rec = phantom.ExamRecord(
                exam_id=s.exam_id, patient_id=s.patient_id, split=s.split,
                age_band=s.age_band, density=s.density,
                left_benign=s.left.benign, left_malignant=s.left.malignant,
                right_benign=s.right.benign, right_malignant=s.right.malignant,
                left_biopsied=s.left.biopsied, right_biopsied=s.right.biopsied,
                left_occult=s.left.occult, right_occult=s.right.occult,
                birads=0, view_paths={v: f"images/{s.exam_id}_{v}.pgm"
                                      for v in phantom.VIEWS})
            rec.birads = phantom.assign_birads(rec, None)
            records.append(rec)
        self.eval_data = self.work / "eval_data"
        self.eval_data.mkdir(parents=True, exist_ok=True)
        phantom.write_manifest(self.eval_data / "manifest.csv", records)

        # Predictions in the model's output form: sigmoids of seeded logits
        # that separate the classes, written with 6 decimals as predict does.
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        preds = []
        self.truth = []   # (p_malignant, p_benign, malignant, benign, biopsied)
        for rec in records:
            if rec.split != "test":
                continue
            for side in ("L", "R"):
                benign, malignant = rec.labels(side)
                z_mal = rng.normal(-4.0 + 3.0 * malignant, 1.5)
                z_ben = rng.normal(-3.5 + 2.5 * benign, 1.5)
                p_mal = float(f"{1.0 / (1.0 + math.exp(-z_mal)):.6f}")
                p_ben = float(f"{1.0 / (1.0 + math.exp(-z_ben)):.6f}")
                preds.append(evaluation.PredictionRecord(
                    rec.exam_id, side, p_mal, p_ben, "bench"))
                self.truth.append((p_mal, p_ben, malignant, benign,
                                   rec.biopsied(side)))
        self.eval_preds = self.work / "eval_predictions.csv"
        evaluation.write_predictions(self.eval_preds, preds)
        self.eval_out = self.work / "evaluate"
        self.reader_out = self.work / "reader_study"

    def warm_up(self):
        """Both subcommands on one other exam."""
        with _quiet(self.log):
            self._both(self.warm_data, self.work / "warm_heatmaps",
                       self.work / "warm_predict")

    def _both(self, data, heatmap_dir, pred_dir):
        common = ["--data", str(data), "--force", "--seed", str(self.seed),
                  "--jobs", "1"] + _sets(self.size["infer_sets"])
        t0 = clock()
        rc_heat = cli.main(["gen-heatmaps", "--checkpoint", str(self.ckpt),
                            "--out", str(heatmap_dir)] + common)
        t1 = clock()
        rc_pred = cli.main(["predict", "--run", str(self.run_dir), "--heatmaps",
                            str(heatmap_dir), "--out", str(pred_dir)] + common)
        t2 = clock()
        return rc_heat, rc_pred, t0, t1, t2

    def _eval_args(self, command, out):
        return [command, "--profile", "paper", "--data", str(self.eval_data),
                "--predictions", str(self.eval_preds), "--out", str(out),
                "--force", "--seed", str(self.seed)] + _sets(self.size["eval_sets"])

    def run_round(self):
        with _quiet(self.log):
            rc_heat, rc_pred, t0, t1, t2 = self._both(self.data, self.heatmaps,
                                                     self.preds)
            rc_eval = cli.main(self._eval_args("evaluate", self.eval_out))
            t3 = clock()
            rc_reader = cli.main(self._eval_args("reader-study", self.reader_out))
            t4 = clock()
        return {"round": t4 - t0, "stage1": t1 - t0, "stage2": t2 - t1,
                "evaluate_s": t3 - t2, "reader_study_s": t4 - t3,
                "exams": len(self.records), "rc_heat": rc_heat,
                "rc_pred": rc_pred, "rc_eval": rc_eval, "rc_reader": rc_reader}

    def check_round(self, r):
        g = self.gates
        g.check(r["rc_heat"] == 0, f"infer: gen-heatmaps exit {r['rc_heat']}")
        g.check(r["rc_pred"] == 0, f"infer: predict exit {r['rc_pred']}")
        files = []
        for rec in self.records:
            for view in phantom.VIEWS:
                path = self.heatmaps / f"{rec.exam_id}_{view}.mshm"
                files.append(path)
                try:
                    dims = read_pgm(phantom.image_path(self.data, rec, view)).shape
                    mal, ben = heatmaps.load_heatmap(path)
                    ok = mal.shape == dims and ben.shape == dims \
                        and _in_unit_interval(mal) and _in_unit_interval(ben)
                except (OSError, ValueError):
                    ok = False
                g.check(ok, f"infer: heatmap {path.name} malformed")
        pred_path = self.preds / "predictions.csv"
        try:
            rows = evaluation.read_predictions(pred_path)
        except (OSError, ValueError):
            rows = []
        g.check(bool(rows), "infer: predict wrote no rows")
        by_exam = {}
        for p in rows:
            by_exam.setdefault(p.exam_id, []).append(p)
        for rec in self.records:
            got = by_exam.get(rec.exam_id, [])
            ok = sorted(p.side for p in got) == ["L", "R"] and _in_unit_interval(
                [v for p in got for v in (p.p_malignant, p.p_benign)])
            g.check(ok, f"infer: predictions for {rec.exam_id} malformed")
        files = [pred_path] + files + self._check_evaluation(r)
        if all(p.exists() for p in files):
            self._record_digest(_digest(files))

    def _check_evaluation(self, r):
        """The gates of evaluate and reader-study; returns their outputs."""
        g = self.gates
        g.check(r["rc_eval"] == 0, f"evaluate: exit {r['rc_eval']}")
        metrics = {}
        path = self.eval_out / "metrics.csv"
        if path.exists():
            for line in path.read_text().splitlines()[1:]:
                model, pop, task, metric, value = line.split(",")
                metrics[(pop, task, metric)] = float(value)
        g.check(bool(metrics), "evaluate: metrics.csv has no rows")
        truth = np.array(self.truth, dtype=np.float64)
        for pop, task in (("screening", "malignant"), ("screening", "benign"),
                          ("biopsied", "malignant")):
            rows = truth if pop == "screening" else truth[truth[:, 4] == 1]
            scores = rows[:, 0] if task == "malignant" else rows[:, 1]
            labels = (rows[:, 2] if task == "malignant" else rows[:, 3]).astype(int)
            ref = mann_whitney_auc(scores, labels)
            got = metrics.get((pop, task, "auc"))
            ok = got is not None and abs(got - ref) <= 5e-7 + 1e-12 and \
                abs(evaluation.roc_auc(scores, labels) - ref) <= 1e-9
            g.check(ok, f"evaluate: {pop} {task} AUC {got} != reference {ref:.9f}")

        g.check(r["rc_reader"] == 0, f"reader-study: exit {r['rc_reader']}")
        n_readers = config.resolve(overrides={
            "profile": "paper",
            **_overrides(self.size["eval_sets"])})["eval.readers"]
        reader_csv = self.reader_out / "reader_metrics.csv"
        sweep_csv = self.reader_out / "sweep.csv"
        try:
            reader_rows = reader_csv.read_text().splitlines()[1:]
            sweep_rows = sweep_csv.read_text().splitlines()[1:]
            values = [float(v) for row in sweep_rows for v in row.split(",")[2:]]
            ok = len(reader_rows) == n_readers and \
                len(sweep_rows) == 100 * n_readers and _in_unit_interval(values)
        except (OSError, ValueError):
            ok = False
        g.check(ok, "reader-study: reader_metrics.csv or sweep.csv malformed")
        return [path, reader_csv, sweep_csv]

    def named_metrics(self, rounds):
        return {
            "heatmap_exams_per_s": (median([r["exams"] / r["stage1"]
                                             for r in rounds]), "exams/s"),
            "predict_exams_per_s": (median([r["exams"] / r["stage2"]
                                             for r in rounds]), "exams/s"),
            "evaluate_s": (median([r["evaluate_s"] for r in rounds]), "s"),
            "reader_study_s": (median([r["reader_study_s"] for r in rounds]),
                               "s"),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, InferWorkload)}
