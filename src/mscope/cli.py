"""Command-line surface wiring the pipeline end to end.

Subcommands: gen-data, train-patch, gen-heatmaps, pretrain-birads,
train-cancer, ensemble, predict, evaluate, reader-study, report. Every
subcommand writes its fully resolved config into its output directory,
refuses to overwrite an existing non-empty output unless --force is given,
and prints a one-line summary on success.

Exit codes: 0 success, 1 user error (bad flags, config, or paths; input
files that do not parse, or checkpoints that do not fit the model), 2
internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .checkpoint import CheckpointError
from .config import ConfigError
from .evaluation import MetricError
from .layers import StateDictError
from .phantom import GeneratorError
from .seeding import substream
from .tensor import NumericsError


class UserError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(f"{message}\n{self.format_usage()}")


def _parse_sets(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UserError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def _load_config(args):
    overrides = _parse_sets(getattr(args, "set", None))
    if getattr(args, "profile", None):
        overrides["profile"] = args.profile
    try:
        return cfgmod.load(getattr(args, "config", None), overrides)
    except (ConfigError, FileNotFoundError) as exc:
        raise UserError(str(exc)) from exc


def _data_dir(args):
    data = getattr(args, "data", None) or os.environ.get("MSCOPE_DATA_DIR")
    if not data:
        raise UserError("no data directory: pass --data or set MSCOPE_DATA_DIR")
    data = Path(data)
    if not (data / "manifest.csv").exists():
        raise UserError(f"{data}: no manifest.csv found")
    return data


def _manifest(data_dir):
    from .phantom import load_manifest
    return load_manifest(data_dir / "manifest.csv")


def _ensure_out(path, force):
    path = Path(path)
    if path.exists() and any(path.iterdir()):
        if not force:
            raise UserError(f"{path} exists; pass --force to overwrite")
    path.mkdir(parents=True, exist_ok=True)
    return path


@contextmanager
def _lr_diverges(cfg, key):
    """A trainer that diverges in its first epoch raises ``NumericsError``;
    that is a learning rate too high for the data, so report it as a user
    error naming the config key ``key``."""
    try:
        yield
    except NumericsError as exc:
        raise UserError(f"{exc}; lower {key} (now {cfg[key]:g})") from exc


def _sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args):
    from .phantom import generate_dataset
    cfg = _load_config(args)
    out = _ensure_out(args.out, args.force)
    records = generate_dataset(cfg.dataset_config(), args.seed, out,
                               jobs=args.jobs)
    cfg.dump(out / "config.txt")
    digest = _sha256_file(out / "manifest.csv")[:12]
    print(f"gen-data: {len(records)} exams -> {out} (manifest {digest})")
    return 0


def cmd_train_patch(args):
    from .heatmaps import select_patch_checkpoint
    from .patches import (PatchConfig, PatchTrainConfig, build_patch_pools,
                          load_patch_cache, save_patch_cache,
                          train_patch_classifier)

    cfg = _load_config(args)
    data = _data_dir(args)
    records = _manifest(data)
    out = _ensure_out(args.out, args.force)

    patch_size = args.patch_size or cfg["patch.size"]
    pcfg = PatchConfig(patch_size=patch_size,
                       side_min=cfg["patch.side_min"],
                       side_max=cfg["patch.side_max"],
                       max_angle=cfg["patch.max_angle"])
    cache_path = Path(args.cache) if args.cache else None
    if cache_path and cache_path.exists():
        samples = load_patch_cache(cache_path, patch_size)
        from .patches import PATCH_CLASSES
        pools = {c: [] for c in PATCH_CLASSES}
        for s in samples:
            pools[PATCH_CLASSES[s.label]].append(s)
        print(f"train-patch: loaded {len(samples)} cached patches")
    else:
        targets = cfg.ints("patch.pool_targets")
        pools, stats = build_patch_pools(records, data, pcfg, targets,
                                         seed=args.seed)
        print("train-patch: pools "
              + " ".join(f"{k}={len(v)}" for k, v in pools.items())
              + f" (rejections: outside={stats['outside_image']} "
                f"zero={stats['all_zero']} mixed={stats['mixed_classes']})")
        if cache_path:
            save_patch_cache(cache_path,
                             [s for pool in pools.values() for s in pool])

    tcfg = PatchTrainConfig(
        epochs=args.epochs or cfg["patch.epochs"],
        save_every=args.save_every or cfg["patch.save_every"],
        batch_size=cfg["patch.batch_size"],
        lr=cfg["patch.lr"],
        weight_decay=cfg["patch.l2"],
        plan_counts=cfg.ints("patch.plan"),
        seed=args.seed)
    ckpt_dir = out / "checkpoints"
    with _lr_diverges(cfg, "patch.lr"):
        checkpoints, history = train_patch_classifier(pools, ckpt_dir, tcfg,
                                                      patch_size=patch_size)

    val = [r for r in records if r.split == "val"]
    n_select = cfg["patch.select_exams"]
    if n_select and n_select < len(val):
        rng = substream(args.seed, "select-subset")
        biopsied = [r for r in val if r.left_biopsied or r.right_biopsied]
        rest = [r for r in val if not (r.left_biopsied or r.right_biopsied)]
        need = max(0, n_select - len(biopsied))
        idx = rng.choice(len(rest), size=min(need, len(rest)), replace=False)
        val = biopsied + [rest[i] for i in idx]
    try:
        best, table = select_patch_checkpoint(
            checkpoints, val, data, patch_size, cfg["heatmap.stride"],
            args.seed)
    except MetricError as exc:
        raise UserError(f"{exc}; raise patch.select_exams (now {n_select}) "
                        "or use a validation split with both classes") \
            from exc

    import shutil
    shutil.copyfile(best[1], out / "best.ckpt")
    with open(out / "selection.csv", "w") as f:
        f.write("epoch,auc_malignant,auc_benign,auc_mean\n")
        for epoch, _, am, ab, mean in table:
            f.write(f"{epoch},{am:.6f},{ab:.6f},{mean:.6f}\n")
    cfg.dump(out / "config.txt")
    print(f"train-patch: {len(checkpoints)} checkpoints; selected epoch "
          f"{best[0]} (mean auc {best[4]:.3f}) -> {out / 'best.ckpt'}")
    return 0


_POOL_CTX = {}


def _heatmap_task(idx):
    from .heatmaps import heatmaps_for_exam, save_heatmap
    ctx = _POOL_CTX
    rec = ctx["records"][idx]
    maps = heatmaps_for_exam(rec, ctx["data"], ctx["net"].predict_proba,
                             ctx["patch_size"], ctx["stride"], ctx["seed"])
    for view, (mal, ben) in maps.items():
        save_heatmap(Path(ctx["out"]) / f"{rec.exam_id}_{view}.mshm", mal, ben)
    return rec.exam_id


def cmd_gen_heatmaps(args):
    from .checkpoint import load_into
    from .patches import PatchNet

    cfg = _load_config(args)
    data = _data_dir(args)
    records = _manifest(data)
    out = _ensure_out(args.out, args.force)

    patch_size = cfg["patch.size"]
    net = PatchNet(patch_size=patch_size)
    load_into(net, args.checkpoint)
    net.eval()

    global _POOL_CTX
    _POOL_CTX = dict(records=records, data=data, net=net, out=out,
                     patch_size=patch_size, stride=cfg["heatmap.stride"],
                     seed=args.seed)
    if args.jobs > 1:
        from multiprocessing import Pool
        with Pool(args.jobs) as pool:
            done = pool.map(_heatmap_task, range(len(records)), chunksize=4)
    else:
        done = [_heatmap_task(i) for i in range(len(records))]
    cfg.dump(out / "config.txt")
    print(f"gen-heatmaps: {len(done)} exams x 4 views -> {out}")
    return 0


def cmd_pretrain_birads(args):
    from .checkpoint import save_checkpoint
    from .training import TrainRunConfig, pretrain_birads, save_train_log

    cfg = _load_config(args)
    data = _data_dir(args)
    records = _manifest(data)
    out = _ensure_out(args.out, args.force)

    tcfg = TrainRunConfig(
        lr=cfg["train.lr"],
        batch_size=cfg["train.birads_batch_size"], l2=cfg["train.l2"],
        patience=cfg["train.patience"], max_epochs=cfg["train.max_epochs"],
        seed=args.seed, max_offset=cfg["train.max_offset"],
        input_channels=1, epoch_exams=cfg["train.birads_epoch_exams"],
        val_exams=cfg["train.val_exams"])
    with _lr_diverges(cfg, "train.lr"):
        net, rows, best_epoch = pretrain_birads(records, data, tcfg)
    save_checkpoint(out / "best.ckpt", net.state_dict())
    save_train_log(out / "log.csv", rows)
    cfg.dump(out / "config.txt")
    print(f"pretrain-birads: best epoch {best_epoch} -> {out / 'best.ckpt'}")
    return 0


def _cancer_cfg(cfg, args, seed):
    from .training import TrainRunConfig
    channels = cfg["model.input_channels"]
    if getattr(args, "heatmaps", None):
        channels = 3
    return TrainRunConfig(
        lr=cfg["train.lr"], batch_size=cfg["train.batch_size"],
        l2=cfg["train.l2"], patience=cfg["train.patience"],
        max_epochs=cfg["train.max_epochs"], seed=seed,
        max_offset=cfg["train.max_offset"],
        tta_samples=cfg["train.tta_samples"],
        variant=cfg["model.variant"], input_channels=channels,
        epoch_exams=cfg["train.epoch_exams"], val_exams=cfg["train.val_exams"])


def _init_state(args):
    if not getattr(args, "init", None):
        return None
    from .checkpoint import load_checkpoint
    path = Path(args.init)
    if path.is_dir():
        path = path / "best.ckpt"
    if not path.exists():
        raise UserError(f"init checkpoint {path} not found")
    return load_checkpoint(path)


def cmd_train_cancer(args):
    from .checkpoint import save_checkpoint
    from .training import save_train_log, train_cancer_model

    cfg = _load_config(args)
    data = _data_dir(args)
    records = _manifest(data)
    out = _ensure_out(args.out, args.force)
    tcfg = _cancer_cfg(cfg, args, args.seed)
    if tcfg.input_channels == 3 and not args.heatmaps:
        raise UserError("model.input_channels=3 requires --heatmaps DIR")

    with _lr_diverges(cfg, "train.lr"):
        net, rows, best_epoch = train_cancer_model(
            records, data, tcfg, heatmap_dir=args.heatmaps,
            init_state=_init_state(args))
    save_checkpoint(out / "best.ckpt", net.state_dict())
    save_train_log(out / "log.csv", rows)
    resolved = dict(cfg.values)
    resolved["model.input_channels"] = tcfg.input_channels
    cfgmod.RunConfig(resolved).dump(out / "config.txt")
    print(f"train-cancer: best epoch {best_epoch} -> {out / 'best.ckpt'}")
    return 0


def cmd_ensemble(args):
    from .checkpoint import save_checkpoint
    from .multiview import MultiViewNet
    from .training import save_train_log, train_cancer_model

    cfg = _load_config(args)
    data = _data_dir(args)
    records = _manifest(data)
    out = _ensure_out(args.out, args.force)
    members = args.members or cfg["train.ensemble_size"]

    shared = _init_state(args)
    if shared is None:
        # members must share their column initialization
        base = MultiViewNet(variant=cfg["model.variant"], input_channels=1,
                            task="cancer", seed=args.seed)
        shared = base.state_dict()

    (out / "members").mkdir(parents=True, exist_ok=True)
    logs = None
    for mi in range(members):
        tcfg = _cancer_cfg(cfg, args, seed=args.seed + 1000 * (mi + 1))
        with _lr_diverges(cfg, "train.lr"):
            net, rows, best_epoch = train_cancer_model(
                records, data, tcfg, heatmap_dir=args.heatmaps,
                init_state=shared)
        save_checkpoint(out / "members" / f"m{mi}.ckpt", net.state_dict())
        if logs is None:
            logs = rows
        print(f"ensemble: member {mi} best epoch {best_epoch}")
    import shutil
    shutil.copyfile(out / "members" / "m0.ckpt", out / "best.ckpt")
    save_train_log(out / "log.csv", logs)
    resolved = dict(cfg.values)
    resolved["model.input_channels"] = 3 if args.heatmaps else \
        cfg["model.input_channels"]
    cfgmod.RunConfig(resolved).dump(out / "config.txt")
    print(f"ensemble: {members} members -> {out}")
    return 0


def _load_run_models(run_dir, use_members):
    from .checkpoint import load_into
    from .multiview import MultiViewNet

    run_dir = Path(run_dir)
    run_cfg = cfgmod.load(run_dir / "config.txt")
    variant = run_cfg["model.variant"]
    channels = run_cfg["model.input_channels"]
    paths = sorted((run_dir / "members").glob("m*.ckpt")) if use_members \
        else [run_dir / "best.ckpt"]
    if not paths:
        raise UserError(f"{run_dir}: no model checkpoints found")
    nets = []
    for p in paths:
        net = MultiViewNet(variant=variant, input_channels=channels,
                           task="cancer")
        load_into(net, p)
        net.eval()
        nets.append(net)
    return nets, channels, run_cfg


def _predict_task(idx):
    from .evaluation import PredictionRecord
    from .training import ensemble_predict

    ctx = _POOL_CTX
    rec = ctx["records"][idx]
    probs = ensemble_predict(ctx["nets"], rec, ctx["data"], ctx["seed"],
                             channels=ctx["channels"],
                             heatmap_dir=ctx["heatmaps"], n=ctx["tta"],
                             max_offset=ctx["offset"])
    return [PredictionRecord(rec.exam_id, "L", float(probs[1]),
                             float(probs[0]), ctx["model_id"]),
            PredictionRecord(rec.exam_id, "R", float(probs[3]),
                             float(probs[2]), ctx["model_id"])]


def cmd_predict(args):
    from .evaluation import write_predictions

    cfg = _load_config(args)
    data = _data_dir(args)
    records = [r for r in _manifest(data) if r.split == args.split]
    if not records:
        raise UserError(f"no exams in split {args.split!r}")
    out = _ensure_out(args.out, args.force)

    nets, channels, run_cfg = _load_run_models(args.run, args.ensemble)
    if channels == 3 and not args.heatmaps:
        raise UserError("this model needs --heatmaps DIR")
    model_id = args.model_id or Path(args.run).name

    global _POOL_CTX
    _POOL_CTX = dict(records=records, data=data, nets=nets, channels=channels,
                     heatmaps=args.heatmaps, seed=args.seed,
                     tta=run_cfg["train.tta_samples"],
                     offset=run_cfg["train.max_offset"], model_id=model_id)
    if args.jobs > 1:
        from multiprocessing import Pool
        with Pool(args.jobs) as pool:
            nested = pool.map(_predict_task, range(len(records)), chunksize=2)
    else:
        nested = [_predict_task(i) for i in range(len(records))]
    preds = [p for pair in nested for p in pair]
    write_predictions(out / "predictions.csv", preds)
    cfg.dump(out / "config.txt")
    print(f"predict: {len(preds)} breast predictions ({model_id}) -> "
          f"{out / 'predictions.csv'}")
    return 0


def _breast_maps(preds):
    scores_mal = {p.breast_id: p.p_malignant for p in preds}
    scores_ben = {p.breast_id: p.p_benign for p in preds}
    return scores_mal, scores_ben


def _labels_for(records):
    labels = {}
    for r in records:
        if r.split != "test":
            continue
        for side in ("L", "R"):
            benign, malignant = r.labels(side)
            labels[f"{r.exam_id}:{side}"] = {
                "malignant": malignant, "benign": benign,
                "biopsy": r.biopsied(side)}
    return labels


def cmd_evaluate(args):
    from .evaluation import (pr_auc, pr_curve_points,
                             read_predictions, roc_auc, roc_curve_points,
                             malignant_vs_benign_score, biopsy_score,
                             subpopulation)

    cfg = _load_config(args)
    data = _data_dir(args)
    records = _manifest(data)
    preds = read_predictions(args.predictions)
    out = _ensure_out(args.out, args.force)
    (out / "curves").mkdir(exist_ok=True)

    labels = _labels_for(records)
    wanted = args.population or cfg["eval.population"]
    pops = ("screening", "biopsied", "one_class_biopsied", "by_age",
            "by_density") if wanted == "all" else (wanted,)

    rows = []
    by_model = {}
    for p in preds:
        by_model.setdefault(p.model_id, []).append(p)

    for model_id, mpreds in sorted(by_model.items()):
        s_mal, s_ben = _breast_maps(mpreds)
        missing = set(labels) - set(s_mal)
        if missing:
            raise UserError(f"{len(missing)} test breasts lack predictions "
                            f"(e.g. {sorted(missing)[:2]})")

        def emit(pop_name, task, ids, scores):
            y = [labels[b][("malignant" if task == "malignant_vs_benign"
                            else task)] for b in ids]
            s = [scores[b] for b in ids]
            n_pos = sum(y)
            # a single-class population keeps its counts, with no AUC rows
            both = 0 < n_pos < len(y)
            if both:
                rows.append((model_id, pop_name, task, "auc", roc_auc(s, y)))
                rows.append((model_id, pop_name, task, "prauc", pr_auc(s, y)))
            rows.append((model_id, pop_name, task, "n_pos", n_pos))
            rows.append((model_id, pop_name, task, "n_neg", len(y) - n_pos))
            if both and pop_name in ("screening", "biopsied") and \
                    task in ("malignant", "benign"):
                tag = f"{model_id}_{pop_name}_{task}"
                with open(out / "curves" / f"{tag}_roc.csv", "w") as f:
                    f.write("fpr,tpr\n")
                    for fpr, tpr in roc_curve_points(s, y):
                        f.write(f"{fpr:.6f},{tpr:.6f}\n")
                with open(out / "curves" / f"{tag}_pr.csv", "w") as f:
                    f.write("recall,precision\n")
                    for rec_, prec in pr_curve_points(s, y):
                        f.write(f"{rec_:.6f},{prec:.6f}\n")

        for pop in pops:
            if pop in ("by_age", "by_density"):
                parts = subpopulation(records, pop)
                prefix = "age" if pop == "by_age" else "density"
                for band, ids in sorted(parts.items()):
                    ids = sorted(ids)
                    emit(f"{prefix}:{band}", "malignant", ids, s_mal)
                    emit(f"{prefix}:{band}", "benign", ids, s_ben)
                continue
            rng = substream(args.seed, "population", pop)
            ids = sorted(subpopulation(records, pop, rng))
            if pop == "one_class_biopsied":
                scores = {b: malignant_vs_benign_score(s_mal[b], s_ben[b])
                          for b in ids}
                emit(pop, "malignant_vs_benign", ids, scores)
                continue
            emit(pop, "malignant", ids, s_mal)
            emit(pop, "benign", ids, s_ben)
            if pop == "screening":
                scores = {b: biopsy_score(s_mal[b], s_ben[b]) for b in ids}
                emit(pop, "biopsy", ids, scores)

    with open(out / "metrics.csv", "w") as f:
        f.write("model_id,population,task,metric,value\n")
        for model_id, pop, task, metric, value in rows:
            f.write(f"{model_id},{pop},{task},{metric},{value:.6f}\n")
    cfg.dump(out / "config.txt")
    auc_rows = [r for r in rows if r[3] == "auc"]
    print(f"evaluate: {len(auc_rows)} AUC figures -> {out / 'metrics.csv'}")
    return 0


def cmd_reader_study(args):
    from .evaluation import (hybrid_scores, hybrid_sweep, pr_auc,
                             read_predictions, roc_auc, simulate_readers,
                             subpopulation)

    cfg = _load_config(args)
    data = _data_dir(args)
    records = _manifest(data)
    preds = read_predictions(args.predictions)
    out = _ensure_out(args.out, args.force)

    labels_all = _labels_for(records)
    test = [r for r in records if r.split == "test"]
    n_biopsied = cfg["eval.reader_biopsied"] or \
        sum(1 for r in test if r.left_biopsied or r.right_biopsied)
    n_clean = cfg["eval.reader_clean"] or n_biopsied
    rng = substream(args.seed, "reader-study")
    ids = sorted(subpopulation(records, "reader_study", rng,
                               reader_counts=(n_biopsied, n_clean)))

    s_mal, _ = _breast_maps(preds)
    missing = [b for b in ids if b not in s_mal]
    if missing:
        raise UserError(f"predictions missing for {len(missing)} breasts")
    model = {b: s_mal[b] for b in ids}
    y = {b: labels_all[b]["malignant"] for b in ids}

    n_readers = cfg["eval.readers"]
    lo, hi = cfg["eval.reader_auc_low"], cfg["eval.reader_auc_high"]
    targets = np.linspace(lo, hi, n_readers)
    mat = simulate_readers(y, targets, substream(args.seed, "readers"))

    lam = cfg["eval.hybrid_lambda"]
    keys = mat.breast_ids
    yv = [y[b] for b in keys]
    model_auc = roc_auc([model[b] for b in keys], yv)
    model_prauc = pr_auc([model[b] for b in keys], yv)

    with open(out / "readers.csv", "w") as f:
        f.write("reader_id," + ",".join(keys) + "\n")
        for ri in range(n_readers):
            f.write(f"r{ri}," + ",".join(f"{v:.6f}" for v in mat.scores[ri])
                    + "\n")

    rows = []
    sweep_rows = []
    for ri in range(n_readers):
        reader = dict(zip(keys, mat.scores[ri]))
        r_auc = roc_auc(mat.scores[ri], yv)
        r_prauc = pr_auc(mat.scores[ri], yv)
        hyb = hybrid_scores(reader, model, lam)
        h_auc = roc_auc([hyb[b] for b in keys], yv)
        h_prauc = pr_auc([hyb[b] for b in keys], yv)
        grid, best_lam = hybrid_sweep(reader, model, y)
        sweep_rows.extend((f"r{ri}", g_lam, g_auc, g_prauc)
                          for g_lam, g_auc, g_prauc in grid)
        rows.append((f"r{ri}", targets[ri], r_auc, r_prauc, h_auc, h_prauc,
                     best_lam))

    with open(out / "reader_metrics.csv", "w") as f:
        f.write("reader_id,target_auc,reader_auc,reader_prauc,"
                f"hybrid{lam}_auc,hybrid{lam}_prauc,best_lambda\n")
        for r in rows:
            f.write(f"{r[0]},{r[1]:.4f},{r[2]:.6f},{r[3]:.6f},{r[4]:.6f},"
                    f"{r[5]:.6f},{r[6]:.2f}\n")
    with open(out / "sweep.csv", "w") as f:
        f.write("reader_id,lambda,auc,prauc\n")
        for rid, g_lam, g_auc, g_prauc in sweep_rows:
            f.write(f"{rid},{g_lam:.2f},{g_auc:.6f},{g_prauc:.6f}\n")
    cfg.dump(out / "config.txt")

    mean_reader = float(np.mean([r[2] for r in rows]))
    mean_hybrid = float(np.mean([r[4] for r in rows]))
    improved = sum(1 for r in rows if r[4] >= r[2])
    print(f"reader-study: {len(ids)} breasts, model auc {model_auc:.3f} "
          f"prauc {model_prauc:.3f}, mean reader auc {mean_reader:.3f}, "
          f"mean hybrid auc {mean_hybrid:.3f} "
          f"({improved}/{n_readers} readers improved)")
    return 0


def cmd_report(args):
    import csv as csvmod

    rows = []
    for path in args.metrics:
        with open(path, newline="") as f:
            reader = csvmod.DictReader(f)
            for row in reader:
                rows.append(row)
    if not rows:
        raise UserError("no metrics rows found")

    values = {}
    models = []
    for row in rows:
        key = (row["model_id"], row["population"], row["task"], row["metric"])
        values[key] = float(row["value"])
        if row["model_id"] not in models:
            models.append(row["model_id"])

    lines = []
    width = max(len(m) for m in models) + 2
    for population in ("screening", "biopsied"):
        have = [m for m in models
                if (m, population, "malignant", "auc") in values]
        if not have:
            continue
        lines.append(f"== {population} population ==")
        lines.append(f"{'model':<{width}} {'malignant':>10} {'benign':>10}")
        for m in have:
            mal = values.get((m, population, "malignant", "auc"))
            ben = values.get((m, population, "benign", "auc"))
            ben_s = f"{ben:.3f}" if ben is not None else "-"
            lines.append(f"{m:<{width}} {mal:>10.3f} {ben_s:>10}")
        lines.append("")
    extra = [(m, v) for (m, p, t, met), v in sorted(values.items())
             if p == "one_class_biopsied" and met == "auc"]
    if extra:
        lines.append("== malignant vs benign (one-class biopsied) ==")
        for m, v in extra:
            lines.append(f"{m:<{width}} {v:>10.3f}")
        lines.append("")

    text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    print(f"report: {len(models)} models summarized"
          + (f" -> {args.out}" if args.out else ""))
    return 0


# ---------------------------------------------------------------------------

def _add_common(p, config=True, seed=True, out=True, data=False, jobs=False):
    if config:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key")
        p.add_argument("--profile", choices=cfgmod.PROFILES)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if out:
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite an existing output directory")
    if data:
        p.add_argument("--data", help="dataset directory "
                                      "(default: $MSCOPE_DATA_DIR)")
    if jobs:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = bit-reproducible)")


def build_parser():
    parser = CliParser(prog="mscope",
                       description="phantom screening-classifier pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a phantom dataset")
    _add_common(p, data=False, jobs=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-patch", help="train the patch classifier")
    _add_common(p, data=True)
    p.add_argument("--patch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--save-every", type=int)
    p.add_argument("--cache", help="patch cache file to reuse or create")
    p.set_defaults(fn=cmd_train_patch)

    p = sub.add_parser("gen-heatmaps", help="slide the patch model over "
                                            "every image")
    _add_common(p, data=True, jobs=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_gen_heatmaps)

    p = sub.add_parser("pretrain-birads", help="pretrain on the 3-way "
                                               "assessment task")
    _add_common(p, data=True)
    p.set_defaults(fn=cmd_pretrain_birads)

    p = sub.add_parser("train-cancer", help="train the multi-view model")
    _add_common(p, data=True)
    p.add_argument("--init", help="pretraining run dir or checkpoint")
    p.add_argument("--heatmaps", help="heatmap dir (enables 3-channel input)")
    p.set_defaults(fn=cmd_train_cancer)

    p = sub.add_parser("ensemble", help="train an ensemble of models")
    _add_common(p, data=True)
    p.add_argument("--members", type=int)
    p.add_argument("--init", help="pretraining run dir or checkpoint")
    p.add_argument("--heatmaps")
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser("predict", help="write per-breast predictions")
    _add_common(p, data=True, jobs=True)
    p.add_argument("--run", required=True, help="training run directory")
    p.add_argument("--ensemble", action="store_true",
                   help="average the run's ensemble members")
    p.add_argument("--split", default="test",
                   choices=("train", "val", "test"))
    p.add_argument("--heatmaps")
    p.add_argument("--model-id")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics over test populations")
    _add_common(p, data=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--population",
                   choices=("all", "screening", "biopsied",
                            "one_class_biopsied", "by_age", "by_density"))
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("reader-study", help="simulated readers and hybrids")
    _add_common(p, data=True)
    p.add_argument("--predictions", required=True)
    p.set_defaults(fn=cmd_reader_study)

    p = sub.add_parser("report", help="aggregate metrics into a text table")
    p.add_argument("--out")
    p.add_argument("metrics", nargs="+", help="metrics.csv files")
    p.set_defaults(fn=cmd_report)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


def main(argv=None):
    try:
        return run(argv)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, MetricError, GeneratorError, CheckpointError,
            StateDictError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1
    except Exception:
        traceback.print_exc()
        print("internal error: invariant violation", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
