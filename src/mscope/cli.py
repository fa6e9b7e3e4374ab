"""Command-line surface wiring the pipeline end to end.

Every subcommand is one row of ``STAGES``: name, help and body; whether it
reads a dataset (``--data``) and takes ``--jobs``; its own flags; its
alias flags; and the learning-rate key a first-epoch divergence names.
``build_parser`` is generated from the table. ``_run_stage`` runs every
row that writes a run directory: it loads the config once, from ``--set``,
then ``--profile``, then the alias flags; loads the dataset's manifest;
refuses a non-empty output directory without ``--force``; runs the body,
and if it fails removes the topmost directory the run made for ``--out``;
writes the resolved config to ``config.txt``; and prints the body's
one-line summary. An alias flag is nothing but its config key (``--epochs
2`` is ``--set patch.epochs=2``; ``--heatmaps DIR`` also sets
``model.input_channels=3``), so bodies read settings only from the config
and ``config.txt`` records what ran. ``report`` has no config and no
output directory. ``--jobs`` maps the exams of gen-data, gen-heatmaps and
predict onto that many threads of the process, capped at the usable cores,
each with one BLAS thread (``seeding._map_threads``), with the same bytes
at any count. The process's BLAS threads run the trainers' validation
passes (``training.predict_exams``), ``train-patch``'s checkpoint
selection and, at ``--jobs 1``, an exam's four views: its heatmaps and the
column calls of its eval forwards. When ``--jobs`` runs the exams on
threads, each exam's views run on its thread.

Exit codes: 0 success; 1 user error (bad flags, out-of-range config values
such as ``heatmap.stride`` above ``patch.size``, ``patch.side_min`` above
``patch.side_max`` or a ``train.max_offset`` that could crop a view to
nothing, a config file that is not UTF-8, bad paths such as a directory
where a file goes, images smaller than ``patch.size``, checkpoints that do
not fit the model, a learning rate that diverges in the first epoch, a
manifest that leaves a trainer nothing to score or train on, refused before
its first step: no val exam, no train exam its epoch draws, no two-class
validation label, or ``train-patch`` selection exams of one class; a model
id holding ',', '/' or a line break, or a ``--run`` with no directory
name (``/``) and no ``--model-id``, which ``predict`` refuses naming
``--model-id``, a predictions file with no rows, a manifest with no
test-split exam for ``evaluate`` or ``reader-study``, a ``reader-study``
over the predictions of more than one model, which names the model ids,
and input files that do not parse, such as a table that is not UTF-8, a
manifest split not train, val or test, a NaN or infinity in a checkpoint,
heatmap or patch cache, or heatmaps not of their image's dims, which raise
``FormatError`` naming the file and the byte or line);
2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import config as cfgmod
from .checkpoint import load_checkpoint, load_into, named, save_checkpoint
from .config import ConfigError
from .evaluation import (MODEL_ID_FORBIDDEN, POPULATIONS, MetricError,
                         PredictionRecord, breast_table, hybrid_scores,
                         hybrid_sweep, malignant_vs_benign_score,
                         prediction_columns, pr_auc, pr_curve_points,
                         read_predictions, reader_study_draw, roc_auc,
                         roc_curve_points, simulate_readers, subpopulation,
                         write_predictions)
from .formats import FormatError, checked, read_table, write_table
from .heatmaps import (check_views_fit, exam_views, heatmap_path,
                       heatmaps_for_exam, save_heatmap,
                       select_patch_checkpoint, selection_labels)
from .layers import StateDictError
from .multiview import MultiViewNet
from .patches import (PATCH_CLASSES, EmptyPoolError, PatchConfig, PatchNet,
                      PatchTrainConfig, build_patch_pools, load_patch_cache,
                      save_patch_cache, train_patch_classifier,
                      train_split_classes)
from .phantom import SPLITS, GeneratorError, generate_dataset, load_manifest
from .seeding import _map_threads, substream
from .tensor import NumericsError
from .training import (SplitError, TrainRunConfig, ensemble_predict,
                       pretrain_birads, save_train_log, train_cancer_model,
                       validation_exams)


class UserError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(f"{message}\n{self.format_usage()}")


def _count(text):
    """The argparse type of ``--jobs`` and ``--members``: an int >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got "
                                         f"{text!r}")
    return int(text)


def _data_dir(args):
    data = args.data or os.environ.get("MSCOPE_DATA_DIR")
    if not data:
        raise UserError("no data directory: pass --data or set MSCOPE_DATA_DIR")
    data = Path(data)
    if not (data / "manifest.csv").exists():
        raise UserError(f"{data}: no manifest.csv found")
    return data


# ---------------------------------------------------------------------------
# stage bodies: (args, cfg, out, data, records) -> one-line summary

def cmd_gen_data(args, cfg, out, data, records):
    records = generate_dataset(cfg.dataset_config(), args.seed, out,
                               jobs=args.jobs)
    digest = hashlib.sha256((out / "manifest.csv").read_bytes()).hexdigest()
    return f"gen-data: {len(records)} exams -> {out} (manifest {digest[:12]})"


def _require_classes(given):
    """Raises ``EmptyPoolError`` naming the first of ``PATCH_CLASSES``
    whose entry in ``given`` (a flag or a pool size) is false."""
    if not all(given):
        raise EmptyPoolError(f"no {PATCH_CLASSES[np.argmin(given)]} patches: "
                             "no training image or cache gave one")


def cmd_train_patch(args, cfg, out, data, records):
    patch_size = cfg["patch.size"]
    pcfg = PatchConfig(patch_size=patch_size,
                       side_min=cfg["patch.side_min"],
                       side_max=cfg["patch.side_max"],
                       max_angle=cfg["patch.max_angle"])
    n_select = cfg["patch.select_exams"]
    val = validation_exams(records, n_select,
                           substream(args.seed, "select-subset"))
    for rec in val:                   # fail on a small image before the pools
        check_views_fit(rec, data, patch_size)
    cache_path = Path(args.cache) if args.cache else None
    pools = None
    if cache_path and cache_path.exists():
        pools = load_patch_cache(cache_path, patch_size)
        print(f"train-patch: loaded {len(pools[1])} cached patches")
    # before any pool is sampled: a class no window can give, then
    # one-class selection
    _require_classes(train_split_classes(records) if pools is None else
                     np.bincount(pools[1], minlength=len(PATCH_CLASSES)))
    try:
        selection_labels(val)
    except MetricError as exc:
        raise UserError(f"{exc}; raise patch.select_exams (now {n_select}) "
                        "or use a validation split with both classes") \
            from exc
    if pools is None:
        targets = cfg.ints("patch.pool_targets")
        pools, stats = build_patch_pools(records, data, pcfg, targets,
                                         seed=args.seed)
        sizes = np.bincount(pools[1], minlength=len(PATCH_CLASSES))
        print("train-patch: pools "
              + " ".join(f"{c}={n}" for c, n in zip(PATCH_CLASSES, sizes))
              + f" (rejections: outside={stats['outside_image']} "
                f"zero={stats['all_zero']} mixed={stats['mixed_classes']})")
        if cache_path:
            save_patch_cache(cache_path, pools)
        _require_classes(sizes)         # a class that sampling left empty

    tcfg = PatchTrainConfig(
        epochs=cfg["patch.epochs"], save_every=cfg["patch.save_every"],
        batch_size=cfg["patch.batch_size"], lr=cfg["patch.lr"],
        weight_decay=cfg["patch.l2"], plan_counts=cfg.ints("patch.plan"),
        seed=args.seed)
    checkpoints, _ = train_patch_classifier(
        pools, out / "checkpoints", tcfg, patch_size=patch_size)

    best, table = select_patch_checkpoint(
        checkpoints, val, data, patch_size, cfg["heatmap.stride"], args.seed)
    shutil.copyfile(best[1], out / "best.ckpt")
    write_table(out / "selection.csv",
                "epoch,auc_malignant,auc_benign,auc_mean",
                ((epoch, f"{am:.6f}", f"{ab:.6f}", f"{mean:.6f}")
                 for epoch, _, am, ab, mean in table))
    return (f"train-patch: {len(checkpoints)} checkpoints; selected epoch "
            f"{best[0]} (mean auc {best[4]:.3f}) -> {out / 'best.ckpt'}")


def cmd_gen_heatmaps(args, cfg, out, data, records):
    net = PatchNet(patch_size=cfg["patch.size"], seed=None)
    load_into(net, args.checkpoint)
    net.eval()

    def exam(rec):
        maps = heatmaps_for_exam(
            rec, exam_views(rec, data, cfg["patch.size"]), net.predict_proba,
            cfg["patch.size"], cfg["heatmap.stride"], args.seed)
        for view, (mal, ben) in maps.items():
            save_heatmap(heatmap_path(out, rec, view), mal, ben)
    _map_threads(exam, records, args.jobs)
    return f"gen-heatmaps: {len(records)} exams x 4 views -> {out}"


def _train_config(cfg, seed, birads):
    """The ``TrainRunConfig`` of the 3-way assessment pretraining
    (``birads``) or of a cancer model."""
    own = "train.birads_" if birads else "train."     # the task's own keys
    return TrainRunConfig(
        lr=cfg["train.lr"], batch_size=cfg[own + "batch_size"],
        l2=cfg["train.l2"], patience=cfg["train.patience"],
        max_epochs=cfg["train.max_epochs"], seed=seed,
        max_offset=cfg["train.max_offset"],
        variant="view_wise" if birads else cfg["model.variant"],
        input_channels=1 if birads else cfg["model.input_channels"],
        epoch_exams=cfg[own + "epoch_exams"], val_exams=cfg["train.val_exams"])


def cmd_pretrain_birads(args, cfg, out, data, records):
    tcfg = _train_config(cfg, args.seed, birads=True)
    net, rows, best_epoch = pretrain_birads(records, data, tcfg)
    save_checkpoint(out / "best.ckpt", net.state_dict())
    save_train_log(out / "log.csv", rows)
    return f"pretrain-birads: best epoch {best_epoch} -> {out / 'best.ckpt'}"


def _init_path(args):
    """The checkpoint ``--init`` names (a run dir means its best.ckpt), or
    None without ``--init``."""
    if not args.init:
        return None
    path = Path(args.init)
    if path.is_dir():
        path = path / "best.ckpt"
    if not path.exists():
        raise UserError(f"init checkpoint {path} not found")
    return path


def _train_model(cfg, args, records, data, seed, state=None):
    """Train one cancer model from ``state``, or else from ``--init`` if
    given: all of train-cancer, and one member of an ensemble."""
    if cfg["model.input_channels"] == 3 and not args.heatmaps:
        raise UserError("model.input_channels=3 requires --heatmaps DIR")
    init = _init_path(args)
    if state is None and init:
        state = load_checkpoint(init)
    tcfg = _train_config(cfg, seed, birads=False)
    with named(init):
        return train_cancer_model(records, data, tcfg,
                                  heatmap_dir=args.heatmaps, init_state=state)


def cmd_train_cancer(args, cfg, out, data, records):
    net, rows, best_epoch = _train_model(cfg, args, records, data, args.seed)
    save_checkpoint(out / "best.ckpt", net.state_dict())
    save_train_log(out / "log.csv", rows)
    return f"train-cancer: best epoch {best_epoch} -> {out / 'best.ckpt'}"


def cmd_ensemble(args, cfg, out, data, records):
    init = _init_path(args)
    if init:
        shared = load_checkpoint(init)
    else:
        # members must share their column initialization
        shared = MultiViewNet(variant=cfg["model.variant"], input_channels=1,
                              task="cancer", seed=args.seed).state_dict()

    (out / "members").mkdir(parents=True, exist_ok=True)
    members = cfg["train.ensemble_size"]
    logs = None
    for mi in range(members):
        net, rows, best_epoch = _train_model(
            cfg, args, records, data, args.seed + 1000 * (mi + 1), shared)
        save_checkpoint(out / "members" / f"m{mi}.ckpt", net.state_dict())
        if logs is None:
            logs = rows
        print(f"ensemble: member {mi} best epoch {best_epoch}")
    shutil.copyfile(out / "members" / "m0.ckpt", out / "best.ckpt")
    save_train_log(out / "log.csv", logs)
    return f"ensemble: {members} members -> {out}"


def _load_run_models(run_dir, use_members):
    """The run's ``best.ckpt``, or exactly the members ``m0..m{k-1}`` of
    its ``train.ensemble_size=k``: a stale member is never averaged in."""
    run_dir = Path(run_dir)
    run_cfg = cfgmod.load(run_dir / "config.txt")
    channels = run_cfg["model.input_channels"]
    paths = [run_dir / "members" / f"m{i}.ckpt"
             for i in range(run_cfg["train.ensemble_size"])] if use_members \
        else [run_dir / "best.ckpt"]
    nets = [MultiViewNet(variant=run_cfg["model.variant"],
                         input_channels=channels, task="cancer", seed=None)
            for _ in paths]
    for net, path in zip(nets, paths):
        load_into(net, path)
        net.eval()
    return nets, channels, run_cfg


def cmd_predict(args, cfg, out, data, records):
    # abspath names "." and ".."; resolve would follow a symlinked run
    model_id = args.model_id or Path(os.path.abspath(args.run)).name
    if not model_id:
        raise UserError(f"--run {args.run!r} has no directory name to use "
                        "as the model id; pass --model-id")
    if any(c in model_id for c in MODEL_ID_FORBIDDEN):
        raise UserError(f"model id {model_id!r} holds ',', '/' or a line "
                        "break, which predictions.csv cannot round-trip; "
                        "pass a --model-id without them")
    records = [r for r in records if r.split == args.split]
    if not records:
        raise UserError(f"no exams in split {args.split!r}")
    nets, channels, run_cfg = _load_run_models(args.run, args.ensemble)
    if channels == 3 and not args.heatmaps:
        raise UserError("this model needs --heatmaps DIR")
    # a 1-channel model reads no heatmaps, whatever --heatmaps says
    heatmaps = args.heatmaps if channels == 3 else None

    def exam(rec):
        probs = ensemble_predict(
            nets, rec, data, args.seed, heatmap_dir=heatmaps,
            n=run_cfg["train.tta_samples"],
            max_offset=run_cfg["train.max_offset"])
        # probs holds (benign, malignant) of the left, then the right breast
        return [PredictionRecord(rec.exam_id, side, float(probs[i + 1]),
                                 float(probs[i]), model_id)
                for side, i in (("L", 0), ("R", 2))]
    preds = [p for pair in _map_threads(exam, records, args.jobs)
             for p in pair]
    write_predictions(out / "predictions.csv", preds)
    return (f"predict: {len(preds)} breast predictions ({model_id}) -> "
            f"{out / 'predictions.csv'}")


METRICS_HEADER = "model_id,population,task,metric,value"


def cmd_evaluate(args, cfg, out, data, records):
    preds = read_predictions(args.predictions)
    breasts = breast_table(records)
    if not len(breasts.ids):
        raise UserError(f"{data / 'manifest.csv'} has no test-split exam")
    (out / "curves").mkdir(exist_ok=True)
    wanted = cfg["eval.population"]
    pops = [row for kind in (POPULATIONS if wanted == "all" else (wanted,))
            for row in subpopulation(breasts, kind)]

    rows = []
    for model_id in sorted({p.model_id for p in preds}):
        p_mal, p_ben = prediction_columns(
            [p for p in preds if p.model_id == model_id], breasts.ids)
        tasks = {"malignant": (p_mal, breasts.malignant),
                 "benign": (p_ben, breasts.benign),
                 "biopsy": (np.maximum(p_mal, p_ben), breasts.biopsied),
                 "malignant_vs_benign": (
                     malignant_vs_benign_score(p_mal, p_ben),
                     breasts.malignant)}
        for pop, mask, pop_tasks in pops:
            for task in pop_tasks:
                s, y = (column[mask] for column in tasks[task])
                n_pos = int(y.sum())
                # a single-class population keeps its counts, with no AUC
                both = 0 < n_pos < len(y)
                if both:
                    rows.append((model_id, pop, task, "auc", roc_auc(s, y)))
                    rows.append((model_id, pop, task, "prauc", pr_auc(s, y)))
                rows.append((model_id, pop, task, "n_pos", n_pos))
                rows.append((model_id, pop, task, "n_neg", len(y) - n_pos))
                if both and pop in ("screening", "biopsied") and \
                        task in ("malignant", "benign"):
                    tag = out / "curves" / f"{model_id}_{pop}_{task}"
                    write_table(f"{tag}_roc.csv", "fpr,tpr",
                                ((f"{a:.6f}", f"{b:.6f}")
                                 for a, b in roc_curve_points(s, y)))
                    write_table(f"{tag}_pr.csv", "recall,precision",
                                ((f"{a:.6f}", f"{b:.6f}")
                                 for a, b in pr_curve_points(s, y)))

    write_table(out / "metrics.csv", METRICS_HEADER,
                ((*r[:4], f"{r[4]:.6f}") for r in rows))
    auc_rows = [r for r in rows if r[3] == "auc"]
    return f"evaluate: {len(auc_rows)} AUC figures -> {out / 'metrics.csv'}"


def cmd_reader_study(args, cfg, out, data, records):
    preds = read_predictions(args.predictions)
    breasts = breast_table(records)
    if not len(breasts.ids):
        raise UserError(f"{data / 'manifest.csv'} has no test-split exam")
    n_biopsied, n_clean = cfg["eval.reader_biopsied"], cfg["eval.reader_clean"]
    drawn = reader_study_draw(records, substream(args.seed, "reader-study"),
                              n_biopsied, n_clean)
    in_study = np.isin(breasts.ids, drawn)
    ids, y = breasts.ids[in_study], breasts.malignant[in_study]
    model = prediction_columns(preds, ids)[0]

    n_readers = cfg["eval.readers"]
    lo, hi = cfg["eval.reader_auc_low"], cfg["eval.reader_auc_high"]
    targets = np.linspace(lo, hi, n_readers)
    try:
        readers = simulate_readers(y, targets, substream(args.seed, "readers"))
    except MetricError as exc:
        raise UserError(
            f"{exc} on {len(ids)} drawn breasts; draw more with "
            f"eval.reader_biopsied and eval.reader_clean (now {n_biopsied} "
            f"and {n_clean}) or change eval.reader_auc_low and "
            f"eval.reader_auc_high (now {lo:g} and {hi:g})") from exc

    lam = cfg["eval.hybrid_lambda"]
    model_auc, model_prauc = roc_auc(model, y), pr_auc(model, y)

    write_table(out / "readers.csv", "reader_id," + ",".join(ids),
                ((f"r{ri}", *(f"{v:.6f}" for v in scores))
                 for ri, scores in enumerate(readers)))

    rows = []
    sweep_rows = []
    for ri, scores in enumerate(readers):
        hyb = hybrid_scores(scores, model, lam)
        grid, best_lam = hybrid_sweep(scores, model, y)
        sweep_rows.extend((f"r{ri}", *g) for g in grid)
        rows.append((f"r{ri}", targets[ri], roc_auc(scores, y),
                     pr_auc(scores, y), roc_auc(hyb, y), pr_auc(hyb, y),
                     best_lam))

    write_table(out / "reader_metrics.csv",
                "reader_id,target_auc,reader_auc,reader_prauc,"
                f"hybrid{lam}_auc,hybrid{lam}_prauc,best_lambda",
                ((r[0], f"{r[1]:.4f}", *(f"{v:.6f}" for v in r[2:6]),
                  f"{r[6]:.2f}") for r in rows))
    write_table(out / "sweep.csv", "reader_id,lambda,auc,prauc",
                ((rid, f"{g_lam:.2f}", f"{g_auc:.6f}", f"{g_prauc:.6f}")
                 for rid, g_lam, g_auc, g_prauc in sweep_rows))

    mean_reader = float(np.mean([r[2] for r in rows]))
    mean_hybrid = float(np.mean([r[4] for r in rows]))
    improved = sum(1 for r in rows if r[4] >= r[2])
    return (f"reader-study: {len(ids)} breasts, model auc {model_auc:.3f} "
            f"prauc {model_prauc:.3f}, mean reader auc {mean_reader:.3f}, "
            f"mean hybrid auc {mean_hybrid:.3f} "
            f"({improved}/{n_readers} readers improved)")


def _read_metrics(path, values, models):
    """Add the rows of one ``metrics.csv`` to ``values`` and its model ids
    to ``models``; a value that is not a number raises ``FormatError``
    naming the file and line."""
    columns, where = read_table(path, METRICS_HEADER)
    numbers = checked(columns["value"], float, where,
                      "value {!r} is not a number")
    keys = zip(*(columns[c] for c in METRICS_HEADER.split(",")[:4]))
    values.update(zip(keys, numbers))
    models.update(dict.fromkeys(columns["model_id"]))


def cmd_report(args):
    values = {}
    models = {}                         # model ids in order of appearance
    for path in args.metrics:
        _read_metrics(path, values, models)
    if not models:
        raise UserError("no metrics rows found")

    lines = []
    width = max(map(len, models)) + 2
    for population in ("screening", "biopsied"):
        have = [m for m in models
                if (m, population, "malignant", "auc") in values]
        if not have:
            continue
        lines += [f"== {population} population ==",
                  f"{'model':<{width}} {'malignant':>10} {'benign':>10}"]
        for m in have:
            mal = values[m, population, "malignant", "auc"]
            ben = values.get((m, population, "benign", "auc"))
            ben_s = f"{ben:.3f}" if ben is not None else "-"
            lines.append(f"{m:<{width}} {mal:>10.3f} {ben_s:>10}")
        lines.append("")
    extra = [f"{m:<{width}} {v:>10.3f}"
             for (m, p, _, met), v in sorted(values.items())
             if p == "one_class_biopsied" and met == "auc"]
    if extra:
        lines += ["== malignant vs benign (one-class biopsied) ==", *extra, ""]

    text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    print(f"report: {len(models)} models summarized"
          + (f" -> {args.out}" if args.out else ""))
    return 0


# ---------------------------------------------------------------------------
# the stage table

class Alias(NamedTuple):
    """A flag that is nothing but one config key: it sets ``key`` to its
    own value, or to ``value`` when given."""
    flag: str
    key: str
    kwargs: dict
    value: str | None = None


class Stage(NamedTuple):
    name: str
    help: str
    body: Callable
    data: bool = True           # takes --data and loads its manifest
    jobs: bool = False          # takes --jobs
    flags: tuple = ()           # its own (flag, argparse keywords)
    aliases: tuple = ()         # its Alias flags
    lr: str | None = None       # the key a first-epoch divergence names
    run_dir: bool = True        # False: no config and no output dir


_INIT = ("--init", dict(help="pretraining run dir or checkpoint"))
_PREDICTIONS = ("--predictions", dict(required=True))
_HEATMAPS = Alias("--heatmaps", "model.input_channels",
                  dict(metavar="DIR",
                       help="heatmap dir (enables 3-channel input)"), "3")

STAGES = (
    Stage("gen-data", "generate a phantom dataset", cmd_gen_data,
          data=False, jobs=True),
    Stage("train-patch", "train the patch classifier", cmd_train_patch,
          flags=(("--cache", dict(help="patch cache file to reuse or "
                                       "create")),),
          aliases=(Alias("--patch-size", "patch.size", dict(type=int)),
                   Alias("--epochs", "patch.epochs", dict(type=int)),
                   Alias("--save-every", "patch.save_every",
                         dict(type=int))),
          lr="patch.lr"),
    Stage("gen-heatmaps", "slide the patch model over every image",
          cmd_gen_heatmaps, jobs=True,
          flags=(("--checkpoint", dict(required=True)),)),
    Stage("pretrain-birads", "pretrain on the 3-way assessment task",
          cmd_pretrain_birads, lr="train.lr"),
    Stage("train-cancer", "train the multi-view model", cmd_train_cancer,
          flags=(_INIT,), aliases=(_HEATMAPS,), lr="train.lr"),
    Stage("ensemble", "train an ensemble of models", cmd_ensemble,
          flags=(_INIT,),
          aliases=(Alias("--members", "train.ensemble_size",
                         dict(type=_count)), _HEATMAPS),
          lr="train.lr"),
    Stage("predict", "write per-breast predictions", cmd_predict, jobs=True,
          flags=(("--run", dict(required=True,
                                help="training run directory")),
                 ("--ensemble", dict(action="store_true",
                                     help="average the run's ensemble "
                                          "members")),
                 ("--split", dict(default="test",
                                  choices=SPLITS)),
                 ("--heatmaps", {}), ("--model-id", {}))),
    Stage("evaluate", "metrics over test populations", cmd_evaluate,
          flags=(_PREDICTIONS,),
          aliases=(Alias("--population", "eval.population",
                         dict(choices=("all",) + POPULATIONS)),)),
    Stage("reader-study", "simulated readers and hybrids", cmd_reader_study,
          flags=(_PREDICTIONS,)),
    Stage("report", "aggregate metrics into a text table", cmd_report,
          data=False, run_dir=False,
          flags=(("--out", {}),
                 ("metrics", dict(nargs="+", help="metrics.csv files")))),
)


def build_parser():
    parser = CliParser(prog="mscope",
                       description="phantom screening-classifier pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES:
        p = sub.add_parser(stage.name, help=stage.help)
        p.set_defaults(stage=stage)
        if stage.run_dir:
            p.add_argument("--config", help="flat key=value config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override one config key")
            p.add_argument("--profile", choices=cfgmod.PROFILES)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out", required=True, help="output directory")
            p.add_argument("--force", action="store_true",
                           help="overwrite an existing output directory")
        if stage.data:
            p.add_argument("--data", help="dataset directory "
                                          "(default: $MSCOPE_DATA_DIR)")
        if stage.jobs:
            p.add_argument("--jobs", type=_count, default=1,
                           help="threads of one BLAS thread each, capped "
                                "at the usable cores; same outputs at any "
                                "count")
        for flag, kwargs in stage.flags:
            p.add_argument(flag, **kwargs)
        for alias in stage.aliases:
            p.add_argument(alias.flag, **alias.kwargs)
    return parser


def _overrides(args, stage):
    """``--set``, then ``--profile``, then the row's alias flags, as one
    dict of config overrides."""
    out = {}
    for pair in args.set or ():
        if "=" not in pair:
            raise UserError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    if args.profile:
        out["profile"] = args.profile
    for alias in stage.aliases:
        given = getattr(args, alias.flag[2:].replace("-", "_"))
        if given is not None:
            out[alias.key] = str(given) if alias.value is None else alias.value
    return out


def _run_stage(stage, args):
    """Run one row that writes a run directory (see the module doc)."""
    cfg = cfgmod.load(args.config, _overrides(args, stage))
    data = records = None
    if stage.data:
        data = _data_dir(args)
        records = load_manifest(data / "manifest.csv")
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise UserError(f"{out} exists; pass --force to overwrite")
    # the topmost directory this run makes: a failed run removes it again
    made = next((d for d in (*reversed(out.parents), out) if not d.exists()),
                None)
    out.mkdir(parents=True, exist_ok=True)
    try:
        summary = stage.body(args, cfg, out, data, records)
    except BaseException as exc:
        if made:
            shutil.rmtree(made)
        # a trainer that diverges in its first epoch has a learning rate
        # too high for the data: a user error naming the row's lr key
        if isinstance(exc, NumericsError) and stage.lr:
            raise UserError(f"{exc}; lower {stage.lr} (now "
                            f"{cfg[stage.lr]:g})") from exc
        raise
    cfg.dump(out / "config.txt")
    print(summary)
    return 0


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _run_stage(args.stage, args) if args.stage.run_dir \
            else args.stage.body(args)
    except (UserError, ConfigError, MetricError, GeneratorError, FormatError,
            StateDictError, EmptyPoolError, SplitError, FileNotFoundError,
            NotADirectoryError, IsADirectoryError) as exc:
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
