import hashlib
import itertools
import os
import shutil
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mscope import cli, heatmaps, layers, multiview, patches, phantom
from mscope import training
from mscope import config as cfgmod
from mscope.checkpoint import load_checkpoint, save_checkpoint
from mscope.cli import main
from mscope.evaluation import PREDICTIONS_HEADER, read_predictions, roc_auc
from mscope.formats import Reader
from mscope.heatmaps import heatmap_path, load_heatmap, save_heatmap
from mscope.patches import load_patch_cache
from mscope.phantom import load_manifest
from mscope.seeding import _openblas

# tiny-profile overrides: everything small enough for seconds-long runs
TINY_SETS = [
    "data.exams=40", "data.cc_height=64", "data.cc_width=48",
    "data.mlo_height=72", "data.mlo_width=44",
    "data.biopsied_fraction=0.5", "data.malignant_fraction=0.5",
    "data.occult_fraction=0.1", "data.split_train=0.5",
    "data.split_val=0.25", "data.split_test=0.25",
    "patch.size=16", "patch.side_min=8", "patch.side_max=24",
    "patch.plan=10,10,40,40", "patch.pool_targets=30,30,80,80",
    "patch.epochs=4", "patch.save_every=2", "patch.batch_size=20",
    "patch.lr=1e-3", "patch.select_exams=6",
    "heatmap.stride=8",
    "train.lr=3e-4", "train.patience=2", "train.max_epochs=2",
    "train.max_offset=2", "train.tta_samples=2",
    "train.birads_epoch_exams=10", "train.epoch_exams=8",
    "eval.readers=3", "eval.reader_auc_low=0.75", "eval.reader_auc_high=0.8",
]


def sets(extra=()):
    out = []
    for kv in list(TINY_SETS) + list(extra):
        out.extend(["--set", kv])
    return out


def tree_hash(root):
    digest = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            digest.update(str(p.relative_to(root)).encode())
            digest.update(p.read_bytes())
    return digest.hexdigest()


# -- config machinery --

def test_profiles_differ():
    desk = cfgmod.resolve()
    paper = cfgmod.resolve(overrides={"profile": "paper"})
    assert desk["patch.size"] == 64
    assert paper["patch.size"] == 256
    assert paper["data.cc_height"] == 2677
    assert desk["train.lr"] != paper["train.lr"]
    assert paper["train.lr"] == pytest.approx(1e-5)
    assert desk["train.l2"] == pytest.approx(10 ** -4.5)


def test_unknown_key_rejected():
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.resolve(overrides={"data.bananas": "3"})


def test_bad_value_rejected():
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.resolve(overrides={"data.exams": "many"})


def test_file_and_override_precedence(tmp_path):
    cfg_file = tmp_path / "c.txt"
    cfg_file.write_text("# comment\ndata.exams=100\npatch.size=32\n")
    cfg = cfgmod.load(cfg_file, {"patch.size": "48"})
    assert cfg["data.exams"] == 100
    assert cfg["patch.size"] == 48


def test_dump_roundtrip(tmp_path):
    cfg = cfgmod.resolve(overrides={"data.exams": "7"})
    path = tmp_path / "resolved.txt"
    cfg.dump(path)
    again = cfgmod.load(path)
    assert again.values == cfg.values


# -- CLI basics --

def test_unknown_flag_exits_1(capsys):
    assert main(["gen-data", "--frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_subcommand_exits_1():
    assert main(["explode"]) == 1


def test_missing_data_dir_is_user_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MSCOPE_DATA_DIR", raising=False)
    assert main(["train-patch", "--out", str(tmp_path / "o")]) == 1


def test_refuses_existing_out_without_force(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen-data", "--out", str(out), "--seed", "1",
                 *sets(("data.exams=2",))]) == 0
    assert main(["gen-data", "--out", str(out), "--seed", "1",
                 *sets(("data.exams=2",))]) == 1
    assert "exists" in capsys.readouterr().err
    assert main(["gen-data", "--out", str(out), "--seed", "1", "--force",
                 *sets(("data.exams=2",))]) == 0


# -- full tiny pipeline --

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every subcommand once on a tiny dataset; return all paths."""
    root = tmp_path_factory.mktemp("pipe")
    paths = {
        "data": root / "data", "patch": root / "patch",
        "heatmaps": root / "heatmaps", "birads": root / "birads",
        "cancer": root / "cancer", "cancer_hm": root / "cancer_hm",
        "ens": root / "ens",
        "pred": root / "pred", "pred_hm": root / "pred_hm",
        "eval": root / "eval", "reader": root / "reader",
    }
    def call(argv):
        assert main(argv) == 0, argv
    call(["gen-data", "--out", str(paths["data"]), "--seed", "5", *sets()])
    call(["train-patch", "--data", str(paths["data"]), "--out",
          str(paths["patch"]), "--seed", "5", *sets()])
    call(["gen-heatmaps", "--data", str(paths["data"]), "--out",
          str(paths["heatmaps"]), "--checkpoint",
          str(paths["patch"] / "best.ckpt"), "--seed", "5", *sets()])
    call(["pretrain-birads", "--data", str(paths["data"]), "--out",
          str(paths["birads"]), "--seed", "5", *sets()])
    call(["train-cancer", "--data", str(paths["data"]), "--out",
          str(paths["cancer"]), "--seed", "5", "--init",
          str(paths["birads"]), *sets()])
    call(["train-cancer", "--data", str(paths["data"]), "--out",
          str(paths["cancer_hm"]), "--seed", "5", "--init",
          str(paths["birads"]), "--heatmaps", str(paths["heatmaps"]),
          *sets()])
    call(["ensemble", "--data", str(paths["data"]), "--out",
          str(paths["ens"]), "--seed", "5", "--members", "2", "--init",
          str(paths["birads"]), *sets()])
    call(["predict", "--data", str(paths["data"]), "--run",
          str(paths["cancer"]), "--out", str(paths["pred"]), "--seed", "5",
          "--model-id", "image_only", *sets()])
    call(["predict", "--data", str(paths["data"]), "--run",
          str(paths["cancer_hm"]), "--out", str(paths["pred_hm"]),
          "--seed", "5", "--heatmaps", str(paths["heatmaps"]),
          "--model-id", "image_and_heatmaps", *sets()])
    call(["evaluate", "--data", str(paths["data"]), "--predictions",
          str(paths["pred"] / "predictions.csv"), "--out",
          str(paths["eval"]), "--seed", "5", *sets()])
    call(["reader-study", "--data", str(paths["data"]), "--predictions",
          str(paths["pred"] / "predictions.csv"), "--out",
          str(paths["reader"]), "--seed", "5", *sets()])
    return paths


def test_pipeline_artifacts(pipeline):
    p = pipeline
    assert (p["data"] / "manifest.csv").exists()
    assert (p["patch"] / "best.ckpt").exists()
    assert (p["patch"] / "selection.csv").exists()
    assert len(list(p["heatmaps"].glob("*.mshm"))) == 40 * 4
    assert (p["birads"] / "best.ckpt").exists()
    assert (p["cancer"] / "log.csv").exists()
    assert (p["ens"] / "members" / "m1.ckpt").exists()
    preds = (p["pred"] / "predictions.csv").read_text().splitlines()
    assert preds[0] == "exam_id,side,p_malignant,p_benign,model_id"
    assert len(preds) == 1 + 2 * 10  # 10 test exams
    # every run directory carries its resolved config
    for key in ("patch", "birads", "cancer", "ens", "pred", "eval"):
        assert (p[key] / "config.txt").exists()
    for key in ("data", "heatmaps", "reader"):
        assert (p[key] / "config.txt").exists()


def test_metrics_rows_present(pipeline):
    text = (pipeline["eval"] / "metrics.csv").read_text().splitlines()
    assert text[0] == "model_id,population,task,metric,value"
    rows = [line.split(",") for line in text[1:]]
    combos = {(r[1], r[2], r[3]) for r in rows}
    assert ("screening", "malignant", "auc") in combos
    assert ("screening", "benign", "auc") in combos
    assert ("biopsied", "malignant", "auc") in combos
    assert ("screening", "biopsy", "auc") in combos
    curves = list((pipeline["eval"] / "curves").glob("*.csv"))
    assert curves


def test_reader_study_outputs(pipeline):
    lines = (pipeline["reader"] / "reader_metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # 3 readers
    sweep = (pipeline["reader"] / "sweep.csv").read_text().splitlines()
    assert len(sweep) == 1 + 3 * 100


def test_report_table(pipeline, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["report", "--out", str(out),
                 str(pipeline["eval"] / "metrics.csv")]) == 0
    text = out.read_text()
    assert "screening population" in text
    assert "malignant" in text


@pytest.mark.parametrize("flag", ["--checkpoint", "--predictions",
                                  "--config", "report"])
def test_a_directory_where_a_file_goes_exits_1(pipeline, tmp_path, capsys,
                                               flag):
    """A directory given for a checkpoint, predictions, config or metrics
    file is a user error naming it, not an internal error."""
    p = pipeline
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {
        "--checkpoint": ["gen-heatmaps", "--checkpoint", str(folder)],
        "--predictions": ["evaluate", "--predictions", str(folder)],
        "--config": ["gen-heatmaps", "--config", str(folder),
                     "--checkpoint", str(p["patch"] / "best.ckpt")],
        "report": ["report", str(folder)],
    }[flag]
    if flag != "report":
        argv += ["--data", str(p["data"]), "--out", str(tmp_path / "o"),
                 "--seed", "5", *sets()]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(folder) in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, line", [
    ("a,b\n1,2\n", None),
    ("model_id,population,task,metric,value\n"
     "m,screening,malignant,auc,0.5\nm,screening,benign,auc,oops\n", 3),
    ("model_id,population,task,metric,value\nm,screening,malignant,auc\n",
     2),
], ids=["header", "value-not-a-number", "short-row"])
def test_report_malformed_metrics_exits_1(tmp_path, capsys, text, line):
    path = tmp_path / "metrics.csv"
    path.write_text(text)
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "internal error" not in err
    if line is not None:
        assert f"line {line}" in err


def test_evaluate_single_population(pipeline, tmp_path):
    out = tmp_path / "ev2"
    assert main(["evaluate", "--data", str(pipeline["data"]),
                 "--predictions",
                 str(pipeline["pred"] / "predictions.csv"),
                 "--out", str(out), "--population", "biopsied",
                 "--seed", "5", *sets()]) == 0
    rows = (out / "metrics.csv").read_text()
    assert "biopsied,malignant,auc" in rows
    assert "screening" not in rows
    assert cfgmod.load(out / "config.txt")["eval.population"] == "biopsied"


def test_predict_ensemble_members(pipeline, tmp_path):
    out = tmp_path / "pred_ens"
    assert main(["predict", "--data", str(pipeline["data"]), "--run",
                 str(pipeline["ens"]), "--ensemble", "--out", str(out),
                 "--seed", "5", "--model-id", "ens", *sets()]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert len(lines) == 21


def test_predict_ensemble_reads_only_the_members_run(pipeline, tmp_path):
    """``ensemble --members 1 --force`` over a 2-member run dir leaves a
    stale ``m1.ckpt``; ``predict --ensemble`` must average the one member
    the run's config.txt records, which is also its ``best.ckpt``."""
    run = tmp_path / "ens"
    shutil.copytree(pipeline["ens"], run)
    assert main(["ensemble", "--data", str(pipeline["data"]), "--out",
                 str(run), "--force", "--seed", "5", "--members", "1",
                 "--init", str(pipeline["birads"]), *sets()]) == 0
    assert (run / "members" / "m1.ckpt").exists()
    outs = {}
    for key, flags in (("members", ["--ensemble"]), ("best", [])):
        outs[key] = tmp_path / key
        assert main(["predict", "--data", str(pipeline["data"]), "--run",
                     str(run), "--out", str(outs[key]), "--seed", "5",
                     "--model-id", "ens", *flags, *sets()]) == 0
    assert (outs["members"] / "predictions.csv").read_bytes() == \
        (outs["best"] / "predictions.csv").read_bytes()


def test_predict_ensemble_missing_member_exits_1(pipeline, tmp_path, capsys):
    run = tmp_path / "ens"
    shutil.copytree(pipeline["ens"], run)
    (run / "members" / "m1.ckpt").unlink()
    capsys.readouterr()
    assert main(["predict", "--data", str(pipeline["data"]), "--run",
                 str(run), "--ensemble", "--out", str(tmp_path / "o"),
                 "--seed", "5", *sets()]) == 1
    assert str(run / "members" / "m1.ckpt") in capsys.readouterr().err


@pytest.mark.parametrize("model_id, from_flag", [
    ("run,1", True), ("a/b", True), ("two\nlines", True), ("run,1", False)])
def test_model_id_that_cannot_round_trip_exits_1(pipeline, tmp_path, capsys,
                                                 monkeypatch, model_id,
                                                 from_flag):
    """A model id holding ',', '/' or a line break, given by --model-id or
    by the --run directory's name, would break its predictions.csv row or
    evaluate's curve file names: predict refuses it before any net loads,
    naming --model-id."""
    run = pipeline["cancer"]
    if not from_flag:
        run = tmp_path / model_id
        shutil.copytree(pipeline["cancer"], run)
    monkeypatch.setattr(cli, "load_into",
                        lambda *_: pytest.fail("a net was loaded"))
    argv = ["predict", "--data", str(pipeline["data"]), "--run", str(run),
            "--out", str(tmp_path / "o"), "--seed", "5", *sets()]
    capsys.readouterr()
    assert main(argv + (["--model-id", model_id] if from_flag else [])) == 1
    err = capsys.readouterr().err
    assert repr(model_id) in err and "--model-id" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("run", [".", "/"])
def test_model_id_of_a_run_path_with_no_name_of_its_own(
        pipeline, tmp_path, capsys, monkeypatch, run):
    """Without --model-id, predict names its model after the --run
    directory taken as an absolute path: ``.`` inside the run directory
    gives that directory's name, and ``/``, which has none, exits 1
    naming --model-id."""
    monkeypatch.chdir(pipeline["cancer"])
    out = tmp_path / "o"
    capsys.readouterr()
    code = main(["predict", "--data", str(pipeline["data"]), "--run", run,
                 "--out", str(out), "--seed", "5", *sets()])
    if run == "/":
        assert code == 1 and "--model-id" in capsys.readouterr().err
        assert not out.exists()
        return
    assert code == 0
    named = (pipeline["pred"] / "predictions.csv").read_text() \
        .replace(",image_only\n", ",cancer\n")
    assert (out / "predictions.csv").read_text() == named


@pytest.mark.parametrize("command", ["evaluate", "reader-study"])
def test_predictions_without_rows_exit_1(pipeline, tmp_path, capsys,
                                         command):
    """A header-only predictions file has nothing to score: evaluate and
    reader-study exit 1 naming it, and write no output."""
    preds = tmp_path / "predictions.csv"
    preds.write_text(PREDICTIONS_HEADER + "\n")
    capsys.readouterr()
    assert main([command, "--data", str(pipeline["data"]),
                 "--predictions", str(preds), "--out", str(tmp_path / "o"),
                 "--seed", "5", *sets()]) == 1
    assert f"{preds}: no prediction rows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_reader_study_on_two_models_exits_1_naming_them(pipeline, tmp_path,
                                                        capsys):
    """reader-study scores one model: on a file holding two it exits 1
    naming both, where evaluate scores each of them."""
    preds = tmp_path / "predictions.csv"
    rows = [line for key in ("pred", "pred_hm") for line in
            (pipeline[key] / "predictions.csv").read_text().splitlines()[1:]]
    preds.write_text("\n".join([PREDICTIONS_HEADER, *rows]) + "\n")
    argv = ["--data", str(pipeline["data"]), "--predictions", str(preds),
            "--seed", "5", *sets()]
    capsys.readouterr()
    assert main(["reader-study", *argv, "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "image_and_heatmaps" in err and "image_only" in err
    assert main(["evaluate", *argv, "--out", str(tmp_path / "e")]) == 0
    models = {line.split(",")[0] for line in
              (tmp_path / "e" / "metrics.csv").read_text().splitlines()[1:]}
    assert models == {"image_and_heatmaps", "image_only"}


def test_oihw_checkpoint_exits_1_naming_first_conv(pipeline, tmp_path, capsys):
    """A checkpoint whose conv kernels are (Cout, Cin, kh, kw), the layout
    before kernels became (kh, kw, Cin, Cout), does not fit: gen-heatmaps
    and predict exit 1, naming the file and the first conv key."""
    def oihw(src, dst):
        state = load_checkpoint(src)
        save_checkpoint(dst, {k: v.transpose(3, 2, 0, 1) if v.ndim == 4
                              else v for k, v in state.items()})

    patch = tmp_path / "patch.ckpt"
    oihw(pipeline["patch"] / "best.ckpt", patch)
    run = tmp_path / "cancer"
    shutil.copytree(pipeline["cancer"], run)
    oihw(pipeline["cancer"] / "best.ckpt", run / "best.ckpt")
    cases = [
        (["gen-heatmaps", "--data", str(pipeline["data"]), "--checkpoint",
          str(patch)], patch, "'conv1.weight'"),
        (["predict", "--data", str(pipeline["data"]), "--run", str(run)],
         run / "best.ckpt", "'cc_column.stem.weight'"),
    ]
    for i, (argv, ckpt, key) in enumerate(cases):
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / f"o{i}"), "--seed", "5",
                     *sets()]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and key in err and "shape mismatch" in err


def test_rerun_reproducibility(pipeline, tmp_path):
    """Identical config+seed reruns produce byte-identical outputs."""
    p = pipeline
    twin = tmp_path / "data2"
    assert main(["gen-data", "--out", str(twin), "--seed", "5", *sets()]) == 0
    assert tree_hash(twin) == tree_hash(p["data"])

    twin_pred = tmp_path / "pred2"
    assert main(["predict", "--data", str(p["data"]), "--run",
                 str(p["cancer"]), "--out", str(twin_pred), "--seed", "5",
                 "--model-id", "image_only", *sets()]) == 0
    assert (twin_pred / "predictions.csv").read_bytes() == \
        (p["pred"] / "predictions.csv").read_bytes()

    # the three trainers: checkpoints, logs and selection tables
    reruns = {
        "patch": ["train-patch"],
        "birads": ["pretrain-birads"],
        "cancer": ["train-cancer", "--init", str(p["birads"])],
    }
    for key, argv in reruns.items():
        out = tmp_path / f"{key}2"
        assert main([argv[0], "--data", str(p["data"]), "--out", str(out),
                     "--seed", "5", *argv[1:], *sets()]) == 0, key
        assert tree_hash(out) == tree_hash(p[key]), key


@pytest.mark.parametrize("command,key", [
    ("train-patch", "patch.lr"), ("pretrain-birads", "train.lr"),
    ("train-cancer", "train.lr"), ("ensemble", "train.lr")])
def test_first_epoch_divergence_names_lr(pipeline, tmp_path, capsys, command,
                                          key):
    """A learning rate that diverges at once is a config error: exit 1 and
    name the key, not the exit-2 internal-error path."""
    argv = [command, "--data", str(pipeline["data"]), "--out",
            str(tmp_path / "o"), "--seed", "5", *sets((f"{key}=1e30",))]
    if command == "ensemble":
        argv += ["--members", "2"]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert key in err and "diverged" in err


def _record_threads(monkeypatch, owner, name, where):
    """Append the thread of every call of ``owner.name`` to ``where``."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        where.append(threading.get_ident())
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, spy)


def test_jobs_2_outputs_equal_jobs_1(pipeline, tmp_path, monkeypatch):
    """gen-data, gen-heatmaps and predict write the same bytes on two
    threads as on one. The threads share each net read-only: only the
    calling thread switches a net's mode (``Module.train``), once, before
    the map. Every view of an exam, its heatmaps and its column calls,
    runs on its exam's thread: two threads in all, never a third."""
    p = pipeline
    switched = []                       # the thread of each Module.train
    exams, views = [], []               # the threads of exam and view calls
    _record_threads(monkeypatch, layers.Module, "train", switched)
    for name in ("heatmaps_for_exam", "ensemble_predict"):
        _record_threads(monkeypatch, cli, name, exams)
    _record_threads(monkeypatch, heatmaps, "generate_heatmaps", views)
    _record_threads(monkeypatch, multiview.ResNetColumn, "forward", views)
    runs = {
        "data": ["gen-data"],
        "heatmaps": ["gen-heatmaps", "--data", str(p["data"]),
                     "--checkpoint", str(p["patch"] / "best.ckpt")],
        "pred": ["predict", "--data", str(p["data"]), "--run",
                 str(p["cancer"]), "--model-id", "image_only"],
    }
    for key, argv in runs.items():
        out = tmp_path / key
        for seen in (switched, exams, views):
            seen.clear()
        assert main([*argv, "--out", str(out), "--seed", "5", "--jobs", "2",
                     *sets()]) == 0, key
        assert tree_hash(out) == tree_hash(p[key]), key
        assert set(switched) <= {threading.get_ident()}, key
        assert (key == "data") == (not switched) == (not views), key
        assert set(views) <= set(exams) and len(set(exams)) <= 2, key


@pytest.mark.skipif(
    _openblas() is None or len(os.sched_getaffinity(0)) < 2,
    reason="--jobs runs one thread without numpy's OpenBLAS or a 2nd core")
def test_jobs_run_exams_on_threads_of_one_blas_thread(pipeline, tmp_path,
                                                       monkeypatch):
    """--jobs 2 runs gen-heatmaps' and predict's exams on two threads of
    this process, with OpenBLAS on one thread inside and on its old count
    after; --jobs 8 runs on no more threads than there are usable cores.
    The first two exams wait for each other, so two threads must run; the
    threads switch every 10 us, and still write the --jobs 1 bytes."""
    p = pipeline
    runs = {   # output, the function that runs one exam, its stage
        "heatmaps": ("heatmaps_for_exam", [
            "gen-heatmaps", "--checkpoint", str(p["patch"] / "best.ckpt")]),
        "pred": ("ensemble_predict", [
            "predict", "--run", str(p["cancer"]), "--model-id",
            "image_only"]),
    }
    get_blas = _openblas()[0]
    before = get_blas()
    interval = sys.getswitchinterval()
    for key, (name, argv) in runs.items():
        for jobs in (2, 8):
            barrier = threading.Barrier(2, timeout=30)
            calls = itertools.count()
            seen = []

            def spy(*args, real=getattr(cli, name), **kwargs):
                seen.append((threading.get_ident(), get_blas()))
                if next(calls) < 2:
                    barrier.wait()
                return real(*args, **kwargs)
            out = tmp_path / f"{key}{jobs}"
            with monkeypatch.context() as m:
                m.setattr(cli, name, spy)
                sys.setswitchinterval(1e-5)
                try:
                    assert main([*argv, "--data", str(p["data"]), "--out",
                                 str(out), "--seed", "5", "--jobs",
                                 str(jobs), *sets()]) == 0
                finally:
                    sys.setswitchinterval(interval)
            ran_on, inside = map(set, zip(*seen))
            assert 2 <= len(ran_on) <= min(jobs, len(os.sched_getaffinity(0)))
            assert threading.get_ident() not in ran_on
            assert inside == {1} and get_blas() == before, (key, jobs)
            assert tree_hash(out) == tree_hash(p[key]), (key, jobs)


@pytest.mark.skipif(
    _openblas() is None or len(os.sched_getaffinity(0)) < 2
    or _openblas()[0]() < 2,
    reason="the views map onto one thread at one BLAS thread")
def test_checkpoint_selection_scores_views_on_two_threads(pipeline,
                                                          tmp_path,
                                                          monkeypatch):
    """train-patch's checkpoint selection makes each exam's heatmaps on
    worker threads of one BLAS thread, never on the calling thread, and
    writes the bytes of the pipeline's run."""
    get_blas = _openblas()[0]
    seen = []
    real = heatmaps.generate_heatmaps

    def spy(*args, **kwargs):
        seen.append((threading.get_ident(), get_blas()))
        return real(*args, **kwargs)
    monkeypatch.setattr(heatmaps, "generate_heatmaps", spy)
    out = tmp_path / "patch"
    assert main(["train-patch", "--data", str(pipeline["data"]), "--out",
                 str(out), "--seed", "5", *sets()]) == 0
    ran_on, inside = map(set, zip(*seen))
    assert len(ran_on) >= 2 and threading.get_ident() not in ran_on
    assert inside == {1}
    assert tree_hash(out) == tree_hash(pipeline["patch"])


def test_loaded_nets_draw_no_weights(pipeline, tmp_path, monkeypatch):
    """predict and gen-heatmaps build the nets they load unfilled: they
    draw no He-normal weights, and write the bytes that nets built with a
    seed and then loaded write."""
    p = pipeline
    runs = {
        "heatmaps": ["gen-heatmaps", "--data", str(p["data"]),
                     "--checkpoint", str(p["patch"] / "best.ckpt")],
        "pred": ["predict", "--data", str(p["data"]), "--run",
                 str(p["cancer"]), "--model-id", "image_only"],
    }
    drawn = layers.he_normal

    def no_draw(rng, *args):
        assert rng is None, "a net built to be loaded drew its weights"
        return drawn(rng, *args)

    def run(key, out):
        assert main([*runs[key], "--out", str(out), "--seed", "5",
                     *sets()]) == 0, key
        return tree_hash(out)

    with monkeypatch.context() as m:
        m.setattr(cli, "PatchNet", lambda patch_size, seed:
                  patches.PatchNet(patch_size, seed=0))
        m.setattr(cli, "MultiViewNet", lambda seed, **kw:
                  multiview.MultiViewNet(seed=0, **kw))
        seeded = {key: run(key, tmp_path / f"seeded_{key}") for key in runs}
    monkeypatch.setattr(layers, "he_normal", no_draw)
    for key in runs:
        assert run(key, tmp_path / key) == seeded[key], key


def test_every_alias_names_a_config_key():
    """An alias flag is one table entry mapping to one config key."""
    aliases = [a for stage in cli.STAGES for a in stage.aliases]
    assert {a.flag for a in aliases} == {
        "--patch-size", "--epochs", "--save-every", "--members",
        "--population", "--heatmaps"}
    for alias in aliases:
        assert alias.key in cfgmod.KEYS, alias.flag
        if alias.value is not None:
            cfgmod.resolve(overrides={alias.key: alias.value})


def test_config_txt_records_alias_flags(pipeline, tmp_path):
    """An alias flag overrides --set, the run uses its value, and the run's
    config.txt records that value."""
    p = pipeline
    ens = cfgmod.load(p["ens"] / "config.txt")
    members = sorted((p["ens"] / "members").glob("m*.ckpt"))
    assert ens["train.ensemble_size"] == len(members) == 2
    assert cfgmod.load(p["cancer_hm"] / "config.txt")[
        "model.input_channels"] == 3
    assert cfgmod.load(p["cancer"] / "config.txt")[
        "model.input_channels"] == 1

    out, cache = tmp_path / "patch", tmp_path / "patches.bin"
    assert main(["train-patch", "--data", str(p["data"]), "--out", str(out),
                 "--seed", "5", "--epochs", "2", "--save-every", "1",
                 "--patch-size", "16", "--cache", str(cache),
                 *sets(("patch.size=20",))]) == 0
    ran = cfgmod.load(out / "config.txt")
    assert (ran["patch.epochs"], ran["patch.save_every"],
            ran["patch.size"]) == (2, 1, 16)
    assert sorted(f.name for f in (out / "checkpoints").iterdir()) == \
        ["patch_ep0001.ckpt", "patch_ep0002.ckpt"]
    pixels, labels = load_patch_cache(cache, 16)
    assert 12 + 21 + pixels.nbytes + 13 + 4 * len(labels) == \
        cache.stat().st_size


def test_patch_cache_reuse_matches_a_run_without_it(pipeline, tmp_path,
                                                    capsys):
    """A cache written by one run and read by the next gives the
    checkpoints of a run without a cache; read at another patch size it
    exits 1 naming both sizes."""
    p = pipeline
    cache = tmp_path / "patches.bin"
    for run in ("write", "read"):
        assert main(["train-patch", "--data", str(p["data"]), "--out",
                     str(tmp_path / run), "--seed", "5", "--cache",
                     str(cache), *sets()]) == 0
        assert tree_hash(tmp_path / run / "checkpoints") == \
            tree_hash(p["patch"] / "checkpoints"), run
    capsys.readouterr()
    assert main(["train-patch", "--data", str(p["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5", "--cache", str(cache),
                 *sets(("patch.size=20",))]) == 1
    err = capsys.readouterr().err
    assert "patches are 16x16, but patch.size is 20" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("setting", ["data.biopsied_fraction=0",
                                     "data.malignant_fraction=0"])
def test_class_no_window_can_fill_exits_1(tmp_path, capsys, monkeypatch,
                                          setting):
    """Training data that gives no window of some class is a user error
    naming the class, not an internal error."""
    monkeypatch.setattr(patches, "MAX_ROUNDS", 3)
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--seed", "5",
                 *sets((setting,))]) == 0
    capsys.readouterr()
    assert main(["train-patch", "--data", str(data), "--out",
                 str(tmp_path / "o"), "--seed", "5", *sets()]) == 1
    err = capsys.readouterr().err
    assert "no malignant patches" in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", ["sampling", "cache"])
def test_class_left_empty_exits_1(pipeline, tmp_path, capsys, monkeypatch,
                                  source):
    """A class the records could give but sampling left empty, or that a
    cache lacks, is the same user error naming the class."""
    monkeypatch.setattr(patches, "MAX_ROUNDS", 0)
    cache = tmp_path / "patches.bin"
    if source == "cache":
        patches.save_patch_cache(cache, (np.zeros((3, 16, 16), np.float32),
                                         np.arange(3, dtype=np.uint8)))
    capsys.readouterr()
    assert main(["train-patch", "--data", str(pipeline["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5", "--cache", str(cache),
                 *sets()]) == 1
    out, err = capsys.readouterr()
    missing = {"sampling": "malignant", "cache": "negative"}[source]
    assert f"no {missing} patches" in err and "internal error" not in err
    assert ("train-patch: pools" in out) == (source == "sampling")
    assert not (tmp_path / "o").exists()


# command, the one bad config value; each exits 1 and names the key
BAD_CONFIG_VALUES = [
    ("train-cancer", "model.input_channels=2"),
    ("train-cancer", "model.variant=bogus"),
    ("pretrain-birads", "train.patience=0"),
    ("train-patch", "patch.save_every=0"),
    ("train-patch", "patch.plan=1,2,3"),
    ("train-patch", "patch.pool_targets=30,30,80,-1"),
    ("train-patch", "patch.plan=0,10,40,40"),
    ("train-patch", "patch.pool_targets=0,30,80,80"),
    ("reader-study", "eval.readers=0"),
    ("reader-study", "eval.hybrid_lambda=1.5"),
    ("evaluate", "eval.population=foo"),
    ("gen-heatmaps", "heatmap.stride=0"),
    ("ensemble", "model.input_channels=3"),     # without --heatmaps
]


@pytest.mark.parametrize("command,setting", BAD_CONFIG_VALUES)
def test_bad_config_value_exits_1_naming_the_key(pipeline, tmp_path, capsys,
                                                 command, setting):
    p = pipeline
    extra = {"gen-heatmaps": ["--checkpoint", str(p["patch"] / "best.ckpt")],
             "reader-study": ["--predictions",
                              str(p["pred"] / "predictions.csv")],
             "evaluate": ["--predictions",
                          str(p["pred"] / "predictions.csv")],
             "ensemble": ["--members", "2"]}.get(command, [])
    capsys.readouterr()
    assert main([command, "--data", str(p["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5", *extra,
                 *sets((setting,))]) == 1
    err = capsys.readouterr().err
    assert setting.split("=")[0] in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--jobs", "0"], ["gen-data", "--jobs", "-2"],
    ["ensemble", "--members", "-1"], ["ensemble", "--members", "0"]])
def test_count_flags_below_1_exit_1(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "o"), *sets()]) == 1
    assert argv[1] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _set_field(col, value):
    return lambda fields: fields[:col] + [value] + fields[col + 1:]


# file, line index (0 = header), edit of that line's fields
GARBLED_INPUTS = {
    "predictions-header": ("predictions.csv", 0, _set_field(1, "view")),
    "probability-text": ("predictions.csv", 1, _set_field(2, "oops")),
    "probability-nan": ("predictions.csv", 1, _set_field(2, "nan")),
    "probability-above-1": ("predictions.csv", 1, _set_field(3, "1.5")),
    "side": ("predictions.csv", 1, _set_field(1, "X")),
    "short-row": ("predictions.csv", 1, lambda fields: fields[:-1]),
    "model-id-slash": ("predictions.csv", 1, _set_field(4, "a/b")),
    "manifest-header": ("manifest.csv", 0, _set_field(6, "left_cancer")),
    "manifest-label": ("manifest.csv", 1, _set_field(6, "2")),
    "manifest-flag": ("manifest.csv", 1, _set_field(9, "x")),
    "manifest-birads": ("manifest.csv", 1, _set_field(13, "9")),
    "manifest-short-row": ("manifest.csv", 1, lambda fields: fields[:-1]),
    "manifest-repeated-id": ("manifest.csv", 2, _set_field(0, "e00000")),
    "manifest-split": ("manifest.csv", 1, _set_field(2, "tst")),
    # bytes 0xff 0xfe, which no UTF-8 text holds
    "predictions-not-utf8": ("predictions.csv", 0,
                             _set_field(0, "exam_id\udcff\udcfe")),
    "manifest-not-utf8": ("manifest.csv", 0,
                          _set_field(0, "exam_id\udcff\udcfe")),
}


@pytest.mark.parametrize("command", ["evaluate", "reader-study"])
@pytest.mark.parametrize("case", sorted(GARBLED_INPUTS))
def test_garbled_evaluation_inputs_exit_1(pipeline, tmp_path, capsys,
                                          command, case):
    """A malformed predictions file or manifest is a user error that names
    the file (and the line of a bad row), not an internal error."""
    name, line, edit = GARBLED_INPUTS[case]
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(pipeline["data"] / "manifest.csv", data / "manifest.csv")
    preds = tmp_path / "predictions.csv"
    shutil.copy(pipeline["pred"] / "predictions.csv", preds)
    bad = data / name if name == "manifest.csv" else preds
    lines = bad.read_text().splitlines()
    lines[line] = ",".join(edit(lines[line].split(",")))
    bad.write_text("\n".join(lines) + "\n", errors="surrogateescape")
    capsys.readouterr()
    assert main([command, "--data", str(data), "--predictions", str(preds),
                 "--out", str(tmp_path / "o"), "--seed", "5", *sets()]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    if line:
        assert f"line {line + 1}" in err


@pytest.mark.parametrize("command", ["evaluate", "reader-study"])
def test_manifest_without_a_test_exam_exits_1(pipeline, tmp_path, capsys,
                                              command):
    """A manifest with no test-split exam leaves nothing to score: evaluate
    and reader-study exit 1 naming it, write no output, and do not advise
    drawing more breasts, which cannot help."""
    data = tmp_path / "data"
    data.mkdir()
    text = (pipeline["data"] / "manifest.csv").read_text()
    assert ",test," in text
    (data / "manifest.csv").write_text(text.replace(",test,", ",val,"))
    capsys.readouterr()
    assert main([command, "--data", str(data), "--predictions",
                 str(pipeline["pred"] / "predictions.csv"), "--out",
                 str(tmp_path / "o"), "--seed", "5", *sets()]) == 1
    err = capsys.readouterr().err
    assert f"{data / 'manifest.csv'} has no test-split exam" in err
    assert "eval.reader_biopsied" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("model_id", ['"q"', '"x'])
def test_quoted_model_id_round_trips(pipeline, tmp_path, model_id):
    """A model id with quotes, balanced or not, reads back as it was
    written, as no quoting applies: predict, then evaluate, gives the
    metrics of the pipeline's own run under that id."""
    pred, ev = tmp_path / "pred", tmp_path / "ev"
    assert main(["predict", "--data", str(pipeline["data"]), "--run",
                 str(pipeline["cancer"]), "--out", str(pred), "--seed", "5",
                 "--model-id", model_id, *sets()]) == 0
    assert main(["evaluate", "--data", str(pipeline["data"]),
                 "--predictions", str(pred / "predictions.csv"), "--out",
                 str(ev), "--seed", "5", *sets()]) == 0
    metrics = (ev / "metrics.csv").read_text()
    assert metrics == (pipeline["eval"] / "metrics.csv").read_text() \
        .replace("\nimage_only,", f"\n{model_id},")
    assert {line.split(",")[0] for line in metrics.splitlines()[1:]} == \
        {model_id}


def test_single_class_band_keeps_counts(pipeline, tmp_path):
    """A population with one class gets its n_pos/n_neg rows and no AUC."""
    lines = (pipeline["data"] / "manifest.csv").read_text().splitlines()
    col = {k: i for i, k in enumerate(lines[0].split(","))}
    findings = ("left_benign", "left_malignant", "right_benign",
                "right_malignant")
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        if fields[col["split"]] == "test" and \
                all(fields[col[k]] == "0" for k in findings):
            fields[col["age_band"]] = "90+"
            lines[i] = ",".join(fields)
            break
    else:
        pytest.fail("no test exam without findings")
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "ev"
    assert main(["evaluate", "--data", str(data), "--predictions",
                 str(pipeline["pred"] / "predictions.csv"), "--out", str(out),
                 "--population", "by_age", "--seed", "5", *sets()]) == 0
    rows = [r.split(",") for r in
            (out / "metrics.csv").read_text().splitlines()[1:]]
    band = {(r[2], r[3]): float(r[4]) for r in rows if r[1] == "age:90+"}
    assert band == {("malignant", "n_pos"): 0.0, ("malignant", "n_neg"): 2.0,
                    ("benign", "n_pos"): 0.0, ("benign", "n_neg"): 2.0}


def test_evaluate_survives_zero_probability_pair(pipeline, tmp_path):
    """A one-class biopsied breast predicted (0, 0) scores 0.5 in the
    malignant-vs-benign task instead of aborting evaluate."""
    preds = tmp_path / "predictions.csv"
    lines = (pipeline["pred"] / "predictions.csv").read_text().splitlines()
    hits = 0
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[:2] == ["e00012", "R"]:
            lines[i] = ",".join(fields[:2] + ["0.000000", "0.000000"]
                                + fields[4:])
            hits += 1
    assert hits == 1
    preds.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ev"
    assert main(["evaluate", "--data", str(pipeline["data"]),
                 "--predictions", str(preds), "--out", str(out),
                 "--seed", "5", *sets()]) == 0

    def populations(path):
        return {r.split(",")[1]
                for r in path.read_text().splitlines()[1:]}
    assert populations(out / "metrics.csv") == \
        populations(pipeline["eval"] / "metrics.csv")
    assert "one_class_biopsied" in populations(out / "metrics.csv")


def test_single_class_selection_exams_exit_1(pipeline, tmp_path, capsys):
    """Selection exams without a malignant breast: train-patch exits 1 and
    names patch.select_exams, instead of the exit-2 internal-error path."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    lines = (data / "manifest.csv").read_text().splitlines()
    col = {k: i for i, k in enumerate(lines[0].split(","))}
    cleared = ("left_benign", "left_malignant", "right_benign",
               "right_malignant", "left_biopsied", "right_biopsied")
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        if fields[col["split"]] == "val":
            for key in cleared:
                fields[col[key]] = "0"
            lines[i] = ",".join(fields)
    (data / "manifest.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train-patch", "--data", str(data), "--out",
                 str(tmp_path / "o"), "--seed", "5",
                 *sets(("patch.epochs=2",))]) == 1
    err = capsys.readouterr().err
    assert "patch.select_exams" in err and "single" in err


def test_checkpoint_that_does_not_fit_exits_1(pipeline, tmp_path, capsys):
    """A checkpoint of the wrong model, or with a bad magic, is a user
    error naming the file; a misfit also names the first key at fault."""
    bad_magic = tmp_path / "bad.ckpt"
    bad_magic.write_bytes(b"NOPE" + bytes(8))
    cases = [(pipeline["cancer"] / "best.ckpt", "'conv1.weight'"),
             (bad_magic, "bad magic")]
    for i, (ckpt, detail) in enumerate(cases):
        capsys.readouterr()
        assert main(["gen-heatmaps", "--data", str(pipeline["data"]),
                     "--out", str(tmp_path / f"o{i}"), "--checkpoint",
                     str(ckpt), "--seed", "5", *sets()]) == 1, ckpt
        err = capsys.readouterr().err
        assert str(ckpt) in err and detail in err


def test_init_from_wrong_checkpoint_exits_1(pipeline, tmp_path, capsys):
    """A PatchNet checkpoint has no column entries to transfer: train-cancer
    --init exits 1, naming the file and the first column key it lacks."""
    ckpt = pipeline["patch"] / "best.ckpt"
    capsys.readouterr()
    assert main(["train-cancer", "--data", str(pipeline["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5", "--init", str(ckpt),
                 *sets()]) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "missing parameter 'cc_column." in err


def test_truncated_heatmap_exits_1(pipeline, tmp_path, capsys):
    """A truncated input file is a user error naming the file and the byte
    offset where reading failed."""
    heatmaps = tmp_path / "heatmaps"
    shutil.copytree(pipeline["heatmaps"], heatmaps)
    victim = sorted(heatmaps.glob("*.mshm"))[0]
    victim.write_bytes(victim.read_bytes()[:40])
    capsys.readouterr()
    assert main(["predict", "--data", str(pipeline["data"]), "--run",
                 str(pipeline["cancer_hm"]), "--out", str(tmp_path / "o"),
                 "--seed", "5", "--heatmaps", str(heatmaps), *sets()]) == 1
    err = capsys.readouterr().err
    assert str(victim) in err and "truncated" in err and "at byte 32" in err


def _set_nan(path, name, index):
    """Set value ``index`` of array ``name`` of the container at ``path``
    to NaN, in place; return the NaN's byte offset."""
    blob = bytearray(path.read_bytes())
    reader = Reader(path)
    reader.arrays(bytes(blob[:4]), None)
    at = reader.payload[name] + 4 * index
    blob[at:at + 4] = struct.pack("<f", float("nan"))
    path.write_bytes(blob)
    return at


@pytest.mark.parametrize("case", ["predict", "init", "heatmaps", "cache",
                                  "gen-heatmaps"])
def test_non_finite_value_in_a_file_exits_1_naming_it(pipeline, tmp_path,
                                                      capsys, case):
    """One NaN in a multi-view checkpoint (read by ``predict`` or by
    ``train-cancer --init``), a heatmap plane, a patch cache or a patch
    checkpoint exits 1, naming the file, the array and the NaN's byte.
    Read as numbers, the checkpoints and the heatmap made their stage exit
    2, and the others blamed a learning rate."""
    p = pipeline
    if case == "gen-heatmaps":
        victim, name = tmp_path / "patch.ckpt", "conv1.weight"
        shutil.copy(p["patch"] / "best.ckpt", victim)
        argv = ["gen-heatmaps", "--checkpoint", str(victim)]
    elif case in ("predict", "init"):
        run = tmp_path / "run"
        shutil.copytree(p["cancer"], run)
        victim, name = run / "best.ckpt", "cc_column.stem.weight"
        argv = ["predict", "--run", str(run)] if case == "predict" else \
            ["train-cancer", "--init", str(run)]
    elif case == "heatmaps":
        heatmaps = tmp_path / "heatmaps"
        shutil.copytree(p["heatmaps"], heatmaps)
        first = next(r for r in load_manifest(p["data"] / "manifest.csv")
                     if r.split == "test")
        victim, name = heatmap_path(heatmaps, first, "lcc"), "benign"
        argv = ["predict", "--run", str(p["cancer_hm"]), "--heatmaps",
                str(heatmaps)]
    else:
        victim, name = tmp_path / "patches.bin", "pixels"
        patches.save_patch_cache(victim, (np.zeros((4, 16, 16), np.float32),
                                          np.arange(4, dtype=np.float32)))
        argv = ["train-patch", "--cache", str(victim)]
    at = _set_nan(victim, name, 5)
    capsys.readouterr()
    assert main([*argv, "--data", str(p["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5", *sets()]) == 1
    err = capsys.readouterr().err
    assert f"{victim}: tensor {name!r} holds a non-finite value at byte " \
        f"{at}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["gen-heatmaps", "train-patch"])
def test_stride_above_patch_exits_1_naming_both_keys(pipeline, tmp_path,
                                                     capsys, command):
    """A heatmap stride above the patch would leave pixels between windows
    uncovered: the config is refused before any work, naming both keys."""
    extra = ["--checkpoint", str(pipeline["patch"] / "best.ckpt")] \
        if command == "gen-heatmaps" else []
    capsys.readouterr()
    assert main([command, "--data", str(pipeline["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5", *extra,
                 *sets(("heatmap.stride=20",))]) == 1
    err = capsys.readouterr().err
    assert "heatmap.stride=20" in err and "patch.size=16" in err
    assert "internal error" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["gen-heatmaps", "train-patch"])
def test_patch_below_patchnet_minimum_exits_1_naming_the_key(
        pipeline, tmp_path, capsys, command):
    """PatchNet's stride-2 conv and two pools leave no pixel of a patch
    below ``patches.MIN_PATCH``: the config is refused before any work."""
    extra = ["--checkpoint", str(pipeline["patch"] / "best.ckpt")] \
        if command == "gen-heatmaps" else []
    capsys.readouterr()
    assert main([command, "--data", str(pipeline["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5", *extra,
                 *sets(("patch.size=6", "heatmap.stride=4"))]) == 1
    err = capsys.readouterr().err
    assert "'patch.size': '6'" in err
    assert f"at least {patches.MIN_PATCH}" in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["pretrain-birads", "train-cancer",
                                     "ensemble", "predict"])
def test_offset_that_could_empty_a_crop_exits_1_naming_the_key(
        pipeline, tmp_path, capsys, command):
    """A crop edge moves by up to train.max_offset, so 40 could leave no
    row of a 64x48 view: each stage that crops exits 1 naming the key, its
    value and the view's dims; predict reads it from the run's config."""
    p = pipeline
    extra, setting = {"ensemble": ["--members", "2"]}.get(command, []), \
        ("train.max_offset=40",)
    if command == "predict":
        run = tmp_path / "run"
        shutil.copytree(p["cancer"], run)
        text = (run / "config.txt").read_text()
        (run / "config.txt").write_text(
            text.replace("train.max_offset=2\n", "train.max_offset=40\n"))
        extra, setting = ["--run", str(run)], ()
    capsys.readouterr()
    assert main([command, "--data", str(p["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5", *extra,
                 *sets(setting)]) == 1
    err = capsys.readouterr().err
    assert "train.max_offset=40" in err and "64x48 view" in err
    assert "internal error" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("size,view,dims", [(64, "rcc", "(64, 48)"),
                                             (46, "rmlo", "(72, 44)")])
def test_image_smaller_than_patch_exits_1_before_any_window(
        pipeline, tmp_path, capsys, monkeypatch, size, view, dims):
    """gen-heatmaps with a patch wider than the images exits 1 naming the
    image file, its dims and patch.size, and classifies no window first:
    not even of the CC views, which a 46-pixel patch fits (the tiny CC
    views are 64x48, the MLO views 72x44)."""
    def classify(net, batch):
        raise AssertionError("a window was classified")
    monkeypatch.setattr(patches.PatchNet, "predict_proba", classify)
    capsys.readouterr()
    assert main(["gen-heatmaps", "--data", str(pipeline["data"]), "--out",
                 str(tmp_path / "o"), "--checkpoint",
                 str(pipeline["patch"] / "best.ckpt"), "--seed", "5",
                 *sets((f"patch.size={size}",))]) == 1
    err = capsys.readouterr().err
    assert str(pipeline["data"] / "images") in err and f"_{view}.pgm" in err
    assert dims in err and f"patch.size={size}" in err
    assert "internal error" not in err
    assert not (tmp_path / "o").exists()


def test_train_patch_image_smaller_than_patch_exits_1_before_training(
        pipeline, tmp_path, capsys):
    """train-patch checks its selection exams' dims before it builds pools:
    a patch wider than the 64x48 CC views exits 1 naming the image file,
    and no patch epoch runs."""
    capsys.readouterr()
    assert main(["train-patch", "--data", str(pipeline["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5",
                 *sets(("patch.size=64",))]) == 1
    out, err = capsys.readouterr()
    assert str(pipeline["data"] / "images") in err and "_rcc.pgm" in err
    assert "(64, 48)" in err and "patch.size=64" in err
    assert "patch epoch" not in out + err and "pools" not in out
    assert not (tmp_path / "o").exists()


def test_train_patch_decodes_each_selection_image_once(pipeline, tmp_path,
                                                      monkeypatch):
    """The up-front dims check of train-patch reads PGM headers only, so
    the 24 images of its 6 selection exams are decoded once each, at
    checkpoint selection (48 decodes when the check decoded them too)."""
    decoded = []
    read = phantom.read_pgm

    def counting_read(path):
        decoded.append(Path(path))
        return read(path)

    monkeypatch.setattr(phantom, "read_pgm", counting_read)
    assert main(["train-patch", "--data", str(pipeline["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5", *sets()]) == 0
    val = {r.exam_id for r in load_manifest(pipeline["data"] / "manifest.csv")
           if r.split == "val"}
    selection = [p for p in decoded if p.parent.name == "images"
                 and p.name.split("_")[0] in val]
    assert len(selection) == 24 and len(set(selection)) == 24


def test_heatmap_dims_not_the_images_exit_1(pipeline, tmp_path, capsys):
    """Heatmaps made on other image dims (72x48 planes for 64x48 CC
    views) exit 1 in predict and in train-cancer, naming the heatmap file
    and both shapes."""
    heatmaps = tmp_path / "heatmaps"
    heatmaps.mkdir()
    for path in pipeline["heatmaps"].glob("*cc.mshm"):
        save_heatmap(heatmaps / path.name, np.zeros((72, 48)),
                     np.zeros((72, 48)))
    for path in pipeline["heatmaps"].glob("*mlo.mshm"):
        shutil.copy(path, heatmaps / path.name)
    for i, argv in enumerate((["predict", "--run", str(pipeline["cancer_hm"])],
                              ["train-cancer"])):
        capsys.readouterr()
        out = tmp_path / f"o{i}"
        assert main([*argv, "--data", str(pipeline["data"]), "--out",
                     str(out), "--seed", "5", "--heatmaps", str(heatmaps),
                     *sets()]) == 1, argv
        err = capsys.readouterr().err
        assert str(heatmaps) in err and "cc.mshm" in err
        assert "(72, 48)" in err and "(64, 48)" in err
        assert "internal error" not in err
        assert not out.exists()


def test_heatmaps_and_cache_in_their_old_layouts_exit_1(pipeline, tmp_path,
                                                        capsys):
    """Heatmaps and a patch cache in the layouts they had before they were
    containers (a header of version, dims or patch size and count, then the
    raw values) exit 1 naming the file, not 2."""
    p = pipeline
    heatmaps = tmp_path / "heatmaps"
    heatmaps.mkdir()
    for path in p["heatmaps"].glob("*.mshm"):
        mal, ben = load_heatmap(path)
        (heatmaps / path.name).write_bytes(
            b"MSHM" + struct.pack("<III", 1, *mal.shape) + mal.tobytes()
            + ben.tobytes())
    cache = tmp_path / "patches.bin"
    cache.write_bytes(b"MSPC" + struct.pack("<III", 1, 16, 4)
                      + np.zeros((4, 16, 16), np.float32).tobytes()
                      + bytes(range(4)))
    for argv in (["predict", "--run", str(p["cancer_hm"]), "--heatmaps",
                  str(heatmaps)],
                 ["train-patch", "--cache", str(cache)]):
        capsys.readouterr()
        assert main([*argv, "--data", str(p["data"]), "--out",
                     str(tmp_path / "o"), "--seed", "5", *sets()]) == 1, argv
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "tensors, expected 2 at byte 8" in err


def test_pools_too_large_to_allocate_exit_1(pipeline, tmp_path, capsys):
    """Pool targets whose windows do not fit in memory (the paper profile
    asks for 1.2 TiB) exit 1 naming both keys. 10**16 windows per class of
    16x16 pass 2**63 bytes, so numpy refuses them without asking the OS."""
    targets = ",".join([str(10 ** 16)] * 4)
    assert main(["train-patch", "--data", str(pipeline["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5",
                 *sets((f"patch.pool_targets={targets}",))]) == 1
    err = capsys.readouterr().err
    assert f"patch.pool_targets={targets}" in err and "patch.size=16" in err
    assert "internal error" not in err


def test_failed_stage_removes_only_an_out_dir_it_made(pipeline, tmp_path,
                                                      capsys):
    """predict on a split with no exams fails after the output directory
    is made: the directories the run made go, one that was there stays."""
    data = tmp_path / "data"
    data.mkdir()
    lines = (pipeline["data"] / "manifest.csv").read_text().splitlines()
    split = lines[0].split(",").index("split")
    (data / "manifest.csv").write_text("".join(
        f"{line}\n" for line in lines if line.split(",")[split] != "test"))
    argv = ["predict", "--data", str(data), "--run", str(pipeline["cancer"]),
            "--seed", "5", *sets()]
    assert main([*argv, "--out", str(tmp_path / "made" / "pred")]) == 1
    assert "no exams in split 'test'" in capsys.readouterr().err
    assert not (tmp_path / "made").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "note.txt").write_text("mine")
    assert main([*argv, "--out", str(kept), "--force"]) == 1
    assert [p.name for p in kept.iterdir()] == ["note.txt"]


def test_reader_study_too_small_to_calibrate_exits_1(pipeline, tmp_path,
                                                      capsys):
    """A draw too small for the readers' AUC tolerance is a user error that
    names the keys setting the draw and the targets."""
    capsys.readouterr()
    assert main(["reader-study", "--data", str(pipeline["data"]),
                 "--predictions", str(pipeline["pred"] / "predictions.csv"),
                 "--out", str(tmp_path / "o"), "--seed", "5",
                 *sets(("eval.reader_biopsied=3", "eval.reader_clean=4"))]) \
        == 1
    err = capsys.readouterr().err
    assert "calibration failed" in err and "14 drawn breasts" in err
    for key in ("eval.reader_biopsied", "eval.reader_clean",
                "eval.reader_auc_low", "eval.reader_auc_high"):
        assert key in err
    assert not (tmp_path / "o").exists()


def test_biopsy_task_scores_the_larger_head(pipeline):
    """The screening population's biopsy task ranks each breast by the
    larger of its two probabilities against its biopsy flag."""
    records = {r.exam_id: r for r in load_manifest(pipeline["data"] /
                                                   "manifest.csv")}
    scores, labels = [], []
    for p in read_predictions(pipeline["pred"] / "predictions.csv"):
        scores.append(max(p.p_malignant, p.p_benign))
        labels.append(records[p.exam_id].biopsied(p.side))
    metrics = {tuple(r.split(",")[1:4]): r.split(",")[4] for r in
               (pipeline["eval"] / "metrics.csv").read_text().splitlines()}
    assert metrics["screening", "biopsy", "auc"] == \
        f"{roc_auc(scores, labels):.6f}"


# sha256 of trainer artifacts of the tiny pipeline (TINY_SETS, seed 5), as
# written before pretrain-birads and train-cancer shared one training body,
# by the number of threads OpenBLAS runs: a train step's GEMMs split their
# sums by it, so the checkpoints differ between one thread and two
LOG_DIGEST = "f9caac54d77c16cf5b118c13ad921d828d48efadc0ea381f06326bf1ef75acae"
PINNED_DIGESTS = {
    1: {("birads", "best.ckpt"): "81c1895f40ffbba52aeee0814533526c"
                                 "941c5e918c232c761217be6963fbdafa",
        ("cancer", "best.ckpt"): "4d0e45040fe952f478d6110e6a1e15e2"
                                 "1612f76f1eaf3a06762600203eb54c3c",
        ("cancer", "log.csv"): LOG_DIGEST},
    2: {("birads", "best.ckpt"):
        "eb0a771ec3bded65d0539ace5779eecccf052dab6fb632b832db89b0a31354c5",
        ("cancer", "best.ckpt"):
        "88d77d1e9242ad38f7a606be1c76f2f1de249b565acdb5e946f316bed29d81b4",
        ("cancer", "log.csv"): LOG_DIGEST},
}


@pytest.mark.parametrize("run,name", sorted(PINNED_DIGESTS[2]))
def test_trainer_artifacts_keep_their_bytes(pipeline, run, name):
    blas = _openblas()
    threads = blas[0]() if blas else None
    if threads not in PINNED_DIGESTS:
        pytest.fail(f"no trainer digests pinned for {threads} OpenBLAS "
                    f"threads; pinned: {sorted(PINNED_DIGESTS)}")
    digest = hashlib.sha256((pipeline[run] / name).read_bytes()).hexdigest()
    assert digest == PINNED_DIGESTS[threads][run, name]


def _data_with(pipeline, tmp_path, edit):
    """The tiny dataset with each manifest row, as a dict by column, passed
    through ``edit``; the images and masks are the pipeline's own."""
    data = tmp_path / "data"
    data.mkdir()
    for sub in ("images", "masks"):
        (data / sub).symlink_to(pipeline["data"] / sub)
    lines = (pipeline["data"] / "manifest.csv").read_text().splitlines()
    names = lines[0].split(",")
    rows = [dict(zip(names, line.split(","))) for line in lines[1:]]
    for row in rows:
        edit(row)
    (data / "manifest.csv").write_text("".join(
        ",".join(row) + "\n" for row in
        [names, *([row[n] for n in names] for row in rows)]))
    return data


def _move(split, to):
    def edit(row):
        if row["split"] == split:
            row["split"] = to
    return edit


def _clear_findings(split):
    """No finding and no biopsy in ``split``: its four labels have one
    class, and its epoch draw of biopsied exams is empty."""
    def edit(row):
        if row["split"] == split:
            for side in ("left", "right"):
                for flag in ("benign", "malignant", "biopsied", "occult"):
                    row[f"{side}_{flag}"] = "0"
    return edit


def _one_birads(row):
    if row["split"] == "val":
        row["birads"] = "1"


# command, manifest edit, the error's words
UNUSABLE_SPLITS = [
    ("pretrain-birads", _move("val", "test"), "no val exam"),
    ("train-cancer", _move("val", "test"), "no val exam"),
    ("pretrain-birads", _move("train", "test"), "no train exam"),
    ("train-cancer", _clear_findings("train"), "no biopsied train exam"),
    ("ensemble", _clear_findings("train"), "no biopsied train exam"),
    ("train-cancer", _clear_findings("val"), "no label had both classes"),
    ("pretrain-birads", _one_birads, "no label had both classes"),
]


@pytest.mark.parametrize("command,edit,words", UNUSABLE_SPLITS,
                         ids=[f"{c}-{w.replace(' ', '-')}"
                              for c, _, w in UNUSABLE_SPLITS])
def test_split_a_trainer_cannot_use_exits_1_before_any_step(
        pipeline, tmp_path, capsys, monkeypatch, command, edit, words):
    """A manifest that leaves a multi-view trainer no val exam, no exam
    for its epoch, or no two-class validation label exits 1 naming the
    fault before any training step, and leaves no output."""
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training, "_forward_batch", no_step)
    data = _data_with(pipeline, tmp_path, edit)
    argv = [command, "--data", str(data), "--out", str(tmp_path / "o"),
            "--seed", "5", *sets()]
    if command == "ensemble":
        argv += ["--members", "2"]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert words in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


def test_train_patch_without_val_exams_exits_1_before_training(
        pipeline, tmp_path, capsys):
    """With no val exam to select a checkpoint on, train-patch exits 1
    before its first epoch, naming patch.select_exams."""
    data = _data_with(pipeline, tmp_path, _move("val", "test"))
    capsys.readouterr()
    assert main(["train-patch", "--data", str(data), "--out",
                 str(tmp_path / "o"), "--seed", "5", *sets()]) == 1
    out, err = capsys.readouterr()
    assert "the 0 selection exams have a single malignant class" in err
    assert "patch.select_exams" in err and "patch epoch" not in out + err
    assert "train-patch: pools" not in out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("setting", [
    "data.birads_noise=1.0", "data.birads_noise=-0.1",
    "data.biopsied_fraction=1.5", "data.occult_fraction=2",
    "data.malignant_fraction=-1", "data.exams=-3",
    "data.lesion_max_frac=-0.1", "data.lesion_min_frac=0.2"])
def test_bad_dataset_value_exits_1_naming_the_key(tmp_path, capsys, setting):
    """A dataset value out of its range (a share outside [0, 1], a
    negative count, a lesion size range upside down) is refused before
    any exam is written."""
    capsys.readouterr()
    assert main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "5",
                 *sets((setting,))]) == 1
    err = capsys.readouterr().err
    assert setting.split("=")[0] in err and "internal error" not in err
    assert not (tmp_path / "d").exists()


def test_range_upside_down_exits_1_naming_both_keys(pipeline, tmp_path,
                                                    capsys):
    """``patch.side_max`` below the tiny ``patch.side_min`` of 8 is refused
    before any pool is drawn, naming both keys; ``rng.uniform`` made it
    exit 2."""
    capsys.readouterr()
    assert main(["train-patch", "--data", str(pipeline["data"]), "--out",
                 str(tmp_path / "o"), "--seed", "5",
                 *sets(("patch.side_max=1",))]) == 1
    err = capsys.readouterr().err
    assert "patch.side_min=8.0 exceeds patch.side_max=1.0" in err
    assert "internal error" not in err and not (tmp_path / "o").exists()


def test_config_file_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_bytes(b"data.exams=3\n# caf\xe9\n")
    assert main(["gen-data", "--config", str(path), "--out",
                 str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 at byte 18" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("table", ["manifest", "predictions", "metrics"])
def test_table_not_utf8_exits_1(pipeline, tmp_path, capsys, table):
    """A manifest, predictions or metrics table holding bytes that are not
    UTF-8 exits 1 naming the file and the byte."""
    source = {"manifest": pipeline["data"] / "manifest.csv",
              "predictions": pipeline["pred"] / "predictions.csv",
              "metrics": pipeline["eval"] / "metrics.csv"}[table]
    bad = tmp_path / table / source.name
    bad.parent.mkdir()
    blob = source.read_bytes()
    at = blob.index(b"\n") + 1                 # the first row's first byte
    bad.write_bytes(blob[:at] + b"\xff\xfe" + blob[at:])
    data = bad.parent if table == "manifest" else pipeline["data"]
    preds = bad if table == "predictions" else \
        pipeline["pred"] / "predictions.csv"
    argv = ["report", str(bad)] if table == "metrics" else \
        ["evaluate", "--data", str(data), "--predictions", str(preds),
         "--out", str(tmp_path / "o"), "--seed", "5", *sets()]
    capsys.readouterr()
    assert main(argv) == 1
    assert f"{bad}: not UTF-8 at byte {at}" in capsys.readouterr().err
