import hashlib
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from mscope import config as cfgmod
from mscope.cli import main

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


def test_predict_ensemble_members(pipeline, tmp_path):
    out = tmp_path / "pred_ens"
    assert main(["predict", "--data", str(pipeline["data"]), "--run",
                 str(pipeline["ens"]), "--ensemble", "--out", str(out),
                 "--seed", "5", "--model-id", "ens", *sets()]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert len(lines) == 21


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


def test_jobs_2_outputs_equal_jobs_1(pipeline, tmp_path):
    """gen-data, gen-heatmaps and predict write the same bytes with two
    worker processes as with one."""
    p = pipeline
    runs = {
        "data": ["gen-data"],
        "heatmaps": ["gen-heatmaps", "--data", str(p["data"]),
                     "--checkpoint", str(p["patch"] / "best.ckpt")],
        "pred": ["predict", "--data", str(p["data"]), "--run",
                 str(p["cancer"]), "--model-id", "image_only"],
    }
    for key, argv in runs.items():
        out = tmp_path / key
        assert main([*argv, "--out", str(out), "--seed", "5", "--jobs", "2",
                     *sets()]) == 0, key
        assert tree_hash(out) == tree_hash(p[key]), key


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
    "manifest-header": ("manifest.csv", 0, _set_field(6, "left_cancer")),
    "manifest-label": ("manifest.csv", 1, _set_field(6, "2")),
    "manifest-flag": ("manifest.csv", 1, _set_field(9, "x")),
    "manifest-birads": ("manifest.csv", 1, _set_field(13, "9")),
    "manifest-short-row": ("manifest.csv", 1, lambda fields: fields[:-1]),
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
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, "--data", str(data), "--predictions", str(preds),
                 "--out", str(tmp_path / "o"), "--seed", "5", *sets()]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    if line:
        assert f"line {line + 1}" in err


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
    assert str(ckpt) in err and "missing column entry 'cc_column." in err


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
    assert str(victim) in err and "truncated" in err and "at byte 16" in err
