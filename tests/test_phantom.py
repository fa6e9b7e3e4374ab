import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mscope.config import resolve
from mscope.formats import FormatError
from mscope.pgm import read_pgm
from mscope import phantom
from mscope.phantom import (BreastSpec, ExamSpec, GeneratorError,
                            LesionSpec, VIEWS, assign_birads, build_population,
                            generate_dataset, load_manifest, mask_points,
                            render_exam)
from mscope.seeding import substream

TINY_CC = (64, 48)
TINY_MLO = (72, 44)
DESK = resolve().dataset_config()


def tiny_config(**kw):
    base = dict(exams=24, cc_dims=TINY_CC, mlo_dims=TINY_MLO,
                biopsied_fraction=0.25, malignant_fraction=0.5,
                occult_fraction=0.2, split_fractions=(0.5, 0.25, 0.25))
    base.update(kw)
    return replace(DESK, **base)


def exam_spec(left=None, right=None, density="scattered", seed=9):
    return ExamSpec(exam_id="e00000", patient_id="p00000", split="train",
                    age_band="50s", density=density,
                    left=left or BreastSpec(), right=right or BreastSpec(),
                    seed=seed, density_coupling=0.2)


def dataset_hash(root):
    """sha256 over the sorted relative paths and bytes of a tree's files."""
    digest = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            digest.update(str(p.relative_to(root)).encode())
            digest.update(p.read_bytes())
    return digest.hexdigest()


def test_zero_exams(tmp_path):
    records = generate_dataset(tiny_config(exams=0), seed=1, out_dir=tmp_path)
    assert records == []
    manifest = load_manifest(tmp_path / "manifest.csv")
    assert manifest == []
    assert list((tmp_path / "images").iterdir()) == []


def test_generation_deterministic(tmp_path):
    cfg = tiny_config(exams=10)
    generate_dataset(cfg, seed=5, out_dir=tmp_path / "a")
    generate_dataset(cfg, seed=5, out_dir=tmp_path / "b")
    assert dataset_hash(tmp_path / "a") == dataset_hash(tmp_path / "b")


def test_population_quotas():
    cfg = replace(DESK, exams=2000, biopsied_fraction=0.025,
                  malignant_fraction=0.17, occult_fraction=0.328)
    specs = build_population(cfg, seed=7)
    assert len(specs) == 2000
    biopsied = [s for s in specs if s.left.biopsied or s.right.biopsied]
    assert len(biopsied) == 50
    occult = [s for s in biopsied if s.left.occult or s.right.occult]
    assert len(occult) == 16
    malignant = [s for s in biopsied if s.left.malignant or s.right.malignant]
    assert abs(len(malignant) - round(50 * 0.17)) <= 0


def test_split_by_patient_and_ratios():
    cfg = replace(DESK, exams=400, multi_exam_fraction=0.3,
                  split_fractions=(0.5, 0.25, 0.25))
    specs = build_population(cfg, seed=3)
    by_patient = {}
    counts = {"train": 0, "val": 0, "test": 0}
    for s in specs:
        by_patient.setdefault(s.patient_id, set()).add(s.split)
        counts[s.split] += 1
    assert all(len(v) == 1 for v in by_patient.values())
    assert abs(counts["train"] - 200) <= 1
    assert abs(counts["val"] - 100) <= 1
    assert abs(counts["test"] - 100) <= 1


def test_weighted_draw_is_numpys_choice():
    """``_weighted`` gives the index ``Generator.choice(len(p), p=p)``
    gives and leaves the generator in the same state, for each of the
    planner's tables; if numpy changes ``choice``, this fails before any
    manifest changes silently."""
    for p, cdf in ((phantom._AGE_P, phantom._AGE_CDF),
                   (phantom._DENSITY_P, phantom._DENSITY_CDF),
                   (phantom._KIND_P, phantom._KIND_CDF)):
        for seed in range(10000):
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            assert phantom._weighted(ours, cdf) == numpys.choice(len(p), p=p)
            assert ours.bit_generator.state == numpys.bit_generator.state


# sha256 of repr(build_population(config, seed)), computed with the planner
# that built an exam stream for every exam and drew through Generator.choice
PLAN_DIGESTS = {
    "desk": ({}, 7,
             "966911917ad33284e949f3c1c80896146efd57655fef16b2f5fa8ee8453a368a"),
    "paper_eval": ({"profile": "paper", "data.exams": "10000",
                    "data.biopsied_fraction": "0.3"}, 31,
                   "87810adfaae60f402f9ff6a4102daacce08059fee5d044f5fe4a06214699cec0"),
    "bilateral_multi_exam": ({"data.exams": "3000",
                              "data.biopsied_fraction": "0.9",
                              "data.bilateral_fraction": "0.5",
                              "data.multi_exam_fraction": "0.5",
                              "data.both_fraction": "0.3",
                              "data.occult_fraction": "0.2"}, 3,
                             "0aa456f84f28c43e1096032e1c326ed114bd45f2c8900fdf045f04f54b30b4a8"),
}


@pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
def test_population_plan_bytes_pinned(name):
    overrides, seed, digest = PLAN_DIGESTS[name]
    specs = build_population(resolve(overrides=overrides).dataset_config(), seed)
    assert hashlib.sha256(repr(specs).encode()).hexdigest() == digest


# sha256 of a tiny gen-data tree (``dataset_hash``), computed with the
# renderer that built each view's silhouette, grid and vignette apart
TREE_DIGEST = ("a7d3eb09c281db40860e3fa36ac81f72"
               "b40e22a17b2b404018dd857c415cc893")


def test_dataset_bytes_pinned(tmp_path):
    """Images, masks and manifest of a tiny dataset with several lesions,
    a bilateral exam and occult findings stay byte for byte."""
    cfg = tiny_config(exams=12, biopsied_fraction=0.75, bilateral_fraction=0.5,
                      both_fraction=0.5, occult_fraction=0.25)
    records = generate_dataset(cfg, seed=4, out_dir=tmp_path)
    assert any(r.left_biopsied and r.right_biopsied for r in records)
    assert any(r.left_occult or r.right_occult for r in records)
    assert len(list((tmp_path / "masks").iterdir())) >= 8
    assert dataset_hash(tmp_path) == TREE_DIGEST


def test_render_no_lesions():
    images, masks = render_exam(exam_spec(), TINY_CC, TINY_MLO)
    assert masks == {}
    assert set(images) == set(VIEWS)
    for view, img in images.items():
        dims = TINY_MLO if view.endswith("mlo") else TINY_CC
        assert img.shape == dims
        assert img.dtype == np.uint16
        assert (img > 0).mean() >= 0.10


def test_render_right_mass_mask_consistency():
    lesion = LesionSpec(kind="mass", malignancy="malignant",
                        center=(0.45, 0.1), size_px=7.0, irregularity=0.8,
                        shape_seed=42)
    right = BreastSpec(malignant=1, biopsied=1, lesions=[lesion])
    _, masks = render_exam(exam_spec(right=right), TINY_CC, TINY_MLO)
    assert set(masks) == {("rcc", "malignant"), ("rmlo", "malignant")}
    cc_count = masks[("rcc", "malignant")].sum()
    mlo_count = masks[("rmlo", "malignant")].sum()
    assert cc_count > 0
    assert abs(cc_count - mlo_count) <= 0.2 * max(cc_count, mlo_count)


def test_render_occult_has_no_masks():
    lesion = LesionSpec(kind="mass", malignancy="malignant",
                        center=(0.4, 0.0), size_px=6.0, irregularity=0.7,
                        shape_seed=0)
    right = BreastSpec(malignant=1, biopsied=1, occult=1, lesions=[lesion])
    _, masks = render_exam(exam_spec(right=right), TINY_CC, TINY_MLO)
    assert masks == {}


def test_render_deterministic():
    lesion = LesionSpec(kind="calcification_cluster", malignancy="benign",
                        center=(0.5, -0.2), size_px=6.0, irregularity=0.3,
                        shape_seed=11)
    right = BreastSpec(benign=1, biopsied=1, lesions=[lesion])
    imgs1, _ = render_exam(exam_spec(right=right), TINY_CC, TINY_MLO)
    imgs2, _ = render_exam(exam_spec(right=right), TINY_CC, TINY_MLO)
    for v in VIEWS:
        np.testing.assert_array_equal(imgs1[v], imgs2[v])


def test_lesion_support_inside_breast():
    lesion = LesionSpec(kind="mass", malignancy="benign",
                        center=(0.6, 0.3), size_px=7.0, irregularity=0.2,
                        shape_seed=0)
    right = BreastSpec(benign=1, biopsied=1, lesions=[lesion])
    images, masks = render_exam(exam_spec(right=right), TINY_CC, TINY_MLO)
    for (view, _), m in masks.items():
        assert (images[view][m] > 0).all()


def test_manifest_matches_masks(tmp_path):
    cfg = tiny_config(exams=16, biopsied_fraction=0.5, occult_fraction=0.25)
    generate_dataset(cfg, seed=2, out_dir=tmp_path)
    for rec in load_manifest(tmp_path / "manifest.csv"):
        for side, views in (("L", ("lcc", "lmlo")), ("R", ("rcc", "rmlo"))):
            benign, malignant = rec.labels(side)
            occult = rec.left_occult if side == "L" else rec.right_occult
            for view in views:
                points = mask_points(tmp_path, rec, view)
                for malignancy, flag in (("benign", benign), ("malignant", malignant)):
                    ys, xs = points[malignancy]
                    assert len(ys) == len(xs)
                    if occult or not flag:
                        assert not len(ys)
                    else:
                        assert len(ys)
        # labels only come from biopsies
        assert rec.left_biopsied == int(bool(rec.left_benign or rec.left_malignant))
        assert rec.right_biopsied == int(bool(rec.right_benign or rec.right_malignant))


def test_birads_rules():
    rng = substream(0, "t")
    clean = _rec(0, 0, 0, 0)
    assert assign_birads(clean, rng, 0.0) == 1
    mal = _rec(0, 1, 0, 0)
    assert assign_birads(mal, rng, 0.0) == 0
    ben = _rec(1, 0, 0, 0)
    assert assign_birads(ben, rng, 0.0) == 2


def test_birads_noise_rate():
    rng = substream(1, "noise")
    flips = 0
    n = 10000
    for _ in range(n):
        if assign_birads(_rec(0, 0, 0, 0), rng, 0.3) != 1:
            flips += 1
    assert abs(flips / n - 0.3) < 0.02


def test_dims_too_small_rejected(tmp_path):
    with pytest.raises(GeneratorError):
        generate_dataset(tiny_config(cc_dims=(20, 20)), seed=1, out_dir=tmp_path)


def _rec(lb, lm, rb, rm):
    from mscope.phantom import ExamRecord
    return ExamRecord(exam_id="e", patient_id="p", split="train",
                      age_band="50s", density="fatty",
                      left_benign=lb, left_malignant=lm,
                      right_benign=rb, right_malignant=rm,
                      left_biopsied=int(bool(lb or lm)),
                      right_biopsied=int(bool(rb or rm)),
                      left_occult=0, right_occult=0, birads=0,
                      view_paths={v: "" for v in VIEWS})


def test_manifest_with_a_repeated_exam_id_rejected(tmp_path):
    generate_dataset(tiny_config(exams=3), seed=2, out_dir=tmp_path)
    manifest = tmp_path / "manifest.csv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + [lines[1]]) + "\n")
    exam_id = lines[1].split(",")[0]
    with pytest.raises(FormatError) as exc:
        load_manifest(manifest)
    assert str(exc.value) == (f"{manifest}, line 5: exam id {exam_id!r} "
                              "is repeated")
