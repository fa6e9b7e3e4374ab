import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscope.evaluation import (MetricError, PredictionRecord, breast_table,
                               hybrid_scores, hybrid_sweep,
                               malignant_vs_benign_score, pr_auc,
                               pr_curve_points, read_predictions,
                               reader_study_draw, roc_auc, roc_curve_points,
                               simulate_readers, subpopulation,
                               write_predictions)
from mscope.phantom import ExamRecord, VIEWS
from mscope.seeding import substream


def pair_count_auc(scores, labels):
    """O(n^2) oracle: ordered pairs + half ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def sweep_pr_auc(scores, labels):
    """Threshold-sweep oracle recomputing precision/recall from scratch."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    n_pos = labels.sum()
    thresholds = sorted(set(scores.tolist()), reverse=True)
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        sel = scores >= t
        tp = int((labels[sel] == 1).sum())
        recall = tp / n_pos
        precision = tp / int(sel.sum())
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def sweep_curves(scores, labels):
    """Threshold-sweep oracle for the ROC and PR curve points; needs a
    positive, and gives no ROC points without a negative."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    roc, pr = [(0.0, 0.0)], []
    for t in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= t
        tp = int((labels[sel] == 1).sum())
        fp = int(sel.sum()) - tp
        if n_neg:
            roc.append((fp / n_neg, tp / n_pos))
        pr.append((tp / n_pos, tp / (tp + fp)))
    return roc, pr


# -- ROC AUC --

def test_roc_auc_perfect_separation():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_roc_auc_all_ties():
    assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5


def test_roc_auc_reference_case():
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_roc_auc_single_class_rejected():
    with pytest.raises(MetricError):
        roc_auc([0.1, 0.2], [1, 1])


def test_roc_auc_equals_pair_counting():
    rng = substream(1, "auc")
    for trial in range(100):
        n = int(rng.integers(5, 201))
        if trial % 3 == 0:
            scores = rng.integers(0, 4, n).astype(float)  # tie-heavy
        else:
            scores = rng.uniform(0, 1, n)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == pair_count_auc(scores, labels)


def test_roc_auc_invariant_to_monotone_transform():
    rng = substream(2, "mono")
    scores = rng.uniform(0, 1, 60)
    labels = rng.integers(0, 2, 60)
    labels[:2] = [0, 1]
    a = roc_auc(scores, labels)
    b = roc_auc(np.exp(3 * scores) + 7, labels)
    assert abs(a - b) < 1e-12


# -- PR AUC --

def test_pr_auc_perfect():
    assert pr_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_pr_auc_constant_scores_equals_prevalence():
    labels = [1, 0, 0, 0, 1]
    assert pr_auc([0.4] * 5, labels) == pytest.approx(2 / 5, abs=1e-12)


def test_pr_auc_matches_threshold_sweep():
    rng = substream(3, "pr")
    for trial in range(30):
        n = int(rng.integers(10, 500))
        scores = rng.uniform(0, 1, n)
        if trial % 4 == 0:
            scores = np.round(scores, 1)
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[0] = 1
        assert pr_auc(scores, labels) == sweep_pr_auc(scores, labels)


def test_pr_auc_no_positives_rejected():
    with pytest.raises(MetricError):
        pr_auc([0.1, 0.9], [0, 0])


def test_curve_points_shapes():
    scores = [0.1, 0.5, 0.5, 0.9]
    labels = [0, 1, 0, 1]
    roc = roc_curve_points(scores, labels)
    assert roc[0] == (0.0, 0.0) and roc[-1] == (1.0, 1.0)
    pr = pr_curve_points(scores, labels)
    assert pr[-1][0] == 1.0


def test_curve_points_match_threshold_sweep():
    rng = substream(12, "curves")
    for trial in range(40):
        n = int(rng.integers(2, 300))
        scores = rng.uniform(0, 1, n)
        if trial % 2 == 0:
            scores = np.round(scores, 1)
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        roc, pr = sweep_curves(scores, labels)
        assert roc_curve_points(scores, labels) == roc
        assert pr_curve_points(scores, labels) == pr


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)),
                min_size=1, max_size=60))
def test_ranking_metrics_match_oracles_on_ties(pairs):
    scores = [0.25 * level for level, _ in pairs]
    labels = [y for _, y in pairs]
    n_pos = sum(labels)
    if n_pos == 0:
        with pytest.raises(MetricError):
            pr_auc(scores, labels)
    else:
        roc, pr = sweep_curves(scores, labels)
        assert pr_auc(scores, labels) == sweep_pr_auc(scores, labels)
        assert pr_curve_points(scores, labels) == pr
    if 0 < n_pos < len(labels):
        assert roc_auc(scores, labels) == pair_count_auc(scores, labels)
        assert roc_curve_points(scores, labels) == roc
    else:
        with pytest.raises(MetricError):
            roc_auc(scores, labels)
        with pytest.raises(MetricError):
            roc_curve_points(scores, labels)


@pytest.mark.parametrize("metric", [roc_auc, pr_auc, roc_curve_points,
                                    pr_curve_points])
@pytest.mark.parametrize("scores,labels,message", [
    ([0.1, 0.2, 0.3], [0, 2, 1], "labels must be 0 or 1"),
    ([0.1, 0.2, 0.3], [0, -1, 1], "labels must be 0 or 1"),
    ([0.1, np.nan, 0.3, 0.7], [0, 1, 0, 1], "scores must be finite"),
    ([0.1, np.inf, 0.3, 0.7], [0, 1, 0, 1], "scores must be finite"),
    ([0.1, 0.2, 0.3], [0, 1, 0, 1], "equal length"),
], ids=["label-2", "label-minus-1", "nan-score", "inf-score", "lengths"])
def test_ranking_metrics_reject_bad_inputs(metric, scores, labels, message):
    with pytest.raises(MetricError, match=message):
        metric(scores, labels)


# -- subpopulations --

def make_record(i, split="test", benign=(0, 0), malignant=(0, 0),
                occult=(0, 0), age="50s", density="scattered"):
    return ExamRecord(
        exam_id=f"e{i:05d}", patient_id=f"p{i:05d}", split=split,
        age_band=age, density=density,
        left_benign=benign[0], left_malignant=malignant[0],
        right_benign=benign[1], right_malignant=malignant[1],
        left_biopsied=int(bool(benign[0] or malignant[0])),
        right_biopsied=int(bool(benign[1] or malignant[1])),
        left_occult=occult[0], right_occult=occult[1], birads=0,
        view_paths={v: "" for v in VIEWS})


def population(breasts, kind):
    """{population name: set of breast ids} of one population kind."""
    return {name: set(breasts.ids[mask].tolist())
            for name, mask, _ in subpopulation(breasts, kind)}


def test_subpopulation_nesting():
    records = [make_record(0),
               make_record(1, benign=(1, 0)),
               make_record(2, malignant=(0, 1)),
               make_record(3, benign=(1, 0), malignant=(1, 0)),
               make_record(4, split="train", benign=(1, 1))]
    breasts = breast_table(records)
    assert breasts.ids.tolist() == sorted(breasts.ids.tolist())
    screening = population(breasts, "screening")["screening"]
    biopsied = population(breasts, "biopsied")["biopsied"]
    one_class = population(breasts, "one_class_biopsied")["one_class_biopsied"]
    assert len(screening) == 8  # 4 test exams x 2 breasts
    assert biopsied == {"e00001:L", "e00002:R", "e00003:L"}
    # the both-findings breast drops out of the one-class set
    assert one_class == {"e00001:L", "e00002:R"}
    assert one_class <= biopsied <= screening


def test_breast_table_of_an_empty_test_split():
    breasts = breast_table([make_record(0, split="train")])
    assert all(len(column) == 0 for column in breasts)
    for kind in ("screening", "biopsied", "one_class_biopsied"):
        assert population(breasts, kind) == {kind: set()}
    assert population(breasts, "by_age") == {}


def test_reader_study_counts():
    records = [make_record(i, benign=(1, 0)) for i in range(10)] + \
        [make_record(100 + i) for i in range(20)]
    rng = substream(4, "rs")
    ids = reader_study_draw(records, rng, 6, 8)
    assert len(set(ids)) == len(ids) == 2 * (6 + 8)
    # 0 biopsied takes all 10 biopsied exams, and 0 clean as many clean ones
    assert len(reader_study_draw(records, rng, 0, 0)) == 2 * (10 + 10)
    with pytest.raises(MetricError):
        reader_study_draw(records, rng, 11, 8)


def test_by_attribute_partitions():
    records = [make_record(0, age="<40"), make_record(1, age="70+"),
               make_record(2, age="<40", density="extreme")]
    breasts = breast_table(records)
    by_age = population(breasts, "by_age")
    assert list(by_age) == ["age:70+", "age:<40"]       # sorted values
    assert len(by_age["age:<40"]) == 4
    by_density = population(breasts, "by_density")
    assert len(by_density["density:extreme"]) == 2
    assert set().union(*by_density.values()) == set(breasts.ids.tolist())


# -- derived scores --

def test_malignant_vs_benign_score():
    p_mal = np.array([0.3, 0.4, 0.2, 0.02, 0.0])
    p_ben = np.array([0.1, 0.4, 0.6, 0.06, 0.0])
    s = malignant_vs_benign_score(p_mal, p_ben)
    assert s[0] == pytest.approx(0.75)
    assert s[1] == 0.5
    assert s[2] == pytest.approx(s[3])
    # no evidence either way
    assert s[4] == 0.5


# -- hybrid --

def test_hybrid_combination():
    reader = np.array([0.8, 0.2])
    model = np.array([0.4, 0.6])
    out = hybrid_scores(reader, model, 0.5)
    assert out[0] == pytest.approx(0.6)
    assert hybrid_scores(reader, model, 0.0).tolist() == model.tolist()
    assert hybrid_scores(reader, model, 1.0).tolist() == reader.tolist()
    # elementwise arithmetic rounds as the scalar expression does
    rng = substream(6, "hybrid")
    reader, model = rng.uniform(size=50), rng.uniform(size=50)
    for lam in (0.01, 0.37, 0.99):
        assert hybrid_scores(reader, model, lam).tolist() == \
            [lam * r + (1.0 - lam) * m for r, m in zip(reader.tolist(),
                                                      model.tolist())]


def test_hybrid_sweep_grid():
    rng = substream(5, "sweep")
    labels = (rng.uniform(size=80) < 0.3).astype(int)
    labels[:2] = [1, 0]
    model = 0.7 * labels + 0.3 * rng.uniform(size=80)
    reader = 0.4 * labels + 0.6 * rng.uniform(size=80)
    rows, best_lam = hybrid_sweep(reader, model, labels)
    assert len(rows) == 100
    assert rows[0][0] == 0.0 and rows[-1][0] == 0.99
    assert 0.0 <= best_lam <= 0.99
    # lambda = 0 reproduces the model's own metrics
    assert rows[0][1] == pytest.approx(roc_auc(model, labels), abs=1e-12)


# -- simulated readers --

def test_reader_calibration_hits_target():
    for target in (0.78, 0.99):
        rng = substream(7, "cal")
        labels = (rng.uniform(size=1440) < 0.3).astype(int)
        labels[:2] = [1, 0]
        scores = simulate_readers(labels, [target], rng)
        assert scores.shape == (1, 1440)
        assert abs(roc_auc(scores[0], labels) - target) <= 0.02


def test_fourteen_reader_spread():
    rng = substream(8, "panel")
    labels = (rng.uniform(size=1440) < 0.25).astype(int)
    labels[:2] = [1, 0]
    targets = np.linspace(0.705, 0.860, 14)
    scores = simulate_readers(labels, targets, rng)
    aucs = [roc_auc(row, labels) for row in scores]
    assert min(aucs) >= 0.70 - 0.021 and min(aucs) <= 0.705 + 0.021
    assert max(aucs) >= 0.860 - 0.021 and max(aucs) <= 0.87 + 0.021


def test_unattainable_target_rejected():
    labels = np.arange(10) % 2
    with pytest.raises(MetricError):
        simulate_readers(labels, [0.9999], substream(9, "bad"))


# -- prediction files --

def test_predictions_roundtrip(tmp_path):
    records = [PredictionRecord("e00001", "L", 0.25, 0.5, "m0"),
               PredictionRecord("e00000", "R", 0.75, 0.125, "m0")]
    path = tmp_path / "preds.csv"
    write_predictions(path, records)
    loaded = read_predictions(path)
    assert [r.exam_id for r in loaded] == ["e00000", "e00001"]
    assert loaded[0].p_malignant == 0.75
    assert loaded[1].breast_id == "e00001:L"
