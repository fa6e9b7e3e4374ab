"""Evaluation mathematics: ranking metrics, the breast table and its
populations, derived score transforms, simulated readers, and the
reader-model hybrid sweep.

``breast_table`` holds one row per test-split breast, sorted by its
"exam:side" id, in aligned numpy columns: labels, biopsy flag, age band and
density. A population is a boolean mask over the table (``subpopulation``),
and predictions are aligned with it by id once (``prediction_columns``), so
every score a task ranks is a column that the population's mask selects.

The four ranking metrics share one kernel, ``_tie_groups``: a stable sort
by descending score, then the cumulative true- and false-positive counts
at each distinct score (Fawcett 2006, "An introduction to ROC analysis",
Alg. 2). Scores must be finite and labels must be 0 or 1; anything else
raises ``MetricError``. ROC AUC is the exact Mann-Whitney statistic (ties
count half), computed in integers and divided once. PR AUC uses a
stepwise convention: precision is evaluated at each achieved recall level
with tie groups processed atomically and no interpolation between points.
Single-class inputs raise instead of returning NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .formats import FormatError, checked, read_table, write_table


class MetricError(ValueError):
    pass


# the reader-model mixing weights ``hybrid_sweep`` scores: 0.00, ..., 0.99
LAMBDA_GRID = [round(0.01 * i, 2) for i in range(100)]
# a simulated reader's realized AUC must land this close to its target,
# within this many bisection steps of its separation
READER_TOL = 0.02
READER_MAX_ITER = 60


@dataclass
class PredictionRecord:
    exam_id: str
    side: str              # L | R
    p_malignant: float
    p_benign: float
    model_id: str

    @property
    def breast_id(self):
        return f"{self.exam_id}:{self.side}"


def _tie_groups(scores, labels):
    """Cumulative (tp, fp) counts, as int64 arrays, at each distinct score
    from the highest down, with a leading (0, 0); ``tp[-1]`` and ``fp[-1]``
    are the class sizes."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError(f"scores {scores.shape} and labels {labels.shape} "
                          "must be 1-d and of equal length")
    if not np.isfinite(scores).all():
        raise MetricError("scores must be finite")
    pos = labels == 1
    if not (pos | (labels == 0)).all():
        raise MetricError("labels must be 0 or 1")
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    # a group ends where the next score differs, and at the last score
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], len(s) > 0))
    tp = np.concatenate(([0], np.cumsum(pos[order], dtype=np.int64)[ends]))
    fp = np.concatenate(([0], ends + 1)) - tp
    return tp, fp


def roc_auc(scores, labels):
    """P(score_pos > score_neg) + 0.5 * P(tie), exact over all pairs."""
    tp, fp = _tie_groups(scores, labels)
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise MetricError("roc_auc undefined: need both classes")
    # each negative in a tie group is outscored by the tp_prev positives
    # above the group and ties with its tp - tp_prev own ones, so twice the
    # Mann-Whitney U sums tp_prev + tp over the negatives
    u2 = (np.diff(fp) * (tp[:-1] + tp[1:])).sum()
    return u2 / (2 * n_pos * n_neg)


def pr_auc(scores, labels):
    """Area under the stepwise precision-recall curve."""
    tp, fp = _tie_groups(scores, labels)
    n_pos = int(tp[-1])
    if n_pos == 0:
        raise MetricError("pr_auc undefined: no positives")
    recall = tp / n_pos
    precision = tp[1:] / (tp[1:] + fp[1:])
    # cumsum adds left to right, as a running total does; np.sum's pairwise
    # order would change the last bit
    return float(np.cumsum(np.diff(recall) * precision)[-1])


def roc_curve_points(scores, labels):
    """(fpr, tpr) pairs over all distinct thresholds, ends included."""
    tp, fp = _tie_groups(scores, labels)
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise MetricError("roc curve undefined: need both classes")
    return list(zip((fp / n_neg).tolist(), (tp / n_pos).tolist()))


def pr_curve_points(scores, labels):
    """(recall, precision) pairs over all distinct thresholds."""
    tp, fp = _tie_groups(scores, labels)
    n_pos = int(tp[-1])
    if n_pos == 0:
        raise MetricError("pr curve undefined: no positives")
    tp, fp = tp[1:], fp[1:]
    return list(zip((tp / n_pos).tolist(), (tp / (tp + fp)).tolist()))


# ---------------------------------------------------------------------------
# the breast table and its populations

SIDES = ("L", "R")
POPULATIONS = ("screening", "biopsied", "one_class_biopsied", "by_age",
               "by_density")


class BreastTable(NamedTuple):
    """Aligned columns, one row per test-split breast, sorted by id."""
    ids: np.ndarray             # "exam:side"
    benign: np.ndarray          # 0/1 labels
    malignant: np.ndarray
    biopsied: np.ndarray        # bool
    age_band: np.ndarray
    density: np.ndarray


def breast_table(records):
    rows = sorted((f"{r.exam_id}:{s}", *r.labels(s), r.biopsied(s),
                   r.age_band, r.density)
                  for r in records if r.split == "test" for s in SIDES)
    columns = list(zip(*rows)) or [()] * len(BreastTable._fields)
    return BreastTable(*(np.array(c, dtype=t) for c, t in
                         zip(columns, (str, int, int, bool, str, str))))


def subpopulation(breasts, kind):
    """The (population name, mask over ``breasts``, tasks) rows of one
    population kind of ``POPULATIONS``; ``by_age`` and ``by_density`` give
    one row per value, in sorted order."""
    if kind == "screening":
        return [(kind, np.ones(len(breasts.ids), dtype=bool),
                 ("malignant", "benign", "biopsy"))]
    if kind == "biopsied":
        return [(kind, breasts.biopsied, ("malignant", "benign"))]
    if kind == "one_class_biopsied":
        one_class = breasts.benign + breasts.malignant == 1
        return [(kind, breasts.biopsied & one_class,
                 ("malignant_vs_benign",))]
    values = breasts.age_band if kind == "by_age" else breasts.density
    return [(f"{kind[3:]}:{v}", values == v, ("malignant", "benign"))
            for v in np.unique(values)]              # age:<band>, ...


def reader_study_draw(records, rng, n_biopsied, n_clean):
    """The breast ids of both breasts of ``n_biopsied`` test exams with a
    biopsied breast and of ``n_clean`` without one, drawn with ``rng``.
    ``n_biopsied`` 0 takes every biopsied test exam, and ``n_clean`` 0 as
    many clean exams as biopsied ones."""
    test = [r for r in records if r.split == "test"]
    biopsied = [r for r in test if r.any_biopsied]
    clean = [r for r in test if not r.any_biopsied]
    n_biopsied = n_biopsied or len(biopsied)
    n_clean = n_clean or n_biopsied
    if n_biopsied > len(biopsied) or n_clean > len(clean):
        raise MetricError(
            f"requested reader-study draw ({n_biopsied}+{n_clean}) exceeds "
            f"pools ({len(biopsied)}+{len(clean)})")
    pick_b = rng.choice(len(biopsied), size=n_biopsied, replace=False)
    pick_c = rng.choice(len(clean), size=n_clean, replace=False)
    exams = [biopsied[i] for i in pick_b] + [clean[i] for i in pick_c]
    return [f"{r.exam_id}:{s}" for r in exams for s in SIDES]


def prediction_columns(preds, ids):
    """(p_malignant, p_benign) arrays aligned with the breast ``ids``; of
    two predictions for one breast the later wins. Predictions of more
    than one model raise ``MetricError`` naming the model ids."""
    models = sorted({p.model_id for p in preds})
    if len(models) > 1:
        raise MetricError(f"predictions of {len(models)} models "
                          f"({', '.join(models)}); score one at a time")
    latest = {p.breast_id: p for p in preds}
    ids = ids.tolist()
    missing = [b for b in ids if b not in latest]
    if missing:
        raise MetricError(f"{len(missing)} breasts lack predictions "
                          f"(e.g. {missing[:2]})")
    return (np.array([latest[b].p_malignant for b in ids]),
            np.array([latest[b].p_benign for b in ids]))


# ---------------------------------------------------------------------------
# derived scores

def malignant_vs_benign_score(p_mal, p_ben):
    """Malignant probability renormalized over the two finding classes.

    At (0, 0) the model gives no evidence either way, and the score is 0.5.
    Predictions are written to 6 decimals, so a confident model can produce
    that pair.
    """
    total = p_mal + p_ben
    return np.divide(p_mal, total, out=np.full_like(total, 0.5),
                     where=total > 0)


def hybrid_scores(reader, model, lam):
    """The convex combination lam * reader + (1 - lam) * model of two
    aligned score arrays."""
    return lam * reader + (1.0 - lam) * model


def hybrid_sweep(reader, model, labels):
    """AUC and PR AUC at each lambda of ``LAMBDA_GRID``; returns
    (rows, best_lambda_auc)."""
    rows = []
    for lam in LAMBDA_GRID:
        s = hybrid_scores(reader, model, lam)
        rows.append((lam, roc_auc(s, labels), pr_auc(s, labels)))
    best = max(rows, key=lambda r: r[1])
    return rows, best[0]


# ---------------------------------------------------------------------------
# simulated readers

def _reader_scores(labels01, separation, rng):
    z = separation * labels01 + rng.standard_normal(len(labels01))
    return 1.0 / (1.0 + np.exp(-z))


def simulate_readers(labels, targets, rng):
    """Readers as sigmoid scorers with unit Gaussian noise, calibrated to
    target AUCs; returns their (readers, breasts) score array.

    ``labels`` holds each breast's 0/1 label; ``targets`` is one AUC target
    per reader. Separation is bisected until the realized AUC lands within
    ``READER_TOL`` of the target.
    """
    y = np.asarray(labels, dtype=np.float64)
    if np.unique(y).size < 2:
        raise MetricError("reader simulation needs both classes")
    rows = []
    for ri, target in enumerate(targets):
        if not 0.5 <= target <= 0.999:
            raise MetricError(f"unattainable reader AUC target {target}")
        # gaussian score model: auc = Phi(sep / sqrt(2))
        sep = math.sqrt(2.0) * NormalDist().inv_cdf(target)
        lo, hi = 0.0, max(4.0 * sep, 8.0)
        for _ in range(READER_MAX_ITER):
            draw_rng = np.random.default_rng(rng.integers(0, 2 ** 63))
            scores = _reader_scores(y, sep, draw_rng)
            auc = roc_auc(scores, y.astype(int))
            if abs(auc - target) <= READER_TOL:
                break
            if auc < target:
                lo = sep
                sep = (sep + hi) / 2.0
            else:
                hi = sep
                sep = (lo + sep) / 2.0
        else:
            raise MetricError(f"reader {ri}: calibration failed for {target}")
        rows.append(scores)
    return np.stack(rows)


# ---------------------------------------------------------------------------
# prediction CSV

PREDICTIONS_HEADER = "exam_id,side,p_malignant,p_benign,model_id"
# a model id is a field of predictions.csv and metrics.csv, and evaluate
# names its curve files after it
MODEL_ID_FORBIDDEN = ",/\r\n"


def write_predictions(path, records):
    write_table(path, PREDICTIONS_HEADER, (
        (r.exam_id, r.side, f"{r.p_malignant:.6f}", f"{r.p_benign:.6f}",
         r.model_id)
        for r in sorted(records, key=lambda r: (r.exam_id, r.side,
                                                r.model_id))))


def read_predictions(path):
    columns, where = read_table(path, PREDICTIONS_HEADER)
    if not columns["exam_id"]:
        raise FormatError(f"{path}: no prediction rows")
    sides = checked(columns["side"], lambda s: s if s in SIDES else None,
                    where, "side {!r} is not L or R")
    p_mal, p_ben = (checked(columns[c], _probability, where,
                            "probability {!r} is not a number in [0, 1]")
                    for c in ("p_malignant", "p_benign"))
    models = checked(columns["model_id"],
                     lambda m: None if set(m) & set(MODEL_ID_FORBIDDEN) else m,
                     where, "model_id {!r} holds ',', '/' or a line break")
    return [PredictionRecord(*row) for row in
            zip(columns["exam_id"], sides, p_mal, p_ben, models)]


def _probability(text):
    p = float(text)
    return p if 0.0 <= p <= 1.0 else None   # also rejects NaN
