import hashlib
from dataclasses import replace

import numpy as np
import pytest

from mscope import tensor as T
from mscope.config import ConfigError, resolve
from mscope.heatmaps import heatmap_path, save_heatmap
from mscope.multiview import OUTPUT_ORDER, VIEW_ORDER, MultiViewNet
from mscope.phantom import generate_dataset, load_image, load_manifest
from mscope.seeding import substream
from mscope.training import (IMPROVEMENT_EPS, EarlyStopper, TrainRunConfig,
                             augment_window, ensemble_predict,
                             exam_labels, mean_column_auc, predict_exams,
                             predict_tta, pretrain_birads, prepare_views,
                             subsample_epoch, train_cancer_model,
                             validation_exams)

TINY = dict(cc_dims=(48, 36), mlo_dims=(56, 32), biopsied_fraction=0.5,
            malignant_fraction=0.5, occult_fraction=0.0,
            split_fractions=(0.5, 0.25, 0.25), birads_noise=0.0)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinydata")
    generate_dataset(replace(resolve().dataset_config(), exams=24, **TINY),
                     seed=11, out_dir=root)
    return root, load_manifest(root / "manifest.csv")


def quiet(*_args, **_kw):
    pass


# -- augmentation --

def test_zero_offset_is_canonical():
    rng = substream(0, "aug")
    stack = np.random.default_rng(1).uniform(0, 1, (20, 16, 1)).astype(np.float32)
    out = augment_window(stack, rng, max_offset=0)
    np.testing.assert_array_equal(out, stack)


def test_augment_corners_within_offset_and_range_covered():
    stack = np.random.default_rng(2).uniform(0.2, 1, (40, 30, 1)).astype(np.float32)
    max_offset = 6

    class Probe:
        def __init__(self, rng):
            self.rng = rng
            self.draws = []

        def integers(self, lo, hi, size):
            d = self.rng.integers(lo, hi, size=size)
            self.draws.append(d)
            return d

    probe = Probe(substream(3, "aug"))
    for _ in range(1000):
        out = augment_window(stack, probe, max_offset)
        assert out.shape == stack.shape
    draws = np.concatenate(probe.draws)
    assert draws.min() >= -max_offset and draws.max() <= max_offset
    covered = len(np.unique(draws)) / (2 * max_offset + 1)
    assert covered >= 0.9


def test_augment_pads_with_zeros_past_edge():
    stack = np.full((24, 18, 1), 0.7, dtype=np.float32)

    class Fixed:
        def integers(self, lo, hi, size):
            return np.array([-5, -5, 0, 0])  # shift window above the image

    out = augment_window(stack, Fixed(), max_offset=5)
    assert out.shape == stack.shape
    np.testing.assert_array_equal(out[:5], 0.0)
    np.testing.assert_allclose(out[6:], 0.7, atol=1e-5)


def test_offset_that_could_empty_the_window_is_refused_on_every_call():
    """A window edge may move by max_offset, so a window of no rows or
    columns can be drawn exactly when 2 * max_offset >= min(h, w); that
    offset is refused whatever the draw, naming the key and the dims."""
    stack = np.ones((20, 16, 1), dtype=np.float32)

    class Zeros:
        def integers(self, lo, hi, size):
            return np.zeros(size, dtype=np.int64)

    assert augment_window(stack, Zeros(), max_offset=7).shape == stack.shape
    with pytest.raises(ConfigError, match=r"train.max_offset=8 .* 20x16"):
        augment_window(stack, Zeros(), max_offset=8)


# -- epoch subsampling --

def make_records(n_biopsied, n_clean):
    from test_evaluation import make_record
    recs = [make_record(i, split="train", benign=(1, 0))
            for i in range(n_biopsied)]
    recs += [make_record(1000 + i, split="train") for i in range(n_clean)]
    recs += [make_record(5000, split="val")]
    return recs


def test_subsample_equal_counts():
    recs = make_records(50, 1950)
    ids = subsample_epoch(recs, substream(4, "sub"), log=print)
    assert len(ids) == 100
    biopsied = {r.exam_id for r in recs if r.left_biopsied or r.right_biopsied}
    assert len([i for i in ids if i in biopsied]) == 50
    assert biopsied <= set(ids)


def test_subsample_fresh_each_epoch_reproducible():
    recs = make_records(10, 500)
    a1 = subsample_epoch(recs, substream(5, "epoch", 1), log=print)
    a2 = subsample_epoch(recs, substream(5, "epoch", 2), log=print)
    b1 = subsample_epoch(recs, substream(5, "epoch", 1), log=print)
    assert a1 == b1
    assert set(a1) != set(a2)


def test_subsample_few_clean_warns(capsys):
    recs = make_records(8, 0)
    ids = subsample_epoch(recs, substream(6, "sub"), log=print)
    assert len(ids) == 8
    assert "warning" in capsys.readouterr().out


def test_cancer_trainer_sends_subsample_warning_to_log(tiny_dataset, capsys):
    root, records = tiny_dataset
    clean = [r for r in records if r.split == "train"
             and not (r.left_biopsied or r.right_biopsied)]
    records = [r for r in records if r not in clean[2:]]
    seen = []
    cfg = TrainRunConfig(lr=3e-4, batch_size=4, l2=10 ** -4.5, patience=2,
                         max_epochs=1, seed=35, max_offset=0,
                         variant="view_wise", input_channels=1)
    train_cancer_model(records, root, cfg, log=seen.append)
    assert any("non-biopsied" in line for line in seen)
    assert capsys.readouterr().out == ""


# -- early stopping --

def test_early_stopper_patience_semantics():
    stopper = EarlyStopper(patience=1)
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=0)
    assert not stopper.update(0.9, 1, net)
    assert stopper.update(0.85, 2, net)  # strictly worsening stops at epoch 2
    assert stopper.best_epoch == 1


def test_early_stopper_never_returns_worse_epoch():
    stopper = EarlyStopper(patience=3)
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=0)
    series = [0.6, 0.7, 0.65, 0.71, 0.70, 0.69, 0.68]
    for ep, m in enumerate(series, 1):
        if stopper.update(m, ep, net):
            break
    assert stopper.best_metric == max(series[:ep])
    assert stopper.best_epoch == 4


def test_float_noise_does_not_count_as_improvement():
    stopper = EarlyStopper(patience=2)
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=0)
    stopper.update(0.5, 1, net)
    assert not stopper.update(0.5 + 1e-9, 2, net)
    assert stopper.update(0.5 + 1e-9, 3, net)
    assert stopper.best_epoch == 1


# -- 3-way metric: the mean column AUC of a one-hot --

def test_birads_ovr_auc_perfect_oracle():
    labels = np.array([0, 1, 2] * 20)
    probs = np.eye(3)[labels]
    assert mean_column_auc(probs, np.eye(3)[labels], "abc", log=quiet) == \
        (1.0, {"a": 1.0, "b": 1.0, "c": 1.0})


def test_birads_ovr_auc_random_is_half():
    rng = substream(7, "ovr")
    labels = np.array([0, 1, 2] * 200)
    probs = rng.uniform(0, 1, (600, 3))
    metric, _ = mean_column_auc(probs, np.eye(3)[labels], "abc", log=quiet)
    assert abs(metric - 0.5) < 0.05


def test_birads_ovr_auc_missing_class_skipped(capsys):
    labels = np.array([0, 1] * 30)
    probs = substream(8, "m").uniform(0, 1, (60, 3))
    metric, aucs = mean_column_auc(probs, np.eye(3)[labels], "abc", log=print)
    assert "label c has a single class; skipped" in capsys.readouterr().out
    assert list(aucs) == ["a", "b"]
    assert metric == np.mean([aucs["a"], aucs["b"]])


# -- TTA and ensembling --

class StubNet:
    """Constant-output stand-in with the prediction surface of the real net."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float32)
        self.input_channels = 1
        self.training = False

    def __call__(self, views):
        from mscope import tensor as T
        n = views["lcc"].shape[0]
        return T.Tensor(np.tile(self.probs, (n, 1)))


def test_tta_constant_model(tiny_dataset):
    root, records = tiny_dataset
    net = StubNet([0.1, 0.2, 0.3, 0.4])
    out = predict_tta(net, records[0], root, substream(9, "t"),
                      heatmap_dir=None, n=10, max_offset=4)
    np.testing.assert_allclose(out, [0.1, 0.2, 0.3, 0.4], atol=1e-7)


def test_tta_n1_no_offset_equals_plain_forward(tiny_dataset):
    root, records = tiny_dataset
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=24).eval()
    plain = predict_exams(net, records[:1], root, None)[0]
    tta = predict_tta(net, records[0], root, substream(10, "t"),
                      heatmap_dir=None, n=1, max_offset=0)
    np.testing.assert_array_equal(plain, tta)


def test_tta_refuses_a_train_mode_net(tiny_dataset):
    """predict_tta only reads the net, which threads may share: a
    train-mode net is refused and left in train mode."""
    root, records = tiny_dataset
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=26)
    with pytest.raises(T.GraphError, match="eval-mode"):
        predict_tta(net, records[0], root, substream(11, "t"),
                    heatmap_dir=None, n=1, max_offset=0)
    assert net.training


def test_tta_seed_reproducible(tiny_dataset):
    root, records = tiny_dataset
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=25).eval()
    a = predict_tta(net, records[0], root, substream(11, "t"),
                    heatmap_dir=None, n=4, max_offset=3)
    b = predict_tta(net, records[0], root, substream(11, "t"),
                    heatmap_dir=None, n=4, max_offset=3)
    assert a.tobytes() == b.tobytes()


def test_ensemble_single_member_identity(tiny_dataset):
    root, records = tiny_dataset
    net = StubNet([0.2, 0.2, 0.2, 0.2])
    single = ensemble_predict([net], records[0], root, seed=12,
                              heatmap_dir=None, n=2, max_offset=2)
    np.testing.assert_allclose(single, 0.2, atol=1e-7)


def test_ensemble_averages_members(tiny_dataset):
    root, records = tiny_dataset
    members = [StubNet([0.2] * 4), StubNet([0.6] * 4)]
    out = ensemble_predict(members, records[0], root, seed=13,
                           heatmap_dir=None, n=2, max_offset=2)
    np.testing.assert_allclose(out, 0.4, atol=1e-7)
    with pytest.raises(ValueError):
        ensemble_predict([], records[0], root, seed=0, heatmap_dir=None,
                         n=10, max_offset=8)


# -- flip convention end-to-end --

def test_left_views_flipped_to_rightward(tmp_path):
    from mscope.pgm import write_pgm
    from test_evaluation import make_record

    rec = make_record(0)
    rec.view_paths = {v: f"images/e00000_{v}.pgm" for v in
                      ("rcc", "lcc", "rmlo", "lmlo")}
    (tmp_path / "images").mkdir()
    rng = np.random.default_rng(14)
    cc = (rng.uniform(0, 65535, (20, 16))).astype(np.uint16)
    mlo = (rng.uniform(0, 65535, (24, 14))).astype(np.uint16)
    write_pgm(tmp_path / "images/e00000_rcc.pgm", cc)
    write_pgm(tmp_path / "images/e00000_lcc.pgm", cc[:, ::-1])
    write_pgm(tmp_path / "images/e00000_rmlo.pgm", mlo)
    write_pgm(tmp_path / "images/e00000_lmlo.pgm", mlo[:, ::-1])

    views = prepare_views([rec], tmp_path, heatmap_dir=None, rng=None,
                          max_offset=0)
    np.testing.assert_array_equal(views["lcc"], views["rcc"])
    np.testing.assert_array_equal(views["lmlo"], views["rmlo"])

    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=26).eval()
    from mscope import tensor as T
    a = net.cc_column(T.Tensor(views["rcc"])).data
    b = net.cc_column(T.Tensor(views["lcc"])).data
    np.testing.assert_array_equal(a, b)


# -- view bytes --

# sha256 of the four views (``VIEW_ORDER``) that ``prepare_views`` gives for
# the tiny dataset's first exam, by (channels, copies): one copy plain,
# three jittered with max_offset 4; as written by the (C, H, W) view path
# that the channels-last one replaced
VIEW_DIGESTS = {
    (1, 1): "374aa64d5d926df34c4beb863efa82e9c36800dbfc85fcf7edeb8a3ffaa66652",
    (1, 3): "13a50939fc381cd5a8bdfa7e1f1b7f03db3f32d0d881e0cce55d9881bc357af6",
    (3, 1): "93c4d5035d3de5ebab43a64e05ebcef9f6a4858bbdf13a0e29ea65631d95ed60",
    (3, 3): "5ceda537d0309f707d39ddff56e9b4247552d87a16a4dc362a155d6ac6fdd150",
}


@pytest.mark.parametrize("channels,copies", sorted(VIEW_DIGESTS))
def test_view_bytes_are_pinned(tiny_dataset, tmp_path, channels, copies):
    root, records = tiny_dataset
    rec, heatmap_dir = records[0], None
    if channels == 3:
        heatmap_dir, rng = tmp_path, np.random.default_rng(15)
        for view in VIEW_ORDER:
            planes = rng.uniform(0, 1, (2, *load_image(root, rec, view).shape))
            save_heatmap(heatmap_path(tmp_path, rec, view), *planes)
    rng = substream(16, "views") if copies > 1 else None
    views = prepare_views([rec], root, heatmap_dir, rng, 4, copies=copies)
    digest = hashlib.sha256()
    for view in VIEW_ORDER:
        assert views[view].shape[::3] == (copies, channels)
        digest.update(views[view].tobytes())
    assert digest.hexdigest() == VIEW_DIGESTS[channels, copies]


# -- full training loops on the tiny dataset --

def test_cancer_training_lr_zero_stops_at_patience(tiny_dataset):
    # lr=0 fixes the parameters, but train-mode forward passes still move the
    # BatchNorm running statistics, so the validation metric may change from
    # epoch to epoch; the stop must come `patience` epochs after the last
    # strict improvement.
    root, records = tiny_dataset
    cfg = TrainRunConfig(lr=0.0, batch_size=4, l2=10 ** -4.5, patience=2,
                         max_epochs=10, seed=31, max_offset=0,
                         variant="view_wise", input_channels=1)
    net, rows, best_epoch = train_cancer_model(records, root, cfg, log=quiet)
    epochs = sorted({r[0] for r in rows})
    last = epochs[-1]
    assert epochs == list(range(1, last + 1))
    assert last < cfg.max_epochs  # stopped on patience, not out of epochs

    metrics = [r[3] for r in rows if r[1] == "val" and r[2] == "mean"]
    assert len(metrics) == last
    eps = IMPROVEMENT_EPS
    best = metrics[best_epoch - 1]
    assert all(best > m + eps for m in metrics[:best_epoch - 1])
    assert all(m <= best + eps for m in metrics[best_epoch:])
    assert last == best_epoch + cfg.patience

    fresh = MultiViewNet(variant=cfg.variant, input_channels=cfg.input_channels,
                         task="cancer", seed=cfg.seed).state_dict()
    trained = net.state_dict()
    assert trained.keys() == fresh.keys()
    for k, v in fresh.items():
        if not k.split(".")[-1].startswith("running_"):
            assert trained[k].dtype == v.dtype, k
            np.testing.assert_array_equal(trained[k], v, err_msg=k)

    # the returned net is the best-epoch state, running statistics included;
    # val_exams=0 scores the whole val split
    val = [r for r in records if r.split == "val"]
    probs = predict_exams(net, val, root, None)
    val_y = np.stack([exam_labels(r) for r in val])
    metric, _ = mean_column_auc(probs, val_y, OUTPUT_ORDER, quiet)
    assert metric == best


def test_cancer_training_replay_determinism(tiny_dataset):
    root, records = tiny_dataset
    cfg = TrainRunConfig(lr=3e-4, batch_size=4, l2=10 ** -4.5, patience=2,
                         max_epochs=2, seed=32, max_offset=2,
                         variant="view_wise", input_channels=1)
    _, rows1, _ = train_cancer_model(records, root, cfg, log=quiet)
    _, rows2, _ = train_cancer_model(records, root, cfg, log=quiet)
    assert rows1 == rows2


def test_pretrain_birads_runs_and_logs(tiny_dataset, capsys):
    """The 3-way pretraining logs as cancer training does: per epoch a
    train and a val row for each class with the step and validation
    losses, then the val mean AUC that early stopping tracks."""
    root, records = tiny_dataset
    cfg = TrainRunConfig(lr=3e-4, batch_size=6, l2=10 ** -4.5, patience=2,
                         max_epochs=3, seed=33, max_offset=0,
                         variant="view_wise", input_channels=1)
    net, rows, best_epoch = pretrain_birads(records, root, cfg)
    assert net.task == "birads"
    names = ["birads_0", "birads_1", "birads_2"]
    epochs = sorted({r[0] for r in rows})
    assert epochs == list(range(1, len(epochs) + 1))
    for epoch in epochs:
        mine = [r for r in rows if r[0] == epoch]
        assert [(r[1], r[2]) for r in mine] == \
            [("train", n) for n in names] + [("val", n) for n in names] + \
            [("val", "mean")]
        assert all(r[4] is not None and r[4] > 0 for r in mine)
        assert len({r[4] for r in mine[:3]}) == 1      # one train loss
        assert len({r[4] for r in mine[3:]}) == 1      # one val loss
        val_aucs = [r[3] for r in mine[3:6] if r[3] is not None]
        assert mine[6][3] == np.mean(val_aucs)
    # best metric is the max over epochs seen
    metrics = [r[3] for r in rows if r[2] == "mean"]
    assert metrics.index(max(metrics)) + 1 == best_epoch
    out = capsys.readouterr().out
    assert out.count("val mean auc") == len(epochs)


def test_exam_labels_order(tiny_dataset):
    _, records = tiny_dataset
    rec = records[0]
    y = exam_labels(rec)
    assert y.tolist() == [rec.left_benign, rec.left_malignant,
                          rec.right_benign, rec.right_malignant]


# -- divergence --

def _diverge_after_first_validation(monkeypatch, where="step"):
    """Make the epoch after the first validation pass raise, as a layer's
    finiteness check does when the parameters blow up: in its training
    steps, or (``where="validation"``) in its own validation pass."""
    from mscope import tensor as T
    from mscope import training

    real_forward, real_predict = training._forward_batch, training.predict_exams
    validated = []

    def forward(net, recs, data_dir, heatmap_dir, rng, max_offset):
        if rng is None:
            validated.append(True)
        elif validated and where == "step":
            raise T.NumericsError("non-finite values produced: conv2d")
        return real_forward(net, recs, data_dir, heatmap_dir, rng, max_offset)

    def predict(*args, **kwargs):
        if validated and where == "validation":
            raise T.NumericsError("non-finite values produced: batchnorm")
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(training, "_forward_batch", forward)
    monkeypatch.setattr(training, "predict_exams", predict)


@pytest.mark.parametrize("where", ["step", "validation"])
def test_cancer_training_divergence_keeps_best_epoch(tiny_dataset,
                                                     monkeypatch, where):
    root, records = tiny_dataset
    _diverge_after_first_validation(monkeypatch, where)
    cfg = TrainRunConfig(lr=3e-4, batch_size=4, l2=10 ** -4.5, patience=2,
                         max_epochs=3, seed=34, max_offset=2,
                         variant="view_wise", input_channels=1)
    net, rows, best_epoch = train_cancer_model(records, root, cfg, log=quiet)
    assert best_epoch == 1
    assert {r[0] for r in rows} == {1}
    assert not any(m.training for _, m in net.named_modules())
    monkeypatch.undo()
    val = [r for r in records if r.split == "val"]
    probs = predict_exams(net, val, root, None)
    metric, _ = mean_column_auc(probs, np.stack([exam_labels(r) for r in val]),
                                OUTPUT_ORDER, quiet)
    logged = [r[3] for r in rows if r[1] == "val" and r[2] == "mean"]
    assert logged == [metric]


def test_pretrain_birads_divergence_keeps_best_epoch(tiny_dataset,
                                                     monkeypatch):
    root, records = tiny_dataset
    _diverge_after_first_validation(monkeypatch)
    cfg = TrainRunConfig(lr=3e-4, batch_size=6, l2=10 ** -4.5, patience=2,
                         max_epochs=3, seed=35, max_offset=0,
                         variant="view_wise", input_channels=1)
    net, rows, best_epoch = pretrain_birads(records, root, cfg)
    assert best_epoch == 1
    assert {r[0] for r in rows} == {1}
    assert not any(m.training for _, m in net.named_modules())


def test_divergence_in_first_epoch_raises(tiny_dataset, monkeypatch):
    from mscope import tensor as T
    from mscope import training

    def forward(*args, **kwargs):
        raise T.NumericsError("non-finite values produced: conv2d")

    monkeypatch.setattr(training, "_forward_batch", forward)
    cfg = TrainRunConfig(lr=3e-4, batch_size=4, l2=10 ** -4.5, patience=2,
                         max_epochs=3, seed=36, max_offset=0,
                         variant="view_wise", input_channels=1)
    with pytest.raises(T.NumericsError, match="first epoch"):
        train_cancer_model(records=tiny_dataset[1], data_dir=tiny_dataset[0],
                           cfg=cfg, log=quiet)


# -- the one multi-view body --

def test_trainer_calls_the_module_functions_a_profiler_replaces(
        tiny_dataset, monkeypatch):
    """A one-epoch train calls ``binary_cross_entropy``, ``subsample_epoch``,
    ``predict_exams`` and ``_forward_batch`` through the training module,
    so wrappers set on it (as the benchmark's tracer sets them) see every
    call."""
    from mscope import training

    root, records = tiny_dataset
    hits = {}
    for name in ("binary_cross_entropy", "subsample_epoch", "predict_exams",
                 "_forward_batch"):
        def counted(*args, _real=getattr(training, name), _name=name,
                    **kwargs):
            hits[_name] = hits.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(training, name, counted)
    cfg = TrainRunConfig(lr=3e-4, batch_size=4, l2=10 ** -4.5, patience=2,
                         max_epochs=1, seed=37, max_offset=0,
                         variant="view_wise", input_channels=1)
    train_cancer_model(records, root, cfg, log=quiet)
    assert set(hits) == {"binary_cross_entropy", "subsample_epoch",
                         "predict_exams", "_forward_batch"}, hits
    assert hits["subsample_epoch"] == 1 and hits["predict_exams"] == 1


def test_single_class_validation_label_warns_once(tiny_dataset):
    """Validation labels are fixed, so a single-class label is warned of
    once per run, not once per epoch."""
    root, records = tiny_dataset
    records = [r for r in records
               if not (r.split == "val" and r.right_malignant)]
    seen = []
    cfg = TrainRunConfig(lr=3e-4, batch_size=4, l2=10 ** -4.5, patience=5,
                         max_epochs=2, seed=38, max_offset=0,
                         variant="view_wise", input_channels=1)
    _, rows, _ = train_cancer_model(records, root, cfg, log=seen.append)
    assert {r[0] for r in rows} == {1, 2}
    warned = [line for line in seen if "label r_malignant" in line]
    assert len(warned) == 1 and "single class" in warned[0]


@pytest.mark.parametrize("trainer", ["cancer", "birads"])
@pytest.mark.parametrize("drop", ["val", "train"])
def test_empty_split_fails_before_the_first_step(tiny_dataset, monkeypatch,
                                                 trainer, drop):
    """No val exam, or no exam an epoch draws from, raises ``SplitError``
    naming what is missing before any training step."""
    from mscope import training

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training, "_forward_batch", no_step)
    root, records = tiny_dataset
    if drop == "val":
        records = [r for r in records if r.split != "val"]
    elif trainer == "cancer":
        records = [r for r in records
                   if not (r.split == "train" and r.any_biopsied)]
    else:
        records = [r for r in records if r.split != "train"]
    cfg = TrainRunConfig(lr=3e-4, batch_size=4, l2=10 ** -4.5, patience=2,
                         max_epochs=2, seed=39, max_offset=0,
                         variant="view_wise", input_channels=1)
    expected = {"val": "no val exam", "train": "biopsied train exam"
                if trainer == "cancer" else "no train exam"}[drop]
    with pytest.raises(training.SplitError, match=expected):
        if trainer == "cancer":
            train_cancer_model(records, root, cfg, log=quiet)
        else:
            pretrain_birads(records, root, cfg)


def test_validation_exams_keep_every_biopsied_exam(tiny_dataset):
    """A cap keeps every biopsied val exam and draws clean ones up to it;
    no cap, or one at or above the split's size, keeps the whole split."""
    _, records = tiny_dataset
    val = [r for r in records if r.split == "val"]
    biopsied = [r for r in val if r.any_biopsied]
    assert 0 < len(biopsied) < len(val) - 1
    for cap in (0, len(val), len(val) + 3):
        assert validation_exams(records, cap, substream(1, "v")) == val
    capped = validation_exams(records, len(biopsied) + 1, substream(1, "v"))
    assert capped[:len(biopsied)] == biopsied and len(capped) == \
        len(biopsied) + 1 and not capped[-1].any_biopsied
    assert validation_exams(records, 1, substream(1, "v")) == biopsied
