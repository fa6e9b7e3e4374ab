import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from mscope import config, heatmaps
from mscope import tensor as T
from mscope.layers import Parameter
from mscope.multiview import MultiViewNet, ResNetColumn
from mscope.optim import weighted_batch_cross_entropy
from mscope.patches import PatchNet

import gradcheck
from gradcheck import max_relative_error, numerical_gradients, weighted_sum


def _composite_net(seed):
    """conv_bn (conv -> batchnorm -> relu) -> maxpool -> global average
    pool -> linear, float64."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 8, 8, 2))
    conv_w = Parameter(rng.standard_normal((3, 3, 2, 3)) * 0.5)
    gamma = Parameter(rng.uniform(0.5, 1.5, 3))
    beta = Parameter(rng.standard_normal(3) * 0.1)
    lin_w = Parameter(rng.standard_normal((4, 3)) * 0.3)
    lin_b = Parameter(rng.standard_normal(4) * 0.1)
    rmean = np.zeros(3)
    rvar = np.ones(3)
    labels = rng.integers(0, 4, size=2)
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    params = [conv_w, gamma, beta, lin_w, lin_b]

    def loss_fn():
        h = T.conv_bn(Tx(), conv_w, 1, 1, gamma, beta, rmean.copy(),
                      rvar.copy(), None, True)
        h = T.maxpool2d(h)
        h = T.global_avgpool2d(h)
        logits = T.linear(h, lin_w, lin_b)
        return weighted_batch_cross_entropy(logits, labels, weights)

    def Tx():
        return T.Tensor(x)

    return loss_fn, params


@pytest.mark.parametrize("seed", [11, 23, 37, 51, 68])
def test_gradients_match_finite_differences(seed):
    loss_fn, params = _composite_net(seed)
    loss = loss_fn()
    analytic = T.collect_gradients(loss, params)
    numeric = numerical_gradients(loss_fn, params, h=1e-5)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_linear_grad_is_broadcast_input():
    x = np.array([[1.0, 2.0, 3.0]])
    w = Parameter(np.zeros((2, 3)))
    out = weighted_sum(T.linear(T.Tensor(x), w, Parameter(np.zeros(2))), 1.0)
    out.backward()
    np.testing.assert_allclose(w.grad, np.tile(x, (2, 1)))


def test_relu_blocks_gradient_at_negative_preactivation():
    x = Parameter(np.array([-1.5, 0.5]))
    out = weighted_sum(T.relu(x), 1.0)
    out.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def test_backward_requires_scalar():
    x = Parameter(np.ones(3))
    y = T.relu(x)
    with pytest.raises(T.GraphError):
        y.backward()


def test_backward_twice_rejected():
    x = Parameter(np.ones(3))
    loss = weighted_sum(T.relu(x), 1.0)
    loss.backward()
    with pytest.raises(T.GraphError):
        loss.backward()


def test_second_forward_allows_second_backward():
    x = Parameter(np.ones(3))
    weighted_sum(x, 1.0).backward()
    x.zero_grad()
    weighted_sum(x, 1.0).backward()
    np.testing.assert_allclose(x.grad, np.ones(3))


def test_second_loss_through_consumed_subgraph_rejected():
    w = Parameter(np.ones(3))
    shared = T.relu(T.mul(w, 2.0))
    weighted_sum(shared, 1.0).backward()
    with pytest.raises(T.GraphError):
        weighted_sum(T.mul(shared, 3.0), 1.0).backward()


def test_backward_frees_the_graph():
    """After the sweep, interior nodes hold no closure, inputs or gradient,
    and activations held only by the graph are freed; the gradients are
    handed over to the caller."""
    rng = np.random.default_rng(9)
    x = T.Tensor(rng.standard_normal((2, 8, 8, 2)).astype(np.float32))
    w = Parameter(rng.standard_normal((3, 3, 2, 3)).astype(np.float32))
    gamma = Parameter(np.ones(3, dtype=np.float32))
    beta = Parameter(np.zeros(3, dtype=np.float32))
    conv = T.conv_bn(x, w, 1, 1, gamma, beta, np.zeros(3), np.ones(3), None,
                     False)
    conv_out = weakref.ref(conv.data)
    h = T.relu(conv)
    del conv
    loss = weighted_sum(h, 1.0)
    grads = T.collect_gradients(loss, [w, gamma, beta])
    assert conv_out() is None
    for node in (loss, h):
        assert node.grad is None and node._parents == ()
        with pytest.raises(T.GraphError):
            node._backward(np.ones_like(node.data))
    assert x.grad is None
    assert all(g.shape == p.shape and p.grad is None
               for p, g in zip([w, gamma, beta], grads))


def _conv_reference(x, w, stride, padding, bias=None):
    """Forward convolution as one whole column matrix and one GEMM."""
    n, h, wd, c = x.shape
    kh, kw, _, cout = w.shape
    xc = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xc, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    ho, wo = win.shape[1:3]
    y = win.reshape(n * ho * wo, -1) @ w.reshape(kh * kw * c, cout)
    if bias is not None:
        y += bias
    return y.reshape(n, ho, wo, cout)


@pytest.mark.parametrize("xshape, wshape, stride, padding", [
    ((4, 144, 96, 3), (7, 7, 3, 16), 2, 3),     # stem: one image a band
    ((1, 448, 324, 3), (7, 7, 3, 16), 2, 3),    # one image, six row bands
    ((4, 64, 48, 16), (3, 3, 16, 16), 1, 1),
    ((8, 64, 48, 32), (3, 3, 32, 64), 2, 1),    # strided, uneven image runs
    ((8, 64, 48, 64), (1, 1, 64, 128), 1, 0),   # 1x1, product wider than columns
    ((70, 24, 24, 8), (3, 3, 8, 16), 1, 1),     # 17-18 images a band
    # 33-row bands over all 7*184 rows would leave a last band of one row
    ((7, 184, 192, 3), (7, 7, 3, 16), 1, 3),
])
def test_banded_conv_equals_whole_matrix(xshape, wshape, stride, padding):
    rng = np.random.default_rng(sum(xshape))
    x = rng.standard_normal(xshape).astype(np.float32)
    w = rng.standard_normal(wshape).astype(np.float32)
    bias = rng.standard_normal(wshape[3]).astype(np.float32)
    out = T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride, padding=padding,
                   bias=bias, residual=None, relu=False).data
    ref = _conv_reference(x, w, stride, padding, bias)
    _, ho, wo, cout = ref.shape
    k = wshape[0] * wshape[1] * wshape[2]
    assert out.shape[0] * ho * wo * (k + cout) * 4 > T.COLUMN_BUDGET  # banded
    assert np.array_equal(out, ref)
    assert np.array_equal(
        T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride, padding=padding,
                 bias=None, residual=None, relu=False).data,
        _conv_reference(x, w, stride, padding))


@pytest.mark.parametrize("shape", [(2, 5, 4, 3), (100, 8, 8, 8),
                                   (4, 14, 11, 64)])
def test_batchnorm_reuses_buffers_without_changing_bytes(shape):
    """Train-mode BatchNorm writes xhat into its centred copy and its
    backward into one scratch buffer; output and gradients equal the
    plain expressions byte for byte."""
    rng = np.random.default_rng(sum(shape))
    x = T.Tensor(rng.standard_normal(shape).astype(np.float32) * 3 + 1,
                 requires_grad=True)
    c = shape[-1]
    gamma = T.Tensor(rng.standard_normal(c).astype(np.float32),
                     requires_grad=True)
    beta = T.Tensor(rng.standard_normal(c).astype(np.float32),
                    requires_grad=True)
    g = rng.standard_normal(shape).astype(np.float32)
    y = gradcheck.batchnorm2d(x, gamma, beta, np.zeros(c, np.float32),
                              np.ones(c, np.float32))
    y._backward(g)

    xd, gd = x.data.reshape(-1, c), g.reshape(-1, c)
    m = xd.shape[0]
    ones = np.ones(m, np.float32)
    d = xd - ones @ xd / m
    inv = 1.0 / np.sqrt(ones @ (d * d) / m + T.BN_EPS)
    xhat = d * inv
    sum_g, sum_gx = ones @ gd, ones @ (gd * xhat)
    dx = gamma.data * inv * (gd - sum_g / m - xhat * (sum_gx / m))
    assert np.array_equal(y.data.reshape(-1, c), gamma.data * xhat + beta.data)
    assert np.array_equal(x.grad.reshape(-1, c), dx)
    assert np.array_equal(gamma.grad, sum_gx)
    assert np.array_equal(beta.grad, sum_g)


# (input shape, kernel, stride, padding, output channels, residual)
CONV_BN_LAYERS = [
    ((2, 20, 16, 1), 7, 2, 3, 16, None),          # the stem
    ((2, 20, 16, 3), 7, 2, 3, 16, None),
    ((2, 12, 10, 8), 3, 1, 1, 8, None),
    ((2, 12, 10, 8), 3, 1, 1, 8, "identity"),     # the conv's own input
    ((2, 12, 10, 8), 3, 1, 1, 8, "projected"),
    ((2, 12, 10, 8), 3, 2, 1, 16, None),
    ((2, 12, 10, 8), 3, 2, 1, 16, "projected"),
    ((2, 12, 10, 8), 1, 2, 0, 16, None),          # the 1x1 shortcut
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("xshape, k, stride, padding, cout, residual",
                         CONV_BN_LAYERS)
def test_conv_bn_node_equals_composed_ops(xshape, k, stride, padding, cout,
                                          residual, relu, dtype):
    """The one train-mode node gives the bytes of the composed
    ``gradcheck.conv2d``, ``gradcheck.batchnorm2d``, ``add`` and ``relu``
    run in turn: the output, both
    running statistics, and the gradients into x, w, gamma, beta and the
    residual."""
    seed = sum(xshape) + k + stride + cout
    ho, wo = (T.conv2d_shape(n, k, stride, padding) for n in xshape[1:3])

    def run(fused):
        rng = np.random.default_rng(seed)

        def tensor(shape, scale=1.0):
            return T.Tensor((rng.standard_normal(shape) * scale)
                            .astype(dtype), requires_grad=True)

        x = tensor(xshape)
        w = tensor((k, k, xshape[3], cout), 0.3)
        gamma, beta = tensor(cout, 0.5), tensor(cout, 0.2)
        res = {None: None, "identity": x,
               "projected": tensor((xshape[0], ho, wo, cout))}[residual]
        weights = rng.standard_normal((xshape[0], ho, wo, cout))
        stats = [np.full(cout, 0.5, dtype), np.full(cout, 2.0, dtype)]
        if fused:
            out = T.conv_bn(x, w, stride, padding, gamma, beta, *stats, res,
                            relu)
        else:
            out = gradcheck.batchnorm2d(
                gradcheck.conv2d(x, w, stride, padding), gamma, beta, *stats)
            out = out if res is None else T.add(out, res)
            out = T.relu(out) if relu else out
        weighted_sum(out, weights).backward()
        grads = [t.grad for t in (x, w, gamma, beta)]
        return [out.data, *stats, *grads] + \
            ([res.grad] if residual == "projected" else [])

    for a, b in zip(run(True), run(False), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_split_layers_keep_large_bands(monkeypatch):
    """Every band of a convolution split by the band plan, at the batches
    the pipeline runs on the desk profile, has M*N*K >= 1.2e6. Below about
    that size OpenBLAS takes a small-matrix kernel whose rows can differ
    from the same rows of the whole GEMM, and banding would stop being
    byte-identical."""
    cfg = config.resolve()
    sizes = []
    plan = T._conv_bands

    def spy(n, ho, wo, k, cout, itemsize):
        bands = plan(n, ho, wo, k, cout, itemsize)
        if len(bands) > 1:
            sizes.extend(len(range(n)[images]) * len(range(ho)[rows]) * wo
                         * k * cout for images, rows in bands)
        return bands

    monkeypatch.setattr(T, "_conv_bands", spy)
    views = [(cfg["data.cc_height"], cfg["data.cc_width"]),
             (cfg["data.mlo_height"], cfg["data.mlo_width"])]
    # train, 3-way pretraining, validation (predict_exams) and TTA batches
    batches = (cfg["train.batch_size"], cfg["train.birads_batch_size"], 8,
               cfg["train.tta_samples"])
    for channels in (1, 3):
        column = MultiViewNet(variant="view_wise", input_channels=channels,
                              task="cancer", seed=0).cc_column.eval()
        for n in batches:
            for dims in views:
                column(T.Tensor(np.zeros((n, *dims, channels), np.float32)))
    p = cfg["patch.size"]
    rng = np.random.default_rng(0)
    windows = [np.prod([len(heatmaps.stride_list(
                   extent, p, cfg["heatmap.stride"], rng)) + 1
                   for extent in dims]) for dims in views]
    net = PatchNet(patch_size=p, seed=0).eval()
    for n in (cfg["patch.batch_size"], *windows):
        net(T.Tensor(np.zeros((n, p, p, 1), np.float32)))
    assert sizes and min(sizes) >= 1.2e6


# One desk-dims view_wise eval forward (3 channels, a TTA batch) and one
# PatchNet batch of a desk CC view's windows; three desk-dims batches of two
# exams through the net, once by ``seeding._map_blas`` and once in a
# loop; saves the raw outputs, the number of threads numpy's OpenBLAS runs
# (-1 where it cannot be queried) and whether the map ran on the main thread.
# Then the view maps: an eval forward of every fusion variant at 1 and 3
# channels and a desk exam's heatmaps, each beside its per-view loop, with
# the threads their column and window-batch calls ran on (the first two of
# a map meet at a barrier at two BLAS threads), and the threads of a
# train-mode forward's column calls.
EVAL_FORWARDS = """
import itertools, sys, threading, types
import numpy as np
from mscope import config, heatmaps
from mscope import tensor as T
from mscope.multiview import (FUSION_VARIANTS, VIEW_ORDER, MultiViewNet,
                              ResNetColumn)
from mscope.patches import PatchNet
from mscope.seeding import _map_blas, _openblas, substream

cfg = config.resolve()
rng = np.random.default_rng(8)
dims = {"cc": (cfg["data.cc_height"], cfg["data.cc_width"]),
        "mlo": (cfg["data.mlo_height"], cfg["data.mlo_width"])}
net = MultiViewNet(variant="view_wise", input_channels=3, task="cancer",
                   seed=9).eval()
vecs = {v: net.column_for(v)(T.Tensor(rng.uniform(
            0, 1, (cfg["train.tta_samples"], *dims[v[1:]], 3)
        ).astype(np.float32))) for v in VIEW_ORDER}
p = cfg["patch.size"]
n = np.prod([len(heatmaps.stride_list(extent, p, cfg["heatmap.stride"], rng))
            + 1 for extent in dims["cc"]])
windows = rng.uniform(0, 1, (n, p, p))
batches = [{v: T.Tensor(rng.uniform(0, 1, (2, *dims[v[1:]], 3)).astype(
                np.float32)) for v in VIEW_ORDER} for _ in range(3)]
ran_on = set()

def forward(batch):
    ran_on.add(threading.get_ident())
    return net(batch).data

blas = _openblas()
threads = blas[0]() if blas else -1
mapped = _map_blas(forward, batches)
out = dict(threads=threads, on_main=threading.get_ident() in ran_on,
           probs=net.fuse(vecs).data, mapped=np.stack(mapped),
           looped=np.stack([net(b).data for b in batches]),
           patches=PatchNet(patch_size=p, seed=10).eval().predict_proba(
               windows),
           **{v: vec.data for v, vec in vecs.items()})

seen = []            # the thread of each column or window-batch call
meet = None          # the barrier of a watched map's first two calls

def spy(real):
    def call(*args):
        seen.append(threading.get_ident())
        if meet is not None and next(calls) < 2:
            meet.wait()
        return real(*args)
    return call

def watch(run, mapped):
    global calls, meet
    calls = itertools.count()
    meet = threading.Barrier(2, timeout=60) if mapped else None
    seen.clear()
    try:
        return run(), len(set(seen)), threading.get_ident() in seen
    finally:
        meet = None

ResNetColumn.forward = spy(ResNetColumn.forward)
out["column_threads"], out["columns_on_main"] = [], []
for c in (1, 3):
    views = {v: T.Tensor(rng.uniform(0, 1, (2, *dims[v[1:]], c)).astype(
                 np.float32)) for v in VIEW_ORDER}
    for variant in FUSION_VARIANTS:
        vnet = MultiViewNet(variant=variant, input_channels=c,
                            task="cancer", seed=11).eval()
        probs, count, on_main = watch(lambda: vnet(views).data,
                                      threads == 2)
        out["column_threads"].append(count)
        out["columns_on_main"].append(on_main)
        out[f"{variant}{c}"] = probs
        out[f"{variant}{c}_loop"] = vnet.fuse(
            {v: vnet.column_for(v)(views[v]) for v in VIEW_ORDER}).data
tnet = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                    seed=12)
_, count, on_main = watch(lambda: tnet({v: T.Tensor(rng.uniform(
    0, 1, (2, 40, 32, 1)).astype(np.float32)) for v in VIEW_ORDER}), False)
out["train_threads"], out["train_on_main"] = count, on_main

patch = PatchNet(patch_size=p, seed=13).eval()
images = {v: rng.uniform(0, 1, dims[v[1:]]).astype(np.float32)
          for v in VIEW_ORDER}
maps, count, on_main = watch(lambda: heatmaps.heatmaps_for_exam(
    types.SimpleNamespace(exam_id="e7"), images, spy(patch.predict_proba),
    p, cfg["heatmap.stride"], 14), threads == 2)
out["heatmap_threads"], out["heatmaps_on_main"] = count, on_main
for v in VIEW_ORDER:
    out[f"heatmap_{v}"] = np.stack(maps[v])
    out[f"heatmap_{v}_loop"] = np.stack(heatmaps.generate_heatmaps(
        images[v], patch.predict_proba, p, cfg["heatmap.stride"],
        substream(14, "strides", "e7", v)))
np.savez(sys.argv[1], **out)
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS runs one thread on one core")
def test_eval_outputs_do_not_depend_on_blas_threads(tmp_path):
    """The eval forwards of predict and gen-heatmaps give the same bytes on
    one BLAS thread as on two: each conv band is one GEMM whose rows do not
    depend on how OpenBLAS splits it. So the validation pass's map gives
    the loop's bytes: on the main thread alone at one BLAS thread, and on
    helper threads at two. So do the view maps: an eval forward of every
    fusion variant and an exam's heatmaps equal their per-view loops, with
    the views on two helper threads at two BLAS threads and on the main
    thread at one; a train-mode forward runs its columns on the main
    thread."""
    out = {}
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(Path(T.__file__).parent.parent),
                       os.environ.get("PYTHONPATH")])))
        path = tmp_path / f"t{threads}.npz"
        proc = subprocess.run([sys.executable, "-c", EVAL_FORWARDS, path],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        got = out[threads] = dict(np.load(path))
        found = got.pop("threads")
        assert found in (-1, threads)
        mapped = found == 2
        assert got.pop("on_main") == (not mapped)
        assert got["mapped"].tobytes() == got["looped"].tobytes()
        assert list(got.pop("column_threads")) == [1 + mapped] * 8
        assert not any(got.pop("columns_on_main")) == mapped
        assert (got.pop("heatmap_threads"), got.pop("heatmaps_on_main")) \
            == (1 + mapped, not mapped)
        assert (got.pop("train_threads"), got.pop("train_on_main")) == \
            (1, True)
        for key in [k for k in got if k.endswith("_loop")]:
            assert got[key].tobytes() == got[key[:-5]].tobytes(), key
    assert out[1].keys() == out[2].keys()
    for key in out[1]:
        np.testing.assert_array_equal(out[1][key], out[2][key], err_msg=key)


def _extent(conv, h, w):
    k = conv.weight.data.shape[0]
    return (T.conv2d_shape(h, k, conv.stride, conv.padding),
            T.conv2d_shape(w, k, conv.stride, conv.padding))


def _column_convs(col, h, w):
    """(conv, input h, input w) for every convolution of a column fed an
    (h, w) image, from the layer shapes alone."""
    out = [(col.stem, h, w)]
    h, w = _extent(col.stem, h, w)
    for block in col.blocks:
        out.append((block.conv1, h, w))
        if block.shortcut_conv is not None:
            out.append((block.shortcut_conv, h, w))
        h, w = _extent(block.conv1, h, w)
        out.append((block.conv2, h, w))
    return out


def _patchnet_convs(net, p):
    """(conv, input h, input w) for every convolution of PatchNet on a
    p x p patch; a 2 in its layer order is a 2x2 max-pool."""
    out, h, w = [], p, p
    for layer in (net.conv1, net.conv2, 2, net.conv3, 2, net.conv4):
        if layer == 2:
            h, w = h // 2, w // 2
            continue
        out.append((layer, h, w))
        h, w = _extent(layer, h, w)
    return out


def test_every_conv_layer_is_one_band_or_large_bands():
    """Banding is bit-identical to one whole GEMM only while every band's
    M*N*K is above OpenBLAS's small-matrix threshold (about 1e6 on an
    AVX-512 build). At the desk profile's dims, every conv layer of a
    column (train batch 4 and validation batch 8 at 1 and 3 channels, TTA
    10 at 3) and of PatchNet (batch 100) is one band, or every band has
    M*N*K >= 2e6; the smallest is about 4.1e6 (PatchNet conv1). No
    forward runs: the plan is ``_conv_bands`` of each layer's shape."""
    cfg = config.resolve()
    views = [(cfg["data.cc_height"], cfg["data.cc_width"]),
             (cfg["data.mlo_height"], cfg["data.mlo_width"])]
    layers = []                               # (conv, n, h, w)
    for channels, batches in ((1, (4, 8)), (3, (4, 8, 10))):
        col = ResNetColumn(channels, np.random.default_rng(0))
        layers += [(conv, n, h, w) for n in batches for dims in views
                   for conv, h, w in _column_convs(col, *dims)]
    net = PatchNet(cfg["patch.size"], seed=0)
    layers += [(conv, cfg["patch.batch_size"], h, w)
               for conv, h, w in _patchnet_convs(net, cfg["patch.size"])]
    split = 0
    for conv, n, h, w in layers:
        kh, kw, cin, cout = conv.weight.data.shape
        ho, wo = _extent(conv, h, w)
        k = kh * kw * cin
        bands = T._conv_bands(n, ho, wo, k, cout, 4)
        if len(bands) == 1:
            continue
        split += 1
        smallest = min(len(range(n)[images]) * len(range(ho)[rows]) * wo
                       for images, rows in bands) * k * cout
        assert smallest >= 2e6, (conv.weight.data.shape, n, h, w, smallest)
    assert split                                # some layers are banded


def test_tensor_ops_keep_one_layout():
    """Activations stay NHWC and kernels HWIO through every op: the tensor
    module holds no NCHW/NHWC transpose and no 4-axis kernel transpose."""
    source = Path(T.__file__).read_text()
    four_axes = re.compile(
        r"transpose\((?:[\w.]+,\s*)?\(?\s*\d+(?:\s*,\s*\d+){3}\s*\)?\)")
    assert four_axes.search(source) is None, four_axes.search(source)


@pytest.mark.parametrize("n, h, w", [(1, 128, 96), (2, 256, 192), (4, 384, 288)])
def test_conv_forward_peak_bounded(n, h, w):
    """Beyond its padded input and its output, one forward takes at most
    COLUMN_BUDGET bytes, however large N*H*W grows."""
    rng = np.random.default_rng(n)
    x = T.Tensor(rng.standard_normal((n, h, w, 3)).astype(np.float32))
    wt = T.Tensor(rng.standard_normal((7, 7, 3, 16)).astype(np.float32))
    padded = n * (h + 6) * (w + 6) * 3 * 4
    tracemalloc.start()
    try:
        out = T.conv2d(x, wt, 2, 3, None, None, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= T.COLUMN_BUDGET + out.data.nbytes + padded + (64 << 10)


def test_forward_deterministic_single_thread():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 12, 10, 3)).astype(np.float32)
    w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)

    def run():
        h = T.conv2d(T.Tensor(x), T.Tensor(w), 2, 1, None, None, False)
        h = T.relu(h)
        return T.global_avgpool2d(h).data

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_conv_shape_rule_randomized():
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = int(rng.integers(5, 40))
        w = int(rng.integers(5, 40))
        k = int(rng.integers(1, 6))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, 3))
        if (h + 2 * p - k) < 0 or (w + 2 * p - k) < 0:
            continue
        x = T.Tensor(rng.standard_normal((1, h, w, 2)).astype(np.float32))
        wt = T.Tensor(rng.standard_normal((k, k, 2, 3)).astype(np.float32))
        out = T.conv2d(x, wt, s, p, None, None, False)
        assert out.shape == (1, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1, 3)


def test_nonpositive_conv_extent_rejected():
    x = T.Tensor(np.zeros((1, 2, 2, 1), dtype=np.float32))
    w = T.Tensor(np.zeros((5, 5, 1, 1), dtype=np.float32))
    with pytest.raises(ValueError):
        T.conv2d(x, w, 1, 0, None, None, False)


@pytest.mark.parametrize("wants", ["input", "kernel", "recorded input"])
def test_conv2d_refuses_an_input_that_wants_a_gradient(wants):
    """``conv2d`` is the eval convolution and records no graph: an input or
    a kernel that wants a gradient raises instead of getting none."""
    rng = np.random.default_rng(12)
    x = T.Tensor(rng.standard_normal((1, 5, 5, 2)),
                 requires_grad=wants == "input")
    w = T.Tensor(rng.standard_normal((3, 3, 2, 2)),
                 requires_grad=wants == "kernel")
    if wants == "recorded input":
        x = T.relu(Parameter(x.data))
    with pytest.raises(T.GraphError, match="conv_bn"):
        T.conv2d(x, w, 1, 1, None, None, False)


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(5)
    x = T.Tensor(rng.standard_normal((40, 7)).astype(np.float32) * 20)
    y = T.softmax(x).data
    assert (y >= 0).all() and (y <= 1).all()
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-6)


def test_concat_backward_splits():
    a = Parameter(np.ones((2, 3)))
    b = Parameter(np.ones((2, 5)))
    out = T.concat([a, b])
    weighted_sum(out, 2.0).backward()
    np.testing.assert_allclose(a.grad, 2 * np.ones((2, 3)))
    np.testing.assert_allclose(b.grad, 2 * np.ones((2, 5)))


def test_check_finite_raises():
    with pytest.raises(T.NumericsError):
        T.check_finite(np.array([1.0, np.nan]), "test")
    with pytest.raises(T.NumericsError, match="produced: test"):
        T.check_finite(np.array([np.inf]), "test")
