"""The benchmark's span tracer (``perfbench/tracer.py``) still installs over
the program. It wraps attributes of ``src/mscope`` by name, among them the
stem's ``forward`` of each column, so a change that drops one is caught
here and not only by a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from mscope import multiview, optim, patches
from mscope import tensor as T

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_spans_a_train_step_and_eval_forwards():
    """Installed, the tracer sees one tiny view_wise train step and an
    eval forward of each net: the train-mode ``tensor.conv_bn`` node and
    its backward, and the eval ``tensor.conv2d``. Uninstalled, it leaves
    the ops as they were."""
    ops = (T.conv_bn, T.conv2d, multiview.MultiViewNet.__init__)
    rng = np.random.default_rng(0)
    views = {v: T.Tensor(rng.uniform(
                 0, 1, (2,) + ((56, 32) if v.endswith("mlo") else (48, 36))
                 + (1,)).astype(np.float32)) for v in multiview.VIEW_ORDER}
    tracer = _tracer_module().Tracer().install()
    try:
        # built while installed, so that its blocks and stems are wrapped
        net = multiview.MultiViewNet(variant="view_wise", input_channels=1,
                                     task="cancer", seed=1)
        out = net(views)
        loss = optim.binary_cross_entropy(out, rng.integers(0, 2, out.shape))
        params = net.parameters()
        state = optim.AdamState(lr=1e-3, weight_decay=0.0)
        optim.adam_step(params, T.collect_gradients(loss, params), state)
        net.eval()(views)
        patches.PatchNet(patch_size=16, seed=2).eval().predict_proba(
            rng.uniform(0, 1, (3, 16, 16)))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"tensor.conv_bn", "tensor.conv_bn.bwd", "tensor.conv2d",
            "multiview.block0", "patches.predict_proba"} <= names, names
    assert (T.conv_bn, T.conv2d, multiview.MultiViewNet.__init__) == ops
