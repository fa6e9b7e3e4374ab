"""Outside-in span tracer for the mscope pipeline.

Nothing in ``src/`` knows about it. While installed, it replaces:

* every public module-level function of every mscope module, in every
  module that holds a reference to it (``training.adam_step`` is the same
  function as ``optim.adam_step`` and both names are wrapped);
* the ``_backward`` closure of each Tensor such a function returns;
* a few methods: ``Tensor.backward``, ``PatchNet.predict_proba``,
  ``EarlyStopper.update`` and ``MultiViewNet.fuse``;
* the ``forward`` of the stem, residual blocks, columns and heads of each
  ``MultiViewNet`` built while it is installed.

Each call becomes a span: name, start, end, parent span. Spans stay in
memory; ``Profile`` sums them per name when the run ends. A backward
closure also remembers the innermost model span (``multiview.block3``,
...) that was open when its op ran forward, so backward time can be
charged to the block that owns it.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter as clock

import numpy as np

MODULES = ("tensor", "layers", "multiview", "optim", "training", "resample",
           "pgm", "patches", "heatmaps", "evaluation", "phantom",
           "checkpoint", "cli")

# private functions wrapped as well: they mark where a training step starts
EXTRA = {"training": ("_forward_batch",)}

LOSSES = ("optim.binary_cross_entropy", "optim.weighted_batch_cross_entropy",
          "optim.nll_on_probs")

NAME, START, END, PARENT, CHILD, OWNER = range(6)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, had, old = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def _mscope_modules():
    import importlib
    return {m: importlib.import_module(f"mscope.{m}") for m in MODULES}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, child_s, owner]
        self._stack = []         # indices of open spans
        self._owners = []        # names of open model spans
        self.flops = 0.0         # conv2d forward FLOPs, from shapes
        self.im2col_bytes = 0.0  # conv2d forward column matrices, from shapes
        self.windows = 0         # heatmap windows sent to the patch model
        self._patches = None

    # -- span recording --

    def call(self, name, fn, args, kwargs):
        spans = self.spans
        idx = len(spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, 0.0, None]
        spans.append(rec)
        self._stack.append(idx)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            self._stack.pop()
            rec[START] = t0
            rec[END] = t1
            if parent >= 0:
                spans[parent][CHILD] += t1 - t0

    def _wrap_backward(self, out, name):
        orig = out._backward
        owner = self._owners[-1] if self._owners else None
        bname = name + ".bwd"

        def bwd(g):
            idx = len(self.spans)
            self.call(bname, orig, (g,), {})
            self.spans[idx][OWNER] = owner

        out._backward = bwd

    def _function(self, name, fn, tensor_cls):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            if isinstance(out, tensor_cls) and out._backward is not None:
                if name == "tensor.conv2d":
                    tracer._count_conv(args, out)
                tracer._wrap_backward(out, name)
            return out
        return traced

    def _count_conv(self, args, out):
        x, w = args[0].data, args[1].data
        n, cout, ho, wo = out.data.shape
        _, cin, kh, kw = w.shape
        self.flops += 2.0 * n * ho * wo * cout * cin * kh * kw
        self.im2col_bytes += float(n * ho * wo * kh * kw * cin * x.itemsize)

    def _method(self, name, fn, owner_span=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not owner_span:
                return tracer.call(name, fn, args, kwargs)
            tracer._owners.append(name)
            try:
                return tracer.call(name, fn, args, kwargs)
            finally:
                tracer._owners.pop()
        return traced

    def _wrap_forward(self, module, name):
        self._patches.set(module, "forward",
                          self._method(name, module.forward, owner_span=True))

    # -- installation --

    def install(self):
        mods = _mscope_modules()
        tensor_cls = mods["tensor"].Tensor
        self._patches = patches = Patches()

        wrapped = {}
        for short, mod in mods.items():
            extra = EXTRA.get(short, ())
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in extra:
                    continue
                wrapped[obj] = self._function(f"{short}.{name}", obj, tensor_cls)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    patches.set(mod, name, wrapped[obj])

        patches.set(tensor_cls, "backward",
                    self._method("tensor.backward", tensor_cls.backward))
        net_cls = mods["patches"].PatchNet
        orig_proba = net_cls.predict_proba

        def predict_proba(net, batch):
            self.windows += len(batch)
            return self.call("patches.predict_proba", orig_proba, (net, batch), {})
        patches.set(net_cls, "predict_proba", predict_proba)
        stopper = mods["training"].EarlyStopper
        patches.set(stopper, "update",
                    self._method("training.early_stop", stopper.update))

        mv = mods["multiview"].MultiViewNet
        patches.set(mv, "fuse", self._method("multiview.fuse", mv.fuse,
                                             owner_span=True))
        orig_init = mv.__init__
        tracer = self

        @functools.wraps(orig_init)
        def init(net, *args, **kwargs):
            orig_init(net, *args, **kwargs)
            for col in (net.cc_column, net.mlo_column):
                tracer._wrap_forward(col, "multiview.column")
                tracer._wrap_forward(col.stem, "multiview.stem")
                tracer._wrap_forward(col.stem_bn, "multiview.stem")
                for i, block in enumerate(col.blocks):
                    tracer._wrap_forward(block, f"multiview.block{i}")
            for head in net.heads.values():
                tracer._wrap_forward(head, "multiview.head")
        patches.set(mv, "__init__", init)
        return self

    def uninstall(self):
        if self._patches is not None:
            self._patches.restore()
            self._patches = None

    def write(self, path):
        """Spans as JSON lines: name, start and end (s), parent index and
        the model span a backward closure is charged to."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"i": i, "name": s[NAME], "start": s[START],
                                    "end": s[END], "parent": s[PARENT],
                                    "owner": s[OWNER]}) + "\n")


class Profile:
    """Per-name sums over a tracer's spans, scaled to one run."""

    def __init__(self, tracer, scale=1.0, wall_s=None):
        self.total = defaultdict(float)   # inclusive seconds
        self.self_s = defaultdict(float)  # exclusive seconds
        self.calls = defaultdict(float)
        self.owner_bwd = defaultdict(float)
        self.steps_ms = []
        covered = 0.0
        step_start = None
        for s in tracer.spans:
            dur = s[END] - s[START]
            name = s[NAME]
            self.total[name] += dur * scale
            self.self_s[name] += (dur - s[CHILD]) * scale
            self.calls[name] += scale
            if s[OWNER] is not None:
                self.owner_bwd[s[OWNER]] += dur * scale
            if s[PARENT] < 0:
                covered += dur
            else:
                parent = tracer.spans[s[PARENT]][NAME]
                # a cancer-model step runs from its batch's forward to Adam
                if parent == "training.train_cancer_model":
                    if name == "training._forward_batch":
                        step_start = s[START]
                    elif name == "optim.adam_step" and step_start is not None:
                        self.steps_ms.append((s[END] - step_start) * 1e3)
                        step_start = None
        # wall time outside every top-level span, when the wall is given
        self.uncovered_s = 0.0 if wall_s is None else (wall_s - covered) * scale
        self.flops = tracer.flops * scale
        self.im2col_bytes = tracer.im2col_bytes * scale
        self.windows = tracer.windows * scale

    def add(self, other):
        for field in ("total", "self_s", "calls", "owner_bwd"):
            mine = getattr(self, field)
            for k, v in getattr(other, field).items():
                mine[k] += v
        self.steps_ms += other.steps_ms
        self.uncovered_s += other.uncovered_s
        self.flops += other.flops
        self.im2col_bytes += other.im2col_bytes
        self.windows += other.windows
        return self


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


OPS = ("conv2d", "batchnorm2d", "relu", "add", "maxpool2d", "linear")
RANKING = ("roc_auc", "pr_auc", "roc_curve_points", "pr_curve_points")


def layer_metrics(p, pool_accept_ratio, overhead):
    """Every per-layer metric, ``name -> (value, unit)``."""
    def ms(name):
        return p.total.get(name, 0.0) * 1e3

    out = {}
    for op in OPS:
        out[f"tensor.{op}.fwd_ms"] = (ms(f"tensor.{op}"), "ms")
        out[f"tensor.{op}.bwd_ms"] = (ms(f"tensor.{op}.bwd"), "ms")
    out["tensor.conv2d.calls"] = (p.calls.get("tensor.conv2d", 0.0), "count")
    conv_s = p.total.get("tensor.conv2d", 0.0)
    out["tensor.conv2d.gflop_per_s"] = (
        p.flops / conv_s / 1e9 if conv_s else 0.0, "GFLOP/s")
    out["tensor.conv2d.im2col_mb"] = (p.im2col_bytes / 1e6, "MB-computed")
    out["tensor.backward.self_ms"] = (
        p.self_s.get("tensor.backward", 0.0) * 1e3, "ms")

    for part in ["stem"] + [f"block{i}" for i in range(10)]:
        out[f"multiview.{part}.fwd_ms"] = (ms(f"multiview.{part}"), "ms")
        out[f"multiview.{part}.bwd_ms"] = (
            p.owner_bwd.get(f"multiview.{part}", 0.0) * 1e3, "ms")
    out["multiview.fuse_ms"] = (ms("multiview.fuse"), "ms")

    out["layers.check_finite_ms"] = (ms("tensor.check_finite"), "ms")
    out["optim.adam_step_ms"] = (ms("optim.adam_step"), "ms")
    out["optim.loss_ms"] = (sum(ms(n) + ms(n + ".bwd") for n in LOSSES), "ms")

    for name in ("prepare_views", "predict_exams", "predict_tta"):
        out[f"training.{name}_ms"] = (ms(f"training.{name}"), "ms")
    out["training.collect_gradients_ms"] = (ms("tensor.collect_gradients"), "ms")
    out["training.early_stop_ms"] = (ms("training.early_stop"), "ms")
    out["training.step_ms.p50"] = (_percentile(p.steps_ms, 50), "ms")
    out["training.step_ms.p90"] = (_percentile(p.steps_ms, 90), "ms")

    out["resample.bicubic_resize.ms"] = (ms("resample.bicubic_resize"), "ms")
    out["resample.bicubic_resize.calls"] = (
        p.calls.get("resample.bicubic_resize", 0.0), "count")
    out["pgm.read_pgm.ms"] = (ms("pgm.read_pgm"), "ms")
    out["pgm.read_pgm.calls"] = (p.calls.get("pgm.read_pgm", 0.0), "count")

    out["patches.build_patch_pools_ms"] = (ms("patches.build_patch_pools"), "ms")
    out["patches.pool_accept_ratio"] = (pool_accept_ratio, "share")
    out["patches.predict_proba_ms"] = (ms("patches.predict_proba"), "ms")
    out["patches.windows"] = (p.windows, "count")

    out["heatmaps.generate_ms"] = (ms("heatmaps.generate_heatmaps"), "ms")
    out["heatmaps.paint_self_ms"] = (
        p.self_s.get("heatmaps.generate_heatmaps", 0.0) * 1e3, "ms")
    out["heatmaps.save_heatmap_ms"] = (ms("heatmaps.save_heatmap"), "ms")
    out["heatmaps.load_heatmap_ms"] = (ms("heatmaps.load_heatmap"), "ms")

    for name in RANKING:
        out[f"evaluation.{name}.ms"] = (ms(f"evaluation.{name}"), "ms")
        out[f"evaluation.{name}.calls"] = (
            p.calls.get(f"evaluation.{name}", 0.0), "count")
    for name in ("subpopulation", "simulate_readers", "hybrid_sweep",
                 "read_predictions"):
        out[f"evaluation.{name}_ms"] = (ms(f"evaluation.{name}"), "ms")

    for name in ("load_manifest", "build_population", "generate_dataset"):
        out[f"phantom.{name}_ms"] = (ms(f"phantom.{name}"), "ms")
    out["checkpoint.save_ms"] = (ms("checkpoint.save_checkpoint"), "ms")
    out["checkpoint.load_ms"] = (ms("checkpoint.load_checkpoint"), "ms")
    out["cli.self_ms"] = (sum(v for k, v in p.self_s.items()
                              if k.startswith("cli.")) * 1e3, "ms")

    out["trace.uncovered_ms"] = (p.uncovered_s * 1e3, "ms")
    out["trace.overhead"] = (overhead, "share")
    return out
