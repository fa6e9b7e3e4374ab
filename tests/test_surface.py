"""Guards: no surface that only tests reach.

Every public top-level ``def`` or ``class`` in ``src/mscope`` must be
referenced, by name or as an attribute, somewhere in ``src/mscope`` outside
its own definition. Imports do not count as references.

Every defaulted parameter of a function and every defaulted field of a
dataclass (or ``NamedTuple``) in ``src/mscope`` must be set somewhere in
``src/mscope`` or ``perfbench/*.py``; a default that no caller overrides is
a constant in disguise. A call sets a parameter by keyword, by a positional
argument at or beyond its index, or by a ``*``/``**`` splat. Calls are
matched by the callee's last name (``f(...)``, ``mod.f(...)``,
``obj.f(...)``; a class name stands for its ``__init__`` or its fields), and
``super().__init__(...)`` in a subclass is a call of its bases. An
attribute assignment (``b.biopsied = 1``) sets every dataclass field of
that name; ``self.name = ...`` does so only inside the class itself.

The exceptions below carry the reason each one stays.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mscope"
CALLERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    "tensor.sum_all": "scalar reduction the gradient checks differentiate",
    "multiview.column_shape_audit": "symbolic check of the paper's "
                                    "full-scale column shapes",
}

# (module, callable, parameter or field) -> why it stays without a setter
ALLOWED_KNOBS = {
    ("heatmaps", "select_patch_checkpoint", "log"):
        "progress hook, replaced by the run ledger's event sink",
    ("training", "pretrain_birads", "log"):
        "progress hook, replaced by the run ledger's event sink",
}


def _definitions_and_references():
    defs = []                       # (qualified name, name, node)
    refs = []                       # (node, names referenced inside it)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
            refs.append((node, names))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defs.append((f"{path.stem}.{node.name}", node.name, node))
    return defs, refs


def test_every_public_definition_has_a_caller_in_src():
    defs, refs = _definitions_and_references()
    unused = [qual for qual, name, node in defs
              if qual not in ALLOWED
              and not any(name in names for other, names in refs
                          if other is not node)]
    assert not unused, f"public but never referenced in src/mscope: {unused}"


def test_allowlist_is_current():
    defs, refs = _definitions_and_references()
    by_qual = {qual: (name, node) for qual, name, node in defs}
    for qual in ALLOWED:
        assert qual in by_qual, f"{qual} no longer exists; drop it here"
        name, node = by_qual[qual]
        assert not any(name in names for other, names in refs
                       if other is not node), \
            f"{qual} now has a caller in src/mscope; drop it here"


# ---------------------------------------------------------------------------
# knobs: defaulted parameters and fields

def _last_name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _is_record_class(node):
    """A dataclass or a NamedTuple: its annotated fields are its inputs."""
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in node.decorator_list]
    return "dataclass" in map(_last_name, decorators) or \
        "NamedTuple" in map(_last_name, node.bases)


def _knobs(tree, module):
    """Every callable and record class of ``tree``, as (module, name,
    key, inputs, defaulted, record): ``key`` is the name a call uses,
    ``inputs`` the positional order, ``defaulted`` the inputs with a
    default, and ``record`` whether they are a record's fields."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_record_class(child):
                    fields = [s for s in child.body
                              if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
                    out.append((module, child.name, child.name,
                                [f.target.id for f in fields],
                                {f.target.id for f in fields
                                 if f.value is not None}, True))
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = [p.arg for p in a.posonlyargs + a.args]
                if owner is not None and "staticmethod" not in \
                        map(_last_name, child.decorator_list):
                    pos = pos[1:]                # self
                defaulted = set(pos[len(pos) - len(a.defaults):]) \
                    if a.defaults else set()
                defaulted |= {k.arg for k, d in zip(a.kwonlyargs,
                                                    a.kw_defaults)
                              if d is not None}
                init = owner is not None and child.name == "__init__"
                out.append((module,
                            child.name if owner is None
                            else f"{owner.name}.{child.name}",
                            owner.name if init else child.name,
                            pos, defaulted, False))
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return out


def _settings(trees):
    """What the callers set: {call key: [(positional count, keywords)]},
    where a count or keywords of None stands for a splat, and the
    attribute names assigned, as {class name: names} for ``self.name``
    assignments in a class and {None: names} for the others."""
    calls, assigned = {}, {}
    for tree in trees:
        owner = {}                               # node -> enclosing class
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for sub in ast.walk(cls):
                    owner[id(sub)] = cls
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for sub in (s for t in targets for s in ast.walk(t)):
                    if isinstance(sub, ast.Attribute):
                        cls = owner.get(id(sub)) \
                            if _last_name(sub.value) == "self" else None
                        assigned.setdefault(cls and cls.name,
                                            set()).add(sub.attr)
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr == "__init__" and \
                    isinstance(f.value, ast.Call) and \
                    _last_name(f.value.func) == "super":
                keys = [_last_name(b) for b in owner[id(node)].bases]
            else:
                keys = [_last_name(f)]
            npos = None if any(isinstance(a, ast.Starred)
                               for a in node.args) else len(node.args)
            kws = None if any(k.arg is None for k in node.keywords) \
                else {k.arg for k in node.keywords}
            for key in keys:
                calls.setdefault(key, []).append((npos, kws))
    return calls, assigned


def _knob_scan(sources=None, callers=None):
    """(every defaulted input, the ones nothing sets), each a list of
    (module, callable, input). ``sources`` maps module names to the code
    scanned for knobs (default ``src/mscope``); ``callers`` is the code
    searched for setters (default ``src/mscope`` and ``perfbench``)."""
    if sources is None:
        sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    if callers is None:
        callers = [p.read_text() for p in CALLERS]
    calls, assigned = _settings([ast.parse(c) for c in callers])
    every, unset = [], []
    for module, text in sources.items():
        for _, name, key, inputs, defaulted, record in \
                _knobs(ast.parse(text), module):
            for knob in sorted(defaulted):
                every.append((module, name, knob))
                # keyword-only inputs are out of positional reach
                index = inputs.index(knob) if knob in inputs else None
                if record and (knob in assigned.get(None, ()) or
                               knob in assigned.get(name, ())):
                    continue
                if not any(npos is None or kws is None or knob in kws or
                           (index is not None and npos > index)
                           for npos, kws in calls.get(key, ())):
                    unset.append((module, name, knob))
    return every, unset


def test_every_knob_has_a_setter():
    _, unset = _knob_scan()
    stray = [k for k in unset if k not in ALLOWED_KNOBS]
    assert not stray, ("defaulted but never set in src/mscope or "
                       f"perfbench; make each a constant: {stray}")


def test_knob_allowlist_is_current():
    every, unset = _knob_scan()
    for knob in ALLOWED_KNOBS:
        assert knob in every, f"{knob} no longer exists; drop it here"
        assert knob in unset, f"{knob} now has a setter; drop it here"


EXTRA = """
from dataclasses import dataclass

def scale(x, factor=2.0, *, bias=0.0):
    return x * factor + bias

@dataclass
class Spec:
    size: int
    margin: int = 1

class Base:
    def __init__(self, flag=False):
        self.flag = flag

class Child(Base):
    def __init__(self):
        super().__init__(flag=True)
"""


@pytest.mark.parametrize("caller, unset", [
    ("scale(1)\nSpec(3)", {"factor", "bias", "margin"}),
    ("scale(1, 3.0, bias=1.0)\nSpec(3, 2)", set()),
    ("scale(*xs)\nscale(**kw)\nSpec(**kw)", set()),
    ("scale(1, 3.0, 4.0)\ns = Spec(3)\ns.margin = 2", {"bias"}),
], ids=["defaults", "positional-and-keyword", "splats", "assignment"])
def test_knob_scan_finds_unset_defaults(caller, unset):
    every, found = _knob_scan({"extra": EXTRA}, [EXTRA, caller])
    assert {k for _, _, k in every} == {"factor", "bias", "margin", "flag"}
    assert {k for _, _, k in found} == unset
