"""Guards: no surface that only tests reach, and no input that is a
constant in disguise.

Every public top-level ``def`` or ``class`` in ``src/mscope`` must be
referenced, by name or as an attribute, somewhere in ``src/mscope`` outside
its own definition. Imports do not count as references.

The inputs of every function and of every dataclass (or ``NamedTuple``)
in ``src/mscope`` are checked against the calls in ``src/mscope`` and
``perfbench/*.py``; tests are not callers. A call passes an input by
keyword or by a positional argument at its index. A ``*``/``**`` splat
may pass any input the call does not name, so it both sets a default and
relies on it. Calls are matched by the callee's last name (``f(...)``,
``mod.f(...)``, ``obj.f(...)``; a class name stands for its ``__init__``
or its fields), and ``super().__init__(...)`` in a subclass is a call of
its bases. Four rules:

- **unset**: a default that no call sets. An attribute assignment
  (``b.biopsied = 1``) sets every dataclass field of that name;
  ``self.name = ...`` does so only inside the class itself.
- **dead**: a default that every call sets, so no call relies on it.
- **constant**: a required input that every call passes the same
  constant: a literal, an UPPER_CASE name, or a dotted name on an
  imported module such as ``np.float32``.
- **equal**: two inputs that every call passes the same expression.

Each finding is a constant in disguise, or a default that copies a value
whose home is elsewhere (``config.KEYS``). The exceptions below carry the
reason each one stays.

A fifth rule, **unread**, flags a record field that no code in
``src/mscope`` or ``perfbench/*.py`` reads as an attribute (``r.name``):
a field that is written and then dropped. Reads are matched by name
alone, so a field is hidden by a same-named field of another record.

Every file layout lives in ``formats``: no other module of ``src/mscope``
imports ``struct`` or ``csv``, at the top or inside a function. Every
exam file name lives in ``phantom`` (``.pgm``) or ``heatmaps``
(``.mshm``): no other module holds a string literal with either suffix.
Per-exam work has one map, on threads: no module imports
``multiprocessing``.

Arrays keep one layout, channels-last from the view loader to the global
pool: only ``tensor`` and ``layers`` name ``transpose``, ``moveaxis`` or
``swapaxes``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mscope"
CALLERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    "multiview.column_shape_audit": "symbolic check of the paper's "
                                    "full-scale column shapes",
}

# (module, callable, parameter or field) -> why it stays without a setter
ALLOWED_KNOBS = {}

# (module, callable, input or pair of inputs) -> why every call may pass
# it the same constant or expression
ALLOWED_ARGUMENTS = {}


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
    key, inputs, positional, defaulted, record): ``key`` is the name a
    call uses, ``inputs`` its inputs, the first ``positional`` of them in
    positional order, ``defaulted`` the inputs with a default, and
    ``record`` whether they are a record's fields."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_record_class(child):
                    fields = [s for s in child.body
                              if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
                    out.append((module, child.name, child.name,
                                [f.target.id for f in fields], len(fields),
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
                            pos + [k.arg for k in a.kwonlyargs], len(pos),
                            defaulted, False))
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return out


def _argument(node, imported):
    """(source form, whether it is a constant) of an argument: a literal,
    an UPPER_CASE name, or a dotted name on an imported module is one."""
    try:
        ast.literal_eval(node)
        constant = True
    except ValueError:
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        constant = isinstance(node, ast.Name) and node.id.isupper() or \
            node is not root and isinstance(root, ast.Name) and \
            root.id in imported
    return ast.unparse(node), constant


def _settings(trees):
    """What the callers pass: {call key: [(args, keywords, splat)]}, with
    ``args`` the positional arguments before any ``*`` splat, ``keywords``
    the named ones by name, each an ``_argument``, and ``splat`` whether
    the call has a ``*`` or ``**`` splat; and the attribute names
    assigned, as {class name: names} for ``self.name`` assignments in a
    class and {None: names} for the others."""
    calls, assigned = {}, {}
    for tree in trees:
        owner = {}                               # node -> enclosing class
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for sub in ast.walk(node):
                    owner[id(sub)] = node
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).split(".")[0]
                             for a in node.names}
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
            args = []
            for a in node.args:
                if isinstance(a, ast.Starred):
                    break
                args.append(_argument(a, imported))
            keywords = {k.arg: _argument(k.value, imported)
                        for k in node.keywords if k.arg is not None}
            splat = len(args) < len(node.args) or \
                len(keywords) < len(node.keywords)
            for key in keys:
                calls.setdefault(key, []).append((args, keywords, splat))
    return calls, assigned


RULES = {
    "unset": "defaulted but never set; make each a constant",
    "dead": "a default that every call sets; drop the default",
    "constant": "every call passes the same constant; make it one",
    "equal": "every call passes the same expression to both; merge them",
}


def _knob_scan(sources=None, callers=None):
    """(every defaulted input, {rule: findings}): each a list of (module,
    callable, input), an ``equal`` finding naming a pair of inputs.
    ``sources`` maps module names to the code scanned for knobs (default
    ``src/mscope``); ``callers`` is the code searched for calls (default
    ``src/mscope`` and ``perfbench``)."""
    if sources is None:
        sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    if callers is None:
        callers = [p.read_text() for p in CALLERS]
    calls, assigned = _settings([ast.parse(c) for c in callers])
    every, found = [], {rule: [] for rule in RULES}
    for module, text in sources.items():
        for _, name, key, inputs, positional, defaulted, record in \
                _knobs(ast.parse(text), module):
            # what each call passes to each input, by name; a splat
            # may pass any input it does not name
            passed = []
            for args, keywords, splat in calls.get(key, ()):
                given = dict(zip(inputs[:positional], args))
                given.update((k, v) for k, v in keywords.items()
                             if k in inputs)
                passed.append((given, splat))
            for knob in inputs:
                forms = {given[knob] for given, _ in passed
                         if knob in given}
                everywhere = bool(passed) and \
                    all(knob in given for given, _ in passed)
                if knob not in defaulted:
                    if everywhere and len(forms) == 1 and \
                            next(iter(forms))[1]:
                        found["constant"].append((module, name, knob))
                    continue
                every.append((module, name, knob))
                if everywhere:
                    found["dead"].append((module, name, knob))
                elif not forms and not any(s for _, s in passed) and \
                        not (record and (knob in assigned.get(None, ()) or
                                         knob in assigned.get(name, ()))):
                    found["unset"].append((module, name, knob))
            for i, a in enumerate(inputs):
                for b in inputs[i + 1:]:
                    if passed and all(a in given and b in given and
                                      given[a][0] == given[b][0]
                                      for given, _ in passed):
                        found["equal"].append((module, name, (a, b)))
    return every, found


def test_every_knob_has_a_setter():
    _, found = _knob_scan()
    stray = [k for k in found["unset"] if k not in ALLOWED_KNOBS]
    assert not stray, f"{RULES['unset']}: {stray}"


def test_knob_allowlist_is_current():
    every, found = _knob_scan()
    for knob in ALLOWED_KNOBS:
        assert knob in every, f"{knob} no longer exists; drop it here"
        assert knob in found["unset"], \
            f"{knob} now has a setter; drop it here"


@pytest.mark.parametrize("rule", ["dead", "constant", "equal"])
def test_every_input_varies(rule):
    _, found = _knob_scan()
    stray = [k for k in found[rule] if k not in ALLOWED_ARGUMENTS]
    assert not stray, f"{RULES[rule]}: {stray}"


def test_argument_allowlist_is_current():
    _, found = _knob_scan()
    for knob in ALLOWED_ARGUMENTS:
        assert knob in found["constant"] + found["equal"], \
            f"{knob} now varies; drop it here"


EXTRA = """
from dataclasses import dataclass

def scale(x, factor=2.0, *, bias=0.0):
    return x * factor + bias

def span(lo, hi):
    return hi - lo

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

base = Base()
"""

# neither sets nor relies on a default of ``scale`` or ``Spec`` for certain
_NEUTRAL = "\nscale(*xs)\nSpec(**kw)"


@pytest.mark.parametrize("caller, expected", [
    ("scale(a)\nSpec(n)", {"unset": {"factor", "bias", "margin"}}),
    ("scale(a, 3.0, bias=1.0)\nscale(b)\nSpec(n, 2)\nSpec(m)", {}),
    ("scale(*xs)\nscale(**kw)\nSpec(**kw)", {}),
    ("scale(a, 3.0, 4.0)\nscale(b)\ns = Spec(n)\ns.margin = 2",
     {"unset": {"bias"}}),
    ("scale(a, 3.0)\nscale(b, 2.5, bias=c)\nSpec(n)\nSpec(m, 2)",
     {"dead": {"factor"}}),
    ("scale(a, 3.0)\nscale(b, **kw)\nSpec(n)\nSpec(m, 2)", {}),
    ("span((0, -1), a)\nspan((0, -1), b)" + _NEUTRAL, {"constant": {"lo"}}),
    ("span(LOW, a)\nspan(LOW, b)" + _NEUTRAL, {"constant": {"lo"}}),
    ("import numpy as np\nspan(np.float32, a)\nspan(np.float32, b)" +
     _NEUTRAL, {"constant": {"lo"}}),
    ("span(0, a)\nspan(1, b)" + _NEUTRAL, {}),
    ("span(cfg.lr, a)\nspan(cfg.lr, b)" + _NEUTRAL, {}),
    ("span(a, a)\nspan(b.c, b.c)" + _NEUTRAL, {"equal": {("lo", "hi")}}),
], ids=["defaults", "positional-and-keyword", "splats", "assignment",
        "dead-default", "splat-keeps-default", "constant-argument",
        "constant-name", "constant-module-name", "varying-argument",
        "attribute-argument", "equal-pair"])
def test_knob_scan_finds_unset_defaults(caller, expected):
    every, found = _knob_scan({"extra": EXTRA}, [EXTRA, caller])
    assert {k for _, _, k in every} == {"factor", "bias", "margin", "flag"}
    assert {rule: {k for _, _, k in found[rule]} for rule in RULES} == \
        {rule: expected.get(rule, set()) for rule in RULES}


# ---------------------------------------------------------------------------
# record fields that nothing reads

def _unread_fields(sources=None, callers=None):
    """Each (module, record, field) of ``sources`` (default
    ``src/mscope``) that no code in ``callers`` (default ``src/mscope``
    and ``perfbench``) reads as an attribute."""
    if sources is None:
        sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    if callers is None:
        callers = [p.read_text() for p in CALLERS]
    read = {node.attr for text in callers for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [(module, name, field)
            for module, text in sources.items()
            for _, name, _, fields, _, _, record in
            _knobs(ast.parse(text), module) if record
            for field in fields if field not in read]


def test_every_record_field_is_read():
    unread = _unread_fields()
    assert not unread, f"record fields never read as an attribute: {unread}"


RECORD = """
from dataclasses import dataclass
from typing import NamedTuple

@dataclass
class Window:
    pixels: object
    label: int
    angle: float = 0.0

class Row(NamedTuple):
    key: str
    score: float
"""


@pytest.mark.parametrize("caller, unread", [
    ("w.pixels, w.label, w.angle\nrow.key, row.score", set()),
    ("w.pixels, w.label\nw.angle = 1.0\nrow.key", {"angle", "score"}),
    ("w.pixels\nlabel = w.label\nkey, score = row", {"angle", "key",
                                                       "score"}),
], ids=["all-read", "written-not-read", "unpacked-not-read"])
def test_unread_scan_finds_unread_fields(caller, unread):
    found = _unread_fields({"extra": RECORD}, [RECORD, caller])
    assert {field for _, _, field in found} == unread


# ---------------------------------------------------------------------------
# file layouts

def _importers(module):
    """The modules of ``src/mscope`` that import ``module``."""
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and \
                    module in (alias.name for alias in node.names) or \
                    isinstance(node, ast.ImportFrom) and node.module == module:
                importers.add(path.stem)
    return importers


@pytest.mark.parametrize("parser", ["struct", "csv"])
def test_only_formats_imports_a_file_parser(parser):
    importers = _importers(parser)
    assert importers <= {"formats"}, \
        f"modules other than formats import {parser}: " \
        f"{sorted(importers - {'formats'})}"


def test_only_seeding_imports_ctypes():
    """Foreign calls stay in one place: the OpenBLAS and malloc probes of
    ``seeding``'s thread map."""
    importers = _importers("ctypes")
    assert importers <= {"seeding"}, \
        f"modules other than seeding import ctypes: " \
        f"{sorted(importers - {'seeding'})}"


def test_no_module_imports_multiprocessing():
    """Per-exam work has one map, on threads of the calling process
    (``seeding._map_threads``): no module starts worker processes."""
    assert not _importers("multiprocessing")


def test_only_phantom_and_heatmaps_name_exam_files():
    """Exam files are named in one place each: the ``.pgm`` images and
    masks by ``phantom``, the ``.mshm`` heatmaps by ``heatmaps``; no other
    module of ``src/mscope`` holds a string literal with either suffix."""
    namers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and (".pgm" in node.value or ".mshm" in node.value):
                namers.add(path.stem)
    assert namers <= {"phantom", "heatmaps"}, \
        f"modules other than phantom and heatmaps name exam files: " \
        f"{sorted(namers - {'phantom', 'heatmaps'})}"


# ---------------------------------------------------------------------------
# one layout

def test_only_tensor_and_layers_reorder_axes():
    """A channel-first stack needs an axis reorder to reach a column, so
    only the engine (``tensor``) and the kernel draw (``layers.he_normal``,
    in the channel-first order that keeps seeded weights) may name one."""
    reorders = {"transpose", "moveaxis", "swapaxes"}
    callers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and \
                    _last_name(node) in reorders:
                callers.add(path.stem)
    assert callers <= {"tensor", "layers"}, \
        f"modules other than tensor and layers reorder axes: " \
        f"{sorted(callers - {'tensor', 'layers'})}"
