"""Guard: no public module-level function or class that only tests call.

Every public top-level ``def`` or ``class`` in ``src/mscope`` must be
referenced, by name or as an attribute, somewhere in ``src/mscope`` outside
its own definition. Imports do not count as references. The exceptions
below check the paper's specification or serve as test references; each
carries the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mscope"

ALLOWED = {
    "tensor.sum_all": "scalar reduction the gradient checks differentiate",
    "multiview.column_shape_audit": "symbolic check of the paper's "
                                    "full-scale column shapes",
    "multiview.hidden_budget": "check of the paper's 1,024 hidden "
                               "activations per fusion variant",
    "multiview.count_parameters": "parameter count of the paper's columns",
    "evaluation.prediction_correlations": "reference statistic for the "
                                          "simulated reader correlations",
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
