"""The demos use semigrad's public names; each must resolve without running a demo."""

import ast
import glob
import importlib
import os

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                      os.pardir, "demos", "*.py")))


def _semigrad_references(path):
    """(module, attribute) for each `from semigrad... import name` and `alias.attr`."""
    tree = ast.parse(open(path).read(), filename=path)
    aliases = {}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "semigrad":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "semigrad":
            refs += [(node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.append((aliases[node.value.id], node.attr))
    return refs


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_names_resolve(path):
    refs = _semigrad_references(path)
    assert refs
    missing = sorted({f"{mod}.{attr}" for mod, attr in refs
                      if not hasattr(importlib.import_module(mod), attr)})
    assert not missing, f"{os.path.basename(path)} uses missing names: {missing}"
