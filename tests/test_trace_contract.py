"""The traced benchmark run wraps semigrad functions by name; they must resolve."""

import importlib
import os
import sys

import pytest

import semigrad

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
import spans  # noqa: E402


@pytest.mark.parametrize("name", sorted(spans.FUNCTIONS))
def test_traced_function_resolves(name):
    modname, attr = spans.FUNCTIONS[name]
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("name", sorted(spans.METHODS))
def test_traced_method_resolves(name):
    cls_name, attr = spans.METHODS[name]
    assert callable(vars(getattr(semigrad.models, cls_name))[attr])
