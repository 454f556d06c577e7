"""The package surface: every exported name resolves, and every error
type the package declares is one it raises."""

import ast
import inspect
import pathlib

import hypq
from hypq import errors

SRC = pathlib.Path(hypq.__file__).parent


def _raised_names():
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_is_raised_somewhere():
    declared = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.HypqError) and cls is not errors.HypqError
    }
    assert declared
    assert sorted(declared - _raised_names()) == []


def test_every_export_resolves():
    assert len(set(hypq.__all__)) == len(hypq.__all__)
    for name in hypq.__all__:
        assert getattr(hypq, name, None) is not None, name
