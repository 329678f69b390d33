"""The package re-exports exactly the names the acceptance suite imports from it."""

import ast
import inspect
from pathlib import Path

import acrst


def acceptance_imports():
    source = (Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8")
    return {
        alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.module == "acrst" and node.level == 0
        for alias in node.names
    }


def test_public_names_are_the_acceptance_imports():
    public = {
        name
        for name, value in vars(acrst).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == acceptance_imports()
