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


def acrst_imports(path):
    """Short names of the acrst modules that a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("acrst" if node.level else "", node.module)))
            dotted = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            continue
        found |= {name.split(".")[1] for name in dotted if name.startswith("acrst.")}
    return found


def test_only_the_package_imports_the_object_api():
    # The loop speaks rows: the API's object types stay out of its modules.
    src = Path(acrst.__file__).parent
    importers = {path.name for path in src.glob("*.py") if "api" in acrst_imports(path)}
    assert importers == {"__init__.py"}
    assert not acrst_imports(src / "api.py") & {"cli", "simloop", "model", "metrics"}
