"""Every public name has a caller: a reference inside the package's own
modules, or a mention in the README (the user-facing entry points).

References are the names and attribute names the package's source loads;
import statements and the strings in ``__all__`` do not count, so a name
only re-exported or only listed is flagged.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import pccontrol
from pccontrol import errors

SRC = Path(pccontrol.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _referenced() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _uncalled(module, candidates) -> list[str]:
    used = _referenced()
    readme = README.read_text()
    return [
        name for name in candidates
        if not inspect.ismodule(getattr(module, name))
        and name not in used
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]


@pytest.mark.parametrize("short", MODULES)
def test_public_names_have_a_caller(short):
    name = "pccontrol" if short == "__init__" else f"pccontrol.{short}"
    module = importlib.import_module(name)
    assert _uncalled(module, getattr(module, "__all__", ())) == []


def test_error_classes_have_a_caller():
    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)]
    assert classes
    assert _uncalled(errors, classes) == []
