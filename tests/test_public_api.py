"""Every public function and class of the package has a caller.

A top-level public name of a module under src/accrgeo must be exported
(accrgeo.__all__), read by some module of the package (a name or an
attribute in its code; a docstring does not count), or be a command
builder that cli.COMMANDS names. A second route that nothing takes fails
here.
"""

import ast
from pathlib import Path

import accrgeo
from accrgeo.cli import COMMANDS

SRC = Path(accrgeo.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _public_definitions():
    """(module, name) of each top-level public function or class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (module, node.name)
        for module, tree in MODULES.items()
        if module != "__init__"
        for node in tree.body
        if isinstance(node, kinds) and not node.name.startswith("_")
    ]


def _read_names():
    """Every name the package's code reads, as a name or an attribute."""
    names = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_definition_has_a_caller():
    definitions = _public_definitions()
    assert len(definitions) > 50
    builders = {name for entry in COMMANDS.values() for name in entry[2:]}
    reached = set(accrgeo.__all__) | _read_names() | builders
    unreached = [f"{module}.{name}" for module, name in definitions if name not in reached]
    assert unreached == []
