"""Every public function and class of the package has a caller.

A top-level public name of a module under src/accrgeo must be exported
(accrgeo.__all__), read by some module of the package (a name or an
attribute in its code; a docstring does not count), or be a command
builder that cli.COMMANDS names. A second route that nothing takes fails
here.

Every defaulted or keyword-only parameter of the package is set by some
call in the package or in the gate (tests/test_acceptance.py), save the few
UNSET_ALLOWED names: a knob that only tests set fails here too.
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


#: parameters that no call in the package or the gate sets, each with its reason
UNSET_ALLOWED = {
    "main.argv": "the console entry point: the console script calls main() on sys.argv",
    "Check.measure.note": "the frozen scalar references in tests measure checks with notes",
    "TheoremReport.verdict.tol": "the reference verdict the table verdict tests compare against",
}

GATE = Path(__file__).resolve().parent / "test_acceptance.py"


def _defaulted_parameters():
    """(qualified name, function name, parameter, positional index or None)
    of each defaulted or keyword-only parameter of a function or method of
    the package; a method's index counts from the argument after self."""
    found = []
    for tree in MODULES.values():
        owners = {
            id(node): owner.name
            for owner in ast.walk(tree)
            if isinstance(owner, ast.ClassDef)
            for node in owner.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args, owner = node.args, owners.get(id(node))
            positional = [*args.posonlyargs, *args.args]
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            if owner is not None and not static:
                positional = positional[1:]
            prefix = node.name if owner is None else f"{owner}.{node.name}"
            first = len(positional) - len(args.defaults)
            found += [
                (f"{prefix}.{a.arg}", node.name, a.arg, index)
                for index, a in enumerate(positional)
                if index >= first
            ]
            found += [(f"{prefix}.{a.arg}", node.name, a.arg, None) for a in args.kwonlyargs]
    return found


def _calls():
    """(callee name, positional count, keyword names, unpacks) of every call
    in the package and in the gate; unpacks marks a call with *args or
    **kwargs."""
    trees = [*MODULES.values(), ast.parse(GATE.read_text(encoding="utf-8"))]
    return [
        (
            getattr(node.func, "id", getattr(node.func, "attr", None)),
            len(node.args),
            {keyword.arg for keyword in node.keywords},
            any(isinstance(arg, ast.Starred) for arg in node.args)
            or any(keyword.arg is None for keyword in node.keywords),
        )
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]


def test_every_defaulted_parameter_is_set_by_some_caller():
    # a parameter that only tests set is a knob nothing uses: some call in
    # the package or in the gate (tests/test_acceptance.py) must pass it, by
    # keyword or by position
    calls = _calls()
    unset = [
        qualified
        for qualified, name, parameter, index in _defaulted_parameters()
        if not any(
            callee == name
            and (unpacks or parameter in keywords or (index is not None and index < count))
            for callee, count, keywords, unpacks in calls
        )
    ]
    assert sorted(unset) == sorted(UNSET_ALLOWED)
