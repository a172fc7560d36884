"""Static checks that a deletion in src/convexa leaves nothing behind: no
import that is never used, and no private module-level name that nothing
reads. They parse the source with the standard-library `ast`, so they need
no linter."""

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "convexa"
MODULES = sorted(SOURCE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}


def _read_names(tree):
    """Every name the module reads, as a variable or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree):
    """The strings listed in the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


@pytest.mark.parametrize("module", TREES)
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    used = _read_names(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(name)
    assert unused == [], module


def _private_definitions(tree):
    """The private names the module binds at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_name_is_read():
    read = set().union(*map(_read_names, TREES.values()))
    unread = [
        f"{module}:{name}"
        for module, tree in TREES.items()
        for name in _private_definitions(tree)
        if name not in read
    ]
    assert unread == []
