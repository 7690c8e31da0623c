"""The package's public surface: every name in ``__all__`` resolves, and
every other top-level function or class of ``src/`` has a program caller."""

import ast
from pathlib import Path

import dunkl_dihedral

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from dunkl_dihedral import *", namespace)  # raises on a name that is missing
    assert set(dunkl_dihedral.__all__) <= namespace.keys()
    assert [name for name in dunkl_dihedral.__all__ if not hasattr(dunkl_dihedral, name)] == []


def _read_names(tree: ast.AST) -> set[str]:
    """The names a module reads: loaded names, attributes, and string
    constants (bench/spans.py names the functions it traces as strings)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_src_function_and_class_has_a_program_caller():
    # a function that only tests call belongs in tests/definitions.py;
    # the public names are exempt
    package = ROOT / "src" / "dunkl_dihedral"
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = set(dunkl_dihedral.__all__)
    for tree in [*trees.values(), *(ast.parse(p.read_text()) for p in (ROOT / "bench").glob("*.py"))]:
        read |= _read_names(tree)
    unread = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    ]
    assert unread == []
