"""No orphaned helpers: every module-level private name of the package is
used somewhere in the package, not only by the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gf1d"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """(name, first line, last line) of each private name bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in filter(_private, names):
            yield name, node.lineno, node.end_lineno


def _uses(tree):
    """(name, line) of each read of a name: a load, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def orphans(src=SRC):
    """The module-level private names of the package at ``src`` that nothing
    but their own definition reads, as "module.name"."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    uses = {stem: list(_uses(tree)) for stem, tree in trees.items()}
    found = []
    for stem, tree in trees.items():
        for name, first, last in _definitions(tree):
            used = any(
                use == name and not (other == stem and first <= line <= last)
                for other, reads in uses.items()
                for use, line in reads
            )
            if not used:
                found.append(f"{stem}.{name}")
    return found


def test_every_private_name_has_a_reader():
    assert orphans() == []


def test_an_orphaned_helper_is_found(tmp_path):
    # a helper whose only reader is itself, and one that nothing reads
    (tmp_path / "mod.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _used()\n\n\n"
        "_LEFT = 2\n"
    )
    assert orphans(tmp_path) == ["mod._recursive", "mod._LEFT"]
