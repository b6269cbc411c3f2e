"""No orphaned names: every module-level private name of the package, every
name a module lists in ``__all__``, and every method of a package class, is
used somewhere in the package, not only by the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gf1d"

# public names no package module reads: the benchmark's tracer
# (perfbench/tracing.py) binds them by name, and they stay until the library
# keeps its own per-layer counters
UNREAD_PUBLIC = ["polyrep.lambda_l", "potential.evaluate_f"]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """(name, first line, last line) of each name bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node.lineno, node.end_lineno


def _strings(tree, target):
    """The string constants of the module-level assignment to ``target``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return {
                n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
    return set()


def _uses(tree):
    """(name, line) of each read of a name: a load, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _read_elsewhere(uses, stem, name, first, last):
    """Whether any module reads ``name`` outside lines first..last of ``stem``."""
    return any(
        use == name and not (other == stem and first <= line <= last)
        for other, reads in uses.items()
        for use, line in reads
    )


def orphans(src=SRC, public=False):
    """The module-level private names of the package at ``src`` that nothing
    but their own definition reads, as "module.name"; with ``public``, the
    names in a module's ``__all__`` instead, where the lazy package
    namespace (the strings of ``_SOURCES`` in ``__init__``) counts as a
    reader."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    uses = {stem: list(_uses(tree)) for stem, tree in trees.items()}
    lazy = _strings(trees["__init__"], "_SOURCES") if "__init__" in trees else set()
    found = []
    for stem, tree in trees.items():
        checked = _strings(tree, "__all__") - lazy if public else None
        for name, first, last in _definitions(tree):
            if not (name in checked if public else _private(name)):
                continue
            if not _read_elsewhere(uses, stem, name, first, last):
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


def test_every_public_name_has_a_reader():
    assert orphans(public=True) == UNREAD_PUBLIC


def test_an_orphaned_public_name_is_found(tmp_path):
    # of four exported names, one is read by another module, one by its own
    # module, one only by the lazy namespace and one by nothing
    (tmp_path / "__init__.py").write_text('_SOURCES = {"mod": ("lazy",)}\n')
    (tmp_path / "mod.py").write_text(
        '__all__ = ["shared", "inner", "lazy", "unread"]\n\n\n'
        "def shared():\n    return inner()\n\n\n"
        "def inner():\n    return 1\n\n\n"
        "def lazy():\n    return 2\n\n\n"
        "def unread():\n    return unread\n"
    )
    (tmp_path / "other.py").write_text("from .mod import shared\n")
    assert orphans(tmp_path, public=True) == ["mod.unread"]


def _methods(tree):
    """(class, method, first line, last line) of each method of a
    module-level class but the dunders."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield node.name, item.name, item.lineno, item.end_lineno


def orphaned_methods(src=SRC):
    """The methods of the package's classes at ``src`` that no attribute read
    in the package names outside the method's own body, as
    "module.Class.method"; a bare name of the same spelling, such as a
    parameter, does not count as a read."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    uses = {
        stem: [(n.attr, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
        for stem, tree in trees.items()
    }
    return [
        f"{stem}.{cls}.{name}"
        for stem, tree in trees.items()
        for cls, name, first, last in _methods(tree)
        if not _read_elsewhere(uses, stem, name, first, last)
    ]


def test_every_method_has_a_reader():
    assert orphaned_methods() == []


def test_an_orphaned_method_is_found(tmp_path):
    # of a class's methods, one is read by another module, one by a sibling
    # method, one only by itself and one only by a parameter's spelling;
    # dunders are exempt
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.n = 0\n\n"
        "    def read(self):\n        return self._inner()\n\n"
        "    def _inner(self):\n        return 1\n\n"
        "    def again(self, n):\n        return self.again(n - 1) if n else 0\n\n"
        "    def unread(self):\n        return 2\n"
    )
    (tmp_path / "other.py").write_text(
        "from .mod import Box\n\nBox().read()\n\n\ndef use(unread):\n    return unread\n"
    )
    assert orphaned_methods(tmp_path) == ["mod.Box.again", "mod.Box.unread"]
