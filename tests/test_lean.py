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


# the reads of another package module's private name that stay, as
# "reader -> module.name": the reason each stays
FOREIGN_PRIVATE = {
    "green -> transfer._shared_sweep": (
        "the public routes take the calling thread's last sweep, a memo that "
        "transfer keeps beside the Sweep it serves"
    ),
    "sl3 -> green._entries": (
        "route A takes its sweep and pair through green's helper until it "
        "moves beside the other routes (ROADMAP Direction 1)"
    ),
}


def foreign_reads(src=SRC):
    """Each read of a private name of another package module at ``src``, as
    "reader -> module.name": a ``from .module import _name`` or an attribute
    ``alias._name`` of a module imported by ``from . import module as alias``."""
    modules = {p.stem for p in src.glob("*.py")}
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif node.module in modules and _private(alias.name):
                    found.add(f"{path.stem} -> {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and _private(node.attr)
            ):
                found.add(f"{path.stem} -> {aliases[node.value.id]}.{node.attr}")
    return sorted(found)


def test_no_module_reads_another_modules_private_name():
    assert foreign_reads() == sorted(FOREIGN_PRIVATE)


def test_a_foreign_private_read_is_found(tmp_path):
    # a private name read by an aliased module attribute and by a from-import
    # is found; a module's own private names, a private attribute of an object
    # and a dunder are not
    (tmp_path / "transfer.py").write_text(
        "def _check_method(m):\n    return m\n\n\n"
        "def run(m):\n    return _check_method(m)\n"
    )
    (tmp_path / "cli.py").write_text(
        "from . import transfer as tr\n\n\n"
        "def main(args):\n    args._seen = tr.__name__\n"
        "    return tr._check_method(args.method)\n"
    )
    (tmp_path / "green.py").write_text("from .transfer import _check_method, run\n")
    assert foreign_reads(tmp_path) == [
        "cli -> transfer._check_method", "green -> transfer._check_method"
    ]


def test_a_restored_cli_check_is_found(tmp_path):
    # the package as it is, with the CLI reading transfer's method check again
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    cli = tmp_path / "cli.py"
    cli.write_text(
        cli.read_text() + "\n\ndef _checked(args):\n"
        "    transfer._check_method(args.method, args.step)\n"
    )
    found = set(foreign_reads(tmp_path)) - set(FOREIGN_PRIVATE)
    assert found == {"cli -> transfer._check_method"}
