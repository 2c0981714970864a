"""Every module-level private function, class and constant of the package
is used by the package itself, not only by its own definition or by tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "delay_wave_lab"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module-level private names of a module and the statement that
    defines each."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for target in node.targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        defs.update((name, node) for name in names if _private(name))
    return defs


def _references(tree: ast.Module):
    """(name, line) of every use of a name in a module: a bare name, an
    attribute such as ``spectral._newton`` or a name imported from another
    module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_private_module_name_is_used_in_the_package():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    uses: dict[str, list] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
    defined = [(path, name, node) for path, tree in trees.items()
               for name, node in _definitions(tree).items()]
    unused = [f"{path.name}: {name}" for path, name, node in defined
              if all(other == path and node.lineno <= line <= node.end_lineno
                     for other, line in uses.get(name, []))]
    assert len(defined) >= 40  # the check sees the package's private names
    assert not unused, f"private names used only by their own definition: {unused}"
