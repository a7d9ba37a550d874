"""Every import in the package is used: each name a module imports is read
somewhere in it or exported through its ``__all__``.  Standard library only,
so the check runs wherever the tests run."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mpsrestrict"


def _imported(tree: ast.Module):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            yield node.returns


def _used(tree: ast.Module) -> set[str]:
    """The names a module reads: in code, in quoted annotations such as
    ``-> "KrausFamily"``, and as the entries of its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {entry.value for entry in node.value.elts}
    return used


MODULES = sorted(PACKAGE.glob("*.py"))


def test_the_check_sees_every_module():
    assert len(MODULES) >= 12


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree: ast.Module):
    """(name, node) for each module-level function, class or variable whose
    name starts with a single underscore."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            names = [node.name]
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node: ast.AST, skip: ast.AST | None = None):
    """The names read below node, as bare names or attributes, leaving out
    the subtree ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, skip)


def test_every_private_name_is_read_in_the_package():
    """A private helper that only the tests still call, such as a kernel
    that another has replaced, is deleted rather than kept."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    unread = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            read = any(name in _reads(t, node if t is tree else None) for t in trees.values())
            if not read:
                unread.append(f"{module}: {name} (line {node.lineno})")
    assert not unread, f"private names never read in src: {unread}"
