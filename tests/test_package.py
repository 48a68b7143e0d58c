"""The package's public names, and the imports of every module."""

from __future__ import annotations

import ast
import types
from collections import Counter
from pathlib import Path

import cherednik_centre


def test_every_exported_name_resolves_and_none_is_a_module():
    names = cherednik_centre.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(cherednik_centre, name), types.ModuleType), name
    public = {
        name
        for name, value in vars(cherednik_centre).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
    namespace: dict = {}
    exec("from cherednik_centre import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(names)


def test_readme_lists_every_exported_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    listed = [line.split("`")[1] for line in section.splitlines() if line.startswith("* `")]
    assert sorted(listed) == sorted(cherednik_centre.__all__)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line; ``from
    __future__`` binds none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    """The literal ``__all__`` of a module, empty if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_used():
    """No module under ``src/``, ``tests/`` or ``scripts/`` imports a name
    that it never reads, except the re-exports an ``__init__.py`` lists in
    ``__all__``."""
    root = Path(__file__).resolve().parents[1]
    unused = []
    for folder in ("src", "tests", "scripts"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            exempt = _exported_names(tree) if path.name == "__init__.py" else set()
            unused += [
                f"{path.relative_to(root)}:{line} {name}"
                for name, line in _imported_names(tree).items()
                if name not in read and name not in exempt
            ]
    assert unused == []


def _references(tree: ast.AST) -> Counter:
    """Each name that ``tree`` reads, as a name, an attribute or an
    imported name, with how often."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _private_definitions(tree: ast.Module):
    """Each module-level name that ``tree`` defines as a function, a class
    or an assigned constant (``_NAME = ...``), with its node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def test_every_private_helper_is_referenced():
    """Each module-level ``_name`` function, class or constant in ``src/``
    is read somewhere in ``src/``, ``tests/`` or ``scripts/`` outside its
    own definition: a helper left behind by a refactor fails here."""
    root = Path(__file__).resolve().parents[1]
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "tests", "scripts")
        for path in sorted((root / folder).rglob("*.py"))
    }
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    helpers = [
        (path, name, node)
        for path, tree in trees.items()
        if path.is_relative_to(root / "src")
        for name, node in _private_definitions(tree)
        if name.startswith("_") and not name.startswith("__")
    ]
    # the scan finds each kind, so that none passes for want of a match
    assert {ast.FunctionDef, ast.ClassDef, ast.Assign} <= {type(node) for *_, node in helpers}
    orphans = [
        f"{path.relative_to(root)}:{node.lineno} {name}"
        for path, name, node in helpers
        if everywhere[name] == _references(node)[name]
    ]
    assert orphans == []


def test_no_two_code_objects_share_a_line_and_a_name():
    """cProfile keys each code object by (file, first line, name): two
    lambdas or generator expressions on one line of a module in ``src/``
    would share one entry in a profile, and which of them it counts would
    follow hash order, changing from run to run."""
    root = Path(__file__).resolve().parents[1] / "src" / "cherednik_centre"
    shared = []
    for path in sorted(root.glob("*.py")):
        seen: Counter = Counter()
        pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while pending:
            code = pending.pop()
            seen[code.co_firstlineno, code.co_name] += 1
            pending += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        shared += [f"{path.name}:{line} {name}" for (line, name), k in seen.items() if k > 1]
    assert shared == []
