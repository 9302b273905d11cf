"""Dead-code gate over ``src/``, built on the standard library's ``ast``.

Two checks:

1. **Unused imports.** Every name a ``src/`` module imports must be read
   in that module: as a ``Name`` node, as a name inside a string
   annotation (``"Future[QueryResult]"``), or as an entry of the module's
   ``__all__``.  ``__init__.py`` files (re-exports) and
   ``from __future__`` imports are exempt.
2. **Test-only definitions.** Every top-level function, class and module
   constant, and every non-dunder method and property, defined in
   ``src/`` must be read outside its own definition somewhere in
   ``src/``, ``perf/``, ``benchmarks/`` or ``examples/``.  A read is an
   identifier (``Name``), an attribute (``x.name``) or a keyword argument
   (``f(name=...)``).  Docstrings, comments, strings, import lists and
   ``__all__`` are not reads.  A function with a decorator other than
   ``property``/``staticmethod``/``classmethod``/a setter counts as
   reached: the decorator (``@register_solver``) is its reader.

The match is **by name**, not by type: a method passes when any reader
reads an attribute of that name, so ``A.run`` is reached by
``b.run()`` even if ``b`` is never an ``A``.  The gate therefore misses
some dead code, but no code outside ``tests/`` names a definition it
flags.  A definition that only tests reach is deleted, or listed in
``ALLOWLIST`` with the reason it stays.  An allowlist entry that is
reached, or that names nothing, fails the gate too.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
READER_DIRS = ("src", "perf", "benchmarks", "examples")

#: Qualified name (``module.Class.method`` or a whole module) -> reason.
ALLOWLIST: Dict[str, str] = {
    "repro.serve.session.Session.remove_graph": (
        "public serving API documented in docs/serving.md; the "
        "counterpart of add_graph"
    ),
    "repro.serve.session.Session.query": (
        "public synchronous submit-drain-wait form documented in "
        "docs/serving.md; the serving tests drive a Session through it"
    ),
    "repro.engine.testing": (
        "fault-injection solvers that tests load into engine worker "
        "processes through EngineConfig.solver_modules"
    ),
}

_DESCRIPTORS = {"property", "staticmethod", "classmethod", "cached_property"}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


_TREES: Dict[Path, ast.Module] = {
    path: _parse(path)
    for top in READER_DIRS
    for path in sorted((ROOT / top).rglob("*.py"))
}
_SRC_FILES = [p for p in _TREES if SRC in p.parents]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _all_names(tree: ast.Module) -> Set[str]:
    """String entries of a module-level ``__all__``."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if node.value is not None and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                for elt in ast.walk(node.value):
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        names.add(elt.value)
    return names


# --------------------------------------------------------------------------
# check 1: unused imports
# --------------------------------------------------------------------------


def _annotation_names(tree: ast.Module) -> Iterator[str]:
    """Names read inside string annotations."""
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                annotations.append(arg.annotation)
            annotations += [args.vararg and args.vararg.annotation,
                            args.kwarg and args.kwarg.annotation, node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        if ann is None:
            continue
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                for inner in ast.walk(parsed):
                    if isinstance(inner, ast.Name):
                        yield inner.id


def _unused_imports(path: Path) -> List[str]:
    tree = _TREES[path]
    imported: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= set(_annotation_names(tree)) | _all_names(tree)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in sorted(imported.items())
            if name not in read]


# --------------------------------------------------------------------------
# check 2: definitions that only tests reach
# --------------------------------------------------------------------------


def _registers(fn: ast.AST) -> bool:
    """True if ``fn`` carries a decorator that is a reader of it."""
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name not in _DESCRIPTORS and name not in ("setter", "deleter"):
            return True
    return False


def _definitions() -> Iterator[Tuple[str, str, Path, bool]]:
    """(qualified name, bare name, file, registered) for each checked def."""
    for path in _SRC_FILES:
        mod = _module_name(path)
        for node in _TREES[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{mod}.{node.name}", node.name, path, _registers(node)
            if isinstance(node, ast.ClassDef):
                # a class decorator (@dataclass) transforms, not registers
                yield f"{mod}.{node.name}", node.name, path, False
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not _dunder(item.name)):
                        yield (f"{mod}.{node.name}.{item.name}", item.name, path,
                               _registers(item))
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name) and not _dunder(n.id):
                        yield f"{mod}.{n.id}", n.id, path, False


def _reads() -> Dict[str, List[Tuple[Path, Tuple[str, ...]]]]:
    """Bare name -> [(file, qualified names of the enclosing definitions)].

    Only loads count: an assignment target is a definition, not a read."""
    reads: Dict[str, List[Tuple[Path, Tuple[str, ...]]]] = defaultdict(list)

    def visit(node: ast.AST, path: Path, scope: Tuple[str, ...], prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_scope, child_prefix = scope, prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                child_prefix = f"{prefix}.{child.name}"
                child_scope = scope + (child_prefix,)
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                reads[child.id].append((path, scope))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                reads[child.attr].append((path, scope))
            elif isinstance(child, ast.keyword) and child.arg:
                reads[child.arg].append((path, scope))
            visit(child, path, child_scope, child_prefix)

    for path, tree in _TREES.items():
        prefix = _module_name(path) if path in _SRC_FILES else str(path)
        visit(tree, path, (), prefix)
    return reads


def _unreached() -> Set[str]:
    reads = _reads()
    unreached = set()
    for qual, name, path, registered in _definitions():
        if registered:
            continue
        if not any(p != path or qual not in scope for p, scope in reads.get(name, ())):
            unreached.add(qual)
    return unreached


def _allowed(qual: str) -> str:
    """The allowlist entry covering ``qual`` (itself or its module), or ''."""
    parts = qual.split(".")
    for i in range(len(parts), 0, -1):
        if ".".join(parts[:i]) in ALLOWLIST:
            return ".".join(parts[:i])
    return ""


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "path",
    [p for p in _SRC_FILES if p.name != "__init__.py"],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_every_definition_has_a_reader_outside_tests():
    flagged = sorted(q for q in _unreached() if not _allowed(q))
    assert flagged == [], (
        "defined in src/ but read only by tests (delete, or add to ALLOWLIST "
        "with a reason): " + ", ".join(flagged)
    )


def test_allowlist_is_current():
    unreached = _unreached()
    defined = {q for q, *_ in _definitions()} | {_module_name(p) for p in _SRC_FILES}
    stale = []
    for entry, reason in ALLOWLIST.items():
        assert reason.strip(), entry
        if entry not in defined:
            stale.append(f"{entry} (defines nothing)")
        elif not any(_allowed(q) == entry for q in unreached):
            stale.append(f"{entry} (reached outside tests)")
    assert stale == [], "stale ALLOWLIST entries: " + ", ".join(stale)
