"""Static hygiene of the package sources: every ``__all__`` name is defined
and has a caller, no module imports a name it never uses, and no private
module-level name is left unused (stdlib ``ast`` only)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "diracnlft"
MODULES = sorted(SRC.glob("*.py"))

#: Exported names that may have no caller, each for a stated reason.
UNCALLED_EXPORTS = {
    "potential.restrict": "README gives it as the way to cut explicit cells to a shorter horizon",
    "potential.save_potential": "README gives it as the writer of the plain-cells JSON the CLI reads",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined_by(node) -> set:
    """Names a top-level function, class or assignment statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _bound_at_top(tree) -> set:
    names = set()
    for node in tree.body:
        names |= _defined_by(node)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


def _all(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_defined(path):
    tree = _tree(path)
    missing = sorted(set(_all(tree)) - _bound_at_top(tree))
    assert not missing, f"{path.name}: __all__ names never defined: {missing}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.stem
)
def test_no_unused_imports(path):
    # __init__.py is left out: its imports are the package's re-exports.
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_all(tree))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_private_names(path):
    # a private function, class or constant nothing else in its module refers
    # to is dead code (a rewrite's leftover helper); a recursive call or a
    # constant's own assignment does not count as a use
    tree = _tree(path)
    unused = []
    for node in tree.body:
        names = _defined_by(node)
        if not names:
            continue
        inside = {id(n) for n in ast.walk(node)}
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and id(n) not in inside}
        unused += sorted(name for name in names
                         if name.startswith("_") and not name.startswith("__")
                         and name not in used)
    assert not unused, f"{path.name}: private names defined but never used: {unused}"


def _references(node) -> set:
    """Names ``node`` refers to: identifiers, attributes, imported names, and
    string constants read as a (dotted) name lookup; docstrings do not count."""
    bare = {id(n.value) for n in ast.walk(node) if isinstance(n, ast.Expr)}
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in bare:
            names.add(n.value.rsplit(".", 1)[-1])
    return names


def test_every_exported_name_has_a_caller():
    # an export whose only callers are its own tests is a feature nothing
    # uses; it must be referenced by another module of the package (not the
    # __init__ re-export), by another definition in its own module (a result
    # type, a helper), by the acceptance gate, or by a study or benchmark script
    callers = [p for p in MODULES if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py"]
    callers += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    outside = {p: _references(_tree(p)) for p in callers}
    uncalled = []
    for path in MODULES:
        tree = _tree(path)
        for name in _all(tree):
            own = set().union(*(_references(node) for node in tree.body
                                if not _defined_by(node) & {name, "__all__"}))
            if name not in own and not any(name in refs for p, refs in outside.items()
                                           if p != path):
                uncalled.append(f"{path.stem}.{name}")
    unexpected = sorted(set(uncalled) - set(UNCALLED_EXPORTS))
    assert not unexpected, f"exported names with no caller: {unexpected}"
    stale = sorted(set(UNCALLED_EXPORTS) - set(uncalled))
    assert not stale, f"allow-listed exports that now have a caller: {stale}"
