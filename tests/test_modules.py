"""Static hygiene of the package sources: every ``__all__`` name is defined
and has a caller, every public member and every field of an exported class
has a reader, every defaulted parameter of a public function is passed by some caller, no
module (nor test file) imports a name it never uses, no private
module-level name is left unused, no module imports another's private name,
and every function the benchmark's tracer names is defined (stdlib ``ast``
only)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "diracnlft"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

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
    "path", [p for p in MODULES + TESTS if p.name != "__init__.py"], ids=lambda p: p.stem
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


#: Private names one module of the package imports from another, each for a
#: stated reason.
PRIVATE_IMPORTS = {
    **{f"{mod} imports propagator._check_range": "checks a box's corners, a scalar z or "
       "the sinc kernel's points against transfer's working range before work that "
       "would overflow first" for mod in ("debranges", "resonance", "riccati")},
    "cli imports propagator._Z_LIMIT": "bounds a frequency option by the largest |z| "
                                       "transfer accepts",
    "experiments imports debranges._window_sweep": "limit_identities reads both densities "
                                                   "and E, Etilde from the sweep estimate_w "
                                                   "reduces to w_hat",
}


def test_no_module_imports_a_private_name_of_another():
    # a private name is its own module's business: a module that imports it
    # from another couples the two past their public interface
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("diracnlft")):
                source = (node.module or "").removeprefix("diracnlft").lstrip(".")
                found += [f"{path.stem} imports {source}.{a.name}" for a in node.names
                          if a.name.startswith("_") and not a.name.startswith("__")]
    unexpected = sorted(set(found) - set(PRIVATE_IMPORTS))
    assert not unexpected, f"private names imported from another module: {unexpected}"
    stale = sorted(set(PRIVATE_IMPORTS) - set(found))
    assert not stale, f"allow-listed private imports that are gone: {stale}"


def _read_members(node) -> set:
    """Names ``node`` reads as an attribute or names in a string constant (read
    as a dotted name lookup); docstrings do not count."""
    bare = {id(n.value) for n in ast.walk(node) if isinstance(n, ast.Expr)}
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in bare:
            names.add(n.value.rsplit(".", 1)[-1])
    return names


def _references(node) -> set:
    """Names ``node`` refers to: those of :func:`_read_members`, identifiers
    and imported names."""
    names = _read_members(node)
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.alias):
            names.add(n.name.rsplit(".", 1)[-1])
    return names


def test_every_exported_name_has_a_caller():
    # an export whose only callers are its own tests is a feature nothing
    # uses; it must be referenced by another module of the package (not the
    # __init__ re-export), by another definition in its own module (a result
    # type, a helper), by the acceptance gate, or by a benchmark file
    callers = [p for p in MODULES if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py"]
    callers += BENCH
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


def _exported(tree, kind):
    exported = set(_all(tree))
    return [node for node in tree.body if isinstance(node, kind) and node.name in exported]


def _public_defs(cls):
    return [f for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not f.name.startswith("_")]


def test_every_public_member_of_an_exported_class_is_read():
    # a method, property or classmethod only tests read is a feature nothing
    # uses; another module of the package, its own module outside the class,
    # the acceptance gate or a benchmark file must read it
    callers = [p for p in MODULES if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py"] + BENCH
    reads = {p: _read_members(_tree(p)) for p in callers}
    unread = []
    for path in MODULES:
        tree = _tree(path)
        for cls in _exported(tree, ast.ClassDef):
            own = set().union(*(_read_members(node) for node in tree.body if node is not cls))
            outside = set().union(*(refs for p, refs in reads.items() if p != path))
            unread += [f"{path.stem}.{cls.name}.{f.name}" for f in _public_defs(cls)
                       if f.name not in own | outside]
    assert not unread, f"public class members nothing outside the tests reads: {sorted(unread)}"


#: Fields of exported classes that nothing may read, each for a stated reason.
UNREAD_FIELDS = {
    "experiments.LimitReport.w_tilde_spread": "is the stated uncertainty of w_tilde_hat, "
                                              "and decides status",
    "nlft.ParsevalReport.raw_integral": "reaches the parseval output through asdict in "
                                        "cli.cmd_parseval",
}


def test_every_field_of_an_exported_class_is_read():
    # a result field nothing reads is state computed for no one; a field is
    # read where it is read as an attribute or named in a string, anywhere in
    # the package (its own class included), the acceptance gate or a benchmark
    # file
    readers = MODULES + [ROOT / "tests" / "test_acceptance.py"] + BENCH
    reads = set().union(*(_read_members(_tree(p)) for p in readers))
    unread = []
    for path in MODULES:
        for cls in _exported(_tree(path), ast.ClassDef):
            unread += [f"{path.stem}.{cls.name}.{f.target.id}" for f in cls.body
                       if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                       and f.target.id not in reads]
    unexpected = sorted(set(unread) - set(UNREAD_FIELDS))
    assert not unexpected, f"fields of exported classes nothing reads: {unexpected}"
    stale = sorted(set(UNREAD_FIELDS) - set(unread))
    assert not stale, f"exempt fields that now have a reader: {stale}"


#: Public functions whose defaulted parameters no call outside the tests may
#: pass, each for a stated reason.
UNPASSED_DEFAULTS = {
    name: "the acceptance gate imports it and passes its defaults (t, and order), "
          "but the census counts no test; it stays while the gate calls it"
    for name in ("propagator.transfer_batch", "propagator.transfer_derivative")
}


def _defaulted(fn, method: bool):
    """``(position, name)`` of each parameter of ``fn`` with a default; the
    position counts from the first argument a call passes (None: keyword-only)."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if method else 0:]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _passes(call, position, name) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):  # by keyword, or **kwargs
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # a parameter no caller but a test passes is an option with one value in
    # use: it becomes a constant.  Calls are matched by the called name.
    calls = {}
    for path in [p for p in MODULES if p.name != "__init__.py"] + BENCH:
        for n in ast.walk(_tree(path)):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(n)
    unpassed = {}
    for path in MODULES:
        tree = _tree(path)
        fns = [(path.stem, fn, False) for fn in _exported(tree, ast.FunctionDef)]
        for cls in _exported(tree, ast.ClassDef):
            for fn in _public_defs(cls):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                fns.append((f"{path.stem}.{cls.name}", fn, not static))
        for owner, fn, method in fns:
            missing = [name for position, name in _defaulted(fn, method)
                       if not any(_passes(c, position, name) for c in calls.get(fn.name, ()))]
            if missing:
                unpassed[f"{owner}.{fn.name}"] = missing
    unexpected = sorted(f"{fn}({', '.join(p + '=' for p in params)})"
                        for fn, params in unpassed.items() if fn not in UNPASSED_DEFAULTS)
    assert not unexpected, f"defaulted parameters no call outside the tests passes: {unexpected}"
    stale = sorted(set(UNPASSED_DEFAULTS) - set(unpassed))
    assert not stale, f"exempt functions whose defaults are now all passed: {stale}"


#: Names bench/tracing.py installs, sweeps or probes that the package no
#: longer defines, each for a stated reason.  The tracer reports them as
#: ``absent``, with zero per-layer metrics.
RETIRED_TRACED = {
    "propagator.transfer_checkpoints": "deleted: transfer(pot, z, [t1, t2, ...]) returns "
                                       "one Transfer per checkpoint",
    "propagator.transfer_derivative_batch": "deleted: transfer(pot, np.atleast_1d(z), t, "
                                            "order) is the batch with z-derivatives",
    **{name: "deleted: hb_fit fits the model the box admits, and fit.kind says which"
       for name in ("debranges.hb_sine_fit", "debranges.hb_exp_fit")},
}


def _traced_names(tree) -> set:
    """``module.name`` of every function bench/tracing.py installs (``TRACED``),
    counts work for (``GRID_FNS``, ``TRACKS``, ``WRITERS``), sweeps
    (``traced("module.name", ...)``) or probes
    (``getattr(importlib.import_module("diracnlft.module"), entry)``)."""
    tables = {t.id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)
              and t.id in ("TRACED", "PROBES", "GRID_FNS", "TRACKS", "WRITERS")}
    names = {f"{mod}.{fn}" for mod, fns in tables["TRACED"].items() for fn in fns}
    names.update(*(tables[k] for k in ("GRID_FNS", "TRACKS", "WRITERS")))
    for n in ast.walk(tree):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)):
            continue
        if n.func.id == "traced":
            names.add(ast.literal_eval(n.args[0]))
        elif (n.func.id == "getattr" and isinstance(n.args[0], ast.Call)
              and getattr(n.args[0].func, "attr", None) == "import_module"
              and isinstance(n.args[0].args[0], ast.Constant)):
            mod = n.args[0].args[0].value.removeprefix("diracnlft.")
            entry = n.args[1]
            names |= ({f"{mod}.{entry.value}"} if isinstance(entry, ast.Constant) else
                      {f"{mod}.{row[0]}" for row in tables["PROBES"].values()})
    return names


def test_every_traced_name_is_in_the_package():
    # the tracer finds a layer by getattr on its module; a traced function
    # that was renamed or deleted reads as zero calls and zero seconds
    traced = _traced_names(_tree(ROOT / "bench" / "tracing.py"))
    bound = {p.stem: _bound_at_top(_tree(p)) for p in MODULES}
    missing = {f"{mod}.{fn}" for mod, fn in (name.split(".") for name in traced)
               if fn not in bound.get(mod, ())}
    unexpected = sorted(missing - set(RETIRED_TRACED))
    assert not unexpected, f"bench/tracing.py traces names the package lacks: {unexpected}"
    stale = sorted(set(RETIRED_TRACED) - missing)
    assert not stale, f"retired traced names the package defines or the tracer dropped: {stale}"
