"""Every public name and every defaulted parameter of the library has a
caller outside the unit tests.

A public top-level function or class, or a public method or property, in
src/curveband/*.py must be referenced somewhere other than its own
definition: in the library itself, in the benchmark scripts
(perfbench/*.py) or in the acceptance tests. A name that only unit tests
call is dead weight that the tests keep alive. Likewise, every defaulted
parameter of a public function or method must be set by some call in those
files.

References are found by name in the syntax trees: a loaded name, an
attribute, or a string constant spelling a (dotted) identifier, since the
benchmark tracer names what it patches in strings. Imports and docstrings
do not count. Matching is by name alone, so a method that shares its name
with an unrelated attribute (say `shape`) always passes; calls are matched
the same way.

The package root re-exports only what is imported from it outside the
unit tests: every name that src/curveband/__init__.py imports from a module
is imported from the root, as `from curveband import NAME` or the attribute
`curveband.NAME`, by the library, the benchmark scripts and their tests
(perfbench/), the tools (tools/) or the acceptance tests. An alias that
only unit tests import is a second copy of the name to keep; they import
the name from its module.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "curveband").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]


def _references(node) -> Counter:
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(p.isidentifier() for p in parts):
                refs.update(parts)
    return refs


def _public_definitions():
    """(label, node) for each public definition of the library."""
    for path in LIBRARY:
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not top.name.startswith("_"):
                yield f"{path.stem}.{top.name}", top
            if isinstance(top, ast.ClassDef):
                for member in top.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        yield f"{path.stem}.{top.name}.{member.name}", member


def test_every_public_name_has_a_caller_outside_unit_tests():
    references = sum((_references(ast.parse(p.read_text())) for p in CALLERS),
                     Counter())
    orphans = [label for label, node in _public_definitions()
               if references[node.name] <= _references(node)[node.name]]
    assert orphans == [], (
        "referenced only by their own definition or by unit tests; inline "
        "them, move them to the tests, or make them private")


def _calls_by_name(paths) -> dict:
    """Every call of a named function or method in the files, by name."""
    calls = {}
    for path in paths:
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                calls.setdefault(name, []).append(sub)
    return calls


def _defaults_bound(node: ast.FunctionDef, is_method: bool,
                    calls: list) -> tuple[list[str], list[set]]:
    """The defaulted parameters of a definition, and for each call the set
    of them that it binds: by keyword, or by position (after self or cls
    for a method). A call through `*`/`**` may bind any of them or none, so
    then no call is returned and no parameter can be judged."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None]
    if is_method and not any(getattr(d, "id", None) == "staticmethod"
                             for d in node.decorator_list):
        positional = positional[1:]
    bound = []
    for call in calls:
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            return defaulted, None
        bound.append(set(positional[:len(call.args)])
                     | {k.arg for k in call.keywords})
    return defaulted, bound


def _defaults_where(judge) -> list[str]:
    """`label(param)` for each defaulted parameter of a public function or
    method that `judge(param, bound)` flags, given the per-call bound sets
    of the calls outside the unit tests."""
    calls = _calls_by_name(CALLERS)
    flagged = []
    for label, node in _public_definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        defaulted, bound = _defaults_bound(node, label.count(".") == 2,
                                           calls.get(node.name, []))
        if bound is not None:
            flagged += [f"{label}({p})" for p in defaulted if judge(p, bound)]
    return flagged


def test_every_default_parameter_is_set_outside_unit_tests():
    # A default that no caller overrides is a constant posing as a knob.
    unset = _defaults_where(lambda p, bound: not any(p in b for b in bound))
    assert unset == [], (
        "defaulted parameters that no call outside the unit tests sets; "
        "make them constants or drop them")


def test_every_default_is_taken_by_some_call_outside_unit_tests():
    # A default that every caller overrides is a value nobody relies on;
    # the callers already hold the real one.
    untaken = _defaults_where(lambda p, bound: all(p in b for b in bound))
    assert untaken == [], (
        "defaulted parameters that every call outside the unit tests sets; "
        "drop the default")


def _root_imports(path: Path) -> set[str]:
    """Names the file takes from the package root: `from curveband import
    NAME` and the attribute `curveband.NAME`."""
    names = set()
    for sub in ast.walk(ast.parse(path.read_text())):
        if (isinstance(sub, ast.ImportFrom) and sub.level == 0
                and sub.module == "curveband"):
            names.update(a.name for a in sub.names)
        elif (isinstance(sub, ast.Attribute)
              and isinstance(sub.value, ast.Name)
              and sub.value.id == "curveband"):
            names.add(sub.attr)
    return names


def test_every_root_export_is_imported_from_the_root():
    init = ROOT / "src" / "curveband" / "__init__.py"
    exported = {alias.asname or alias.name
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) and node.module
                for alias in node.names}
    users = [p for p in CALLERS + sorted(ROOT.glob("perfbench/tests/*.py"))
             + sorted(ROOT.glob("tools/*.py")) if p != init]
    unused = sorted(exported - set().union(*map(_root_imports, users)))
    assert unused == [], (
        "re-exported by the package root but imported from it only by unit "
        f"tests, if at all: {', '.join(unused)}; drop them from __init__.py "
        "and import them from their modules")
