"""Every public name of the library has a caller outside the unit tests.

A public top-level function or class, or a public method or property, in
src/curveband/*.py must be referenced somewhere other than its own
definition: in the library itself, in the benchmark scripts
(perfbench/*.py) or in the acceptance tests. A name that only unit tests
call is dead weight that the tests keep alive.

References are found by name in the syntax trees: a loaded name, an
attribute, or a string constant spelling a (dotted) identifier, since the
benchmark tracer names what it patches in strings. Imports and docstrings
do not count. Matching is by name alone, so a method that shares its name
with an unrelated attribute (say `shape`) always passes.
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
