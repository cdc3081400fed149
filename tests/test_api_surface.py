"""No public name in the package exists only for its tests.

Every public module-level ``def`` or ``class`` in ``src/cstm`` must be
referred to by something other than the unit tests: another package module
(``__init__.py``'s re-exports do not count), its own module outside the
definition, a backticked name or code block in README.md, the benchmark
harness (``perfbench/*.py``, which also names wrap points as strings), or
the acceptance suite.  A name that only unit tests reach is dead weight:
delete it and test the code that remains.  The match is by identifier, so a
local variable of the same name also counts as a reference.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cstm"

# Public names kept although nothing above refers to them, with the reason.
ALLOWED: dict[str, str] = {}


def identifiers(tree) -> set[str]:
    """Names, attributes, imported names and identifier-shaped strings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def readme_identifiers() -> set[str]:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {w for chunk in blocks + spans for w in re.findall(r"\w+", chunk)}


def parse(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def unreached() -> list[str]:
    """Public package names that nothing but the unit tests refers to."""
    modules = {p: parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    outside = readme_identifiers()
    for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        outside |= identifiers(parse(path))
    found = []
    for path, tree in modules.items():
        others = set().union(*(identifiers(t) for p, t in modules.items()
                               if p != path and p.name != "__init__.py"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            own = set().union(*(identifiers(s) for s in tree.body if s is not node))
            if node.name not in outside | others | own:
                found.append(node.name)
    return found


def test_every_public_name_is_reached_outside_the_unit_tests():
    assert [name for name in unreached() if name not in ALLOWED] == []


def test_allow_list_is_still_needed():
    # An allowed name that something now reaches no longer needs its entry.
    assert set(ALLOWED) <= set(unreached())
