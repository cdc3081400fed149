"""No test is defined twice.

A module or class that binds one test name twice keeps only the last
definition, so pytest silently drops the first; two test functions with
equal syntax trees (signature, decorators and body) run the same check
twice.  The scan covers ``tests/*.py`` and ``perfbench/test_*.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = [*sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "perfbench").glob("test_*.py"))]


def is_test(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("test"))


def scopes():
    """``(where, body)`` of every module and class in the scanned files."""
    for path in FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        where = str(path.relative_to(ROOT))
        yield where, tree.body
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield f"{where}::{node.name}", node.body


def rebound_names() -> list[str]:
    found = []
    for where, body in scopes():
        seen = set()
        for node in body:
            if is_test(node) or (isinstance(node, ast.ClassDef) and node.name.startswith("Test")):
                if node.name in seen:
                    found.append(f"{where}::{node.name}")
                seen.add(node.name)
    return found


def equal_tests() -> list[tuple[str, str]]:
    first, pairs = {}, []
    for where, body in scopes():
        for node in filter(is_test, body):
            key = tuple(map(ast.dump, [*node.decorator_list, node.args, *node.body]))
            name = f"{where}::{node.name}"
            if key in first:
                pairs.append((first[key], name))
            first.setdefault(key, name)
    return pairs


def test_no_test_name_is_bound_twice():
    assert rebound_names() == []


def test_no_two_tests_are_equal():
    assert equal_tests() == []
