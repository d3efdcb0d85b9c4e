"""Two rules of the package's source, checked on its syntax trees:
invariants raise errors rather than ``assert`` (which ``python -O``
strips), and deadlines read a monotonic clock, never the wall clock
``time.time``, which may step."""

import ast

import pytest

from conftest import SRC_DIR

MODULES = sorted((SRC_DIR / "vtask").glob("*.py"))


def _asserts(tree):
    """Lines of the ``assert`` statements."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def _wall_clock_reads(tree):
    """Lines that name ``time.time`` or import it from ``time``."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "time"
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "time"
            and any(alias.name == "time" for alias in node.names)
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = _asserts(ast.parse(path.read_text()))
    assert lines == [], f"{path.name} asserts on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_wall_clock(path):
    lines = _wall_clock_reads(ast.parse(path.read_text()))
    assert lines == [], f"{path.name} reads time.time on lines {lines}"


def test_the_rules_see_what_they_forbid():
    tree = ast.parse(
        "import time\n"
        "from time import time as now\n"
        "assert time.time() < now()\n"
        "deadline = time.monotonic() + 1\n"
    )
    assert _asserts(tree) == [3]
    assert _wall_clock_reads(tree) == [2, 3]
