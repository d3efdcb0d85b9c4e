"""The package's modules form an acyclic layering: each module imports only
modules below it in ``LAYERS``. ``__init__`` and ``__main__`` sit above
every layer and are exempt."""

import ast

import pytest

from conftest import SRC_DIR

LAYERS = (
    "errors", "core", "complexes", "tasks", "search", "encoder", "verify", "dsl", "cli",
)
PACKAGE = SRC_DIR / "vtask"


def _relative_imports(path):
    """The package modules that a module imports by relative import."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_modules_import_only_lower_layers(module):
    below = LAYERS[: LAYERS.index(module)]
    imports = set(_relative_imports(PACKAGE / f"{module}.py"))
    assert imports <= set(below), f"{module} imports {sorted(imports - set(below))}"
