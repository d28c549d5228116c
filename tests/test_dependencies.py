"""The package's only runtime dependency beyond the standard library is
numpy: every import in `src/nonstat_rl` is checked against that rule."""

import ast
import pathlib
import sys

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "nonstat_rl"}
SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "nonstat_rl").glob("*.py"))


def imported_modules(tree):
    """Top-level names of the absolute imports in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_import_only_stdlib_numpy_and_the_package():
    assert len(SOURCES) > 5
    outside = {f"{path.name}: {name}"
               for path in SOURCES
               for name in imported_modules(ast.parse(path.read_text()))
               if name not in ALLOWED}
    assert not outside, f"imports beyond the standard library and numpy: {sorted(outside)}"
