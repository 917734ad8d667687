"""The import graph of the package: no cycles, and the layering it relies on."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "matchident"


def imported_modules(path: Path) -> set[str]:
    """Package modules ``path`` imports anywhere, function-local imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import polytope
                found.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .core import Margins
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("matchident."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("matchident.")
            )
    return found


def top_level_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in ``path``, function-local
    ones included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found


def import_graph() -> dict[str, set[str]]:
    return {path.stem: imported_modules(path) for path in PACKAGE.glob("*.py")}


def test_package_modules_import_no_cycle():
    graph = import_graph()
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        assert module not in path, "import cycle: " + " -> ".join(path + [module])
        if module in done:
            return
        for target in graph.get(module, ()):
            visit(target, path + [module])
        done.add(module)

    for module in graph:
        visit(module, [])


def test_verdicts_do_not_reach_for_the_lp_or_the_vertex_scan():
    graph = import_graph()
    assert "lp" not in graph["identify"]
    assert "polytope" not in graph["lp"]
    assert "identify" not in graph["entropy"]


def test_package_imports_only_numpy_and_the_standard_library():
    """scipy and the other test dependencies stay out of ``src``: an import
    there would add its load time to every CLI run."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "matchident"}
    for path in PACKAGE.glob("*.py"):
        outside = top_level_imports(path) - allowed
        assert not outside, f"{path.name} imports {sorted(outside)}"
