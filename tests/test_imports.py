"""The import graph of the package: no cycles, and the layering it relies on."""

import ast
import importlib
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


def test_identify_reads_the_gauge_and_the_gradients_through_public_names():
    """``identify`` composes ``polytope`` and ``entropy`` through their public
    functions, the ones the benchmark's tracer wraps, so each ray and each
    gradient has one implementation."""
    tree = ast.parse((PACKAGE / "identify.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in {"polytope", "entropy"}
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_package_imports_only_numpy_and_the_standard_library():
    """scipy and the other test dependencies stay out of ``src``: an import
    there would add its load time to every CLI run."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "matchident"}
    for path in PACKAGE.glob("*.py"):
        outside = top_level_imports(path) - allowed
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_package_exports_exactly_the_public_names_of_its_modules():
    import matchident
    from matchident import core, entropy, identify, lp, polytope

    modules = (core, polytope, lp, entropy, identify)
    assert set(matchident.__all__) - {"__version__"} == set().union(
        *(module.__all__ for module in modules)
    )
    for name in matchident.__all__:
        assert hasattr(matchident, name), name


def test_no_name_is_public_in_two_modules():
    """Each public name has one owner: a module may use another's name, but
    only the owner lists it in ``__all__``."""
    from matchident import core, entropy, identify, lp, polytope

    owners: dict[str, list[str]] = {}
    for module in (core, polytope, lp, entropy, identify):
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: found for name, found in owners.items() if len(found) > 1} == {}


def test_only_identify_keeps_module_state():
    """The package's only memos are ``identify``'s three one-entry caches:
    ``_scaled`` and ``_identified`` for the gauge ray of the last matching,
    and ``_population`` for the population of the last ``(Surplus,
    Margins)`` pair that ``simulate_market`` drew from.  No module declares
    a ``global``, and no other function is cached."""
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    declared = [
        (stem, node.names)
        for stem, path in modules.items()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert declared == []
    names = [f"matchident.{stem}".removesuffix(".__init__") for stem in modules]
    cached = {
        (module.__name__, name): value
        for module in map(importlib.import_module, names)
        for name, value in vars(module).items()
        if hasattr(value, "cache_parameters")
    }
    assert set(cached) == {
        ("matchident.identify", "_scaled"),
        ("matchident.identify", "_identified"),
        ("matchident.identify", "_population"),
    }
    for fn in cached.values():
        assert fn.cache_parameters() == {"maxsize": 1, "typed": False}
