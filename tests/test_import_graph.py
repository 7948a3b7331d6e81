"""The package layering in docs/architecture.md, held against the source.

"Package dependency order" lists every package under ``src/repro`` with
the packages it imports; this test parses that block and the
module-scope imports of every source file and requires the second to
stay inside the first.  Function-local imports and ``if TYPE_CHECKING:``
blocks are outside the rule, as the document says.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "repro"
HEADING = "## Package dependency order"


def documented_order() -> dict[str, set[str]]:
    """``{package: packages it may import}`` in the document's line order."""
    text = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    block = text[text.index(HEADING):].split("```")[1]
    order: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        package, _, imports = line.partition(":")
        order[package.strip()] = set(imports.split())
    return order


def module_scope_imports(tree: ast.Module):
    """Import statements that run when the module is imported."""
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def imported_packages(path: Path) -> set[str]:
    """Top-level ``repro`` packages *path* imports at module scope."""
    module = ("repro", *path.relative_to(SOURCE).with_suffix("").parts)
    # A relative import counts dots from the containing package.
    package = module[:-1]
    found: set[str] = set()
    for node in module_scope_imports(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif node.level:
            base = package[: len(package) - (node.level - 1)]
            if node.module:
                targets = [[*base, *node.module.split(".")]]
            else:  # ``from .. import clock``: the names are the modules
                targets = [[*base, alias.name] for alias in node.names]
        else:
            targets = [(node.module or "").split(".")]
        for target in targets:
            if target[0] == "repro" and len(target) > 1:
                found.add(target[1])
    return found


def actual_imports() -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        parts = path.relative_to(SOURCE).parts
        if parts == ("__init__.py",):
            continue  # the namespace root belongs to no layer
        package = parts[0].removesuffix(".py")
        graph.setdefault(package, set()).update(imported_packages(path) - {package})
    return graph


def test_document_lists_every_package_bottom_up():
    order = documented_order()
    assert set(order) == set(actual_imports())
    seen: set[str] = set()
    for package, imports in order.items():
        assert imports <= seen, f"{package} is listed before {sorted(imports - seen)}"
        seen.add(package)


def test_source_imports_stay_inside_the_documented_order():
    order = documented_order()
    strays = {
        package: sorted(imports - order[package])
        for package, imports in actual_imports().items()
        if not imports <= order[package]
    }
    assert not strays, f"module-scope imports outside docs/architecture.md: {strays}"


def test_metrics_sits_on_clock_and_httpcore_only():
    # With the subset test above, this pins the layer every check tick crosses.
    assert documented_order()["metrics"] == {"clock", "httpcore"}


def test_the_scan_sees_what_it_should():
    tree = ast.parse(
        "import repro.a\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import repro.b\n"
        "else:\n    import repro.c\n"
        "try:\n    import repro.d\nexcept ImportError:\n    import repro.e\n"
        "def lazy():\n    import repro.f\n"
        "class K:\n    import repro.g\n"
        "    def method(self):\n        import repro.h\n"
    )
    names = {alias.name for node in module_scope_imports(tree) for alias in node.names}
    assert names == {
        "repro.a", "TYPE_CHECKING", "repro.c", "repro.d", "repro.e", "repro.g",
    }
