"""Static checks on the source tree, read with ast only: nothing is imported or run."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gmcalc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import statement binds, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _bench_literal(name: str):
    """The literal value that bench/spans.py assigns to a module-level name."""
    for node in _tree(ROOT / "bench" / "spans.py").body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/spans.py assigns no {name}")


def _top_level(path: Path) -> dict[str, ast.AST]:
    return {
        node.name: node
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_traced_layer_functions_exist():
    # a renamed function would drop out of the per-layer trace without an error
    layers = _bench_literal("LAYERS")
    missing = [
        f"{mod}.{fn}"
        for mod, fns in layers.items()
        for fn in fns
        if not isinstance(_top_level(SRC / f"{mod}.py").get(fn), ast.FunctionDef)
    ]
    for name, (mod, cls, method) in _bench_literal("METHODS").items():
        node = _top_level(SRC / f"{mod}.py").get(cls)
        if not (isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and item.name == method for item in node.body
        )):
            missing.append(name)
    assert not missing, f"bench/spans.py traces functions that do not exist: {missing}"
