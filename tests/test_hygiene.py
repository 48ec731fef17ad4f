"""Static checks on the source tree and the config schema, read with ast and json.

No gmcalc code is imported or run.
"""
import ast
import json
import re
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


TESTS = sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _assigned(path: Path, name: str) -> ast.expr:
    """The expression that a module assigns to a module-level name."""
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def _bench_literal(name: str):
    """The literal value that bench/spans.py assigns to a module-level name."""
    return ast.literal_eval(_assigned(ROOT / "bench" / "spans.py", name))


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


def _bench_child_imports() -> list[ast.ImportFrom]:
    return [
        node
        for node in ast.walk(_tree(ROOT / "bench" / "child.py"))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("gmcalc.")
    ]


def test_bench_child_imports_exist():
    # bench/child.py imports inside its functions, so a renamed name fails only when that workload runs
    imports = _bench_child_imports()
    assert imports
    missing = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in _top_level(SRC / f"{node.module.removeprefix('gmcalc.')}.py")
    ]
    assert not missing, f"bench/child.py imports names that do not exist: {missing}"


class _Reads(ast.NodeVisitor):
    """The names and attribute names a node reads; annotations name types and are left out."""

    def __init__(self):
        self.names: set[str] = set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_arg(self, node):
        pass

    def visit_FunctionDef(self, node):
        for child in [*node.decorator_list, *node.args.defaults, *filter(None, node.args.kw_defaults), *node.body]:
            self.visit(child)

    def visit_AnnAssign(self, node):
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)


def _reads(node: ast.AST) -> set[str]:
    visitor = _Reads()
    visitor.visit(node)
    return visitor.names


def _reach(trees: dict[str, ast.Module], roots: set[str]) -> tuple[list[str], set[str]]:
    """The definitions a walk from the roots never reads, and every name it reads.

    The definitions checked are module-level functions and classes and public
    methods, labelled module.name or module.Class.method.  The walk starts at
    the roots and at each module-level statement that is not an import or a
    definition.  A name it reads reaches every definition of that name in any
    module, a method through its attribute name; a reached class reaches its
    dunder methods, bases, decorators and class-level statements.  Names are
    matched without their module, so a dead function that shares its name with
    a live one (a module-level `dot` next to a call of `np.dot`, say) is not
    caught.
    """
    defs: dict[str, list[ast.AST]] = {}
    checked = []
    todo = set(roots)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                checked.append((f"{mod}.{node.name}", node.name))
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)] if isinstance(node, ast.ClassDef) else []
                for item in methods:
                    if not item.name.startswith("__"):
                        defs.setdefault(item.name, []).append(item)
                    if not item.name.startswith("_"):
                        checked.append((f"{mod}.{node.name}.{item.name}", item.name))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo |= _reads(node)
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in defs.get(name, []):
            if isinstance(node, ast.ClassDef):
                parts = [*node.decorator_list, *node.bases]
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef) or item.name.startswith("__"):
                        parts.append(item)
                for part in parts:
                    todo |= _reads(part)
            else:
                todo |= _reads(node)
        todo -= reached
    return [label for label, name in checked if name not in reached], reached


def test_reach_walk_finds_each_kind():
    src = (
        "import os\n"
        "def main():\n    return helper(1).go()\n"
        "def helper(x: Hint) -> Hint:\n    return Box(x)\n"
        "class Box:\n"
        "    def __init__(self, x):\n        self.x = made(x)\n"
        "    def go(self):\n        return self._inner()\n"
        "    def _inner(self):\n        return 0\n"
        "    def stale(self):\n        return dead()\n"
        "def made(x):\n    return x\n"
        "def dead():\n    pass\n"
        "class Hint:\n    pass\n"
        "TABLE = {'k': listed}\n"
        "def listed():\n    pass\n"
        "def traced():\n    pass\n"
    )
    unreached, _ = _reach({"a": ast.parse(src)}, {"main"})
    assert unreached == ["a.Box.stale", "a.dead", "a.Hint", "a.traced"]
    assert _reach({"a": ast.parse(src)}, {"main", "traced"})[0] == ["a.Box.stale", "a.dead", "a.Hint"]


def _bench_names() -> set[str]:
    """The gmcalc names bench/ calls: the functions and methods bench/spans.py traces and the names bench/child.py imports."""
    names = {fn for fns in _bench_literal("LAYERS").values() for fn in fns}
    names |= {method for _, _, method in _bench_literal("METHODS").values()}
    names |= {alias.name for node in _bench_child_imports() for alias in node.names}
    return names


def test_every_definition_is_reached():
    # a function only tests call is not part of the program: wire it into the CLI or delete it
    trees = {p.stem: _tree(p) for p in sorted(SRC.glob("*.py"))}
    unreached, reached = _reach(trees, {"run"} | _bench_names())
    exported = ast.literal_eval(_assigned(SRC / "__init__.py", "__all__"))
    unreached += [f"gmcalc.__all__: {name}" for name in exported if name not in reached]
    assert not unreached, f"neither cli.run nor bench/ reaches: {unreached}"


CONFIG_SCHEMA = json.loads((SRC / "config.schema.json").read_text(encoding="utf-8"))


def _schema_nodes(node: dict):
    """A schema node and every subschema under it."""
    yield node
    for sub in [*node.get("properties", {}).values(), *node.get("$defs", {}).values(), *[node.get("items")]]:
        if sub is not None:
            yield from _schema_nodes(sub)


def test_config_schema_is_valid_and_accepts_the_defaults():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
    defaults = ast.literal_eval(_assigned(SRC / "config.py", "_DEFAULTS"))
    jsonschema.Draft202012Validator(CONFIG_SCHEMA).validate(defaults)
    assert set(defaults) == set(CONFIG_SCHEMA["properties"])


def test_config_schema_uses_only_what_the_validator_implements():
    # a keyword or type that config._validate does not know would be ignored without an error
    validate = _top_level(SRC / "config.py")["_validate"]
    handled = {n.value for n in ast.walk(validate) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    annotations = {"$schema", "$id", "title", "description", "$defs"}
    nodes = list(_schema_nodes(CONFIG_SCHEMA))
    assert {k for node in nodes for k in node} - annotations <= handled
    types = set()
    for node in nodes:
        types.update([node["type"]] if isinstance(node.get("type"), str) else node.get("type", []))
    assert types <= {k.value for k in _assigned(SRC / "config.py", "_TYPES").keys}


def _param_stores(node: ast.AST, params: frozenset[str] = frozenset()) -> list[str]:
    """Stores to an attribute of a function parameter other than self and cls, or to an item of one, in
    the functions under node: each keeps a fact on an object the function was handed.  ``kept``, the one
    rule for keeping facts on their owner, is exempt."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child.name != "kept":
                args = child.args
                names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a}
                found += _param_stores(child, params | (names - {"self", "cls"}))
            continue
        if isinstance(child, ast.Assign):
            targets = child.targets
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            targets = [child.target]
        else:
            targets = []
        for target in targets:
            for store in target.elts if isinstance(target, ast.Tuple) else [target]:
                base = store.value if isinstance(store, ast.Subscript) else store
                if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name) and base.value.id in params:
                    found.append(f"store to {ast.unparse(store)}, line {child.lineno}")
        found += _param_stores(child, params)
    return found


def _module_caches(tree: ast.Module) -> list[str]:
    """functools.cache / lru_cache decorators anywhere, module-level names ending in _CACHE (any case), and
    hand-kept facts (``_param_stores``)."""
    found = _param_stores(tree)
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", []):
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in ("cache", "lru_cache"):
                found.append(f"@{name} on {node.name}, line {dec.lineno}")
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.upper().endswith("_CACHE"):
                    found.append(f"module-level {name.id}, line {node.lineno}")
    return found


def test_module_cache_detector_finds_each_kind():
    src = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\ndef a(): pass\n"
        "@cache\ndef b(): pass\n"
        "class C:\n    @lru_cache\n    def c(self): pass\n"
        "_RAY_CACHE = {}\n_nbeta_cache: dict = {}\nX, _Y_CACHE = 1, {}\n"
        "def f():\n    LOCAL_CACHE = {}\n"
        "def g(M, d, *rest, **kw):\n    M._proj = 1\n    d.lattice, x = (), 0\n    M._frames[0] = 1\n"
        "    kw.n += 1\n    rest.x: int = 0\n    got = M._memo[1] = 2\n"
        "    def inner(x):\n        M.y = x.z = 0\n"
        "class D:\n    def __init__(self, L):\n        self.x = cls.y = 0\n        L.z[0] = 1\n"
        "def kept(fn):\n    def keep(owner):\n        owner.kept[0] = 1\n"
        "def h(x):\n    pts = object()\n    pts.levi = x.a.b = x\n    x[0] = y = 1\n"
    )
    assert len(_module_caches(ast.parse(src))) == 15


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_caches(path):
    # per-flat and per-datum facts are kept on their owner, so two data never share them
    found = _module_caches(_tree(path))
    assert not found, f"{path.name} keeps a module-level cache: {found}"


def test_one_call_constructs_check_records():
    # the runner in suites.py makes every record, so a second record path cannot come back unseen
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and "CheckRecord" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert len(calls) == 1, f"CheckRecord is constructed in more than one place: {calls}"


def test_every_anchor_key_is_yielded_by_a_suite():
    # a suite yields (id, anchor key, inputs, outcome[, seconds]); an anchor no suite yields is dead text
    suites = SRC / "suites.py"
    keys = _assigned(suites, "ANCHORS").keys
    assert all(isinstance(k, ast.Constant) and isinstance(k.value, str) for k in keys)
    yielded = {
        node.value.elts[1].value
        for node in ast.walk(_tree(suites))
        if isinstance(node, ast.Yield)
        and isinstance(node.value, ast.Tuple)
        and isinstance(node.value.elts[1], ast.Constant)
    }
    assert {k.value for k in keys} == yielded


def test_only_the_runner_and_the_grid_batch_read_a_clock():
    # the record runner times every check it is not charged for; a module that keeps its own clock
    # makes a second record time that can drift from the runner's
    clocked = sorted(path.name for path in MODULES if "time" in _imported_names(_tree(path)))
    assert clocked == ["contour.py", "suites.py"]


def test_only_lemma_shift_charges_record_seconds():
    # the fifth element of a suite's yield is seconds a batch charged; every other record gets the runner's time
    charging = {
        fn.name
        for fn in _tree(SRC / "suites.py").body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple) and len(node.value.elts) == 5
    }
    assert charging == {"suite_lemma_shift"}


def _fixed_width_indices(tree: ast.Module) -> list[str]:
    """The f-string fields whose format spec is a literal integer width, like ``{k:04d}``: such an index
    outgrows its width on a large family, and ``/10000/`` then sorts before ``/9999/``."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue)
        and isinstance(node.format_spec, ast.JoinedStr)
        and all(isinstance(part, ast.Constant) for part in node.format_spec.values)
        and re.fullmatch(r"0?\d+d", "".join(part.value for part in node.format_spec.values))
    ]


def test_fixed_width_detector_finds_each_kind():
    src = 'a = f"x/{k:04d}/{j:3d}"\nb = f"{i:0{w}d}{x:.3f}{y!r}{z}"\nc = f"c{ci:02d}"\n'
    assert [line.split(":")[0] for line in _fixed_width_indices(ast.parse(src))] == ["line 1"] * 2 + ["line 3"]


def test_record_ids_pad_indices_to_their_family():
    # every index in a record id is padded by suites._indexed to the digits of its family's last index
    found = _fixed_width_indices(_tree(SRC / "suites.py"))
    assert not found, f"suites.py pads an index to a fixed width: {found}"


def _exit_hooks(tree: ast.Module) -> list[str]:
    """The atexit imports and the __del__ methods of a module: os._exit, which ends a cli.run process, runs neither."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module]
        else:
            if isinstance(node, ast.FunctionDef) and node.name == "__del__":
                found.append(f"line {node.lineno}: def __del__")
            continue
        if "atexit" in modules:
            found.append(f"line {node.lineno}: imports atexit")
    return found


def test_exit_hook_detector_finds_each_kind():
    src = "import atexit\nfrom atexit import register\nimport os, atexit\nclass C:\n    def __del__(self): pass\n"
    assert [line.split(":")[0] for line in _exit_hooks(ast.parse(src))] == [f"line {k}" for k in range(1, 6) if k != 4]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_exit_hooks(path):
    # the gmcalc script and python -m gmcalc.cli end with os._exit once the reports are flushed
    found = _exit_hooks(_tree(path))
    assert not found, f"{path.name} needs interpreter teardown, which cli.run skips: {found}"


def test_gmcalc_script_is_the_fast_exit_entry():
    assert '\n[project.scripts]\ngmcalc = "gmcalc.cli:run"\n' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert isinstance(_top_level(SRC / "cli.py").get("run"), ast.FunctionDef)
