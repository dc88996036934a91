"""Import and definition hygiene: every name a package module imports is
used in it, or is one that perfbench/tracing.py wraps at that module (a name
a caller there looks up); every top-level function, class or assigned name
is used in the package or exported; and cones.py, the integer ray path, imports nothing
from fractions."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splithiggs"


def _tracer_names():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    patches = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PATCHES"])
    out = {}
    for module, attr, _ in ast.literal_eval(patches):
        out.setdefault(module, set()).add(attr)
    return out


def _exported(tree):
    """The names a module lists in __all__ (a package re-exports them)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used - _exported(tree)


def test_every_imported_name_is_used_or_wrapped_by_the_tracer():
    pinned = _tracer_names()
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        names -= pinned.get(path.stem, set())
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}


def _references(node):
    """The names a node refers to: by name, as an attribute, or as a string
    (a lookup such as stability._MAKERS)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _defined_names(node):
    """The names a top-level statement defines: a function or class, or the
    plain names an assignment binds (constants, tables, type aliases)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


def unused_definitions(package):
    """The package's top-level functions, classes and assigned names, as
    module.name, that nothing in the package refers to outside their own
    statement, and that are neither exported in an __all__, nor main, nor
    dunders such as __version__, nor wrapped by the tracer."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    kept = {"main"}.union(*_tracer_names().values(), *map(_exported, trees.values()))
    tops = [(module, node) for module, tree in trees.items() for node in tree.body]
    referrers = {}
    for _, node in tops:
        for name in set(_references(node)):
            referrers.setdefault(name, set()).add(id(node))
    return [f"{module}.{name}" for module, node in tops for name in _defined_names(node)
            if name not in kept and not (name.startswith("__") and name.endswith("__"))
            and not referrers.get(name, set()) - {id(node)}]


def test_every_definition_is_used_in_the_package():
    # code only the tests use lives next to them, in tests/
    assert unused_definitions(PACKAGE) == []


def test_cones_imports_nothing_from_fractions():
    tree = ast.parse((PACKAGE / "cones.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fractions")
             or isinstance(node, ast.Import)
             and any(a.name.startswith("fractions") for a in node.names)]
    assert found == []
