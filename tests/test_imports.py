"""Import hygiene: every name a package module imports is used in it, or is
one that perfbench/tracing.py wraps at that module (a name a caller there
looks up); and cones.py, the integer ray path, imports nothing from
fractions."""
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


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a package re-exports the names in __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_every_imported_name_is_used_or_wrapped_by_the_tracer():
    pinned = _tracer_names()
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        names -= pinned.get(path.stem, set())
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}


def test_cones_imports_nothing_from_fractions():
    tree = ast.parse((PACKAGE / "cones.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fractions")
             or isinstance(node, ast.Import)
             and any(a.name.startswith("fractions") for a in node.names)]
    assert found == []
