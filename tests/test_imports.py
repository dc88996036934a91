"""Import and definition hygiene: every name a package module imports is
used in it, or is one that perfbench/tracing.py wraps at that module (a name
a caller there looks up); every top-level function, class or assigned name
is used in the package or exported; every field, method and property of a
package class is read somewhere in the repository's code; and cones.py, the
integer ray path, imports nothing from fractions."""
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


def _members(cls):
    """A class's fields (annotated or assigned in its body), methods and
    properties, without dunders."""
    names = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        else:
            names += _defined_names(node)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _member_reads(tree):
    """The names a tree reads as members: as an attribute, a keyword
    argument, or a string (a getattr or a field list)."""
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.keyword) and sub.arg:
            yield sub.arg
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def unread_members(package, roots):
    """The members of the package's top-level classes, as module.Class.name,
    that no file under roots reads."""
    read = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            read.update(_member_reads(ast.parse(path.read_text(encoding="utf-8"))))
    return [f"{path.stem}.{node.name}.{name}"
            for path in sorted(package.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ClassDef)
            for name in _members(node) if name not in read]


def test_every_class_member_is_read():
    roots = [ROOT / "src", ROOT / "tests", ROOT / "scripts", ROOT / "perfbench"]
    assert unread_members(PACKAGE, roots) == []
