"""Dead-code guard: every top-level name, method and instance attribute has a reader.

A top-level function, class or constant of `src/quotientlab/*.py` must
be referenced somewhere in `src/` or `tests/` other than its own
definition.  Importing a name counts as a reference, so re-exports in
the package `__init__` keep public names alive.  Decorated definitions
count as used, because the decorator registers them (the suite registry
in `suites.py`).  A string is a reference only as the first argument of
a `check_cap(...)` call, which names the cap it reads from `config`.
A name the package `__init__` does not export must also be referenced
in `src/` or `bench/`: code that only the tests read is not part of the
program, so its test goes with it.

Every method or property of a package class, dunders aside, must be
read as an attribute (`x.name`) somewhere in `src/` or `tests/`.  A
definition is not an attribute read, so this catches methods that only
define themselves; a subclass override is kept alive by the base class's
call.

Every instance attribute a package class assigns (`self.x = ...` or
`object.__setattr__(self, "x", ...)`) must be loaded as an attribute
somewhere in `src/` or `tests/`; an assignment alone is dead state.
Dataclass fields are not checked: result records echo their inputs.

No module of `src/quotientlab/` reads an attribute `x._name` (dunders
aside) that only a different module of the package defines: a private
name is read by the module that defines it, so a module's internals can
change without another module knowing them.

Every local name a function of `src/quotientlab/` assigns is also read
in that function or a function nested in it; a store alone is dead
work.  `_`-prefixed names and names declared `nonlocal` or `global`
are exempt.

No module of `src/quotientlab/` imports inside a function: every import
is at the top of its module, so the package's import graph is the one
its module headers show, and a cycle in it fails at import time.

Caps are enforced in one place: no module of `src/quotientlab/` but
`errors.py` calls a `CapExceededError` class, and every `check_cap` call
names a `*_CAP` constant of `config` by a string literal.

Rank tables come from one include/exclude walk: `src/quotientlab/` has
exactly one function named `rank_table`, so no matroid class overrides
it, and no `_reduce_*` function keeps a second copy of a matroid's
independence step.  The walk over the prefix elements and the fill of a
contraction pattern over the low elements are one recursion inside it.

Graphs have one union-find, the cycle matroid's labeling: no function
of `src/quotientlab/` is named `spanning_forest`, `find` or `union`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quotientlab"


def _trees(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id


def _methods(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}", item.name


def _instance_attributes(tree):
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                yield f"{node.name}.{sub.attr}", sub.attr
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "__setattr__"
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == "object"
                and isinstance(sub.args[1], ast.Constant)
            ):
                yield f"{node.name}.{sub.args[1].value}", sub.args[1].value


def _loaded_attributes(tree):
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", None)


def _cap_names(tree):
    """The first argument of each `check_cap(...)` call: a cap's name, or the node if not a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) == "check_cap" and node.args:
            arg = node.args[0]
            yield arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else arg


def _references(tree):
    yield from (name for name in _cap_names(tree) if isinstance(name, str))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unreferenced_names(roots=("src", "tests")):
    trees = _trees([path for root in roots for path in sorted((ROOT / root).rglob("*.py"))])
    used = {name for tree in trees.values() for name in _references(tree)}
    return sorted(
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in _definitions(tree)
        if name not in used
    )


def unread_methods():
    trees = _trees(sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")))
    read = {name for tree in trees.values() for name in _loaded_attributes(tree)}
    return sorted(
        f"{path.stem}.{qualified}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for qualified, name in _methods(tree)
        if name not in read
    )


def unread_instance_attributes():
    trees = _trees(sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")))
    loaded = {name for tree in trees.values() for name in _loaded_attributes(tree)}
    return sorted(
        {
            f"{path.stem}.{qualified}"
            for path, tree in trees.items()
            if path.parent == PACKAGE
            for qualified, name in _instance_attributes(tree)
            if name not in loaded
        }
    )


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _bound_names(tree):
    """Names a module binds: definitions, assigned names and assigned attributes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr


def foreign_private_reads():
    trees = _trees(sorted(PACKAGE.glob("*.py")))
    defined = {path: set(filter(_is_private, _bound_names(tree))) for path, tree in trees.items()}
    return sorted(
        f"{path.stem} reads {node.attr}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and _is_private(node.attr)
        and node.attr not in defined[path]
        and any(node.attr in names for names in defined.values())
    )


def imports_inside_functions():
    return sorted(
        f"{path.stem}.{func.name}"
        for path, tree in _trees(sorted(PACKAGE.glob("*.py"))).items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(func))
    )


def unread_locals():
    out = []
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))).items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(ast.walk(func))
            exempt = {n for node in nodes if isinstance(node, (ast.Nonlocal, ast.Global)) for n in node.names}
            names = [node for node in nodes if isinstance(node, ast.Name)]
            stored = {node.id for node in names if isinstance(node.ctx, ast.Store)}
            read = {node.id for node in names if not isinstance(node.ctx, ast.Store)}
            out += [
                f"{path.stem}.{func.name}.{name}"
                for name in sorted(stored - read - exempt)
                if not name.startswith("_")
            ]
    return out


def test_every_top_level_name_is_referenced():
    assert unreferenced_names() == []


def test_every_unexported_name_is_read_outside_the_tests():
    assert unreferenced_names(("src", "bench")) == []


def test_every_method_is_read_as_an_attribute():
    assert unread_methods() == []


def test_every_instance_attribute_is_read():
    assert unread_instance_attributes() == []


def test_no_module_reads_another_modules_private_attribute():
    assert foreign_private_reads() == []


def test_every_assigned_local_is_read():
    assert unread_locals() == []


def test_no_module_imports_inside_a_function():
    assert imports_inside_functions() == []


def cap_error_classes():
    """CapExceededError and every class of `errors.py` derived from it."""
    classes = {"CapExceededError"}
    for node in ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in classes for base in node.bases
        ):
            classes.add(node.name)
    return classes


def cap_errors_raised_outside_errors_module():
    classes = cap_error_classes()
    return sorted(
        f"{path.stem}:{node.lineno} calls {_called_name(node)}"
        for path, tree in _trees(sorted(PACKAGE.glob("*.py"))).items()
        if path.name != "errors.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) in classes
    )


def test_only_the_errors_module_builds_a_cap_error():
    assert len(cap_error_classes()) > 1
    assert cap_errors_raised_outside_errors_module() == []


def test_every_check_cap_call_names_a_config_cap():
    caps = {
        name
        for name in _definitions(ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8")))
        if name.endswith("_CAP")
    }
    named = [
        name
        for tree in _trees(sorted((ROOT / "src").rglob("*.py"))).values()
        for name in _cap_names(tree)
    ]
    assert named, "no check_cap call found"
    assert [name for name in named if name not in caps] == []


def functions_named(predicate):
    return sorted(
        f"{path.stem}.{func.name}"
        for path, tree in _trees(sorted(PACKAGE.glob("*.py"))).items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and predicate(func.name)
    )


def test_one_rank_table_walk_and_no_second_elimination():
    assert functions_named(lambda name: name == "rank_table") == ["matroid.rank_table"]
    assert functions_named(lambda name: name.startswith("_reduce_")) == []


def test_one_union_find():
    assert functions_named(lambda name: name in {"spanning_forest", "find", "union"}) == []
