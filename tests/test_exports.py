"""Every exported name resolves, so a deleted function cannot linger in an
``__all__`` list, no submodule re-exports another's callable, every imported
name is used, the lazily loading package exports exactly what its submodules
define, no module checks itself with an ``assert`` that ``python -O``
would strip, no module starts a process pool or a thread, every size
limit raises through one helper, one function builds every random
generator, ``src/`` keeps only the functions, classes, constants and
methods that the CLI, the demos, the benchmark or a named library-only entry
reaches, and ``src/`` stays within its code budget."""

import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bellscope

MODULES = ["bellscope"] + [f"bellscope.{info.name}"
                           for info in pkgutil.iter_modules(bellscope.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [x for x in exported if not hasattr(module, x)] == []
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize("name", MODULES[1:])
def test_all_lists_only_what_the_module_defines(name):
    # a callable is exported from the bellscope module that defines it; the
    # package itself re-exports by design and is checked below
    module = importlib.import_module(name)
    foreign = [x for x in getattr(module, "__all__", [])
               if callable(obj := getattr(module, x))
               and obj.__module__.startswith("bellscope") and obj.__module__ != name]
    assert foreign == []


def imported_names(tree):
    """Every name an import statement binds, anywhere in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = set(imported_names(tree)) - used - set(getattr(module, "__all__", ()))
    assert unused == set()


@pytest.mark.parametrize("name", MODULES)
def test_no_runtime_assert(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} uses assert at lines {lines}; raise instead"


@pytest.mark.parametrize("name", MODULES)
def test_no_module_starts_processes_or_threads(name):
    # each run is one process on one thread, so the os.wait4 figures of the
    # benchmark harness cover all of its work
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    forbidden = {"concurrent", "multiprocessing", "threading"}
    assert [m for m in imported if m.partition(".")[0] in forbidden] == []


def test_the_cli_checks_finiteness_in_one_function():
    # one rule covers every float flag and every printed float, so no
    # command grows a finiteness check of its own
    def isfinite_calls(node):
        return sum(isinstance(call, ast.Call)
                   and getattr(call.func, "attr", getattr(call.func, "id", None)) == "isfinite"
                   for call in ast.walk(node))

    tree = ast.parse(Path(importlib.import_module("bellscope.cli").__file__).read_text())
    owners = [func for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and isfinite_calls(func)]
    assert [func.name for func in owners] == ["_require_finite"]
    assert isfinite_calls(owners[0]) == isfinite_calls(tree) == 1


def owners(matches):
    """``(module, enclosing function)`` of each node of ``src/`` that ``matches``;
    the function is None at module or class level."""
    found = []

    def visit(name, node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(name, child, child.name)
                continue
            if matches(child):
                found.append((name, owner))
            visit(name, child, owner)

    for name in MODULES:
        visit(name, ast.parse(Path(importlib.import_module(name).__file__).read_text()), None)
    return found


def test_every_size_limit_raises_through_one_helper():
    # one decision says what is too big and how it is said, so no module
    # grows a size message of its own
    def guard_raise(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(c, ast.Constant) and isinstance(c.value, str)
            and "guard" in c.value.lower() for c in ast.walk(node))

    assert owners(guard_raise) == [("bellscope.numerics", "_require_size")]


def test_one_function_builds_every_random_generator():
    # every seeded draw comes from numerics.seeded_generator, so no module
    # pins a bit generator, seeds a global stream or draws from one
    def numpy_random(node):
        if isinstance(node, ast.Attribute):
            return (node.attr == "random" and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy"))
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names))
        return isinstance(node, ast.Import) and any(
            alias.name.startswith("numpy.random") for alias in node.names)

    assert set(owners(numpy_random)) == {("bellscope.numerics", "seeded_generator")}


def test_each_export_is_its_submodules_object():
    for name in bellscope.__all__:
        if name == "__version__":
            continue
        obj = getattr(bellscope, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"bellscope.{name}")
        else:
            assert obj.__module__.startswith("bellscope.")
            assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_dir_lists_every_export():
    assert set(bellscope.__all__) <= set(dir(bellscope))


def test_star_import_binds_exactly_all():
    code = ("import json; before = set(globals()); from bellscope import *; "
            "print(json.dumps(sorted(set(globals()) - before - {'before'})))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(bellscope.__all__)


REPO = Path(__file__).resolve().parents[1]

#: Functions, classes and methods that nothing in the CLI, the demos or the
#: benchmark calls, kept for library users of the paper's methods; the
#: README says what each is for.
LIBRARY_ONLY = (
    "collective.symmetrized_correlators",
    "collective.dicke_state",
    "symmetric.PIBellExpression.value",
    "quantum.state_to_json",
    "quantum.renyi_entropy",
    "correlations.expression_to_json",
    "correlations.Behavior",
    "correlations.BellFunctional.value",
    "correlations.is_nonsignalling",
)


def defined_names(tree):
    """``(name, node)`` of each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def referenced_names(tree, modules, dotted_strings=False):
    """``(scope, name)`` of every name and attribute ``tree`` mentions: the
    scope is None for a bare name, the submodule for ``module.name`` with
    ``module`` one of ``modules``, and "." for any other attribute.  With
    ``dotted_strings`` each part of a string that is a dotted name counts
    too, as the benchmark's tracer names the functions it wraps."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield None, node.id
        elif isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", None)
            yield owner if owner in modules else ".", node.attr
        elif (dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            parts = node.value.split(".")
            yield None, parts[0]
            for owner, name in zip(parts, parts[1:]):
                yield owner if owner in modules else ".", name


def class_body(node):
    """What a class itself runs: its decorators, bases and every statement
    of its body that is not a method."""
    yield from node.decorator_list
    yield from node.bases
    yield from (child for child in node.body if not isinstance(child, ast.FunctionDef))


def test_src_keeps_only_what_runs():
    # a function, class or constant of a submodule is reached by name from
    # cli.py, demos/ or benchmarks/, or from a LIBRARY_ONLY entry, directly
    # or through src/.  ``module.name`` reaches only that module's
    # definition, and a bare name every definition of it, which errs toward
    # keeping.  A method or property of a reached class is reached when an
    # attribute of its name is, ``module.name`` included, since a variable
    # may share a module's name (``mps``); its dunders always are.
    package = Path(bellscope.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "cli"}
    defs, members = {}, {}  # name -> [(module, key, nodes)]; key -> (class key, name, node)
    for module in modules:
        for name, node in defined_names(ast.parse((package / f"{module}.py").read_text())):
            key = f"{module}.{name}"
            if isinstance(node, ast.ClassDef):
                defs.setdefault(name, []).append((module, key, list(class_body(node))))
                members.update((f"{key}.{member.name}", (key, member.name, member))
                               for member in node.body if isinstance(member, ast.FunctionDef))
            else:
                defs.setdefault(name, []).append((module, key, [node]))
    roots = [package / "cli.py", *REPO.glob("demos/*.py"), *REPO.glob("benchmarks/*.py")]
    todo = [ref for path in roots
            for ref in referenced_names(ast.parse(path.read_text()), modules, dotted_strings=True)]
    reached, attributes = set(), set()

    def reach(key, nodes):
        if key not in reached:
            reached.add(key)
            todo.extend(ref for node in nodes for ref in referenced_names(node, modules))

    for entry in LIBRARY_ONLY:
        if entry in members:
            reach(entry, [members[entry][2]])
        else:
            todo.append(tuple(entry.split(".")))
    while todo:
        while todo:
            scope, name = todo.pop()
            if scope is not None:
                attributes.add(name)
            for module, key, nodes in defs.get(name, ()):
                if scope in (None, ".", module):
                    reach(key, nodes)
        for key, (class_key, name, node) in members.items():
            if class_key in reached and (name in attributes or re.fullmatch(r"__\w+__", name)):
                reach(key, [node])
    every = {key for entries in defs.values() for _, key, _ in entries} | set(members)
    assert sorted(every - reached) == []


def test_readme_says_what_each_library_only_function_is_for():
    readme = (REPO / "README.md").read_text()
    assert [entry for entry in LIBRARY_ONLY if f"`{entry}(" not in readme] == []
    for entry in LIBRARY_ONLY:
        module, *path = entry.split(".")
        obj = importlib.import_module(f"bellscope.{module}")
        for name in path:
            obj = getattr(obj, name)
        assert callable(obj)


#: The ROADMAP's ceiling on code lines in ``src/bellscope``; the PRs of its
#: directions 1, 3 and 8 raise it by exactly the lines they declare.
CODE_LINE_CEILING = 2020


def code_lines(source):
    """Lines that are not blank, not comment-only and not inside a docstring,
    the first string statement of a module, class or function."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in docstrings and line.strip()
               and not line.strip().startswith("#"))


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = ('"""Module\ndocstring."""\n\nimport os  # kept\n\n\ndef f():\n'
              '    """Docstring."""\n    # comment\n    text = """not a\n    docstring"""\n'
              '    return text\n')
    assert code_lines(source) == 5


def test_src_stays_within_its_code_budget():
    package = Path(bellscope.__file__).parent
    count = sum(code_lines(path.read_text()) for path in package.glob("*.py"))
    assert count <= CODE_LINE_CEILING
