"""Every exported name resolves, so a deleted function cannot linger in an
``__all__`` list, no submodule re-exports another's callable, every imported
name is used, the lazily loading package exports exactly what its submodules
define, no module checks itself with an ``assert`` that ``python -O``
would strip, no module starts a process pool or a thread, every size
limit raises through one helper, one function builds every random
generator, ``src/`` keeps only the functions, classes, constants and
methods that the CLI, the demos, the benchmark or a named library-only entry
reaches, and of those only the record fields that such code reads and the
defaulted parameters that it passes, every record that holds an array
compares by identity, and ``src/`` stays within its code budget.
``PYTHONPATH=src python tests/test_exports.py`` prints the
code/docstring/comment/blank split of ``src/bellscope``."""

import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
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


#: A builder of each dataclass that holds an array; ``==`` on them is identity.
ARRAY_RECORDS = {
    "StateVector": lambda: bellscope.max_entangled(2),
    "DensityOperator": lambda: bellscope.DensityOperator((2,), [[0.5, 0.0], [0.0, 0.5]]),
    "SchmidtData": lambda: bellscope.schmidt_decompose(bellscope.max_entangled(2)),
    "SymmetricState": lambda: bellscope.dicke_state(4, 2),
    "ChainHamiltonian": lambda: importlib.import_module("bellscope.chains").heisenberg_chain(3),
    "MpsState": lambda: importlib.import_module("bellscope.mps").mps_from_dense(
        bellscope.max_entangled(2).amplitudes),
    "BellFunctional": lambda: bellscope.chsh_correlator_functional(),
    "Behavior": lambda: bellscope.Behavior(bellscope.Scenario(2, 2, 2), np.full((2,) * 4, 0.25)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_array_records_compare_by_identity(name):
    # a field-wise == would ask numpy for the truth value of an array, and raise
    record = ARRAY_RECORDS[name]()
    assert type(record).__name__ == name
    assert (record == record) is True
    assert (record == ARRAY_RECORDS[name]()) is False


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
#: benchmark calls, and records whose fields they do not all read, kept for
#: library users of the paper's methods; the README says what each is for.
LIBRARY_ONLY = (
    "collective.symmetrized_correlators",
    "collective.dicke_state",
    "symmetric.PIBellExpression.value",
    "quantum.state_to_json",
    "quantum.renyi_entropy",
    "quantum.SchmidtData",
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


PACKAGE = Path(bellscope.__file__).parent
ROOTS = [PACKAGE / "cli.py", *REPO.glob("demos/*.py"), *REPO.glob("benchmarks/*.py")]


def reach_src():
    """``(definitions, reached)``: the node that defines each function,
    class, constant and method of a submodule, keyed ``module.name`` or
    ``module.Class.method``, and the nodes that run for each key that
    cli.py, demos/, benchmarks/ or a LIBRARY_ONLY entry reaches, directly
    or through src/.  ``module.name`` reaches only that module's
    definition, and a bare name every definition of it, which errs toward
    keeping.  A method or property of a reached class is reached when an
    attribute of its name is, ``module.name`` included, since a variable
    may share a module's name (``mps``); its dunders always are."""
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "cli"}
    # name -> [(module, key, nodes)]; key -> (class key, name, node); key -> node
    defs, members, definitions = {}, {}, {}
    for module in modules:
        for name, node in defined_names(ast.parse((PACKAGE / f"{module}.py").read_text())):
            key = f"{module}.{name}"
            definitions[key] = node
            if isinstance(node, ast.ClassDef):
                defs.setdefault(name, []).append((module, key, list(class_body(node))))
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        members[f"{key}.{member.name}"] = (key, member.name, member)
                        definitions[f"{key}.{member.name}"] = member
            else:
                defs.setdefault(name, []).append((module, key, [node]))
    todo = [ref for path in ROOTS
            for ref in referenced_names(ast.parse(path.read_text()), modules, dotted_strings=True)]
    reached, attributes = {}, set()

    def reach(key, nodes):
        if key not in reached:
            reached[key] = nodes
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
    return definitions, reached


def test_src_keeps_only_what_runs():
    # every function, class, constant and method of a submodule is reached
    definitions, reached = reach_src()
    assert sorted(set(definitions) - set(reached)) == []


def record_fields(node):
    """``(fields, is_namedtuple)`` of a dataclass or a ``namedtuple``
    subclass; no fields for any other class."""
    for base in node.bases:
        if isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple":
            return base.args[1].value.replace(",", " ").split(), True
    decorators = {getattr(d, "id", None) or getattr(getattr(d, "func", None), "id", None)
                  for d in node.decorator_list}
    if "dataclass" in decorators:
        return [stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign)], False
    return [], False


def test_src_records_keep_only_fields_that_are_read():
    # each field of a reached dataclass or namedtuple that is not a
    # LIBRARY_ONLY entry is loaded as an attribute by cli.py, demos/,
    # benchmarks/ or reached src/ code, or its record is unpacked there: a
    # namedtuple counts as unpacked wherever a tuple target of its length
    # is assigned.  Attributes match by name alone, so a field that shares
    # its name with any loaded attribute or method is kept
    definitions, reached = reach_src()
    code = [node for root in [*(ast.parse(path.read_text()) for path in ROOTS),
                              *(node for nodes in reached.values() for node in nodes)]
            for node in ast.walk(root)]
    loaded = {node.attr for node in code
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unpacked = {len(node.elts) for node in code
                if isinstance(node, (ast.Tuple, ast.List)) and isinstance(node.ctx, ast.Store)}
    unread = []
    for key in reached:
        if isinstance(definitions[key], ast.ClassDef) and key not in LIBRARY_ONLY:
            fields, namedtuple = record_fields(definitions[key])
            if not (namedtuple and len(fields) in unpacked):
                unread += [f"{key}.{field}" for field in fields if field not in loaded]
    assert sorted(unread) == []


def defaulted_parameters(func):
    """``(position, name)`` of each parameter of ``func`` that has a
    default; the position counts ``self`` and is None for a keyword-only
    parameter."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    yield from enumerate((arg.arg for arg in positional[first:]), first)
    yield from ((None, arg.arg) for arg, default
                in zip(func.args.kwonlyargs, func.args.kw_defaults) if default is not None)


def passed_value(call, position, name):
    """What ``call`` passes as parameter ``name`` at ``position``: the
    argument, None when it passes nothing there, or ``call`` itself when a
    ``*`` or ``**`` argument may pass it."""
    for keyword in call.keywords:
        if keyword.arg is None:
            return call
        if keyword.arg == name:
            return keyword.value
    for index, arg in enumerate(call.args if position is not None else ()):
        if isinstance(arg, ast.Starred):
            return call
        if index == position:
            return arg
    return None


def test_src_functions_keep_only_parameters_that_are_set():
    # each defaulted parameter of a reached function or method that is not
    # a LIBRARY_ONLY entry is passed by cli.py, demos/, benchmarks/ or
    # tests/test_acceptance.py, or by reached src/ code; src/ code that
    # passes on a defaulted parameter of its own, by name, counts only when
    # that one is passed.  A call matches each function or method of
    # its bare name, a class's name matches its ``__init__``, and a
    # method's positions start after ``self``
    definitions, reached = reach_src()
    functions = {}  # called name -> [(key, positions taken by self)]
    for key, node in definitions.items():
        if isinstance(node, ast.FunctionDef):
            functions.setdefault(node.name, []).append((key, key.count(".") - 1))
            if node.name == "__init__":
                functions.setdefault(key.split(".")[1], []).append((key, 1))
    callers = [(None, ast.parse(path.read_text()))
               for path in [*ROOTS, REPO / "tests" / "test_acceptance.py"]]
    callers += [(key, node) for key, nodes in reached.items() for node in nodes]
    passed, forwarded = set(), set()  # (key, parameter); ((key, parameter), from)
    for caller, root in callers:
        own = set()
        if isinstance(definitions.get(caller), ast.FunctionDef):
            own = {name for _, name in defaulted_parameters(definitions[caller])}
        for call in (node for node in ast.walk(root) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            for key, offset in functions.get(name, ()):
                for position, parameter in defaulted_parameters(definitions[key]):
                    value = passed_value(
                        call, None if position is None else position - offset, parameter)
                    if isinstance(value, ast.Name) and value.id in own:
                        forwarded.add(((key, parameter), (caller, value.id)))
                    elif value is not None:
                        passed.add((key, parameter))
    while more := {target for target, source in forwarded if source in passed} - passed:
        passed |= more
    unset = [f"{key}({parameter})" for key in reached
             if isinstance(definitions[key], ast.FunctionDef) and key not in LIBRARY_ONLY
             for _, parameter in defaulted_parameters(definitions[key])
             if (key, parameter) not in passed]
    assert sorted(unset) == []


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
CODE_LINE_CEILING = 1961


def line_split(source):
    """``(code, docstring, comment, blank)`` line counts of ``source``.  A
    docstring is the first string statement of a module, class or function,
    its blank lines included; a comment line holds nothing but a comment;
    code is every other nonblank line, and is what the ceiling counts."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    counts = [0, 0, 0, 0]
    for number, line in enumerate(source.splitlines(), 1):
        kind = (1 if number in docstrings else 3 if not line.strip()
                else 2 if line.strip().startswith("#") else 0)
        counts[kind] += 1
    return tuple(counts)


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = ('"""Module\ndocstring."""\n\nimport os  # kept\n\n\ndef f():\n'
              '    """Docstring."""\n    # comment\n    text = """not a\n    docstring"""\n'
              '    return text\n')
    assert line_split(source) == (5, 3, 1, 3)


def src_line_split():
    """``{file name: line_split}`` of each module of ``src/bellscope``."""
    return {path.name: line_split(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_src_stays_within_its_code_budget():
    assert sum(split[0] for split in src_line_split().values()) <= CODE_LINE_CEILING


if __name__ == "__main__":
    splits = src_line_split()
    splits["total"] = tuple(map(sum, zip(*splits.values())))
    print(f"{'file':16}{'code':>6}{'doc':>6}{'comment':>9}{'blank':>7}")
    for name, (code, doc, comment, blank) in splits.items():
        print(f"{name:16}{code:6}{doc:6}{comment:9}{blank:7}")
