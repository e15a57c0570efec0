"""A rotation meets the operator in one place, and the operator is probed
through its window.

Every group action is a permutation of the cells, and an operator reads a
rotation only as the cells ``perm[window]`` that ``linop.window_table``
lists: the solver's steps, the certificate's ``eps_*`` terms, its subspace
probes and its band of ``A^T A`` all go through that table.  Every spectrum
is probed through the operator's window maps, and ``linop.gram_dense``, which
probes every column, is only the reference that tests compare against.
These tests read the package's sources with ``ast`` (they import nothing
from them) and fail on any other route: a call of a method named ``apply``
(``GroupAction.apply`` rotates a whole signal), a read of an attribute
named ``permutation`` outside ``symmetry.py`` and ``linop.window_table``, a
call of ``gram_dense``, and a ``LinearMap`` built outside ``from_window``,
the one map constructor.  No module reaches into another's private names,
beyond the shared validators ``linop._check_integer`` and
``linop._check_size`` (and the stdlib's ``os._exit``).  The tests' oracles
(``tests/oracles.py``) are written from their definitions: they import
nothing from ``grouppgd.solver`` and no private name of the package, so no
oracle shares the code it checks.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "grouppgd"
ORACLES = pathlib.Path(__file__).resolve().parent / "oracles.py"
# (module, top-level definition) pairs that may read a permutation;
# None stands for every definition of the module
PERMUTATION_READERS = {("symmetry.py", None), ("linop.py", "window_table")}
MAP_CONSTRUCTORS = {("linop.py", "from_window")}
# (owner, name) private names a module may take from elsewhere: the shared
# validators, and the exit of a forked child
SHARED_PRIVATE = {("linop", "_check_integer"), ("linop", "_check_size"), ("os", "_exit")}


def top_level_nodes():
    """``(module, name, node)`` for each top-level statement of each package
    module; ``name`` is a definition's name, or None."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no package sources under {PACKAGE}"
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path.name, getattr(node, "name", None), node


def attributes(named):
    """``(module, name, node)`` for each attribute ``named`` read or called."""
    return [(module, name, node) for module, name, top in top_level_nodes()
            for node in ast.walk(top) if isinstance(node, ast.Attribute) and node.attr == named]


def calls_of(named):
    """``(module, name, node)`` for each call of a function or method ``named``."""
    return [(module, name, node) for module, name, top in top_level_nodes()
            for node in ast.walk(top) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == named]


def test_no_source_calls_a_method_named_apply():
    calls = [(module, node.lineno) for module, _, top in top_level_nodes()
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "apply"]
    assert calls == []


def test_permutations_are_read_only_where_a_rotation_meets_the_operator():
    readers = {(module, name) for module, name, _ in attributes("permutation")}
    # the table does read them, so the rule is not vacuous
    assert ("linop.py", "window_table") in readers
    stray = [(module, name, node.lineno) for module, name, node in attributes("permutation")
             if (module, None) not in PERMUTATION_READERS
             and (module, name) not in PERMUTATION_READERS]
    assert stray == []


def test_no_source_calls_gram_dense():
    assert [(module, name, node.lineno) for module, name, node in calls_of("gram_dense")] == []


def test_a_linear_map_is_built_only_by_its_two_constructors():
    constructors = {(module, name) for module, name, _ in calls_of("LinearMap")}
    assert constructors == MAP_CONSTRUCTORS


def private(name):
    return name.startswith("_") and not name.startswith("__")


def own_names(tree):
    """Every name a module binds: its definitions, and the names and
    attributes it assigns."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_no_module_reaches_into_another_modules_private_names():
    reached = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = own_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                owner = (node.module or "").split(".")[-1]
                reached += [(path.name, owner, alias.name) for alias in node.names
                            if private(alias.name)]
            elif isinstance(node, ast.Attribute) and private(node.attr) and node.attr not in own:
                reached.append((path.name, ast.unparse(node.value), node.attr))
    assert ("solver.py", "linop", "_check_size") in reached  # the rule reads the imports
    assert [(module, owner, name) for module, owner, name in reached
            if (owner, name) not in SHARED_PRIVATE] == []


def test_the_oracles_import_no_solver_and_no_private_name():
    imported, read = [], []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [[*(node.module or "").split("."), alias.name] for alias in node.names]
        elif isinstance(node, ast.Attribute) and (node.attr == "solver" or private(node.attr)):
            read.append((node.attr, node.lineno))
    assert ["grouppgd", "linop", "from_window"] in imported  # the rule reads the imports
    assert [path for path in imported if path[0] == "grouppgd"
            and ("solver" in path or any(map(private, path)))] == []
    assert read == []
