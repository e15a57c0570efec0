"""A rotation meets the operator in one place.

Every group action is a permutation of the cells, and an operator reads a
rotation only as the cells ``perm[window]`` that ``linop.window_table``
lists: the solver's steps, the certificate's ``eps_*`` terms and its
subspace probes all go through that table.  These tests read the package's
sources with ``ast`` (they import nothing from them) and fail on any other
route: a call of a method named ``apply`` (``GroupAction.apply`` rotates a
whole signal), and a read of an attribute named ``permutation`` outside
``symmetry.py``, ``linop.window_table`` and ``linop.band_gram`` (which
moves entries of ``A^T A`` through the permutations themselves).
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "grouppgd"
# (module, top-level definition) pairs that may read a permutation;
# None stands for every definition of the module
PERMUTATION_READERS = {("symmetry.py", None), ("linop.py", "window_table"),
                       ("linop.py", "band_gram")}


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


def test_no_source_calls_a_method_named_apply():
    calls = [(module, node.lineno) for module, _, top in top_level_nodes()
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "apply"]
    assert calls == []


def test_permutations_are_read_only_where_a_rotation_meets_the_operator():
    readers = {(module, name) for module, name, _ in attributes("permutation")}
    # the table and the band do read them, so the rule is not vacuous
    assert {("linop.py", "window_table"), ("linop.py", "band_gram")} <= readers
    stray = [(module, name, node.lineno) for module, name, node in attributes("permutation")
             if (module, None) not in PERMUTATION_READERS
             and (module, name) not in PERMUTATION_READERS]
    assert stray == []
