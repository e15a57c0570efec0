"""The package surface that ``perfbench/`` reads still exists, and the
package root exports nothing else but README's Python API.

The benchmark imports the package from the checkout it runs in, so a
deleted or renamed name breaks it only when it runs.  These tests read the
benchmark's sources with ``ast`` (they change nothing there) and check that
every name they import from the package, and every attribute they read off
one of its modules, resolves, and that the polar kernels still take the
arguments the benchmark's replay passes them.  README's Python blocks are
read the same way, and the root's public names must be exactly the ones
these callers take from it.  Those blocks also run, warning-free.  The
benchmark's traced replay runs too, on each workload, as CI runs it.
"""

import ast
import importlib
import inspect
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import grouppgd
from grouppgd import kernels

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def sources():
    paths = sorted(PERFBENCH.glob("*.py"))
    assert paths, f"no benchmark sources under {PERFBENCH}"
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def module_names(tree):
    """Local names bound to a package module in ``tree``, mapped to the module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.split(".")[0] == "grouppgd":
                    bound[alias.asname] = alias.name
                elif alias.name.split(".")[0] == "grouppgd":
                    bound["grouppgd"] = "grouppgd"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("grouppgd"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if isinstance(getattr(module, alias.name, None), types.ModuleType):
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def package_references():
    """``(file, module, name)`` for every name the benchmark takes from the package."""
    refs = []
    for filename, tree in sources():
        modules = module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("grouppgd"):
                refs += [(filename, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                refs += [(filename, alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "grouppgd"]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                refs.append((filename, modules[node.value.id], node.attr))
    return refs


def test_every_package_name_the_benchmark_reads_resolves():
    refs = package_references()
    # the replay's imports and run.py's machine() description are all read
    assert {"restricted_min_eig", "sample_action", "NUMBA_ENABLED", "polar_forward"} <= {
        name for _, _, name in refs}
    missing = []
    for filename, module_name, name in refs:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append((filename, module_name, None))
            continue
        if name is not None and not hasattr(module, name):
            missing.append((filename, module_name, name))
    assert not missing, missing


def readme_blocks():
    """The fenced Python blocks of README.md, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks, "no Python block in README.md"
    return blocks


def readme_root_imports():
    """Names that README's Python blocks import from the package root."""
    return {alias.name for block in readme_blocks() for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "grouppgd"
            for alias in node.names}


def test_readme_python_blocks_run_warning_free():
    # the suite turns every warning into an error, so a block that warns fails
    for block in readme_blocks():
        exec(compile(block, "README.md", "exec"), {})


def test_root_exports_exactly_what_its_callers_import():
    def public(name):
        return not name.startswith("_") and not isinstance(
            getattr(grouppgd, name, None), types.ModuleType)

    callers = readme_root_imports() | {
        name for _, module, name in package_references()
        if module == "grouppgd" and name is not None}
    exported = {name for name in vars(grouppgd) if public(name)}
    assert {name for name in callers if public(name)} == exported


def kernel_calls(name):
    """``(positional count, keywords)`` of every ``kernels.<name>(...)`` call."""
    calls = []
    for _, tree in sources():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == name and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "kernels"):
                calls.append((len(node.args), [k.arg for k in node.keywords]))
    return calls


def test_polar_kernels_take_the_replays_arguments():
    for name in ("polar_forward", "polar_adjoint"):
        calls = kernel_calls(name)
        assert calls, f"no kernels.{name} call found under perfbench/"
        signature = inspect.signature(getattr(kernels, name))
        for n_args, keywords in calls:
            signature.bind(*[None] * n_args, **dict.fromkeys(keywords))
    # the replay's own argument forms, on a small shape
    n_angles, rays, n_r, n_theta, n_off = 3, 4, 5, 8, 3
    rng = np.random.default_rng(0)
    x2 = rng.standard_normal((n_r, n_theta))
    cols = ((rng.integers(0, n_theta, size=(n_angles, 1)) + np.arange(n_off)) % n_theta
            ).astype(np.int64)
    weights = rng.standard_normal((n_angles, rays, n_r, n_off))
    weights_t = np.ascontiguousarray(np.moveaxis(weights, 1, 3))
    y = rng.standard_normal(n_angles * rays)
    fwd = kernels.polar_forward(x2, cols, weights)
    adj = kernels.polar_adjoint(y, cols, weights_t, n_r, n_theta)
    assert fwd.shape == (n_angles * rays,) and adj.shape == (n_r * n_theta,)
    scale = np.abs(weights).sum() * np.abs(x2).max() * np.abs(y).max()
    assert abs(fwd @ y - x2.ravel() @ adj) <= 1e-12 * scale


@pytest.mark.parametrize("workload", ["extreme_sparse", "noisy_textured", "long_chain"])
def test_traced_replay_reproduces_the_cli_bit_for_bit(tmp_path, workload):
    # CI's traced replay: the benchmark runs the workload's command in a
    # child process, replays it in process and compares the outputs.  It
    # writes .bench_out/ under its own root, so it runs from a copy.
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stderr
