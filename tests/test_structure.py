"""Structural checks on the package source, read as syntax trees.

The attack sees only the shuffled trace: no module it can import, directly
or through other package modules, knows which client sent which update. No
invariant of the package rests on `assert`, which `python -O` strips. And
numpy's error state, the overflow policy, is set only where divergence is
detected: in `fedsim.run_simulation`. Every input file is read in one
place, `errors.read_input`, so a bad file of any kind fails the same way.
Every top-level function and class of the package is read by other code
of the package or by the benchmark, so no helper is kept for tests alone.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gradlink"
BENCHMARK = PACKAGE.parents[1] / "perfbench"
# Modules that hold the truth or hand it on: the simulator returns it,
# `report` reads its sidecar, and `cli` wires both.
TRUTH_MODULES = {"fedsim", "report", "cli"}
TRUTH_WORDS = ("sidecar", "truth")


def _package_trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _imported_modules(tree, modules):
    """The package modules `tree` imports as `from .x import ...`,
    `from . import x`, `import gradlink.x` or `from gradlink import x`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            found = [parts[1] for parts in names if parts[0] == "gradlink" and len(parts) > 1]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "gradlink" or node.level == 1 and not node.module:
                found = [a.name for a in node.names]
            elif node.level == 1:
                found = [node.module.split(".")[0]]
            elif node.module and node.module.startswith("gradlink."):
                found = [node.module.split(".")[1]]
            else:
                found = []
        else:
            continue
        yield from (name for name in found if name in modules)


def _identifiers(tree):
    """Every name a module defines, imports, reads or passes as a keyword."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def boundary_violations(trees, start="attack"):
    """Why the modules `start` reaches through package imports could see
    the truth: a truth module in the closure, or a truth name in a module
    of it. Importing any module of the package runs its `__init__` first,
    so the closure starts from both."""
    modules = set(trees)
    closure, todo = set(), [start, "__init__"]
    while todo:
        name = todo.pop()
        if name not in closure:
            closure.add(name)
            todo.extend(_imported_modules(trees[name], modules))
    problems = [f"{start} reaches {name}" for name in sorted(closure & TRUTH_MODULES)]
    for name in sorted(closure - TRUTH_MODULES):
        names = {i for i in _identifiers(trees[name]) if any(w in i.lower() for w in TRUTH_WORDS)}
        problems += [f"{name} names {i}" for i in sorted(names)]
    return problems


def assert_statements(trees):
    return [
        f"{name}.py:{node.lineno}"
        for name, tree in sorted(trees.items())
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


def test_attack_import_closure_holds_no_truth():
    trees = _package_trees()
    assert "attack" in trees and TRUTH_MODULES <= set(trees)
    assert boundary_violations(trees) == []


def _planted(**sources):
    base = {
        "attack": "from .model import layer_names\nfrom .traceio import TraceStore\n",
        "model": "def layer_names(selector, n_blocks):\n    return []\n",
        "traceio": "class TraceStore:\n    pass\n",
        "fedsim": "from .traceio import TraceStore\ntruth = None\n",
        "report": "def read_sidecar(path):\n    pass\n",
        "cli": "from . import attack as attack_mod\nfrom .report import read_sidecar\n",
        "__init__": '__version__ = "0.1.0"\n',
    }
    base.update(sources)
    return {name: ast.parse(source) for name, source in base.items()}


def test_boundary_check_passes_the_planted_baseline():
    """`cli` may import the truth modules."""
    assert boundary_violations(_planted()) == []


def test_boundary_check_reports_a_truth_import_in_the_package_init():
    trees = _planted(__init__="from .fedsim import run_simulation\n")
    assert boundary_violations(trees) == ["attack reaches fedsim"]


def test_importing_the_attack_loads_no_truth_module():
    """In a fresh interpreter, as the package runs rather than as its
    source reads."""
    probe = "import sys, gradlink.attack; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env, timeout=60)
    loaded = set(out.stdout.split())
    assert "gradlink.attack" in loaded
    assert sorted(loaded & {f"gradlink.{name}" for name in TRUTH_MODULES}) == []


@pytest.mark.parametrize("attack_source, expected", [
    ("from .fedsim import TraceStore\n", ["attack reaches fedsim"]),
    ("import gradlink.fedsim\n", ["attack reaches fedsim"]),
    ("from gradlink import report\n", ["attack reaches report"]),
    ("from . import cli\n", ["attack reaches cli", "attack reaches report"]),
], ids=["from-relative-module", "import-absolute", "from-package", "from-relative-package"])
def test_boundary_check_reports_a_planted_truth_import(attack_source, expected):
    assert boundary_violations(_planted(attack=attack_source)) == expected


def test_boundary_check_reports_a_truth_name_behind_an_allowed_import():
    trees = _planted(traceio="def write_sidecar(path, truth_rows):\n    pass\n")
    assert boundary_violations(trees) == ["traceio names truth_rows", "traceio names write_sidecar"]


def test_no_assert_statements_in_package():
    assert assert_statements(_package_trees()) == []
    assert assert_statements({"m": ast.parse("x = 1\nassert x\n")}) == ["m.py:2"]


ERROR_STATE_NAMES = {"errstate", "seterr"}


def _nodes_of(tree, function):
    """The ids of the nodes of the function named `function` in `tree`, or
    none if it has no such function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return set(map(id, ast.walk(node)))
    return set()


def error_state_settings(trees):
    """Where a module names numpy's `errstate` or `seterr` outside
    `fedsim.run_simulation`, as attribute, name or import."""
    found = []
    for name, tree in sorted(trees.items()):
        allowed = _nodes_of(tree, "run_simulation") if name == "fedsim" else set()
        for node in ast.walk(tree):
            named = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.alias):
                named = {node.name.split(".")[-1]}
            if named & ERROR_STATE_NAMES and id(node) not in allowed:
                found.append(f"{name}.py:{node.lineno}")
    return found


def test_error_state_is_set_only_in_run_simulation():
    assert error_state_settings(_package_trees()) == []


def test_error_state_check_reports_a_planted_setting():
    trees = {
        "fedsim": ast.parse(
            "import numpy as np\n"
            "def run_simulation():\n"
            "    with np.errstate(over='ignore'):\n"
            "        np.seterr(invalid='ignore')\n"
            "def aggregate():\n"
            "    np.seterr(over='ignore')\n"
        ),
        "model": ast.parse("from numpy import errstate\nimport numpy\nnumpy.errstate()\n"),
    }
    assert error_state_settings(trees) == ["fedsim.py:6", "model.py:1", "model.py:3"]


def _reads(call):
    """True for a call that reads a file: `open` with a mode that has no w,
    a or x (a mode that is not a literal counts as a read), or any
    `read_text` or `read_bytes`."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("read_text", "read_bytes")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return True
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax"))


def file_reads(trees):
    """Where a module reads a file outside `errors.read_input`."""
    found = []
    for name, tree in sorted(trees.items()):
        allowed = _nodes_of(tree, "read_input") if name == "errors" else set()
        found += [
            f"{name}.py:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed and _reads(node)
        ]
    return found


def test_files_are_read_only_in_read_input():
    assert file_reads(_package_trees()) == []


def test_file_read_check_reports_a_planted_read():
    trees = {
        "errors": ast.parse(
            "def read_input(path, kind, parse):\n"
            "    with open(path, 'rb') as fh:\n"
            "        return parse(fh)\n"
        ),
        "corpus": ast.parse(
            "from pathlib import Path\n"
            "def load(p):\n"
            "    Path(p).read_text()\n"
            "    open(p)\n"
            "    open(p, 'rb')\n"
            "    open(p, 'w')\n"
            "    open(p, mode='ab')\n"
            "    Path(p).read_bytes()\n"
            "    Path(p).write_text('x')\n"
        ),
    }
    assert file_reads(trees) == ["corpus.py:3", "corpus.py:4", "corpus.py:5", "corpus.py:8"]


# numpy is the package's one runtime dependency.
RUNTIME_PACKAGES = {"numpy", "gradlink"}


def foreign_imports(trees):
    """Where a module imports a package that is neither in the standard
    library nor in RUNTIME_PACKAGES, as `module.py:line package`."""
    found = []
    for name, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            found += [
                f"{name}.py:{node.lineno} {top}" for top in tops
                if top not in sys.stdlib_module_names and top not in RUNTIME_PACKAGES
            ]
    return found


def test_package_imports_only_the_standard_library_and_numpy():
    assert foreign_imports(_package_trees()) == []


def test_import_check_reports_a_planted_import():
    trees = {
        "attack": ast.parse(
            "import json, numpy as np\n"
            "from . import model\n"
            "from gradlink.traceio import TraceStore\n"
            "import scipy\n"
            "from scipy.optimize import linear_sum_assignment\n"
            "def f():\n"
            "    import os.path, sklearn.cluster\n"
        ),
    }
    assert foreign_imports(trees) == ["attack.py:4 scipy", "attack.py:5 scipy", "attack.py:7 sklearn"]


def _names_read(statement):
    """The names a statement reads, as a name or an attribute."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unused_definitions(trees, users):
    """The top-level functions and classes of `trees`, as `module.name`,
    whose name no other top-level statement of `trees` or of the syntax
    trees `users` reads. A definition's reads of its own name, as in a
    recursive call, do not count."""
    readers = {}  # name -> ids of the top-level statements that read it
    for tree in [*trees.values(), *users]:
        for statement in tree.body:
            for name in _names_read(statement):
                readers.setdefault(name, set()).add(id(statement))
    return [
        f"{module}.{node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not readers.get(node.name, set()) - {id(node)}
    ]


def test_every_definition_is_used_outside_the_tests():
    """The package's own code or the benchmark's must read each top-level
    function and class. The benchmark's files are read as text, so no
    bytecode is written beside them. `dp.clip_gradient` passes only
    because `perfbench/layers.py` wraps it: training clips in
    `model.loss_and_grads`, and its other callers are tests."""
    users = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(BENCHMARK.glob("*.py"))]
    assert users
    assert unused_definitions(_package_trees(), users) == []


def test_unused_definition_check_reports_a_planted_helper():
    trees = {
        "model": ast.parse(
            "def _segments(config):\n    return []\n"
            "def param_count(config):\n    return len(_segments(config))\n"
            "def check_tokens(config, ids):\n    pass\n"
            "def walk(n):\n    return walk(n - 1)\n"
            "class BatchPlan:\n    pass\n"
            "class Hooked:\n    pass\n"
        ),
        "fedsim": ast.parse(
            "from .model import BatchPlan, check_tokens\n"
            "import gradlink.model as model\n"
            "def run(plan: BatchPlan):\n    return model.param_count(plan)\n"
        ),
    }
    users = [ast.parse("import gradlink.model as model\nmodel.Hooked = model.Hooked\n")]
    assert unused_definitions(trees, users) == [
        "fedsim.run", "model.check_tokens", "model.walk"
    ]
