"""The numpy boundary: `qnary._kernels` is the package's one numpy import.

The numpy-free paths never load it, and the paths that need arrays load it
before numpy, so importing the package compiles no array kernel.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=60)


def import_log(*argv):
    """(depth, module) for each import of `python -X importtime -m qnary argv`,
    in the order they end: a module nested in another's import is listed
    before it, one level deeper."""
    proc = run_fresh("-X", "importtime", "-m", "qnary", *argv)
    assert proc.returncode == 0, proc.stderr
    log = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            name = line.rsplit("|", 1)[1]
            if not name.strip().startswith("imported package"):
                log.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip()))
    return log


EXACT_SWEEP_PROBE = """
import sys
import qnary
inst = qnary.build_instance(2, 4, 3)
values = [qnary.exact_grouped_variance(inst, n) for n in range(17)]
print(len(values), "numpy" in sys.modules, "qnary._kernels" in sys.modules)
"""


def test_exact_sweep_loads_neither_numpy_nor_the_kernels():
    # the exact-sweep graph's DP stays in pure Python, so the kernels are never compiled
    proc = run_fresh("-c", EXACT_SWEEP_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["17", "False", "False"]


def test_numpy_is_imported_inside_the_kernels():
    # the determinant needs arrays: numpy's first import is nested in that of
    # qnary._kernels, so the kernels were compiled before numpy loaded
    log = import_log("coeffs", "--q", "2", "--m", "5", "--k", "3.5", "--method", "det")
    names = [name for _, name in log]
    first = next(i for i, name in enumerate(names) if name.split(".")[0] == "numpy")
    kernels = names.index("qnary._kernels")
    assert first < kernels
    assert all(depth > log[kernels][0] for depth, _ in log[first:kernels])


def test_only_the_kernels_import_numpy():
    importers = []
    for path in sorted((SRC / "qnary").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "numpy" for module in modules):
                importers.append(path.name)
    assert sorted(set(importers)) == ["_kernels.py"]
