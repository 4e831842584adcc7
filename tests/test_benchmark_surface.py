"""The names the benchmark reaches in the package still resolve.

`perfbench/tracer.py` rebinds the functions in its `TARGETS` by name, and
`perfbench/worker.py` calls `qnary.<name>` directly, so removing or renaming
one breaks the benchmark.  Both files are read here, never changed.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import qnary

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer(monkeypatch):
    # executed from source, without leaving bytecode beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert len(tracer.TARGETS) == 15
    for target in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(target.module), target.attr)), target


def test_every_name_the_worker_calls_is_exported():
    names = set(re.findall(r"\bQ\.(\w+)", (PERFBENCH / "worker.py").read_text()))
    assert "monte_carlo_coefficient_means" in names
    assert sorted(name for name in names if not hasattr(qnary, name)) == []
    # both files read the coefficient array of char_poly_direct as `.a`
    assert qnary.CharPolyCoefficients.__slots__ == ("a",)
