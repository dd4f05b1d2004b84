"""The library names perfbench/invoke.py patches by name still resolve.

invoke.py wraps the functions in its TRACED list with timers and reads a
state's level from ClusterState.__init__'s arguments, so renaming one of
these internals breaks the benchmark's traced runs and nothing else.
"""

import importlib.util
import inspect
from pathlib import Path

from tagsplit.splitter import ClusterState

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_invoke(monkeypatch):
    # invoke.py imports its sibling hostclock as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_invoke", PERFBENCH / "invoke.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    traced = load_invoke(monkeypatch).TRACED
    assert traced
    assert [(owner, attr) for owner, attr, _ in traced if not hasattr(owner, attr)] == []


def test_level_is_the_third_argument_of_a_state():
    # Tracer._enter_level reads args[3] of ClusterState.__init__ (self first)
    params = list(inspect.signature(ClusterState.__init__).parameters)
    assert params[3] == "level"
