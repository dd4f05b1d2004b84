"""The library names perfbench/invoke.py patches by name still resolve.

invoke.py wraps the functions in its TRACED list with timers and reads a
state's level from ClusterState.__init__'s arguments, and its hooks read
LevelStats.iterations and .capped and ContextBank.left and .right, so
renaming one of these internals breaks the benchmark's traced runs and
nothing else.  The last two tests run invoke.py end to end, as the
benchmark does, in both of its modes.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tagsplit.cli import main
from tagsplit.splitter import ClusterState

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
LEVELS = 4


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


@pytest.fixture(scope="module")
def elman_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("elman") / "elman.txt"
    assert main(["generate-elman", "--sentences", "2000", "--seed", "1", "--out", str(path)]) == 0
    return path


def run_invoke(tmp_path, elman_text, *mode) -> dict:
    out = tmp_path / "out.json"
    cluster_args = [
        "--in", str(elman_text), "--top-words", "29", "--levels", str(LEVELS),
        "--method", "znrp", "--tags", str(tmp_path / "tags.tsv"),
        "--stats", str(tmp_path / "stats.csv"),
    ]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "invoke.py"), mode[0], str(out), *mode[1:],
         "--", *cluster_args],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def test_traced_cluster_run_reads_every_hook(tmp_path, elman_text):
    result = run_invoke(tmp_path, elman_text, "cluster", "--trace")
    assert result["rc"] == 0
    trace = result["trace"]
    assert trace["iterations"] > 0
    assert trace["bank_bytes"] > 0
    calls = trace["calls"]
    for name in ("splitter.state_build", "bigram.context_bank_build", "bigram.class_matrix"):
        assert calls[name] == LEVELS, name
    # once at the start and once at the end of each level
    assert calls["objective.acmi"] == 2 * LEVELS
    # a lone commit is one apply_move and one ContextBank.move
    commits = calls["splitter.commit"]
    assert commits > 0
    assert calls["bigram.apply_move"] == calls["bigram.context_bank_move"] == commits


def test_setup_run_times_each_repetition(tmp_path, elman_text):
    result = run_invoke(tmp_path, elman_text, "setup", "--reps", "1")
    assert len(result["setup_s"]) == len(result["raw_setup_s"]) == 1
    assert result["raw_setup_s"][0] > 0
