"""Smoke tests for the benchmark itself, at reduced size (`--quick`).

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as perfbench  # noqa: E402

perfbench.import_program()

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(tmp_path, *args, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), *args,
           "--out-dir", str(tmp_path)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest(proc):
    line = next(l for l in proc.stdout.splitlines() if "counters_digest:" in l)
    return line.split(":", 1)[1].strip()


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(perfbench.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", perfbench.WORKLOAD_NAMES)
def test_quick_workload_untraced_and_traced(tmp_path, workload):
    plain = _bench(tmp_path, "--workload", workload, "--seed", "3", "--quick",
                   "--seconds", "0", "--trace", "0")
    result = _result(plain)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0

    traced = _bench(tmp_path, "--workload", workload, "--seed", "3", "--quick",
                    "--trace", "1")
    result = _result(traced)
    # correct covers the per-run untraced-vs-traced counter comparison
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # the traced invocation's untraced counters equal the closed loop's
    assert _digest(traced) == _digest(plain)
    assert os.path.getsize(tmp_path / f"spans-{workload}-seed3.jsonl") > 0


def test_failed_output_check_names_the_run(monkeypatch, capsys, tmp_path):
    import bincsp.core
    monkeypatch.setattr(bincsp.core, "solution_check", lambda problem, sol: False)
    code = perfbench.main(["--workload", "rlfa-intensional", "--quick",
                           "--seconds", "0", "--out-dir", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "SAT solution fails solution_check" in captured.err
    assert "/MHAC-2001" in captured.err
    assert json.loads(captured.out.strip().splitlines()[-1])["correct"] is False


def test_fails_without_the_program(tmp_path):
    """Beside BENCHMARK.json and its own files only, the command must fail
    without printing a result."""
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _bench(tmp_path, "--workload", "fc-deep", "--seconds", "1",
                  cwd=bare, script=str(bare / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
