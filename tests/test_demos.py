"""Every script under demos/ runs to completion against the source tree, and
prints what its golden file under demos/golden/ holds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "demos" / "golden"
# these demos print timings, so their output is not pinned
TIMED = {"05_benchmark_matrix.py"}


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    # the demos clean up the temporary directories they make
    assert not list(tmp_path.glob("bincsp_bench_*"))
    if demo.name not in TIMED:
        assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()
