"""Every script in demos/ runs to completion against the package in src/ and
prints what it printed when its digest was pinned, and README's library
quick start runs and prints what it says it prints."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN_STDOUT = json.loads(Path(__file__).with_name("golden_demos.json").read_text())


def test_every_demo_has_a_golden_entry():
    assert sorted(GOLDEN_STDOUT) == [demo.name for demo in DEMOS]


def run_python(args: list[str], cwd: Path) -> bytes:
    """The standard output of a Python run of args against src/, which must
    exit 0.  -W error fails it on any warning, as the suite's own policy
    would; -X dev adds the interpreter's debug checks."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    stdout = run_python([str(demo)], tmp_path)
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN_STDOUT[demo.name]


def test_readme_quick_start_prints_joules_that_agree(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    # the block prints the recovered and the true joules of its one window
    assert "simulate_session" in code
    recovered, true = map(float, run_python(["-c", code], tmp_path).split())
    assert true == pytest.approx(12.0) and abs(recovered - true) <= 0.01 * true
