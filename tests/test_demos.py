"""Every script in demos/ runs to completion against the package in src/ and
prints what it printed when its digest was pinned."""

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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    # -W error fails the demo on any warning, as the suite's own policy
    # would; -X dev adds the interpreter's debug checks
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN_STDOUT[demo.name]
