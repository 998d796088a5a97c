"""The demos print exactly their golden outputs in ``tests/golden``.

Each demo runs in its own interpreter with ``src`` on the path, so a change
that moves any printed byte fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, check=True, timeout=120
    ).stdout
    assert out == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_bytes()
