"""The shipped examples run end to end and exit 0.

Each example is a self-checking story (it asserts inside), so running it
as a subprocess exercises the library boundary the way a user meets it.
Only the examples that finish in a few seconds run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "ingestion_at_scale",
    "accountability_end_to_end",
])
def test_example_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-4000:]
