import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize(
    "script", ["demo_solve_3sat.py", "demo_uncompute.py", "demo_spectra.py"]
)
def test_demo_runs(script, tmp_path):
    extra = [str(tmp_path)] if script == "demo_spectra.py" else []
    result = subprocess.run(
        [sys.executable, str(DEMOS / script), *extra],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
