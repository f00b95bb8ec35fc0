import os
import subprocess
import sys
from pathlib import Path

import tomonoise

ROOT = Path(__file__).resolve().parents[1]


def test_phase_density_scaling_help():
    # the script has no CLI equivalent, so it is run here to keep it from rotting unseen
    env = dict(os.environ, PYTHONPATH=str(Path(tomonoise.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "phase_density_scaling.py"), "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--eta-list" in proc.stdout
