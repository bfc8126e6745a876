"""Every script in demos/ runs to completion and prints what it printed
when its output was pinned (sha256 of stdout)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_lipschitz_distance":
        "b6e549db2d10316bd86b9767e49a690a9f063517b2882824b631e32cef1f7ed2",
    "02_optimal_maps_and_train_tracks":
        "4877d1c413c83a4141004cdd3c2c22045e0f94738b452d681ff328692d0c52b7",
    "03_folding_path":
        "fe338e9f26b1145c4b97015f6d2bd29c08127de201646b49ff6b788afde6d0fb",
    "04_whitehead_simplicity":
        "4307c4eb5038eb9a409eb07e8296d60dbb90cd4bd6deec63a502ea33c4cb65cd",
    "05_stallings_subgroups":
        "226bef22fce034c38280674f357e37d97f074c2208f687a111d10dc9ea8bc1fe",
    # re-pinned when seeds stopped suppressing standard handles: only the
    # line "ball: 283 factors within core bound 8" changed, to 326
    "06_factor_graph_projection":
        "61674ab5cbb950005c9a7a8dace3b365cf169025f3572e6733954e32533754c1",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
