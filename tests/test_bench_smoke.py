"""Each benchmark workload runs end to end on the program as it is.

grid-export and orbit-export check the CLI's tables and figures (global_null,
thermal and the text kernels) against extended-precision values; oracle-check
holds the RK4 loops to a 16x error fall at twice the steps and
proper_acceleration to the closed form, so a broken oracle fails here too.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["grid-export", "orbit-export", "oracle-check"])
def test_quick_run(workload):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--quick",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr
