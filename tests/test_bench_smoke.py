"""The oracle-check benchmark runs end to end on the oracles as they are.

Its check holds the RK4 loops to a 16x error fall at twice the steps and
proper_acceleration to the closed form, so a broken oracle fails here too.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_oracle_check_quick_run():
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--quick",
         "--workload", "oracle-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr
