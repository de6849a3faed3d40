"""The benchmark's analyze digest, checked on every test run.

`perfbench/run.py --workload analyze` rewrites generated treebanks under all
seven transformations and hashes what it writes. Its sentences are longer
than the synthetic test corpus's and carry 3-token names, so the digest pins
rewrites that no other test covers. The benchmark itself fails a run whose
seed-1 digest differs from `perfbench/reference.json`; this test runs it
briefly (about 4 s) and checks both.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_analyze_digest_matches_the_reference():
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "analyze",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=False)
    assert run.returncode == 0, run.stdout
    lines = run.stdout.strip().splitlines()
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)["analyze"]
    assert "digest: %s" % reference in lines, run.stdout
    assert json.loads(lines[-1])["correct"] is True, run.stdout
