"""scripts/run_corpus_checks.py runs every checker over the corpus, the
left-handed cowreath and wreath checks included, and exits 0 only when each
report has its expected status."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_run_corpus_checks():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_corpus_checks.py")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ("0 unexpected failures, 0 broken twins unexpectedly passing"
            in proc.stdout)
