"""The repository's own checks that run as tools: tools/unused_names.py
lists every top-level name of src/advens that no command, demo, tool or
workload uses, and it must list none."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_package_name_is_used_outside_the_tests():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "unused_names.py")],
        capture_output=True, text=True, check=True,
    )
    assert run.stdout == ""
