"""The repository's own checks that run as tools: tools/unused_names.py
lists every top-level name of src/advens that no command, demo, tool or
workload uses, and it must list none; the other tools must at least
import what they use and parse their options."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_package_name_is_used_outside_the_tests():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "unused_names.py")],
        capture_output=True, text=True, check=True,
    )
    assert run.stdout == ""


@pytest.mark.parametrize("tool", ["artifact_hashes.py", "bench_pairs.py"])
def test_each_tool_prints_its_help(tool):
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", tool), "--help"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage:")
