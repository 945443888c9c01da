"""Print the sha256 of every artifact the benchmark's CLI calls write.

For each workload of bench/workloads.py and each seed given, this runs
``train``, ``eval``, ``transfer``, ``detect`` and ``surface`` in a temporary
directory, then one ``transfer`` over the checkpoints of the first two
seeds, and prints one ``<workload>-<seed>/<file> <sha256>`` line per
artifact (``<workload>-pair/`` for the two-checkpoint transfer). The bytes
of an artifact do not depend on the directory it was written in, so two
source trees compare with diff:

    python tools/artifact_hashes.py 0 1 > after.txt
    (cd ../parent && python tools/artifact_hashes.py 0 1) > before.txt
    diff before.txt after.txt

The package is imported from the src/ of the tree the script sits in, so
each tree compared needs its own copy under tools/ (copy this file there
in a tree that predates it). bench/ is only read.
"""
import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.dont_write_bytecode = True  # nothing written under bench/
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from advens import cli  # noqa: E402
import workloads  # noqa: E402


def _call(argv):
    """One CLI call, its printed paths kept off this script's output."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"advens {' '.join(argv)} exited {rc}")


def _hashes(tag, out_dir):
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            print(f"{tag}/{name} {hashlib.sha256(f.read()).hexdigest()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="workload seeds (the two-checkpoint transfer takes the first two)")
    args = parser.parse_args(argv)
    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as work:
            runs = []
            for seed in args.seeds:
                path, cfg = workloads.write_inputs(workload, seed, os.path.join(work, f"seed{seed}"))
                for sub in workloads.SUBCOMMANDS:
                    _call(workloads.cli_argv(sub, path, cfg["out"]))
                _hashes(f"{name}-{seed}", cfg["out"])
                runs.append((path, os.path.join(cfg["out"], "ensemble.json")))
            if len(runs) >= 2:
                pair = os.path.join(work, "pair")
                (path, first), (_, second) = runs[:2]
                _call(["transfer", "--config", path, "--checkpoint", first, "--checkpoint", second, "--out", pair])
                _hashes(f"{name}-pair", pair)


if __name__ == "__main__":
    main()
