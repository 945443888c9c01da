"""Run the benchmark in alternating pairs on a parent tree and this tree.

    python tools/bench_pairs.py PARENT_TREE WORKLOAD PAIRS FIRST_SEED

Pair i runs ``bench/run.py --workload WORKLOAD --seed FIRST_SEED+i
--seconds 25`` once in each tree, in a fresh interpreter: the parent first
in even pairs, this tree first in odd ones, so that neither side always
runs on the warmer or the cooler host. Each run's result line (the last
line bench/run.py prints), after its metadata line (the line before), is
appended to ``<WORKLOAD>_parent.jsonl`` or ``<WORKLOAD>_change.jsonl`` in
the current directory; compare.py reads only the result lines. Then
``bench/compare.py`` of this tree prints its table of the two files, whose
``wins`` column counts the pairs this tree won. bench/ is only read and run.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 25


def _run(tree, workload, seed):
    """The metadata and result lines of one bench/run.py run in tree; a
    run that fails stops the pairs."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS)]
    run = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2 or not lines[-1].startswith("{"):
        sys.stderr.write(run.stderr)
        raise SystemExit(f"bench/run.py in {tree} at seed {seed} exited {run.returncode}")
    return lines[-2:]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent's source tree")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("first_seed", type=int)
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    if trees["parent"] == ROOT or not os.path.isfile(os.path.join(trees["parent"], "bench", "run.py")):
        parser.error(f"{args.parent} is no other tree with a bench/run.py")
    if args.pairs < 1:
        parser.error("pairs must be at least 1")
    files = {side: os.path.abspath(f"{args.workload}_{side}.jsonl") for side in trees}
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            lines = _run(trees[side], args.workload, seed)
            with open(files[side], "a") as f:
                f.write("\n".join(lines) + "\n")
            print(f"pair {i + 1}/{args.pairs}, seed {seed}: {side} done", flush=True)
    return subprocess.run([sys.executable, os.path.join(ROOT, "bench", "compare.py"),
                           files["parent"], files["change"]]).returncode


if __name__ == "__main__":
    sys.exit(main())
