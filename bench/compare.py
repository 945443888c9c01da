"""Summarise or compare benchmark result files.

A result file holds one result object per line: the last line that
``bench/run.py`` prints, appended once per run (other lines are skipped).

    python3 bench/compare.py BASE.jsonl            # spread of one set of runs
    python3 bench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

For each metric it prints the median and quartiles, and the spread: the
distance between the quartiles as a share of the median. With two files it
adds the change of the median, signed so that positive is worse, and judges
it against the metric's bound in BENCHMARK.json:

- ``worse``: the median got worse by more than the bound;
- ``unresolved``: the spread of BASE exceeds the bound, so the runs cannot
  tell, unless every NEW run is better than every BASE run;
- ``ok``: otherwise.

When both files hold the same number of runs, made in alternating pairs,
``wins`` counts the pairs where NEW is better (ties count for neither).
A gain may be claimed only when NEW wins at least nine tenths of the pairs
and the medians differ by more than BASE's own spread.
"""

import json
import os
import statistics
import sys


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                obj = json.loads(line)
                if "metrics" in obj:
                    runs.append(obj)
    if not runs:
        raise SystemExit(f"error: no result lines in {path}")
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec_path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(p) for p in argv]
    for runs, path in zip(sets, argv):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{path}: {len(runs)} runs, {failed}/{attempted} operations failed")
    names = [n for n in sets[0][0]["metrics"] if all(n in r["metrics"] for s in sets for r in s)]
    header = f"{'metric':52s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}"
    if len(sets) == 2:
        header += f" {'new median':>12s} {'change':>8s} {'wins':>6s}  verdict"
    print(header)
    for name in names:
        info = meta.get(name, {})
        bound = info.get("bound")
        sign = 1.0 if info.get("better", "lower") == "lower" else -1.0
        base = [r["metrics"][name]["value"] for r in sets[0]]
        med, q1, q3, spread = summary(base)
        row = f"{name:52s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.1%} "
        row += f"{bound:6.2f}" if bound is not None else f"{'-':>6s}"
        if len(sets) == 2:
            new = [r["metrics"][name]["value"] for r in sets[1]]
            new_med = statistics.median(new)
            change = sign * (new_med - med) / abs(med) if med else 0.0
            wins = "-"
            if len(new) == len(base):
                wins = f"{sum(sign * (n - b) < 0 for n, b in zip(new, base))}/{len(base)}"
            verdict = "-"
            if bound is not None:
                all_better = max(sign * v for v in new) < min(sign * v for v in base)
                if spread > bound and not all_better:
                    verdict = "unresolved"
                elif change > bound:
                    verdict = "worse"
                else:
                    verdict = "ok"
            row += f" {new_med:12.6g} {change:+8.1%} {wins:>6s}  {verdict}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
