"""Benchmark of the advens command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload train-cce-dm --seed 0 --seconds 25 --trace 0

One client runs a closed loop in this process: each CLI call goes through
``advens.cli.main`` and starts after the previous one returns. A pass is the
calls ``train, eval, transfer, detect, surface``, where the analysis calls
repeat a fixed number of times per workload. Passes rotate over the
workload's training seeds, all derived from ``--seed``, and repeat until
``--seconds`` have gone by and every seed has run, the first one twice.
Every call is one operation; it fails on a non-zero exit, a missing or
malformed artifact, an artifact whose bytes differ from the first pass on
its seed, or a quality floor missed.

Timings are wall seconds rescaled to a nominal host speed by the reference
loops of speed.py, which a timer signal runs every 0.1 s through the whole
run; each time is divided by the speed factor of the samples within a second
of it. The metadata line keeps the raw wall-time medians and the run's mean
speed factors.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics. The
last line of standard output is the result object; the line before it holds
the run metadata. See README.md in this directory.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# Same on every commit so that timings compare; at most the core count.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
SETUP_REPEATS = 9
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = ".bench_work"  # relative to ROOT; listed in .gitignore


def _median(values):
    return statistics.median(values) if values else 0.0


def _setup_once(workloads, workload, seed, work):
    """Cold start of the CLI in a fresh interpreter, then the inputs.
    Returns ((start, end), inputs)."""
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH="src")
    subprocess.run([sys.executable, "-c", "import advens.cli"], cwd=ROOT, env=env,
                   check=True, timeout=120)
    inputs = workloads.write_all_inputs(workload, seed, work)
    return (start, time.perf_counter()), inputs


def _call(cli, argv):
    """Run one CLI call in-process; returns (exit code, (start, end))."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # an uncaught error is a failed operation, not a crash
        traceback.print_exc()
        rc = 1
    return rc, (start, time.perf_counter())


def _check_artifacts(workloads, sub, cfg, reference):
    """Problems with the call's artifacts, and their total size in bytes.
    reference maps artifact name to the digest of its first version."""
    problems, size = [], 0
    for name in workloads.artifacts(sub, cfg):
        path = os.path.join(cfg["out"], name)
        try:
            workloads.parse_artifact(path)
            with open(path, "rb") as f:
                blob = f.read()
        except (OSError, ValueError) as e:
            problems.append(f"{name}: {e}")
            continue
        size += len(blob)
        digest = hashlib.sha256(blob).hexdigest()
        if reference.setdefault(name, digest) != digest:
            problems.append(f"{name}: bytes differ from the first pass on this seed")
    return problems, size


def _run_pass(ctx, traced, seed_index):
    """One pass of CLI calls on one training seed's inputs."""
    workloads, cli, tracer, workload = ctx["workloads"], ctx["cli"], ctx["tracer"], ctx["workload"]
    config_path, cfg = ctx["inputs"][seed_index]
    reference = ctx["reference"].setdefault(seed_index, {})
    shutil.rmtree(cfg["out"], ignore_errors=True)
    if traced:
        tracer.install()
    ops = []
    try:
        for sub in workloads.pass_calls(workload):
            op_id = ctx["next_op"]
            ctx["next_op"] += 1
            tracer.run_id = op_id
            rc, span = _call(cli, workloads.cli_argv(sub, config_path, cfg["out"]))
            problems, size = [f"exit code {rc}"], 0
            if rc == 0:
                problems, size = _check_artifacts(workloads, sub, cfg, reference)
            ops.append({"id": op_id, "sub": sub, "span": span, "s": span[1] - span[0],
                        "bytes": size, "problems": problems})
    finally:
        if traced:
            tracer.uninstall()
    record = {"traced": traced, "seed_index": seed_index, "ops": ops, "quality": None,
              "clamp_share": 0.0}
    if any(op["problems"] for op in ops):
        return record
    record["quality"] = workloads.quality(workload, cfg["out"])
    record["clamp_share"] = workloads.adp_clamp_share(cfg, cfg["out"])
    by_sub = {op["sub"]: op for op in ops}
    source = "train" if workload.quality_source == "report" else "eval"
    for metric, floor in workload.floors.items():
        value = record["quality"][metric]
        if value < floor:
            op = by_sub["detect" if metric == "detect_auc" else source]
            op["problems"].append(f"{metric} {value} below floor {floor}")
    return record


def _rescaled(ctx, sub, span):
    kind = ctx["workloads"].speed_kind(ctx["workload"], sub)
    return (span[1] - span[0]) / ctx["speed"].factor(kind, *span)


def _timing_medians(ctx, setup_spans, ops):
    """Median wall seconds, and median rescaled seconds, of the set-ups and of
    each subcommand's calls. Each time is rescaled by the host speed around it."""
    spans = {"setup": list(setup_spans)}
    for op in ops:
        spans.setdefault(op["sub"], []).append(op["span"])
    wall, rescaled = {}, {}
    for sub in ("setup", "train", "eval", "transfer", "detect"):
        wall[f"{sub}_s"] = _median([t1 - t0 for t0, t1 in spans[sub]])
        rescaled[f"{sub}_s"] = _median([_rescaled(ctx, sub, span) for span in spans[sub]])
    return wall, rescaled


def _end_to_end(passes, timings, ops, n_seeds):
    failed = sum(1 for op in ops if op["problems"])
    values = dict(timings)
    values.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_pct": 100.0 * (len(ops) - failed) / len(ops),
    })
    # quality is deterministic per training seed: one value per seed, then the
    # mean, which spreads less across runs than the median of so few values
    per_seed = {}
    for p in passes:
        per_seed.setdefault(p["seed_index"], p["quality"])
    for metric in ("nat_acc_pct", "rob_acc_pct", "detect_auc"):
        values[metric] = statistics.fmean(
            (per_seed.get(k) or {}).get(metric, 0.0) for k in range(n_seeds)
        )
    return values


def _per_layer(ctx, passes):
    tracer = ctx["tracer"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]

    def pass_seconds(p):
        return sum(_rescaled(ctx, op["sub"], op["span"]) for op in p["ops"])

    per_pass = [tracer.stats({op["id"] for op in p["ops"]}) for p in traced]
    examples = [sum(tracer.attack_examples[op["id"]] for op in p["ops"]) for p in traced]
    successes = sum(tracer.attack_successes[op["id"]] for p in traced for op in p["ops"])
    values = {
        "attacks.examples": _median(examples),
        "attacks.success_share": successes / sum(examples) if sum(examples) else 0.0,
        "training.adp_clamp_share": passes[-1]["clamp_share"],
        "cli.bytes_written": _median([sum(op["bytes"] for op in p["ops"]) for p in traced]),
        "trace.spans": _median([sum(s["calls"] for s in st.values()) for st in per_pass]),
        "trace.overhead_pct": 100.0 * (
            _median([pass_seconds(p) for p in traced]) / _median([pass_seconds(p) for p in untraced])
            - 1.0
        ),
    }
    return values, per_pass


def _layer_value(name, values, per_pass, factor):
    if name in values:
        return values[name]
    span, _, stat = name.rpartition(".")
    if stat not in ("calls", "s", "self_s"):
        raise KeyError(name)
    value = _median([st[span][stat] if span in st else 0 for st in per_pass])
    return value if stat == "calls" else value / factor


def _metadata(measured_s, speed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = os.path.join(ROOT, "src", "advens")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                lines += sum(1 for _ in f)
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_advens_lines": lines,
        "measured_s": measured_s,
        "speed_factors": {kind: speed.factor(kind) for kind in speed.samples},
        "speed_samples": len(speed.starts),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "advens", "cli.py")) or not os.path.isfile(spec_path):
        print(f"error: {ROOT} holds no advens source tree or no BENCHMARK.json", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, src)
    import advens.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: imported advens from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import speed as speed_reference
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)

    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK_DIR, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    speed = speed_reference.SpeedReference()
    speed.start()
    try:
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            span, inputs = _setup_once(workloads, workload, args.seed, work)
            setup_spans.append(span)

        ctx = {
            "workloads": workloads, "cli": cli, "tracer": tracing.Tracer(), "workload": workload,
            "inputs": inputs, "reference": {}, "next_op": 0, "speed": speed,
        }
        # Untraced runs rotate over the training seeds; traced runs alternate
        # untraced and traced passes on the first seed, so that the two compare.
        # Every run repeats its first seed at least once, so that the byte
        # comparison with the first pass always runs.
        n_seeds = 1 if args.trace else len(inputs)
        min_passes = max(MIN_PASSES, n_seeds + 1)
        passes = []
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
            k = len(passes)
            passes.append(_run_pass(ctx, traced=bool(args.trace) and k % 2 == 1,
                                    seed_index=k % n_seeds))
        measured = time.perf_counter() - start
    finally:
        speed.stop()
    ops = [op for p in passes for op in p["ops"]]
    for op in ops:
        for problem in op["problems"]:
            print(f"failed: {op['sub']} (operation {op['id']}): {problem}", file=sys.stderr)
    failed = sum(1 for op in ops if op["problems"])

    wall, rescaled = _timing_medians(ctx, setup_spans, ops)
    if args.trace:
        values, per_pass = _per_layer(ctx, passes)
        factor = speed.factor(workloads.speed_kind(workload, "eval"))
        metrics = {m["name"]: {"value": _layer_value(m["name"], values, per_pass, factor),
                               "unit": m["unit"]} for m in spec["per_layer"]}
        ctx["tracer"].write(os.path.join(work, "spans.csv"))
    else:
        values = _end_to_end(passes, rescaled, ops, n_seeds)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    meta = _metadata(measured, speed)
    meta["wall_medians_s"] = wall
    meta.update(workload=workload.name, seed=args.seed, trace=args.trace, passes=len(passes))
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    timings = [{"traced": p["traced"], "seed_index": p["seed_index"],
                "calls": [[op["sub"], op["s"]] for op in p["ops"]]} for p in passes]
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"meta": meta, "result": result, "passes": timings}, f, indent=2)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
