"""Tracer completeness: every wrapped function's traced call count must equal
cProfile's count for the original function over the same calls. A binding the
wrappers missed (say a ``from x import y`` copy the tracer did not replace)
reaches the original directly, so cProfile counts it and the tracer does not.

Run from the root of a checkout: ``python3 -m pytest -q bench/tests``.
"""

import cProfile
import json
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import advens.cli as cli  # noqa: E402
from advens import data  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _traced_and_profiled(argvs):
    """Run CLI calls under the tracer and cProfile at once; returns
    {target: (traced calls, cProfile calls)}."""
    tracer = tracing.Tracer()
    tracer.install()
    profile = cProfile.Profile()
    try:
        profile.enable()
        for argv in argvs:
            assert cli.main(argv) == 0, argv
        profile.disable()
    finally:
        tracer.uninstall()
    counted = pstats.Stats(profile).stats
    traced = tracer.stats({tracer.run_id})
    out = {}
    for mod_name, fn_name in tracing.TARGETS:
        code = getattr(sys.modules[f"advens.{mod_name}"], fn_name).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        name = f"{mod_name}.{fn_name}"
        calls = sum(v["calls"] for k, v in traced.items() if k == name or k.startswith(name + "."))
        out[name] = (calls, counted[key][1] if key in counted else 0)
    return out


def _pipeline(config_path, out):
    return [workloads.cli_argv(sub, config_path, out) for sub in workloads.SUBCOMMANDS]


def test_every_target_traced_on_a_small_pipeline(tmp_path):
    # small enough to run in seconds, yet it reaches every traced function:
    # IDX input, CCE cross terms, PGD and SPSA, a two-member partition
    ds = data.gen_blobs(seed=0, n_per_class=20, num_classes=3, dim=8, separation=5.0)
    images, labels = str(tmp_path / "images.idx"), str(tmp_path / "labels.idx")
    data.save_idx(ds, images, labels, rows=2, cols=4)
    out = str(tmp_path / "out")
    cfg = {
        "dataset": {"idx_images": images, "idx_labels": labels},
        "model": {"hidden": [8], "members": 2},
        "method": {"name": "DM"},
        "train": {"epochs": 2, "batch_size": 20, "lr": 0.03,
                  "attack": {"family": "pgd", "steps": 3, "epsilon": 0.05, "eta": 0.02}},
        "eval_attacks": {
            "pgd": {"family": "pgd", "steps": 3, "epsilon": 0.05, "eta": 0.02},
            "spsa": {"family": "spsa", "steps": 2, "epsilon": 0.05, "eta": 0.02,
                     "spsa_samples": 2},
        },
        "surface": {"radius_steps": 2},
        "out": out,
        "seed": 0,
    }
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as f:
        json.dump(cfg, f)
    counts = _traced_and_profiled(_pipeline(config_path, out))
    assert all(profiled > 0 for _, profiled in counts.values()), counts
    assert all(traced == profiled for traced, profiled in counts.values()), counts


def test_train_cce_dm_counts_match_cprofile(tmp_path):
    workload = workloads.WORKLOADS["train-cce-dm"]
    config_path, cfg = workloads.write_inputs(workload, 0, str(tmp_path))
    counts = _traced_and_profiled([workloads.cli_argv("train", config_path, cfg["out"])])
    assert counts["nn.forward_cached"][1] > 0
    assert all(traced == profiled for traced, profiled in counts.values()), counts
