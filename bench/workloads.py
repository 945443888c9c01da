"""Workload definitions for the advens benchmark.

Every workload runs the same five-call pipeline through the command line,
``train -> eval -> transfer -> detect -> surface``, on inputs built from the
benchmark seed. The workloads differ in shape, and so in which layer is busy:

- ``train-cce-dm``: collaborative training in detection mode on the shape of
  acceptance criterion 8. Batches of 30 rows make it dispatch-bound.
- ``train-adp3``: the ADP baseline with three members, so the ensemble-target
  attack and the log-det diversity regulariser dominate.
- ``analyze-idx``: a short training run on a 10,000-row IDX file, then the
  analysis subcommands, where every call works on large arrays.

See README.md in this directory for the reasons behind each size.
"""

import csv
import json
import os
from dataclasses import dataclass

# Evaluation attack of criterion 8 (PGD-25, eps 0.05, eta eps/8); also used by
# train-adp3 so that the two detection AUCs are measured the same way.
_PGD25 = {"family": "pgd", "steps": 25, "epsilon": 0.05, "eta": 0.05 / 8}


@dataclass(frozen=True)
class Workload:
    name: str
    analysis_repeats: int  # analysis calls per pass; short calls repeat for steadier medians
    train_seeds: int  # training seeds per run; quality is their mean
    array_bound: bool  # analysis calls work on large arrays; picks their speed reference
    build: object  # (seed, work_dir) -> config dict; writes any input files
    quality_source: str  # "report" (last training epoch) or "eval_pgd" (en row)
    floors: dict  # quality metric -> lowest accepted value


def _config(seed, work_dir, dataset, model, method, train, eval_attacks, surface=None):
    cfg = {
        "dataset": dataset,
        "model": model,
        "method": method,
        "train": train,
        "eval_attacks": eval_attacks,
        "out": os.path.join(work_dir, "out"),
        "seed": seed,
    }
    if surface:
        cfg["surface"] = surface
    return cfg


def _build_cce_dm(seed, work_dir):
    return _config(
        seed,
        work_dir,
        dataset={"generator": "blobs", "n_per_class": 100, "num_classes": 3, "dim": 8,
                 "separation": 10.0},
        model={"hidden": [32], "members": 2},
        method={"name": "DM"},
        train={"epochs": 60, "batch_size": 30, "lr": 0.03,
               "attack": {"family": "pgd", "steps": 10, "epsilon": 0.05, "eta": 0.008}},
        eval_attacks={"pgd": dict(_PGD25, seed=seed)},
    )


def _build_adp3(seed, work_dir):
    # ADP needs num_classes - 1 >= members: with 3 classes the 3x3 Gram matrix
    # of 2-d rows is singular and the regulariser loop barely runs.
    return _config(
        seed,
        work_dir,
        dataset={"generator": "blobs", "n_per_class": 60, "num_classes": 5, "dim": 8,
                 "separation": 3.0},
        model={"hidden": [24], "members": 3},
        method={"name": "ADP"},
        train={"epochs": 40, "batch_size": 128, "lr": 0.03,
               "attack": {"family": "pgd", "steps": 7, "epsilon": 0.05, "eta": 0.02}},
        eval_attacks={"pgd": dict(_PGD25, seed=seed)},
    )


def _build_analyze_idx(seed, work_dir):
    from advens import data

    # eps 0.01, not 0.05: at d=64 eps 0.05 collapses RM training to chance,
    # the entropy scores all tie and the ROC has two points.
    ds = data.gen_blobs(seed=seed, n_per_class=1000, num_classes=10, dim=64, separation=3.0)
    images = os.path.join(work_dir, "images.idx")
    labels = os.path.join(work_dir, "labels.idx")
    data.save_idx(ds, images, labels, rows=8, cols=8)
    return _config(
        seed,
        work_dir,
        dataset={"idx_images": images, "idx_labels": labels},
        model={"hidden": [64], "members": 2},
        method={"name": "RM"},
        # lr 0.02, not 0.03: at 0.03 about one seed in seven collapses to chance
        train={"epochs": 2, "batch_size": 100, "lr": 0.02,
               "attack": {"family": "pgd", "steps": 3, "epsilon": 0.01, "eta": 0.0025}},
        eval_attacks={
            "pgd": {"family": "pgd", "steps": 10, "epsilon": 0.01, "eta": 0.0025, "seed": seed},
            "spsa": {"family": "spsa", "steps": 5, "epsilon": 0.01, "eta": 0.0025,
                     "spsa_samples": 8, "seed": seed},
        },
        surface={"radius_steps": 20},
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-cce-dm", 4, 5, False, _build_cce_dm, "report",
                 {"nat_acc_pct": 95.0, "detect_auc": 0.7}),
        Workload("train-adp3", 4, 7, False, _build_adp3, "report", {"nat_acc_pct": 40.0}),
        Workload("analyze-idx", 1, 1, True, _build_analyze_idx, "eval_pgd",
                 {"nat_acc_pct": 50.0}),
    )
}

SUBCOMMANDS = ("train", "eval", "transfer", "detect", "surface")


def pass_calls(workload):
    """Subcommands of one pass: train, then the analysis calls on its checkpoint."""
    return SUBCOMMANDS[:1] + SUBCOMMANDS[1:] * workload.analysis_repeats


def write_inputs(workload, seed, work_dir):
    """Build the inputs of one training seed; returns (config path, config)."""
    os.makedirs(work_dir, exist_ok=True)
    cfg = workload.build(seed, work_dir)
    path = os.path.join(work_dir, "config.json")
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2)
    return path, cfg


def write_all_inputs(workload, seed, work_dir):
    """Inputs for each of the workload's training seeds, derived from the
    benchmark seed; each lives in its own subdirectory."""
    n = workload.train_seeds
    return [
        write_inputs(workload, seed * n + k, os.path.join(work_dir, f"seed{seed * n + k}"))
        for k in range(n)
    ]


def speed_kind(workload, sub):
    """Which loop of speed.py a call's timing is rescaled by."""
    return "array" if workload.array_bound and sub in SUBCOMMANDS[1:] else "dispatch"


def cli_argv(sub, config_path, out_dir):
    argv = [sub, "--config", config_path]
    if sub != "train":
        argv += ["--checkpoint", os.path.join(out_dir, "ensemble.json")]
    return argv


def artifacts(sub, cfg):
    """File names each subcommand must write into the output directory."""
    if sub == "train":
        return ("ensemble.json", "report.json", "report.csv")
    if sub == "eval":
        return tuple(f"eval_{name}.csv" for name in cfg["eval_attacks"])
    if sub == "transfer":
        names = ("transfer.csv", "transfer_metrics.json")
        return names + ("partition.csv",) if cfg["model"]["members"] == 2 else names
    if sub == "detect":
        return ("detect_roc.csv", "detect.json")
    return ("surface.csv",)


def parse_artifact(path):
    """Parse a JSON or CSV artifact; raises ValueError when it is malformed."""
    with open(path) as f:
        if path.endswith(".json"):
            return json.load(f)
        rows = list(csv.reader(line for line in f if not line.startswith("#")))
    if len(rows) < 2:
        raise ValueError(f"{path}: no data rows")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return rows


def quality(workload, out_dir):
    """Natural and robust accuracy of the ensemble, and the detection AUC."""
    if workload.quality_source == "report":
        with open(os.path.join(out_dir, "report.json")) as f:
            last = json.load(f)["epochs"][-1]
        nat, rob = last["nat_acc"], last["rob_acc"]
    else:
        rows = parse_artifact(os.path.join(out_dir, "eval_pgd.csv"))
        en = next(r for r in rows if r[0] == "en")
        nat, rob = float(en[1]), float(en[2])
    with open(os.path.join(out_dir, "detect.json")) as f:
        auc = json.load(f)["auc"]
    return {"nat_acc_pct": float(nat), "rob_acc_pct": float(rob), "detect_auc": float(auc)}


def adp_clamp_share(cfg, out_dir):
    """Clamped regulariser evaluations over all evaluations (0 for non-ADP)."""
    if cfg["method"]["name"] != "ADP":
        return 0.0
    with open(os.path.join(out_dir, "report.json")) as f:
        clamped = json.load(f)["adp_clamped"]
    rows = cfg["dataset"]["n_per_class"] * cfg["dataset"]["num_classes"]
    # the regulariser runs per example on the clean and on the attacked batch
    return clamped / (2 * rows * cfg["train"]["epochs"])
