"""Experiment runner.

One JSON config describes an experiment end to end: dataset, ensemble
shape, training method, attacks. Subcommands consume it:

    advens train    --config exp.json
    advens eval     --config exp.json --checkpoint runs/ensemble.json
    advens transfer --config exp.json --checkpoint runs/ensemble.json
    advens detect   --config exp.json --checkpoint runs/ensemble.json
    advens surface  --config exp.json --checkpoint runs/ensemble.json

Every emitted file embeds the master seed and a digest of the effective
config, and contains nothing else that varies between runs (no clocks,
no absolute paths), so rerunning with an identical config and seed
reproduces every artifact byte for byte.

Exit codes: 0 success, 2 invalid config or inputs, 3 training diverged.
"""

import argparse
import hashlib
import json
import os
import re
import sys

import numpy as np

from . import analysis, data, training
from .atomic import atomic_write
from .attacks import AttackSpec, run_attack
from .ensembles import load_ensemble, partition, save_ensemble, save_partition_csv
from .errors import ConfigError, DivergenceError
from .training import MODES

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

_ATTACK_DEFAULTS = {
    "steps": 10,
    "epsilon": 8 / 255,
    "eta": 2 / 255,
    "momentum": 1.0,
    "spsa_samples": 64,
    "spsa_delta": 0.01,
    "random_start": True,
    "seed": 0,
}

_GENERATOR_FIELDS = {
    "blobs": ("seed", "n_per_class", "num_classes", "dim", "separation"),
    "rings": ("seed", "n_per_class", "num_classes", "noise"),
}


# ---------------------------------------------------------------------------
# config parsing and normalization


def _require(block, where, *names):
    for name in names:
        if name not in block:
            raise ConfigError(f"{where}: missing required field '{name}'")


def _reject_unknown(block, where, allowed):
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown field '{key}'")


def _norm_attack(block, where):
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: attack must be an object")
    _require(block, where, "family")
    _reject_unknown(block, where, {"family"} | set(_ATTACK_DEFAULTS))
    out = {"family": block["family"]}
    for name, default in _ATTACK_DEFAULTS.items():
        out[name] = block.get(name, default)
    try:
        AttackSpec(**out)  # validate early so errors point at the config
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None
    return out


def _norm_dataset(block, master_seed):
    where = "dataset"
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: must be an object")
    if "idx_images" in block or "idx_labels" in block:
        _require(block, where, "idx_images", "idx_labels")
        _reject_unknown(block, where, {"idx_images", "idx_labels"})
        for key in ("idx_images", "idx_labels"):
            if not os.path.exists(block[key]):
                raise ConfigError(f"{where}.{key}: file not found: {block[key]}")
        return {"idx_images": block["idx_images"], "idx_labels": block["idx_labels"]}
    _require(block, where, "generator")
    gen = block["generator"]
    if gen not in _GENERATOR_FIELDS:
        raise ConfigError(f"{where}.generator: unknown generator {gen!r}")
    fields = _GENERATOR_FIELDS[gen]
    _reject_unknown(block, where, {"generator"} | set(fields))
    out = {"generator": gen}
    for name in fields:
        if name == "seed":
            out[name] = block.get(name, master_seed)
        else:
            _require(block, where, name)
            out[name] = block[name]
    return out


def _norm_method(block):
    where = "method"
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: must be an object")
    _require(block, where, "name")
    name = block["name"]
    if name in MODES:  # a bare mode name is shorthand for CCE in that mode
        block = dict(block, name="CCE", mode=name)
        name = "CCE"
    if name == "CCE":
        _reject_unknown(block, where, {"name", "mode", "lambda_pm", "lambda_dm"})
        mode = block.get("mode", "custom")
        if mode != "custom" and mode not in MODES:
            raise ConfigError(f"{where}.mode: unknown mode {mode!r}")
        if mode == "custom":
            _require(block, where, "lambda_pm", "lambda_dm")
            pm, dm = block["lambda_pm"], block["lambda_dm"]
        else:
            pm, dm = MODES[mode]
            if block.get("lambda_pm", pm) != pm or block.get("lambda_dm", dm) != dm:
                raise ConfigError(f"{where}: lambdas contradict mode {mode!r}")
        return {"name": "CCE", "mode": mode, "lambda_pm": float(pm), "lambda_dm": float(dm)}
    if name == "ADP":
        _reject_unknown(block, where, {"name", "alpha", "beta"})
        return {
            "name": "ADP",
            "alpha": float(block.get("alpha", 2.0)),
            "beta": float(block.get("beta", 0.5)),
        }
    if name in ("ADV", "ADV_EN"):
        _reject_unknown(block, where, {"name"})
        return {"name": name}
    raise ConfigError(f"{where}.name: unknown method {name!r}")


def normalize_config(obj, seed_override=None, out_override=None):
    """Expand defaults and macros into the effective config dict.

    Normalization is idempotent: feeding the result back through produces
    the same dict, which is what makes the digest meaningful.
    """
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(
        obj, "config", {"dataset", "model", "method", "train", "eval_attacks", "surface", "out", "seed"}
    )
    _require(obj, "config", "dataset", "model", "method", "train", "out", "seed")

    seed = int(obj["seed"]) if seed_override is None else int(seed_override)

    model = obj["model"]
    _require(model, "model", "hidden", "members")
    _reject_unknown(model, "model", {"hidden", "members"})
    hidden = list(model["hidden"])
    if not all(isinstance(h, int) and h >= 1 for h in hidden):
        raise ConfigError("model.hidden: widths must be positive integers")
    members = model["members"]
    if not (isinstance(members, int) and members >= 1):
        raise ConfigError("model.members: must be an integer >= 1")

    train = obj["train"]
    _require(train, "train", "epochs", "batch_size", "attack")
    _reject_unknown(train, "train", {"epochs", "batch_size", "lr", "attack"})

    evals = obj.get("eval_attacks", {})
    if not isinstance(evals, dict):
        raise ConfigError("eval_attacks: must be an object of name -> attack")
    norm_evals = {}
    for name, spec in evals.items():
        if not _NAME_RE.match(name):
            raise ConfigError(f"eval_attacks: name {name!r} must match [A-Za-z0-9_-]+")
        norm_evals[name] = _norm_attack(spec, f"eval_attacks.{name}")

    surface = obj.get("surface", {})
    _reject_unknown(surface, "surface", {"radius_steps", "step", "index", "target"})
    norm_surface = {
        "radius_steps": surface.get("radius_steps", 5),
        "step": surface.get("step", 0.01),
        "index": surface.get("index", 0),
        "target": surface.get("target", "en"),
    }

    return {
        "dataset": _norm_dataset(obj["dataset"], seed),
        "model": {"hidden": hidden, "members": members},
        "method": _norm_method(obj["method"]),
        "train": {
            "epochs": int(train["epochs"]),
            "batch_size": int(train["batch_size"]),
            "lr": float(train.get("lr", 0.001)),
            "attack": _norm_attack(train["attack"], "train.attack"),
        },
        "eval_attacks": norm_evals,
        "surface": norm_surface,
        "out": str(obj["out"]) if out_override is None else str(out_override),
        "seed": seed,
    }


def parse_config(path, seed_override=None, out_override=None):
    try:
        with open(path) as f:
            obj = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}: {e.msg}") from None
    return normalize_config(obj, seed_override, out_override)


def config_digest(cfg):
    """Digest of everything that can change results (the output directory
    does not)."""
    payload = {k: v for k, v in cfg.items() if k != "out"}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# config -> objects


def build_dataset(cfg):
    block = cfg["dataset"]
    if "idx_images" in block:
        return data.load_idx(block["idx_images"], block["idx_labels"])
    params = {k: v for k, v in block.items() if k != "generator"}
    if block["generator"] == "blobs":
        return data.gen_blobs(**params)
    return data.gen_rings(**params)


def build_train_config(cfg):
    method = cfg["method"]
    train = cfg["train"]
    kwargs = dict(
        attack=AttackSpec(**train["attack"]),
        epochs=train["epochs"],
        batch_size=train["batch_size"],
        seed=cfg["seed"],
        lr=train["lr"],
    )
    if method["name"] == "CCE":
        kwargs.update(mode=method["mode"])
        if method["mode"] == "custom":
            kwargs.update(lambda_pm=method["lambda_pm"], lambda_dm=method["lambda_dm"])
    else:
        kwargs.update(mode="Base")  # lambdas are inert for non-CCE methods
        if method["name"] == "ADP":
            kwargs.update(alpha=method["alpha"], beta=method["beta"])
    return training.TrainConfig(**kwargs)


def _preamble(cfg):
    return f"# seed={cfg['seed']}, config_digest={config_digest(cfg)}\n"


def _meta(cfg):
    return {"seed": cfg["seed"], "config_digest": config_digest(cfg)}


def _write_json(path, payload):
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_checkpoint(path, ds):
    ens = load_ensemble(path)
    if ens.num_classes != ds.num_classes:
        raise ConfigError(
            f"checkpoint has {ens.num_classes} classes but the dataset has {ds.num_classes}"
        )
    if ens.input_dim != ds.dim:
        raise ConfigError(
            f"checkpoint expects {ens.input_dim}-d inputs but the dataset is {ds.dim}-d"
        )
    return ens


def _analysis_setup(args, single=True):
    """Set-up shared by the analysis subcommands: parse the config, build
    the dataset, load the checkpoint(s) and create the output directory.
    Returns (cfg, dataset, ensembles, first eval attack spec)."""
    cfg = parse_config(args.config, args.seed, args.out)
    ds = build_dataset(cfg)
    paths = args.checkpoint or []
    if single and len(paths) != 1:
        raise ConfigError("this subcommand needs exactly one --checkpoint")
    if not paths:
        raise ConfigError("transfer needs at least one --checkpoint")
    if not cfg["eval_attacks"]:
        raise ConfigError("config has no eval_attacks block")
    ensembles = [_load_checkpoint(p, ds) for p in paths]
    os.makedirs(cfg["out"], exist_ok=True)
    return cfg, ds, ensembles, AttackSpec(**next(iter(cfg["eval_attacks"].values())))


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args):
    cfg = parse_config(args.config, args.seed, args.out)
    ds = build_dataset(cfg)
    init = training.init_ensemble(
        ds.dim, cfg["model"]["hidden"], ds.num_classes, cfg["model"]["members"], seed=cfg["seed"]
    )
    # divergence surfaces as DivergenceError (exit 3), not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        report = training.train(init, ds, build_train_config(cfg), cfg["method"]["name"])
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    ckpt = os.path.join(out, "ensemble.json")
    save_ensemble(report.ensemble, ckpt, meta=_meta(cfg))
    report_json = os.path.join(out, "report.json")
    _write_json(report_json, training.report_to_dict(report) | {"config_digest": config_digest(cfg)})
    report_csv = os.path.join(out, "report.csv")
    training.save_report_csv(report, report_csv, preamble=_preamble(cfg))
    for path in (ckpt, report_json, report_csv):
        print(path)
    return 0


def cmd_eval(args):
    cfg, ds, (ens,), _ = _analysis_setup(args)
    out = cfg["out"]
    targets = [(f"f{i + 1}", m) for i, m in enumerate(ens.members)]
    targets.append(("en", ens))
    for name, spec_dict in cfg["eval_attacks"].items():
        spec = AttackSpec(**spec_dict)
        path = os.path.join(out, f"eval_{name}.csv")
        with atomic_write(path, newline="") as f:
            f.write(_preamble(cfg))
            f.write("model,nat_acc,rob_acc\n")
            for label, target in targets:
                nat = analysis.natural_accuracy(target, ds)
                rob = analysis.robust_accuracy(target, ds, spec)
                f.write(f"{label},{nat:.1f},{rob:.1f}\n")
        print(path)
    return 0


def cmd_transfer(args):
    cfg, ds, ensembles, spec = _analysis_setup(args, single=False)
    out = cfg["out"]
    emitted = []

    if len(ensembles) == 1:
        ens = ensembles[0]
        if len(ens.members) < 2:
            raise ConfigError("transfer over one checkpoint needs an ensemble with >= 2 members")
        targets = list(ens.members) + [ens]
        labels = [f"f{i + 1}" for i in range(len(ens.members))] + ["en"]
        mat = analysis.cross_matrix(targets, ds, spec, labels=labels)
        adv = mat.adversarial[-1]  # the ensemble's attacked batch
        metrics = {"a_en_en": mat.a[-1, -1]}
        for i in range(len(ens.members)):
            for j in range(i + 1, len(ens.members)):
                metrics[f"T_{i + 1}_{j + 1}"] = analysis.transferability_T(mat, i, j)
        if len(ens.members) == 2:
            part = partition(ens.members[0], ens.members[1], adv, ds.inputs, ds.labels, spec.epsilon)
            part_csv = os.path.join(out, "partition.csv")
            save_partition_csv(part, part_csv, preamble=_preamble(cfg))
            emitted.append(part_csv)
            metrics["T"] = metrics.pop("T_1_2")
            metrics["nT"] = analysis.non_transferable_nT(mat.a[-1, -1], part.cardinalities["S00"])
            metrics["a_single"] = analysis.single_correct_a_single(
                mat.a[-1, -1], part.cardinalities["S11"]
            )
            metrics.update({tag: part.cardinalities[tag] for tag in ("S11", "S01", "S10", "S00")})
    else:
        labels = [f"c{i + 1}" for i in range(len(ensembles))]
        mat = analysis.cross_matrix(ensembles, ds, spec, labels=labels)
        metrics = {
            f"T_{i + 1}_{j + 1}": analysis.transferability_T(mat, i, j)
            for i in range(len(ensembles))
            for j in range(i + 1, len(ensembles))
        }

    mat_csv = os.path.join(out, "transfer.csv")
    analysis.save_cross_csv(mat, mat_csv, preamble=_preamble(cfg))
    metrics_json = os.path.join(out, "transfer_metrics.json")
    _write_json(metrics_json, {k: round(float(v), 1) for k, v in metrics.items()} | _meta(cfg))
    for path in [mat_csv, metrics_json] + emitted:
        print(path)
    return 0


def cmd_detect(args):
    cfg, ds, (ens,), spec = _analysis_setup(args)
    adv = run_attack(ens, ds.inputs, ds.labels, spec).adversarial
    report = analysis.detect(ens, ds.inputs, adv)
    out = cfg["out"]
    roc_csv = os.path.join(out, "detect_roc.csv")
    analysis.save_detection_csv(report, roc_csv, preamble=_preamble(cfg))
    summary_json = os.path.join(out, "detect.json")
    analysis.save_detection_json(report, summary_json, extra=_meta(cfg))
    print(roc_csv)
    print(summary_json)
    return 0


def cmd_surface(args):
    cfg, ds, (ens,), spec = _analysis_setup(args)
    sconf = cfg["surface"]
    index = int(sconf["index"])
    if not 0 <= index < len(ds):
        raise ConfigError(f"surface.index {index} out of range for {len(ds)} examples")
    if sconf["target"] == "en":
        target = ens
    else:
        k = int(sconf["target"])
        if not 0 <= k < len(ens.members):
            raise ConfigError(f"surface.target member {k} out of range")
        target = ens.members[k]
    x = ds.inputs[index : index + 1]
    y = ds.labels[index : index + 1]
    x_a = run_attack(target, x, y, spec).adversarial[0]
    grid = analysis.surface_grid(
        target, x_a, int(y[0]), radius_steps=int(sconf["radius_steps"]),
        step=float(sconf["step"]), seed=cfg["seed"],
    )
    path = os.path.join(cfg["out"], "surface.csv")
    analysis.save_surface_csv(grid, path, preamble=_preamble(cfg))
    print(path)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(prog="advens", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("train", cmd_train),
        ("eval", cmd_eval),
        ("transfer", cmd_transfer),
        ("detect", cmd_detect),
        ("surface", cmd_surface),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument(
            "--checkpoint", action="append", default=None, help="ensemble checkpoint (repeatable)"
        )
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
