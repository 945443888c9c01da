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

Exit codes: 0 success, 2 invalid config or inputs, 3 training diverged (train only).
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

from . import analysis, data, training
from .atomic import write_json, write_table
from .attacks import AttackSpec, run_attack, run_heads
from .ensembles import Heads, load_ensemble, partition, save_ensemble, save_partition_csv
from .errors import ConfigError, DivergenceError
from .training import MODES

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

_ATTACK_DEFAULTS = {f.name: f.default for f in dataclasses.fields(AttackSpec) if f.name != "family"}

_GENERATOR_FIELDS = {
    "blobs": ("seed", "n_per_class", "num_classes", "dim", "separation"),
    "rings": ("seed", "n_per_class", "num_classes", "noise"),
}
# the least value of each generator field but separation, which must be > 0
_GENERATOR_MINIMA = {"seed": 0, "n_per_class": 1, "num_classes": 2, "dim": 2, "noise": 0}


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


def _object(block, where):
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: must be an object")
    return block


def _integer(value, where, minimum=None):
    """value if it is a JSON integer (not a bool, a float or a string) of at
    least minimum, else ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _path(value, where):
    if not isinstance(value, str):
        raise ConfigError(f"{where}: must be a path, got {value!r}")
    return value


def _real(value, where, minimum=None, positive=False):
    """value if it is a finite JSON number (not a bool or a string) of at
    least minimum, and > 0 when positive is set, else ConfigError naming
    the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    if positive and value <= 0:
        raise ConfigError(f"{where}: must be > 0, got {value}")
    return value


def _norm_attack(block, where):
    _require(_object(block, where), where, "family")
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
    _object(block, where)
    if "idx_images" in block or "idx_labels" in block:
        _require(block, where, "idx_images", "idx_labels")
        _reject_unknown(block, where, {"idx_images", "idx_labels"})
        for key in ("idx_images", "idx_labels"):
            if not os.path.exists(_path(block[key], f"{where}.{key}")):
                raise ConfigError(f"{where}.{key}: file not found: {block[key]}")
        return {"idx_images": block["idx_images"], "idx_labels": block["idx_labels"]}
    _require(block, where, "generator")
    gen = block["generator"]
    if not isinstance(gen, str) or gen not in _GENERATOR_FIELDS:
        raise ConfigError(f"{where}.generator: unknown generator {gen!r}")
    fields = _GENERATOR_FIELDS[gen]
    _reject_unknown(block, where, {"generator"} | set(fields))
    out = {"generator": gen}
    for name in fields:
        if name != "seed":
            _require(block, where, name)
        value, at = block.get(name, master_seed), f"{where}.{name}"
        if name == "separation":
            out[name] = _real(value, at, positive=True)
        else:
            out[name] = (_real if name == "noise" else _integer)(value, at, _GENERATOR_MINIMA[name])
    return out


def _norm_method(block):
    where = "method"
    _require(_object(block, where), where, "name")
    name = block["name"]
    if isinstance(name, str) and name in MODES:  # a bare mode name is shorthand for CCE in that mode
        block = dict(block, name="CCE", mode=name)
        name = "CCE"
    if name == "CCE":
        _reject_unknown(block, where, {"name", "mode", "lambda_pm", "lambda_dm"})
        mode = block.get("mode", "custom")
        given = [_real(block[k], f"{where}.{k}", 0) if k in block else None for k in ("lambda_pm", "lambda_dm")]
        try:
            pm, dm = training.mode_lambdas(mode, *given)
        except ConfigError as e:
            raise ConfigError(f"{where}.{e}") from None
        return {"name": "CCE", "mode": mode, "lambda_pm": float(pm), "lambda_dm": float(dm)}
    if name == "ADP":
        _reject_unknown(block, where, {"name", "alpha", "beta"})
        return {
            "name": "ADP",
            "alpha": float(_real(block.get("alpha", training.TrainConfig.alpha), f"{where}.alpha", 0)),
            "beta": float(_real(block.get("beta", training.TrainConfig.beta), f"{where}.beta", 0)),
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

    seed = _integer(obj["seed"] if seed_override is None else seed_override, "seed", 0)

    model = _object(obj["model"], "model")
    _require(model, "model", "hidden", "members")
    _reject_unknown(model, "model", {"hidden", "members"})
    hidden = model["hidden"]
    if not (isinstance(hidden, list) and all(type(h) is int and h >= 1 for h in hidden)):
        raise ConfigError("model.hidden: widths must be positive integers")
    members = _integer(model["members"], "model.members", 1)

    train = _object(obj["train"], "train")
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

    surface = _object(obj.get("surface", {}), "surface")
    _reject_unknown(surface, "surface", {"radius_steps", "step", "index", "target"})
    norm_surface = {
        "radius_steps": _integer(surface.get("radius_steps", 5), "surface.radius_steps", 1),
        "step": _real(surface.get("step", 0.01), "surface.step", positive=True),
        "index": _integer(surface.get("index", 0), "surface.index", 0),
        "target": surface.get("target", "en"),  # checked against the checkpoint's members
    }

    return {
        "dataset": _norm_dataset(obj["dataset"], seed),
        "model": {"hidden": list(hidden), "members": members},
        "method": _norm_method(obj["method"]),
        "train": {
            "epochs": _integer(train["epochs"], "train.epochs", 1),
            "batch_size": _integer(train["batch_size"], "train.batch_size", 1),
            "lr": float(_real(train.get("lr", training.TrainConfig.lr), "train.lr", 0)),
            "attack": _norm_attack(train["attack"], "train.attack"),
        },
        "eval_attacks": norm_evals,
        "surface": norm_surface,
        "out": _path(obj["out"], "out") if out_override is None else str(out_override),
        "seed": seed,
    }


def parse_config(path, seed_override=None, out_override=None):
    try:
        with open(path) as f:
            obj = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}: {e.msg}") from None
    return normalize_config(obj, seed_override, out_override)


def config_digest(cfg, dataset=None):
    """Digest of everything that can change results (the output directory
    does not). An IDX dataset counts by its two files' bytes (their
    sha256, as load_idx read them: for dataset, the one built from cfg, or
    else for a fresh build), not by their paths: the same data at another
    path keeps the digest, and changed data at the same path changes it."""
    payload = {k: v for k, v in cfg.items() if k != "out"}
    if "idx_images" in cfg["dataset"]:
        files = (build_dataset(cfg) if dataset is None else dataset).sha256
        payload["dataset"] = dict(zip(("idx_images", "idx_labels"), files))
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
        kwargs.update(mode=method["mode"], lambda_pm=method["lambda_pm"], lambda_dm=method["lambda_dm"])
    else:
        kwargs.update(mode="Base")  # lambdas are inert for non-CCE methods
        if method["name"] == "ADP":
            kwargs.update(alpha=method["alpha"], beta=method["beta"])
    return training.TrainConfig(**kwargs)


def _stamps(cfg, dataset):
    """The line every CSV artifact opens with and the keys every JSON
    artifact carries (seed and config digest), from one digest of cfg and
    the dataset the command built from it, per command."""
    meta = {"seed": cfg["seed"], "config_digest": config_digest(cfg, dataset)}
    return f"# seed={meta['seed']}, config_digest={meta['config_digest']}\n", meta


def _load_checkpoint(path, ds, model):
    ens = load_ensemble(path)
    if ens.num_classes != ds.num_classes:
        raise ConfigError(
            f"checkpoint has {ens.num_classes} classes but the dataset has {ds.num_classes}"
        )
    if ens.input_dim != ds.dim:
        raise ConfigError(
            f"checkpoint expects {ens.input_dim}-d inputs but the dataset is {ds.dim}-d"
        )
    if len(ens) != model["members"]:
        raise ConfigError(f"checkpoint has {len(ens)} members but model.members is {model['members']}")
    hidden = [la.w.shape[1] for la in ens.members[0].layers[:-1]]  # load_ensemble: one layer shape
    if hidden != model["hidden"]:
        raise ConfigError(f"checkpoint has hidden widths {hidden} but model.hidden is {model['hidden']}")
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
    ensembles = [_load_checkpoint(p, ds, cfg["model"]) for p in paths]
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
    report = training.train(init, ds, build_train_config(cfg), cfg["method"]["name"])
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    preamble, meta = _stamps(cfg, ds)
    ckpt = os.path.join(out, "ensemble.json")
    save_ensemble(report.ensemble, ckpt, meta=meta)
    report_json = os.path.join(out, "report.json")
    write_json(report_json, training.report_to_dict(report) | {"config_digest": meta["config_digest"]})
    report_csv = os.path.join(out, "report.csv")
    training.save_report_csv(report, report_csv, preamble=preamble)
    for path in (ckpt, report_json, report_csv):
        print(path)
    return 0


def cmd_eval(args):
    cfg, ds, (ens,), _ = _analysis_setup(args)
    out, preamble = cfg["out"], _stamps(cfg, ds)[0]
    targets = [*ens.members, ens]
    names, heads = analysis._default_labels(targets), Heads.of(targets)  # f1 .. fK and en
    predicted = analysis.head_labels(heads, ds.inputs)  # one pass for every target
    nats = [analysis.natural_accuracy(labels, ds) for labels in predicted]
    for name, spec_dict in cfg["eval_attacks"].items():
        spec = AttackSpec(**spec_dict)
        # every target's attack in lockstep, each equal to its lone run_attack
        robs = []
        for result in run_heads(heads, ds.inputs, ds.labels, spec):
            robs.append(analysis.robust_accuracy(result, ds, spec))
            del result  # not held through the next target's attack of a large batch
        path = os.path.join(out, f"eval_{name}.csv")
        rows = ((label, f"{nat:.1f}", f"{rob:.1f}") for label, nat, rob in zip(names, nats, robs))
        write_table(path, ("model", "nat_acc", "rob_acc"), rows, preamble)
        print(path)
    return 0


def cmd_transfer(args):
    cfg, ds, ensembles, spec = _analysis_setup(args, single=False)
    out, (preamble, meta) = cfg["out"], _stamps(cfg, ds)
    emitted = []
    ens = ensembles[0]
    if len(ensembles) == 1:  # f1 .. fK and en, cross_matrix's default labels
        if len(ens.members) < 2:
            raise ConfigError("transfer over one checkpoint needs an ensemble with >= 2 members")
        mat = analysis.cross_matrix([*ens.members, ens], ds, spec)
        n = len(ens.members)
    else:
        n = len(ensembles)
        mat = analysis.cross_matrix(ensembles, ds, spec, labels=[f"c{i + 1}" for i in range(n)])
    metrics = {
        f"T_{i + 1}_{j + 1}": analysis.transferability_T(mat, i, j) for i in range(n) for j in range(i + 1, n)
    }
    if len(ensembles) == 1:
        metrics["a_en_en"] = mat.a[-1, -1]
    if len(ensembles) == 1 and n == 2:  # the partition of the ensemble's attacked batch
        part = partition(*ens.members, mat.adversarial, ds.inputs, ds.labels, spec.epsilon,
                         correct=mat.correct[-1][:2])
        part_csv = os.path.join(out, "partition.csv")
        save_partition_csv(part, part_csv, preamble=preamble)
        emitted.append(part_csv)
        metrics["T"] = metrics.pop("T_1_2")
        metrics["nT"] = analysis.non_transferable_nT(mat.a[-1, -1], part.cardinalities["S00"])
        metrics["a_single"] = analysis.single_correct_a_single(mat.a[-1, -1], part.cardinalities["S11"])
        metrics.update(part.cardinalities)

    mat_csv = os.path.join(out, "transfer.csv")
    analysis.save_cross_csv(mat, mat_csv, preamble=preamble)
    metrics_json = os.path.join(out, "transfer_metrics.json")
    write_json(metrics_json, {k: round(float(v), 1) for k, v in metrics.items()} | meta)
    for path in [mat_csv, metrics_json] + emitted:
        print(path)
    return 0


def cmd_detect(args):
    cfg, ds, (ens,), spec = _analysis_setup(args)
    result = run_attack(ens, ds.inputs, ds.labels, spec)
    # the attack's final check already forwarded the members on its batch
    report = analysis.detect(ens, ds.inputs, result.adversarial, adv_probs=result.member_probs)
    out, (preamble, meta) = cfg["out"], _stamps(cfg, ds)
    roc_csv = os.path.join(out, "detect_roc.csv")
    analysis.save_detection_csv(report, roc_csv, preamble=preamble)
    summary_json = os.path.join(out, "detect.json")
    write_json(summary_json, analysis.detection_summary(report) | meta)
    print(roc_csv)
    print(summary_json)
    return 0


def cmd_surface(args):
    cfg, ds, (ens,), spec = _analysis_setup(args)
    sconf = cfg["surface"]
    index = sconf["index"]
    if not 0 <= index < len(ds):
        raise ConfigError(f"surface.index {index} out of range for {len(ds)} examples")
    choices = {"en": ens} | {str(k): m for k, m in enumerate(ens.members)}
    choice = sconf["target"]
    if type(choice) not in (int, str) or str(choice) not in choices:
        raise ConfigError(
            f"surface.target: must be 'en' or a member index in [0, {len(ens.members)}), got {choice!r}"
        )
    target = choices[str(choice)]
    x = ds.inputs[index : index + 1]
    y = ds.labels[index : index + 1]
    x_a = run_attack(target, x, y, spec).adversarial[0]
    grid = analysis.surface_grid(
        target, x_a, int(y[0]), radius_steps=sconf["radius_steps"],
        step=float(sconf["step"]), seed=cfg["seed"],
    )
    path = os.path.join(cfg["out"], "surface.csv")
    analysis.save_surface_csv(grid, path, preamble=_stamps(cfg, ds)[0])
    print(path)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser(commands):
    """One parser for every command: the command's name, one of commands'
    keys, and the four options the commands share."""
    parser = argparse.ArgumentParser(prog="advens", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=commands)
    parser.add_argument("--config", required=True, help="experiment JSON")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    parser.add_argument("--checkpoint", action="append", default=None, help="ensemble checkpoint (repeatable)")
    return parser


def main(argv=None):
    # read at each call, so that a wrapper rebound over a cmd_ function is the one called
    commands = {"train": cmd_train, "eval": cmd_eval, "transfer": cmd_transfer, "detect": cmd_detect,
                "surface": cmd_surface}
    args = build_parser(commands).parse_args(argv)
    try:
        # non-finite values surface as errors (exit 2, or 3 from train), not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return commands[args.command](args)
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
