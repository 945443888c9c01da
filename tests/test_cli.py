"""Experiment runner: config handling, artifacts, reproducibility, exits."""

import copy
import hashlib
import json
import os
import struct
import warnings

import numpy as np
import pytest

from advens import analysis, cli, data, ensembles, nn, training
from advens.atomic import write_json, write_table
from advens.ensembles import Ensemble, load_ensemble, save_ensemble
from advens.errors import ConfigError, DivergenceError, FormatError

BASE = {
    "dataset": {
        "generator": "blobs",
        "n_per_class": 30,
        "num_classes": 3,
        "dim": 4,
        "separation": 3.0,
    },
    "model": {"hidden": [16], "members": 2},
    "method": {"name": "RM"},
    "train": {
        "epochs": 2,
        "batch_size": 30,
        "lr": 0.03,
        "attack": {"family": "pgd", "steps": 3, "epsilon": 0.05, "eta": 0.02},
    },
    "eval_attacks": {
        "pgd": {"family": "pgd", "steps": 3, "epsilon": 0.05, "eta": 0.02},
    },
    "surface": {"radius_steps": 3, "step": 0.02, "index": 1, "target": "en"},
    "out": "runs/base",
    "seed": 7,
}


def make_config(tmp_path, name="exp.json", **edits):
    cfg = copy.deepcopy(BASE)
    for key, value in edits.items():
        cfg[key] = value
    cfg["out"] = str(tmp_path / cfg["out"])
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def run(argv):
    return cli.main(argv)


def read_lines(path):
    with open(path) as f:
        return f.read().splitlines()


# ---------------------------------------------------------------------------
# config handling


def test_normalization_is_a_fixed_point(tmp_path):
    path, _ = make_config(tmp_path)
    cfg = cli.parse_config(path)
    again = cli.normalize_config(cfg)
    assert again == cfg
    assert cli.config_digest(again) == cli.config_digest(cfg)


def test_minimal_config_normalizes_to_pinned_defaults_and_digest():
    # the defaults come from AttackSpec and TrainConfig; these literals are
    # what they normalized to when cli restated them, so a changed default
    # shows here, and not only in every artifact's digest
    cfg = cli.normalize_config({
        "dataset": {"generator": "blobs", "n_per_class": 5, "num_classes": 3, "dim": 2, "separation": 2.0},
        "model": {"hidden": [], "members": 2},
        "method": {"name": "ADP"},
        "train": {"epochs": 1, "batch_size": 10, "attack": {"family": "pgd"}},
        "out": "runs",
        "seed": 0,
    })
    assert json.dumps(cfg["train"]) == (
        '{"epochs": 1, "batch_size": 10, "lr": 0.001, "attack": {"family": "pgd", "steps": 10, '
        '"epsilon": 0.03137254901960784, "eta": 0.00784313725490196, "momentum": 1.0, '
        '"spsa_samples": 64, "spsa_delta": 0.01, "random_start": true, "seed": 0}}'
    )
    assert cfg["method"] == {"name": "ADP", "alpha": 2.0, "beta": 0.5}
    assert cli.config_digest(cfg) == "6156ad60a0fea620"


def test_digest_ignores_out_but_tracks_seed(tmp_path):
    path, _ = make_config(tmp_path)
    a = cli.parse_config(path)
    b = cli.parse_config(path, out_override=str(tmp_path / "elsewhere"))
    c = cli.parse_config(path, seed_override=8)
    assert cli.config_digest(a) == cli.config_digest(b)
    assert cli.config_digest(a) != cli.config_digest(c)


def test_idx_digest_tracks_the_files_bytes_not_their_paths(tmp_path):
    ds = data.gen_blobs(seed=3, n_per_class=20, num_classes=2, dim=4, separation=4.0)
    cfgs, files = [], []
    for where in ("a", "b"):
        os.makedirs(tmp_path / where)
        pair = tmp_path / where / "x.idx", tmp_path / where / "y.idx"
        data.save_idx(ds, *map(str, pair), rows=2, cols=2)
        files.append(pair)
        cfgs.append(cli.normalize_config(dict(BASE, dataset={"idx_images": str(pair[0]), "idx_labels": str(pair[1])})))
    same = cli.config_digest(cfgs[0])
    assert cfgs[0] != cfgs[1] and cli.config_digest(cfgs[1]) == same  # equal bytes at two paths
    for path in files[1]:  # one changed byte past the header, in either file
        blob = path.read_bytes()
        path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
        assert cli.config_digest(cfgs[1]) != same
        path.write_bytes(blob)
        assert cli.config_digest(cfgs[1]) == same


def test_each_command_opens_each_idx_file_once(tmp_path, monkeypatch):
    ds = data.gen_blobs(seed=3, n_per_class=20, num_classes=3, dim=4, separation=4.0)
    pair = tmp_path / "x.idx", tmp_path / "y.idx"
    files = tuple(map(str, pair))
    data.save_idx(ds, *files, rows=2, cols=2)
    assert data.load_idx(*files).sha256 == tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in pair)
    path, cfg, ckpt = trained(tmp_path, dataset={"idx_images": files[0], "idx_labels": files[1]})
    opened, real_open = [], open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    for command in ("train", "eval", "transfer", "detect", "surface"):
        opened.clear()
        argv = [command, "--config", path, "--out", str(tmp_path / command)]
        assert run(argv + ([] if command == "train" else ["--checkpoint", ckpt])) == 0
        assert [opened.count(f) for f in files] == [1, 1], command
        digest = cli.config_digest(cli.parse_config(path))  # a fresh read's digest: the command's stamp
        assert read_lines(next(tmp_path.glob(f"{command}/*.csv")))[0] == f"# seed=7, config_digest={digest}"


def test_named_mode_shorthand_expands_to_cce():
    method = cli._norm_method({"name": "DM"})
    assert method == {"name": "CCE", "mode": "DM", "lambda_pm": 0.0, "lambda_dm": 5.0}
    # explicit agreement is fine, contradiction is not
    cli._norm_method({"name": "CCE", "mode": "RM", "lambda_pm": 1, "lambda_dm": 1})
    with pytest.raises(ConfigError, match="contradict"):
        cli._norm_method({"name": "CCE", "mode": "RM", "lambda_dm": 3})


def test_dataset_seed_defaults_to_master_seed(tmp_path):
    path, _ = make_config(tmp_path)
    cfg = cli.parse_config(path)
    assert cfg["dataset"]["seed"] == 7
    cfg2 = cli.parse_config(path, seed_override=11)
    assert cfg2["dataset"]["seed"] == 11


def test_config_validation_messages(tmp_path):
    cases = [
        ({"method": {"name": "sgd"}}, "unknown method"),
        ({"model": {"hidden": [0], "members": 2}}, "positive integers"),
        ({"model": {"hidden": [8], "members": 0}}, "members"),
        ({"eval_attacks": {"bad name!": BASE["eval_attacks"]["pgd"]}}, "A-Za-z0-9"),
        ({"eval_attacks": {"a": {"family": "none"}}}, "eval_attacks.a"),
        ({"dataset": {"generator": "moons"}}, "unknown generator"),
        ({"extra_block": 1}, "unknown field"),
        # once accepted here, so that train ran and only surface failed
        ({"surface": {"radius_steps": 0}}, r"^surface\.radius_steps: must be >= 1, got 0$"),
        ({"surface": {"radius_steps": -3}}, r"^surface\.radius_steps: must be >= 1, got -3$"),
        ({"surface": {"step": 0}}, r"^surface\.step: must be > 0, got 0$"),
        ({"surface": {"step": -0.5}}, r"^surface\.step: must be > 0, got -0\.5$"),
        ({"surface": {"index": -1}}, r"^surface\.index: must be >= 0, got -1$"),
    ]
    for edits, fragment in cases:
        path, _ = make_config(tmp_path, name="bad.json", **edits)
        with pytest.raises(ConfigError, match=fragment):
            cli.parse_config(path)
        assert run(["train", "--config", path]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("steps", 2.5),
        ("steps", "3"),
        ("epsilon", "a"),
        ("epsilon", None),
        ("random_start", "no"),
        ("spsa_samples", 2.5),
    ],
)
def test_attack_fields_of_the_wrong_type_exit_2(tmp_path, capsys, field, value):
    # each once crashed with a TypeError or was taken silently
    attack = dict(BASE["train"]["attack"], **{field: value})
    path, _ = make_config(tmp_path, train=dict(BASE["train"], attack=attack))
    assert run(["train", "--config", path]) == 2
    assert f"train.attack: {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, value",
    [
        ("model", 5),
        ("train", 5),
        ("surface", 3),
        ("surface", ["radius_steps"]),
        ("model.hidden", True),
        ("model.hidden", [True]),
        ("model.members", True),
        ("seed", 2.7),
        ("seed", "3"),
        ("seed", True),
        ("seed", -1),
        ("train.epochs", 2.5),
        ("train.batch_size", "30"),
        ("train.lr", "a"),
        ("method.alpha", "x"),
        ("method.name", ["RM"]),
        ("method.mode", ["RM"]),
        ("dataset.generator", ["blobs"]),
        ("dataset.n_per_class", 2.5),
        ("dataset.separation", "3"),
        ("surface.radius_steps", 2.5),
        ("surface.index", "x"),
    ],
)
def test_config_fields_of_the_wrong_type_exit_2_naming_the_field(tmp_path, capsys, where, value):
    # each once crashed with a traceback (exit 1), was coerced or passed
    # through silently, or failed with a message that named no field
    cfg = copy.deepcopy(BASE)
    if where.startswith("method."):
        cfg["method"] = {"name": "CCE"} if where == "method.mode" else {"name": "ADP"}
    *blocks, key = where.split(".")
    block = cfg
    for name in blocks:
        block = block[name]
    block[key] = value
    path, _ = make_config(tmp_path, **cfg)
    assert run(["train", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}:")


@pytest.mark.parametrize(
    "where, value",
    [
        ("dataset.n_per_class", 0),
        ("dataset.num_classes", 1),
        ("dataset.dim", 1),
        ("dataset.separation", 0),
        ("dataset.noise", -0.1),
        ("train.epochs", 0),
        ("train.batch_size", 0),
        ("train.lr", -0.01),
        ("method.lambda_pm", -1.0),
        ("method.lambda_dm", -0.5),
        ("method.alpha", -1.0),
        ("method.beta", -0.5),
    ],
)
def test_config_numbers_out_of_range_exit_2_naming_the_field(tmp_path, capsys, where, value):
    # each once exited 2 with a library message that named no field, a
    # negative lr only after the dataset was built
    cfg = copy.deepcopy(BASE)
    if where == "dataset.noise":
        cfg["dataset"] = {"generator": "rings", "n_per_class": 30, "num_classes": 3, "noise": 0.05}
    elif where.startswith("method.lambda"):
        cfg["method"] = {"name": "CCE", "mode": "custom", "lambda_pm": 1.0, "lambda_dm": 1.0}
    elif where.startswith("method."):
        cfg["method"] = {"name": "ADP"}
    block, key = where.split(".")
    cfg[block][key] = value
    path, _ = make_config(tmp_path, **cfg)
    assert run(["train", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}: must be ")


def test_config_numbers_at_their_least_normalize_unchanged():
    cfg = copy.deepcopy(BASE)
    cfg["dataset"].update(n_per_class=1, num_classes=2, dim=2)
    cfg["train"].update(epochs=1, batch_size=1, lr=0)
    cfg["method"] = {"name": "CCE", "mode": "custom", "lambda_pm": 0, "lambda_dm": 0}
    norm = cli.normalize_config(cfg)
    assert norm["dataset"] == dict(cfg["dataset"], seed=7)
    assert norm["train"]["lr"] == 0.0 and norm["train"]["epochs"] == 1 and norm["train"]["batch_size"] == 1
    assert cli.normalize_config(norm) == norm
    rings = {"generator": "rings", "n_per_class": 1, "num_classes": 2, "noise": 0}
    assert cli.normalize_config(dict(cfg, dataset=rings))["dataset"] == dict(rings, seed=7)
    adp = cli.normalize_config(dict(cfg, method={"name": "ADP", "alpha": 0, "beta": 0}))
    assert adp["method"] == {"name": "ADP", "alpha": 0.0, "beta": 0.0}


@pytest.mark.parametrize("out", [None, 5, ["runs"]])
def test_out_that_is_not_a_path_is_refused(out):
    # null once became a directory named "None"
    with pytest.raises(ConfigError, match="^out: must be a path"):
        cli.normalize_config(dict(BASE, out=out))


def test_malformed_json_reports_line_and_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dataset": \n !}')
    assert run(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and str(path) in err


# ---------------------------------------------------------------------------
# train


def test_train_emits_three_artifacts_with_provenance(tmp_path):
    path, cfg = make_config(tmp_path)
    assert run(["train", "--config", path]) == 0
    out = cfg["out"]
    digest = cli.config_digest(cli.parse_config(path))
    with open(os.path.join(out, "ensemble.json")) as f:
        ckpt = json.load(f)
    assert ckpt["seed"] == 7 and ckpt["config_digest"] == digest
    assert len(ckpt["members"]) == 2
    with open(os.path.join(out, "report.json")) as f:
        rep = json.load(f)
    assert rep["seed"] == 7 and rep["config_digest"] == digest
    assert len(rep["epochs"]) == 2
    lines = read_lines(os.path.join(out, "report.csv"))
    assert lines[0] == f"# seed=7, config_digest={digest}"
    assert lines[1].startswith("epoch,member,")
    assert len(lines) == 2 + 2 * 2  # preamble + header + epochs*members


def test_train_named_mode_lambdas_land_in_report(tmp_path):
    path, cfg = make_config(tmp_path, method={"name": "DM"})
    assert run(["train", "--config", path]) == 0
    with open(os.path.join(cfg["out"], "report.json")) as f:
        rep = json.load(f)
    assert rep["method"] == "CCE" and rep["mode"] == "DM"
    assert rep["lambda_pm"] == 0.0 and rep["lambda_dm"] == 5.0


def test_rerun_is_byte_identical(tmp_path):
    path, cfg = make_config(tmp_path)
    run(["train", "--config", path])
    run(["train", "--config", path, "--out", str(tmp_path / "again")])
    for name in ("ensemble.json", "report.json", "report.csv"):
        with open(os.path.join(cfg["out"], name), "rb") as f:
            first = f.read()
        with open(tmp_path / "again" / name, "rb") as f:
            second = f.read()
        assert first == second, name


def test_rerun_of_the_analysis_subcommands_is_byte_identical(tmp_path):
    path, cfg, ckpt = trained(tmp_path)
    _, _, ckpt2 = trained(tmp_path, name="other.json", out="runs/other", seed=9)
    calls = {
        "eval": [ckpt],
        "transfer": [ckpt],
        "transfer2": [ckpt, ckpt2],
        "detect": [ckpt],
        "surface": [ckpt],
    }
    for name, checkpoints in calls.items():
        outs = [tmp_path / name / again for again in ("first", "second")]
        for out in outs:
            argv = [name.rstrip("2"), "--config", path, "--out", str(out)]
            for checkpoint in checkpoints:
                argv += ["--checkpoint", checkpoint]
            assert run(argv) == 0
        files = sorted(os.listdir(outs[0]))
        assert files and files == sorted(os.listdir(outs[1]))
        for file in files:
            assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes(), (name, file)


def test_seed_flag_overrides_config(tmp_path):
    path, cfg = make_config(tmp_path)
    run(["train", "--config", path, "--seed", "41", "--out", str(tmp_path / "a")])
    with open(tmp_path / "a" / "ensemble.json") as f:
        ckpt = json.load(f)
    assert ckpt["seed"] == 41
    run(["train", "--config", path, "--out", str(tmp_path / "b")])
    with open(tmp_path / "b" / "ensemble.json") as f:
        other = json.load(f)
    assert other["seed"] == 7
    assert ckpt["members"] != other["members"]  # different init and batches


def test_train_on_idx_files(tmp_path):
    ds = data.gen_blobs(seed=3, n_per_class=20, num_classes=2, dim=4, separation=4.0)
    imgs, labs = str(tmp_path / "x.idx"), str(tmp_path / "y.idx")
    data.save_idx(ds, imgs, labs, rows=2, cols=2)
    path, cfg = make_config(
        tmp_path, dataset={"idx_images": imgs, "idx_labels": labs}
    )
    assert run(["train", "--config", path]) == 0
    assert os.path.exists(os.path.join(cfg["out"], "ensemble.json"))


def test_divergence_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    def blow_up(*a, **k):
        raise DivergenceError("epoch 0 batch 0: loss became non-finite")

    monkeypatch.setattr(training, "train", blow_up)
    path, _ = make_config(tmp_path)
    assert run(["train", "--config", path]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_real_divergence_exits_3(tmp_path, capsys):
    # no mock: a huge learning rate blows the parameters up after the first
    # step, and the next batch's forward pass turns non-finite
    train = dict(BASE["train"], lr=1e300)
    path, cfg = make_config(tmp_path, train=train)
    assert run(["train", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "epoch 0 batch 1" in err and "non-finite" in err
    assert not os.path.exists(os.path.join(cfg["out"], "ensemble.json"))


def test_idx_header_larger_than_file_exits_2(tmp_path, capsys):
    imgs, labs = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
    with open(imgs, "wb") as f:
        f.write(struct.pack(">IIII", data.IDX_IMAGES_MAGIC, *(3 * [0xFFFFFFFF])))
    with open(labs, "wb") as f:
        f.write(struct.pack(">II", data.IDX_LABELS_MAGIC, 0))
    path, _ = make_config(tmp_path, dataset={"idx_images": imgs, "idx_labels": labs})
    assert run(["train", "--config", path]) == 2
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize("which", [0, 1], ids=["images", "labels"])
def test_idx_file_longer_than_its_header_declares_exits_2(tmp_path, capsys, which):
    # a header that under-counts once loaded the records it declared and
    # dropped the rest without a word
    files = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
    ds = data.gen_blobs(seed=0, n_per_class=10, num_classes=3, dim=4, separation=3.0)
    data.save_idx(ds, *files, rows=2, cols=2)
    with open(files[which], "ab") as f:
        f.write(b"\x00")
    path, _ = make_config(tmp_path, dataset={"idx_images": files[0], "idx_labels": files[1]})
    assert run(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert files[which] in err and "1 byte(s) past the" in err


@pytest.mark.parametrize("count, rows, cols", [(0, 2, 2), (4, 0, 2), (4, 2, 0)])
def test_idx_header_with_a_zero_size_exits_2(tmp_path, capsys, count, rows, cols):
    imgs, labs = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
    with open(imgs, "wb") as f:
        f.write(struct.pack(">IIII", data.IDX_IMAGES_MAGIC, count, rows, cols))
        f.write(bytes(count * rows * cols))
    with open(labs, "wb") as f:
        f.write(struct.pack(">II", data.IDX_LABELS_MAGIC, count))
        f.write(bytes(count))
    path, _ = make_config(tmp_path, dataset={"idx_images": imgs, "idx_labels": labs})
    assert run(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert imgs in err and f"{count} images of {rows}x{cols} pixels" in err


def test_adp_with_more_members_than_classes_minus_one_exits_2(tmp_path, capsys):
    path, _ = make_config(
        tmp_path, model={"hidden": [8], "members": 3}, method={"name": "ADP"}
    )
    assert run(["train", "--config", path]) == 2
    assert "3 members for 3 classes" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def trained(tmp_path, **edits):
    path, cfg = make_config(tmp_path, **edits)
    assert run(["train", "--config", path]) == 0
    return path, cfg, os.path.join(cfg["out"], "ensemble.json")


def untrained_checkpoint(tmp_path):
    """A checkpoint of two fresh members that fits BASE's dataset."""
    path = str(tmp_path / "fresh.json")
    members = tuple(nn.init_model(4, [16], 3, seed) for seed in (1, 2))
    save_ensemble(Ensemble(members=members), path)
    return path


def test_eval_computes_each_natural_accuracy_once(tmp_path, monkeypatch):
    bim = {"family": "bim", "steps": 2, "epsilon": 0.05, "eta": 0.02}
    path, cfg = make_config(tmp_path, eval_attacks=dict(BASE["eval_attacks"], bim=bim))
    ckpt = untrained_checkpoint(tmp_path)
    clean = cli.build_dataset(cli.normalize_config(cfg)).inputs
    calls = []
    forward = nn.forward_cached

    def counted(model, batch, keep="inputs", **kwargs):
        if keep is None and np.array_equal(batch, clean):  # a plain forward of the clean batch
            calls.append(len(model))
        return forward(model, batch, keep, **kwargs)

    monkeypatch.setattr(nn, "forward_cached", counted)
    assert run(["eval", "--config", path, "--checkpoint", ckpt, "--out", str(tmp_path / "ev")]) == 0
    assert calls == [2]  # one stacked pass for f1, f2 and en, not one per target or attack
    rows = [read_lines(str(tmp_path / "ev" / f"eval_{name}.csv"))[2:] for name in ("pgd", "bim")]
    assert [r.split(",")[:2] for r in rows[0]] == [r.split(",")[:2] for r in rows[1]]


def test_eval_attacks_every_target_with_one_stacked_forward_per_step(tmp_path, monkeypatch):
    # PGD-3 against f1, f2 and en in lockstep: each step forwards the members
    # once per member target and once more for en (4 slots) in one pass, and
    # so does the final check; the clean batch takes one pass of the members
    path, cfg = make_config(tmp_path)
    ckpt = untrained_checkpoint(tmp_path)
    slots = []
    forward = nn.forward_cached

    def counted(model, batch, *args, **kwargs):
        slots.append(len(model))
        return forward(model, batch, *args, **kwargs)

    monkeypatch.setattr(nn, "forward_cached", counted)
    assert run(["eval", "--config", path, "--checkpoint", ckpt, "--out", str(tmp_path / "ev")]) == 0
    assert slots == [2] + [4] * 3 + [4]


def overflowing_checkpoint(tmp_path, threshold):
    """Two members over BASE's 4-d inputs and 3 classes whose logit 1 is
    x_3 plus 1e200 * relu(1e200 * (x_3 - threshold)) and whose other
    logits are 0: finite below the threshold, inf past it."""
    scale = 1e200
    w1 = np.zeros((4, 2))
    w1[3] = [1.0, scale]
    layers = (
        nn.Layer(w=w1, b=np.array([0.0, -scale * threshold]), act="relu"),
        nn.Layer(w=np.array([[1.0, 0.0], [0.0, scale]]), b=np.zeros(2), act="relu"),
        nn.Layer(w=np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]), b=np.zeros(3), act="id"),
    )
    path = str(tmp_path / "overflowing.json")
    members = tuple(nn.Model(layers=layers, num_classes=3, seed=s) for s in (0, 1))
    save_ensemble(Ensemble(members=members), path)
    return path


def test_eval_of_logits_that_overflow_mid_attack_exits_2(tmp_path, capsys):
    # the clean batch is finite, but the ascent of the rows of label 0 pushes
    # x_3 past the threshold, where the logits overflow: the softmax's
    # DomainError ends the lockstep search of all targets, as it ended f1's
    # lone attack
    path, cfg = make_config(tmp_path, model={"hidden": [2, 2], "members": 2})  # the checkpoint's
    x3 = cli.build_dataset(cli.normalize_config(cfg)).inputs[:, 3]
    assert x3.max() < 0.9
    ckpt = overflowing_checkpoint(tmp_path, threshold=x3.max() + 0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["eval", "--config", path, "--checkpoint", ckpt, "--out", str(tmp_path / "ev")]) == 2
    assert "softmax of non-finite logits" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "transfer", "detect", "surface"])
def test_a_non_finite_attack_gradient_exits_2_without_warnings(tmp_path, capsys, command):
    # no mock: on all-zero inputs the logits are of order 1, but the input
    # gradient runs through w2 and w1 at 1e450 / B and overflows at step 0.
    # That is a checkpoint unfit for the data (exit 2), not a diverged train
    # (3), and numpy's overflow warnings stay off stderr
    zeros = data.Dataset(inputs=np.zeros((30, 4)), labels=np.zeros(30, dtype=np.int64), num_classes=2,
                         name="zeros", seed=0)
    imgs, labs = str(tmp_path / "x.idx"), str(tmp_path / "y.idx")
    data.save_idx(zeros, imgs, labs, rows=2, cols=2)
    bim = {"family": "bim", "steps": 2, "epsilon": 0.05, "eta": 0.02}
    path, _ = make_config(tmp_path, dataset={"idx_images": imgs, "idx_labels": labs},
                          model={"hidden": [4], "members": 2}, eval_attacks={"bim": bim})
    w2 = 1e150 * np.array([[1.0, -1.0], [0.2, 0.3], [-1.0, 0.1], [0.6, -0.2]])
    layers = (nn.Layer(np.full((4, 4), 1e300), np.full(4, 1e-150)), nn.Layer(w2, np.zeros(2), "id"))
    ckpt = str(tmp_path / "overflowing.json")
    save_ensemble(Ensemble(members=tuple(nn.Model(layers=layers, num_classes=2, seed=s) for s in (0, 1))), ckpt)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--config", path, "--checkpoint", ckpt]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.splitlines() == ["error: non-finite attack gradient at step 0"]


@pytest.mark.parametrize(
    "keys, value",
    [
        (("members",), 5),
        (("members", 0, "layers"), 5),
        (("members", 0, "num_classes"), "x"),
        (("members", 0, "num_classes"), 2.7),
        (("members", 0, "num_classes"), True),
        (("members", 0, "seed"), "x"),
        (("members", 0, "seed"), -1),
        (("num_classes",), "x"),
        (("num_classes",), 7),
        (("members", 1, "layers"), nn.model_to_obj(nn.init_model(4, [8], 3, 0))["layers"]),
        (("members",), []),
        (("members", 1), nn.model_to_obj(nn.init_model(4, [16], 4, 0))),
        (("members", 1), nn.model_to_obj(nn.init_model(5, [16], 3, 0))),
    ],
)
def test_malformed_checkpoint_exits_2_naming_the_field(tmp_path, capsys, keys, value):
    # each once crashed with a TypeError (exit 1), raised a bare ValueError,
    # loaded 2.7 classes as 2, loaded members of two layer shapes or raised
    # a ConfigError for no members or a member of other classes or inputs
    field = keys[-1] if isinstance(keys[-1], str) else "layers"  # a whole member that disagrees
    path, _ = make_config(tmp_path)
    ckpt = untrained_checkpoint(tmp_path)
    with open(ckpt) as f:
        obj = json.load(f)
    block = obj
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    with open(ckpt, "w") as f:
        json.dump(obj, f)
    with pytest.raises(FormatError, match=f"'{field}'"):
        load_ensemble(ckpt)
    assert run(["eval", "--config", path, "--checkpoint", ckpt, "--out", str(tmp_path / "ev")]) == 2
    assert f"checkpoint field '{field}'" in capsys.readouterr().err


def test_eval_writes_member_and_ensemble_rows(tmp_path):
    path, cfg, ckpt = trained(tmp_path)
    out = str(tmp_path / "ev")
    assert run(["eval", "--config", path, "--checkpoint", ckpt, "--out", out]) == 0
    lines = read_lines(os.path.join(out, "eval_pgd.csv"))
    assert lines[1] == "model,nat_acc,rob_acc"
    names = [line.split(",")[0] for line in lines[2:]]
    assert names == ["f1", "f2", "en"]
    for line in lines[2:]:
        nat, rob = map(float, line.split(",")[1:])
        assert 0.0 <= rob <= nat <= 100.0


def test_eval_zero_budget_attack_matches_natural(tmp_path):
    zero = {"family": "pgd", "steps": 1, "epsilon": 0.0, "eta": 0.01, "random_start": False}
    path, cfg, ckpt = trained(tmp_path, eval_attacks={"zero": zero})
    out = str(tmp_path / "ev")
    assert run(["eval", "--config", path, "--checkpoint", ckpt, "--out", out]) == 0
    for line in read_lines(os.path.join(out, "eval_zero.csv"))[2:]:
        _, nat, rob = line.split(",")
        assert nat == rob


def test_eval_needs_exactly_one_checkpoint(tmp_path, capsys):
    path, cfg, ckpt = trained(tmp_path)
    assert run(["eval", "--config", path, "--out", str(tmp_path / "e")]) == 2
    assert (
        run(
            ["eval", "--config", path, "--checkpoint", ckpt, "--checkpoint", ckpt,
             "--out", str(tmp_path / "e")]
        )
        == 2
    )
    assert run(["eval", "--config", path, "--checkpoint", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "e")]) == 2


def test_checkpoint_dataset_mismatch_is_refused(tmp_path, capsys):
    path, cfg, ckpt = trained(tmp_path)
    other, _ = make_config(
        tmp_path,
        name="exp2.json",
        dataset={"generator": "blobs", "n_per_class": 10, "num_classes": 3,
                 "dim": 6, "separation": 3.0},
    )
    assert run(["eval", "--config", other, "--checkpoint", ckpt,
                "--out", str(tmp_path / "e")]) == 2
    assert "4-d" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "transfer", "detect", "surface"])
@pytest.mark.parametrize(
    "model, field",
    [({"hidden": [16], "members": 3}, "model.members"), ({"hidden": [8], "members": 2}, "model.hidden")],
    ids=["members", "hidden"],
)
def test_checkpoint_that_contradicts_the_model_block_exits_2(tmp_path, capsys, command, model, field):
    # a two-member [16] checkpoint against a config of three members or of
    # hidden [8] used to be evaluated as if it were that config's model
    path, _ = make_config(tmp_path, model=model)
    ckpt = untrained_checkpoint(tmp_path)
    assert run([command, "--config", path, "--checkpoint", ckpt, "--out", str(tmp_path / "a")]) == 2
    assert field in capsys.readouterr().err


# ---------------------------------------------------------------------------
# transfer


def test_transfer_single_ensemble_artifacts(tmp_path):
    path, cfg, ckpt = trained(tmp_path)
    ev, tr = str(tmp_path / "ev"), str(tmp_path / "tr")
    run(["eval", "--config", path, "--checkpoint", ckpt, "--out", ev])
    assert run(["transfer", "--config", path, "--checkpoint", ckpt, "--out", tr]) == 0

    lines = read_lines(os.path.join(tr, "transfer.csv"))
    assert lines[1] == "source,f1,f2,en"
    diag = {row.split(",")[0]: row.split(",")[1:] for row in lines[2:]}
    eval_rows = {
        line.split(",")[0]: line.split(",")[2]
        for line in read_lines(os.path.join(ev, "eval_pgd.csv"))[2:]
    }
    # white-box diagonal is the same experiment as the eval rob column
    assert diag["f1"][0] == eval_rows["f1"]
    assert diag["f2"][1] == eval_rows["f2"]
    assert diag["en"][2] == eval_rows["en"]

    with open(os.path.join(tr, "transfer_metrics.json")) as f:
        metrics = json.load(f)
    for key in ("T", "nT", "a_single", "a_en_en", "S11", "S01", "S10", "S00",
                "seed", "config_digest"):
        assert key in metrics
    parts = metrics["S11"] + metrics["S01"] + metrics["S10"] + metrics["S00"]
    assert abs(parts - 100.0) < 0.3  # four 1-decimal roundings
    assert abs(metrics["nT"] - (100.0 - metrics["a_en_en"] - metrics["S00"])) < 0.3
    assert abs(metrics["a_single"] - (metrics["a_en_en"] - metrics["S11"])) < 0.3
    lines = read_lines(os.path.join(tr, "partition.csv"))
    assert lines[0].startswith("# seed=7,")


def test_transfer_attacks_each_target_once(tmp_path, monkeypatch):
    # the partition reuses the ensemble's attacked batch from the cross matrix,
    # whose targets f1, f2 and en are the heads of one lockstep call
    path, cfg, ckpt = trained(tmp_path)
    seen = []
    together = analysis.run_heads

    def recording(heads, *args, **kwargs):
        seen.append(heads.groups)
        return together(heads, *args, **kwargs)

    monkeypatch.setattr(analysis, "run_attack", None)
    monkeypatch.setattr(cli, "run_attack", None)
    monkeypatch.setattr(analysis, "run_heads", recording)
    assert run(["transfer", "--config", path, "--checkpoint", ckpt, "--out", str(tmp_path / "tr")]) == 0
    assert seen == [((0,), (1,), (0, 1))]
    # two checkpoints: one head of each one's members, in one call too
    _, _, ckpt2 = trained(tmp_path, name="other.json", out="runs/other", seed=9)
    seen.clear()
    argv = ["transfer", "--config", path, "--checkpoint", ckpt, "--checkpoint", ckpt2]
    assert run(argv + ["--out", str(tmp_path / "tr2")]) == 0
    assert seen == [((0, 1), (2, 3))]


def test_transfer_scores_each_attacked_batch_once(tmp_path, monkeypatch):
    # an attacked batch is scored for every target from its attack's final
    # rows and one stacked pass of the members outside the attacked head:
    # the other member on f1's and f2's batches, none on en's (whose rows
    # also give the partition), the other checkpoint's members across
    # checkpoints; no target is forwarded on its own
    path, cfg, ckpt = trained(tmp_path)
    _, _, ckpt2 = trained(tmp_path, out="runs/other", seed=9)
    passes = []
    probs = analysis.member_probs
    monkeypatch.setattr(analysis, "member_probs", lambda t, x: passes.append(len(t)) or probs(t, x))
    monkeypatch.setattr(analysis, "predict_labels", None)
    monkeypatch.setattr(ensembles, "predict_labels", None)
    assert run(["transfer", "--config", path, "--checkpoint", ckpt, "--out", str(tmp_path / "tr")]) == 0
    assert passes == [1, 1]
    passes.clear()
    argv = ["transfer", "--config", path, "--checkpoint", ckpt, "--checkpoint", ckpt2, "--out", str(tmp_path / "tr2")]
    assert run(argv) == 0
    assert passes == [2, 2]


def test_transfer_across_checkpoints(tmp_path):
    path, cfg, ckpt = trained(tmp_path)
    path2, cfg2, ckpt2 = trained(tmp_path, out="runs/other", seed=9)
    tr = str(tmp_path / "tr2")
    assert (
        run(["transfer", "--config", path, "--checkpoint", ckpt,
             "--checkpoint", ckpt2, "--out", tr]) == 0
    )
    lines = read_lines(os.path.join(tr, "transfer.csv"))
    assert lines[1] == "source,c1,c2"
    with open(os.path.join(tr, "transfer_metrics.json")) as f:
        metrics = json.load(f)
    assert "T_1_2" in metrics and "nT" not in metrics
    assert not os.path.exists(os.path.join(tr, "partition.csv"))


def test_transfer_single_member_checkpoint_is_refused(tmp_path, capsys):
    path, cfg, ckpt = trained(
        tmp_path, model={"hidden": [16], "members": 1}, method={"name": "ADV"}
    )
    assert run(["transfer", "--config", path, "--checkpoint", ckpt,
                "--out", str(tmp_path / "t")]) == 2
    assert ">= 2 members" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# detect and surface


def test_detect_roc_and_summary(tmp_path):
    path, cfg, ckpt = trained(tmp_path)
    out = str(tmp_path / "de")
    assert run(["detect", "--config", path, "--checkpoint", ckpt, "--out", out]) == 0
    lines = read_lines(os.path.join(out, "detect_roc.csv"))
    assert lines[1] == "fpr,tpr"
    fprs = [float(l.split(",")[0]) for l in lines[2:]]
    tprs = [float(l.split(",")[1]) for l in lines[2:]]
    assert fprs[0] == 0.0 and tprs[0] == 0.0
    assert fprs[-1] == 1.0 and tprs[-1] == 1.0
    assert all(b >= a for a, b in zip(fprs, fprs[1:]))
    with open(os.path.join(out, "detect.json")) as f:
        summary = json.load(f)
    assert 0.0 <= summary["auc"] <= 1.0
    assert summary["seed"] == 7 and "config_digest" in summary
    assert abs(np.trapezoid(tprs, fprs) - summary["auc"]) < 1e-9


def test_detect_forwards_the_adversarial_batch_once(tmp_path, monkeypatch):
    # the attack's final check forwards the members on its batch, and detect
    # scores those rows: plain forwards of the final check and the clean batch
    path, cfg = make_config(tmp_path)
    ckpt = untrained_checkpoint(tmp_path)
    plain = []
    forward = nn.forward_cached

    def counted(model, batch, keep="inputs", **kwargs):
        plain.append(keep is None)
        return forward(model, batch, keep, **kwargs)

    monkeypatch.setattr(nn, "forward_cached", counted)
    assert run(["detect", "--config", path, "--checkpoint", ckpt, "--out", str(tmp_path / "de")]) == 0
    assert plain.count(True) == 2 and len(plain) == 3 + 2  # 3 attack steps, final check, clean batch


def test_surface_grid_csv(tmp_path):
    path, cfg, ckpt = trained(tmp_path)
    out = str(tmp_path / "su")
    assert run(["surface", "--config", path, "--checkpoint", ckpt, "--out", out]) == 0
    lines = read_lines(os.path.join(out, "surface.csv"))
    assert lines[1] == "i,j,loss,label"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 49  # (2*3+1)^2
    offsets = {(int(r[0]), int(r[1])) for r in rows}
    assert (0, 0) in offsets and (-3, 3) in offsets
    assert all(float(r[2]) >= 0.0 for r in rows)
    assert set(r[3] for r in rows) <= {"0", "1", "2"}


def test_surface_member_target_and_bad_index(tmp_path, capsys):
    path, cfg, ckpt = trained(
        tmp_path, surface={"radius_steps": 2, "step": 0.02, "index": 0, "target": "1"}
    )
    out = str(tmp_path / "su")
    assert run(["surface", "--config", path, "--checkpoint", ckpt, "--out", out]) == 0
    assert len(read_lines(os.path.join(out, "surface.csv"))) == 2 + 25
    bad, _ = make_config(
        tmp_path, name="bad_surface.json",
        surface={"radius_steps": 2, "step": 0.02, "index": 10**6, "target": "en"},
    )
    assert run(["surface", "--config", bad, "--checkpoint", ckpt,
                "--out", str(tmp_path / "s2")]) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["f1", "2", 2, -1, True, None])
def test_surface_target_naming_no_member_exits_2(tmp_path, capsys, target):
    # "f1" once failed with int()'s message; True was taken as member 1
    surface = dict(BASE["surface"], target=target)
    path, _ = make_config(tmp_path, surface=surface)
    ckpt = untrained_checkpoint(tmp_path)
    assert run(["surface", "--config", path, "--checkpoint", ckpt, "--out", str(tmp_path / "su")]) == 2
    assert "error: surface.target: must be 'en' or a member index in [0, 2)" in capsys.readouterr().err


def test_missing_required_flag_is_an_argparse_exit(tmp_path):
    with pytest.raises(SystemExit) as e:
        run(["train"])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "write, good, bad",
    [
        (write_json, {"a": 1}, {"a": 2, "b": object()}),  # json.dump fails after "a"
        (
            lambda path, rows: write_table(path, ("fpr", "tpr"), rows),
            [("0.0", "0.0"), ("1.0", "1.0")],
            [("0.5", "0.5"), ("1.0", 1.0)],  # the join fails on row 2
        ),
        (
            lambda path, meta: save_ensemble(Ensemble(members=(nn.init_model(2, [3], 2, 0),)), path, meta=meta),
            {"seed": 0},
            {"seed": 0, "z": object()},  # json.dump fails after the members
        ),
    ],
    ids=["json", "csv", "checkpoint"],
)
def test_failed_artifact_write_keeps_previous_file_and_leaves_no_tmp(tmp_path, write, good, bad):
    path = tmp_path / "artifact"
    write(str(path), good)
    before = path.read_bytes()
    with pytest.raises((TypeError, ValueError)):
        write(str(path), bad)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]
