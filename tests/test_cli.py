"""Experiment runner: config handling, artifacts, reproducibility, exits."""

import copy
import json
import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from advens import analysis, cli, data, training
from advens.errors import ConfigError, DivergenceError

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


def test_digest_ignores_out_but_tracks_seed(tmp_path):
    path, _ = make_config(tmp_path)
    a = cli.parse_config(path)
    b = cli.parse_config(path, out_override=str(tmp_path / "elsewhere"))
    c = cli.parse_config(path, seed_override=8)
    assert cli.config_digest(a) == cli.config_digest(b)
    assert cli.config_digest(a) != cli.config_digest(c)


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
    ]
    for edits, fragment in cases:
        path, _ = make_config(tmp_path, name="bad.json", **edits)
        with pytest.raises(ConfigError, match=fragment):
            cli.parse_config(path)


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
    # the partition reuses the ensemble's attacked batch from the cross matrix
    path, cfg, ckpt = trained(tmp_path)
    seen = []
    attack = analysis.run_attack

    def recording(target, *args, **kwargs):
        seen.append(type(target).__name__)
        return attack(target, *args, **kwargs)

    monkeypatch.setattr(analysis, "run_attack", recording)
    monkeypatch.setattr(cli, "run_attack", recording)
    tr = str(tmp_path / "tr")
    assert run(["transfer", "--config", path, "--checkpoint", ckpt, "--out", tr]) == 0
    assert seen == ["Model", "Model", "Ensemble"]


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


def test_missing_required_flag_is_an_argparse_exit(tmp_path):
    with pytest.raises(SystemExit) as e:
        run(["train"])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "write, good, bad",
    [
        (cli._write_json, {"a": 1}, {"a": 2, "b": object()}),  # json.dump fails after "a"
        (
            lambda path, report: analysis.save_detection_csv(report, path),
            SimpleNamespace(fpr=[0.0, 1.0], tpr=[0.0, 1.0]),
            SimpleNamespace(fpr=[0.5, "x"], tpr=[0.5, 1.0]),  # float("x") fails on row 2
        ),
    ],
    ids=["json", "csv"],
)
def test_failed_artifact_write_keeps_previous_file_and_leaves_no_tmp(tmp_path, write, good, bad):
    path = tmp_path / "artifact"
    write(str(path), good)
    before = path.read_bytes()
    with pytest.raises((TypeError, ValueError)):
        write(str(path), bad)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]
