"""Golden bytes of every artifact writer on fixed inputs: each table, the
JSON framing and the checkpoint round trip are pinned to literal text, so
a change to a writer's framing or cell formatting shows here."""

import json
from types import SimpleNamespace

import numpy as np

from advens import analysis, cli, data, ensembles, nn, training
from advens.atomic import write_json

PRE = "# seed=3, config_digest=0123456789abcdef\n"


def text(path):
    with open(path, newline="") as f:
        return f.read()


def test_report_csv(tmp_path):
    terms = [
        {"clean_ce": 0.5, "dpo_ce": 1 / 3, "cpo_ce": 0.0, "do_h": 2.25},
        {"clean_ce": 1e-17, "dpo_ce": 0.1, "cpo_ce": 7.0, "do_h": 0.2},
    ]
    report = SimpleNamespace(epochs=(
        training.EpochStats(epoch=0, member_terms=tuple(terms), nat_acc=50.0, rob_acc=12.5),
        training.EpochStats(epoch=1, member_terms=tuple(terms[::-1]), nat_acc=200 / 3, rob_acc=0.0),
    ))
    path = tmp_path / "report.csv"
    training.save_report_csv(report, path, preamble=PRE)
    assert text(path) == PRE + (
        "epoch,member,clean_ce,dpo_ce,cpo_ce,do_h,nat_acc,rob_acc\n"
        "0,0,0.5,0.3333333333333333,0.0,2.25,50.0,12.5\n"
        "0,1,1e-17,0.1,7.0,0.2,50.0,12.5\n"
        "1,0,1e-17,0.1,7.0,0.2,66.66666666666667,0.0\n"
        "1,1,0.5,0.3333333333333333,0.0,2.25,66.66666666666667,0.0\n"
    )
    training.save_report_csv(report, path)  # no preamble
    assert text(path).startswith("epoch,member,")


def test_cross_csv(tmp_path):
    matrix = analysis.CrossMatrix(a=[[12.25, 100.0, 0.0], [33.35, 66.66, 5.0], [99.95, 0.04, 50.0]],
                                  labels=("f1", "f2", "en"))
    path = tmp_path / "transfer.csv"
    analysis.save_cross_csv(matrix, path, preamble=PRE)
    assert text(path) == PRE + (
        "source,f1,f2,en\n"
        "f1,12.2,100.0,0.0\n"
        "f2,33.4,66.7,5.0\n"
        "en,100.0,0.0,50.0\n"
    )


def test_detection_csv(tmp_path):
    report = SimpleNamespace(fpr=np.array([0.0, 1 / 3, 1.0]), tpr=np.array([0.0, 0.5, 1.0]))
    path = tmp_path / "detect_roc.csv"
    analysis.save_detection_csv(report, path, preamble=PRE)
    assert text(path) == PRE + "fpr,tpr\n0.0,0.0\n0.3333333333333333,0.5\n1.0,1.0\n"


def test_surface_csv(tmp_path):
    grid = SimpleNamespace(
        radius_steps=1,
        losses=np.array([[0.1, 0.2, 0.3], [1 / 3, 0.0, 2.0], [1e-20, 5.5, 7.0]]),
        labels=np.array([[0, 1, 2], [2, 1, 0], [1, 1, 1]]),
    )
    path = tmp_path / "surface.csv"
    analysis.save_surface_csv(grid, path, preamble=PRE)
    assert text(path) == PRE + (
        "i,j,loss,label\n"
        "-1,-1,0.1,0\n-1,0,0.2,1\n-1,1,0.3,2\n"
        "0,-1,0.3333333333333333,2\n0,0,0.0,1\n0,1,2.0,0\n"
        "1,-1,1e-20,1\n1,0,5.5,1\n1,1,7.0,1\n"
    )


def test_partition_csv(tmp_path):
    part = SimpleNamespace(assignments=np.array(["S11", "S01", "S10", "S00", "S11"]))
    path = tmp_path / "partition.csv"
    ensembles.save_partition_csv(part, path, preamble=PRE)
    assert text(path) == PRE + "example_id,tag\n0,S11\n1,S01\n2,S10\n3,S00\n4,S11\n"


def test_eval_table(tmp_path, monkeypatch):
    cfg = {
        "dataset": {"generator": "blobs", "n_per_class": 4, "num_classes": 3, "dim": 2, "separation": 3.0},
        "model": {"hidden": [4], "members": 2},
        "method": {"name": "RM"},
        "train": {"epochs": 1, "batch_size": 4, "lr": 0.03,
                  "attack": {"family": "pgd", "steps": 1, "epsilon": 0.05, "eta": 0.02}},
        "eval_attacks": {"pgd": {"family": "pgd", "steps": 1, "epsilon": 0.05, "eta": 0.02}},
        "out": str(tmp_path / "out"),
        "seed": 3,
    }
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(cfg))
    ckpt = str(tmp_path / "ensemble.json")
    ensembles.save_ensemble(training.init_ensemble(2, [4], 3, 2, seed=0), ckpt)
    # fixed accuracies, so the table pins the framing and the .1f cells
    nats, robs = iter([12.25, 50.0, 99.95]), iter([0.0, 100 / 3, 66.65])
    monkeypatch.setattr(analysis, "natural_accuracy", lambda *a: next(nats))
    monkeypatch.setattr(analysis, "robust_accuracy", lambda *a: next(robs))
    assert cli.main(["eval", "--config", str(config), "--checkpoint", ckpt]) == 0
    assert text(tmp_path / "out" / "eval_pgd.csv") == (
        "# seed=3, config_digest=b7a975620da47fdd\n"
        "model,nat_acc,rob_acc\n"
        "f1,12.2,0.0\n"
        "f2,50.0,33.3\n"
        "en,100.0,66.7\n"
    )


def test_json(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"b": [1, 2.5, 1 / 3], "a": {"z": True, "y": None}, "c": "s"})
    assert text(path) == (
        "{\n"
        '  "a": {\n'
        '    "y": null,\n'
        '    "z": true\n'
        "  },\n"
        '  "b": [\n'
        "    1,\n"
        "    2.5,\n"
        "    0.3333333333333333\n"
        "  ],\n"
        '  "c": "s"\n'
        "}\n"
    )


def test_checkpoint_round_trip(tmp_path):
    members = tuple(
        nn.Model(layers=(nn.Layer(w=np.array([[0.5, -1 / 3], [2.0, 0.0]]) * s, b=np.array([0.1, -0.2]), act="relu"),
                         nn.Layer(w=np.array([[1.0, 0.25, -4.0], [1e-17, 3.0, 0.5]]), b=np.zeros(3), act="id")),
                 num_classes=3, seed=s)
        for s in (1, 2)
    )
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    ensembles.save_ensemble(ensembles.Ensemble(members=members), first, meta={"seed": 3, "config_digest": "ab"})
    expected = (
        '{"members": ['
        '{"layers": [{"w": [[0.5, -0.3333333333333333], [2.0, 0.0]], "b": [0.1, -0.2], "act": "relu"}, '
        '{"w": [[1.0, 0.25, -4.0], [1e-17, 3.0, 0.5]], "b": [0.0, 0.0, 0.0], "act": "id"}], '
        '"num_classes": 3, "seed": 1}, '
        '{"layers": [{"w": [[1.0, -0.6666666666666666], [4.0, 0.0]], "b": [0.1, -0.2], "act": "relu"}, '
        '{"w": [[1.0, 0.25, -4.0], [1e-17, 3.0, 0.5]], "b": [0.0, 0.0, 0.0], "act": "id"}], '
        '"num_classes": 3, "seed": 2}], '
        '"num_classes": 3, "seed": 3, "config_digest": "ab"}'
    )
    assert text(first) == expected
    ensembles.save_ensemble(ensembles.load_ensemble(first), second, meta={"seed": 3, "config_digest": "ab"})
    assert text(second) == expected
