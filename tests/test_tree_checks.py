"""Every path that writes or trains on a tree checks it exactly once, and
each of them still refuses a tree that is not valid: the transform-then-write
path, the harness's transform-then-train path, `parse()` output, and the
`udscheme transform` and `udscheme parse` commands."""

import collections
import os
import sys

import pytest

from udscheme import conllu, harness, transform
from udscheme.cli import main
from udscheme.conllu import ValidationReport, read_conllu_file, write_conllu_file
from udscheme.harness import load_config, run_experiment
from udscheme.parsing import perceptron
from udscheme.transform import Transformation, apply_transformation

from synth import synth_corpus
from test_harness import write_config, write_treebank


def count_checks(monkeypatch) -> list:
    """Wrap validate_tree wherever udscheme binds it; returns the list of
    sentences it is called on (kept alive, so their ids stay distinct)."""
    checked = []
    real = conllu.validate_tree

    def counting(s):
        checked.append(s)
        return real(s)

    for name, module in list(sys.modules.items()):
        if name.startswith("udscheme") and getattr(module, "validate_tree", None) is real:
            monkeypatch.setattr(module, "validate_tree", counting)
    return checked


def checked_once(checked) -> bool:
    return set(collections.Counter(map(id, checked)).values()) == {1}


def break_transformations(monkeypatch):
    """Make every transformation leave a head cycle between tokens 1 and 2."""

    def broken(s, t, noun_labels):
        heads = s.heads()
        heads[1], heads[2] = 2, 1
        return s.with_arcs(heads, s.deprels()), 1, 0

    monkeypatch.setattr(transform, "_dispatch", broken)


def transform_input(tmp_path, n=10):
    src = str(tmp_path / "in.conllu")
    write_conllu_file(src, synth_corpus(n))
    return src


def transform_command(tmp_path, capsys, src):
    dst = str(tmp_path / "out.conllu")
    code = main(["transform", "--input", src, "--output", dst, "--transformation", "det"])
    return code, capsys.readouterr(), dst


def test_transform_command_checks_each_tree_once(tmp_path, capsys, monkeypatch):
    src = transform_input(tmp_path)
    checked = count_checks(monkeypatch)
    code, _, dst = transform_command(tmp_path, capsys, src)
    assert code == 0
    assert len(checked) == 10 and checked_once(checked)
    assert len(read_conllu_file(dst)) == 10


def test_transform_command_refuses_an_invalid_tree(tmp_path, capsys, monkeypatch):
    src = transform_input(tmp_path)
    break_transformations(monkeypatch)
    code, captured, dst = transform_command(tmp_path, capsys, src)
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "udscheme: sentence 0: det left an invalid tree: token 1 is caught in a head cycle\n"
    )
    assert not os.path.exists(dst)


def test_transform_then_write_checks_once_and_refuses(monkeypatch):
    corpus = synth_corpus(10)
    checked = count_checks(monkeypatch)
    conllu.write_conllu(apply_transformation(corpus, Transformation.DET).sentences)
    assert len(checked) == 10 and checked_once(checked)
    break_transformations(monkeypatch)
    out = apply_transformation(corpus, Transformation.DET).sentences
    with pytest.raises(ValueError, match="sentence 0 is not a valid tree"):
        conllu.write_conllu(out)
    with pytest.raises(transform.TransformError, match="sentence 0: det left an invalid tree"):
        transform.check_trees(out, Transformation.DET)


def parse_inputs(tmp_path):
    model_p, test_p = str(tmp_path / "model.txt"), str(tmp_path / "test.conllu")
    model = perceptron.train(synth_corpus(20), None, perceptron.Hyperparameters(epochs=1), 1)
    perceptron.save_model(model, model_p)
    write_conllu_file(test_p, synth_corpus(10, seed=777))
    return model_p, test_p


def parse_command(tmp_path, capsys, model_p, test_p):
    pred_p = str(tmp_path / "pred.conllu")
    code = main(["parse", "--model", model_p, "--input", test_p, "--output", pred_p])
    return code, capsys.readouterr(), pred_p


def test_parse_command_checks_each_tree_once(tmp_path, capsys, monkeypatch):
    inputs = parse_inputs(tmp_path)
    checked = count_checks(monkeypatch)
    code, _, pred_p = parse_command(tmp_path, capsys, *inputs)
    assert code == 0
    assert len(checked) == 10 and checked_once(checked)
    assert len(read_conllu_file(pred_p)) == 10


def test_parse_command_refuses_an_invalid_tree(tmp_path, capsys, monkeypatch):
    inputs = parse_inputs(tmp_path)
    broken = ValidationReport(False, ((1, "cycle", "token 1 is caught in a head cycle"),))
    monkeypatch.setattr(perceptron, "validate_tree", lambda s: broken)
    with pytest.raises(RuntimeError, match="decoding produced an invalid tree"):
        parse_command(tmp_path, capsys, *inputs)
    assert not os.path.exists(str(tmp_path / "pred.conllu"))


def _grid(tmp_path):
    paths = write_treebank(tmp_path, n_train=8, n_dev=3, n_test=4)
    return load_config(
        write_config(tmp_path, paths, str(tmp_path / "out"), seeds="1", transformations="det", epochs=2)
    )


def test_harness_checks_each_transformed_tree_once(tmp_path, monkeypatch):
    trained = []
    real_train = harness.train

    def recording_train(train_set, *args, **kwargs):
        trained.append(train_set)
        return real_train(train_set, *args, **kwargs)

    monkeypatch.setattr(harness, "train", recording_train)
    cfg = _grid(tmp_path)
    checked = count_checks(monkeypatch)
    report = run_experiment(cfg)
    assert report.errors == [] and report.trainings_executed == 2
    assert checked_once(checked)
    # the det scheme's splits (8 + 3 + 4) and every parse() output: the dev
    # set decoded after each of 2 epochs and the test set, for both schemes
    assert len(checked) == (8 + 3 + 4) + 2 * (2 * 3 + 4)
    ids = set(map(id, checked))
    assert all(id(s) in ids for s in trained[1])


def test_harness_refuses_an_invalid_transformed_tree(tmp_path, monkeypatch):
    cfg = _grid(tmp_path)
    break_transformations(monkeypatch)
    report = run_experiment(cfg)
    assert report.trainings_executed == 1  # the UD scheme only
    assert report.errors == [
        ("xx", "det", "sentence 0: det left an invalid tree: token 1 is caught in a head cycle")
    ]
