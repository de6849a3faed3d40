"""Every path that writes or trains on a tree checks it exactly once, and
each of them still refuses a tree that is not valid: the transform-then-write
path, the harness's transform-then-train path, `parse()` output, and the
`udscheme transform` and `udscheme parse` commands. Trees read from a file
are checked where they are first used: by `udscheme train`, `metrics`,
`evaluate` (its gold file) and `transform`, and the harness's first cache
miss of a treebank. A tree read from a file, or rewritten from one, is
refused at `<file>:<line>` from the line kept on its sentence: the line the
reference walker finds by reading the file again."""

import collections
import dataclasses
import os
import random

import pytest

from udscheme import conllu, harness, transform
from udscheme.cli import main
from udscheme.conllu import (
    ConlluError,
    ValidationReport,
    check_trees,
    format_conllu,
    read_conllu_file,
    validate_tree,
    write_conllu_file,
)
from udscheme.harness import load_config, run_experiment
from udscheme.parsing import perceptron
from udscheme.transform import Transformation, apply_transformation

from helpers import random_conllu_sentence, ref_token_line_no
from synth import synth_corpus
from test_harness import write_config, write_treebank


def count_checks(monkeypatch) -> list:
    """Wrap validate_tree in the two modules that call it; returns the list
    of sentences it is called on (kept alive, so their ids stay distinct)."""
    checked = []
    real = conllu.validate_tree

    def counting(s):
        checked.append(s)
        return real(s)

    for module in (conllu, perceptron):
        monkeypatch.setattr(module, "validate_tree", counting)
    return checked


def checked_once(checked) -> bool:
    return set(collections.Counter(map(id, checked)).values()) == {1}


def break_transformations(monkeypatch, only=None):
    """Make every transformation leave a head cycle between tokens 1 and 2,
    of every sentence or of those with the comment `only` before token 1."""

    def broken(s, t, noun_labels):
        if only is not None and (0, only) not in s.other_lines:
            return s, 0, 0
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
    # the 10 trees read and the 10 transformed ones
    assert len(checked) == 20 and checked_once(checked)
    assert len(read_conllu_file(dst)) == 10


def test_transform_command_refuses_an_invalid_tree(tmp_path, capsys, monkeypatch):
    src = transform_input(tmp_path)
    break_transformations(monkeypatch)
    code, captured, dst = transform_command(tmp_path, capsys, src)
    assert code == 2 and captured.out == ""
    # refused at the input line of the token the violation names
    line = ref_token_line_no(src, 0, 1)
    assert captured.err == "udscheme: %s:%d: token 1 is caught in a head cycle\n" % (src, line)
    assert not os.path.exists(dst)


def test_transform_then_write_checks_once_and_refuses(monkeypatch):
    corpus = synth_corpus(10)
    checked = count_checks(monkeypatch)
    conllu.write_conllu(apply_transformation(corpus, Transformation.DET).sentences)
    assert len(checked) == 10 and checked_once(checked)
    break_transformations(monkeypatch)
    out = apply_transformation(corpus, Transformation.DET).sentences
    message = "sentence 0 is not a valid tree: token 1 is caught in a head cycle"
    for refuse in (conllu.write_conllu, conllu.check_trees):
        with pytest.raises(ValueError) as err:
            refuse(out)
        assert str(err.value) == message


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
    # the splits as read (8 + 3 + 4), the det scheme's splits (8 + 3 + 4) and
    # every parse() output: the dev set decoded after each of 2 epochs and
    # the test set, for both schemes
    assert len(checked) == 2 * (8 + 3 + 4) + 2 * (2 * 3 + 4)
    ids = set(map(id, checked))
    assert all(id(s) in ids for s in trained[0] + trained[1])


def test_harness_refuses_an_invalid_transformed_tree(tmp_path, monkeypatch):
    cfg = _grid(tmp_path)
    break_transformations(monkeypatch)
    report = run_experiment(cfg)
    assert report.trainings_executed == 1  # the UD scheme only
    path = cfg.treebanks[0].train
    message = "%s:%d: token 1 is caught in a head cycle" % (path, ref_token_line_no(path, 0, 1))
    assert report.errors == [("xx", "det", message)]


@pytest.mark.parametrize("split", ["train", "dev", "test"])
def test_harness_names_the_split_whose_transformed_tree_is_invalid(tmp_path, monkeypatch, split):
    cfg = _grid(tmp_path)
    path = getattr(cfg.treebanks[0], split)
    marked = [
        dataclasses.replace(s, other_lines=((0, "# broken"),)) if i == 1 else s
        for i, s in enumerate(read_conllu_file(path))
    ]
    write_conllu_file(path, marked)
    with open(path, encoding="utf-8") as f:
        line = f.read().split("\n").index("# broken") + 2  # token 1 follows the comment
    break_transformations(monkeypatch, only="# broken")
    report = run_experiment(cfg)
    assert report.trainings_executed == 1
    message = "%s:%d: token 1 is caught in a head cycle" % (path, line)
    assert report.errors == [("xx", "det", message)]


# heads 2, 1, 0: tokens 1 and 2 form a head cycle, token 3 is the root
CYCLE = "".join(
    "%d\tw%d\t_\tNOUN\t_\t_\t%d\t%s\t_\t_\n" % (i, i, h, "root" if h == 0 else "dep")
    for i, h in ((1, 2), (2, 1), (3, 0))
) + "\n"
# a valid sentence, two blank lines, then a sentence with two roots, tokens 1 and 3
TWO_ROOTS = (
    "# sent_id = 1\n1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n\n\n"
    "# sent_id = 2\n1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n"
    "3\tc\t_\tX\t_\t_\t0\troot\t_\t_\n\n"
)


def write_text(tmp_path, name, text) -> str:
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


@pytest.mark.parametrize(
    "text, line, message",
    [
        (CYCLE, 1, "token 1 is caught in a head cycle"),
        (TWO_ROOTS, 9, "tokens [1, 3] all have head 0"),
    ],
)
def test_commands_refuse_a_read_tree_with_line(tmp_path, capsys, text, line, message):
    bad = write_text(tmp_path, "bad.conllu", text)
    good = str(tmp_path / "good.conllu")
    write_conllu_file(good, synth_corpus(5))
    model_p, out_p = str(tmp_path / "model.txt"), str(tmp_path / "out.conllu")
    for argv in (
        ["metrics", "--input", bad],
        ["train", "--train", bad, "--model", model_p, "--epochs", "1"],
        ["train", "--train", good, "--dev", bad, "--model", model_p, "--epochs", "1"],
        ["evaluate", "--gold", bad, "--pred", good],
        ["transform", "--input", bad, "--output", out_p, "--transformation", "det"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "udscheme: %s:%d: %s\n" % (bad, line, message)
    assert not os.path.exists(model_p) and not os.path.exists(out_p)


def test_harness_refuses_a_read_tree_and_checks_only_on_a_miss(tmp_path, monkeypatch):
    cfg = _grid(tmp_path)
    checked = count_checks(monkeypatch)
    assert run_experiment(cfg).errors == []
    cold = len(checked)
    # a fully cached rerun checks no tree: none is read for training
    assert run_experiment(cfg).trainings_executed == 0 and len(checked) == cold

    bad = write_text(tmp_path, "bad.conllu", CYCLE)
    cfg.treebanks[0] = dataclasses.replace(cfg.treebanks[0], dev=bad)
    report = run_experiment(cfg)
    assert report.trainings_executed == 0 and report.rows == []
    assert report.errors == [("xx", "*", "%s:1: token 1 is caught in a head cycle" % bad)]


def test_a_read_tree_is_placed_without_reading_the_file_again(tmp_path):
    path = write_text(tmp_path, "bad.conllu", TWO_ROOTS)
    sentences = read_conllu_file(path)
    os.remove(path)
    with pytest.raises(ConlluError) as err:
        check_trees(sentences, path)
    assert str(err.value) == "%s:9: tokens [1, 3] all have head 0" % path
    # the line is carried by a rewrite, and takes no part in == or repr
    s = sentences[1]
    rewritten = s.with_arcs(s.heads(), s.deprels())
    assert rewritten.line_no == s.line_no == 5 and rewritten.token_line(3) == 9
    assert s == dataclasses.replace(s, line_no=0) and "line_no" not in repr(s)


# the shapes whose sentences parse_conllu reads and validate_tree may refuse,
# and those it refuses itself, at a token's line
READABLE_SHAPES = ("tree", "chain", "cycle", "multi-root", "no-root", "empty-deprel")
UNREADABLE_SHAPES = ("self-loop", "head-range")


def random_file(rng, path, sentences) -> None:
    """Write the sentences as a CoNLL-U file with leading blank lines, runs
    of blank lines between blocks, \\n, \\r\\n or \\r line ends, and at
    times no line end after the last line."""
    lines = [""] * rng.randint(0, 2)
    for s in sentences:
        lines += format_conllu([s]).split("\n")[:-1]  # the block and its blank line
        lines += [""] * rng.randint(0, 2)
    # one kind per file: "\r" then "\n" would read as one line end
    newline = rng.choice(["\n", "\r\n", "\r"])
    text = "".join(line + newline for line in lines)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def test_every_invalid_read_tree_is_placed_at_the_reference_line(tmp_path):
    rng = random.Random(2026)
    path = str(tmp_path / "random.conllu")
    placed = 0
    for _ in range(150):
        sentences = []
        for _ in range(rng.randint(1, 6)):
            shape = rng.choice(READABLE_SHAPES)
            # one token without a root arc is its own head, which parse_conllu refuses
            n = rng.randint(1 if shape == "tree" else 2, 9)
            sentences.append(random_conllu_sentence(rng, n, shape))
        random_file(rng, path, sentences)
        read = read_conllu_file(path)
        assert read == sentences
        first_bad = None
        for idx, s in enumerate(read):
            report = validate_tree(s)
            if report.ok:
                check_trees([s], path)
                continue
            line = ref_token_line_no(path, idx, report.violations[0][0] or 1)
            with pytest.raises(ConlluError) as err:
                check_trees([s], path)
            assert (err.value.path, err.value.line_no) == (path, line)
            assert err.value.message == report.violations[0][2]
            first_bad = line if first_bad is None else first_bad
            placed += 1
        if first_bad is not None:
            with pytest.raises(ConlluError) as err:
                check_trees(read, path)
            assert err.value.line_no == first_bad
    assert placed > 100


def test_a_head_parse_conllu_refuses_is_placed_at_the_reference_line(tmp_path):
    rng = random.Random(7)
    path = str(tmp_path / "random.conllu")
    for _ in range(100):
        sentences = [random_conllu_sentence(rng, rng.randint(2, 9), "tree") for _ in range(4)]
        idx = rng.randrange(len(sentences))
        sentences[idx] = random_conllu_sentence(
            rng, rng.randint(2, 9), rng.choice(UNREADABLE_SHAPES)
        )
        random_file(rng, path, sentences)
        n = len(sentences[idx])
        bad = next(t.id for t in sentences[idx].tokens if not 0 <= t.head <= n or t.head == t.id)
        with pytest.raises(ConlluError) as err:
            read_conllu_file(path)
        assert (err.value.path, err.value.line_no) == (path, ref_token_line_no(path, idx, bad))
