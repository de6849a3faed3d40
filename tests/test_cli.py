import json
import os

import pytest

from udscheme.cli import main
from udscheme.conllu import read_conllu_file, write_conllu, write_conllu_file
from udscheme.parsing import perceptron
from udscheme.parsing.perceptron import load_model, parse

from helpers import make_sentence
from synth import synth_corpus
from test_conllu import OUTSIDE_THE_TREE
from test_harness import write_config, write_treebank


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_transform_command(tmp_path, capsys):
    src = str(tmp_path / "in.conllu")
    dst = str(tmp_path / "out.conllu")
    write_conllu_file(src, synth_corpus(10))
    code, out = run(
        capsys, "transform", "--input", src, "--output", dst,
        "--transformation", "det",
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["changed"] is True and stats["arcs_rewritten"] > 0
    assert os.path.exists(dst)
    assert len(read_conllu_file(dst)) == 10


def test_transform_refuses_a_multiword_line_out_of_place(tmp_path, capsys):
    src, dst = str(tmp_path / "in.conllu"), str(tmp_path / "out.conllu")
    with open(src, "w", encoding="utf-8") as f:
        f.write(
            "1\tA\t_\tX\t_\t_\t0\troot\t_\t_\n"
            "5-6\tzz\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n\n"
        )
    code = main(["transform", "--input", src, "--output", dst, "--transformation", "det"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "udscheme: %s:2: multiword range '5-6' does not start at token 2\n" % src
    assert not os.path.exists(dst)


def test_transform_copula_label_override(tmp_path, capsys):
    src = str(tmp_path / "in.conllu")
    dst = str(tmp_path / "out.conllu")
    write_conllu_file(src, synth_corpus(10))
    code, out = run(
        capsys, "transform", "--input", src, "--output", dst,
        "--transformation", "copula", "--copula-noun-labels", "det,amod",
    )
    assert code == 0
    assert json.loads(out)["changed"] is True


def test_commands_keep_the_lines_outside_the_tree(tmp_path, capsys):
    """A transformation that changes nothing writes the file back byte for
    byte, and one that changes arcs, like a parse, keeps every comment,
    multiword line and empty node in place; train and metrics read the file."""
    src, dst = tmp_path / "in.conllu", tmp_path / "out.conllu"
    model_p, pred_p = str(tmp_path / "model.txt"), str(tmp_path / "pred.conllu")
    src.write_text(OUTSIDE_THE_TREE, encoding="utf-8")
    code, out = run(capsys, "transform", "--input", str(src), "--output", str(dst),
                    "--transformation", "name")
    assert code == 0 and json.loads(out)["changed"] is False
    assert dst.read_bytes() == src.read_bytes()
    code, out = run(capsys, "transform", "--input", str(src), "--output", str(dst),
                    "--transformation", "det")
    assert code == 0 and json.loads(out)["changed"] is True
    assert run(capsys, "train", "--train", str(src), "--model", model_p, "--epochs", "1")[0] == 0
    assert run(capsys, "parse", "--model", model_p, "--input", str(src),
               "--output", pred_p)[0] == 0
    want = [s.other_lines for s in read_conllu_file(str(src))]
    for path in (str(dst), pred_p):
        assert [s.other_lines for s in read_conllu_file(path)] == want
    code, out = run(capsys, "metrics", "--input", str(src))
    assert code == 0 and json.loads(out)["distance"] > 0


def test_train_parse_evaluate_roundtrip(tmp_path, capsys):
    train_p = str(tmp_path / "train.conllu")
    test_p = str(tmp_path / "test.conllu")
    model_p = str(tmp_path / "model.txt")
    pred_p = str(tmp_path / "pred.conllu")
    write_conllu_file(train_p, synth_corpus(30))
    write_conllu_file(test_p, synth_corpus(10, seed=777))
    code, _ = run(
        capsys, "train", "--train", train_p, "--model", model_p,
        "--epochs", "3", "--seed", "1",
    )
    assert code == 0 and os.path.exists(model_p)
    code, _ = run(capsys, "parse", "--model", model_p, "--input", test_p,
                  "--output", pred_p)
    assert code == 0
    code, out = run(capsys, "evaluate", "--gold", test_p, "--pred", pred_p)
    assert code == 0
    scores = json.loads(out)
    assert 0.0 <= scores["uas"] <= 100.0
    assert scores["correct"] <= scores["total"]


def test_parse_shares_one_hash_memo_across_sentences(tmp_path, capsys, monkeypatch):
    train_p = str(tmp_path / "train.conllu")
    test_p = str(tmp_path / "test.conllu")
    model_p = str(tmp_path / "model.txt")
    pred_p = str(tmp_path / "pred.conllu")
    write_conllu_file(train_p, synth_corpus(20))
    test = synth_corpus(12, seed=777)
    write_conllu_file(test_p, test)
    assert run(capsys, "train", "--train", train_p, "--model", model_p,
               "--epochs", "2", "--seed", "1")[0] == 0
    model = load_model(model_p)
    alone = write_conllu([parse(model, s) for s in test])

    hashed: list[str] = []
    real = perceptron.fnv1a64

    def counting(x: str) -> int:
        hashed.append(x)
        return real(x)

    monkeypatch.setattr(perceptron, "fnv1a64", counting)
    code, _ = run(capsys, "parse", "--model", model_p, "--input", test_p,
                  "--output", pred_p)
    assert code == 0
    with open(pred_p, encoding="utf-8") as f:
        assert f.read() == alone
    shared = list(hashed)
    assert len(shared) == len(set(shared))
    # a memo per sentence hashes the same strings, some of them repeatedly
    hashed.clear()
    for s in test:
        parse(model, s)
    assert set(hashed) == set(shared)
    assert len(hashed) > len(shared)


def test_metrics_command_json_and_tsv(tmp_path, capsys):
    src = str(tmp_path / "in.conllu")
    write_conllu_file(src, synth_corpus(10))
    code, out = run(capsys, "metrics", "--input", src)
    assert code == 0
    fields = json.loads(out)
    assert set(fields) == {
        "distance",
        "predictability_bits",
        "derivation_perplexity",
        "derivation_complexity",
    }
    code, out = run(capsys, "metrics", "--input", src, "--out", "tsv")
    assert code == 0
    header, values = out.splitlines()
    assert header.split("\t")[0] == "distance"
    assert len(values.split("\t")) == 4


def test_experiment_command(tmp_path, capsys):
    paths = write_treebank(tmp_path, n_train=20, n_dev=5, n_test=5)
    out_dir = str(tmp_path / "out")
    cfg = write_config(tmp_path, paths, out_dir, seeds="1",
                       transformations="det case")
    code, out = run(capsys, "experiment", "--config", cfg)
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["rows"] == 2
    assert os.path.exists(os.path.join(out_dir, "summary.json"))


def run_failing(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_truncated_model_file_is_one_line_error(tmp_path, capsys):
    model_p = str(tmp_path / "model.txt")
    src = str(tmp_path / "in.conllu")
    write_conllu_file(src, synth_corpus(2))
    with open(model_p, "w", encoding="utf-8") as f:
        f.write("# udscheme-model v1\n")
    code, err = run_failing(
        capsys, "parse", "--model", model_p, "--input", src,
        "--output", str(tmp_path / "out.conllu"),
    )
    assert code == 2
    assert err == "udscheme: %s:2: missing labels line\n" % model_p


def test_repeated_model_label_is_one_line_error(tmp_path, capsys):
    model_p = str(tmp_path / "model.txt")
    src = str(tmp_path / "in.conllu")
    write_conllu_file(src, synth_corpus(2))
    with open(model_p, "w", encoding="utf-8") as f:
        f.write("# udscheme-model v1\nlabels\tdet,det\n")
    code, err = run_failing(
        capsys, "parse", "--model", model_p, "--input", src,
        "--output", str(tmp_path / "out.conllu"),
    )
    assert code == 2
    assert err == "udscheme: %s:2: label 'det' is listed twice\n" % model_p


def test_malformed_conllu_input_is_one_line_error(tmp_path, capsys):
    src = str(tmp_path / "bad.conllu")
    with open(src, "w", encoding="utf-8") as f:
        f.write("1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n\n2\tb\t_\tX\n\n")
    code, err = run_failing(capsys, "metrics", "--input", src)
    assert code == 2
    assert err == "udscheme: %s:3: expected 10 columns, got 4\n" % src


def test_missing_input_file_is_one_line_error(tmp_path, capsys):
    src = str(tmp_path / "absent.conllu")
    code, err = run_failing(capsys, "metrics", "--input", src)
    assert code == 2
    assert err == "udscheme: %s: No such file or directory\n" % src


def test_non_utf8_input_is_one_line_error(tmp_path, capsys):
    src = str(tmp_path / "utf16.conllu")
    with open(src, "wb") as f:
        f.write(b"\xff\xfe")
    code, err = run_failing(capsys, "metrics", "--input", src)
    assert code == 2
    assert err == "udscheme: %s:1: byte 0xff is not UTF-8\n" % src
    # the line of the first bad byte, after valid lines
    with open(src, "wb") as f:
        f.write(b"# ok\n# ok\r\n# caf\xe9\n")
    code, err = run_failing(capsys, "metrics", "--input", src)
    assert code == 2
    assert err == "udscheme: %s:3: byte 0xe9 is not UTF-8\n" % src


def test_config_without_experiment_section_is_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[parser]\nepochs = 1\n")
    code, err = run_failing(capsys, "experiment", "--config", str(cfg))
    assert code == 2
    assert err == "udscheme: %s: no [experiment] section\n" % cfg


def test_treebank_section_without_split_is_one_line_error(tmp_path, capsys):
    paths = write_treebank(tmp_path, n_train=4, n_dev=2, n_test=2)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\noutput_dir = %s\n[treebank:xx]\ntrain = %s\ntest = %s\n"
        % (tmp_path / "out", paths["train"], paths["test"])
    )
    code, err = run_failing(capsys, "experiment", "--config", str(cfg))
    assert code == 2
    assert err == "udscheme: %s: [treebank:xx] has no 'dev' key\n" % cfg


@pytest.mark.parametrize(
    "experiment, parser, message",
    [
        ("seeds = 1 x", "", "[experiment] seeds: 'x' is not an integer"),
        ("seeds =", "", "[experiment] seeds: no seeds given"),
        ("seeds = 3 1 3", "", "[experiment] seeds: seed 3 is listed twice"),
        (
            "transformations = det case det",
            "",
            "[experiment] transformations: 'det' is listed twice",
        ),
        (
            "transformations = det foo",
            "",
            "[experiment] transformations: 'foo' is not a transformation "
            "(one of: case mark det mwe name copula coordination)",
        ),
        ("", "epochs = x", "[parser] epochs: 'x' is not an integer"),
        ("", "epochs = 0", "[parser] epochs: must be at least 1"),
        ("", "explore_k = 1.5", "[parser] explore_k: '1.5' is not an integer"),
        ("", "explore_p = high", "[parser] explore_p: 'high' is not a number"),
        ("", "explore_k = -2", "[parser] explore_k: must be at least 0"),
        ("", "explore_p = 3", "[parser] explore_p: must be between 0 and 1"),
        ("", "explore_p = -0.1", "[parser] explore_p: must be between 0 and 1"),
        ("", "explore_p = nan", "[parser] explore_p: must be between 0 and 1"),
    ],
)
def test_bad_config_value_is_one_line_error(tmp_path, capsys, experiment, parser, message):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\n%s\n[parser]\n%s\n" % (experiment, parser))
    code, err = run_failing(capsys, "experiment", "--config", str(cfg))
    assert code == 2
    assert err == "udscheme: %s: %s\n" % (cfg, message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[experiment]\nseed = 5\n", "[experiment] seed: unknown key "
         "(one of: seeds transformations output_dir)"),
        ("[experiment]\ntransformation = det\n", "[experiment] transformation: "
         "unknown key (one of: seeds transformations output_dir)"),
        ("[experiment]\n[parser]\nepoch = 1\n",
         "[parser] epoch: unknown key (one of: epochs explore_k explore_p)"),
        ("[experiment]\n[treebank:fr]\ntrain = a\ntset = b\n",
         "[treebank:fr] tset: unknown key (one of: train dev test)"),
        ("[experiment]\n[treebnak:fr]\n", "[treebnak:fr]: unknown section "
         "(one of: [experiment] [parser] [treebank:<language>])"),
        # its keys would be inherited by every other section
        ("[DEFAULT]\nepochs = 1\n[experiment]\n", "[DEFAULT]: unknown section "
         "(one of: [experiment] [parser] [treebank:<language>])"),
    ],
)
def test_unknown_config_section_or_key_is_one_line_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    code, err = run_failing(capsys, "experiment", "--config", str(cfg))
    assert (code, err) == (2, "udscheme: %s: %s\n" % (cfg, message))


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("[experiment]\nseeds 1 2\n", 2, "expected [section] or key = value"),
        ("[experiment]\n[parser]\n[experiment]\n", 3, "[experiment] is given twice"),
        ("seeds = 1\n[experiment]\n", 1, "no [section] header before this line"),
        ("[experiment]\nseeds = 1\nseeds = 2\n", 3, "[experiment] seeds: given twice"),
        (b"[experiment]\r\nseeds = 1\r\n# caf\xe9\n", 3, "byte 0xe9 is not UTF-8"),
    ],
)
def test_unreadable_config_line_is_one_line_error(tmp_path, capsys, text, line, message):
    cfg = tmp_path / "exp.ini"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text)
    code, err = run_failing(capsys, "experiment", "--config", str(cfg))
    assert (code, err) == (2, "udscheme: %s:%d: %s\n" % (cfg, line, message))


def test_non_utf8_model_file_is_one_line_error(tmp_path, capsys):
    src, model_p = str(tmp_path / "in.conllu"), tmp_path / "model.txt"
    write_conllu_file(src, synth_corpus(2))
    model_p.write_bytes(b"# udscheme-model v1\nlabels\troot\n\xff\tSHIFT\t1.0\n")
    out = str(tmp_path / "out.conllu")
    code, err = run_failing(capsys, "parse", "--model", str(model_p), "--input", src,
                            "--output", out)
    assert (code, err) == (2, "udscheme: %s:3: byte 0xff is not UTF-8\n" % model_p)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--epochs", "0"], "epochs must be >= 1"),
        (["--explore-k", "-1"], "explore_k must be >= 0"),
        (["--explore-p", "nan"], "explore_p must be in [0, 1]"),
        (["--explore-p", "1.5"], "explore_p must be in [0, 1]"),
    ],
)
def test_train_refuses_out_of_range_hyperparameters(tmp_path, capsys, flags, message):
    src, model_p = str(tmp_path / "in.conllu"), tmp_path / "model.txt"
    write_conllu_file(src, synth_corpus(3))
    code, err = run_failing(capsys, "train", "--train", src, "--model", str(model_p), *flags)
    assert (code, err) == (2, "udscheme: %s\n" % message)
    assert not model_p.exists()


def test_evaluate_scores_and_counts(tmp_path, capsys):
    gold_p = str(tmp_path / "gold.conllu")
    pred_p = str(tmp_path / "pred.conllu")
    gold = synth_corpus(5)
    write_conllu_file(gold_p, gold)
    # predict every token as a child of its sentence's root
    pred = []
    for s in gold:
        root = next(t.id for t in s.tokens if t.head == 0)
        heads = [0] + [0 if t.id == root else root for t in s.tokens]
        pred.append(s.with_arcs(heads, s.deprels()))
    write_conllu_file(pred_p, pred)
    code, out = run(capsys, "evaluate", "--gold", gold_p, "--pred", pred_p)
    assert code == 0
    scores = json.loads(out)
    correct = total = 0
    for g, p in zip(gold, pred):
        for gt, pt in zip(g.tokens, p.tokens):
            if gt.upos != "PUNCT":
                total += 1
                correct += gt.head == pt.head
    assert (scores["correct"], scores["total"]) == (correct, total)
    assert scores["uas"] == 100.0 * correct / total


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda pred: pred[:-1], "2 sentences, against 3"),
        (lambda pred: pred + pred[:1], "4 sentences, against 3"),
        (lambda pred: [pred[0], pred[2], pred[1]], "sentence 2: 6 tokens, against 3"),
        (
            lambda pred: [pred[0], make_sentence([2, 0, 2], ["det", "root", "punct"],
                                                 ["the", "dogs", "."]), pred[2]],
            "sentence 2: token 2 is 'dogs', against 'dog'",
        ),
    ],
)
def test_evaluate_names_the_files_and_sentence_that_do_not_line_up(
    tmp_path, capsys, edit, message
):
    gold = [
        make_sentence([0], ["root"], ["yes"]),
        make_sentence([2, 0, 2], ["det", "root", "punct"], ["the", "dog", "."]),
        make_sentence([2, 0, 4, 2, 2, 2], ["det", "root", "case", "nmod", "punct", "punct"]),
    ]
    gold_p, pred_p = str(tmp_path / "gold.conllu"), str(tmp_path / "pred.conllu")
    write_conllu_file(gold_p, gold)
    write_conllu_file(pred_p, edit(gold))
    code, err = run_failing(capsys, "evaluate", "--gold", gold_p, "--pred", pred_p)
    assert (code, err) == (2, "udscheme: %s: %s in %s\n" % (pred_p, message, gold_p))


def test_evaluate_without_scorable_tokens_is_an_error(tmp_path, capsys):
    path = str(tmp_path / "punct.conllu")
    with open(path, "w", encoding="utf-8") as f:
        f.write("1\t.\t_\tPUNCT\t_\t_\t0\troot\t_\t_\n\n")
    code, err = run_failing(capsys, "evaluate", "--gold", path, "--pred", path)
    assert code == 2
    assert err == "udscheme: no scorable (non-punctuation) tokens\n"
