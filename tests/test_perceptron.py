import dataclasses
import random

import pytest

from udscheme.conllu import ValidationReport, format_conllu, parse_conllu, validate_tree
from udscheme.parsing import perceptron
from udscheme.parsing.transitions import LEFT_ARC, REDUCE, RIGHT_ARC, STEP_KINDS, Action
from udscheme.parsing.perceptron import (
    Hyperparameters,
    Model,
    _AveragedWeights,
    fnv1a64,
    load_model,
    parse,
    save_model,
    train,
)

from helpers import (
    ReferenceAveragedWeights,
    make_sentence,
    random_projective_tree,
    ref_parse_hashed,
    ref_save_model_v1,
)
from synth import synth_corpus


def test_fnv1a64_stable_values():
    # fixed reference values so hashes never drift across versions
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("S0w=book") == fnv1a64("S0w=book")
    assert fnv1a64("S0w=book") != fnv1a64("S0w=Book")


def test_lazy_averaging_matches_naive_snapshots():
    rng = random.Random(42)
    acc = _AveragedWeights()
    naive: dict = {}
    snap_sum: dict = {}
    for _ in range(100):
        acc.updates += 1
        feats = rng.choices(range(7), k=rng.randint(1, 5))
        good, bad = rng.sample(range(3), 2)
        acc.update(feats, good, bad)
        for f in feats:
            naive[(f, good)] = naive.get((f, good), 0.0) + 1.0
            naive[(f, bad)] = naive.get((f, bad), 0.0) - 1.0
        # naive averaging: accumulate a full snapshot after every update
        for key, w in naive.items():
            snap_sum[key] = snap_sum.get(key, 0.0) + w
    averaged = acc.averaged()
    for f in range(7):
        for a in range(3):
            expect = snap_sum.get((f, a), 0.0) / 100
            got = averaged.get(f, {}).get(a, 0.0)
            assert abs(got - expect) < 1e-9, (f, a)


def _nonzero_rows(ref: ReferenceAveragedWeights) -> dict:
    """The reference's raw weights as rows, without zero entries or empty rows."""
    rows: dict = {}
    for (f, a), w in ref.w.items():
        if w != 0.0:
            rows.setdefault(f, {})[a] = w
    return rows


def _assert_same_store(acc: _AveragedWeights, ref: ReferenceAveragedWeights) -> None:
    assert acc.w == _nonzero_rows(ref)
    averaged, expected = acc.averaged(), ref.averaged()
    assert averaged == expected
    # rows in the order their feature was first changed, entries in the order
    # they were first changed: the order ref_hash_rows sums a hash
    # collision's rows in, which the v1 golden model file pins
    first_changed: dict = {}
    for f, a in ref.w:  # the reference keeps every entry, in first-change order
        first_changed.setdefault(f, []).append(a)
    assert [(f, list(row)) for f, row in averaged.items()] == [
        (f, [a for a in actions if a in expected[f]])
        for f, actions in first_changed.items()
        if f in expected
    ]


@pytest.mark.parametrize("seed", range(5))
def test_row_store_matches_tuple_keyed_reference(seed):
    rng = random.Random(seed)
    acc = _AveragedWeights()
    ref = ReferenceAveragedWeights()
    same_action = changed_from_zero = 0
    for step in range(400):
        acc.updates += 1
        ref.updates += 1
        if rng.random() < 0.6:  # steps without an update still tick the clock
            feats = ["f%d" % rng.randrange(12) for _ in range(rng.randint(1, 6))]
            feats.insert(rng.randrange(len(feats) + 1), rng.choice(feats))
            good, bad = rng.randrange(4), rng.randrange(4)
            same_action += good == bad
            # entries that were changed before and are back at 0.0
            changed_from_zero += sum(
                ref.w.get((f, a)) == 0.0 for f in set(feats) for a in {good, bad}
            )
            acc.update(feats, good, bad)
            ref.update(feats, good, bad)
        if step % 50 == 0:
            _assert_same_store(acc, ref)
    _assert_same_store(acc, ref)
    assert same_action > 0 and changed_from_zero > 0


def test_entry_back_at_zero_is_deleted_and_still_averaged():
    acc = _AveragedWeights()
    ref = ReferenceAveragedWeights()
    for good, bad, raw in [
        (0, 1, {"x": {0: 1.0, 1: -1.0}}),
        (1, 0, {}),  # both entries back at 0.0: deleted, and the empty row too
        (2, 2, {}),  # good == bad changes nothing
        (None, None, {}),  # a step without an update
        (0, 2, {"x": {0: 1.0, 2: -1.0}}),  # an entry deleted before changes again
    ]:
        acc.updates += 1
        ref.updates += 1
        if good is not None:
            acc.update(["x"], good, bad)
            ref.update(["x"], good, bad)
        assert acc.w == raw
        _assert_same_store(acc, ref)
    assert acc.averaged() == {"x": {0: 0.4, 1: -0.2, 2: -0.2}}


def test_allowed_table_matches_the_inventory_scan_for_every_step_kind_set():
    model = Model(labels=["root", "nsubj", "det", "obj"])
    # the kind sets a step can choose from: what valid_actions returns with a
    # non-empty buffer (root, headless or headed stack top), and the
    # SHIFT-only set parse() keeps the root to
    steps = {
        frozenset({"SHIFT", "RIGHT_ARC"}),
        frozenset({"SHIFT", "RIGHT_ARC", "LEFT_ARC"}),
        frozenset({"SHIFT", "RIGHT_ARC", "REDUCE"}),
    }
    assert set(STEP_KINDS) == steps
    assert set(model.allowed) == steps | {frozenset({"SHIFT"})}
    for kinds, allowed in model.allowed.items():
        assert allowed == [i for i, a in enumerate(model.actions) if a.kind in kinds]


def test_dev_set_without_scorable_tokens_keeps_first_epoch():
    corpus = synth_corpus(12)
    punct_only = [make_sentence([0], ["root"], ["."], ["PUNCT"])]
    kept = train(corpus, punct_only, Hyperparameters(epochs=3), seed=4)
    first_epoch = train(corpus, None, Hyperparameters(epochs=1), seed=4)
    last_epoch = train(corpus, None, Hyperparameters(epochs=3), seed=4)
    assert kept.weights == first_epoch.weights
    assert kept.weights != last_epoch.weights


def test_train_rejects_bad_input():
    # out-of-range hyperparameters cannot be made: see the tests below
    with pytest.raises(ValueError):
        train([], None, Hyperparameters(), seed=1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"epochs": 0}, "epochs: must be at least 1"),
        ({"epochs": -3}, "epochs: must be at least 1"),
        ({"explore_k": -1}, "explore_k: must be at least 0"),
        ({"explore_p": -0.5}, "explore_p: must be between 0 and 1"),
        ({"explore_p": 1.5}, "explore_p: must be between 0 and 1"),
        ({"explore_p": float("nan")}, "explore_p: must be between 0 and 1"),
        ({"explore_p": float("inf")}, "explore_p: must be between 0 and 1"),
    ],
)
def test_hyperparameters_refuse_out_of_range_values_when_made(kwargs, message):
    with pytest.raises(ValueError) as err:
        Hyperparameters(**kwargs)
    assert str(err.value) == message


def test_hyperparameters_take_their_bounds_and_cannot_change():
    hp = Hyperparameters(epochs=1, explore_k=0, explore_p=0.0)
    assert Hyperparameters(explore_p=1.0).explore_p == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        hp.epochs = 0


def test_memorizes_repeated_sentence():
    s = make_sentence(
        [2, 3, 0, 5, 3],
        ["det", "nsubj", "root", "det", "dobj"],
        ["the", "dog", "sees", "a", "cat"],
        ["DET", "NOUN", "VERB", "DET", "NOUN"],
    )
    model = train([s] * 4, None, Hyperparameters(epochs=5), seed=1)
    assert parse(model, s).heads() == s.heads()


def test_determinism_same_seed():
    corpus = synth_corpus(30)
    hp = Hyperparameters(epochs=3)
    m1 = train(corpus, None, hp, seed=7)
    m2 = train(corpus, None, hp, seed=7)
    assert m1.weights == m2.weights
    for s in corpus[:5]:
        assert parse(m1, s).heads() == parse(m2, s).heads()


def test_different_seeds_may_shuffle_differently():
    corpus = synth_corpus(30)
    hp = Hyperparameters(epochs=2)
    m1 = train(corpus, None, hp, seed=1)
    m2 = train(corpus, None, hp, seed=2)
    # not a strict requirement, but with exploration on these always diverge
    assert m1.weights != m2.weights


def test_parse_output_is_always_a_valid_tree():
    corpus = synth_corpus(10)
    model = train(corpus, None, Hyperparameters(epochs=1), seed=3)
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 9)
        s = make_sentence(random_projective_tree(rng, n))
        out = parse(model, s)
        assert validate_tree(out).ok
        assert sum(1 for t in out.tokens if t.head == 0) == 1


def test_parse_single_token():
    model = train([make_sentence([0], ["root"])], None, Hyperparameters(epochs=1), 1)
    out = parse(model, make_sentence([0], ["root"], ["hi"], ["INTJ"]))
    assert out.token(1).head == 0


def test_parse_keeps_the_root_to_one_child_while_decoding():
    # scores that take RIGHT_ARC:root whenever the root is on top, REDUCE
    # from an X and LEFT_ARC:dep from a Y: once the root has token 1, token 2
    # is shifted, so it stays headless and can take token 3 as its head; had
    # the root taken it too, LEFT_ARC would not be allowed from it
    model = Model(labels=["dep", "root"])
    model.weights = {
        "S0p=<ROOT>": {model.actions.index(Action(RIGHT_ARC, "root")): 1.0},
        "S0p=X": {model.actions.index(Action(REDUCE)): 1.0},
        "S0p=Y": {model.actions.index(Action(LEFT_ARC, "dep")): 1.0},
    }
    s = make_sentence([0, 1, 1], ["root", "dep", "dep"], upos=["X", "Y", "Z"])
    out = parse(model, s)
    assert out.heads()[1:] == [0, 3, 1]
    assert out.deprels()[1:] == ["root", "dep", "root"]


def test_untrained_model_still_parses_validly():
    model = Model(labels=["root", "dep"])
    out = parse(model, make_sentence([2, 0, 2], ["dep", "root", "dep"]))
    assert validate_tree(out).ok


def test_dev_set_snapshot_selection_runs():
    corpus = synth_corpus(20)
    dev = synth_corpus(6, seed=999)
    model = train(corpus, dev, Hyperparameters(epochs=3), seed=5)
    for s in dev:
        assert validate_tree(parse(model, s)).ok


def test_save_load_roundtrip(tmp_path):
    corpus = synth_corpus(15)
    model = train(corpus, None, Hyperparameters(epochs=2), seed=11)
    path = str(tmp_path / "model.txt")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.labels == model.labels
    assert loaded.weights == model.weights
    for s in corpus[:5]:
        assert parse(loaded, s).heads() == parse(model, s).heads()


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a model\n")
    with pytest.raises(ValueError):
        load_model(str(path))


def test_parse_raises_on_invalid_tree(monkeypatch):
    # an explicit check, so it also holds under python -O
    broken = ValidationReport(False, ((1, "self-loop", "token 1 is its own head"),))
    monkeypatch.setattr(perceptron, "validate_tree", lambda s: broken)
    model = Model(labels=["root", "dep"])
    with pytest.raises(RuntimeError, match="self-loop"):
        parse(model, make_sentence([2, 0, 2], ["dep", "root", "dep"]))


HEADER = "# udscheme-model v2\n"
LABELS = "labels\tdep,root\n"


def entries(n: int) -> str:
    return "entries\t%d\n" % n


@pytest.mark.parametrize(
    "text, line",
    [
        (HEADER, 2),  # truncated after the header
        (HEADER + "S0w=a\tSHIFT\t1.0\n", 2),  # no labels line
        (HEADER + LABELS, 3),  # no entries line
        (HEADER + LABELS + "S0w=a\tSHIFT\t1.0\n", 3),
        (HEADER + LABELS + "entries\t-1\n", 3),
        (HEADER + LABELS + "entries\tone\n", 3),
        # entries that do not number what the file counts: a file cut short
        # at a line boundary, or one with entries added; a file cut inside
        # its last line, whose weight still parses
        (HEADER + LABELS + entries(2) + "S0w=a\tSHIFT\t1.0\n", 3),
        (HEADER + LABELS + entries(0) + "S0w=a\tSHIFT\t1.0\n", 3),
        (HEADER + LABELS + entries(1) + "S0w=a\tSHIFT\t1.0", 4),
        (HEADER + LABELS + entries(1) + "S0w=a\tSHIFT\n", 4),
        (HEADER + LABELS + entries(1) + "S0w=a\tSHIFT\t1.0\textra\n", 4),
        (HEADER + LABELS + entries(2) + "S0w=a\tSHIFT\t1.0\nS0w=b\tJUMP\t1.0\n", 5),
        (HEADER + LABELS + entries(1) + "S0w=a\tLEFT_ARC:nsubj\t1.0\n", 4),  # label not in the file
        (HEADER + LABELS + entries(1) + "S0w=a\tSHIFT\tabc\n", 4),
        (HEADER + LABELS + entries(1) + "S0w=a\tLEFT_ARC\t1.0\n", 4),  # arc action without a label
        (HEADER + LABELS + entries(1) + "S0w=a\tSHIFT:det\t1.0\n", 4),  # labelled SHIFT
        (HEADER + "labels\t\n", 2),  # an empty label
        (HEADER + "labels\tdet,,nsubj\n", 2),
        (HEADER + "labels\tdet,det\n", 2),  # a label listed twice
        # entries save_model never writes: a (feature, action) pair repeated,
        # a weight that is not finite
        (HEADER + LABELS + entries(3) + "S0w=a\tSHIFT\t1.0\nS0w=b\tREDUCE\t1.0\nS0w=a\tSHIFT\t-2.0\n", 6),
        (HEADER + LABELS + entries(1) + "S0w=a\tSHIFT\tnan\n", 4),
        (HEADER + LABELS + entries(2) + "S0w=a\tSHIFT\t1.0\nS0w=b\tSHIFT\tinf\n", 5),
        (HEADER + LABELS + entries(1) + "S0w=a\tSHIFT\t-inf\n", 4),
    ],
)
def test_load_rejects_malformed_file_with_line(tmp_path, text, line):
    path = tmp_path / "model.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_model(str(path))
    assert str(err.value).startswith("%s:%d:" % (path, line))


def test_load_takes_a_feature_under_several_actions(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(HEADER + LABELS + entries(3) + "S0w=a\tSHIFT\t1.0\nS0w=a\tREDUCE\t-1.0\n"
                    "S0w=b\tSHIFT\t0.5\n", encoding="utf-8")
    model = load_model(str(path))
    assert model.weights == {"S0w=a": {0: 1.0, 1: -1.0}, "S0w=b": {0: 0.5}}


def test_load_refuses_a_v1_file_by_name(tmp_path):
    model = train(synth_corpus(8), None, Hyperparameters(epochs=1), seed=1)
    path = str(tmp_path / "model.txt")
    ref_save_model_v1(model, path)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value).startswith("%s:1: a v1 model file" % path)


def test_a_model_of_forms_holding_line_breaks_loads_back_equal(tmp_path):
    # parse_conllu splits lines on \n alone, so a form may hold any other
    # line break; the model file must keep the features built from it
    forms = ["a\u2028b", "c\u0085d", "e\x0cf"]
    s = parse_conllu(format_conllu([
        make_sentence([2, 0, 2], ["dep", "root", "dep"], forms, ["X", "VERB", "X"])
    ]))[0]
    assert [t.form for t in s.tokens] == forms
    model = train([s] * 3, None, Hyperparameters(epochs=2), seed=1)
    for mark in ("\u2028", "\u0085", "\x0c"):
        assert any(mark in f for f in model.weights)
    path = str(tmp_path / "model.txt")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.labels == model.labels and loaded.weights == model.weights
    assert parse(loaded, s) == parse(model, s)


@pytest.mark.parametrize("feature", ["S0w=a\tb", "S0w=a\nb", "S0w=a\rb"])
def test_save_refuses_a_feature_no_read_field_can_hold(tmp_path, feature):
    model = Model(labels=["dep", "root"], weights={feature: {0: 1.0}})
    path = tmp_path / "model.txt"
    with pytest.raises(ValueError, match="cannot be stored"):
        save_model(model, str(path))
    assert not path.exists()


@pytest.mark.parametrize("seed", range(4))
def test_string_keyed_parse_equals_the_hashed_reference(seed):
    # random corpora, a dev set (so a best epoch is chosen) and sentences with
    # forms the model never saw: string keys decode as hashed keys did, and
    # parse() decodes as the old path, written out on its own, did
    rng = random.Random(seed)
    train_set = synth_corpus(rng.randint(6, 20), seed=rng.randrange(10**6))
    dev = synth_corpus(rng.randint(3, 8), seed=rng.randrange(10**6))
    model = train(train_set, dev, Hyperparameters(epochs=3), seed=seed)
    test = synth_corpus(10, seed=rng.randrange(10**6))
    test += [make_sentence(random_projective_tree(rng, rng.randint(1, 12))) for _ in range(5)]
    # an untrained model ties every step and leaves every token headless
    untrained = Model(labels=model.labels)
    for s in test:
        assert parse(model, s) == ref_parse_hashed(model, s)
        assert parse(untrained, s) == ref_parse_hashed(untrained, s)


@pytest.mark.parametrize("label", ["a,b", "a\tb", "a\nb", "", "dep"])
def test_save_rejects_unstorable_labels(tmp_path, label):
    model = Model(labels=["dep", label])
    with pytest.raises(ValueError):
        save_model(model, str(tmp_path / "model.txt"))
