import random

import pytest

from udscheme.conllu import ValidationReport, validate_tree
from udscheme.parsing import perceptron
from udscheme.parsing.transitions import STEP_KINDS
from udscheme.transform import Transformation, apply_transformation
from udscheme.parsing.perceptron import (
    Hyperparameters,
    Model,
    _AveragedWeights,
    _hash_features,
    fnv1a64,
    load_model,
    parse,
    save_model,
    train,
)

from helpers import ReferenceAveragedWeights, make_sentence, random_projective_tree
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
    # they were first changed: the order a hash collision's rows are summed in
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


def test_memoized_hashing_equals_direct_hashing(monkeypatch):
    strings = ["S0w=book", "N0p=NOUN", "S0w=naïve", "N0w=日本語", "", "S0w=book",
               "N1w=Ωmega", "N0w=日本語", "S0w=Book"]
    expected = [fnv1a64(x) for x in strings]
    calls = []

    def counting(x):
        calls.append(x)
        return fnv1a64(x)

    monkeypatch.setattr(perceptron, "fnv1a64", counting)
    memo: dict = {}
    assert _hash_features(strings, memo) == expected
    assert sorted(calls) == sorted(set(strings))
    assert _hash_features(strings, memo) == expected
    assert len(calls) == len(set(strings))


def test_each_parse_call_hashes_afresh(monkeypatch):
    corpus = synth_corpus(10)
    model = train(corpus, None, Hyperparameters(epochs=1), seed=3)
    calls = []
    original = perceptron.fnv1a64
    monkeypatch.setattr(perceptron, "fnv1a64", lambda x: calls.append(x) or original(x))
    parse(model, corpus[0])
    first = len(calls)
    parse(model, corpus[0])
    assert first > 0 and len(calls) == 2 * first


def test_memo_filled_by_another_scheme_gives_identical_model_file(tmp_path):
    corpus, dev = synth_corpus(12), synth_corpus(5, seed=999)
    hp = Hyperparameters(epochs=3)
    fresh = str(tmp_path / "fresh.txt")
    save_model(train(corpus, dev, hp, seed=2), fresh)

    memo: dict = {}
    other = apply_transformation(corpus, Transformation.DET).sentences
    train(other, None, hp, seed=5, memo=memo)
    filled = len(memo)
    shared = str(tmp_path / "shared.txt")
    save_model(train(corpus, dev, hp, seed=2, memo=memo), shared)
    assert 0 < filled < len(memo)  # partly served by the other scheme's strings
    assert all(memo[x] == fnv1a64(x) for x in memo)
    with open(fresh, "rb") as a, open(shared, "rb") as b:
        assert a.read() == b.read()


def test_parse_with_a_memo_reads_and_fills_it(monkeypatch):
    corpus = synth_corpus(10)
    model = train(corpus, None, Hyperparameters(epochs=1), seed=3)
    calls = []
    original = perceptron.fnv1a64
    monkeypatch.setattr(perceptron, "fnv1a64", lambda x: calls.append(x) or original(x))
    memo: dict = {}
    out = parse(model, corpus[0], memo)
    assert len(calls) == len(memo) > 0
    assert parse(model, corpus[0], memo) == out == parse(model, corpus[0])
    assert len(calls) == 2 * len(memo)  # only the memo-less call hashed again


def counting_hashes(monkeypatch) -> list:
    """Record every string perceptron.fnv1a64 hashes."""
    calls = []
    original = perceptron.fnv1a64
    monkeypatch.setattr(perceptron, "fnv1a64", lambda x: calls.append(x) or original(x))
    return calls


@pytest.mark.parametrize("memo", [None, {}])
def test_training_hashes_each_feature_of_the_model_once(monkeypatch, memo):
    # training and its dev decodes are keyed by string: only the returned
    # model is hashed, one call per feature it keeps
    corpus, dev = synth_corpus(12), synth_corpus(5, seed=999)
    calls = counting_hashes(monkeypatch)
    model = train(corpus, dev, Hyperparameters(epochs=3), seed=2, memo=memo)
    assert len(calls) == len(set(calls)) == len(model.weights) > 0
    assert memo is None or list(memo) == calls


def test_features_sharing_a_hash_have_their_rows_summed(monkeypatch):
    corpus, dev = synth_corpus(12), synth_corpus(5, seed=999)
    hp = Hyperparameters(epochs=2)
    memo: dict = {}
    plain = train(corpus, dev, hp, seed=2, memo=memo)
    strings = list(memo)  # the model's features, in the order its rows were made
    rows = [plain.weights[memo[x]] for x in strings]
    # the first later feature whose row shares an action with the first row
    j = next(j for j in range(1, len(rows)) if rows[0].keys() & rows[j].keys())
    first, later = strings[0], strings[j]

    original = perceptron.fnv1a64
    monkeypatch.setattr(
        perceptron, "fnv1a64", lambda x: original(first if x == later else x)
    )
    collided = train(corpus, dev, hp, seed=2)
    # training is keyed by string, so it is unchanged; the re-keyed model sums
    # the later row into the earlier one, entry by entry, in row order
    summed = dict(rows[0])
    for a, w in rows[j].items():
        summed[a] = summed.get(a, 0.0) + w
    expected = {h: row for h, row in plain.weights.items() if h != memo[later]}
    expected[memo[first]] = summed
    assert collided.weights == expected
    assert list(collided.weights[memo[first]].items()) == list(summed.items())
    assert list(collided.weights) == [h for h in plain.weights if h != memo[later]]


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
    s = make_sentence([0], ["root"])
    with pytest.raises(ValueError):
        train([], None, Hyperparameters(), seed=1)
    with pytest.raises(ValueError):
        train([s], None, Hyperparameters(epochs=0), seed=1)
    for hp in (
        Hyperparameters(explore_k=-1),
        Hyperparameters(explore_p=-0.5),
        Hyperparameters(explore_p=1.5),
        Hyperparameters(explore_p=float("nan")),
    ):
        with pytest.raises(ValueError):
            train([s], None, hp, seed=1)


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


HEADER = "# udscheme-model v1\n"
LABELS = "labels\tdep,root\n"


@pytest.mark.parametrize(
    "text, line",
    [
        (HEADER, 2),  # truncated after the header
        (HEADER + "17\tSHIFT\t1.0\n", 2),  # no labels line
        (HEADER + LABELS + "17\tSHIFT\n", 3),
        (HEADER + LABELS + "17\tSHIFT\t1.0\textra\n", 3),
        (HEADER + LABELS + "17\tSHIFT\t1.0\n18\tJUMP\t1.0\n", 4),
        (HEADER + LABELS + "17\tLEFT_ARC:nsubj\t1.0\n", 3),  # label not in the file
        (HEADER + LABELS + "17\tSHIFT\tabc\n", 3),
        (HEADER + LABELS + "123\tLEFT_ARC\t1.0\n", 3),  # arc action without a label
        (HEADER + LABELS + "17\tSHIFT:det\t1.0\n", 3),  # labelled SHIFT
        (HEADER + "labels\t\n", 2),  # an empty label
        (HEADER + "labels\tdet,,nsubj\n", 2),
        (HEADER + "labels\tdet,det\n", 2),  # a label listed twice
    ],
)
def test_load_rejects_malformed_file_with_line(tmp_path, text, line):
    path = tmp_path / "model.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_model(str(path))
    assert str(err.value).startswith("%s:%d:" % (path, line))


@pytest.mark.parametrize("label", ["a,b", "a\tb", "a\nb", "", "dep"])
def test_save_rejects_unstorable_labels(tmp_path, label):
    model = Model(labels=["dep", label])
    with pytest.raises(ValueError):
        save_model(model, str(tmp_path / "model.txt"))
