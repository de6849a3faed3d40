import dataclasses
import math
import random

import pytest

from udscheme.conllu import ValidationReport, format_conllu, parse_conllu, validate_tree
from udscheme.parsing import perceptron
from udscheme.parsing.features import TEMPLATES, extract_features, sentence_atoms
from udscheme.parsing.transitions import (
    LEFT_ARC,
    REDUCE,
    RIGHT_ARC,
    STEP_KINDS,
    Action,
    apply_action,
    initial_config,
    static_oracle_derivation,
    valid_actions,
)
from udscheme.parsing.perceptron import (
    Hyperparameters,
    Model,
    _Averaged,
    _AveragedWeights,
    _FixedPoint,
    _Layout,
    _argmax,
    field_bits,
    fnv1a64,
    load_model,
    parse,
    save_model,
    train,
)

from helpers import (
    ReferenceAveragedWeights,
    brute_force_projective,
    make_sentence,
    pair_rows,
    random_conllu_sentence,
    random_projective_tree,
    ref_float_parse,
    ref_parse_hashed,
    ref_save_model_v1,
    ref_train,
)
from synth import synth_corpus


def test_fnv1a64_stable_values():
    # fixed reference values so hashes never drift across versions
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("S0w=book") == fnv1a64("S0w=book")
    assert fnv1a64("S0w=book") != fnv1a64("S0w=Book")


def _raw_rows(acc: _AveragedWeights) -> dict:
    """The packed store's raw weights as {feature: {action: weight}}, read off
    a one-feature training score, without zero entries."""
    rows, half = {}, acc.layout.half
    for f in acc.w:
        rows[f] = {a: v - half for a, v in enumerate(acc.score([f])) if v != half}
        assert rows[f], "a row back at 0 is kept"
    return rows


@pytest.mark.parametrize("bits", [32, 64])
def test_lazy_averaging_matches_naive_snapshots(bits):
    rng = random.Random(42)
    acc = _AveragedWeights(3, bits)
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
    averaged = acc.averaged().float_rows()
    for f in range(7):
        for a in range(3):
            expect = snap_sum.get((f, a), 0.0) / 100
            got = dict(averaged.get(f, ())).get(a, 0.0)
            assert abs(got - expect) < 1e-9, (f, a)


def _nonzero_rows(ref: ReferenceAveragedWeights) -> dict:
    """The reference's raw weights as rows, without zero entries or empty rows."""
    rows: dict = {}
    for (f, a), w in ref.w.items():
        if w != 0.0:
            rows.setdefault(f, {})[a] = w
    return rows


def _assert_same_store(acc: _AveragedWeights, ref: ReferenceAveragedWeights) -> None:
    assert _raw_rows(acc) == _nonzero_rows(ref)
    averaged, expected = acc.averaged().float_rows(), ref.averaged()
    assert averaged == pair_rows(expected)
    # rows in the order their feature was first changed: the order
    # ref_hash_rows sums a hash collision's rows in, which the v1 golden
    # model file pins
    first_changed = dict.fromkeys(f for f, _ in ref.w)
    assert list(averaged) == [f for f in first_changed if f in expected]


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("seed", range(5))
def test_row_store_matches_tuple_keyed_reference(seed, bits):
    rng = random.Random(seed)
    acc = _AveragedWeights(4, bits)
    ref = ReferenceAveragedWeights()
    same_action = changed_from_zero = 0
    for step in range(400):
        acc.updates += 1
        ref.updates += 1
        feats = ["f%d" % rng.randrange(12) for _ in range(rng.randint(1, 6))]
        # a training score is each action's raw weights summed over the features
        expected = [sum(ref.w.get((f, a), 0.0) for f in feats) for a in range(4)]
        assert [v - acc.layout.half for v in acc.score(feats)] == expected
        if rng.random() < 0.6:  # steps without an update still tick the clock
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
    acc = _AveragedWeights(3, 32)
    ref = ReferenceAveragedWeights()
    for good, bad, raw in [
        (0, 1, {"x": {0: 1.0, 1: -1.0}}),
        (1, 0, {}),  # both entries back at 0.0: the row is deleted
        (2, 2, {}),  # good == bad changes nothing
        (None, None, {}),  # a step without an update
        (0, 2, {"x": {0: 1.0, 2: -1.0}}),  # an entry deleted before changes again
    ]:
        acc.updates += 1
        ref.updates += 1
        if good is not None:
            acc.update(["x"], good, bad)
            ref.update(["x"], good, bad)
        assert _raw_rows(acc) == raw
        _assert_same_store(acc, ref)
    assert acc.averaged().float_rows() == {"x": ((0, 0.4), (1, -0.2), (2, -0.2))}


@pytest.mark.parametrize("bits", [32, 64])
def test_packed_fields_hold_the_range_the_width_rule_allows(bits):
    # rows whose fields carry into the next one, summed to each end of the
    # signed range: every field reads back exactly
    top = 2 ** (bits - 1) - 1
    acc = _AveragedWeights(4, bits)

    def pack(fields):
        return sum(v << (bits * a) for a, v in enumerate(fields))

    acc.w = {"x": pack([-top + 1, top - 1, -1, 7]), "y": pack([-2, 1, 1, -7])}
    half = acc.layout.half
    assert [v - half for v in acc.score(["x", "y"])] == [-top - 1, top, 0, 0]
    assert [v - half for v in acc.score(["y", "missing"])] == [-2, 1, 1, -7]


def test_field_width_rule_on_both_sides_of_2_to_the_31_and_2_to_the_63():
    # 2 steps a token. A numerator is at most steps^2: 23,170 epoch-tokens
    # (46,340 steps) is the last count whose square is below 2^31
    assert 46_340**2 < 2**31 <= 46_342**2
    assert field_bits(TEMPLATES, 1, 23_170) == 32
    assert field_bits(TEMPLATES, 1, 23_171) == 64
    assert field_bits(TEMPLATES, 10, 2_317) == 32
    assert field_bits(TEMPLATES, 10, 2_318) == 64
    # a training score, at most 70 x steps, stays inside any width the
    # numerators allow: where it would pass 2^31 the width is already 64
    assert TEMPLATES * 2 * 15_339_168 < 2**31 <= TEMPLATES * 2 * 15_339_169
    assert field_bits(TEMPLATES, 1, 15_339_169) == 64
    assert field_bits(TEMPLATES, 8, 15_339_168 // 8) == 64
    # and 1,518,500,249 epoch-tokens the last whose steps^2 is below 2^63
    assert 3_037_000_498**2 < 2**63 <= 3_037_000_500**2
    assert field_bits(TEMPLATES, 1, 1_518_500_249) == 64
    with pytest.raises(ValueError, match="too many for 64-bit fields"):
        field_bits(TEMPLATES, 1, 1_518_500_250)
    # with fewer steps than templates, templates x steps decides, and a
    # product of exactly 2^31 or 2^63 takes the next width
    assert field_bits(2**21, 1, 2**9 - 1) == 32
    assert field_bits(2**21, 1, 2**9) == 64
    assert field_bits(2**21, 2, 2**8) == 64
    assert field_bits(2**53, 1, 2**9 - 1) == 64
    with pytest.raises(ValueError, match="too many for 64-bit fields"):
        field_bits(2**53, 1, 2**9)


def test_train_sizes_its_store_by_the_width_rule(monkeypatch):
    made = []

    def store(actions, bits):
        made.append((actions, bits))
        return _AveragedWeights(actions, bits)

    monkeypatch.setattr(perceptron, "_AveragedWeights", store)
    corpus = synth_corpus(5)
    model = train(corpus, None, Hyperparameters(epochs=3), seed=1)
    tokens = sum(len(s.tokens) for s in corpus)
    assert made == [(len(model.actions), field_bits(TEMPLATES, 3, tokens))]
    assert made[0][1] == 32


def _corpus(rng: random.Random, kind: str, n: int) -> list:
    """n sentences: synth ones, or random trees with random text columns,
    most of them non-projective (crossing arcs)."""
    if kind == "synth":
        return synth_corpus(n, seed=rng.randrange(10**6))
    return [random_conllu_sentence(rng, rng.randint(1, 20), "tree") for _ in range(n)]


@pytest.mark.parametrize("kind", ["synth", "tree"])
@pytest.mark.parametrize("bits", [None, 64])
@pytest.mark.parametrize("seed", range(4))
def test_packed_training_matches_the_dict_row_reference(monkeypatch, tmp_path, seed, bits, kind):
    # random corpora with a dev set, exploration on: every prediction, oracle
    # choice and dev decoding step matches the dict-row training loop, and so
    # do the model files; 64-bit fields forced by making the store directly.
    # Training chooses by _argmax, the dev models by their exact decoder.
    rng = random.Random(seed)
    train_set = _corpus(rng, kind, rng.randint(6, 20))
    dev = _corpus(rng, kind, rng.randint(3, 8))
    hp = Hyperparameters(epochs=rng.randint(2, 4), explore_k=rng.randint(0, 1),
                         explore_p=rng.choice([0.5, 0.9, 1.0]))
    chosen, expected, decoded = [], [], []
    argmax, choose = perceptron._argmax, _Averaged.choose

    def recorded_argmax(scores, allowed):
        chosen.append(argmax(scores, allowed))
        return chosen[-1]

    def recorded_choose(snapshot, feats, allowed):
        chosen.append(choose(snapshot, feats, allowed))
        decoded.append(chosen[-1])
        return chosen[-1]

    monkeypatch.setattr(perceptron, "_argmax", recorded_argmax)
    monkeypatch.setattr(_Averaged, "choose", recorded_choose)
    # so no dev decoding step goes unrecorded (ref_train calls neither)
    monkeypatch.setattr(Model, "score", None)
    if bits is not None:
        monkeypatch.setattr(
            perceptron, "_AveragedWeights", lambda actions, _: _AveragedWeights(actions, bits)
        )
    model = train(train_set, dev, hp, seed=seed)
    assert decoded and isinstance(model.decoder, _Averaged)
    reference = ref_train(train_set, dev, hp, seed, expected)
    assert chosen == expected
    save_model(model, str(tmp_path / "packed.txt"))
    save_model(reference, str(tmp_path / "reference.txt"))
    assert (tmp_path / "packed.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()


def _recorded_steps(monkeypatch, model: Model, sentences) -> tuple[list, list]:
    """The parses of `sentences` by `model`, and the action chosen at each
    step, as ("exact", action) by the numerator decoder or ("fixed", action)
    by the fixed-point one."""
    steps = []
    exact, fixed = _Averaged.choose, _FixedPoint.choose

    def recorded(kind, choose):
        def wrapper(decoder, feats, allowed):
            steps.append((kind, choose(decoder, feats, allowed)))
            return steps[-1][1]

        return wrapper

    with monkeypatch.context() as m:
        m.setattr(_Averaged, "choose", recorded("exact", exact))
        m.setattr(_FixedPoint, "choose", recorded("fixed", fixed))
        parsed = [parse(model, s) for s in sentences]
    return parsed, steps


def _assert_decodes_as_floats(monkeypatch, model: Model, sentences, kind: str) -> None:
    """`model` decodes `sentences` by its `kind` decoder, choosing at each
    step what the float reference chooses."""
    parsed, steps = _recorded_steps(monkeypatch, model, sentences)
    chosen = []
    expected = [ref_float_parse(model, s, chosen) for s in sentences]
    assert {k for k, _ in steps} == {kind}
    assert [a for _, a in steps] == chosen
    assert parsed == expected


def _random_model(rng: random.Random, kind: str, seed: int) -> Model:
    """A model trained on a random corpus of `kind`, with or without a dev set."""
    train_set = _corpus(rng, kind, rng.randint(5, 25))
    dev = _corpus(rng, kind, rng.randint(3, 8)) if seed % 2 else None
    hp = Hyperparameters(epochs=rng.randint(1, 4), explore_p=rng.choice([0.5, 0.9]))
    return train(train_set, dev, hp, seed=seed)


def _held_out(rng: random.Random, kind: str) -> list:
    """Held-out sentences of `kind`, and trees of unseen forms, projective
    and not."""
    test = _corpus(rng, kind, 15)
    test += [make_sentence(random_projective_tree(rng, rng.randint(1, 15))) for _ in range(5)]
    return test + [random_conllu_sentence(rng, rng.randint(1, 15), "tree") for _ in range(5)]


def test_tree_corpora_cross():
    # the "tree" corpora the decoder gates run on are mostly non-projective
    rng = random.Random(0)
    sentences = _corpus(rng, "tree", 100)
    crossing = sum(not brute_force_projective(s) for s in sentences if len(s.tokens) > 3)
    assert crossing > 50


@pytest.mark.parametrize("kind", ["synth", "tree"])
@pytest.mark.parametrize("seed", range(6))
def test_exact_decoding_chooses_as_the_float_rows_do(monkeypatch, seed, kind):
    # random trained models, with and without a dev set, on held-out
    # sentences and trees of unseen forms: the model train() returns decodes
    # by its integer numerators, and a model of its float rows by fixed
    # point, each step by step as the float reference
    rng = random.Random(seed)
    model = _random_model(rng, kind, seed)
    floats = Model(model.labels, weights=model.weights)
    test = _held_out(rng, kind)
    _assert_decodes_as_floats(monkeypatch, model, test, "exact")
    _assert_decodes_as_floats(monkeypatch, floats, test, "fixed")


@pytest.mark.parametrize("kind", ["synth", "tree"])
@pytest.mark.parametrize("seed", range(6))
def test_loaded_models_decode_as_the_float_rows_do(monkeypatch, tmp_path, seed, kind):
    # random trained models, saved and read back: the loaded model decodes
    # by fixed point, step by step as the float reference, and parses as the
    # model it was saved from
    rng = random.Random(100 + seed)
    model = _random_model(rng, kind, seed)
    path = str(tmp_path / "model.txt")
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded.decoder, _FixedPoint) and loaded.weights == model.weights
    test = _held_out(rng, kind)
    _assert_decodes_as_floats(monkeypatch, loaded, test, "fixed")
    assert [parse(loaded, s) for s in test] == [parse(model, s) for s in test]


def test_sparse_models_tie_and_still_choose_as_the_float_rows_do(monkeypatch):
    # models of one to three sentences, one epoch, parse sentences of unseen
    # forms and tags: most rows are missing, so integer sums tie at the top
    # and the float fallback decides, step by step as the float rows do
    ties = []
    float_choice = _Averaged._float_choice
    monkeypatch.setattr(_Averaged, "_float_choice", lambda *a: ties.append(1) or float_choice(*a))
    rng = random.Random(5)
    for seed in range(6):
        corpus = synth_corpus(rng.randint(1, 3), seed=rng.randrange(10**6))
        model = train(corpus, None, Hyperparameters(epochs=1), seed=seed)
        floats = Model(model.labels, weights=model.weights)
        test = []
        for _ in range(10):
            n = rng.randint(1, 15)
            forms = ["unseen%d" % i for i in range(n)]
            test.append(make_sentence(random_projective_tree(rng, n), None, forms, ["U"] * n))
        _assert_decodes_as_floats(monkeypatch, model, test, "exact")
        _assert_decodes_as_floats(monkeypatch, floats, test, "fixed")
    assert ties


def _tied_snapshot(model: Model, feats: list[str], bits: int) -> tuple[_Averaged, int]:
    """A snapshot over 10 steps in which SHIFT has 3/10 from feats[0], and
    RIGHT_ARC:root 1/10 from feats[0] and 2/10 from feats[1]: both sum to 3
    as integers, but 0.1 + 0.2 = 0.30000000000000004 > 0.3 in floats."""
    layout = _Layout(len(model.actions), bits)
    arc = model.actions.index(Action(RIGHT_ARC, "root"))
    shift, unit = 0, layout.unit
    rows = {feats[0]: 3 * unit[shift] + 1 * unit[arc], feats[1]: 2 * unit[arc]}
    return _Averaged(rows, 10, layout), arc


@pytest.mark.parametrize("bits", [32, 64])
def test_an_integer_tie_at_the_top_is_decided_in_floats(monkeypatch, bits):
    s = make_sentence([0, 1], ["root", "dep"], ["hi", "there"], ["INTJ", "ADV"])
    model = Model(labels=["dep", "root"])
    feats = extract_features(initial_config(s), *sentence_atoms(s))
    snapshot, arc = _tied_snapshot(model, feats, bits)
    assert 0.1 + 0.2 > 0.3
    allowed = model.allowed[valid_actions(initial_config(s))]
    assert allowed.index(0) < allowed.index(arc)  # the integer argmax takes SHIFT
    floats = snapshot.float_rows()
    assert floats == {feats[0]: ((0, 0.3), (arc, 0.1)), feats[1]: ((arc, 0.2),)}
    assert _argmax(Model(model.labels, weights=floats).score(feats), allowed) == arc
    assert snapshot.exact and snapshot.choose(feats, allowed) == arc
    exact = Model(model.labels, averaged=snapshot)
    parsed, steps = _recorded_steps(monkeypatch, exact, [s])
    float_parsed, float_steps = _recorded_steps(monkeypatch, Model(model.labels, weights=floats), [s])
    assert steps[0] == ("exact", arc) and float_steps[0] == ("fixed", arc)
    assert parsed == float_parsed and parsed[0].heads()[1:] == [0, 1]


@pytest.mark.parametrize("bits", [32, 64])
def test_numerators_at_the_bound_decode_by_floats(monkeypatch, bits):
    layout = _Layout(4, bits)
    bound = layout.bound
    assert bound == min(2**39, 2 ** (bits - 8))
    # every field of a sum of TEMPLATES numerators below the bound reads back
    assert TEMPLATES * bound <= layout.half
    for a in range(4):
        for n in (0, 1, -1, bound - 1, -bound):
            others = sum(v * layout.unit[b] for b, v in enumerate([bound - 1, -bound, 5, -7]) if b != a)
            assert layout.within_bound([n * layout.unit[a] + others]), (a, n)
        for n in (bound, -bound - 1, layout.half - 1, -layout.half):
            assert not layout.within_bound([n * layout.unit[a]]), (a, n)
            assert not layout.within_bound([0, n * layout.unit[a] - layout.unit[3 - a]]), (a, n)
    # a trained model whose snapshot holds one numerator at the bound
    s = make_sentence([0, 1], ["root", "dep"], ["hi", "there"], ["INTJ", "ADV"])
    model = Model(labels=["dep", "root"])
    feats = extract_features(initial_config(s), *sentence_atoms(s))
    snapshot, arc = _tied_snapshot(model, feats, bits)
    layout = snapshot.layout
    snapshot = _Averaged(dict(snapshot.rows, **{feats[2]: layout.bound * layout.unit[1]}), 10, layout)
    assert not snapshot.exact
    wide = Model(model.labels, averaged=snapshot)
    assert isinstance(wide.decoder, _FixedPoint)
    parsed, steps = _recorded_steps(monkeypatch, wide, [s])
    assert {kind for kind, _ in steps} == {"fixed"} and steps[0] == ("fixed", arc)
    assert parsed == [parse(Model(model.labels, weights=snapshot.float_rows()), s)]


def _first_step(labels=("dep", "root")):
    """A two-token sentence, a model of `labels` without weights, the
    features of its first step and the actions allowed there: SHIFT, then
    RIGHT_ARC of each label."""
    s = make_sentence([0, 1], ["root", "dep"], ["hi", "there"], ["INTJ", "ADV"])
    model = Model(labels=list(labels))
    c = initial_config(s)
    return s, model, extract_features(c, *sentence_atoms(s)), model.allowed[valid_actions(c)]


def _fixed_choice(monkeypatch, model: Model, feats, allowed) -> tuple[int, int]:
    """What the fixed-point decoder of `model` chooses, and how many times it
    asked `Model.score`; checked against `_argmax` over `Model.score`."""
    decoder = model.decoder
    assert isinstance(decoder, _FixedPoint)
    calls = []
    score = Model.score
    with monkeypatch.context() as m:
        m.setattr(Model, "score", lambda self, f: calls.append(1) or score(self, f))
        got = decoder.choose(feats, allowed)
    assert got == _argmax(model.score(feats), allowed)
    return got, len(calls)


def test_fixed_point_near_ties_are_decided_in_floats(monkeypatch):
    s, model, feats, allowed = _first_step()
    shift, dep, root = allowed
    x = 0.7
    cases = [
        # integer sums that tie, where floats do not: 0.1 + 0.2 > 0.3
        ({feats[0]: ((shift, 0.3), (root, 0.1)), feats[1]: ((root, 0.2),)}, root),
        ({feats[0]: ((shift, 0.1), (root, 0.3)), feats[1]: ((shift, 0.2),)}, shift),
        # sums one ulp apart, either way round
        ({feats[0]: ((shift, x), (dep, math.nextafter(x, 1.0)))}, dep),
        ({feats[0]: ((shift, math.nextafter(x, 1.0)), (dep, x))}, shift),
        ({feats[0]: ((dep, math.nextafter(0.3, 0.0)),), feats[5]: ((root, 0.1),), feats[9]: ((root, 0.2),)}, root),
        # exact ties at the top: the first in `allowed` order
        ({feats[0]: ((shift, 0.5), (dep, 0.5))}, shift),
        ({feats[0]: ((shift, 0.1), (dep, 0.7), (root, 0.7))}, dep),
        ({feats[0]: ((dep, 0.25),), feats[1]: ((dep, 0.5), (root, 0.75))}, dep),
    ]
    for rows, expected in cases:
        model.weights = rows
        assert _fixed_choice(monkeypatch, model, feats, allowed) == (expected, 1), rows
        assert parse(model, s) == ref_float_parse(model, s)
    # a clear winner: no float is summed
    model.weights = {feats[0]: ((shift, 0.1), (root, 0.5)), feats[1]: ((dep, 0.3),)}
    assert _fixed_choice(monkeypatch, model, feats, allowed) == (root, 0)


def test_fixed_point_slack_for_the_weights_of_a_model():
    _, model, feats, _ = _first_step()
    # with the largest |w| in [2^(e-1), 2^e), a weight w is round(w * 2^(24 -
    # e)) units, so the largest is in [2^23, 2^24]; the error of the float
    # sums is under one unit, and the slack is 2 * (70 / 2 + 1)
    assert TEMPLATES == 70
    for wmax in (0.75, 1.0, 3.0, 1e300, 1e-300, 5e-324, 2.0**1016):
        model.weights = {feats[0]: ((0, wmax), (1, -wmax / 3))}
        decoder = model.decoder
        assert decoder.slack == 72, wmax
        units = [v - decoder.layout.half for v in decoder.layout.fields(decoder.rows[feats[0]])]
        scale = 24 - math.frexp(wmax)[1]
        assert 2**23 <= units[0] <= 2**24 and units[1] == round(math.ldexp(-wmax / 3, scale)), wmax
    # an empty model: every sum is 0, exactly
    model.weights = {}
    assert model.decoder.slack == 70
    # weights whose float sums may overflow, or that are not finite: no rows,
    # so every allowed action is a candidate
    for w in (2.0 ** 1017, 1.7e308, math.inf, -math.inf, math.nan):
        model.weights = {feats[0]: ((0, 1.0), (1, w))}
        assert model.decoder.rows == {} and model.decoder.slack == model.decoder.layout.half


@pytest.mark.parametrize(
    "rows",
    [
        # 1e300 beside 1e-300: the small weights round to 0, the floats decide
        lambda a: {0: ((a[0], 1e300),), 1: ((a[1], 1e300),), 2: ((a[1], 1e-300),)},
        lambda a: {0: ((a[1], 1e-300),), 1: ((a[0], 1e300), (a[0], -1e300)), 3: ((a[2], -1e300),)},
        lambda a: {0: ((a[0], 1e300), (a[1], 1e-300), (a[2], -1e-300)), 7: ((a[1], 1e300),)},
        # subnormals only
        lambda a: {0: ((a[0], 5e-324), (a[1], 1e-323)), 1: ((a[2], 1e-323),)},
        lambda a: {0: ((a[0], 5e-324),), 2: ((a[1], 5e-324),), 4: ((a[2], 5e-324), (a[1], -5e-324))},
        # float sums that overflow, and weights that are not finite
        lambda a: {0: ((a[0], 1e308), (a[1], 1.7e308)), 1: ((a[0], 1e308),)},
        lambda a: {0: ((a[0], math.inf), (a[1], math.inf)), 1: ((a[2], -math.inf),)},
        lambda a: {0: ((a[0], math.nan), (a[1], 1.0))},
    ],
)
def test_fixed_point_decodes_extreme_ranges_as_floats(monkeypatch, rows):
    rng = random.Random(8)
    sentences = [make_sentence(random_projective_tree(rng, n)) for n in (1, 2, 5, 9)]
    sentences += [random_conllu_sentence(rng, n, "tree") for n in (3, 7, 12)]
    model = Model(labels=["dep", "root"])
    feats = set()
    for s in sentences:
        c = initial_config(s)
        feats.update(extract_features(c, *sentence_atoms(s)))
    feats = sorted(feats)
    allowed = [0, 2, 3]  # SHIFT, RIGHT_ARC:dep, RIGHT_ARC:root
    model.weights = {feats[f]: row for f, row in rows(allowed).items()}
    _assert_decodes_as_floats(monkeypatch, model, sentences, "fixed")


def test_the_empty_model_decodes_as_floats_by_the_fallback(monkeypatch):
    rng = random.Random(3)
    sentences = [make_sentence(random_projective_tree(rng, n)) for n in range(1, 12)]
    model = Model(labels=["dep", "root", "nsubj"])
    scored = []
    score = Model.score
    with monkeypatch.context() as m:
        m.setattr(Model, "score", lambda self, f: scored.append(1) or score(self, f))
        _, steps = _recorded_steps(monkeypatch, model, sentences)
    # every step with more than one allowed action ties at 0 and asks floats;
    # a SHIFT-only step needs no score
    assert model.decoder.rows == {} and 0 < len(scored) <= len(steps)
    _assert_decodes_as_floats(monkeypatch, model, sentences, "fixed")


@pytest.mark.parametrize("seed", range(6))
def test_fixed_point_matches_floats_on_rows_built_for_near_ties(monkeypatch, seed):
    # random rows over the features of real steps, with weights from a few
    # values whose float sums round: many steps have candidates within the
    # slack, and each is decided as the float reference decides it
    rng = random.Random(seed)
    sentences = _corpus(rng, "synth", 6) + _corpus(rng, "tree", 6)
    model = Model(labels=["dep", "root"])
    feats = {}
    for s in sentences:
        c, atoms = initial_config(s), sentence_atoms(s)
        for a in static_oracle_derivation(s).actions:
            feats.update(dict.fromkeys(extract_features(c, *atoms)))
            apply_action(c, a)
    # sums of these tie in the reals, as 0.1 + 0.2 and 0.3 or 1/3 + 1/3 and
    # 2/3 do, and come out equal or an ulp or two apart in floats; few
    # features have a row, so sums of few of them meet at the top
    values = [0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3]
    n = len(model.actions)
    model.weights = {
        f: tuple((a, rng.choice(values)) for a in sorted(rng.sample(range(n), rng.randint(1, 3))))
        for f in feats
        if rng.random() < 0.1
    }
    scored = []
    score = Model.score
    with monkeypatch.context() as m:
        m.setattr(Model, "score", lambda self, f: scored.append(1) or score(self, f))
        [parse(model, s) for s in sentences]
    assert scored  # the fallback ran
    _assert_decodes_as_floats(monkeypatch, model, sentences, "fixed")


def test_setting_weights_replaces_the_snapshot():
    corpus = synth_corpus(6)
    model = train(corpus, None, Hyperparameters(epochs=2), seed=2)
    assert isinstance(model.decoder, _Averaged)
    model.weights = {}
    assert isinstance(model.decoder, _FixedPoint) and model.weights == {}
    assert parse(model, corpus[0]) == parse(Model(model.labels), corpus[0])


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
        "S0p=<ROOT>": ((model.actions.index(Action(RIGHT_ARC, "root")), 1.0),),
        "S0p=X": ((model.actions.index(Action(REDUCE)), 1.0),),
        "S0p=Y": ((model.actions.index(Action(LEFT_ARC, "dep")), 1.0),),
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
    # a row's pairs come out sorted by action index, whatever the line order
    path = tmp_path / "model.txt"
    path.write_text(HEADER + LABELS + entries(4) + "S0w=a\tLEFT_ARC:dep\t2.0\nS0w=a\tSHIFT\t1.0\n"
                    "S0w=a\tREDUCE\t-1.0\nS0w=b\tSHIFT\t0.5\n", encoding="utf-8")
    model = load_model(str(path))
    assert model.weights == {"S0w=a": ((0, 1.0), (1, -1.0), (2, 2.0)), "S0w=b": ((0, 0.5),)}


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
    model = Model(labels=["dep", "root"], weights={feature: ((0, 1.0),)})
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
