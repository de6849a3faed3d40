import random

import pytest

from udscheme.conllu import is_projective
from udscheme.parsing import perceptron, transitions
from udscheme.parsing.features import extract_features, sentence_atoms
from udscheme.parsing.perceptron import Hyperparameters, train
from udscheme.parsing.transitions import (
    KIND_ORDER,
    Action,
    Gold,
    LEFT_ARC,
    REDUCE,
    RIGHT_ARC,
    SHIFT,
    apply_action,
    initial_config,
    kind_costs,
    oracle_step,
    reachable_gold_count,
    static_oracle_derivation,
    valid_actions,
)

from helpers import (
    ConfigGraph,
    all_trees,
    copy_config,
    make_sentence,
    random_conllu_sentence,
    random_projective_tree,
    random_tree,
    ref_apply,
    ref_cost,
    ref_extract_features,
    ref_initial,
    ref_reachable_gold_count,
    ref_static_oracle_derivation,
    ref_valid_actions,
    replay_arcs,
    state_key,
)
from synth import synth_corpus

THE_BOOK = make_sentence([2, 0], ["det", "root"], ["the", "book"])


def test_action_label_validation():
    with pytest.raises(ValueError):
        Action(LEFT_ARC)
    with pytest.raises(ValueError):
        Action(SHIFT, "det")
    assert Action(RIGHT_ARC, "root").label == "root"


def test_initial_config():
    c = initial_config(THE_BOOK)
    assert c.stack == [0] and list(c.buffer) == [1, 2] and c.arcs == []


def test_valid_actions_transitions():
    c = initial_config(THE_BOOK)
    # stack top is the artificial root: no LEFT_ARC, nothing to reduce
    assert valid_actions(c) == {SHIFT, RIGHT_ARC}
    apply_action(c, Action(SHIFT))
    # token 1 has no head yet: no REDUCE
    assert valid_actions(c) == {SHIFT, RIGHT_ARC, LEFT_ARC}
    apply_action(c, Action(LEFT_ARC, "det"))
    assert c.arcs == [(2, 1, "det")]
    assert valid_actions(c) == {SHIFT, RIGHT_ARC}
    apply_action(c, Action(RIGHT_ARC, "root"))
    assert c.arcs == [(2, 1, "det"), (0, 2, "root")]
    # buffer exhausted, token 2 has a head: only REDUCE remains
    assert valid_actions(c) == {REDUCE}
    apply_action(c, Action(REDUCE))
    assert valid_actions(c) == set()


def test_apply_invalid_action_raises():
    c = initial_config(THE_BOOK)
    with pytest.raises(ValueError):
        apply_action(c, Action(REDUCE))
    with pytest.raises(ValueError):
        apply_action(c, Action(LEFT_ARC, "det"))


def test_cost_example_the_book():
    # at stack [0,1], buffer [2]: LEFT_ARC is on the gold path; SHIFT buries
    # the headless token 1 AND strands token 2 without its root arc (verified
    # against the exhaustive oracle, which gives 2); RIGHT_ARC loses both arcs
    c = initial_config(THE_BOOK)
    apply_action(c, Action(SHIFT))
    assert kind_costs(c, Gold(THE_BOOK))[LEFT_ARC] == 0
    assert kind_costs(c, Gold(THE_BOOK))[SHIFT] >= 1
    assert kind_costs(c, Gold(THE_BOOK))[RIGHT_ARC] == 2
    graph = ConfigGraph(THE_BOOK)
    assert kind_costs(c, Gold(THE_BOOK))[SHIFT] == graph.arc_cost(
        state_key(c, THE_BOOK.heads()), SHIFT
    )


def test_cost_right_arc_to_non_root_token():
    # gold root is token 2; attaching token 1 to the artificial root costs
    s = make_sentence([2, 0], ["dep", "root"])
    c = initial_config(s)
    assert kind_costs(c, Gold(s))[RIGHT_ARC] >= 1


def test_static_oracle_the_book():
    d = static_oracle_derivation(THE_BOOK)
    assert [(a.kind, a.label) for a in d.actions] == [
        (SHIFT, None),
        (LEFT_ARC, "det"),
        (RIGHT_ARC, "root"),
    ]


def test_static_oracle_single_token():
    s = make_sentence([0], ["root"])
    d = static_oracle_derivation(s)
    assert [(a.kind, a.label) for a in d.actions] == [(RIGHT_ARC, "root")]


def test_oracle_completeness_random_projective():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 10)
        s = make_sentence(random_projective_tree(rng, n))
        arcs = replay_arcs(s, static_oracle_derivation(s))
        assert sorted((h, d) for h, d, _ in arcs) == sorted(
            (t.head, t.id) for t in s.tokens
        )


def test_cost_matches_bruteforce_exhaustive_small():
    # every tree (projective or not) over 1..4 tokens, every reachable
    # configuration, every valid action kind
    for n in range(1, 5):
        for heads in all_trees(n):
            s = make_sentence(heads)
            graph = ConfigGraph(s)
            for key, c in graph.configs():
                # the graph derives each key from its predecessor's
                assert state_key(c, s.heads()) == key
                for kind in valid_actions(c):
                    assert kind_costs(c, Gold(s))[kind] == graph.arc_cost(key, kind), (heads, c, kind)


def test_costed_kinds_are_the_valid_kinds_while_the_buffer_is_not_empty():
    # training keys its allowed actions on valid_actions(c) in place of the
    # kinds kind_costs costs; every tree over 1..4 tokens, every reachable
    # configuration
    for n in range(1, 5):
        for heads in all_trees(n):
            s = make_sentence(heads)
            gold = Gold(s)
            for _, c in ConfigGraph(s).configs():
                if c.b <= c.n:
                    assert kind_costs(c, gold).keys() == valid_actions(c), (heads, c)


def test_reachable_count_matches_bruteforce_joint_max_on_projective():
    # for projective gold the per-arc count equals the jointly achievable max
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 6)
        s = make_sentence(random_projective_tree(rng, n))
        gold_heads = s.heads()
        graph = ConfigGraph(s)
        for key, c in graph.configs():
            assert (
                reachable_gold_count(c, gold_heads)
                == graph.max_reachable(key)
                == len(graph.reachable_gold(key))
            )


def test_zero_cost_action_always_exists_on_gold_path():
    # dynamic-oracle soundness: follow zero-cost actions from the start;
    # at every step some valid action has cost 0 (projective gold)
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 8)
        s = make_sentence(random_projective_tree(rng, n))
        c = initial_config(s)
        while True:
            kinds = valid_actions(c)
            if not kinds:
                break
            zero = [k for k in kinds if kind_costs(c, Gold(s))[k] == 0]
            assert zero, (s.heads(), c)
            k = rng.choice(zero)
            apply_action(c, Action(k) if k in (SHIFT, REDUCE) else Action(k, "_"))


def test_joint_max_cost_agrees_on_projective_configs():
    # sanity for the second brute-force oracle: on projective trees the
    # joint-max costs coincide with the per-arc costs
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        s = make_sentence(random_projective_tree(rng, n))
        graph = ConfigGraph(s)
        for key, c in graph.configs():
            for kind in valid_actions(c):
                assert graph.action_cost(key, kind) == graph.arc_cost(key, kind)


# --- the in-place state against the functional references -------------------

LABELS = ["nsubj", "obj", "det", "case", "nmod"]


def _random_sentence(rng, n, projective):
    heads = random_projective_tree(rng, n) if projective else random_tree(rng, n)
    deprels = ["root" if h == 0 else rng.choice(LABELS) for h in heads]
    forms = ["w%d" % rng.randint(1, 8) for _ in heads]
    upos = [rng.choice(["NOUN", "VERB", "ADP", "DET"]) for _ in heads]
    return make_sentence(heads, deprels, forms, upos)


def _assert_same_state(c, r, s, gold):
    """c (in place) and r (functional replay) are the same configuration,
    and everything read off c equals its reference read off r."""
    n = c.n
    assert c.stack == list(r.stack)
    assert tuple(c.buffer) == r.buffer
    assert sorted(c.arcs) == sorted(r.arcs)
    assert c.stacked == [d in r.stack for d in range(n + 1)]
    # child lists against an arc scan
    lefts, rights = [[] for _ in range(n + 1)], [[] for _ in range(n + 1)]
    for h, d, _ in sorted(r.arcs, key=lambda arc: arc[1]):
        (lefts if d < h else rights)[h].append(d)
    assert c.lefts == lefts and c.rights == rights
    assert valid_actions(c) == ref_valid_actions(r)
    # closed-form costs against count-before minus count-after
    assert kind_costs(c, gold) == {
        k: ref_cost(r, k, gold.heads) for k in ref_valid_actions(r)
    }
    assert reachable_gold_count(c, gold.heads) == ref_reachable_gold_count(r, gold.heads)
    assert extract_features(c, *sentence_atoms(s)) == ref_extract_features(r, s)


def test_incremental_state_matches_references_on_oracle_and_random_paths():
    # random projective and non-projective trees up to n=60; every step of a
    # path that follows a min-cost action and of one that takes any valid
    # action (random label), checked against the functional replay
    rng = random.Random(606)
    steps = 0
    for i in range(160):
        s = _random_sentence(rng, rng.randint(1, 60), projective=i % 2 == 0)
        gold = Gold(s)
        for follow_oracle in (True, False):
            c, r = initial_config(s), ref_initial(s)
            lost = 0
            while True:
                _assert_same_state(c, r, s, gold)
                steps += 1
                if not c.buffer:
                    break
                costs, best = oracle_step(c, gold)
                if follow_oracle:
                    a = rng.choice(best)
                else:
                    k = rng.choice(sorted(costs))
                    a = Action(k) if k in (SHIFT, REDUCE) else Action(k, rng.choice(LABELS))
                lost += costs[a.kind]
                apply_action(c, a)
                r = ref_apply(r, a)
            transitions.check_lost(c, gold.heads, lost)
            if follow_oracle and is_projective(s):
                assert lost == 0
    assert steps > 10_000


def test_check_lost_catches_wrong_costs(monkeypatch):
    # a cost term that disagrees with the reachable count is caught at the
    # end of the sentence, in the static oracle and in training, which share
    # each term: one fault in one place, for either term
    s = make_sentence([2, 0, 2], ["nsubj", "root", "obj"])
    for helper in ("stranded_count", "orphaned_count"):
        real = getattr(transitions, helper)
        with monkeypatch.context() as m:
            m.setattr(transitions, helper, lambda c, gold, real=real: real(c, gold) + 1)
            with pytest.raises(RuntimeError, match="oracle costs sum to"):
                static_oracle_derivation(s)
            with pytest.raises(RuntimeError, match="oracle costs sum to"):
                train([s], None, Hyperparameters(epochs=1), seed=1)


# hand-built crossing trees, each with a step where no action is free, and
# the sets of kinds that tie at a nonzero minimum at some step
HARD_TREES = [
    ([2, 0, 1], []),
    ([3, 0, 2], [{SHIFT, LEFT_ARC, RIGHT_ARC}, {LEFT_ARC, RIGHT_ARC}]),
    ([0, 1, 1, 2], [{SHIFT, REDUCE, RIGHT_ARC}]),
    ([2, 3, 0, 1], [{SHIFT, LEFT_ARC}]),
    ([3, 0, 2, 1], [{SHIFT, RIGHT_ARC}]),
    ([4, 0, 2, 3], [{REDUCE, RIGHT_ARC}]),
    ([3, 1, 4, 0, 2], [{SHIFT, REDUCE}]),
]


def _costly_steps(s, d):
    """The kinds at the minimum cost, at each step of `d` where no action is
    free, by replaying it with the dynamic oracle's costs."""
    gold, c = Gold(s), initial_config(s)
    out = []
    for a in d.actions:
        costs = kind_costs(c, gold)
        best = min(costs.values())
        if best:
            out.append({k for k in costs if costs[k] == best})
        apply_action(c, a)
    return out


def test_static_oracle_matches_the_oracle_step_reference():
    # the direct cost comparisons against the derivation that took the first
    # of the dynamic oracle step's min-cost actions: the same actions (the
    # very same shared objects) and attachment order, on synth corpora,
    # random trees up to 60 tokens, every tree up to 5 tokens and the
    # hand-built trees, which must show every kind of costly step
    rng = random.Random(2727)
    corpus = synth_corpus(60, seed=27) + [make_sentence(h) for h, _ in HARD_TREES]
    corpus += [random_conllu_sentence(rng, rng.randint(1, 60), "tree") for _ in range(300)]
    corpus += [make_sentence(h) for n in range(1, 6) for h in all_trees(n)]
    costly = tied = 0
    for s in corpus:
        d, ref = static_oracle_derivation(s), ref_static_oracle_derivation(s)
        assert d == ref, s
        assert all(a is r for a, r in zip(d.actions, ref.actions))
        steps = _costly_steps(s, d)
        costly += len(steps)
        tied += sum(len(kinds) > 1 for kinds in steps)
    assert costly > 1000 and tied > 100, (costly, tied)
    for heads, ties in HARD_TREES:
        s = make_sentence(heads)
        steps = _costly_steps(s, static_oracle_derivation(s))
        assert steps, heads
        for kinds in ties:
            assert kinds in steps, (heads, steps)


def _snapshot(c):
    return (c.stack[:], c.b, c.head[:], c.label[:], c.stacked[:],
            [k[:] for k in c.lefts], [k[:] for k in c.rights])


def test_apply_refuses_exactly_the_invalid_kinds_on_random_paths():
    # every kind at every configuration of random valid paths over random
    # projective and non-projective trees: apply_action raises ValueError
    # exactly when the kind is not in valid_actions(c) (which must agree
    # with the functional reference), and a refused action changes nothing
    rng = random.Random(1111)
    checks = 0
    for i in range(200):
        s = _random_sentence(rng, rng.randint(1, 30), projective=i % 2 == 0)
        c, r = initial_config(s), ref_initial(s)
        while True:
            valid = valid_actions(c)
            assert valid == ref_valid_actions(r)
            for kind in KIND_ORDER:
                a = Action(kind) if kind in (SHIFT, REDUCE) else Action(kind, rng.choice(LABELS))
                c2 = copy_config(c)
                before = _snapshot(c2)
                if kind in valid:
                    apply_action(c2, a)
                    r2 = ref_apply(r, a)
                    assert (c2.stack, tuple(c2.buffer), sorted(c2.arcs)) == (
                        list(r2.stack), r2.buffer, sorted(r2.arcs)
                    )
                else:
                    with pytest.raises(ValueError, match="is not valid in"):
                        apply_action(c2, a)
                    assert _snapshot(c2) == before
                checks += 1
            if not valid:
                break
            kind = rng.choice(sorted(valid))
            a = Action(kind) if kind in (SHIFT, REDUCE) else Action(kind, rng.choice(LABELS))
            apply_action(c, a)
            r = ref_apply(r, a)
    with pytest.raises(ValueError, match="is not valid in"):
        apply_action(initial_config(THE_BOOK), Action("UNKNOWN"))
    assert checks > 15_000


def test_apply_checks_the_kinds_its_caller_passes_as_it_checks_its_own():
    # the kinds valid_actions gives, or the kinds kind_costs costs, passed
    # in: apply_action refuses and applies exactly as it does without them
    rng = random.Random(2222)
    for i in range(100):
        s = _random_sentence(rng, rng.randint(1, 20), projective=i % 2 == 0)
        gold, c = Gold(s), initial_config(s)
        while c.b <= c.n:
            valid = valid_actions(c)
            for kinds in (valid, kind_costs(c, gold)):
                for kind in KIND_ORDER:
                    a = Action(kind) if kind in (SHIFT, REDUCE) else Action(kind, "dep")
                    with_kinds, without = copy_config(c), copy_config(c)
                    if kind in valid:
                        apply_action(with_kinds, a, kinds)
                        apply_action(without, a)
                        assert _snapshot(with_kinds) == _snapshot(without)
                    else:
                        with pytest.raises(ValueError, match="is not valid in"):
                            apply_action(with_kinds, a, kinds)
                        assert _snapshot(with_kinds) == _snapshot(c)
            kind = rng.choice(sorted(valid))
            apply_action(c, Action(kind) if kind in (SHIFT, REDUCE) else Action(kind, "dep"))


def test_each_step_derives_its_valid_kinds_once(monkeypatch):
    # static_oracle_derivation has them as the costed kinds; train() and
    # parse() pass apply_action the kinds they chose from
    calls = []
    counted = lambda c: calls.append(1) or valid_actions(c)
    monkeypatch.setattr(transitions, "valid_actions", counted)
    monkeypatch.setattr(perceptron, "valid_actions", counted)
    steps = []
    extract = perceptron.extract_features
    monkeypatch.setattr(perceptron, "extract_features", lambda *a: steps.append(1) or extract(*a))
    corpus = synth_corpus(6)
    for s in corpus:
        static_oracle_derivation(s)
    assert calls == []
    model = train(corpus, None, Hyperparameters(epochs=2), seed=1)
    assert 0 < len(calls) == len(steps)
    del calls[:], steps[:]
    for s in corpus:
        perceptron.parse(model, s)
    assert 0 < len(calls) <= len(steps)


def test_oracle_step_returns_the_same_action_objects():
    # two consecutive steps (and a step with a new Gold of the same
    # sentence) return the very same objects, equal to freshly built ones
    rng = random.Random(2222)
    for i in range(100):
        s = _random_sentence(rng, rng.randint(1, 30), projective=i % 2 == 0)
        gold = Gold(s)
        c = initial_config(s)
        while c.b <= c.n:
            costs, first = oracle_step(c, gold)
            again_costs, again = oracle_step(c, gold)
            _, other_gold = oracle_step(c, Gold(s))
            assert again_costs == costs
            assert len(first) == len(again) == len(other_gold) >= 1
            for a, b, o in zip(first, again, other_gold):
                assert a is b and a is o
            labels = {LEFT_ARC: gold.deprels[c.stack[-1]], RIGHT_ARC: gold.deprels[c.b]}
            assert first == [Action(a.kind, labels.get(a.kind)) for a in first]
            assert [a.kind for a in first] == sorted(
                (k for k in costs if costs[k] == min(costs.values())), key=KIND_ORDER.get
            )
            apply_action(c, rng.choice(first))
