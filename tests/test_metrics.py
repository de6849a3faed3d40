import math
import random

import pytest

from udscheme import metrics
from udscheme.metrics import (
    MetricReport,
    avg_dependency_distance,
    compute_report,
    derivation_complexity,
    derivation_perplexity,
    metric_dict,
    pos_predictability,
)
from udscheme.parsing.transitions import static_oracle_derivation

from helpers import (
    make_sentence,
    random_projective_tree,
    random_tree,
    replay_attachment_ids,
)

THE_BOOK = make_sentence([2, 0], ["det", "root"], ["the", "book"], ["DET", "NOUN"])


# --- distance ----------------------------------------------------------------

def test_distance_single_arc():
    assert avg_dependency_distance([THE_BOOK]) == 1.0


def test_distance_chain():
    s = make_sentence([2, 3, 4, 0])
    assert avg_dependency_distance([s]) == 1.0


def test_distance_two_arc_average():
    # arcs 3->1 (distance 2) and 3->2 (distance 1)
    s = make_sentence([3, 3, 0])
    assert avg_dependency_distance([s]) == 1.5


def test_distance_absent_without_nonroot_arcs():
    assert avg_dependency_distance([make_sentence([0], ["root"])]) is None


def test_distance_shuffle_invariant():
    rng = random.Random(2)
    corpus = [make_sentence(random_projective_tree(rng, rng.randint(1, 8))) for _ in range(30)]
    shuffled = list(corpus)
    rng.shuffle(shuffled)
    assert avg_dependency_distance(corpus) == avg_dependency_distance(shuffled)


# --- predictability ----------------------------------------------------------

def test_predictability_deterministic_is_zero():
    # every head POS has exactly one dependent POS
    s = make_sentence([2, 0], ["det", "root"], None, ["DET", "NOUN"])
    assert pos_predictability([s] * 5) == pytest.approx(0.0, abs=1e-12)


def test_predictability_fifty_fifty_is_one_bit():
    # head NOUN with DET and ADJ dependents in equal counts
    a = make_sentence([2, 0], ["det", "root"], None, ["DET", "NOUN"])
    b = make_sentence([2, 0], ["amod", "root"], None, ["ADJ", "NOUN"])
    # the root arcs are deterministic (<ROOT> -> NOUN), contributing 0;
    # entropy comes only from the NOUN head: p(NOUN-head arcs) * 1 bit
    h = pos_predictability([a, b])
    # 4 arcs total, 2 under NOUN heads -> 0.5 * 1.0
    assert h == pytest.approx(0.5, abs=1e-12)


def test_predictability_conditional_weighting():
    # NOUN heads: DET/ADJ equally (1 bit); VERB heads: deterministic NOUN
    a = make_sentence([2, 0], ["det", "root"], None, ["DET", "NOUN"])
    b = make_sentence([2, 0], ["amod", "root"], None, ["ADJ", "NOUN"])
    c = make_sentence([2, 0], ["dobj", "root"], None, ["NOUN", "VERB"])
    # arcs: NOUN->DET, <ROOT>->NOUN, NOUN->ADJ, <ROOT>->NOUN, VERB->NOUN, <ROOT>->VERB
    # NOUN heads carry 1 bit on 2/6 of arcs; the <ROOT> head sees NOUN twice
    # and VERB once on 3/6 of arcs; VERB is deterministic
    h_root = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    expected = (2 / 6) * 1.0 + (3 / 6) * h_root
    assert pos_predictability([a, b, c]) == pytest.approx(expected, abs=1e-12)


def test_predictability_root_arcs_can_carry_entropy():
    a = make_sentence([0], ["root"], None, ["VERB"])
    b = make_sentence([0], ["root"], None, ["NOUN"])
    assert pos_predictability([a, b]) == pytest.approx(1.0, abs=1e-12)


# --- derivations ---------------------------------------------------------------

def derivation_order(s):
    """Word forms in the attachment order the perplexity measure reads."""
    d = static_oracle_derivation(s)
    return [s.token(i).form for i in metrics._attachment_ids(s, d)]


def test_derivation_actions_the_book():
    assert metrics._action_string(static_oracle_derivation(THE_BOOK)) == "SLA"


def test_derivation_order_the_book():
    assert derivation_order(THE_BOOK) == ["the", "book"]


def test_derivation_order_single_token():
    assert derivation_order(make_sentence([0], ["root"], ["hi"])) == ["hi"]


def test_derivation_order_is_permutation():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 9)
        s = make_sentence(random_projective_tree(rng, n))
        assert sorted(derivation_order(s)) == sorted(t.form for t in s.tokens)


def test_derivation_complexity_single_sentence():
    assert derivation_complexity([THE_BOOK]) == 6  # S, L, A, SL, LA, SLA


def test_derivation_complexity_duplication_invariant():
    rng = random.Random(6)
    corpus = [make_sentence(random_projective_tree(rng, rng.randint(1, 7))) for _ in range(10)]
    assert derivation_complexity(corpus) == derivation_complexity(corpus * 2)


def test_derivation_complexity_monotone():
    rng = random.Random(14)
    corpus = []
    prev = 0
    for _ in range(15):
        corpus.append(make_sentence(random_projective_tree(rng, rng.randint(1, 7))))
        cur = derivation_complexity(corpus)
        assert cur >= prev
        prev = cur


def test_derivation_complexity_per_sentence_scope():
    a = make_sentence([2, 0], ["det", "root"])
    b = make_sentence([2, 0], ["det", "root"])
    assert derivation_complexity([a, b], scope="global") == 6
    assert derivation_complexity([a, b], scope="per-sentence") == 12
    with pytest.raises(ValueError):
        derivation_complexity([a], scope="bogus")


def test_derivation_perplexity_basic_properties():
    rng = random.Random(23)
    corpus = [make_sentence(random_projective_tree(rng, rng.randint(2, 7))) for _ in range(20)]
    pp = derivation_perplexity(corpus)
    assert pp >= 1.0
    assert derivation_perplexity(corpus, unit="upos") >= 1.0
    with pytest.raises(ValueError):
        derivation_perplexity(corpus, unit="lemma")


def test_compute_report_fields():
    r = compute_report([THE_BOOK], corpus_id="toy")
    assert r.corpus_id == "toy"
    assert r.distance == 1.0
    assert r.derivation_complexity == 6
    assert r.derivation_perplexity >= 1.0
    assert math.isfinite(r.predictability_bits)
    with pytest.raises(ValueError):
        compute_report([])


def test_compute_report_derives_each_sentence_once(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s)
        return static_oracle_derivation(s)

    monkeypatch.setattr(metrics, "static_oracle_derivation", counting)
    rng = random.Random(41)
    corpus = [make_sentence(random_tree(rng, rng.randint(1, 9))) for _ in range(12)]
    r = compute_report(corpus)
    assert len(calls) == len(corpus)
    # the shared derivations give the same values as the public measures
    assert r.derivation_perplexity == derivation_perplexity(corpus)
    assert r.derivation_complexity == derivation_complexity(corpus)


def test_attached_matches_replayed_attachment_order():
    rng = random.Random(97)
    for i in range(1000):
        n = rng.randint(1, 14)
        heads = random_tree(rng, n) if i % 2 else random_projective_tree(rng, n)
        s = make_sentence(heads)
        attached = list(static_oracle_derivation(s).attached)
        rest = [t.id for t in s.tokens if t.id not in attached]
        assert attached + rest == replay_attachment_ids(s), heads


def test_metric_dict_keys_in_report_order():
    r = compute_report([THE_BOOK])
    d = metric_dict(r)
    assert list(d) == [f for f in MetricReport.__dataclass_fields__ if f != "corpus_id"]
    assert d["derivation_complexity"] == r.derivation_complexity
