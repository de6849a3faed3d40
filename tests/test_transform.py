import random

import pytest

from udscheme.conllu import Sentence, is_projective, validate_tree
from udscheme.transform import (
    COPULA_NOUN_LABELS,
    TRIGGER_LABELS,
    Transformation,
    apply_transformation,
)

from helpers import (
    make_sentence,
    random_projective_tree,
    random_tree,
    ref_apply_transformation,
)


def rewrite(s: Sentence, t: Transformation) -> Sentence:
    return apply_transformation([s], t).sentences[0]


def arcs_of(s: Sentence):
    return [(t.head, t.id, t.deprel) for t in s.tokens]


# --- golden examples -------------------------------------------------------

def test_golden_case_of_earth():
    # "talk of Earth": talk -nmod-> Earth, Earth -case-> of
    s = make_sentence([0, 3, 1], ["root", "case", "nmod"], ["talk", "of", "Earth"])
    out = rewrite(s, Transformation.CASE)
    assert arcs_of(out) == [(0, 1, "root"), (1, 2, "nmod"), (2, 3, "case")]


def test_golden_mark_to_read():
    # "tries to read": tries -xcomp-> read, read -mark-> to
    s = make_sentence([0, 3, 1], ["root", "mark", "xcomp"], ["tries", "to", "read"])
    out = rewrite(s, Transformation.MARK)
    assert arcs_of(out) == [(0, 1, "root"), (1, 2, "xcomp"), (2, 3, "mark")]


def test_golden_det_the_book():
    s = make_sentence([2, 0], ["det", "root"], ["the", "book"])
    out = rewrite(s, Transformation.DET)
    assert arcs_of(out) == [(0, 1, "root"), (1, 2, "det")]


def test_golden_name_john_jr_doe():
    s = make_sentence([0, 1, 1], ["root", "name", "name"], ["John", "Jr.", "Doe"])
    out = rewrite(s, Transformation.NAME)
    assert arcs_of(out) == [(0, 1, "root"), (1, 2, "name"), (2, 3, "name")]


def test_golden_coordination_me_and_you():
    # "h me and you": me -cc-> and, me -conj-> you
    s = make_sentence(
        [0, 1, 2, 2],
        ["root", "dobj", "cc", "conj"],
        ["sees", "me", "and", "you"],
    )
    out = rewrite(s, Transformation.COORDINATION)
    assert arcs_of(out) == [
        (0, 1, "root"),
        (3, 2, "conj"),
        (1, 3, "dobj"),
        (3, 4, "conj"),
    ]


def test_golden_copula_is_nice():
    s = make_sentence([2, 0], ["cop", "root"], ["is", "nice"])
    out = rewrite(s, Transformation.COPULA)
    assert arcs_of(out) == [(0, 1, "root"), (1, 2, "cop")]


def test_golden_inversion_head_before_trigger():
    # order (i, j, k) = (1, 2, 3): root->w_i, w_i -case-> w_j, w_i -> w_k
    s = make_sentence([0, 1, 1], ["root", "case", "nmod"])
    out = rewrite(s, Transformation.CASE)
    assert arcs_of(out) == [(2, 1, "case"), (0, 2, "root"), (2, 3, "nmod")]
    assert is_projective(out)


def test_golden_inversion_head_after_trigger():
    # order (k, j, i) = (1, 2, 3): root->w_i, w_i -case-> w_j, w_i -> w_k
    s = make_sentence([3, 3, 0], ["nmod", "case", "root"])
    out = rewrite(s, Transformation.CASE)
    assert arcs_of(out) == [(2, 1, "nmod"), (0, 2, "root"), (2, 3, "case")]
    assert is_projective(out)


def test_golden_mwe_chain_danish():
    # "er det pa grund af ham" (it is because of him)
    forms = ["er", "det", "pa", "grund", "af", "ham"]
    s = make_sentence(
        [0, 1, 6, 3, 3, 1],
        ["root", "nsubj", "case", "mwe", "mwe", "nmod"],
        forms,
    )
    out = rewrite(s, Transformation.MWE)
    assert arcs_of(out) == [
        (0, 1, "root"),
        (1, 2, "nsubj"),
        (6, 3, "case"),
        (3, 4, "mwe"),
        (4, 5, "mwe"),
        (1, 6, "nmod"),
    ]


def test_golden_coordination_french():
    # "tant en rouge qu' en bleu" (as well in red as in blue)
    forms = ["tant", "en", "rouge", "qu'", "en", "bleu"]
    s = make_sentence(
        [3, 3, 0, 3, 6, 3],
        ["cc", "case", "root", "cc", "case", "conj"],
        forms,
    )
    out = rewrite(s, Transformation.COORDINATION)
    assert arcs_of(out) == [
        (0, 1, "root"),
        (3, 2, "case"),
        (1, 3, "conj"),
        (1, 4, "cc"),
        (6, 5, "case"),
        (1, 6, "conj"),
    ]


# --- repair rule -----------------------------------------------------------

def test_repair_applies_only_when_j_between_k_and_i():
    # order i<k<j: child between target and head stays put
    # i=1 (head), k=2 (other child), j=3 (trigger dependent)
    s = make_sentence([0, 1, 1], ["root", "nmod", "case"])
    out = rewrite(s, Transformation.CASE)
    # w_k (token 2) keeps w_i as head, no crossing arises
    assert out.token(2).head == 1
    assert is_projective(out)


def test_repair_projectivity_operation():
    # w_h(0) -> w_i(1) -> w_j(2, case), w_i -> w_k(3): the inversion leaves
    # w_j between w_i and w_k, so w_k is reattached to w_j
    s = make_sentence([0, 1, 1], ["root", "case", "nmod"])
    out = rewrite(s, Transformation.CASE)
    assert arcs_of(out) == [(2, 1, "case"), (0, 2, "root"), (2, 3, "nmod")]
    assert is_projective(out)
    assert apply_transformation([s], Transformation.CASE).repairs_applied == 1


def test_repair_after_the_promoted_word_starts_next_to_it():
    # i = 2 with children 1 (before it), 3 (det, promoted), 4 and 5: the
    # repair reattaches 4 and 5, next to and past p, and leaves 1 on i
    s = make_sentence([2, 0, 2, 2, 2], ["amod", "root", "det", "nmod", "punct"])
    result = apply_transformation([s], Transformation.DET)
    assert arcs_of(result.sentences[0]) == [
        (2, 1, "amod"), (3, 2, "det"), (0, 3, "root"), (3, 4, "nmod"), (3, 5, "punct"),
    ]
    assert (result.arcs_rewritten, result.repairs_applied) == (1, 2)


def test_coordination_repair_reattaches_the_word_after_the_conjunction():
    # the head 1 has cc 2, punct 3 and conj 4: 2 is promoted, conj 4
    # follows it, and the repair reattaches 3, right after 2
    s = make_sentence([0, 1, 1, 1], ["root", "cc", "punct", "conj"])
    result = apply_transformation([s], Transformation.COORDINATION)
    assert arcs_of(result.sentences[0]) == [
        (2, 1, "conj"), (0, 2, "root"), (2, 3, "punct"), (2, 4, "conj"),
    ]
    assert (result.arcs_rewritten, result.repairs_applied) == (2, 1)


# --- behavior details ------------------------------------------------------

def test_invert_no_trigger_is_identity():
    s = make_sentence([2, 0], ["amod", "root"])
    out = rewrite(s, Transformation.CASE)
    assert out.same_tree(s)


def test_invert_multiple_trigger_children_nearest_wins():
    # two case children of token 3: tokens 2 (nearest) and 1
    s = make_sentence([3, 3, 0], ["case", "case", "root"], ["a", "b", "c"])
    out = rewrite(s, Transformation.CASE)
    # token 2 promoted to root; token 3 demoted; token 1 reattached to 2
    assert out.token(2).head == 0 and out.token(2).deprel == "root"
    assert out.token(3).head == 2 and out.token(3).deprel == "case"
    assert out.token(1).head == 2 and out.token(1).deprel == "case"


def test_chain_singleton_unchanged():
    s = make_sentence([0, 1], ["root", "mwe"])
    out = rewrite(s, Transformation.MWE)
    assert out.same_tree(s)


def test_chain_of_four_name_children():
    s = make_sentence([0, 1, 1, 1, 1], ["root", "name", "name", "name", "name"])
    result = apply_transformation([s], Transformation.NAME)
    assert result.sentences[0].heads() == [0, 0, 1, 2, 3, 4]
    assert result.arcs_rewritten == 3


def test_chain_under_a_later_head_is_chained_again_there():
    # head 1 chains 2, 4, 5: 4 under 2 and 5 under 4. Head 2 then sees its
    # own mwe child 3 and the chained 4, in id order, and chains 4 under 3
    s = make_sentence([0, 1, 2, 1, 1], ["root", "mwe", "mwe", "mwe", "mwe"])
    result = apply_transformation([s], Transformation.MWE)
    assert result.sentences[0].heads() == [0, 0, 1, 2, 3, 4]
    assert result.arcs_rewritten == 3


def test_copula_noun_children_stay():
    # "the sky is blue ." -> det/nsubj handling per the noun-label set
    s = make_sentence(
        [2, 4, 4, 0, 4],
        ["det", "nsubj", "cop", "root", "punct"],
        ["the", "sky", "is", "blue", "."],
    )
    out = rewrite(s, Transformation.COPULA)
    assert out.token(3).head == 0 and out.token(3).deprel == "root"
    assert out.token(4).head == 3 and out.token(4).deprel == "cop"
    # nsubj and punct are not noun-related: they move to the copula
    assert out.token(2).head == 3
    assert out.token(5).head == 3
    # det stays on its noun
    assert out.token(1).head == 2
    assert validate_tree(out).ok


def test_copula_noun_label_children_keep_demoted_head():
    # "is a nice book": det and amod stay on the demoted noun
    s = make_sentence(
        [4, 4, 4, 0],
        ["cop", "det", "amod", "root"],
        ["is", "a", "nice", "book"],
    )
    out = rewrite(s, Transformation.COPULA)
    assert out.token(1).head == 0 and out.token(1).deprel == "root"
    assert out.token(4).head == 1 and out.token(4).deprel == "cop"
    assert out.token(2).head == 4
    assert out.token(3).head == 4


def test_coordination_without_cc_unchanged():
    s = make_sentence([0, 1], ["root", "conj"])
    out = rewrite(s, Transformation.COORDINATION)
    assert out.same_tree(s)


def test_apply_transformation_noop_detection():
    corpus = [make_sentence([0, 1], ["root", "nmod"]) for _ in range(3)]
    result = apply_transformation(corpus, Transformation.MWE)
    assert result.changed is False
    assert result.arcs_rewritten == 0


def test_apply_transformation_only_triggered_sentences_change():
    det = make_sentence([2, 0], ["det", "root"], ["the", "book"])
    plain = make_sentence([2, 0], ["amod", "root"], ["nice", "book"])
    result = apply_transformation([det, plain], Transformation.DET)
    assert result.changed is True
    assert result.sentences[1].same_tree(plain)
    assert not result.sentences[0].same_tree(det)


def test_case_double_application_counts_trigger_arcs():
    # CASE is an involution on simple structures; arcs_rewritten equals the
    # trigger-arc count on both passes
    corpus = [
        make_sentence([0, 3, 1], ["root", "case", "nmod"]),
        make_sentence([2, 0], ["case", "root"]),
    ]
    n_triggers = sum(
        1 for s in corpus for t in s.tokens if t.deprel == "case"
    )
    first = apply_transformation(corpus, Transformation.CASE)
    assert first.arcs_rewritten == n_triggers
    second = apply_transformation(first.sentences, Transformation.CASE)
    assert second.arcs_rewritten == n_triggers


# --- properties ------------------------------------------------------------

ALL_TRIGGERS = sorted({l for labels in TRIGGER_LABELS.values() for l in labels})
OTHER = ["nsubj", "dobj", "nmod", "amod", "punct", "advmod"]


def random_labeled_sentence(rng, n):
    heads = random_tree(rng, n)
    deprels = [
        "root"
        if h == 0
        else (rng.choice(ALL_TRIGGERS) if rng.random() < 0.4 else rng.choice(OTHER))
        for h in heads
    ]
    return make_sentence(heads, deprels)


@pytest.mark.parametrize("transfo", list(Transformation))
def test_property_validity_and_token_preservation(transfo):
    rng = random.Random(hash(transfo.value) & 0xFFFF)
    for _ in range(300):
        n = rng.randint(1, 12)
        s = random_labeled_sentence(rng, n)
        result = apply_transformation([s], transfo)
        out = result.sentences[0]
        assert validate_tree(out).ok
        # only head and deprel may change
        for a, b in zip(s.tokens, out.tokens):
            assert (a.id, a.form, a.upos, a.feats, a.misc) == (
                b.id,
                b.form,
                b.upos,
                b.feats,
                b.misc,
            )
        assert len(out.tokens) == len(s.tokens)


def test_property_label_multiset_preserved_by_inversions():
    rng = random.Random(99)
    for _ in range(300):
        s = random_labeled_sentence(rng, rng.randint(1, 10))
        out = rewrite(s, Transformation.CASE)
        assert sorted(t.deprel for t in out.tokens) == sorted(
            t.deprel for t in s.tokens
        )


def test_property_repair_keeps_leaf_inversions_projective():
    rng = random.Random(4242)
    for _ in range(1000):
        n = rng.randint(2, 12)
        heads = random_projective_tree(rng, n)
        s = make_sentence(heads)
        # pick a leaf whose head is not the root and mark its arc as trigger
        leaves = [
            t.id
            for t in s.tokens
            if t.head != 0 and all(u.head != t.id for u in s.tokens)
        ]
        if not leaves:
            continue
        leaf = rng.choice(leaves)
        deprels = [
            "case" if t.id == leaf else ("root" if t.head == 0 else "dep")
            for t in s.tokens
        ]
        s = make_sentence(heads, deprels)
        assert is_projective(s)
        out = rewrite(s, Transformation.CASE)
        assert is_projective(out), (arcs_of(s), arcs_of(out))


# the copula override keeps a trigger label and clause-level labels on the
# demoted word, so followers and kept children overlap the trigger children
NOUN_LABEL_SETS = (COPULA_NOUN_LABELS, frozenset({"cop", "nsubj", "punct", "conj"}))


@pytest.mark.parametrize("noun_labels", NOUN_LABEL_SETS, ids=["default", "override"])
@pytest.mark.parametrize("transfo", list(Transformation))
def test_differential_against_reference_rewrites(transfo, noun_labels):
    """Heads, deprels and all three counts equal those of the rewrites the
    one promote step replaced, on projective and non-projective trees where
    about half of the arcs carry one of the transformation's trigger labels."""
    rng = random.Random("%s/%d" % (transfo.value, len(noun_labels)))
    triggers = sorted(TRIGGER_LABELS[transfo])
    pool = ALL_TRIGGERS + OTHER + sorted(COPULA_NOUN_LABELS)
    for _ in range(300):
        corpus = []
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(1, 16)
            tree = random_projective_tree if rng.random() < 0.5 else random_tree
            heads = tree(rng, n)
            deprels = [
                "root"
                if h == 0
                else (rng.choice(triggers) if rng.random() < 0.5 else rng.choice(pool))
                for h in heads
            ]
            corpus.append(make_sentence(heads, deprels))
        got = apply_transformation(corpus, transfo, noun_labels)
        want = ref_apply_transformation(corpus, transfo, noun_labels)
        assert [arcs_of(s) for s in got.sentences] == [arcs_of(s) for s in want.sentences]
        assert (got.changed, got.arcs_rewritten, got.repairs_applied) == (
            want.changed,
            want.arcs_rewritten,
            want.repairs_applied,
        )
