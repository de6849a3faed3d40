import random

from udscheme.parsing.features import (
    NULL,
    ROOT_POS,
    ROOT_WORD,
    extract_features,
    sentence_atoms,
)
from udscheme.parsing.transitions import (
    Action,
    LEFT_ARC,
    RIGHT_ARC,
    SHIFT,
    apply_action,
    initial_config,
    static_oracle_derivation,
    valid_actions,
)

from helpers import make_sentence, random_projective_tree

# every configuration yields one feature per template
FEATURE_TEMPLATE_COUNT = 70

THE_BOOK = make_sentence([2, 0], ["det", "root"], ["the", "book"], ["DET", "NOUN"])


def feats(c, s):
    return dict(f.split("=", 1) for f in extract_features(c, *sentence_atoms(s)))


def test_initial_config_values():
    f = feats(initial_config(THE_BOOK), THE_BOOK)
    assert f["S0w"] == ROOT_WORD
    assert f["S0p"] == ROOT_POS
    assert f["N0w"] == "the"
    assert f["N0p"] == "DET"
    assert f["N1p"] == "NOUN"
    assert f["N2w"] == NULL
    assert f["S0pN0p"] == ROOT_POS + "|DET"
    assert f["S0pN0pd"] == ROOT_POS + "|DET|1"


def test_empty_buffer_gives_null_n0():
    c = initial_config(THE_BOOK)
    for a in (Action(SHIFT), Action(LEFT_ARC, "det"), Action(RIGHT_ARC, "root")):
        apply_action(c, a)
    assert not c.buffer
    f = feats(c, THE_BOOK)
    assert f["N0w"] == f["N0p"] == f["N1w"] == f["N2p"] == NULL
    assert f["N0pN1p"] == NULL + "|" + NULL
    # distance is undefined without a buffer front
    assert f["S0wd"] == "book|" + NULL


def test_child_and_head_features_after_arcs():
    c = initial_config(THE_BOOK)
    apply_action(c, Action(SHIFT))
    apply_action(c, Action(LEFT_ARC, "det"))
    apply_action(c, Action(RIGHT_ARC, "root"))
    f = feats(c, THE_BOOK)
    # S0 = book, headed by the root with label root, with left child "the"
    assert f["S0hw"] == ROOT_WORD
    assert f["S0hl"] == "root"
    assert f["S0lw"] == "the"
    assert f["S0ll"] == "det"
    assert f["S0rw"] == NULL
    assert f["S0wvl"] == "book|1"
    assert f["S0psl"] == "NOUN|det"


def test_fixed_length_everywhere():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 8)
        s = make_sentence(random_projective_tree(rng, n))
        c = initial_config(s)
        atoms = sentence_atoms(s)
        assert len(extract_features(c, *atoms)) == FEATURE_TEMPLATE_COUNT
        for a in static_oracle_derivation(s).actions:
            apply_action(c, a)
            fs = extract_features(c, *atoms)
            assert len(fs) == FEATURE_TEMPLATE_COUNT
            # template keys are unique, so features can index a weight map
            assert len({f.split("=", 1)[0] for f in fs}) == FEATURE_TEMPLATE_COUNT


def test_distance_cap():
    n = 13
    heads = [0] + [1] * (n - 1)
    s = make_sentence(heads)
    c = initial_config(s)
    apply_action(c, Action(SHIFT))  # token 1 on top
    # attach tokens 2..12 to token 1 and pop them, leaving N0 = 13 far away
    for _ in range(11):
        apply_action(c, Action(RIGHT_ARC, "dep"))
        apply_action(c, Action("REDUCE"))
    assert c.stack[-1] == 1 and c.buffer[0] == 13
    f = feats(c, s)
    assert f["S0pd"].endswith("|10")
