import pytest

from udscheme.evaluate import (
    ComparisonRow,
    compare_schemes,
    corpus_uas,
    metric_coherence,
    sum_in_order,
    uas,
)
from udscheme.transform import Transformation

from helpers import make_sentence


def test_uas_perfect():
    g = make_sentence([2, 0, 2], ["det", "root", "dobj"])
    assert uas(g, g) == (3, 3)


def test_uas_punctuation_exclusion_two_thirds():
    # 4 tokens, token 4 PUNCT; tokens 1 and 3 correct, 2 and 4 wrong
    gold = make_sentence(
        [2, 0, 2, 2], ["det", "root", "dobj", "punct"], None,
        ["DET", "VERB", "NOUN", "PUNCT"],
    )
    pred = gold.with_arcs([0, 2, 1, 2, 3], ["_", "det", "root", "dobj", "punct"])
    # pred heads: 1->2 (correct), 2->1 (wrong), 3->2 (correct), 4->3 (wrong, PUNCT)
    assert uas(gold, pred) == (2, 3)
    assert corpus_uas([gold], [pred]) == pytest.approx(200 / 3, abs=0.01)


def test_uas_all_punct_sentence_contributes_nothing():
    g = make_sentence([0, 1], ["root", "punct"], None, ["PUNCT", "PUNCT"])
    assert uas(g, g) == (0, 0)


def test_uas_rejects_mismatched_sentences():
    g = make_sentence([2, 0], ["det", "root"], ["the", "book"])
    other = make_sentence([2, 0], ["det", "root"], ["a", "book"])
    with pytest.raises(ValueError):
        uas(g, other)
    with pytest.raises(ValueError):
        uas(g, make_sentence([0], ["root"]))


def test_uas_ignores_deprels():
    g = make_sentence([2, 0], ["det", "root"])
    p = g.with_arcs([0, 2, 0], ["_", "xxx", "yyy"])
    assert uas(g, p) == (2, 2)


def test_compare_schemes_means_and_sign():
    row = compare_schemes(
        "la", Transformation.COORDINATION,
        [60.69, 60.69, 60.69], [52.57, 52.57, 52.57],
    )
    assert row.uas_ud == pytest.approx(60.69)
    assert row.uas_transformed == pytest.approx(52.57)
    # positive diff means the UD scheme scored higher
    assert row.diff == pytest.approx(8.12)
    assert not row.excluded


def test_compare_schemes_swapping_sides_flips_sign():
    a = compare_schemes("xx", Transformation.CASE, [80.0, 82.0], [79.0, 81.0])
    b = compare_schemes("xx", Transformation.CASE, [79.0, 81.0], [80.0, 82.0])
    assert a.diff == pytest.approx(-b.diff)


def test_compare_schemes_excluded_row():
    row = compare_schemes("zh", Transformation.MWE, [], [], excluded=True)
    assert row.excluded and row.diff is None and row.uas_ud is None


def test_compare_schemes_errors():
    with pytest.raises(ValueError):
        compare_schemes("xx", Transformation.CASE, [], [])
    with pytest.raises(ValueError):
        compare_schemes("xx", Transformation.CASE, [1.0], [1.0, 2.0])


def test_metric_coherence_examples():
    # metric prefers transformed (lower), UAS prefers transformed -> coherent
    assert metric_coherence(2.0, 1.5, 80.0, 82.0) is True
    # metric prefers UD, UAS prefers transformed -> incoherent
    assert metric_coherence(1.5, 2.0, 80.0, 82.0) is False
    # swapping both sides leaves coherence unchanged
    assert metric_coherence(1.5, 2.0, 82.0, 80.0) is True


def test_metric_coherence_ties():
    with pytest.raises(ValueError):
        metric_coherence(1.0, 2.0, 80.0, 80.0)
    # metric tie picks no side
    assert metric_coherence(1.5, 1.5, 80.0, 82.0) is False


def test_seed_means_add_left_to_right_on_every_python():
    # sum() compensates float sums from Python 3.12 on (0.19999999999999998
    # here); the means are the plain left-to-right additions
    row = compare_schemes("xx", Transformation.CASE, [0.1, 0.2, 0.3], [0.3, 0.2, 0.1])
    assert row.uas_ud == (0.1 + 0.2 + 0.3) / 3 == 0.20000000000000004
    assert row.uas_transformed == (0.3 + 0.2 + 0.1) / 3
    assert row.diff == (0.1 + 0.2 + 0.3) / 3 - (0.3 + 0.2 + 0.1) / 3
    assert sum_in_order([]) == 0.0
    assert sum_in_order([1e16, 1.0, -1e16]) == 1e16 + 1.0 - 1e16 == 0.0
