"""UAS scoring (punctuation excluded), scheme comparison and metric coherence."""

from __future__ import annotations

from dataclasses import dataclass

from .conllu import Sentence, Token
from .transform import Transformation


class LineupError(ValueError):
    """A predicted sentence or corpus that does not line up with its gold one.
    The message says where, from the predicted side: `udscheme evaluate`
    names the two files around it."""


def is_scored(t: Token) -> bool:
    """The one rule for which gold tokens UAS counts: those whose UPOS is
    not PUNCT."""
    return t.upos != "PUNCT"


def uas(gold: Sentence, predicted: Sentence) -> tuple[int, int]:
    """(correct, total) over the scored gold tokens (`is_scored`)."""
    if len(gold.tokens) != len(predicted.tokens):
        raise LineupError("%d tokens, against %d" % (len(predicted.tokens), len(gold.tokens)))
    correct = total = 0
    for g, p in zip(gold.tokens, predicted.tokens):
        if g.form != p.form:
            raise LineupError("token %d is %r, against %r" % (p.id, p.form, g.form))
        if is_scored(g):
            total += 1
            if g.head == p.head:
                correct += 1
    return correct, total


def corpus_score(
    gold: list[Sentence], predicted: list[Sentence]
) -> tuple[float, int, int]:
    """Corpus-level UAS as a percentage, with the (correct, total) counts
    it is computed from."""
    if len(gold) != len(predicted):
        raise LineupError("%d sentences, against %d" % (len(predicted), len(gold)))
    correct = total = 0
    for i, (g, p) in enumerate(zip(gold, predicted), start=1):
        try:
            c, t = uas(g, p)
        except LineupError as e:
            raise LineupError("sentence %d: %s" % (i, e)) from None
        correct += c
        total += t
    if total == 0:
        raise ValueError("no scorable (non-punctuation) tokens")
    return 100.0 * correct / total, correct, total


def corpus_uas(gold: list[Sentence], predicted: list[Sentence]) -> float:
    """Corpus-level UAS as a percentage."""
    return corpus_score(gold, predicted)[0]


@dataclass(frozen=True)
class ComparisonRow:
    language: str
    transformation: Transformation
    uas_ud: float | None  # mean over seeds, None when excluded
    uas_transformed: float | None
    diff: float | None  # positive = UD scheme scored higher
    excluded: bool = False


def compare_schemes(
    language: str,
    transformation: Transformation,
    ud_scores: list[float],
    transformed_scores: list[float],
    excluded: bool = False,
) -> ComparisonRow:
    """Average the per-seed UAS values of both schemes into one row."""
    if excluded:
        return ComparisonRow(language, transformation, None, None, None, True)
    if not ud_scores or not transformed_scores:
        raise ValueError("empty seed list")
    if len(ud_scores) != len(transformed_scores):
        raise ValueError("seed counts differ between schemes")
    mean_ud = sum(ud_scores) / len(ud_scores)
    mean_tr = sum(transformed_scores) / len(transformed_scores)
    return ComparisonRow(
        language, transformation, mean_ud, mean_tr, mean_ud - mean_tr, False
    )


def metric_coherence(
    metric_ud: float,
    metric_transformed: float,
    uas_ud: float,
    uas_transformed: float,
) -> bool:
    """True iff the scheme the metric prefers (the lower value: all four
    measures are lower-is-better) is the scheme with higher UAS.

    UAS ties have no best performer; callers must skip them (and report them
    separately).
    """
    if uas_ud == uas_transformed:
        raise ValueError("UAS tie: coherence is undefined")
    if metric_ud == metric_transformed:
        return False  # the metric picks no side, so it cannot be coherent
    metric_prefers_ud = metric_ud < metric_transformed
    uas_prefers_ud = uas_ud > uas_transformed
    return metric_prefers_ud == uas_prefers_ud
