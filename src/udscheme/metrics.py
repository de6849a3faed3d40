"""Learnability and complexity measures over a treebank.

Four measures: average head-dependent distance, POS predictability
(conditional entropy of dependent POS given head POS), derivation perplexity
(Witten-Bell trigram perplexity of words reordered by attachment time) and
derivation complexity (distinct substrings over the gold action sequences).

Derivation-based measures use the static-priority oracle
(`transitions.static_oracle_derivation`, which picks each step's action by
comparing the closed-form costs directly); derivations are over the
unlabeled four-symbol action alphabet {S, R, L, A}. Perplexity is
self-perplexity: the model is trained and evaluated on the same corpus.
`compute_report` derives each sentence once and feeds both derivation
measures from that one derivation. POS predictability looks each head's tag
up in one per-sentence tag list, and counts the (head, dependent) tag pairs
in first-seen order, so its entropy adds the same terms in the same order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields

from .conllu import Sentence
from .ngram import WittenBellTrigram
from .parsing.transitions import (
    LEFT_ARC,
    REDUCE,
    RIGHT_ARC,
    SHIFT,
    Derivation,
    static_oracle_derivation,
)
from .suffixtree import count_distinct_substrings

ROOT_POS = "<ROOT>"

ACTION_CHAR = {SHIFT: "S", REDUCE: "R", LEFT_ARC: "L", RIGHT_ARC: "A"}


@dataclass(frozen=True)
class MetricReport:
    corpus_id: str
    distance: float | None  # None when the corpus has no non-root arcs
    predictability_bits: float
    derivation_perplexity: float
    derivation_complexity: int


# the coherence table's name for each measure, keyed by MetricReport field,
# in the table's row order
MEASURE_NAMES = {
    "distance": "distance",
    "predictability_bits": "predictability",
    "derivation_complexity": "derivation complexity",
    "derivation_perplexity": "derivation perplexity",
}


def metric_dict(r: MetricReport) -> dict:
    """The four measures keyed by field name, in MetricReport order."""
    return {f.name: getattr(r, f.name) for f in fields(r) if f.name != "corpus_id"}


def avg_dependency_distance(corpus: list[Sentence]) -> float | None:
    """Mean |head position - dependent position| over non-root arcs."""
    total = count = 0
    for s in corpus:
        for t in s.tokens:
            if t.head != 0:
                total += abs(t.head - t.id)
                count += 1
    return total / count if count else None


def pos_predictability(corpus: list[Sentence]) -> float:
    """H(dependent POS | head POS), maximum likelihood, log base 2.
    Arcs from the artificial root use a distinguished ROOT head tag."""
    joint: Counter = Counter()
    for s in corpus:
        # each token's UPOS by id, the root's tag at 0
        tags = [ROOT_POS]
        tags += [t.upos for t in s.tokens]
        joint.update(zip([tags[t.head] for t in s.tokens], tags[1:]))
    n = sum(joint.values())
    if n == 0:
        return 0.0
    head_totals: Counter = Counter()
    for (h, _), c in joint.items():
        head_totals[h] += c
    entropy = 0.0
    for (h, _), c in joint.items():
        p_joint = c / n
        p_cond = c / head_totals[h]
        entropy -= p_joint * math.log2(p_cond)
    return entropy


def _action_string(d: Derivation) -> str:
    return "".join(ACTION_CHAR[a.kind] for a in d.actions)


def _attachment_ids(s: Sentence, d: Derivation) -> list[int]:
    """Token ids in the order `d` attaches them. Tokens it leaves unattached
    (possible for non-projective trees) are appended in surface order."""
    seen = set(d.attached)
    return list(d.attached) + [t.id for t in s.tokens if t.id not in seen]


def derivation_perplexity(
    corpus: list[Sentence],
    unit: str = "form",
    derivations: list[Derivation] | None = None,
) -> float:
    """Witten-Bell trigram self-perplexity of the attachment-ordered corpus.

    `unit` selects what the language model sees: word forms (default) or
    POS tags. `derivations`: the static-oracle derivations, or None to derive.
    """
    if unit not in ("form", "upos"):
        raise ValueError("unit must be 'form' or 'upos'")
    if derivations is None:
        derivations = [static_oracle_derivation(s) for s in corpus]
    reordered = [
        [getattr(s.token(i), unit) for i in _attachment_ids(s, d)]
        for s, d in zip(corpus, derivations)
    ]
    return WittenBellTrigram(reordered).perplexity(reordered)


def derivation_complexity(
    corpus: list[Sentence],
    scope: str = "global",
    derivations: list[Derivation] | None = None,
) -> int:
    """Distinct substrings over the gold derivations.

    scope='global' counts the distinct set across all derivations with one
    generalized suffix automaton; scope='per-sentence' sums per-derivation
    counts.
    `derivations` as for `derivation_perplexity`.
    """
    if derivations is None:
        derivations = [static_oracle_derivation(s) for s in corpus]
    seqs = [_action_string(d) for d in derivations]
    if scope == "global":
        return count_distinct_substrings(seqs)
    if scope == "per-sentence":
        return sum(count_distinct_substrings([q]) for q in seqs)
    raise ValueError("scope must be 'global' or 'per-sentence'")


def compute_report(
    corpus: list[Sentence],
    corpus_id: str = "",
    perplexity_unit: str = "form",
    complexity_scope: str = "global",
) -> MetricReport:
    if not corpus:
        raise ValueError("empty corpus")
    derivations = [static_oracle_derivation(s) for s in corpus]
    return MetricReport(
        corpus_id=corpus_id,
        distance=avg_dependency_distance(corpus),
        predictability_bits=pos_predictability(corpus),
        derivation_perplexity=derivation_perplexity(corpus, perplexity_unit, derivations),
        derivation_complexity=derivation_complexity(corpus, complexity_scope, derivations),
    )
