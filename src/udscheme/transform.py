"""Rewrites between the UD v1 annotation scheme and its "standard" alternatives.

Seven transformations are supported, identified by the relation labels that
trigger them. The noun-sequence rewrites (mwe, name) chain a head's trigger
children left to right. The other five take one promote step: word p, promoted
over its head i, takes i's head and deprel; i hangs from p; followers move from
i to p; then the repair reattaches to p each child of i left with p strictly
between it and i, so inverting a leaf keeps a projective tree projective.
Inversions (case, mark, det) and copula promote the trigger child nearest i,
whose label i takes, and i's other trigger children follow it (in the copula
rewrite, so do i's children not labelled as noun modifiers). Coordination
promotes the first cc child of a head with cc and conj children; the head
becomes its conj, and its other cc and conj children follow.

All functions are pure: they take sentences and return new sentences; only
head and deprel fields ever change.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from enum import Enum

from .conllu import Sentence


class Transformation(Enum):
    CASE = "case"
    MARK = "mark"
    DET = "det"
    MWE = "mwe"
    NAME = "name"
    COPULA = "copula"
    COORDINATION = "coordination"


# Relation labels that trigger each transformation.
TRIGGER_LABELS: dict[Transformation, frozenset[str]] = {
    Transformation.CASE: frozenset({"case"}),
    Transformation.MARK: frozenset({"mark"}),
    Transformation.DET: frozenset({"det"}),
    Transformation.MWE: frozenset({"mwe", "goeswith"}),
    Transformation.NAME: frozenset({"name"}),
    Transformation.COPULA: frozenset({"cop", "auxpass"}),
    Transformation.COORDINATION: frozenset({"cc", "conj"}),
}

# Children bearing these labels stay on the demoted word in the copula
# rewrite; everything else moves to the promoted word.
COPULA_NOUN_LABELS = frozenset({"det", "amod", "nmod", "case", "nummod", "acl", "appos"})


@dataclass(frozen=True)
class TransformResult:
    sentences: list[Sentence]
    changed: bool
    arcs_rewritten: int
    repairs_applied: int


def _children(heads: list[int], h: int) -> list[int]:
    return [d for d in range(1, len(heads)) if heads[d] == h]


def _promote(
    heads: list[int], deprels: list[str], i: int, p: int, label: str, followers: list[int]
) -> int:
    """Promote p over i (i hangs from p as `label`) with its followers, then
    repair; returns the number of children of i the repair reattached."""
    heads[p], deprels[p] = heads[i], deprels[i]
    heads[i], deprels[i] = p, label
    for d in followers:
        heads[d] = p
    repairs = 0
    for k in range(1, p) if p < i else range(p + 1, len(heads)):
        if heads[k] == i:
            heads[k] = p
            repairs += 1
    return repairs


def _invert(
    s: Sentence, labels: frozenset[str], noun_labels: frozenset[str] | None = None
) -> tuple[Sentence, int, int]:
    """Invert each trigger dependency. With `noun_labels` (the copula
    rewrite), the demoted word's children not labelled in it follow too."""
    heads, deprels = s.heads(), s.deprels()
    rewritten = repairs = 0
    # trigger children by head, heads in order of their first trigger child
    groups: dict[int, list[int]] = {}
    for d in range(1, len(heads)):
        if deprels[d] in labels and heads[d] != 0:
            groups.setdefault(heads[d], []).append(d)
    for i, group in groups.items():
        trig = [d for d in group if heads[d] == i]  # earlier rewrites may move some
        if not trig:
            continue
        p = min(trig, key=lambda d: (abs(d - i), d))
        followers = [d for d in trig if d != p]
        if noun_labels is not None:
            followers += [
                c for c in _children(heads, i) if c not in trig and deprels[c] not in noun_labels
            ]
        rewritten += len(trig)
        repairs += _promote(heads, deprels, i, p, deprels[p], followers)
    return s.with_arcs(heads, deprels), rewritten, repairs


def _chain(s: Sentence, labels: frozenset[str]) -> tuple[Sentence, int, int]:
    """Chain each head's trigger children left to right, heads in id order.
    A child chained under a later head joins that head's group in id order,
    so it is chained again there."""
    heads, deprels = s.heads(), s.deprels()
    groups: dict[int, list[int]] = {}
    for d in range(1, len(heads)):
        if deprels[d] in labels:
            groups.setdefault(heads[d], []).append(d)
    rewritten = 0
    for f in range(len(heads)):
        seq = groups.get(f, ())
        for prev, d in zip(seq, seq[1:]):
            heads[d] = prev
            rewritten += 1
            if prev > f:
                insort(groups.setdefault(prev, []), d)
    return s.with_arcs(heads, deprels), rewritten, 0


def _depths(heads: list[int]) -> list[int]:
    depth = [0] * len(heads)
    for d in range(1, len(heads)):
        a, k = d, 0
        while a != 0 and k <= len(heads):
            a = heads[a]
            k += 1
        depth[d] = k
    return depth


def _rehead(s: Sentence) -> tuple[Sentence, int, int]:
    heads, deprels = s.heads(), s.deprels()
    rewritten = repairs = 0
    # a head takes part iff it has both a cc child and a conj child;
    # nested coordinations are handled independently, outermost first
    cc_heads = {heads[d] for d in range(1, len(heads)) if deprels[d] == "cc"}
    conj_heads = {heads[d] for d in range(1, len(heads)) if deprels[d] == "conj"}
    depth = _depths(heads)
    for w1 in sorted((cc_heads & conj_heads) - {0}, key=lambda h: (depth[h], h)):
        kids = _children(heads, w1)
        cc = [d for d in kids if deprels[d] == "cc"]
        conj = [d for d in kids if deprels[d] == "conj"]
        if cc and conj:
            # the first conjunction is promoted; the other cc and conj children follow it
            rewritten += len(cc) + len(conj)
            repairs += _promote(heads, deprels, w1, cc[0], "conj", cc[1:] + conj)
    return s.with_arcs(heads, deprels), rewritten, repairs


def _dispatch(
    s: Sentence, t: Transformation, noun_labels: frozenset[str]
) -> tuple[Sentence, int, int]:
    if t in (Transformation.CASE, Transformation.MARK, Transformation.DET):
        return _invert(s, TRIGGER_LABELS[t])
    if t in (Transformation.MWE, Transformation.NAME):
        return _chain(s, TRIGGER_LABELS[t])
    if t is Transformation.COPULA:
        return _invert(s, TRIGGER_LABELS[t], noun_labels)
    return _rehead(s)  # Transformation.COORDINATION


def apply_transformation(
    sentences: list[Sentence],
    t: Transformation,
    noun_labels: frozenset[str] = COPULA_NOUN_LABELS,
) -> TransformResult:
    """Apply one transformation to a corpus. The output trees are not
    checked (`conllu.check_trees` does that)."""
    out: list[Sentence] = []
    changed = False
    rewritten = repairs = 0
    for s in sentences:
        new, r, p = _dispatch(s, t, noun_labels)
        if not new.same_tree(s):
            changed = True
        rewritten += r
        repairs += p
        out.append(new)
    return TransformResult(out, changed, rewritten, repairs)
