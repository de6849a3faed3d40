"""Rewrites between the UD v1 annotation scheme and its "standard" alternatives.

Seven transformations are supported, identified by the relation labels that
trigger them. Simple ones invert a single function-word dependency (case,
mark, det); the others re-head noun sequences, copulas and coordinations.
Every inversion-style rewrite is followed by a positional repair that keeps
the output projective when the inversion would introduce crossing arcs.

All functions are pure: they take sentences and return new sentences; only
head and deprel fields ever change.
"""

from __future__ import annotations

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


def _repair(heads: list[int], i: int, j: int, skip: set[int]) -> int:
    """Reattach to j every child k of i with j strictly between k and i.

    Children listed in `skip` were already moved by the calling rewrite.
    Returns the number of reattachments.
    """
    moved = 0
    for k in _children(heads, i):
        if k != j and k not in skip and (k < j < i or i < j < k):
            heads[k] = j
            moved += 1
    return moved


def _invert(
    s: Sentence, labels: frozenset[str], noun_labels: frozenset[str] | None = None
) -> tuple[Sentence, int, int]:
    """Invert each trigger dependency. With `noun_labels` (the copula
    rewrite), the demoted word's children not labelled in it also move to
    the promoted word."""
    heads, deprels = s.heads(), s.deprels()
    orig_heads, orig_deprels = list(heads), list(deprels)
    n = len(s.tokens)
    rewritten = repairs = 0
    done_heads: set[int] = set()
    for j in range(1, n + 1):
        if orig_deprels[j] not in labels:
            continue
        i = orig_heads[j]
        if i == 0 or i in done_heads:
            continue
        done_heads.add(i)
        # among the trigger children of i, only the nearest one is promoted
        trig = [
            d
            for d in range(1, n + 1)
            if orig_heads[d] == i
            and orig_deprels[d] in labels
            and heads[d] == i  # still attached; earlier rewrites may have moved it
        ]
        if not trig:
            continue
        promoted = min(trig, key=lambda d: (abs(d - i), d))
        label = deprels[promoted]
        heads[promoted], deprels[promoted] = heads[i], deprels[i]
        heads[i], deprels[i] = promoted, label
        rewritten += 1
        moved: set[int] = set()
        for d in trig:
            if d != promoted and heads[d] == i:
                heads[d] = promoted
                moved.add(d)
                rewritten += 1
        if noun_labels is not None:
            # non-noun modifiers of the demoted word follow the promoted one
            for c in _children(heads, i):
                if c != promoted and c not in moved and deprels[c] not in noun_labels:
                    heads[c] = promoted
                    moved.add(c)
        repairs += _repair(heads, i, promoted, moved)
    return s.with_arcs(heads, deprels), rewritten, repairs


def _chain(s: Sentence, labels: frozenset[str]) -> tuple[Sentence, int, int]:
    heads, deprels = s.heads(), s.deprels()
    n = len(s.tokens)
    rewritten = 0
    for f in range(0, n + 1):
        seq = sorted(
            d for d in range(1, n + 1) if heads[d] == f and deprels[d] in labels
        )
        for prev, d in zip(seq, seq[1:]):
            heads[d] = prev
            rewritten += 1
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
    orig_heads, orig_deprels = list(heads), list(deprels)
    n = len(s.tokens)
    rewritten = repairs = 0
    # a head takes part iff it has both a cc child and a conj child;
    # nested coordinations are handled independently, outermost first
    cc_heads = {orig_heads[d] for d in range(1, n + 1) if orig_deprels[d] == "cc"}
    conj_heads = {orig_heads[d] for d in range(1, n + 1) if orig_deprels[d] == "conj"}
    coord_heads = (cc_heads & conj_heads) - {0}
    depth = _depths(orig_heads)
    for w1 in sorted(coord_heads, key=lambda h: (depth[h], h)):
        cc_kids = [d for d in _children(heads, w1) if deprels[d] == "cc"]
        conj_kids = [d for d in _children(heads, w1) if deprels[d] == "conj"]
        if not cc_kids or not conj_kids:
            continue
        conj = min(cc_kids)
        heads[conj], deprels[conj] = heads[w1], deprels[w1]
        heads[w1], deprels[w1] = conj, "conj"
        rewritten += 1
        moved: set[int] = set()
        for d in conj_kids + cc_kids:
            if d != conj:
                heads[d] = conj
                moved.add(d)
                rewritten += 1
        repairs += _repair(heads, w1, conj, moved)
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
