"""Interpolated Witten-Bell trigram language model.

P(w | u, v) = lam(uv) * ML(w | u, v) + (1 - lam(uv)) * P(w | v), with
lam(ctx) = c(ctx) / (c(ctx) + T(ctx)) where T(ctx) is the number of distinct
continuations of the context. The recursion bottoms out at the maximum
likelihood unigram interpolated with a uniform distribution over the
vocabulary plus one unseen slot, so unseen words always get non-zero mass.
"""

from __future__ import annotations

import math
from collections import Counter

BOS = "<s>"
EOS = "</s>"


def _trigrams(sentences: list[list[str]]):
    """(u, v, w) at each predicted position: each word, then the end marker;
    the two begin markers are context only."""
    for words in sentences:
        padded = [BOS, BOS, *words, EOS]
        yield from zip(padded, padded[1:], padded[2:])


class WittenBellTrigram:
    def __init__(self, sentences: list[list[str]]):
        """Estimate counts from sentences (plain word lists, padded here):
        each distinct trigram once, with its count, into all three tables."""
        uni: dict[str, int] = {}
        bi: dict = {}
        tri: dict = {}
        for (u, v, w), n in Counter(_trigrams(sentences)).items():
            uni[w] = uni.get(w, 0) + n
            counts = bi.get(v)
            if counts is None:
                counts = bi[v] = {}
            counts[w] = counts.get(w, 0) + n
            counts = tri.get((u, v))
            if counts is None:
                counts = tri[u, v] = {}
            counts[w] = n
        self.uni = uni
        self.total = sum(uni.values())
        self.vocab_size = len(uni)
        # the unigram level's lam and uniform share, the same for every word
        # (a model of no sentences has no unigram level; prob() then fails)
        lam = self.total / (self.total + self.vocab_size) if self.total else 0.0
        self.uni_lam = lam
        self.uni_floor = (1 - lam) * (1.0 / (self.vocab_size + 1))
        # context -> (its continuation counts, c(ctx), lam(ctx))
        for table in (bi, tri):
            for ctx, counts in table.items():
                c = sum(counts.values())
                table[ctx] = counts, c, c / (c + len(counts))
        self.bi, self.tri = bi, tri

    def prob(self, w: str, u: str, v: str) -> float:
        """P(w | u, v); `w` need not be in the training vocabulary."""
        p = self.uni_lam * self.uni.get(w, 0) / self.total + self.uni_floor
        for ctx in (self.bi.get(v), self.tri.get((u, v))):
            if ctx is not None:
                counts, c, lam = ctx
                p = lam * counts.get(w, 0) / c + (1 - lam) * p
        return p

    def perplexity(self, sentences: list[list[str]]) -> float:
        """2 ** cross-entropy over the predicted positions of `_trigrams`."""
        log_sum, positions = 0.0, 0
        for positions, (u, v, w) in enumerate(_trigrams(sentences), 1):
            log_sum += math.log2(self.prob(w, u, v))
        if positions == 0:
            raise ValueError("no predicted positions")
        return 2.0 ** (-log_sum / positions)
