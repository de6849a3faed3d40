"""Seeded generator of UD-v1-like treebanks for the benchmark.

Sentences are chains of clauses built from templates like the ones in
`tests/synth.py`. Every clause is projective and contiguous; the roots of
later clauses attach as `parataxis` either to the first clause root or to the
previous clause root, so sentences stay projective. That choice, and the
attachment of prepositional phrases (verb or object noun), is random and not
signalled by any word, which keeps the parser's UAS well below 100 and its
perceptron updates frequent.

Open-class forms come from generated vocabularies of thousands of types drawn
with Zipfian frequencies, so the set of feature strings the parser hashes has
a realistic size. Closed-class words (determiners, prepositions, auxiliaries)
are small fixed lists, as in real treebanks.

The clause count per sentence follows a geometric distribution (mean 3, so
about 20 tokens per sentence, with a long tail). It is drawn by stratified
quantiles and shuffled, and clause templates (names of two and three tokens
among them) are dealt in an order that is fixed too, so sentence lengths do
not move between seeds while the words and attachments do: timings per
sentence then compare like with like, and every split of a dozen sentences
or more triggers all seven transformations on every seed.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

from udscheme.conllu import Sentence, Token

DETS = ["the", "a", "this", "that", "every", "some"]
ADPS = ["on", "in", "under", "near", "with", "from", "about", "after"]
CONJS = ["and", "or", "but"]
SYLLABLES = [
    c + v
    for c in ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z")
    for v in ("a", "e", "i", "o", "u", "ai", "ou")
]

# open-class vocabulary sizes (types); ranks are drawn with p(r) ~ 1/r
VOCAB_SIZES = {"NOUN": 4000, "VERB": 1200, "IVERB": 400, "ADJ": 1000, "FIRST": 300, "LAST": 600}
SUFFIXES = {"NOUN": "", "VERB": "s", "IVERB": "es", "ADJ": "y", "FIRST": "", "LAST": "son"}

# geometric clause count: P(k) = (1 - q) q^(k-1), mean 1 / (1 - q) = 3
CLAUSE_Q = 2.0 / 3.0


class Vocabulary:
    """Per-class generated word types with Zipfian sampling."""

    def __init__(self, seed: int):
        rng = random.Random("vocab-%d" % seed)
        self.types: dict[str, list[str]] = {}
        seen: set[str] = set()
        for cls, size in VOCAB_SIZES.items():
            words = []
            while len(words) < size:
                w = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(1, 3)))
                w += SUFFIXES[cls]
                if cls in ("FIRST", "LAST"):
                    w = w.capitalize()
                if w not in seen:
                    seen.add(w)
                    words.append(w)
            self.types[cls] = words
        self.cum = {
            cls: list(itertools.accumulate(1.0 / r for r in range(1, len(ws) + 1)))
            for cls, ws in self.types.items()
        }

    def draw(self, rng: random.Random, cls: str) -> str:
        cum = self.cum[cls]
        i = bisect.bisect_right(cum, rng.random() * cum[-1])
        return self.types[cls][min(i, len(cum) - 1)]


# A clause is a list of (form, upos, head, deprel) with 1-based heads local to
# the clause; exactly one item has head 0 (the clause root).


def _transitive(rng, v):
    return [
        (rng.choice(DETS), "DET", 2, "det"),
        (v.draw(rng, "NOUN"), "NOUN", 3, "nsubj"),
        (v.draw(rng, "VERB"), "VERB", 0, "root"),
        (rng.choice(DETS), "DET", 5, "det"),
        (v.draw(rng, "NOUN"), "NOUN", 3, "dobj"),
    ]


def _prepositional(rng, v):
    return [
        (rng.choice(DETS), "DET", 2, "det"),
        (v.draw(rng, "NOUN"), "NOUN", 3, "nsubj"),
        (v.draw(rng, "IVERB"), "VERB", 0, "root"),
        (rng.choice(ADPS), "ADP", 6, "case"),
        (rng.choice(DETS), "DET", 6, "det"),
        (v.draw(rng, "NOUN"), "NOUN", 3, "nmod"),
    ]


def _pp_attachment(rng, v):
    # "N V det N P det N": the PP attaches to the verb or the object noun
    # at random, with nothing in the words to tell which
    pp_head = 2 if rng.random() < 0.5 else 4
    return [
        (v.draw(rng, "NOUN"), "NOUN", 2, "nsubj"),
        (v.draw(rng, "VERB"), "VERB", 0, "root"),
        (rng.choice(DETS), "DET", 4, "det"),
        (v.draw(rng, "NOUN"), "NOUN", 2, "dobj"),
        (rng.choice(ADPS), "ADP", 7, "case"),
        (rng.choice(DETS), "DET", 7, "det"),
        (v.draw(rng, "NOUN"), "NOUN", pp_head, "nmod"),
    ]


def _infinitive(rng, v):
    return [
        (rng.choice(DETS), "DET", 2, "det"),
        (v.draw(rng, "NOUN"), "NOUN", 3, "nsubj"),
        (v.draw(rng, "VERB"), "VERB", 0, "root"),
        ("to", "PART", 5, "mark"),
        (v.draw(rng, "VERB"), "VERB", 3, "xcomp"),
    ]


def _copula(rng, v):
    return [
        (rng.choice(DETS), "DET", 2, "det"),
        (v.draw(rng, "NOUN"), "NOUN", 4, "nsubj"),
        ("is", "AUX", 4, "cop"),
        (v.draw(rng, "ADJ"), "ADJ", 0, "root"),
    ]


def _passive(rng, v):
    return [
        (rng.choice(DETS), "DET", 2, "det"),
        (v.draw(rng, "NOUN"), "NOUN", 4, "nsubjpass"),
        ("was", "AUX", 4, "auxpass"),
        (v.draw(rng, "VERB"), "VERB", 0, "root"),
    ]


def _coordination(rng, v):
    return [
        (v.draw(rng, "NOUN"), "NOUN", 4, "nsubj"),
        (rng.choice(CONJS), "CONJ", 1, "cc"),
        (v.draw(rng, "NOUN"), "NOUN", 1, "conj"),
        (v.draw(rng, "IVERB"), "VERB", 0, "root"),
    ]


def _name(parts):
    # an n-token name; UD v1 attaches every later part to the first
    def template(rng, v):
        name = [(v.draw(rng, "FIRST"), "PROPN", parts + 1, "nsubj")]
        name += [(v.draw(rng, "LAST"), "PROPN", 1, "name") for _ in range(parts - 1)]
        return name + [
            (v.draw(rng, "VERB"), "VERB", 0, "root"),
            (rng.choice(DETS), "DET", parts + 3, "det"),
            (v.draw(rng, "NOUN"), "NOUN", parts + 1, "dobj"),
        ]

    return template


def _mwe(rng, v):
    return [
        ("because", "SCONJ", 3, "case"),
        ("of", "ADP", 1, "mwe"),
        (v.draw(rng, "NOUN"), "NOUN", 6, "nmod"),
        (rng.choice(DETS), "DET", 5, "det"),
        (v.draw(rng, "NOUN"), "NOUN", 6, "nsubj"),
        (v.draw(rng, "IVERB"), "VERB", 0, "root"),
    ]


def _goeswith(rng, v):
    return [
        (v.draw(rng, "NOUN"), "NOUN", 4, "nsubj"),
        (v.draw(rng, "NOUN"), "NOUN", 1, "goeswith"),
        (v.draw(rng, "NOUN"), "NOUN", 1, "goeswith"),
        (v.draw(rng, "VERB"), "VERB", 0, "root"),
        (rng.choice(DETS), "DET", 6, "det"),
        (v.draw(rng, "NOUN"), "NOUN", 4, "dobj"),
    ]


def _adjectival(rng, v):
    return [
        (rng.choice(DETS), "DET", 3, "det"),
        (v.draw(rng, "ADJ"), "ADJ", 3, "amod"),
        (v.draw(rng, "NOUN"), "NOUN", 4, "nsubj"),
        (v.draw(rng, "IVERB"), "VERB", 0, "root"),
    ]


TEMPLATES = [
    _transitive,
    _prepositional,
    _pp_attachment,
    _pp_attachment,
    _infinitive,
    _copula,
    _passive,
    _coordination,
    # both lengths in every deck: the `name` transformation chains a name's
    # parts, so it changes only names of three or more tokens
    _name(2),
    _name(3),
    _mwe,
    _goeswith,
    _adjectival,
]


class Deck:
    """Clause templates dealt from shuffled decks that hold each template
    once, so each deck's clauses cover all seven transformation triggers and
    the template mix and order are the same for every seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cards: list = []

    def deal(self):
        if not self.cards:
            self.cards = list(TEMPLATES)
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def sentence(rng: random.Random, vocab: Vocabulary, deck: Deck, clauses: int) -> Sentence:
    """One sentence of `clauses` clauses, each closed by punctuation."""
    tokens: list[Token] = []
    roots: list[int] = []
    for k in range(clauses):
        clause = deck.deal()(rng, vocab)
        base = len(tokens)
        local_root = next(i for i, item in enumerate(clause, 1) if item[2] == 0)
        root = base + local_root
        if not roots:
            head, rel = 0, "root"
        else:
            head = roots[0] if rng.random() < 0.5 else roots[-1]
            rel = "parataxis"
        for i, (form, upos, h, deprel) in enumerate(clause, 1):
            if h == 0:
                tokens.append(Token(base + i, form, upos=upos, head=head, deprel=rel))
            else:
                tokens.append(Token(base + i, form, upos=upos, head=base + h, deprel=deprel))
        punct = "." if k == clauses - 1 else ";"
        tokens.append(Token(len(tokens) + 1, punct, upos="PUNCT", head=root, deprel="punct"))
        roots.append(root)
    return Sentence(tuple(tokens))


def clause_counts(n: int, rng: random.Random) -> list[int]:
    """n geometric clause counts from stratified quantiles, shuffled."""
    out = [
        max(1, math.ceil(math.log(1.0 - (i + 0.5) / n) / math.log(CLAUSE_Q)))
        for i in range(n)
    ]
    rng.shuffle(out)
    return out


def treebank(seed: int, sizes: dict[str, int]) -> dict[str, list[Sentence]]:
    """Splits of a UD-like treebank; `sizes` gives each split's sentence count."""
    vocab = Vocabulary(seed)
    out = {}
    for split, n in sizes.items():
        # The shape (clause counts and template order) does not depend on the
        # seed, so every seed gives a split the same sentence lengths; the
        # seed changes words and attachments.
        shape = random.Random("shape-%s" % split)
        rng = random.Random("%s-%d" % (split, seed))
        deck = Deck(shape)
        out[split] = [sentence(rng, vocab, deck, k) for k in clause_counts(n, shape)]
    return out


def length_bucket(seed: int, clauses: int, tokens: int) -> list[Sentence]:
    """Sentences of exactly `clauses` clauses, up to about `tokens` tokens."""
    vocab = Vocabulary(seed)
    rng = random.Random("bucket-%d-%d" % (clauses, seed))
    # The template order does not depend on the seed, so every seed gives a
    # bucket the same sentence lengths and changes only words and
    # attachments: per-sentence timings then compare like with like.
    deck = Deck(random.Random("bucket-deck-%d" % clauses))
    out: list[Sentence] = []
    total = 0
    while total < tokens:
        s = sentence(rng, vocab, deck, clauses)
        out.append(s)
        total += len(s)
    return out


def corpus_stats(sentences: list[Sentence]) -> dict:
    lengths = sorted(len(s) for s in sentences)
    forms = [t.form for s in sentences for t in s.tokens]
    n = len(lengths)
    return {
        "sentences": n,
        "tokens": len(forms),
        "types": len(set(forms)),
        "mean_len": round(len(forms) / n, 2),
        "p50_len": lengths[n // 2],
        "p90_len": lengths[min(n - 1, (9 * n) // 10)],
        "max_len": lengths[-1],
    }
