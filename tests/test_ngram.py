import math
import random

import pytest

from udscheme.ngram import BOS, EOS, WittenBellTrigram

from synth import synth_corpus


# --- independent reference implementation (kept deliberately plain) ---------

def ref_counts(sentences):
    uni, bi, tri = {}, {}, {}
    for words in sentences:
        padded = [BOS, BOS] + list(words) + [EOS]
        for k in range(2, len(padded)):
            u, v, w = padded[k - 2], padded[k - 1], padded[k]
            uni[w] = uni.get(w, 0) + 1
            bi.setdefault(v, {})[w] = bi.get(v, {}).get(w, 0) + 1
            tri.setdefault((u, v), {})[w] = tri.get((u, v), {}).get(w, 0) + 1
    return uni, bi, tri


def ref_prob(w, u, v, uni, bi, tri):
    total = sum(uni.values())
    vocab = len(uni)
    lam1 = total / (total + vocab)
    p1 = lam1 * uni.get(w, 0) / total + (1 - lam1) * (1.0 / (vocab + 1))
    ctx = bi.get(v)
    if ctx:
        c = sum(ctx.values())
        lam2 = c / (c + len(ctx))
        p2 = lam2 * ctx.get(w, 0) / c + (1 - lam2) * p1
    else:
        p2 = p1
    ctx = tri.get((u, v))
    if ctx:
        c = sum(ctx.values())
        lam3 = c / (c + len(ctx))
        return lam3 * ctx.get(w, 0) / c + (1 - lam3) * p2
    return p2


def ref_perplexity(sentences, heldout=None):
    """Perplexity of `heldout` (default: the training sentences themselves)."""
    uni, bi, tri = ref_counts(sentences)
    log_sum, m = 0.0, 0
    for words in sentences if heldout is None else heldout:
        padded = [BOS, BOS] + list(words) + [EOS]
        for k in range(2, len(padded)):
            log_sum += math.log2(
                ref_prob(padded[k], padded[k - 2], padded[k - 1], uni, bi, tri)
            )
            m += 1
    return 2.0 ** (-log_sum / m)


TOY = [
    ["the", "dog", "barks"],
    ["the", "cat", "sleeps"],
    ["a", "dog", "sleeps"],
]


def test_matches_reference_on_toy_corpus():
    model = WittenBellTrigram(TOY)
    assert abs(model.perplexity(TOY) - ref_perplexity(TOY)) < 1e-9


def test_prob_matches_reference_pointwise():
    model = WittenBellTrigram(TOY)
    uni, bi, tri = ref_counts(TOY)
    vocab = list(uni) + ["UNSEEN"]
    contexts = [(BOS, BOS), (BOS, "the"), ("the", "dog"), ("dog", "barks"), ("x", "y")]
    for u, v in contexts:
        for w in vocab:
            assert abs(model.prob(w, u, v) - ref_prob(w, u, v, uni, bi, tri)) < 1e-12


def test_equals_reference_exactly_on_random_corpora():
    # the model precomputes what the reference sums per call, in the same
    # float expressions, so every value must be the same float
    rng = random.Random(19)
    for trial in range(40):
        vocab = ["w%d" % i for i in range(rng.randint(1, 12))]
        # many short sentences, so contexts repeat; empty sentences too
        corpus = [
            [rng.choice(vocab) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(1, 60))
        ]
        # held-out text adds unseen words, and with them unseen contexts
        heldout = [
            [rng.choice(vocab + ["new1", "new2"]) for _ in range(rng.randint(0, 6))]
            for _ in range(rng.randint(1, 20))
        ]
        model = WittenBellTrigram(corpus)
        assert model.perplexity(corpus) == ref_perplexity(corpus)
        assert model.perplexity(heldout) == ref_perplexity(corpus, heldout)
        uni, bi, tri = ref_counts(corpus)
        words = vocab + [BOS, EOS, "new1"]
        for _ in range(200):
            w, u, v = rng.choice(words), rng.choice(words), rng.choice(words)
            assert model.prob(w, u, v) == ref_prob(w, u, v, uni, bi, tri), (trial, w, u, v)


def test_distribution_sums_to_one():
    rng = random.Random(9)
    vocab = ["w%d" % i for i in range(12)]
    corpus = [
        [rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(40)
    ]
    model = WittenBellTrigram(corpus)
    support = list(model.uni)  # includes EOS; BOS never occurs as an outcome
    for _ in range(100):
        u = rng.choice(vocab + [BOS])
        v = rng.choice(vocab + [BOS])
        total = sum(model.prob(w, u, v) for w in support)
        # the remaining mass belongs to the single unseen slot of the
        # uniform floor, propagated through the interpolation weights
        unseen = model.prob("<UNSEEN-PLACEHOLDER>", u, v)
        assert abs(total + unseen - 1.0) < 1e-9, (u, v, total + unseen)


def test_perplexity_at_least_one():
    model = WittenBellTrigram(TOY)
    assert model.perplexity(TOY) >= 1.0


def test_repetition_beats_random_permutations():
    rng = random.Random(4)
    vocab = ["w%d" % i for i in range(10)]
    sent = list(vocab)
    repeated = [list(sent) for _ in range(1000)]
    shuffled = []
    for _ in range(1000):
        p = list(sent)
        rng.shuffle(p)
        shuffled.append(p)
    pp_rep = WittenBellTrigram(repeated).perplexity(repeated)
    pp_shuf = WittenBellTrigram(shuffled).perplexity(shuffled)
    assert pp_rep < pp_shuf


def test_unseen_words_get_positive_mass():
    model = WittenBellTrigram(TOY)
    assert model.prob("zebra", "the", "dog") > 0.0


def test_perplexity_bits_recorded_before_the_unigram_level_was_precomputed():
    # float.hex of perplexities computed while prob() still derived the
    # unigram level's lam and uniform share on every call: every bit stays
    recorded = {
        1: "0x1.0da3b78f69d4ep+1",
        2: "0x1.11a88f2ebeea4p+1",
        3: "0x1.0bda2fb42c9a9p+1",
    }
    for seed, bits in recorded.items():
        forms = [[t.form for t in s.tokens] for s in synth_corpus(20, seed=seed)]
        assert float.hex(WittenBellTrigram(forms).perplexity(forms)) == bits, seed
    upos = [[t.upos for t in s.tokens] for s in synth_corpus(20, seed=1)]
    assert float.hex(WittenBellTrigram(upos).perplexity(upos)) == "0x1.db0a05d223ca9p+0"
    rng = random.Random(5)
    words = [[rng.choice("abcdefghij") for _ in range(rng.randint(0, 12))] for _ in range(40)]
    heldout = [[rng.choice("abcdefghijklm") for _ in range(rng.randint(0, 12))] for _ in range(10)]
    model = WittenBellTrigram(words)
    assert float.hex(model.perplexity(words)) == "0x1.0d73449db5f21p+2"
    assert float.hex(model.perplexity(heldout)) == "0x1.78c2ae1bac9bdp+4"


def test_a_model_of_no_sentences_builds_but_has_no_perplexity():
    model = WittenBellTrigram([])
    with pytest.raises(ValueError, match="no predicted positions"):
        model.perplexity([])
