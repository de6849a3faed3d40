"""Acceptance suite: one test per acceptance criterion, each with its stated
sample size, tolerance and wall-clock budget, printing one PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import random
import time

import pytest

from udscheme.conllu import is_projective, parse_conllu, validate_tree
from udscheme.evaluate import compare_schemes, corpus_uas, uas
from udscheme.metrics import pos_predictability
from udscheme.ngram import WittenBellTrigram
from udscheme.parsing.perceptron import Hyperparameters, parse, train
from udscheme.parsing.transitions import (
    KIND_ORDER,
    LEFT_ARC,
    RIGHT_ARC,
    Gold,
    kind_costs,
    oracle_step,
    static_oracle_derivation,
    valid_actions,
)
from udscheme.suffixtree import count_distinct_substrings
from udscheme.transform import (
    TRIGGER_LABELS,
    Transformation,
    apply_transformation,
)

from helpers import (
    ConfigGraph,
    all_trees,
    brute_force_substring_count,
    make_sentence,
    random_projective_tree,
    random_tree,
    replay_arcs,
)
from synth import synth_corpus
from test_harness import read_all, write_config, write_treebank
from test_ngram import TOY, ref_counts, ref_perplexity, ref_prob


def report(name: str, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(
        "[%s] %s: %s (%.2fs, limit %.0fs)" % (status, name, detail, elapsed, limit)
    )
    assert ok, "%s: %s" % (name, detail)
    assert elapsed < limit, "%s exceeded time budget: %.2fs >= %.0fs" % (
        name,
        elapsed,
        limit,
    )


def _conllu(rows):
    lines = []
    for i, (form, upos, head, deprel) in enumerate(rows, start=1):
        lines.append(
            "%d\t%s\t_\t%s\t_\t_\t%d\t%s\t_\t_" % (i, form, upos, head, deprel)
        )
    return "\n".join(lines) + "\n\n"


# each case: (transformation, input rows, expected (head, deprel) per token)
GOLDEN_CASES = [
    (
        Transformation.CASE,
        [("talk", "NOUN", 0, "root"), ("of", "ADP", 3, "case"),
         ("Earth", "PROPN", 1, "nmod")],
        [(0, "root"), (1, "nmod"), (2, "case")],
    ),
    (
        Transformation.MARK,
        [("tries", "VERB", 0, "root"), ("to", "PART", 3, "mark"),
         ("read", "VERB", 1, "xcomp")],
        [(0, "root"), (1, "xcomp"), (2, "mark")],
    ),
    (
        Transformation.DET,
        [("the", "DET", 2, "det"), ("book", "NOUN", 0, "root")],
        [(0, "root"), (1, "det")],
    ),
    (
        Transformation.NAME,
        [("John", "PROPN", 0, "root"), ("Jr.", "PROPN", 1, "name"),
         ("Doe", "PROPN", 1, "name")],
        [(0, "root"), (1, "name"), (2, "name")],
    ),
    (
        Transformation.COORDINATION,
        [("sees", "VERB", 0, "root"), ("me", "PRON", 1, "dobj"),
         ("and", "CONJ", 2, "cc"), ("you", "PRON", 2, "conj")],
        [(0, "root"), (3, "conj"), (1, "dobj"), (3, "conj")],
    ),
    (
        Transformation.COPULA,
        [("is", "AUX", 2, "cop"), ("nice", "ADJ", 0, "root")],
        [(0, "root"), (1, "cop")],
    ),
    # positional-repair examples: trigger between/outside head and sibling
    (
        Transformation.CASE,
        [("w1", "X", 0, "root"), ("w2", "X", 1, "case"), ("w3", "X", 1, "nmod")],
        [(2, "case"), (0, "root"), (2, "nmod")],
    ),
    (
        Transformation.CASE,
        [("w1", "X", 3, "nmod"), ("w2", "X", 3, "case"), ("w3", "X", 0, "root")],
        [(2, "nmod"), (0, "root"), (2, "case")],
    ),
    # head-initial function-word sequence becomes a chain
    (
        Transformation.MWE,
        [("er", "VERB", 0, "root"), ("det", "PRON", 1, "nsubj"),
         ("pa", "ADP", 6, "case"), ("grund", "NOUN", 3, "mwe"),
         ("af", "ADP", 3, "mwe"), ("ham", "PRON", 1, "nmod")],
        [(0, "root"), (1, "nsubj"), (6, "case"), (3, "mwe"), (4, "mwe"),
         (1, "nmod")],
    ),
    # first conjunction heads the coordination; shared modifiers stay put
    (
        Transformation.COORDINATION,
        [("tant", "ADV", 3, "cc"), ("en", "ADP", 3, "case"),
         ("rouge", "NOUN", 0, "root"), ("qu'", "SCONJ", 3, "cc"),
         ("en", "ADP", 6, "case"), ("bleu", "NOUN", 3, "conj")],
        [(0, "root"), (3, "case"), (1, "conj"), (1, "cc"), (6, "case"),
         (1, "conj")],
    ),
]


def test_acceptance_golden_transformations():
    t0 = time.perf_counter()
    passed = 0
    core = 0
    for idx, (transfo, rows, expected) in enumerate(GOLDEN_CASES):
        s = parse_conllu(_conllu(rows))[0]
        out = apply_transformation([s], transfo).sentences[0]
        got = [(t.head, t.deprel) for t in out.tokens]
        assert got == expected, (idx, got, expected)
        passed += 1
        if idx < 6:
            core += 1
    report(
        "golden transformations",
        passed == len(GOLDEN_CASES) and core == 6,
        "%d/6 worked examples plus %d repair/sequence/coordination cases"
        % (core, passed - 6),
        time.perf_counter() - t0,
        1.0,
    )


def test_acceptance_transformation_validity():
    t0 = time.perf_counter()
    rng = random.Random(202)
    triggers = sorted({l for ls in TRIGGER_LABELS.values() for l in ls})
    other = ["nsubj", "dobj", "nmod", "amod", "advmod", "punct"]
    transfos = list(Transformation)
    checked = 0
    for i in range(10_000):
        n = rng.randint(1, 12)
        heads = random_tree(rng, n)
        deprels = [
            "root" if h == 0
            else (rng.choice(triggers) if rng.random() < 0.4 else rng.choice(other))
            for h in heads
        ]
        s = make_sentence(heads, deprels)
        out = apply_transformation([s], transfos[i % len(transfos)]).sentences[0]
        assert validate_tree(out).ok
        for a, b in zip(s.tokens, out.tokens):
            assert (a.id, a.form, a.lemma, a.upos, a.xpos, a.feats, a.misc) == (
                b.id, b.form, b.lemma, b.upos, b.xpos, b.feats, b.misc,
            )
        checked += 1
    report(
        "transformation validity",
        checked == 10_000,
        "10000/10000 random trees (n<=12) yield valid trees, token data intact",
        time.perf_counter() - t0,
        30.0,
    )


def test_acceptance_repair_projectivity():
    t0 = time.perf_counter()
    rng = random.Random(303)
    done = 0
    while done < 10_000:
        n = rng.randint(2, 12)
        heads = random_projective_tree(rng, n)
        s = make_sentence(heads)
        leaves = [
            t.id for t in s.tokens
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
        out = apply_transformation([s], Transformation.CASE).sentences[0]
        assert is_projective(out), (heads, leaf)
        done += 1
    report(
        "repair projectivity",
        done == 10_000,
        "10000/10000 leaf inversions on projective inputs stay projective",
        time.perf_counter() - t0,
        30.0,
    )


def test_acceptance_oracle_completeness():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for _ in range(1_000):
        n = rng.randint(1, 10)
        s = make_sentence(random_projective_tree(rng, n))
        arcs = replay_arcs(s, static_oracle_derivation(s))
        assert sorted((h, d) for h, d, _ in arcs) == sorted(
            (t.head, t.id) for t in s.tokens
        )
    report(
        "oracle completeness",
        True,
        "1000/1000 random projective trees (n<=10) reconstructed exactly",
        time.perf_counter() - t0,
        10.0,
    )


def test_acceptance_cost_equivalence():
    t0 = time.perf_counter()
    trees = checks = steps = 0
    for n in range(1, 6):
        for heads in all_trees(n):
            trees += 1
            s = make_sentence(heads, ["r%d" % i for i in range(1, n + 1)])
            gold = Gold(s)
            gold_deprels = gold.deprels
            graph = ConfigGraph(s)
            for key, c in graph.configs():
                bf = {k: graph.arc_cost(key, k) for k in valid_actions(c)}
                assert kind_costs(c, gold) == bf, (heads, c)
                checks += len(bf)
                if not c.buffer:
                    continue
                # the oracle step: the same costs, and the min-cost kinds in
                # KIND_ORDER, arc actions labelled with the attached token's
                # gold deprel
                costs, actions = oracle_step(c, gold)
                assert costs == bf, (heads, c)
                best = min(bf.values())
                kinds = sorted((k for k in bf if bf[k] == best), key=KIND_ORDER.get)
                assert [a.kind for a in actions] == kinds, (heads, c)
                for a in actions:
                    dep = {LEFT_ARC: c.stack[-1], RIGHT_ARC: c.buffer[0]}.get(a.kind)
                    assert a.label == (None if dep is None else gold_deprels[dep])
                steps += 1
    report(
        "cost equivalence",
        trees > 0,
        "exhaustive match on all %d trees (n<=5), %d (config, action) checks, "
        "%d oracle steps" % (trees, checks, steps),
        time.perf_counter() - t0,
        60.0,
    )


def test_acceptance_substring_oracle():
    t0 = time.perf_counter()
    assert count_distinct_substrings(["aaa"]) == 3
    assert count_distinct_substrings(["abab"]) == 7
    assert count_distinct_substrings(["ab", "ba"]) == 4
    rng = random.Random(505)
    for i in range(1_000):
        k = 1 + (i % 3)  # single- and multi-string cases
        strings = [
            "".join(rng.choice("abcd") for _ in range(rng.randint(0, 15)))
            for _ in range(k)
        ]
        assert count_distinct_substrings(strings) == brute_force_substring_count(
            strings
        ), strings
    report(
        "substring-count oracle",
        True,
        "fixed cases 3/7/4 and 1000/1000 random multi-string cases match",
        time.perf_counter() - t0,
        10.0,
    )


def test_acceptance_witten_bell():
    t0 = time.perf_counter()
    model = WittenBellTrigram(TOY)
    pp_err = abs(model.perplexity(TOY) - ref_perplexity(TOY))
    assert pp_err < 1e-9
    uni, bi, tri = ref_counts(TOY)
    rng = random.Random(606)
    vocab = list(uni)
    sums_ok = 0
    for _ in range(100):
        u, v = rng.choice(vocab + ["<s>"]), rng.choice(vocab + ["<s>"])
        total = sum(model.prob(w, u, v) for w in vocab)
        total += model.prob("<UNSEEN>", u, v)  # single unseen slot
        assert abs(total - 1.0) < 1e-9
        sums_ok += 1
    report(
        "Witten-Bell",
        sums_ok == 100,
        "perplexity within %.1e of reference; 100/100 contexts sum to 1"
        % max(pp_err, 1e-15),
        time.perf_counter() - t0,
        5.0,
    )


def test_acceptance_entropy():
    t0 = time.perf_counter()
    det = make_sentence([2, 0], ["det", "root"], None, ["DET", "NOUN"])
    amod = make_sentence([2, 0], ["amod", "root"], None, ["ADJ", "NOUN"])
    dobj = make_sentence([2, 0], ["dobj", "root"], None, ["NOUN", "VERB"])
    # H = 0: every head POS has one dependent POS
    assert abs(pos_predictability([det] * 5) - 0.0) < 1e-12
    # H = 1 bit: two root POS in equal counts, nothing else
    one_bit = pos_predictability(
        [make_sentence([0], ["root"], None, ["VERB"]),
         make_sentence([0], ["root"], None, ["NOUN"])]
    )
    assert abs(one_bit - 1.0) < 1e-12
    # p-weighted: NOUN heads split 50/50 (1 bit) on 2/6 arcs, the synthetic
    # root head splits 2:1 on 3/6 arcs, VERB deterministic
    h_root = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    expected = (2 / 6) * 1.0 + (3 / 6) * h_root
    got = pos_predictability([det, amod, dobj])
    assert abs(got - expected) < 1e-12
    report(
        "entropy",
        True,
        "closed forms 0 / 1.0 / p-weighted match within 1e-12",
        time.perf_counter() - t0,
        1.0,
    )


def test_acceptance_parser_sanity():
    t0 = time.perf_counter()
    corpus = synth_corpus(100)
    hp = Hyperparameters(epochs=10)
    m1 = train(corpus, None, hp, seed=1)
    correct = total = 0
    for s in corpus:
        p = parse(m1, s)
        c, t = uas(s, p)
        correct += c
        total += t
    train_uas = 100.0 * correct / total
    assert train_uas >= 95.0, train_uas
    m2 = train(corpus, None, hp, seed=1)
    assert m1.weights == m2.weights and m1.labels == m2.labels
    report(
        "parser sanity",
        True,
        "train UAS %.2f%% >= 95%% on 100 sentences; identical rerun weights"
        % train_uas,
        time.perf_counter() - t0,
        120.0,
    )


def test_acceptance_pipeline_smoke(tmp_path):
    t0 = time.perf_counter()
    from udscheme.harness import emit_reports, load_config, run_experiment

    paths = write_treebank(tmp_path, n_train=30, n_dev=6, n_test=10)
    out_dir = str(tmp_path / "out")
    cfg = load_config(write_config(tmp_path, paths, out_dir, seeds="1 2"))
    assert len(cfg.transformations) == 7 and len(cfg.seeds) == 2

    r1 = run_experiment(cfg)
    emit_reports(r1, out_dir)
    import os

    for rel in (
        "rows.tsv",
        os.path.join("tables", "ud_wins.tsv"),
        os.path.join("tables", "top_positive.tsv"),
        os.path.join("tables", "top_negative.tsv"),
        os.path.join("tables", "coherence.tsv"),
        "hist.tsv",
        "hist.svg",
        "summary.json",
    ):
        assert os.path.exists(os.path.join(out_dir, rel)), rel
    before = read_all(out_dir)

    r2 = run_experiment(cfg)
    emit_reports(r2, out_dir)
    assert r2.trainings_executed == 0
    assert read_all(out_dir) == before
    report(
        "pipeline smoke",
        len(r1.rows) == 7,
        "7 transformation rows, 2 seeds, all reports written; cached rerun "
        "byte-identical with 0 trainings",
        time.perf_counter() - t0,
        600.0,
    )


def test_acceptance_uas_protocol():
    t0 = time.perf_counter()
    gold = make_sentence(
        [2, 0, 2, 2],
        ["det", "root", "dobj", "punct"],
        None,
        ["DET", "VERB", "NOUN", "PUNCT"],
    )
    pred = gold.with_arcs([0, 2, 1, 2, 3], ["_", "det", "root", "dobj", "punct"])
    score = corpus_uas([gold], [pred])
    assert abs(score - 66.67) <= 0.01, score
    # sign convention: positive diff means the original scheme scored higher
    row = compare_schemes("xx", Transformation.CASE, [80.0], [78.0])
    assert row.diff > 0
    report(
        "UAS protocol",
        True,
        "punctuation-exclusion fixture scores %.2f%% (2/3); positive diff = "
        "original-scheme advantage" % score,
        time.perf_counter() - t0,
        1.0,
    )
