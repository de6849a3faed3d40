import gc
import random
import time

from udscheme.suffixtree import count_distinct_substrings

from helpers import brute_force_substring_count, ref_count_distinct_substrings


def test_fixed_cases():
    assert count_distinct_substrings(["aaa"]) == 3
    assert count_distinct_substrings(["abab"]) == 7
    assert count_distinct_substrings(["ab", "ba"]) == 4


def test_edge_cases():
    assert count_distinct_substrings([]) == 0
    assert count_distinct_substrings([""]) == 0
    assert count_distinct_substrings(["a"]) == 1
    assert count_distinct_substrings(["a", "a", "a"]) == 1
    assert count_distinct_substrings(["abc", "abc"]) == 6


def test_unary_string_length_n_has_n_substrings():
    for n in range(1, 30):
        assert count_distinct_substrings(["a" * n]) == n


def test_matches_bruteforce_random():
    rng = random.Random(17)
    alphabet = "abcd"
    for _ in range(1000):
        k = rng.randint(1, 3)
        strings = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 15)))
            for _ in range(k)
        ]
        assert count_distinct_substrings(strings) == brute_force_substring_count(
            strings
        ), strings


def test_long_repetitive_inputs():
    # stresses suffix links and the active point
    cases = [
        ["ab" * 50],
        ["a" * 40 + "b" + "a" * 40],
        ["abcabcabcabd" * 5],
        ["mississippi"],
        ["banana", "ananas", "nana"],
    ]
    for strings in cases:
        assert count_distinct_substrings(strings) == brute_force_substring_count(
            strings
        ), strings


def test_matches_ukkonen_reference_random():
    # the automaton against the suffix tree it replaced: alphabets of 1-4
    # symbols, 0-6 strings of up to 30 symbols, empty strings included
    rng = random.Random(23)
    for _ in range(3000):
        alphabet = "abcd"[: rng.randint(1, 4)]
        strings = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            for _ in range(rng.randint(0, 6))
        ]
        assert count_distinct_substrings(strings) == ref_count_distinct_substrings(
            strings
        ), strings


def test_matches_ukkonen_reference_long_repetitive():
    rng = random.Random(29)
    noisy = "".join(rng.choice("SA") if rng.random() < 0.05 else "SLA"[i % 3] for i in range(3000))
    cases = [
        ["a" * 2000],
        ["ab" * 1000, "ba" * 1000],
        ["SLA" * 700, "SLAR" * 500, ""],
        ["abcabcabcabd" * 150, "abcabd" * 200],
        [noisy, noisy[::-1], noisy[1000:2000]],
        # action strings as the metrics see them: the same few clause
        # shapes over and over
        ["S" + "SLA" * k + "R" * k for k in range(1, 60)],
    ]
    for strings in cases:
        assert count_distinct_substrings(strings) == ref_count_distinct_substrings(strings)


def test_symbols_need_not_be_characters():
    # any hashable symbols, as for the reference
    strings = [[1, 2, 1, 2], (2, 1), [("x",), ("x",)]]
    assert count_distinct_substrings(strings) == brute_force_substring_count(strings) == 9


def test_roughly_linear_time():
    # doubling the input should not blow past ~2.5x the time (generous
    # threshold: constant factors and timer noise on small inputs)
    rng = random.Random(1)
    base = "".join(rng.choice("abcd") for _ in range(40_000))
    sizes = [base, base + "".join(rng.choice("abcd") for _ in range(40_000))]
    # the two sizes take turns, each from a collected heap, so a slow stretch
    # of the host or a pending collection does not land on one size alone
    best = [float("inf")] * len(sizes)
    for _ in range(3):
        for i, s in enumerate(sizes):
            gc.collect()
            t0 = time.perf_counter()
            count_distinct_substrings([s])
            best[i] = min(best[i], time.perf_counter() - t0)
    t1, t2 = best
    assert t2 < t1 * 4.0, (t1, t2)
