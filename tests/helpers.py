"""Shared test helpers: sentence builders, random tree generators, and
independent brute-force oracles the implementation is checked against."""

from __future__ import annotations

import itertools
import random

from udscheme.conllu import Sentence, Token
from udscheme.parsing.transitions import (
    Action,
    LEFT_ARC,
    REDUCE,
    RIGHT_ARC,
    SHIFT,
    apply_action,
    initial_config,
    static_oracle_derivation,
    valid_actions,
)


def make_sentence(heads, deprels=None, forms=None, upos=None) -> Sentence:
    """Build a Sentence from a 1-indexed head list (heads[0] ignored or a
    plain 0-based list of length n)."""
    if deprels is None:
        deprels = ["root" if h == 0 else "dep" for h in heads]
    if forms is None:
        forms = ["w%d" % (i + 1) for i in range(len(heads))]
    if upos is None:
        upos = ["X"] * len(heads)
    tokens = tuple(
        Token(id=i + 1, form=forms[i], upos=upos[i], head=heads[i], deprel=deprels[i])
        for i in range(len(heads))
    )
    return Sentence(tokens)


def brute_force_projective(s: Sentence) -> bool:
    """Pairwise crossing check, with the artificial root at position 0."""
    arcs = [(min(t.head, t.id), max(t.head, t.id)) for t in s.tokens]
    for (a1, b1), (a2, b2) in itertools.combinations(arcs, 2):
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            return False
    return True


def is_valid_tree(heads: list[int]) -> bool:
    """heads is 0-based, length n; single root, every token reaches 0."""
    if sum(1 for h in heads if h == 0) != 1:
        return False
    n = len(heads)
    for i in range(1, n + 1):
        if heads[i - 1] == i:
            return False
    for i in range(1, n + 1):
        seen = set()
        a = i
        while a != 0:
            if a in seen or not 1 <= a <= n:
                return False
            seen.add(a)
            a = heads[a - 1]
    return True


def all_trees(n: int):
    """Every single-rooted dependency tree over n tokens, as 0-based head lists."""
    for heads in itertools.product(range(n + 1), repeat=n):
        if is_valid_tree(list(heads)):
            yield list(heads)


def random_tree(rng: random.Random, n: int) -> list[int]:
    """Random (not uniform) single-rooted tree as a 0-based head list."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * n
    added: list[int] = []
    for tid in order:
        # the first token becomes the single root; the rest attach to it
        heads[tid - 1] = rng.choice(added) if added else 0
        added.append(tid)
    return heads


def random_projective_tree(rng: random.Random, n: int) -> list[int]:
    """Random projective tree: recursive interval decomposition."""
    heads = [0] * n

    def build(lo: int, hi: int, parent: int) -> None:
        if lo > hi:
            return
        h = rng.randint(lo, hi)
        heads[h - 1] = parent
        blocks(lo, h - 1, h)
        blocks(h + 1, hi, h)

    def blocks(lo: int, hi: int, parent: int) -> None:
        i = lo
        while i <= hi:
            j = rng.randint(i, hi)
            build(i, j, parent)
            i = j + 1

    build(1, n, 0)
    return heads


def _mk_action(kind: str) -> Action:
    return Action(kind) if kind in (SHIFT, REDUCE) else Action(kind, "_")


def _state_key(c, gold_heads):
    arcs = frozenset((d, h == gold_heads[d]) for h, d, _ in c.arcs)
    return (c.stack, c.buffer, arcs)


def bf_max_reachable(c, gold_heads, memo) -> int:
    """Max gold arcs obtainable from c, by exhaustively expanding every
    action sequence (memoized)."""
    key = _state_key(c, gold_heads)
    if key in memo:
        return memo[key]
    kinds = valid_actions(c)
    if not kinds:
        val = sum(1 for h, d, _ in c.arcs if h == gold_heads[d])
    else:
        val = max(
            bf_max_reachable(apply_action(c, _mk_action(k)), gold_heads, memo)
            for k in kinds
        )
    memo[key] = val
    return val


def bf_action_cost(c, kind, gold_heads, memo) -> int:
    before = bf_max_reachable(c, gold_heads, memo)
    after = bf_max_reachable(apply_action(c, _mk_action(kind)), gold_heads, memo)
    return before - after


def bf_reachable_gold(c, gold_heads, memo) -> frozenset:
    """Gold dependents whose arc appears in some configuration reachable
    from c (each arc checked independently), by exhaustive expansion."""
    key = _state_key(c, gold_heads)
    if key in memo:
        return memo[key]
    acc = {d for h, d, _ in c.arcs if h == gold_heads[d]}
    for k in valid_actions(c):
        acc |= bf_reachable_gold(apply_action(c, _mk_action(k)), gold_heads, memo)
    memo[key] = frozenset(acc)
    return memo[key]


def bf_arc_cost(c, kind, gold_heads, memo) -> int:
    before = bf_reachable_gold(c, gold_heads, memo)
    after = bf_reachable_gold(apply_action(c, _mk_action(kind)), gold_heads, memo)
    return len(before) - len(after)


def all_reachable_configs(s: Sentence):
    """Every configuration reachable from the initial one, deduplicated."""
    gold_heads = s.heads()
    seen = set()
    stack = [initial_config(s)]
    while stack:
        c = stack.pop()
        key = _state_key(c, gold_heads)
        if key in seen:
            continue
        seen.add(key)
        yield c
        for k in valid_actions(c):
            stack.append(apply_action(c, _mk_action(k)))


def replay_attachment_ids(s: Sentence) -> list[int]:
    """Token ids in the order the static-oracle derivation attaches them,
    found by replaying its actions from the initial configuration (LEFT_ARC
    attaches the stack top, RIGHT_ARC the buffer front); tokens left
    unattached follow in surface order. The reference for
    `Derivation.attached`."""
    d = static_oracle_derivation(s)
    c = initial_config(s)
    order: list[int] = []
    for a in d.actions:
        if a.kind == LEFT_ARC:
            order.append(c.stack[-1])
        elif a.kind == RIGHT_ARC:
            order.append(c.buffer[0])
        c = apply_action(c, a)
    seen = set(order)
    order.extend(t.id for t in s.tokens if t.id not in seen)
    return order


def brute_force_substring_count(strings) -> int:
    subs = set()
    for s in strings:
        t = tuple(s)
        for i in range(len(t)):
            for j in range(i + 1, len(t) + 1):
                subs.add(t[i:j])
    return len(subs)


class ReferenceAveragedWeights:
    """The tuple-keyed lazy-averaging store the per-feature rows replaced,
    kept as the reference the new store must match exactly."""

    def __init__(self):
        self.w: dict[tuple[int, int], float] = {}
        self.total: dict[tuple[int, int], float] = {}
        self.stamp: dict[tuple[int, int], int] = {}
        self.updates = 0

    def add(self, key: tuple[int, int], delta: float) -> None:
        # called after self.updates has been advanced to the current step
        u = self.updates
        cur = self.w.get(key, 0.0)
        self.total[key] = self.total.get(key, 0.0) + cur * (u - 1 - self.stamp.get(key, 0))
        self.stamp[key] = u - 1
        self.w[key] = cur + delta

    def update(self, feats: list[int], good: int, bad: int) -> None:
        for f in feats:
            self.add((f, good), 1.0)
            self.add((f, bad), -1.0)

    def averaged(self) -> dict[int, dict[int, float]]:
        u = self.updates
        out: dict[int, dict[int, float]] = {}
        for key, cur in self.w.items():
            tot = self.total.get(key, 0.0) + cur * (u - self.stamp.get(key, 0))
            avg = tot / u if u else cur
            if avg != 0.0:
                out.setdefault(key[0], {})[key[1]] = avg
        return out
