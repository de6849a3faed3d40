"""Shared test helpers: sentence builders, random tree generators, and
independent brute-force oracles the implementation is checked against."""

from __future__ import annotations

import itertools
import random

from udscheme.conllu import Sentence, Token, ValidationReport, read_text
from udscheme.parsing.features import NULL, ROOT_POS, ROOT_WORD, extract_features
from udscheme.parsing.perceptron import Model, _action_name, fnv1a64
from udscheme.transform import (
    COPULA_NOUN_LABELS,
    TRIGGER_LABELS,
    Transformation,
    TransformResult,
)
from udscheme.parsing.transitions import (
    KIND_ORDER,
    Action,
    Configuration,
    Derivation,
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


# the action of each kind that the explorers apply; labels do not affect cost
UNLABELED = {k: Action(k) if k in (SHIFT, REDUCE) else Action(k, "_") for k in KIND_ORDER}


def copy_config(c: Configuration) -> Configuration:
    """An independent copy of c, so `apply_action` can branch from one
    configuration several times."""
    new = object.__new__(Configuration)
    new.n, new.b = c.n, c.b
    new.stack, new.stacked = c.stack[:], c.stacked[:]
    new.head, new.label = c.head[:], c.label[:]
    new.lefts = [kids[:] for kids in c.lefts]
    new.rights = [kids[:] for kids in c.rights]
    return new


def state_key(c: Configuration, gold_heads: list[int]) -> tuple:
    """What the oracles can tell apart: stack, buffer, and which tokens have
    a head and whether it is the gold one (labels play no part)."""
    return (
        tuple(c.stack),
        c.b,
        tuple(None if h is None else h == g for h, g in zip(c.head, gold_heads)),
    )


def _successor_key(key: tuple, kind: str, gold_heads: list[int]) -> tuple:
    """The state key after `kind`, computed on the key itself."""
    stack, b, ok = key
    if kind == SHIFT:
        return stack + (b,), b + 1, ok
    if kind == REDUCE:
        return stack[:-1], b, ok
    if kind == LEFT_ARC:
        s = stack[-1]
        return stack[:-1], b, ok[:s] + (gold_heads[s] == b,) + ok[s + 1:]
    return stack + (b,), b + 1, ok[:b] + (gold_heads[b] == stack[-1],) + ok[b + 1:]


def _successor(c: Configuration, kind: str) -> Configuration:
    """A new configuration: c after `kind`. It shares with c the child lists
    that `apply_action` leaves alone (all but the one an arc action adds
    to), so no one may change them in place."""
    new = object.__new__(Configuration)
    new.n, new.b = c.n, c.b
    new.stack, new.stacked = c.stack[:], c.stacked[:]
    new.head, new.label = c.head[:], c.label[:]
    new.lefts, new.rights = c.lefts[:], c.rights[:]
    if kind == LEFT_ARC:
        new.lefts[c.b] = c.lefts[c.b][:]
    elif kind == RIGHT_ARC:
        new.rights[c.stack[-1]] = c.rights[c.stack[-1]][:]
    apply_action(new, UNLABELED[kind])
    return new


def _correct_mask(key: tuple) -> int:
    """The tokens whose built arc is the gold one, as a bit set."""
    return sum(1 << d for d, ok in enumerate(key[2]) if ok)


class ConfigGraph:
    """Every configuration reachable from the initial one of a sentence,
    deduplicated by `state_key`, with the successor of each valid kind: the
    search space the brute-force oracles expand exhaustively."""

    def __init__(self, s: Sentence):
        gold_heads = self.gold_heads = s.heads()
        # state key -> (configuration, {kind: successor's state key}); a
        # successor's key is derived from its predecessor's, and its
        # configuration is built only the first time the key is reached
        c = initial_config(s)
        key = state_key(c, gold_heads)
        self.nodes: dict[tuple, tuple[Configuration, dict[str, tuple]]] = {key: (c, {})}
        todo = [key]
        while todo:
            key = todo.pop()
            c, succ = self.nodes[key]
            for k in valid_actions(c):
                key2 = succ[k] = _successor_key(key, k, gold_heads)
                if key2 not in self.nodes:
                    self.nodes[key2] = (_successor(c, k), {})
                    todo.append(key2)
        # gold dependents whose arc appears in some configuration reachable
        # from each one, as a bit set. Every action raises 2 * b - len(stack)
        # by one, so visiting the keys by that measure, highest first, visits
        # each successor before its predecessors.
        self._reach: dict[tuple, int] = {}
        for key in sorted(self.nodes, key=lambda k: len(k[0]) - 2 * k[1]):
            mask = _correct_mask(key)
            for key2 in self.nodes[key][1].values():
                mask |= self._reach[key2]
            self._reach[key] = mask
        self._joint: dict[tuple, int] = {}

    def configs(self):
        """(state key, configuration) pairs, each configuration once. The
        configurations share child lists (see `_successor`): read them, do
        not advance them."""
        return ((key, c) for key, (c, _) in self.nodes.items())

    def max_reachable(self, key) -> int:
        """Max gold arcs obtainable jointly from the configuration, by
        expanding every action sequence."""
        if key not in self._joint:
            succ = self.nodes[key][1]
            if not succ:
                self._joint[key] = _correct_mask(key).bit_count()
            else:
                self._joint[key] = max(self.max_reachable(k2) for k2 in succ.values())
        return self._joint[key]

    def reachable_gold(self, key) -> frozenset:
        """Gold dependents whose arc appears in some configuration reachable
        from the configuration (each arc checked independently)."""
        mask = self._reach[key]
        return frozenset(d for d in range(mask.bit_length()) if mask >> d & 1)

    def action_cost(self, key, kind: str) -> int:
        """Drop in the jointly obtainable gold arcs by taking `kind`."""
        return self.max_reachable(key) - self.max_reachable(self.nodes[key][1][kind])

    def arc_cost(self, key, kind: str) -> int:
        """Gold arcs no longer individually reachable after taking `kind`."""
        after = self._reach[self.nodes[key][1][kind]]
        return self._reach[key].bit_count() - after.bit_count()


def replay_arcs(s: Sentence, d: Derivation) -> list[tuple[int, int, str]]:
    """(head, dependent, label) of every arc `d` builds, by dependent, found
    by replaying its actions from the initial configuration."""
    c = initial_config(s)
    for a in d.actions:
        apply_action(c, a)
    return c.arcs


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
            order.append(c.b)
        apply_action(c, a)
    seen = set(order)
    order.extend(t.id for t in s.tokens if t.id not in seen)
    return order


# ---- the immutable configuration the in-place one replaced, with its
# functional transitions, cost and features: the references it must match


class RefConfig:
    """Immutable arc-eager state: stack, buffer and the arcs built so far."""

    __slots__ = ("stack", "buffer", "arcs", "head_of", "n")

    def __init__(self, stack, buffer, arcs, n):
        self.stack = tuple(stack)
        self.buffer = tuple(buffer)
        self.arcs = tuple(arcs)
        self.n = n
        self.head_of = {d: (h, l) for h, d, l in arcs}


def ref_initial(s: Sentence) -> RefConfig:
    n = len(s.tokens)
    return RefConfig((0,), tuple(range(1, n + 1)), (), n)


def ref_valid_actions(c: RefConfig) -> set[str]:
    kinds: set[str] = set()
    top = c.stack[-1]
    if c.buffer:
        kinds.add(SHIFT)
        kinds.add(RIGHT_ARC)
        if top != 0 and top not in c.head_of:
            kinds.add(LEFT_ARC)
    if top != 0 and top in c.head_of:
        kinds.add(REDUCE)
    return kinds


def ref_apply(c: RefConfig, a: Action) -> RefConfig:
    if a.kind not in ref_valid_actions(c):
        raise ValueError("action %r is not valid in %r" % (a, c))
    if a.kind == SHIFT:
        return RefConfig(c.stack + (c.buffer[0],), c.buffer[1:], c.arcs, c.n)
    if a.kind == REDUCE:
        return RefConfig(c.stack[:-1], c.buffer, c.arcs, c.n)
    if a.kind == LEFT_ARC:
        arc = (c.buffer[0], c.stack[-1], a.label)
        return RefConfig(c.stack[:-1], c.buffer, c.arcs + (arc,), c.n)
    arc = (c.stack[-1], c.buffer[0], a.label)
    return RefConfig(c.stack + (c.buffer[0],), c.buffer[1:], c.arcs + (arc,), c.n)


def ref_reachable_gold_count(c: RefConfig, gold_heads: list[int]) -> int:
    in_buffer = set(c.buffer)
    in_stack = set(c.stack)
    count = 0
    for d in range(1, c.n + 1):
        h = gold_heads[d]
        got = c.head_of.get(d)
        if got is not None:
            if got[0] == h:
                count += 1
            continue
        if d in in_buffer:
            if h in in_buffer or h in in_stack:
                count += 1
        elif d in in_stack:
            if h in in_buffer:
                count += 1
    return count


def ref_cost(c: RefConfig, kind: str, gold_heads: list[int]) -> int:
    """Gold arcs made unreachable by `kind`: the count before the action
    minus the count after it, on a new configuration."""
    before = ref_reachable_gold_count(c, gold_heads)
    return before - ref_reachable_gold_count(ref_apply(c, UNLABELED[kind]), gold_heads)


def _ref_node(s: Sentence, i: int | None):
    if i is None:
        return NULL, NULL
    if i == 0:
        return ROOT_WORD, ROOT_POS
    t = s.token(i)
    return t.form, t.upos


def ref_extract_features(c: RefConfig, s: Sentence) -> list[str]:
    """The 70 templates written out by hand, with children found by scanning
    `c.arcs`: the reference for `extract_features`, which builds the same
    strings from its template table over the child lists."""
    s0 = c.stack[-1]
    n0 = c.buffer[0] if len(c.buffer) > 0 else None
    n1 = c.buffer[1] if len(c.buffer) > 1 else None
    n2 = c.buffer[2] if len(c.buffer) > 2 else None

    s0w, s0p = _ref_node(s, s0)
    n0w, n0p = _ref_node(s, n0)
    n1w, n1p = _ref_node(s, n1)
    n2w, n2p = _ref_node(s, n2)

    def head_of(i):
        if i is None or i == 0:
            return None, NULL
        got = c.head_of.get(i)
        return (got[0], got[1]) if got else (None, NULL)

    def kids(i):
        if i is None:
            return [], []
        left = sorted((d, l) for h, d, l in c.arcs if h == i and d < i)
        right = sorted((d, l) for h, d, l in c.arcs if h == i and d > i)
        return left, right

    s0h, s0hl = head_of(s0)
    s0h2, s0h2l = head_of(s0h)
    s0hw, s0hp = _ref_node(s, s0h)
    s0h2w, s0h2p = _ref_node(s, s0h2)

    s0_left, s0_right = kids(s0)
    n0_left, _ = kids(n0)

    def pick(lst, idx, from_end=False):
        # idx-th child from the relevant edge: (token id, label) or null
        if len(lst) <= idx:
            return None, NULL
        return lst[-1 - idx] if from_end else lst[idx]

    s0l, s0ll = pick(s0_left, 0)
    s0l2, s0l2l = pick(s0_left, 1)
    s0r, s0rl = pick(s0_right, 0, from_end=True)
    s0r2, s0r2l = pick(s0_right, 1, from_end=True)
    n0l, n0ll = pick(n0_left, 0)
    n0l2, n0l2l = pick(n0_left, 1)

    s0lw, s0lp = _ref_node(s, s0l)
    s0l2w, s0l2p = _ref_node(s, s0l2)
    s0rw, s0rp = _ref_node(s, s0r)
    s0r2w, s0r2p = _ref_node(s, s0r2)
    n0lw, n0lp = _ref_node(s, n0l)
    n0l2w, n0l2p = _ref_node(s, n0l2)

    d = str(min(n0 - s0, 10)) if n0 is not None else NULL
    s0vl, s0vr = str(len(s0_left)), str(len(s0_right))
    n0vl = str(len(n0_left))
    s0sl = "|".join(sorted({l for _, l in s0_left})) or NULL
    s0sr = "|".join(sorted({l for _, l in s0_right})) or NULL
    n0sl = "|".join(sorted({l for _, l in n0_left})) or NULL

    f = [
        # unigrams
        "S0w=" + s0w,
        "S0p=" + s0p,
        "S0wp=" + s0w + "|" + s0p,
        "N0w=" + n0w,
        "N0p=" + n0p,
        "N0wp=" + n0w + "|" + n0p,
        "N1w=" + n1w,
        "N1p=" + n1p,
        "N2w=" + n2w,
        "N2p=" + n2p,
        # word pairs
        "S0wpN0wp=" + s0w + "|" + s0p + "|" + n0w + "|" + n0p,
        "S0wpN0w=" + s0w + "|" + s0p + "|" + n0w,
        "S0wN0wp=" + s0w + "|" + n0w + "|" + n0p,
        "S0wpN0p=" + s0w + "|" + s0p + "|" + n0p,
        "S0pN0wp=" + s0p + "|" + n0w + "|" + n0p,
        "S0wN0w=" + s0w + "|" + n0w,
        "S0pN0p=" + s0p + "|" + n0p,
        "N0pN1p=" + n0p + "|" + n1p,
        # triples
        "N0pN1pN2p=" + n0p + "|" + n1p + "|" + n2p,
        "S0pN0pN1p=" + s0p + "|" + n0p + "|" + n1p,
        "S0hpS0pN0p=" + s0hp + "|" + s0p + "|" + n0p,
        "S0pS0lpN0p=" + s0p + "|" + s0lp + "|" + n0p,
        "S0pS0rpN0p=" + s0p + "|" + s0rp + "|" + n0p,
        "S0pN0pN0lp=" + s0p + "|" + n0p + "|" + n0lp,
        # distance
        "S0wd=" + s0w + "|" + d,
        "S0pd=" + s0p + "|" + d,
        "N0wd=" + n0w + "|" + d,
        "N0pd=" + n0p + "|" + d,
        "S0wN0wd=" + s0w + "|" + n0w + "|" + d,
        "S0pN0pd=" + s0p + "|" + n0p + "|" + d,
        # valence
        "S0wvl=" + s0w + "|" + s0vl,
        "S0pvl=" + s0p + "|" + s0vl,
        "S0wvr=" + s0w + "|" + s0vr,
        "S0pvr=" + s0p + "|" + s0vr,
        "N0wvl=" + n0w + "|" + n0vl,
        "N0pvl=" + n0p + "|" + n0vl,
        # head and child unigrams
        "S0hw=" + s0hw,
        "S0hp=" + s0hp,
        "S0hl=" + s0hl,
        "S0lw=" + s0lw,
        "S0lp=" + s0lp,
        "S0ll=" + s0ll,
        "S0rw=" + s0rw,
        "S0rp=" + s0rp,
        "S0rl=" + s0rl,
        "N0lw=" + n0lw,
        "N0lp=" + n0lp,
        "N0ll=" + n0ll,
        # third order
        "S0h2w=" + s0h2w,
        "S0h2p=" + s0h2p,
        "S0h2l=" + s0h2l,
        "S0l2w=" + s0l2w,
        "S0l2p=" + s0l2p,
        "S0l2l=" + s0l2l,
        "S0r2w=" + s0r2w,
        "S0r2p=" + s0r2p,
        "S0r2l=" + s0r2l,
        "N0l2w=" + n0l2w,
        "N0l2p=" + n0l2p,
        "N0l2l=" + n0l2l,
        "S0pS0lpS0l2p=" + s0p + "|" + s0lp + "|" + s0l2p,
        "S0pS0rpS0r2p=" + s0p + "|" + s0rp + "|" + s0r2p,
        "S0pS0hpS0h2p=" + s0p + "|" + s0hp + "|" + s0h2p,
        "N0pN0lpN0l2p=" + n0p + "|" + n0lp + "|" + n0l2p,
        # label sets
        "S0wsl=" + s0w + "|" + s0sl,
        "S0psl=" + s0p + "|" + s0sl,
        "S0wsr=" + s0w + "|" + s0sr,
        "S0psr=" + s0p + "|" + s0sr,
        "N0wsl=" + n0w + "|" + n0sl,
        "N0psl=" + n0p + "|" + n0sl,
    ]
    return f


def brute_force_substring_count(strings) -> int:
    subs = set()
    for s in strings:
        t = tuple(s)
        for i in range(len(t)):
            for j in range(i + 1, len(t) + 1):
                subs.add(t[i:j])
    return len(subs)


# ---- Ukkonen's generalized suffix tree, which the suffix automaton in
# `udscheme.suffixtree` replaced: the linear-time reference it must match


class _SuffixNode:
    __slots__ = ("start", "end", "children", "link")

    def __init__(self, start: int, end):
        # `end` is an int for internal nodes and a shared one-element list
        # (the global end) for leaves
        self.start = start
        self.end = end
        self.children: dict = {}
        self.link = None

    def edge_end(self) -> int:
        return self.end if isinstance(self.end, int) else self.end[0]

    def edge_length(self) -> int:
        return self.edge_end() - self.start


def _ukkonen_tree(seq: list) -> _SuffixNode:
    """Ukkonen's online construction; returns the root node."""
    root = _SuffixNode(-1, -1)
    root.link = root
    leaf_end = [0]
    active_node = root
    active_edge = 0  # index into seq of the active edge's first symbol
    active_length = 0
    remaining = 0
    n = len(seq)
    for i in range(n):
        leaf_end[0] = i + 1
        remaining += 1
        last_internal = None
        while remaining > 0:
            if active_length == 0:
                active_edge = i
            first = seq[active_edge]
            nxt = active_node.children.get(first)
            if nxt is None:
                active_node.children[first] = _SuffixNode(i, leaf_end)
                if last_internal is not None:
                    last_internal.link = active_node
                    last_internal = None
            else:
                edge_len = nxt.edge_length()
                if active_length >= edge_len:
                    active_edge += edge_len
                    active_length -= edge_len
                    active_node = nxt
                    continue
                if seq[nxt.start + active_length] == seq[i]:
                    active_length += 1
                    if last_internal is not None:
                        last_internal.link = active_node
                    break
                split = _SuffixNode(nxt.start, nxt.start + active_length)
                active_node.children[first] = split
                split.children[seq[i]] = _SuffixNode(i, leaf_end)
                nxt.start += active_length
                split.children[seq[nxt.start]] = nxt
                if last_internal is not None:
                    last_internal.link = split
                last_internal = split
            remaining -= 1
            if active_node is root and active_length > 0:
                active_length -= 1
                active_edge = i - remaining + 1
            elif active_node is not root:
                active_node = active_node.link if active_node.link is not None else root
    return root


def ref_count_distinct_substrings(strings: list) -> int:
    """Distinct non-empty substrings occurring in any of the strings, from
    a generalized suffix tree over the strings joined with per-string
    terminator symbols. Terminators contribute nothing: each edge is counted
    only up to (excluding) its first terminator, and traversal stops there.
    """
    seq: list = []
    terminators = set()
    for i, s in enumerate(strings):
        seq.extend(s)
        term = ("$", i)
        terminators.add(term)
        seq.append(term)
    if not seq:
        return 0
    root = _ukkonen_tree(seq)
    # next_term[k] = position of the first terminator at or after k, so each
    # edge is cut in O(1) and the whole count stays linear
    n = len(seq)
    next_term = [n] * (n + 1)
    for k in range(n - 1, -1, -1):
        next_term[k] = k if seq[k] in terminators else next_term[k + 1]
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children.values():
            end = child.edge_end()
            cut = min(end, next_term[child.start])
            count += cut - child.start
            if cut == end:
                stack.append(child)
    return count


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


# ---- the hash-keyed model that string keys replaced: the reference the
# string-keyed parse() must match, and the v1 model file the golden digest pins


def ref_hash_rows(weights: dict[str, dict[int, float]]) -> dict[int, dict[int, float]]:
    """The rows re-keyed by the fnv1a64 hash of their feature string, as
    `train()` froze a model before v2. Rows whose strings share a hash are
    summed into one, in `weights` order."""
    out: dict[int, dict[int, float]] = {}
    for f, row in weights.items():
        have = out.setdefault(fnv1a64(f), {})
        for a, w in row.items():
            have[a] = have.get(a, 0.0) + w
    return out


def ref_parse_hashed(model: Model, s: Sentence) -> Sentence:
    """parse() as it was before v2, written out on its own: the string-keyed
    `model` frozen by `ref_hash_rows`, every feature of every step hashed
    with fnv1a64, the highest-scoring allowed action taken (the first in
    inventory order on a tie), and headless tokens attached afterwards."""
    rows = ref_hash_rows(model.weights)
    c = initial_config(s)
    while c.b <= c.n:
        if c.stack[-1] == 0 and c.rights[0]:  # no second arc from the root
            kinds = {SHIFT}
        else:
            kinds = valid_actions(c)
        allowed = [i for i, a in enumerate(model.actions) if a.kind in kinds]
        scores = [0.0] * len(model.actions)
        for f in extract_features(c, s):
            for a, w in rows.get(fnv1a64(f), {}).items():
                scores[a] += w
        apply_action(c, model.actions[max(allowed, key=scores.__getitem__)])
    heads = [0 if h is None else h for h in c.head]
    deprels = ["root" if h is None else l for h, l in zip(c.head, c.label)]
    roots = [d for d in range(1, c.n + 1) if heads[d] == 0]
    primary = c.rights[0][0] if c.rights[0] else roots[0]
    for d in roots:
        if d != primary:
            heads[d], deprels[d] = primary, "root"
    return s.with_arcs(heads, deprels)


def ref_save_model_v1(model: Model, path: str) -> None:
    """Write the string-keyed `model` as the v1 model file `save_model` wrote
    before v2: rows keyed by `ref_hash_rows`, one sorted
    `hash<TAB>action<TAB>weight` line per entry, and no entry count."""
    entries = sorted(
        (h, _action_name(model.actions[a]), w)
        for h, row in ref_hash_rows(model.weights).items()
        for a, w in row.items()
    )
    lines = ["# udscheme-model v1", "labels\t" + ",".join(model.labels)]
    lines += ["%d\t%s\t%r" % e for e in entries]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


# ---- the CoNLL-U code that tokens as named tuples and the line kept on each
# sentence replaced: the references validate_tree, the token-line formatter,
# write_conllu, with_arcs and check_trees' line of a read tree must match


def ref_validate_tree(s: Sentence) -> ValidationReport:
    """Tree check that walks a full head chain from every token."""
    violations: list[tuple[int | None, str, str]] = []
    n = len(s.tokens)
    for i, t in enumerate(s.tokens, start=1):
        if t.id != i:
            violations.append((t.id, "id-sequence", "token ids are not 1..n contiguous"))
            return ValidationReport(False, tuple(violations))
    roots = [t.id for t in s.tokens if t.head == 0]
    if not roots:
        violations.append((None, "no-root", "no token has head 0"))
    elif len(roots) > 1:
        violations.append(
            (roots[1], "multiple-roots", "tokens %s all have head 0" % roots)
        )
    for t in s.tokens:
        if not 0 <= t.head <= n:
            violations.append((t.id, "head-range", "head %d out of range" % t.head))
        if t.head == t.id:
            violations.append((t.id, "self-loop", "token %d is its own head" % t.id))
        if t.deprel in ("", "_") and t.head != 0:
            violations.append((t.id, "empty-deprel", "token %d has no deprel" % t.id))
    if violations:
        return ValidationReport(False, tuple(violations))
    heads = s.heads()
    for t in s.tokens:
        seen = set()
        a = t.id
        while a != 0:
            if a in seen:
                violations.append((t.id, "cycle", "token %d is caught in a head cycle" % t.id))
                break
            seen.add(a)
            a = heads[a]
        if violations:
            break
    return ValidationReport(not violations, tuple(violations))


def ref_token_line(t: Token) -> str:
    """A token's CoNLL-U line, joined field by field."""
    return "\t".join(
        (
            str(t.id),
            t.form,
            t.lemma,
            t.upos,
            t.xpos,
            t.feats,
            str(t.head),
            t.deprel,
            t.deps,
            t.misc,
        )
    )


def ref_write_conllu(sentences: list[Sentence]) -> str:
    """write_conllu over the reference validator and token-line formatter,
    with each kept line written before the token at its position."""
    out: list[str] = []
    for idx, s in enumerate(sentences):
        report = ref_validate_tree(s)
        if not report.ok:
            raise ValueError(
                "sentence %d is not a valid tree: %s" % (idx, report.violations[0][2])
            )
        kept: dict[int, list[str]] = {}
        for pos, line in s.other_lines:
            kept.setdefault(pos, []).append(line)
        for pos, t in enumerate(s.tokens):
            out.extend(kept.get(pos, ()))
            out.append(ref_token_line(t))
        out.extend(kept.get(len(s.tokens), ()))
        out.append("")
    return "\n".join(out) + "\n" if out else ""


def ref_with_arcs(s: Sentence, heads: list[int], deprels: list[str]) -> Sentence:
    """with_arcs that replaces head and deprel in a new copy of every token."""
    toks = tuple(t._replace(head=heads[t.id], deprel=deprels[t.id]) for t in s.tokens)
    return Sentence(toks, s.other_lines)


def ref_token_line_no(path: str, sentence_idx: int, tid: int) -> int:
    """The line of token `tid` of sentence `sentence_idx` in a file that
    `read_conllu_file` reads without error, found by reading the file again:
    each sentence is one block of non-empty lines, and every such block is a
    sentence. `check_trees` must place an invalid read tree at this line."""
    sentence = -1
    in_block = False
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if line == "":
            in_block = False
            continue
        if not in_block:
            in_block = True
            sentence += 1
        if sentence == sentence_idx and line.split("\t", 1)[0] == str(tid):
            return line_no
    raise ValueError("%s: sentence %d has no token %d" % (path, sentence_idx, tid))


SHAPES = (
    "tree", "chain", "cycle", "self-loop", "multi-root", "no-root",
    "head-range", "empty-deprel", "id-sequence", "random",
)
FIELD_CHARS = "abcXYZ_=|:.-éß語 "


def _field(rng: random.Random) -> str:
    text = "".join(rng.choice(FIELD_CHARS) for _ in range(rng.randint(1, 6)))
    return "_" if text.isspace() else text


def random_head_graph(rng: random.Random, n: int, shape: str) -> list[int]:
    """A 0-based head list of the given shape: a valid tree, a deep chain,
    or a graph with one kind of defect (or any mix, for "random")."""
    if shape == "random":
        return [rng.randint(-1, n + 1) for _ in range(n)]
    if shape == "chain":
        order = list(range(1, n + 1))
        rng.shuffle(order)
        heads = [0] * n
        for parent, child in zip(order, order[1:]):
            heads[child - 1] = parent
        return heads
    heads = random_tree(rng, n)
    if shape == "cycle" and n >= 3:
        # point the root at a token below it: every token ends in a cycle
        root = heads.index(0) + 1
        below = [i + 1 for i in range(n) if i + 1 != root]
        heads[root - 1] = rng.choice(below)
        # and give the graph a fresh root, so only the cycle is wrong
        free = [d for d in below if heads[d - 1] != root and d != heads[root - 1]]
        if free:
            heads[rng.choice(free) - 1] = 0
    elif shape == "self-loop":
        d = rng.randint(1, n)
        heads[d - 1] = d
    elif shape == "multi-root" and n >= 2:
        heads[rng.choice([i for i in range(n) if heads[i] != 0])] = 0
    elif shape == "no-root":
        root = heads.index(0)
        heads[root] = rng.choice([d for d in range(1, n + 1) if d != root + 1] or [1])
    elif shape == "head-range":
        heads[rng.randrange(n)] = rng.choice([-1, n + 1, n + 5])
    return heads


def random_conllu_sentence(rng: random.Random, n: int, shape: str) -> Sentence:
    """A sentence of n tokens with random text columns, over a head graph of
    the given shape, and lines outside the tree at random places: comments,
    multiword ranges and empty nodes, each with random columns."""
    heads = random_head_graph(rng, n, shape)
    tokens = []
    for i, h in enumerate(heads, start=1):
        deprel = "root" if h == 0 else rng.choice(["nsubj", "obj", "det", "case", "x:y"])
        if shape == "empty-deprel" and h != 0 and rng.random() < 0.5:
            deprel = rng.choice(["", "_"])
        tokens.append(
            Token(i, _field(rng), _field(rng), rng.choice(["NOUN", "VERB", "PUNCT"]),
                  _field(rng), _field(rng), h, deprel, _field(rng), _field(rng))
        )
    if shape == "id-sequence" and n >= 2:
        i = rng.randrange(n)
        tokens[i] = tokens[i]._replace(id=tokens[i].id + rng.choice([1, n]))
    other = []
    start = 1
    while start < n and rng.random() < 0.5:
        start = rng.randint(start, n - 1)
        end = rng.randint(start + 1, min(n, start + 2))
        columns = [_field(rng) for _ in range(9)]
        other.append((start - 1, "\t".join(["%d-%d" % (start, end)] + columns)))
        start = end + 1
    for pos in rng.sample(range(n + 1), rng.randint(0, 2)):
        columns = [_field(rng) for _ in range(9)]
        other.append((pos, "\t".join(["%d.%d" % (pos, rng.randint(1, 3))] + columns)))
    for _ in range(rng.randint(0, 3)):
        other.append((rng.randint(0, n), "# %s = %s" % (_field(rng), _field(rng))))
    # lines at one position come in any order
    rng.shuffle(other)
    other.sort(key=lambda line: line[0])
    return Sentence(tuple(tokens), tuple(other))


# ---- the rewrites the one promote step replaced, where the inversions and
# the coordination rewrite each swapped, moved followers and repaired on
# their own: the reference `apply_transformation` must match


def _ref_children(heads: list[int], h: int) -> list[int]:
    return [d for d in range(1, len(heads)) if heads[d] == h]


def _ref_repair(heads: list[int], i: int, j: int, skip: set[int]) -> int:
    """Reattach to j every child k of i with j strictly between k and i,
    except those in `skip`; returns the number of reattachments."""
    moved = 0
    for k in _ref_children(heads, i):
        if k != j and k not in skip and (k < j < i or i < j < k):
            heads[k] = j
            moved += 1
    return moved


def _ref_invert(s: Sentence, labels, noun_labels=None) -> tuple[Sentence, int, int]:
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
        trig = [
            d
            for d in range(1, n + 1)
            if orig_heads[d] == i and orig_deprels[d] in labels and heads[d] == i
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
            for c in _ref_children(heads, i):
                if c != promoted and c not in moved and deprels[c] not in noun_labels:
                    heads[c] = promoted
                    moved.add(c)
        repairs += _ref_repair(heads, i, promoted, moved)
    return s.with_arcs(heads, deprels), rewritten, repairs


def _ref_chain(s: Sentence, labels) -> tuple[Sentence, int, int]:
    heads, deprels = s.heads(), s.deprels()
    n = len(s.tokens)
    rewritten = 0
    for f in range(0, n + 1):
        seq = sorted(d for d in range(1, n + 1) if heads[d] == f and deprels[d] in labels)
        for prev, d in zip(seq, seq[1:]):
            heads[d] = prev
            rewritten += 1
    return s.with_arcs(heads, deprels), rewritten, 0


def _ref_depths(heads: list[int]) -> list[int]:
    depth = [0] * len(heads)
    for d in range(1, len(heads)):
        a, k = d, 0
        while a != 0 and k <= len(heads):
            a = heads[a]
            k += 1
        depth[d] = k
    return depth


def _ref_rehead(s: Sentence) -> tuple[Sentence, int, int]:
    heads, deprels = s.heads(), s.deprels()
    orig_heads, orig_deprels = list(heads), list(deprels)
    n = len(s.tokens)
    rewritten = repairs = 0
    cc_heads = {orig_heads[d] for d in range(1, n + 1) if orig_deprels[d] == "cc"}
    conj_heads = {orig_heads[d] for d in range(1, n + 1) if orig_deprels[d] == "conj"}
    depth = _ref_depths(orig_heads)
    for w1 in sorted((cc_heads & conj_heads) - {0}, key=lambda h: (depth[h], h)):
        cc_kids = [d for d in _ref_children(heads, w1) if deprels[d] == "cc"]
        conj_kids = [d for d in _ref_children(heads, w1) if deprels[d] == "conj"]
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
        repairs += _ref_repair(heads, w1, conj, moved)
    return s.with_arcs(heads, deprels), rewritten, repairs


def ref_apply_transformation(
    sentences: list[Sentence], t: Transformation, noun_labels=COPULA_NOUN_LABELS
) -> TransformResult:
    out: list[Sentence] = []
    changed = False
    rewritten = repairs = 0
    for s in sentences:
        labels = TRIGGER_LABELS[t]
        if t in (Transformation.CASE, Transformation.MARK, Transformation.DET):
            new, r, p = _ref_invert(s, labels)
        elif t in (Transformation.MWE, Transformation.NAME):
            new, r, p = _ref_chain(s, labels)
        elif t is Transformation.COPULA:
            new, r, p = _ref_invert(s, labels, noun_labels)
        else:
            new, r, p = _ref_rehead(s)
        if not new.same_tree(s):
            changed = True
        rewritten += r
        repairs += p
        out.append(new)
    return TransformResult(out, changed, rewritten, repairs)
