"""Arc-eager transition system with closed-form dynamic-oracle costs.

`Configuration` is one mutable state per sentence that `apply_action`
advances in place in O(1): a stack list, the buffer front `b` (the buffer is
always the range b..n), each token's head and label, and each token's left
and right dependents in id order. The kinds valid in a configuration depend
only on whether the buffer is empty and on what the stack top is, so
`valid_actions` and `apply_action` read them from a table built once, and
the oracle returns shared actions, one object per (kind, label): an oracle
step builds no set and no action.

The cost of an action is the number of gold arcs it makes unreachable.
`reachable_gold_count` counts the gold arcs still obtainable (built ones
included): a pending gold arc (h, d) is reachable iff d has no head yet and
either d is in the buffer with h not yet reduced, or d is on the stack with h
still in the buffer. Arc-eager is arc-decomposable, so an action's cost is
the drop in that count, which has a closed form over the tokens the action
moves (Goldberg & Nivre, "A Dynamic Oracle for Arc-Eager Dependency
Parsing", COLING 2012; TACL 2013). For buffer front b, stack top s and gold
heads g:

    SHIFT     = [g(b) on stack] + #{headless stack d with g(d) = b}
    RIGHT_ARC = [g(b) != s and (g(b) on stack or g(b) > b)]
                + #{headless stack d with g(d) = b}
    LEFT_ARC  = [g(s) > b] + #{buffer d with g(d) = s}
    REDUCE    = #{buffer d with g(d) = s}

The two counts are O(degree) through the per-head gold dependents in
`Gold`, each written once: `stranded_count` (b's headless gold dependents on
the stack) and `orphaned_count` (s's gold dependents in the buffer). Both
oracles read them. Training's dynamic oracle, `oracle_step`, costs every
valid kind (`kind_costs`) and returns all the min-cost actions; the static
oracle, `static_oracle_derivation`, only needs the first of them under the
fixed priority SHIFT < REDUCE < LEFT_ARC < RIGHT_ARC, so it compares the
costs directly: SHIFT is taken when it is free (no other cost is computed),
and otherwise each other valid kind replaces the choice only at a strictly
lower cost. Costs above 0 arise only in non-projective trees. Every
derivation and training sentence checks the closed form against its
definition once, at O(n): all n gold arcs are reachable initially, so at the
end `reachable_gold_count` must equal n minus the summed cost of the actions
taken (`check_lost`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..conllu import Sentence

SHIFT = "SHIFT"
REDUCE = "REDUCE"
LEFT_ARC = "LEFT_ARC"
RIGHT_ARC = "RIGHT_ARC"

# the fixed tie-break priority: `oracle_step` lists its min-cost actions in
# this order, and the static oracle takes the first of them
KIND_ORDER = {SHIFT: 0, REDUCE: 1, LEFT_ARC: 2, RIGHT_ARC: 3}


@dataclass(frozen=True)
class Action:
    kind: str
    label: str | None = None

    def __post_init__(self):
        if self.kind in (LEFT_ARC, RIGHT_ARC) and self.label is None:
            raise ValueError("%s requires a label" % self.kind)
        if self.kind in (SHIFT, REDUCE) and self.label is not None:
            raise ValueError("%s takes no label" % self.kind)


@dataclass(frozen=True)
class Derivation:
    actions: tuple[Action, ...]
    # the token each arc action attaches, in order: the stack top for
    # LEFT_ARC, the buffer front for RIGHT_ARC
    attached: tuple[int, ...]


class Configuration:
    """Mutable arc-eager state over tokens 1..n and the artificial root 0.

    `head[d]`/`label[d]` are None while d is headless; `stacked[d]` says
    whether d is on the stack; `lefts[h]`/`rights[h]` are h's dependents
    left and right of it, in id order.
    """

    __slots__ = ("n", "stack", "b", "head", "label", "stacked", "lefts", "rights")

    def __init__(self, n: int):
        self.n = n
        self.stack = [0]
        self.b = 1
        self.head: list[int | None] = [None] * (n + 1)
        self.label: list[str | None] = [None] * (n + 1)
        self.stacked = [True] + [False] * n
        self.lefts: list[list[int]] = [[] for _ in range(n + 1)]
        self.rights: list[list[int]] = [[] for _ in range(n + 1)]

    @property
    def buffer(self) -> range:
        return range(self.b, self.n + 1)

    @property
    def arcs(self) -> list[tuple[int, int, str]]:
        """(head, dependent, label) of every arc built, by dependent."""
        return [(h, d, self.label[d]) for d, h in enumerate(self.head) if h is not None]

    def __repr__(self):
        return "Configuration(stack=%r, buffer=%r, arcs=%r)" % (
            self.stack,
            tuple(self.buffer),
            self.arcs,
        )


def initial_config(s: Sentence) -> Configuration:
    return Configuration(len(s.tokens))


# The validity rules, as the kinds valid in each case:
# _VALID[buffer non-empty][stack top is the root 0, headless 1, headed 2]
_VALID = (
    (frozenset(), frozenset(), frozenset({REDUCE})),
    (frozenset({SHIFT, RIGHT_ARC}), frozenset({SHIFT, RIGHT_ARC, LEFT_ARC}),
     frozenset({SHIFT, RIGHT_ARC, REDUCE})),
)


# the sets `valid_actions` returns while the buffer is non-empty: the only ones
# a step of the oracle or of a decoder chooses from
STEP_KINDS = _VALID[True]


def valid_actions(c: Configuration) -> frozenset[str]:
    """The kinds valid in c, as one of the shared sets in _VALID."""
    top = c.stack[-1]
    return _VALID[c.b <= c.n][0 if top == 0 else 1 if c.head[top] is None else 2]


def apply_action(c: Configuration, a: Action, kinds=None) -> None:
    """Advance c by `a` in place; an action invalid in c raises ValueError.
    A caller that has the kinds valid in c (from `valid_actions`, as the keys
    of `kind_costs`, or from `STEP_KINDS`), or a subset of them it chose
    from, passes them as `kinds`, and `a` is checked against those."""
    kind = a.kind
    if kind not in (valid_actions(c) if kinds is None else kinds):
        raise ValueError("action %r is not valid in %r" % (a, c))
    if kind == SHIFT:
        c.stack.append(c.b)
        c.stacked[c.b] = True
        c.b += 1
    elif kind == REDUCE:
        c.stacked[c.stack.pop()] = False
    elif kind == LEFT_ARC:
        d = c.stack.pop()
        c.stacked[d] = False
        c.head[d] = c.b
        c.label[d] = a.label
        # the stack holds ids in increasing order, so each new left
        # dependent of the buffer front is further left than the last
        c.lefts[c.b].insert(0, d)
    else:  # RIGHT_ARC
        h, d = c.stack[-1], c.b
        c.head[d] = h
        c.label[d] = a.label
        c.rights[h].append(d)
        c.stack.append(d)
        c.stacked[d] = True
        c.b += 1


@functools.cache
def _action(kind: str, label: str | None) -> Action:
    """The one shared action of this kind and label, so that an oracle step
    builds none; there are at most two per label, and SHIFT and REDUCE."""
    return Action(kind, label)


class Gold:
    """A gold tree as the oracle reads it: heads and deprels indexed by token
    id (index 0 unused), and each token's gold dependents in id order."""

    __slots__ = ("heads", "deprels", "deps")

    def __init__(self, s: Sentence):
        self.heads = s.heads()
        self.deprels = s.deprels()
        self.deps: list[list[int]] = [[] for _ in self.heads]
        for d in range(1, len(self.heads)):
            self.deps[self.heads[d]].append(d)


def reachable_gold_count(c: Configuration, gold_heads: list[int]) -> int:
    """Number of gold arcs still obtainable from c (built ones included).

    A pending gold arc (h, d) is reachable iff d has no head yet and either
    d is in the buffer with h not yet reduced, or d is on the stack with h
    still in the buffer.
    """
    b, head, stacked = c.b, c.head, c.stacked
    count = 0
    for d in range(1, c.n + 1):
        h = gold_heads[d]
        got = head[d]
        if got is not None:
            if got == h:
                count += 1
        elif d >= b:
            if h >= b or stacked[h]:
                count += 1
        elif stacked[d]:
            if h >= b:
                count += 1
    return count


def check_lost(c: Configuration, gold_heads: list[int], lost: int) -> None:
    """Check that the gold arcs still reachable in c are all but `lost`, the
    summed cost of the actions that led to c from the initial configuration
    (where all n are reachable)."""
    reachable = reachable_gold_count(c, gold_heads)
    if reachable != c.n - lost:
        raise RuntimeError(
            "oracle costs sum to %d, but %d of %d gold arcs are unreachable in %r"
            % (lost, c.n - reachable, c.n, c)
        )


def stranded_count(c: Configuration, gold: Gold) -> int:
    """b's headless gold dependents on the stack: they lose their head once
    the buffer front b leaves the buffer (by SHIFT or RIGHT_ARC)."""
    b, stacked, head = c.b, c.stacked, c.head
    count = 0
    for d in gold.deps[b]:
        if d > b:
            break
        if stacked[d] and head[d] is None:
            count += 1
    return count


def orphaned_count(c: Configuration, gold: Gold) -> int:
    """The stack top s's gold dependents in the buffer: they lose their head
    once s is popped (by LEFT_ARC or REDUCE)."""
    b = c.b
    count = 0
    for d in reversed(gold.deps[c.stack[-1]]):
        if d < b:
            break
        count += 1
    return count


def kind_costs(c: Configuration, gold: Gold) -> dict[str, int]:
    """The cost of each valid kind in c, in closed form."""
    b, s, n = c.b, c.stack[-1], c.n
    heads, stacked, head = gold.heads, c.stacked, c.head
    costs = {}
    if b <= n:
        gb = heads[b]
        stranded = stranded_count(c, gold)
        costs[SHIFT] = stacked[gb] + stranded
        costs[RIGHT_ARC] = (gb != s and (stacked[gb] or gb > b)) + stranded
    if s != 0:
        orphaned = orphaned_count(c, gold)
        if head[s] is None:
            if b <= n:
                costs[LEFT_ARC] = (heads[s] > b) + orphaned
        else:
            costs[REDUCE] = orphaned
    return costs


def oracle_step(c: Configuration, gold: Gold) -> tuple[dict[str, int], list[Action]]:
    """One dynamic-oracle step from a configuration with a non-empty buffer:
    the cost of each valid kind, and the min-cost actions in KIND_ORDER, arc
    actions with the gold label of the token they attach. The actions are
    shared objects: equal actions are the same object."""
    costs = kind_costs(c, gold)
    best = min(costs.values())
    actions = []
    for kind in KIND_ORDER:
        if costs.get(kind) == best:
            if kind == LEFT_ARC:
                actions.append(_action(kind, gold.deprels[c.stack[-1]]))
            elif kind == RIGHT_ARC:
                actions.append(_action(kind, gold.deprels[c.b]))
            else:
                actions.append(_action(kind, None))
    return costs, actions


_SHIFT = _action(SHIFT, None)
_REDUCE = _action(REDUCE, None)


def static_oracle_derivation(gold: Sentence) -> Derivation:
    """Gold action sequence under the fixed Shift > Reduce > Left > Right
    priority, choosing zero-cost actions (minimum cost for non-projective
    trees). Decoding stops when the buffer is exhausted.

    Each step compares the closed-form costs directly: SHIFT is taken as
    soon as it is free, and otherwise each other valid kind replaces the
    choice only at a strictly lower cost, so the first minimum in priority
    order wins."""
    g = Gold(gold)
    heads, deprels = g.heads, g.deprels
    c = initial_config(gold)
    n, stack, stacked, head = c.n, c.stack, c.stacked, c.head
    actions: list[Action] = []
    attached: list[int] = []
    lost = 0
    while c.b <= n:
        b, s = c.b, stack[-1]
        gb = heads[b]
        stranded = stranded_count(c, g)
        cost = stacked[gb] + stranded
        a = _SHIFT
        # SHIFT and RIGHT_ARC are valid while the buffer is non-empty; with
        # a token on top, REDUCE if it is headed, else LEFT_ARC
        if s == 0:
            kinds = STEP_KINDS[0]
        elif head[s] is None:
            kinds = STEP_KINDS[1]
            if cost:
                left = (heads[s] > b) + orphaned_count(c, g)
                if left < cost:
                    a, cost = _action(LEFT_ARC, deprels[s]), left
        else:
            kinds = STEP_KINDS[2]
            if cost:
                reduce = orphaned_count(c, g)
                if reduce < cost:
                    a, cost = _REDUCE, reduce
        if cost:
            right = (gb != s and (stacked[gb] or gb > b)) + stranded
            if right < cost:
                a, cost = _action(RIGHT_ARC, deprels[b]), right
        if a.kind == LEFT_ARC:
            attached.append(s)
        elif a.kind == RIGHT_ARC:
            attached.append(b)
        actions.append(a)
        lost += cost
        apply_action(c, a, kinds)
    check_lost(c, g.heads, lost)
    return Derivation(tuple(actions), tuple(attached))
