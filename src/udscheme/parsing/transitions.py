"""Arc-eager transition system with a dynamic-oracle cost function.

The cost of an action is the number of gold arcs it makes unreachable.
Arc-eager is arc-decomposable, so we compute it as the difference in the
count of individually reachable gold arcs before and after the action.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..conllu import Sentence

SHIFT = "SHIFT"
REDUCE = "REDUCE"
LEFT_ARC = "LEFT_ARC"
RIGHT_ARC = "RIGHT_ARC"

# fixed tie-break priority for the static oracle
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
    """Immutable arc-eager state: stack, buffer and the arcs built so far."""

    __slots__ = ("stack", "buffer", "arcs", "head_of", "n")

    def __init__(self, stack, buffer, arcs, n):
        self.stack = tuple(stack)
        self.buffer = tuple(buffer)
        self.arcs = tuple(arcs)
        self.n = n
        self.head_of = {d: (h, l) for h, d, l in arcs}

    def __repr__(self):
        return "Configuration(stack=%r, buffer=%r, arcs=%r)" % (
            self.stack,
            self.buffer,
            self.arcs,
        )


def initial_config(s: Sentence) -> Configuration:
    n = len(s.tokens)
    return Configuration((0,), tuple(range(1, n + 1)), (), n)


def valid_actions(c: Configuration) -> set[str]:
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


def apply_action(c: Configuration, a: Action) -> Configuration:
    if a.kind not in valid_actions(c):
        raise ValueError("action %r is not valid in %r" % (a, c))
    if a.kind == SHIFT:
        return Configuration(c.stack + (c.buffer[0],), c.buffer[1:], c.arcs, c.n)
    if a.kind == REDUCE:
        return Configuration(c.stack[:-1], c.buffer, c.arcs, c.n)
    if a.kind == LEFT_ARC:
        arc = (c.buffer[0], c.stack[-1], a.label)
        return Configuration(c.stack[:-1], c.buffer, c.arcs + (arc,), c.n)
    # RIGHT_ARC
    arc = (c.stack[-1], c.buffer[0], a.label)
    return Configuration(c.stack + (c.buffer[0],), c.buffer[1:], c.arcs + (arc,), c.n)


def reachable_gold_count(c: Configuration, gold_heads: list[int]) -> int:
    """Number of gold arcs still obtainable from c (built ones included).

    A pending gold arc (h, d) is reachable iff d has no head yet and either
    d is in the buffer with h not yet reduced, or d is on the stack with h
    still in the buffer.
    """
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


# the action of each kind that cost computations apply; labels do not affect cost
_UNLABELED = {k: Action(k, None if k in (SHIFT, REDUCE) else "_") for k in KIND_ORDER}


def _cost(c: Configuration, kind: str, gold_heads: list[int], before: int) -> int:
    """Gold arcs made unreachable by `kind`, given `before` =
    reachable_gold_count(c, gold_heads)."""
    return before - reachable_gold_count(apply_action(c, _UNLABELED[kind]), gold_heads)


def action_cost(c: Configuration, a: Action, gold: Sentence) -> int:
    """Gold arcs made unreachable by taking `a`. Labels do not affect cost."""
    gold_heads = gold.heads()
    return _cost(c, a.kind, gold_heads, reachable_gold_count(c, gold_heads))


def oracle_step(
    c: Configuration, gold_heads: list[int], gold_deprels: list[str]
) -> tuple[dict[str, int], list[Action]]:
    """One dynamic-oracle step from a configuration with a non-empty buffer:
    the cost of each valid kind, and the min-cost actions in KIND_ORDER, arc
    actions with the gold label of the token they attach."""
    before = reachable_gold_count(c, gold_heads)
    costs = {k: _cost(c, k, gold_heads, before) for k in valid_actions(c)}
    best = min(costs.values())
    labels = {LEFT_ARC: gold_deprels[c.stack[-1]], RIGHT_ARC: gold_deprels[c.buffer[0]]}
    kinds = sorted((k for k in costs if costs[k] == best), key=KIND_ORDER.get)
    return costs, [Action(k, labels.get(k)) for k in kinds]


def static_oracle_derivation(gold: Sentence) -> Derivation:
    """Gold action sequence under the fixed Shift > Reduce > Left > Right
    priority, choosing zero-cost actions (minimum cost for non-projective
    trees). Decoding stops when the buffer is exhausted."""
    gold_heads = gold.heads()
    gold_deprels = gold.deprels()
    c = initial_config(gold)
    actions: list[Action] = []
    while c.buffer:
        a = oracle_step(c, gold_heads, gold_deprels)[1][0]
        actions.append(a)
        c = apply_action(c, a)
    # each arc action appends one arc, so the arcs are in attachment order
    return Derivation(tuple(actions), tuple(d for _, d, _ in c.arcs))


def execute_derivation(s: Sentence, d: Derivation) -> list[tuple[int, int, str]]:
    """Run a derivation from the initial configuration and return its arcs."""
    c = initial_config(s)
    for a in d.actions:
        c = apply_action(c, a)
    return list(c.arcs)
