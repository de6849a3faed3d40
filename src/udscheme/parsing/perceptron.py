"""Averaged perceptron for greedy arc-eager parsing.

Feature strings are hashed to 64-bit keys (FNV-1a); collisions are accepted.
Hashes are memoized in a plain dict that maps a string to its hash, so
sharing one never changes a result. `train()` and `parse()` take an optional
memo from their caller (the experiment harness passes one per treebank to
all of that treebank's trainings and parses). Without one, `train()` shares
a memo across all its steps and dev-set decodes (which call `parse()`), and
each `parse()` call starts a fresh one. Nothing is cached at module level.
Training follows the dynamic-oracle recipe: predict with the current weights,
update toward the best zero-cost action whenever the prediction has non-zero
cost, and after the first `explore_k` epochs follow the model's own
prediction with probability `explore_p`.
"""

from __future__ import annotations

import random
from collections.abc import Set
from dataclasses import dataclass, field

from ..conllu import Sentence, validate_tree, write_atomic
from ..evaluate import corpus_uas
from .features import extract_features
from .transitions import (
    Action,
    Gold,
    LEFT_ARC,
    REDUCE,
    RIGHT_ARC,
    SHIFT,
    apply_action,
    check_lost,
    initial_config,
    oracle_step,
    valid_actions,
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a64(s: str) -> int:
    """Stable 64-bit string hash (independent of PYTHONHASHSEED)."""
    h = _FNV_OFFSET
    for b in s.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def _hash_features(strings: list[str], memo: dict[str, int]) -> list[int]:
    """fnv1a64 of each string, in order, computing each distinct one once per memo."""
    hashes = []
    for x in strings:
        h = memo.get(x)
        if h is None:
            h = memo[x] = fnv1a64(x)
        hashes.append(h)
    return hashes


@dataclass
class Hyperparameters:
    epochs: int = 10
    explore_k: int = 1
    explore_p: float = 0.9


@dataclass
class Model:
    labels: list[str]
    # feature hash -> {action index -> weight}: averaged once trained, raw while training
    weights: dict[int, dict[int, float]] = field(default_factory=dict)

    def __post_init__(self):
        self.actions = _action_inventory(self.labels)
        self._index = {a: i for i, a in enumerate(self.actions)}
        # set of valid kinds -> indices of its actions (at most 16 sets)
        self._allowed: dict[frozenset[str], list[int]] = {}

    def score(self, feats: list[int]) -> list[float]:
        scores = [0.0] * len(self.actions)
        for f in feats:
            row = self.weights.get(f)
            if row:
                for a, w in row.items():
                    scores[a] += w
        return scores


def _action_inventory(labels: list[str]) -> list[Action]:
    """All actions in deterministic tie-break order:
    SHIFT < REDUCE < LEFT_ARC(label) < RIGHT_ARC(label), labels sorted."""
    acts = [Action(SHIFT), Action(REDUCE)]
    acts += [Action(LEFT_ARC, l) for l in sorted(labels)]
    acts += [Action(RIGHT_ARC, l) for l in sorted(labels)]
    return acts


class _AveragedWeights:
    """Perceptron weights with lazy averaging over update steps.

    Each map is feature hash -> {action index -> value}: `w` holds the raw
    weights (the rows `Model.score` reads during training), `total` the
    weight summed over the steps before `stamp`, the step of its last change.
    """

    def __init__(self):
        self.w: dict[int, dict[int, float]] = {}
        self.total: dict[int, dict[int, float]] = {}
        self.stamp: dict[int, dict[int, int]] = {}
        self.updates = 0

    def update(self, feats: list[int], good: int, bad: int) -> None:
        """Add +1 to (f, good), then -1 to (f, bad), for each f in order.
        Called after `updates` has been advanced to the current step."""
        prev = self.updates - 1
        deltas = ((good, 1.0), (bad, -1.0))
        for f in feats:
            w = self.w.get(f)
            if w is None:
                w = self.w[f] = {}
                total = self.total[f] = {}
                stamp = self.stamp[f] = {}
            else:
                total = self.total[f]
                stamp = self.stamp[f]
            for a, delta in deltas:
                cur = w.get(a, 0.0)
                total[a] = total.get(a, 0.0) + cur * (prev - stamp.get(a, 0))
                stamp[a] = prev
                w[a] = cur + delta

    def averaged(self) -> dict[int, dict[int, float]]:
        u = self.updates
        out: dict[int, dict[int, float]] = {}
        for f, w in self.w.items():
            total, stamp = self.total[f], self.stamp[f]
            row = {}
            for a, cur in w.items():
                avg = (total[a] + cur * (u - stamp[a])) / u if u else cur
                if avg != 0.0:
                    row[a] = avg
            if row:
                out[f] = row
        return out


def _argmax(scores: list[float], allowed: list[int]) -> int:
    best = allowed[0]
    for a in allowed[1:]:
        if scores[a] > scores[best]:
            best = a
    return best


def _allowed_indices(model: Model, kinds: Set[str]) -> list[int]:
    """Indices of the actions of the given kinds, in inventory order; one
    shared list per set of kinds, which callers must not change."""
    key = frozenset(kinds)
    allowed = model._allowed.get(key)
    if allowed is None:
        allowed = model._allowed[key] = [
            i for i, a in enumerate(model.actions) if a.kind in key
        ]
    return allowed


def train(
    train_set: list[Sentence],
    dev_set: list[Sentence] | None,
    hp: Hyperparameters,
    seed: int,
    memo: dict[str, int] | None = None,
) -> Model:
    """Train an arc-eager model; returns averaged weights (best dev-UAS epoch
    snapshot when a dev set is given). `memo` is a feature-hash memo to read
    and fill (a fresh one when None)."""
    if not train_set:
        raise ValueError("empty training set")
    if hp.epochs < 1:
        raise ValueError("epochs must be >= 1")
    labels = sorted({t.deprel for s in train_set for t in s.tokens})
    if not labels:
        raise ValueError("empty label inventory")
    acc = _AveragedWeights()
    # training scores the raw weights; the averaged ones replace them at the end
    model = Model(labels=labels, weights=acc.w)
    actions, index = model.actions, model._index
    if memo is None:
        memo = {}
    golds = [Gold(s) for s in train_set]
    rng = random.Random(seed)
    # a dev set without scorable tokens scores 0 every epoch: epoch 1 is kept
    dev_scorable = any(t.upos != "PUNCT" for s in dev_set or () for t in s.tokens)

    best_dev = -1.0
    best_weights: dict[int, dict[int, float]] | None = None
    order = list(range(len(train_set)))
    for epoch in range(1, hp.epochs + 1):
        rng.shuffle(order)
        for si in order:
            sent, gold = train_set[si], golds[si]
            c = initial_config(sent)
            lost = 0
            while c.b <= c.n:
                # the averaging clock ticks on every instance, updated or not,
                # so converged passes keep weighting the final weights in
                acc.updates += 1
                costs, oracle_actions = oracle_step(c, gold)
                feats = _hash_features(extract_features(c, sent), memo)
                allowed = _allowed_indices(model, costs.keys())
                scores = model.score(feats)
                pred_i = _argmax(scores, allowed)
                oracle_i = _argmax(scores, [index[a] for a in oracle_actions])
                if costs[actions[pred_i].kind] > 0 and oracle_i != pred_i:
                    acc.update(feats, oracle_i, pred_i)
                if epoch > hp.explore_k and rng.random() < hp.explore_p:
                    follow = actions[pred_i]
                else:
                    follow = actions[oracle_i]
                lost += costs[follow.kind]
                apply_action(c, follow)
            check_lost(c, gold.heads, lost)
        if dev_set:
            snapshot = acc.averaged()
            dev_uas = 0.0
            if dev_scorable:
                dev_model = Model(labels=labels, weights=snapshot)
                predicted = [parse(dev_model, s, memo) for s in dev_set]
                dev_uas = corpus_uas(dev_set, predicted)
            if dev_uas > best_dev:
                best_dev = dev_uas
                best_weights = snapshot
    model.weights = best_weights if best_weights is not None else acc.averaged()
    return model


def parse(model: Model, s: Sentence, memo: dict[str, int] | None = None) -> Sentence:
    """Greedy decoding. The output is always a valid single-rooted tree:
    at most one arc leaves the artificial root during decoding, and any
    token left headless is attached afterwards. `memo` is a feature-hash
    memo to read and fill (a fresh one when None)."""
    if memo is None:
        memo = {}
    c = initial_config(s)
    n = c.n
    while c.b <= n:
        kinds = valid_actions(c)
        # keep the output single-rooted: once the root has a child, block
        # further right-arcs from the root (SHIFT is always available here)
        if c.stack[-1] == 0 and c.rights[0]:
            kinds = kinds - {RIGHT_ARC} or kinds
        feats = _hash_features(extract_features(c, s), memo)
        allowed = _allowed_indices(model, kinds)
        scores = model.score(feats)
        apply_action(c, model.actions[_argmax(scores, allowed)])
    # tokens left headless become roots; every root but the first child of
    # the artificial root (or the first root) then hangs from that one
    heads = [0 if h is None else h for h in c.head]
    deprels = ["root" if h is None else l for h, l in zip(c.head, c.label)]
    root_kids = c.rights[0]
    roots = [d for d in range(1, n + 1) if heads[d] == 0]
    primary = root_kids[0] if root_kids else roots[0]
    for d in roots:
        if d != primary:
            heads[d] = primary
            deprels[d] = "root"
    out = s.with_arcs(heads, deprels)
    report = validate_tree(out)
    if not report.ok:
        raise RuntimeError("decoding produced an invalid tree: %s" % (report.violations,))
    return out


_MODEL_HEADER = "# udscheme-model v1"


def _action_name(a: Action) -> str:
    """How a model file names an action: its kind, then `:label` if any."""
    return a.kind if a.label is None else a.kind + ":" + a.label


def _check_labels(labels: list[str]) -> None:
    """Raise ValueError unless a model file's labels line can hold `labels`."""
    if not labels:
        raise ValueError("no labels")
    for i, label in enumerate(labels):
        # the labels line is comma-separated and the file is read line by line
        if not label or "," in label or "\t" in label or label.splitlines() != [label]:
            raise ValueError("label %r cannot be stored in a model file" % label)
        if label in labels[:i]:  # its actions would share a name in the file
            raise ValueError("label %r is listed twice" % label)


def save_model(model: Model, path: str) -> None:
    _check_labels(model.labels)
    lines = [_MODEL_HEADER, "labels\t" + ",".join(model.labels)]
    entries = []
    for f, row in model.weights.items():
        for a, w in row.items():
            entries.append((f, _action_name(model.actions[a]), w))
    entries.sort()
    lines += ["%d\t%s\t%r" % e for e in entries]
    write_atomic(path, "\n".join(lines) + "\n")


def load_model(path: str) -> Model:
    """Read a model written by `save_model`; a malformed file raises
    ValueError naming `path:line`."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _MODEL_HEADER:
        raise ValueError("%s:1: not a udscheme model file" % path)
    if len(lines) < 2 or not lines[1].startswith("labels\t"):
        raise ValueError("%s:2: missing labels line" % path)
    labels = lines[1][len("labels\t"):].split(",")
    try:
        _check_labels(labels)
    except ValueError as e:
        raise ValueError("%s:2: %s" % (path, e)) from None
    model = Model(labels=labels)
    index = {_action_name(a): i for i, a in enumerate(model.actions)}
    for lineno, line in enumerate(lines[2:], start=3):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(
                "%s:%d: expected 3 tab-separated fields, got %d" % (path, lineno, len(fields))
            )
        f, name, w = fields
        a = index.get(name)
        if a is None:
            raise ValueError("%s:%d: unknown action %r" % (path, lineno, name))
        try:
            model.weights.setdefault(int(f), {})[a] = float(w)
        except ValueError as e:
            raise ValueError("%s:%d: %s" % (path, lineno, e)) from None
    return model
