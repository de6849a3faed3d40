"""Averaged perceptron for greedy arc-eager parsing.

Models are keyed by feature string on every path: the raw weights, their
averaging sums, each epoch's averaged snapshot, the model `train()` returns,
a model file and `parse()` all map a feature string to its row, as
`extract_features` builds it.

Training follows the dynamic-oracle recipe: predict with the current weights,
update toward the best zero-cost action whenever the prediction has non-zero
cost, and after the first `explore_k` epochs follow the model's own
prediction with probability `explore_p`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..conllu import Sentence, read_text, validate_tree, write_atomic
from ..evaluate import corpus_uas, is_scored
from .features import extract_features
from .transitions import (
    Action,
    Gold,
    LEFT_ARC,
    REDUCE,
    RIGHT_ARC,
    SHIFT,
    STEP_KINDS,
    apply_action,
    check_lost,
    initial_config,
    oracle_step,
    valid_actions,
)

# what parse() allows with the artificial root on top of the stack once it has
# its one child (the buffer is non-empty in a step, so SHIFT is valid there)
_SHIFT_ONLY = frozenset({SHIFT})

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


# Like `conllu.is_projective`, fnv1a64 has no caller in udscheme, whose models
# are keyed by string; it is kept only because the benchmark's tracer
# (perfbench/tracing.py TARGETS) and its self-tests name it.
def fnv1a64(s: str) -> int:
    """Stable 64-bit string hash (independent of PYTHONHASHSEED)."""
    h = _FNV_OFFSET
    for b in s.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


@dataclass(frozen=True)
class Hyperparameters:
    """Training settings, checked against their bounds when they are made:
    an out-of-range value raises ValueError `<name>: <bound>`, and the
    config loader puts `[parser]` in front."""

    epochs: int = 10
    explore_k: int = 1
    explore_p: float = 0.9

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs: must be at least 1")
        if self.explore_k < 0:
            raise ValueError("explore_k: must be at least 0")
        if not 0 <= self.explore_p <= 1:  # nan included
            raise ValueError("explore_p: must be between 0 and 1")


@dataclass
class Model:
    labels: list[str]
    # feature string -> {action index -> weight}: averaged once trained, raw
    # while training
    weights: dict[str, dict[int, float]] = field(default_factory=dict)

    def __post_init__(self):
        self.actions = _action_inventory(self.labels)
        self._index = {a: i for i, a in enumerate(self.actions)}
        # each set of kinds a step chooses from -> the indices of its actions,
        # in inventory order; shared lists, which callers must not change
        self.allowed: dict[frozenset[str], list[int]] = {
            kinds: [i for i, a in enumerate(self.actions) if a.kind in kinds]
            for kinds in (*STEP_KINDS, _SHIFT_ONLY)
        }

    def score(self, feats: list[str]) -> list[float]:
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

    Each map is feature -> {action index -> value}. `w` holds the raw
    weights, the rows `Model.score` reads during training; an entry that
    returns to 0.0 is deleted, and so is a row left empty. `acc` holds, for
    every entry ever changed, the sum of each change times the number of
    steps before the one it was made in, so the average over `updates` steps
    is `(w * updates - acc) / updates`. Raw weights are sums of +-1.0 and
    steps are integers, so the numerator is the exact sum of the weight over
    all steps, an integer in a float, and the average its rounded quotient.
    """

    def __init__(self):
        self.w: dict[str, dict[int, float]] = {}
        self.acc: dict[str, dict[int, float]] = {}
        self.updates = 0

    def update(self, feats: list[str], good: int, bad: int) -> None:
        """Add +1 to (f, good), then -1 to (f, bad), for each f in order.
        Called after `updates` has been advanced to the current step."""
        step = self.updates - 1  # the new weight counts from the current step on
        raw, acc = self.w, self.acc
        deltas = ((good, 1.0), (bad, -1.0))
        for f in feats:
            w = raw.get(f)
            if w is None:
                w = raw[f] = {}
            sums = acc.get(f)
            if sums is None:
                sums = acc[f] = {}
            for a, delta in deltas:
                cur = w.get(a, 0.0) + delta
                if cur:
                    w[a] = cur
                else:
                    del w[a]
                sums[a] = sums.get(a, 0.0) + delta * step
            if not w:
                del raw[f]

    def averaged(self) -> dict[str, dict[int, float]]:
        """The averaged weights without zero entries or empty rows, rows and
        entries in the order they were first changed."""
        u = self.updates
        out: dict[str, dict[int, float]] = {}
        empty: dict[int, float] = {}
        for f, sums in self.acc.items():
            w = self.w.get(f, empty)
            row = {}
            for a, s in sums.items():
                avg = (w.get(a, 0.0) * u - s) / u
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


def train(
    train_set: list[Sentence],
    dev_set: list[Sentence] | None,
    hp: Hyperparameters,
    seed: int,
) -> Model:
    """Train an arc-eager model; returns averaged weights (best dev-UAS epoch
    snapshot when a dev set is given)."""
    if not train_set:
        raise ValueError("empty training set")
    labels = sorted({t.deprel for s in train_set for t in s.tokens})
    if not labels:
        raise ValueError("empty label inventory")
    acc = _AveragedWeights()
    # training scores the raw weights; the averaged ones replace them at the end
    model = Model(labels=labels, weights=acc.w)
    actions, index = model.actions, model._index
    golds = [Gold(s) for s in train_set]
    rng = random.Random(seed)
    # a dev set without scorable tokens scores 0 every epoch: epoch 1 is kept
    dev_scorable = any(is_scored(t) for s in dev_set or () for t in s.tokens)

    best_dev = -1.0
    best_weights: dict[str, dict[int, float]] | None = None
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
                feats = extract_features(c, sent)
                allowed = model.allowed[valid_actions(c)]
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
                predicted = [parse(dev_model, s) for s in dev_set]
                dev_uas = corpus_uas(dev_set, predicted)
            if dev_uas > best_dev:
                best_dev = dev_uas
                best_weights = snapshot
    if best_weights is None:
        best_weights = acc.averaged()
    return Model(labels=labels, weights=best_weights)


def parse(model: Model, s: Sentence) -> Sentence:
    """Greedy decoding. The output is always a valid single-rooted tree:
    at most one arc leaves the artificial root during decoding, and any
    token left headless is attached afterwards."""
    c = initial_config(s)
    n = c.n
    while c.b <= n:
        # keep the output single-rooted: no second RIGHT_ARC from the root
        if c.stack[-1] == 0 and c.rights[0]:
            allowed = model.allowed[_SHIFT_ONLY]
        else:
            allowed = model.allowed[valid_actions(c)]
        scores = model.score(extract_features(c, s))
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


_MODEL_HEADER = "# udscheme-model v2"
# the format before v2, keyed by 64-bit feature hashes: refused, not read
_V1_HEADER = "# udscheme-model v1"
_ENTRIES = "entries\t"


def _action_name(a: Action) -> str:
    """How a model file names an action: its kind, then `:label` if any."""
    return a.kind if a.label is None else a.kind + ":" + a.label


def _storable(field: str) -> bool:
    """Whether a tab-separated field of a model file can hold `field`: the
    file is split into lines at each newline, and `read_text` reads a
    carriage return as one."""
    return not ("\t" in field or "\n" in field or "\r" in field)


def _check_labels(labels: list[str]) -> None:
    """Raise ValueError unless a model file's labels line can hold `labels`."""
    if not labels:
        raise ValueError("no labels")
    for i, label in enumerate(labels):
        # the labels line is comma-separated
        if not label or "," in label or not _storable(label):
            raise ValueError("label %r cannot be stored in a model file" % label)
        if label in labels[:i]:  # its actions would share a name in the file
            raise ValueError("label %r is listed twice" % label)


def save_model(model: Model, path: str) -> None:
    """Write a v2 model file: the header, the labels line, the number of
    entries, then one `feature<TAB>action<TAB>weight` line per entry, sorted.
    A label or feature the file cannot hold raises ValueError."""
    _check_labels(model.labels)
    entries = []
    for f, row in model.weights.items():
        if not _storable(f):
            raise ValueError("feature %r cannot be stored in a model file" % f)
        for a, w in row.items():
            entries.append((f, _action_name(model.actions[a]), w))
    entries.sort()
    lines = [_MODEL_HEADER, "labels\t" + ",".join(model.labels), _ENTRIES + str(len(entries))]
    lines += ["%s\t%s\t%r" % e for e in entries]
    write_atomic(path, "\n".join(lines) + "\n")


def load_model(path: str) -> Model:
    """Read a model written by `save_model`. A malformed file, a v1 file, a
    file cut short (its last line break, or entries it counts, missing), or
    one with an entry `save_model` never writes (a weight that is not finite,
    a (feature, action) pair given twice) raises ValueError naming
    `path:line`."""
    # split as parse_conllu splits, so a feature keeps any other line break a
    # CoNLL-U field can hold (U+2028, U+0085, \x0c)
    lines = read_text(path).split("\n")
    if lines[0] == _V1_HEADER:
        raise ValueError("%s:1: a v1 model file (keyed by feature hash) is not "
                         "read; train the model again" % path)
    if lines[0] != _MODEL_HEADER:
        raise ValueError("%s:1: not a udscheme model file" % path)
    if lines.pop() != "":
        raise ValueError("%s:%d: no line break at the end of the file" % (path, len(lines) + 1))
    if len(lines) < 2 or not lines[1].startswith("labels\t"):
        raise ValueError("%s:2: missing labels line" % path)
    labels = lines[1][len("labels\t"):].split(",")
    try:
        _check_labels(labels)
    except ValueError as e:
        raise ValueError("%s:2: %s" % (path, e)) from None
    count = lines[2][len(_ENTRIES):] if len(lines) > 2 and lines[2].startswith(_ENTRIES) else ""
    if not (count.isascii() and count.isdigit()):
        raise ValueError("%s:3: missing entries line" % path)
    if int(count) != len(lines) - 3:
        message = "%d entries counted, %d given" % (int(count), len(lines) - 3)
        raise ValueError("%s:3: %s" % (path, message))
    model = Model(labels=labels)
    index = {_action_name(a): i for i, a in enumerate(model.actions)}
    for lineno, line in enumerate(lines[3:], start=4):
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
            w = float(w)
        except ValueError as e:
            raise ValueError("%s:%d: %s" % (path, lineno, e)) from None
        if not math.isfinite(w):
            raise ValueError("%s:%d: weight %r is not finite" % (path, lineno, w))
        row = model.weights.setdefault(f, {})
        if a in row:
            message = "feature %r, action %s is given twice" % (f, name)
            raise ValueError("%s:%d: %s" % (path, lineno, message))
        row[a] = w
    return model
