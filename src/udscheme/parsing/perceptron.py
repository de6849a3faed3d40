"""Averaged perceptron for greedy arc-eager parsing.

Models are keyed by feature string on every path: the raw weights, their
averaging sums, each epoch's averaged snapshot, the model `train()` returns,
a model file and `parse()` all map a feature string to its row, as
`extract_features` builds it.

Training follows the dynamic-oracle recipe: predict with the current weights,
update toward the best zero-cost action whenever the prediction has non-zero
cost, and after the first `explore_k` epochs follow the model's own
prediction with probability `explore_p`.

Training works in integers. A raw weight w is a sum of +-1 updates, and its
average over u steps is the exact rational N/u, whose numerator N = w*u - S
is the sum of the weight over all u steps; S sums each change times the
number of steps before the one it was made in. A feature's raw weights, its
averaging sums and its numerators are each one int, packed by one `_Layout`
with one signed field per action. `field_bits` gives its width: 32 bits
where it proves that no numerator, raw weight or training score of the run
can leave that range, and 64 elsewhere. A training score is then one
`sum()` of the hit rows, an update two int additions per feature, and an
epoch's snapshot one `w*u - S` per feature.

Every model decodes by one decoder, `Model.decoder`, whose `choose(feats,
allowed)` picks each step's action; every choice equals `_argmax` over
`Model.score`, the float reference, which sums a model's float rows in
feature order. There are two decoders.

- `_Averaged`, the snapshot `train()` returns (and each epoch's dev model),
  while every numerator is below the layout's `bound`: it sums its packed
  numerators and takes the argmax on the integers. Below the bound, two
  integer sums of at most TEMPLATES numerators that differ keep their order
  as the float sums of the rows N/u; actions whose integer sums tie at the
  top are scored in floats, summed in feature order as `Model.score` sums
  them.
- `_FixedPoint`, for float rows: a model read by `load_model`, given rows
  through `Model.weights`, or trained to a snapshot with a numerator at or
  above the bound. It rounds every weight once to a multiple of 2^-F, where
  F = 24 - e and 2^e exceeds the largest |w|, and packs the multiples into
  32-bit fields; a step is one `sum()` of the hit rows. Rounding moves a sum
  of at most TEMPLATES weights by at most TEMPLATES/2 units of 2^-F, and
  `Model.score` adds them with an error of at most TEMPLATES^2 * 2^(F-53) *
  max|w| units (each of its at most TEMPLATES - 1 additions is rounded once;
  Higham, *Accuracy and Stability of Numerical Algorithms*, 4.2). An
  action's integer sum is thus within the sum of the two bounds of its
  float score, so the integer sum of the action the floats rank first is
  within twice that, the `slack`, of the top integer sum. When only one
  action is that close to the top it is the float argmax; otherwise
  `Model.score` decides among the close ones, in `allowed` order, so the
  choice is still the first highest float score.

The float rows, (action, N/u) pairs sorted by action, are built the first
time they are read: by `save_model`, through `Model.weights`, or for a
`_FixedPoint`.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from dataclasses import dataclass

from ..conllu import Sentence, read_text, validate_tree, write_atomic
from ..evaluate import corpus_uas, is_scored
from .features import TEMPLATES, extract_features, sentence_atoms
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

# The largest power of two B with 2 * TEMPLATES^2 * B < 2^53: 2^39 for the 70
# templates. A float score adds at most TEMPLATES weights N/u, each rounded
# once, with as many roundings of the running sum; with every |N| <= B its
# error is at most about TEMPLATES^2 * B * 2^-53 / u, which is below 0.3/u for
# the 70 templates. Two integer sums that differ do so by at least 1/u once
# divided, so the float sums of two scores keep the order of their integers.
_FLOAT_BOUND = 1 << (53 - (2 * TEMPLATES * TEMPLATES).bit_length())


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


def field_bits(templates: int, epochs: int, tokens: int) -> int:
    """The width of a training run's packed fields, where `steps = 2 x
    epochs x tokens`: 32 bits when `max(templates, steps) x steps` is below
    2^31, 64 when below 2^63. A longer run raises ValueError.

    A sentence of n tokens takes at most 2n steps and a step changes an entry
    by at most 1, so `steps` bounds every raw weight, `templates x steps`
    every field of a training score (one row per template), and `steps^2`
    every numerator, the sum of a weight over at most `steps` steps.
    """
    steps = 2 * epochs * tokens
    bound = max(templates, steps) * steps
    for bits in (32, 64):
        if bound < 1 << (bits - 1):
            return bits
    raise ValueError("%d training steps are too many for 64-bit fields" % steps)


class _Layout:
    """Rows of per-action integers, each packed into one int: the value of
    action a is the signed `bits`-wide field at bit `bits * a`. Packing is
    linear, so adding packed rows adds their values field by field and
    multiplying one by an int scales them; a result reads back exactly while
    each of its fields is within +-`half`, which `field_bits` proves for the
    rows a training makes and `bound` keeps for a decoder's sums."""

    def __init__(self, actions: int, bits: int):
        self.half = 1 << (bits - 1)
        self.unit = [1 << (bits * a) for a in range(actions)]
        ones = sum(self.unit)
        self._bias = self.half * ones  # `half` in every field
        self._nbytes = bits // 8 * actions
        self._typecode = next(c for c in "ILQ" if array(c).itemsize == bits // 8)
        # TEMPLATES numerators below `bound` sum to less than `half`, and the
        # floats of their rows keep the order of their integer sums
        self.bound = min(_FLOAT_BOUND, self.half >> TEMPLATES.bit_length())
        self._bound_bias = self.bound * ones
        # the bits of each field from 2 * bound up
        self._outside = ((1 << bits) - 2 * self.bound) * ones

    def fields(self, packed: int) -> array:
        """Each action's value in `packed`, plus `half`: the same order and
        ties as the values themselves."""
        return array(self._typecode, (packed + self._bias).to_bytes(self._nbytes, sys.byteorder))

    def score(self, rows: dict[str, int], feats) -> array:
        """`fields` of the rows of `feats` summed."""
        return self.fields(sum(filter(None, map(rows.get, feats))))

    def within_bound(self, rows) -> bool:
        """Whether every field of each packed row is in [-bound, bound). A
        field within +-`half` is, iff adding `bound` to it leaves it below
        2 * bound: a field outside that range, or a borrow from one below,
        sets a bit of `_outside`."""
        shifted = map(self._bound_bias.__add__, rows)
        return not any(map(self._outside.__and__, shifted))


class _Averaged:
    """An averaged snapshot of `_AveragedWeights`: `rows` maps a feature to
    its packed numerators, in the order the feature was first changed, with
    rows of zeros left out; an entry's weight is its numerator over
    `updates`. `exact` says whether every numerator is below the layout's
    bound, so that `choose` may decode by them."""

    __slots__ = ("rows", "updates", "layout", "exact")

    def __init__(self, rows: dict[str, int], updates: int, layout: _Layout):
        self.rows = rows
        self.updates = updates
        self.layout = layout
        self.exact = layout.within_bound(rows.values())

    def float_rows(self) -> dict[str, tuple[tuple[int, float], ...]]:
        """The averaged weights as `Model` rows: (action, N/u) pairs, sorted
        by action and correctly rounded, without zero entries."""
        u, half, fields = self.updates, self.layout.half, self.layout.fields
        return {
            f: tuple((a, (v - half) / u) for a, v in enumerate(fields(p)) if v != half)
            for f, p in self.rows.items()
        }

    def choose(self, feats: list[str], allowed: list[int]) -> int:
        """What `_argmax` picks from `allowed` on `Model.score(feats)` over
        the float rows; only for an `exact` snapshot."""
        scores = self.layout.score(self.rows, feats)
        sums = [scores[a] for a in allowed]
        top = max(sums)
        if sums.count(top) == 1:
            return allowed[sums.index(top)]
        return self._float_choice(feats, [a for a, v in zip(allowed, sums) if v == top])

    def _float_choice(self, feats: list[str], tied: list[int]) -> int:
        """The first of `tied` (actions whose integer sums tie at the top)
        whose float sum is highest, summed in feature order."""
        u, half = self.updates, self.layout.half
        sums = dict.fromkeys(tied, 0.0)
        for f in feats:
            if f in self.rows:
                row = self.layout.fields(self.rows[f])
                for a in tied:
                    if row[a] != half:
                        sums[a] += (row[a] - half) / u
        return max(tied, key=sums.__getitem__)


class _FixedPoint:
    """Float rows rounded once to integers, for decoding: `rows` maps a
    feature to round(w * 2^F) of each entry, packed into 32-bit fields, with
    rows that round to 0 left out. An action whose integer sum is within
    `slack` of the top is a candidate (see the module docstring); rows this
    bound does not cover (a weight not finite, or one so large that a float
    score may overflow) are all left out, so that every action is one."""

    __slots__ = ("model", "rows", "layout", "slack")

    def __init__(self, model: Model):
        self.model = model
        # TEMPLATES values of at most 2^24 each sum to less than `half`
        self.layout = _Layout(len(model.actions), 32)
        weights = [w for row in model.weights.values() for _, w in row]
        wmax = max(map(abs, weights), default=0.0)
        # no partial sum of TEMPLATES weights below 2^(1024 - 7) overflows
        if wmax < 2.0 ** (1024 - TEMPLATES.bit_length()) and all(map(math.isfinite, weights)):
            scale = 24 - math.frexp(wmax)[1]  # F: every |w| * 2^F is below 2^24
            unit = self.layout.unit
            self.rows = {}
            for f, row in model.weights.items():
                packed = sum(round(math.ldexp(w, scale)) * unit[a] for a, w in row)
                if packed:
                    self.rows[f] = packed
            error = math.ceil(TEMPLATES * TEMPLATES * math.ldexp(wmax, scale - 53))
            self.slack = 2 * ((TEMPLATES + 1) // 2 + error)
        else:
            self.rows = {}
            self.slack = self.layout.half  # above any difference of two sums of 0

    def choose(self, feats: list[str], allowed: list[int]) -> int:
        """What `_argmax` picks from `allowed` on `Model.score(feats)`."""
        scores = self.layout.score(self.rows, feats)
        sums = [scores[a] for a in allowed]
        ranked = sorted(sums)
        top = ranked[-1]
        if len(ranked) == 1 or ranked[-2] < top - self.slack:
            return allowed[sums.index(top)]
        floor = top - self.slack
        near = [a for a, v in zip(allowed, sums) if v >= floor]
        floats = self.model.score(feats)
        return max(near, key=floats.__getitem__)


class _AveragedWeights:
    """Perceptron weights with lazy averaging over update steps. `w` maps a
    feature to its raw weights, sums of +-1 updates packed by `layout`, and
    a feature whose row is back at 0 is deleted. `acc` maps every feature
    ever changed, in the order it was first changed, to its averaging sums S
    packed by `layout` too: each change times the number of steps before the
    one it was made in. Over `updates` steps an entry's average is then
    N/updates, with the numerator N = w * updates - S, the sum of the weight
    over all steps."""

    def __init__(self, actions: int, bits: int):
        self.layout = _Layout(actions, bits)
        self.w: dict[str, int] = {}
        self.acc: dict[str, int] = {}
        self.updates = 0

    def score(self, feats: list[str]) -> array:
        """Each action's summed raw weight plus `half`: the same order and
        ties as the weights themselves."""
        return self.layout.score(self.w, feats)

    def update(self, feats: list[str], good: int, bad: int) -> None:
        """Add +1 to (f, good) and -1 to (f, bad) for each f. Called after
        `updates` has been advanced to the current step."""
        step = self.updates - 1  # the new weight counts from the current step on
        raw, acc = self.w, self.acc
        delta = self.layout.unit[good] - self.layout.unit[bad]
        change = delta * step
        for f in feats:
            cur = raw.get(f, 0) + delta
            if cur:
                raw[f] = cur
            else:
                raw.pop(f, None)
            acc[f] = acc.get(f, 0) + change

    def averaged(self) -> _Averaged:
        """The averaged weights now: one numerator row per feature."""
        u, raw = self.updates, self.w
        rows = {f: n for f, s in self.acc.items() if (n := raw.get(f, 0) * u - s)}
        return _Averaged(rows, u, self.layout)


class Model:
    """A parser's labels, the actions they give, and its averaged weights.

    `weights` maps a feature string to its (action index, weight) pairs
    sorted by action, and `score` sums them in floats: the reference every
    decoder's choices equal. `index` maps each action to its index in
    `actions`. A model made from an `_Averaged` snapshot, as `train()` makes
    it, builds those float rows the first time they are read. `decoder` is
    what `parse()` chooses by (see the module docstring): the snapshot when
    it is exact, or else a `_FixedPoint` of the float rows, made the first
    time it is read. Setting `weights` drops both; the rows are read when
    the decoder is made, so replace them rather than change them in place.
    """

    def __init__(
        self,
        labels: list[str],
        weights: dict[str, tuple[tuple[int, float], ...]] | None = None,
        averaged: _Averaged | None = None,
    ):
        self.labels = labels
        self._averaged = averaged
        self._decoder = averaged if averaged is not None and averaged.exact else None
        self._weights = {} if weights is None and averaged is None else weights
        self.actions = _action_inventory(labels)
        self.index = {a: i for i, a in enumerate(self.actions)}
        # each set of kinds a step chooses from -> the indices of its actions,
        # in inventory order; shared lists, which callers must not change
        self.allowed: dict[frozenset[str], list[int]] = {
            kinds: [i for i, a in enumerate(self.actions) if a.kind in kinds]
            for kinds in (*STEP_KINDS, _SHIFT_ONLY)
        }

    @property
    def weights(self) -> dict[str, tuple[tuple[int, float], ...]]:
        if self._weights is None:
            self._weights = self._averaged.float_rows()
        return self._weights

    @weights.setter
    def weights(self, rows: dict[str, tuple[tuple[int, float], ...]]) -> None:
        self._weights = rows
        self._averaged = self._decoder = None

    @property
    def decoder(self) -> _Averaged | _FixedPoint:
        if self._decoder is None:
            self._decoder = _FixedPoint(self)
        return self._decoder

    def score(self, feats: list[str]) -> list[float]:
        """Each action's summed weight, added in feature order."""
        scores = [0.0] * len(self.actions)
        for row in filter(None, map(self.weights.get, feats)):
            for a, w in row:
                scores[a] += w
        return scores


def _action_inventory(labels: list[str]) -> list[Action]:
    """All actions in deterministic tie-break order:
    SHIFT < REDUCE < LEFT_ARC(label) < RIGHT_ARC(label), labels sorted."""
    acts = [Action(SHIFT), Action(REDUCE)]
    acts += [Action(LEFT_ARC, l) for l in sorted(labels)]
    acts += [Action(RIGHT_ARC, l) for l in sorted(labels)]
    return acts


def _argmax(scores: list[float], allowed: list[int]) -> int:
    """The first action of `allowed` whose score is highest."""
    return max(allowed, key=scores.__getitem__)


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
    # training scores the raw weights in `acc`; `model` gives the actions
    model = Model(labels=labels)
    actions, index = model.actions, model.index
    tokens = sum(len(s.tokens) for s in train_set)
    acc = _AveragedWeights(len(actions), field_bits(TEMPLATES, hp.epochs, tokens))
    golds = [Gold(s) for s in train_set]
    atoms = [sentence_atoms(s) for s in train_set]
    rng = random.Random(seed)
    # a dev set without scorable tokens scores 0 every epoch: epoch 1 is kept
    dev_scorable = any(is_scored(t) for s in dev_set or () for t in s.tokens)

    best_dev = -1.0
    best: _Averaged | None = None
    order = list(range(len(train_set)))
    for epoch in range(1, hp.epochs + 1):
        rng.shuffle(order)
        for si in order:
            gold, (words, tags) = golds[si], atoms[si]
            c = initial_config(train_set[si])
            lost = 0
            while c.b <= c.n:
                # the averaging clock ticks on every instance, updated or not,
                # so converged passes keep weighting the final weights in
                acc.updates += 1
                costs, oracle_actions = oracle_step(c, gold)
                feats = extract_features(c, words, tags)
                kinds = valid_actions(c)
                scores = acc.score(feats)
                pred_i = _argmax(scores, model.allowed[kinds])
                oracle_i = _argmax(scores, [index[a] for a in oracle_actions])
                if costs[actions[pred_i].kind] > 0 and oracle_i != pred_i:
                    acc.update(feats, oracle_i, pred_i)
                if epoch > hp.explore_k and rng.random() < hp.explore_p:
                    follow = actions[pred_i]
                else:
                    follow = actions[oracle_i]
                lost += costs[follow.kind]
                apply_action(c, follow, kinds)
            check_lost(c, gold.heads, lost)
        if dev_set:
            snapshot = acc.averaged()
            dev_uas = 0.0
            if dev_scorable:
                dev_model = Model(labels, averaged=snapshot)
                predicted = [parse(dev_model, s) for s in dev_set]
                dev_uas = corpus_uas(dev_set, predicted)
            if dev_uas > best_dev:
                best_dev = dev_uas
                best = snapshot
    if best is None:
        best = acc.averaged()
    return Model(labels, averaged=best)


def parse(model: Model, s: Sentence) -> Sentence:
    """Greedy decoding. The output is always a valid single-rooted tree:
    at most one arc leaves the artificial root during decoding, and any
    token left headless is attached afterwards."""
    c = initial_config(s)
    n = c.n
    words, tags = sentence_atoms(s)
    choose = model.decoder.choose
    while c.b <= n:
        # keep the output single-rooted: no second RIGHT_ARC from the root
        if c.stack[-1] == 0 and c.rights[0]:
            kinds = _SHIFT_ONLY
        else:
            kinds = valid_actions(c)
        best = choose(extract_features(c, words, tags), model.allowed[kinds])
        apply_action(c, model.actions[best], kinds)
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
        for a, w in row:
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
    rows: dict[str, dict[int, float]] = {}
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
        row = rows.setdefault(f, {})
        if a in row:
            message = "feature %r, action %s is given twice" % (f, name)
            raise ValueError("%s:%d: %s" % (path, lineno, message))
        row[a] = w
    model.weights = {f: tuple(sorted(row.items())) for f, row in rows.items()}
    model.decoder  # rounded to fixed point here, not in the first parse
    return model
