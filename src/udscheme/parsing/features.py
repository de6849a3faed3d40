"""Rich feature templates over an arc-eager configuration, as one table.

The Zhang & Nivre (2011) templates read 12 positions: the stack top S0, the
buffer items N0, N1, N2, S0's head S0h and grandhead S0h2, S0's two leftmost
and two rightmost children S0l, S0l2, S0r, S0r2, and N0's two leftmost
children N0l, N0l2. Each call computes 39 atom values once: each position's
word (`w`) and POS (`p`), the label (`l`) of the arc by which each head or
child position is reached, the S0-N0 distance `d` (capped at 10), the
valences (`vl`, `vr`) and the label sets (`sl`, `sr`). An absent position
gives a null value, so every configuration has one feature per template.

`_TABLE` writes each template once, as its atoms. A feature is the
template's name, `=`, and its atom values joined by `|`. The name comes from
the atoms: a position is written once for each run of atoms on it, so
`S0w S0p N0w` is named `S0wpN0w` and `S0w d` is `S0wd`. At import, the
table is compiled into one generated function of the 39 atom values that
builds all 70 features as f-strings (`f"S0wpN0w={S0w}|{S0p}|{N0w}"`).
"""

from __future__ import annotations

from ..conllu import Sentence
from .transitions import Configuration

NULL = "<NULL>"
ROOT_WORD = "<ROOT>"
ROOT_POS = "<ROOT>"

_HEADS_AND_KIDS = ("S0h", "S0h2", "S0l", "S0l2", "S0r", "S0r2", "N0l", "N0l2")

# every atom as (position, suffix), in the order extract_features computes them
_ATOMS = (
    [(p, x) for p in ("S0", "N0", "N1", "N2") + _HEADS_AND_KIDS for x in "wp"]
    + [(p, "l") for p in _HEADS_AND_KIDS]
    + [("", "d"), ("S0", "vl"), ("S0", "vr"), ("N0", "vl")]
    + [("S0", "sl"), ("S0", "sr"), ("N0", "sl")]
)

# the templates in feature order, comma-separated, each as its atoms; in groups:
# unigrams, word pairs, triples, distance, valence, head and child unigrams,
# third order, label sets
_TABLE = """
    S0w, S0p, S0w S0p, N0w, N0p, N0w N0p, N1w, N1p, N2w, N2p,
    S0w S0p N0w N0p, S0w S0p N0w, S0w N0w N0p, S0w S0p N0p, S0p N0w N0p, S0w N0w,
    S0p N0p, N0p N1p,
    N0p N1p N2p, S0p N0p N1p, S0hp S0p N0p, S0p S0lp N0p, S0p S0rp N0p, S0p N0p N0lp,
    S0w d, S0p d, N0w d, N0p d, S0w N0w d, S0p N0p d,
    S0w S0vl, S0p S0vl, S0w S0vr, S0p S0vr, N0w N0vl, N0p N0vl,
    S0hw, S0hp, S0hl, S0lw, S0lp, S0ll, S0rw, S0rp, S0rl, N0lw, N0lp, N0ll,
    S0h2w, S0h2p, S0h2l, S0l2w, S0l2p, S0l2l, S0r2w, S0r2p, S0r2l, N0l2w, N0l2p, N0l2l,
    S0p S0lp S0l2p, S0p S0rp S0r2p, S0p S0hp S0h2p, N0p N0lp N0l2p,
    S0w S0sl, S0p S0sl, S0w S0sr, S0p S0sr, N0w N0sl, N0p N0sl
"""


def _compile():
    """`_TABLE` as one function of the atom values, in `_ATOMS` order, that
    returns the features as a list of f-strings, generated once."""
    index = {p + x: (p, x) for p, x in _ATOMS}
    features = []
    for template in _TABLE.split(","):
        atoms = template.split()
        name, last = "", None
        for p, x in map(index.__getitem__, atoms):
            name += x if p == last else p + x
            last = p
        features.append('f"%s=%s"' % (name, "|".join("{%s}" % a for a in atoms)))
    source = "def features(%s):\n    return [%s]\n" % (", ".join(index), ", ".join(features))
    namespace: dict = {}
    exec(source, namespace)
    return namespace["features"]


_features = _compile()
TEMPLATES = len(_TABLE.split(","))  # features per configuration


def sentence_atoms(s: Sentence) -> tuple[list[str], list[str]]:
    """The word and the POS atom of each position, by position: the root,
    tokens 1..n, then NULL three times, so a buffer position past the end
    (up to n + 3) and an absent position, given as -1, read NULL. Built once
    per sentence, for every `extract_features` call on it."""
    words = [ROOT_WORD, *[t.form for t in s.tokens], NULL, NULL, NULL]
    tags = [ROOT_POS, *[t.upos for t in s.tokens], NULL, NULL, NULL]
    return words, tags


def extract_features(c: Configuration, words: list[str], tags: list[str]) -> list[str]:
    """The 70 features of `c`, over the atom lists `sentence_atoms` built for
    its sentence."""
    head, label, lefts = c.head, c.label, c.lefts
    s0 = c.stack[-1]
    b = c.b
    # S0h is reached by S0's arc, S0h2 by S0h's; the root has no head
    s0h = head[s0]
    if s0h is None:
        s0h = s0h2 = -1
        s0hl = s0h2l = NULL
    else:
        s0hl = label[s0]
        s0h2 = head[s0h]
        if s0h2 is None:
            s0h2, s0h2l = -1, NULL
        else:
            s0h2l = label[s0h]
    s0_left, s0_right = lefts[s0], c.rights[s0]
    if b <= c.n:
        n0_left = lefts[b]
        d = min(b - s0, 10)  # ints: an f-string writes str(int)
    else:
        n0_left, d = (), NULL
    # S0l, S0l2, S0r, S0r2, N0l, N0l2: outermost first, -1 where absent
    kids = (*s0_left[:2], -1, -1)[:2] + (*s0_right[:-3:-1], -1, -1)[:2]
    kids += (*n0_left[:2], -1, -1)[:2]
    s0l, s0l2, s0r, s0r2, n0l, n0l2 = kids
    atoms = [
        words[s0], tags[s0], words[b], tags[b], words[b + 1], tags[b + 1],
        words[b + 2], tags[b + 2], words[s0h], tags[s0h], words[s0h2], tags[s0h2],
        words[s0l], tags[s0l], words[s0l2], tags[s0l2], words[s0r], tags[s0r],
        words[s0r2], tags[s0r2], words[n0l], tags[n0l], words[n0l2], tags[n0l2],
        s0hl, s0h2l,
    ]
    atoms += [NULL if k < 0 else label[k] for k in kids]
    atoms += (d, len(s0_left), len(s0_right), len(n0_left))
    for deps in (s0_left, s0_right, n0_left):
        if len(deps) > 1:
            atoms.append("|".join(sorted({label[k] for k in deps})) or NULL)
        else:  # no dependent or one: no set to build
            atoms.append(label[deps[0]] or NULL if deps else NULL)
    return _features(*atoms)
