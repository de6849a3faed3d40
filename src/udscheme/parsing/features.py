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


def extract_features(c: Configuration, s: Sentence) -> list[str]:
    head, label, lefts = c.head, c.label, c.lefts
    s0 = c.stack[-1]
    b, n = c.b, c.n
    n0, n1, n2 = [i if i <= n else None for i in (b, b + 1, b + 2)]
    s0h = head[s0]  # also None for the root: head[0] is None
    s0h2 = None if s0h is None else head[s0h]
    s0_left, s0_right = lefts[s0], c.rights[s0]
    n0_left = lefts[n0] if n0 is not None else []
    # S0l, S0l2, S0r, S0r2, N0l, N0l2: outermost first, None where absent
    kids = (*s0_left[:2], None, None)[:2] + (*s0_right[:-3:-1], None, None)[:2]
    kids += (*n0_left[:2], None, None)[:2]

    tokens = s.tokens
    atoms = []
    for i in (s0, n0, n1, n2, s0h, s0h2, *kids):
        if i is None:
            atoms += (NULL, NULL)
        elif i == 0:
            atoms += (ROOT_WORD, ROOT_POS)
        else:
            t = tokens[i - 1]
            atoms += (t.form, t.upos)
    # S0h is reached by S0's arc, S0h2 by S0h's, a child by its own
    atoms += (NULL if s0h is None else label[s0], NULL if s0h2 is None else label[s0h])
    atoms += [NULL if k is None else label[k] for k in kids]
    d = NULL if n0 is None else min(n0 - s0, 10)  # ints: an f-string writes str(int)
    atoms += (d, len(s0_left), len(s0_right), len(n0_left))
    for deps in (s0_left, s0_right, n0_left):
        atoms.append("|".join(sorted({label[k] for k in deps})) or NULL)
    return _features(*atoms)
