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
table is compiled into `extract_features` itself: one generated function
that finds the positions (`_FRAME`), sets each atom as a local named after
it, and builds all 70 features as f-strings (`f"S0wpN0w={S0w}|{S0p}|{N0w}"`).
"""

from __future__ import annotations

from ..conllu import Sentence

NULL = "<NULL>"
ROOT_WORD = "<ROOT>"
ROOT_POS = "<ROOT>"

# each position -> the local of `_FRAME` that holds its token index: -1 where
# the position is absent, which reads NULL in the atom lists
_POSITIONS = {
    "S0": "s0", "N0": "b", "N1": "b + 1", "N2": "b + 2", "S0h": "s0h", "S0h2": "s0h2",
    "S0l": "s0l", "S0l2": "s0l2", "S0r": "s0r", "S0r2": "s0r2", "N0l": "n0l", "N0l2": "n0l2",
}
_KIDS = ("S0l", "S0l2", "S0r", "S0r2", "N0l", "N0l2")
# each label set atom -> the local of `_FRAME` that holds its dependents
_LABEL_SETS = {"S0sl": "s0_left", "S0sr": "s0_right", "N0sl": "n0_left"}

# every atom as (position, suffix)
_ATOMS = (
    [(p, x) for p in _POSITIONS for x in "wp"]
    + [(p, "l") for p in ("S0h", "S0h2", *_KIDS)]
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

# The start of the generated `extract_features`: the positions' token
# indices (`_POSITIONS`), the labels of S0's arc and S0h's (S0hl, S0h2l), the
# distance d and the dependent lists the remaining atoms are read from.
_FRAME = '''\
def extract_features(c, words, tags):
    """The 70 features of `c`, over the atom lists `sentence_atoms` built
    for its sentence."""
    head, label, lefts = c.head, c.label, c.lefts
    s0 = c.stack[-1]
    b = c.b
    # S0h is reached by S0's arc, S0h2 by S0h's; the root has no head
    s0h = head[s0]
    if s0h is None:
        s0h = s0h2 = -1
        S0hl = S0h2l = NULL
    else:
        S0hl = label[s0]
        s0h2 = head[s0h]
        if s0h2 is None:
            s0h2, S0h2l = -1, NULL
        else:
            S0h2l = label[s0h]
    s0_left, s0_right = lefts[s0], c.rights[s0]
    if b <= c.n:
        n0_left = lefts[b]
        d = min(b - s0, 10)  # an int: an f-string writes str(int)
    else:
        n0_left, d = (), NULL
    # the children, outermost first
    s0l = s0_left[0] if s0_left else -1
    s0l2 = s0_left[1] if len(s0_left) > 1 else -1
    s0r = s0_right[-1] if s0_right else -1
    s0r2 = s0_right[-2] if len(s0_right) > 1 else -1
    n0l = n0_left[0] if n0_left else -1
    n0l2 = n0_left[1] if len(n0_left) > 1 else -1
'''


def _compile():
    """`_TABLE` compiled into the `extract_features` function, generated
    once: `_FRAME`, one assignment per atom, and the list of features."""
    index = {p + x: (p, x) for p, x in _ATOMS}
    lines = []
    for p, i in _POSITIONS.items():
        lines.append("%sw, %sp = words[%s], tags[%s]" % (p, p, i, i))
    for p in _KIDS:
        lines.append("%sl = NULL if %s < 0 else label[%s]" % (p, _POSITIONS[p], _POSITIONS[p]))
    lines.append("S0vl, S0vr, N0vl = len(s0_left), len(s0_right), len(n0_left)")
    for atom, deps in _LABEL_SETS.items():
        # no dependent or one: no set to build
        lines += [
            "if len(%s) > 1:" % deps,
            '    %s = "|".join(sorted({label[k] for k in %s})) or NULL' % (atom, deps),
            "elif %s:" % deps,
            "    %s = label[%s[0]] or NULL" % (atom, deps),
            "else:",
            "    %s = NULL" % atom,
        ]
    features = []
    for template in _TABLE.split(","):
        atoms = template.split()
        name, last = "", None
        for p, x in map(index.__getitem__, atoms):
            name += x if p == last else p + x
            last = p
        features.append('f"%s=%s"' % (name, "|".join("{%s}" % a for a in atoms)))
    lines.append("return [%s]" % ", ".join(features))
    source = _FRAME + "".join("    %s\n" % line for line in lines)
    namespace = {"NULL": NULL, "__name__": __name__}
    exec(source, namespace)
    return namespace["extract_features"], len(features)


extract_features, TEMPLATES = _compile()  # TEMPLATES: features per configuration


def sentence_atoms(s: Sentence) -> tuple[list[str], list[str]]:
    """The word and the POS atom of each position, by position: the root,
    tokens 1..n, then NULL three times, so a buffer position past the end
    (up to n + 3) and an absent position, given as -1, read NULL. Built once
    per sentence, for every `extract_features` call on it."""
    words = [ROOT_WORD, *[t.form for t in s.tokens], NULL, NULL, NULL]
    tags = [ROOT_POS, *[t.upos for t in s.tokens], NULL, NULL, NULL]
    return words, tags
