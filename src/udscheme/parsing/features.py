"""Rich feature templates over an arc-eager configuration.

The template set covers the stack top (S0) and the first three buffer items
(N0, N1, N2) with word forms, POS tags and arc labels, plus distance,
valence, head/child and label-set conjunctions. Every template is total:
absent positions produce a distinguished null value, so the feature list has
a fixed length for every configuration.
"""

from __future__ import annotations

from ..conllu import Sentence
from .transitions import Configuration

NULL = "<NULL>"
ROOT_WORD = "<ROOT>"
ROOT_POS = "<ROOT>"


def _node(s: Sentence, i: int | None):
    """(word, pos) for a token id; the artificial root and absent positions
    get sentinel values."""
    if i is None:
        return NULL, NULL
    if i == 0:
        return ROOT_WORD, ROOT_POS
    t = s.token(i)
    return t.form, t.upos


def extract_features(c: Configuration, s: Sentence) -> list[str]:
    s0 = c.stack[-1]
    b, n = c.b, c.n
    n0 = b if b <= n else None
    n1 = b + 1 if b + 1 <= n else None
    n2 = b + 2 if b + 2 <= n else None

    s0w, s0p = _node(s, s0)
    n0w, n0p = _node(s, n0)
    n1w, n1p = _node(s, n1)
    n2w, n2p = _node(s, n2)

    label = c.label

    def head_of(i):
        if i is None or i == 0:
            return None, NULL
        h = c.head[i]
        return (h, label[i]) if h is not None else (None, NULL)

    s0h, s0hl = head_of(s0)
    s0h2, s0h2l = head_of(s0h)
    s0hw, s0hp = _node(s, s0h)
    s0h2w, s0h2p = _node(s, s0h2)

    s0_left, s0_right = c.lefts[s0], c.rights[s0]
    n0_left = c.lefts[n0] if n0 is not None else []

    def pick(kids, idx):
        # the idx-th of kids (counting from the end for idx < 0):
        # (token id, label) or null
        if not -len(kids) <= idx < len(kids):
            return None, NULL
        d = kids[idx]
        return d, label[d]

    s0l, s0ll = pick(s0_left, 0)
    s0l2, s0l2l = pick(s0_left, 1)
    s0r, s0rl = pick(s0_right, -1)
    s0r2, s0r2l = pick(s0_right, -2)
    n0l, n0ll = pick(n0_left, 0)
    n0l2, n0l2l = pick(n0_left, 1)

    s0lw, s0lp = _node(s, s0l)
    s0l2w, s0l2p = _node(s, s0l2)
    s0rw, s0rp = _node(s, s0r)
    s0r2w, s0r2p = _node(s, s0r2)
    n0lw, n0lp = _node(s, n0l)
    n0l2w, n0l2p = _node(s, n0l2)

    d = str(min(n0 - s0, 10)) if n0 is not None else NULL
    s0vl, s0vr = str(len(s0_left)), str(len(s0_right))
    n0vl = str(len(n0_left))
    s0sl = "|".join(sorted({label[k] for k in s0_left})) or NULL
    s0sr = "|".join(sorted({label[k] for k in s0_right})) or NULL
    n0sl = "|".join(sorted({label[k] for k in n0_left})) or NULL

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
