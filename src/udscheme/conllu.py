"""CoNLL-U (UD v1) reading and writing, plus tree validation and projectivity.

Tokens and sentences are immutable; all operations on them are pure functions.
A `Token` is a named tuple of the ten CoNLL-U columns, in column order, so
it is built, copied and formatted at C level; like any named tuple it
compares equal to a plain tuple of the same fields. Columns that carry no
structure (feats, deps, misc, xpos) are kept verbatim so that a parse ->
write round trip reproduces the input byte for byte.

`write_atomic` writes a file aside and renames it into place, so no file is
left half-written; the model and report writers use it too.

The tree contract lives here. `parse_conllu` checks only the format;
`validate_tree` checks the tree (ids 1..n, one root, heads in range, no
self-loop, a label on every non-root arc, no cycle). Each tree is checked
once, where it is first used, and refused at its first violation:
- read trees by `check_read_trees`: ConlluError `<path>:<line>: <violation>`.
  `read_trees` reads and checks gold input for every command; the harness
  checks at a treebank's first cache miss, so a cached rerun checks none.
  `udscheme parse` input and `evaluate --pred` are not gold: not checked.
- produced trees by `check_trees`: ValueError `sentence N is not a valid
  tree: <violation>`, run by `write_conllu` and on each transformed split.
- `parse()` checks its own output (RuntimeError). Checked trees are written
  with `format_conllu`, which checks nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple


class ConlluError(ValueError):
    """Malformed CoNLL-U input. Reading is fail-fast: the first problem aborts.
    `read_conllu_file` sets `path`, and the message then names the file."""

    path: str | None = None

    def __init__(self, line_no: int, message: str):
        super().__init__(line_no, message)
        self.line_no = line_no
        self.message = message

    def __str__(self) -> str:
        if self.path is None:
            return "line %d: %s" % (self.line_no, self.message)
        return "%s:%d: %s" % (self.path, self.line_no, self.message)


class Token(NamedTuple):
    id: int
    form: str
    lemma: str = "_"
    upos: str = "_"
    xpos: str = "_"
    feats: str = "_"
    head: int = 0
    deprel: str = "_"
    deps: str = "_"
    misc: str = "_"


# builds a Token from an iterable of its ten fields, in column order
_make_token = Token._make


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    # multiword-token lines, excluded from the tree: (start id, end id, form, misc)
    mwt_ranges: tuple[tuple[int, int, str, str], ...] = ()
    comments: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.tokens)

    def token(self, tid: int) -> Token:
        return self.tokens[tid - 1]

    def heads(self) -> list[int]:
        """Head array indexed by token id; index 0 is unused."""
        return [0] + [t.head for t in self.tokens]

    def deprels(self) -> list[str]:
        return [""] + [t.deprel for t in self.tokens]

    def with_arcs(self, heads: list[int], deprels: list[str]) -> "Sentence":
        """Copy of the sentence with head/deprel replaced from id-indexed arrays.
        A token whose arc is unchanged is kept as the same object."""
        toks = []
        for t in self.tokens:
            h = heads[t.id]
            r = deprels[t.id]
            if h != t.head or r != t.deprel:
                t = _make_token(t[:6] + (h, r) + t[8:])  # fields 6, 7: head, deprel
            toks.append(t)
        return Sentence(tuple(toks), self.mwt_ranges, self.comments)

    def same_tree(self, other: "Sentence") -> bool:
        return all(
            a.head == b.head and a.deprel == b.deprel
            for a, b in zip(self.tokens, other.tokens)
        )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[int | None, str, str], ...]


def parse_conllu(text: str) -> list[Sentence]:
    """Parse CoNLL-U text into sentences.

    Multiword-token lines (id `a-b`) go to mwt_ranges; `#` comments are kept
    in order. Empty nodes (v2 ids like `1.1`) are rejected as malformed.
    """
    sentences = []
    comments: list[str] = []
    tokens: list[Token] = []
    mwt: list[tuple[int, int, str, str]] = []
    token_lines: list[int] = []  # line number per token, for late errors
    mwt_line = 0  # line number of the last multiword range

    def flush(line_no: int) -> None:
        if not tokens and not comments and not mwt:
            return
        if not tokens:
            raise ConlluError(line_no, "sentence block contains no token lines")
        n = len(tokens)
        if mwt and mwt[-1][1] > n:  # ranges are in order, so the last ends last
            a, b = mwt[-1][:2]
            raise ConlluError(mwt_line, "multiword range %d-%d ends past token %d" % (a, b, n))
        for t, ln in zip(tokens, token_lines):
            if not 0 <= t.head <= n:
                raise ConlluError(ln, "head %d out of range [0, %d]" % (t.head, n))
            if t.head == t.id:
                raise ConlluError(ln, "token %d is its own head" % t.id)
        sentences.append(Sentence(tuple(tokens), tuple(mwt), tuple(comments)))
        comments.clear()
        tokens.clear()
        mwt.clear()
        token_lines.clear()

    for line_no, line in enumerate(text.split("\n"), start=1):
        if line == "":
            flush(line_no)
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluError(line_no, "expected 10 columns, got %d" % len(cols))
        tid = cols[0]
        if "-" in tid:
            a, sep, b = tid.partition("-")
            if not (a.isdigit() and b.isdigit()):
                raise ConlluError(line_no, "malformed multiword id %r" % tid)
            a, b = int(a), int(b)
            # a range precedes its first token and overlaps no other, so
            # `format_conllu` writes each line back where it was read
            if a != len(tokens) + 1:
                message = "does not start at token %d" % (len(tokens) + 1)
                raise ConlluError(line_no, "multiword range %r %s" % (tid, message))
            if a >= b or (mwt and mwt[-1][1] >= a):
                message = "is shorter than 2 or overlaps another"
                raise ConlluError(line_no, "multiword range %r %s" % (tid, message))
            mwt.append((a, b, cols[1], cols[9]))
            mwt_line = line_no
            continue
        if not tid.isdigit():
            raise ConlluError(line_no, "non-integer token id %r" % tid)
        tid = int(tid)
        if tid != len(tokens) + 1:
            if any(t.id == tid for t in tokens):
                raise ConlluError(line_no, "duplicate token id %d" % tid)
            raise ConlluError(
                line_no, "token id %d breaks the 1..n sequence" % tid
            )
        head = cols[6]
        if not (head.isdigit() or (head.startswith("-") and head[1:].isdigit())):
            raise ConlluError(line_no, "non-integer head %r" % head)
        head = int(head)
        if head < 0:
            raise ConlluError(line_no, "negative head %d" % head)
        cols[0] = tid
        cols[6] = head
        tokens.append(_make_token(cols))
        token_lines.append(line_no)
    flush(line_no + 1)
    return sentences


# a token's CoNLL-U line: its ten fields, tab-separated, in one % operation
_token_line = "\t".join(["%s"] * len(Token._fields)).__mod__


def check_trees(sentences: list[Sentence]) -> None:
    """Raise a ValueError at the first sentence that is not a valid tree."""
    for idx, s in enumerate(sentences):
        report = validate_tree(s)
        if not report.ok:
            raise ValueError(
                "sentence %d is not a valid tree: %s" % (idx, report.violations[0][2])
            )


def write_conllu(sentences: list[Sentence]) -> str:
    """Serialize sentences to CoNLL-U. Refuses invalid trees."""
    check_trees(sentences)
    return format_conllu(sentences)


def format_conllu(sentences: list[Sentence]) -> str:
    """Serialize sentences to CoNLL-U without checking their trees."""
    out: list[str] = []
    for s in sentences:
        out.extend(s.comments)
        mwt_by_start = {m[0]: m for m in s.mwt_ranges}
        for t in s.tokens:
            if t.id in mwt_by_start:
                a, b, form, misc = mwt_by_start[t.id]
                out.append(
                    "\t".join(("%d-%d" % (a, b), form, "_", "_", "_", "_", "_", "_", "_", misc))
                )
            out.append(_token_line(t))
        out.append("")
    return "\n".join(out) + "\n" if out else ""


def read_conllu_file(path: str) -> list[Sentence]:
    """Read and parse a UTF-8 CoNLL-U file, taking \\r\\n and \\r as line
    breaks like text mode does. A ConlluError names the file; bytes that are
    not UTF-8 raise one at the line of the first of them. The trees are not
    checked."""
    try:
        return parse_conllu(_read_text(path))
    except ConlluError as e:
        e.path = path
        raise


def read_trees(path: str) -> list[Sentence]:
    """The sentences of a CoNLL-U file, each checked to be a tree."""
    sentences = read_conllu_file(path)
    check_read_trees(path, sentences)
    return sentences


def _read_text(path: str) -> str:
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ConlluError(line, "byte 0x%02x is not UTF-8" % data[e.start]) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def check_read_trees(path: str, sentences: list[Sentence]) -> None:
    """Raise a ConlluError naming `path` and a line at the first of the
    sentences `read_conllu_file(path)` returned that is not a valid tree:
    the line of the token its first violation names (of its first token
    when none is named). Only then is the file read again, for that line."""
    for idx, s in enumerate(sentences):
        report = validate_tree(s)
        if not report.ok:
            tid, _, message = report.violations[0]
            e = ConlluError(_token_line_no(path, idx, tid or 1), message)
            e.path = path
            raise e


def _token_line_no(path: str, sentence_idx: int, tid: int) -> int:
    """The line of token `tid` of sentence `sentence_idx` in a file that
    `read_conllu_file` reads without error: each sentence is one block of
    non-empty lines, and every such block is a sentence."""
    sentence = -1
    in_block = False
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        if line == "":
            in_block = False
            continue
        if not in_block:
            in_block = True
            sentence += 1
        if sentence == sentence_idx and line.split("\t", 1)[0] == str(tid):
            return line_no
    raise ValueError("%s: sentence %d has no token %d" % (path, sentence_idx, tid))


def write_conllu_file(path: str, sentences: list[Sentence]) -> None:
    write_atomic(path, write_conllu(sentences))


def write_atomic(path: str, text: str) -> None:
    """Write `text` as UTF-8 aside and rename, so no file is ever left
    half-written. A file that already holds `text` is left alone: a cached
    rerun rewrites every report unchanged, and renaming over a file just
    written makes ext4 flush it (auto_da_alloc)."""
    data = text.encode("utf-8")
    try:
        with open(path, "rb") as f:
            if f.read() == data:
                return
    except FileNotFoundError:
        pass
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# the states of a token in validate_tree's walk along head chains
_UNSEEN, _ON_PATH, _ROOTED = 0, 1, 2


def validate_tree(s: Sentence) -> ValidationReport:
    """Check the sentence invariants: contiguous ids, single root, a real tree."""
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
            # the root arc label is also required, but '_' there is a common
            # fixture shorthand; only flag clearly missing non-root labels
            violations.append((t.id, "empty-deprel", "token %d has no deprel" % t.id))
    if violations:
        return ValidationReport(False, tuple(violations))
    # cycle / connectivity: every token must reach 0 by following heads. Each
    # token is walked over once: it is ON_PATH while the current chain is
    # followed and ROOTED once that chain reaches 0 or a ROOTED token. So the
    # first token whose walk meets its own path is the first token in id
    # order that does not reach the root.
    heads = s.heads()
    state = [_ROOTED] + [_UNSEEN] * n
    for t in s.tokens:
        path = []
        a = t.id
        while state[a] == _UNSEEN:
            state[a] = _ON_PATH
            path.append(a)
            a = heads[a]
        if state[a] == _ON_PATH:
            return ValidationReport(
                False, ((t.id, "cycle", "token %d is caught in a head cycle" % t.id),)
            )
        for a in path:
            state[a] = _ROOTED
    return ValidationReport(True, ())


def is_projective(s: Sentence) -> bool:
    """True iff no two arcs cross (arcs from the artificial root included).

    Equivalent formulation used here: for every arc (h, d) with h >= 1, every
    token strictly between h and d must be a descendant of h. Root arcs are
    covered because every token is a descendant of the root.
    """
    heads = s.heads()
    for d in range(1, len(s.tokens) + 1):
        h = heads[d]
        if h == 0:
            continue
        lo, hi = (h, d) if h < d else (d, h)
        for t in range(lo + 1, hi):
            a = t
            while a != 0 and a != h:
                a = heads[a]
            if a != h:
                return False
    return True
