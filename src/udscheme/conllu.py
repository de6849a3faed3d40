"""CoNLL-U (UD v1) reading and writing, plus tree validation and projectivity.

Tokens and sentences are immutable; all operations on them are pure functions.
A `Token` is a named tuple of the ten CoNLL-U columns, in column order, so
it is built, copied and formatted at C level; like any named tuple it
compares equal to a plain tuple of the same fields. Columns that carry no
structure (feats, deps, misc, xpos) are kept verbatim, and so is every line
of a block outside the tree (comments, multiword ranges, v2 empty nodes), in
its place among the token lines, so a parse -> write round trip reproduces
the input byte for byte.

`write_atomic` writes a file aside and renames it into place, so no file is
left half-written; the model and report writers use it too.

The tree contract lives here. `parse_conllu` checks only the format;
`validate_tree` checks the tree (ids 1..n, one root, heads in range, no
self-loop, a label on every non-root arc, no cycle). `check_trees` is the one
tree check (besides `parse()`'s own), run once on each tree where it is first
used, and it refuses the first violation:
- with the path a tree was read from (as read, or rewritten from what was
  read): ConlluError `<path>:<line>: <violation>`, at the line of the token
  the violation names, found from the line `parse_conllu` keeps on each
  sentence (`Sentence.line_no`), so no file is read twice. `read_trees`
  reads and checks gold input for every command; the harness reads and
  checks a treebank's splits at its first cache miss (a cached rerun
  parses none) and each transformed split with the same call, as `udscheme
  transform` checks its output against its input. `udscheme parse`
  input and `evaluate --pred` are not gold: not checked.
- without a path, as `write_conllu` runs it: ValueError `sentence N is not
  a valid tree: <violation>`.
- `parse()` checks its own output (RuntimeError). Checked trees are written
  with `format_conllu`, which checks nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple


class ConlluError(ValueError):
    """Malformed CoNLL-U input, an input file that is not UTF-8, or a read
    tree that is not valid. Reading is fail-fast: the first problem aborts.
    With a `path` (`read_text`, `read_conllu_file` and `check_trees` give
    one), the message names the file."""

    def __init__(self, line_no: int, message: str, path: str | None = None):
        super().__init__(line_no, message)
        self.line_no = line_no
        self.message = message
        self.path = path

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
    # the block's lines outside the tree (comments, multiword ranges, empty
    # nodes) as read, each with the number of token lines before it
    other_lines: tuple[tuple[int, str], ...] = ()
    # the line the block starts on in the text it was read from (0 when the
    # sentence was not read), carried by `with_arcs`; neither compared nor shown
    line_no: int = field(default=0, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def token(self, tid: int) -> Token:
        return self.tokens[tid - 1]

    def token_line(self, tid: int) -> int:
        """The line of token `tid` in the text the sentence was read from."""
        return self.line_no + tid - 1 + sum(1 for pos, _ in self.other_lines if pos < tid)

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
        return Sentence(tuple(toks), self.other_lines, self.line_no)

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

    Comments, multiword-token lines (id `a-b`) and empty nodes (v2 id `N.M`,
    after token N) go to other_lines verbatim; they are not part of the tree.
    """
    sentences = []
    tokens: list[Token] = []
    other: list[tuple[int, str]] = []
    mwt: list[tuple[int, int]] = []  # the bounds of the multiword ranges
    mwt_line = 0  # line number of the last multiword range

    def flush(line_no: int) -> None:
        if not tokens and not other:
            return
        if not tokens:
            raise ConlluError(line_no, "sentence block contains no token lines")
        n = len(tokens)
        if mwt and mwt[-1][1] > n:  # ranges are in order, so the last ends last
            a, b = mwt[-1]
            raise ConlluError(mwt_line, "multiword range %d-%d ends past token %d" % (a, b, n))
        # the block's lines end on the line before `line_no`
        s = Sentence(tuple(tokens), tuple(other), line_no - n - len(other))
        for t in tokens:
            if not 0 <= t.head <= n:
                message = "head %d out of range [0, %d]" % (t.head, n)
                raise ConlluError(s.token_line(t.id), message)
            if t.head == t.id:
                raise ConlluError(s.token_line(t.id), "token %d is its own head" % t.id)
        sentences.append(s)
        tokens.clear()
        other.clear()
        mwt.clear()

    for line_no, line in enumerate(text.split("\n"), start=1):
        if line == "":
            flush(line_no)
            continue
        if line.startswith("#"):
            other.append((len(tokens), line))
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluError(line_no, "expected 10 columns, got %d" % len(cols))
        # ids and heads are ASCII digits: `str.isdigit` also takes "²" and "١"
        tid = cols[0]
        if "-" in tid:
            a, sep, b = tid.partition("-")
            if not (tid.isascii() and a.isdigit() and b.isdigit()):
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
            mwt.append((a, b))
            mwt_line = line_no
            other.append((len(tokens), line))
            continue
        if "." in tid:
            a, sep, b = tid.partition(".")
            if not (tid.isascii() and a.isdigit() and b.isdigit() and int(a) == len(tokens)):
                raise ConlluError(line_no, "empty node id %r is not %d.M" % (tid, len(tokens)))
            other.append((len(tokens), line))
            continue
        if not (tid.isascii() and tid.isdigit()):
            raise ConlluError(line_no, "non-integer token id %r" % tid)
        # `format_conllu` writes ints, so "01" or "00" would not come back
        if tid[0] == "0" and len(tid) > 1:
            message = "token id %r would be written back as %r" % (tid, str(int(tid)))
            raise ConlluError(line_no, message)
        tid = int(tid)
        if tid != len(tokens) + 1:
            if any(t.id == tid for t in tokens):
                raise ConlluError(line_no, "duplicate token id %d" % tid)
            raise ConlluError(
                line_no, "token id %d breaks the 1..n sequence" % tid
            )
        head = cols[6]
        if not head.isascii() or not (
            head.isdigit() or (head.startswith("-") and head[1:].isdigit())
        ):
            raise ConlluError(line_no, "non-integer head %r" % head)
        value = int(head)
        if value < 0:
            raise ConlluError(line_no, "negative head %d" % value)
        if head[0] in "-0" and len(head) > 1:  # "00", "01", "-0"
            message = "head %r would be written back as %r" % (head, str(value))
            raise ConlluError(line_no, message)
        cols[0] = tid
        cols[6] = value
        tokens.append(_make_token(cols))
    flush(line_no + 1)
    return sentences


# a token's CoNLL-U line: its ten fields, tab-separated, in one % operation
_token_line = "\t".join(["%s"] * len(Token._fields)).__mod__


def check_trees(sentences: list[Sentence], path: str | None = None) -> None:
    """Raise at the first sentence that is not a valid tree, naming its first
    violation: a ValueError `sentence N is not a valid tree: <violation>`,
    or, given the `path` the sentences were read from (as read, or rewritten
    from what was read), a ConlluError `<path>:<line>: <violation>` at the
    line of the token the violation names (of token 1 when none is named)."""
    for idx, s in enumerate(sentences):
        report = validate_tree(s)
        if not report.ok:
            tid, _, message = report.violations[0]
            if path is None:
                raise ValueError("sentence %d is not a valid tree: %s" % (idx, message))
            raise ConlluError(s.token_line(tid or 1), message, path)


def write_conllu(sentences: list[Sentence]) -> str:
    """Serialize sentences to CoNLL-U. Refuses invalid trees."""
    check_trees(sentences)
    return format_conllu(sentences)


def format_conllu(sentences: list[Sentence]) -> str:
    """Serialize sentences to CoNLL-U without checking their trees."""
    out: list[str] = []
    for s in sentences:
        lines = list(map(_token_line, s.tokens))
        for pos, line in reversed(s.other_lines):  # from the end: positions stay valid
            lines.insert(pos, line)
        out.extend(lines)
        out.append("")
    return "\n".join(out) + "\n" if out else ""


def read_conllu_file(path: str) -> list[Sentence]:
    """Read (through `read_text`) and parse a CoNLL-U file. A ConlluError
    names the file. The trees are not checked."""
    try:
        return parse_conllu(read_text(path))
    except ConlluError as e:
        e.path = path
        raise


def read_trees(path: str) -> list[Sentence]:
    """The sentences of a CoNLL-U file, each checked to be a tree."""
    sentences = read_conllu_file(path)
    check_trees(sentences, path)
    return sentences


def read_text(path: str) -> str:
    """The text of a UTF-8 file, taking \\r\\n and \\r as line breaks like
    text mode does. Every input file is read through here: a byte that is
    not UTF-8 raises a ConlluError naming the file and its line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ConlluError(line, "byte 0x%02x is not UTF-8" % data[e.start], path) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
