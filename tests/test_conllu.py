import os
import random

import pytest
from hypothesis import given, strategies as st

from udscheme import conllu
from udscheme.conllu import (
    ConlluError,
    Sentence,
    Token,
    is_projective,
    parse_conllu,
    validate_tree,
    write_conllu,
    write_conllu_file,
)
from udscheme.parsing.perceptron import Hyperparameters, save_model, train

from helpers import (
    SHAPES,
    brute_force_projective,
    is_valid_tree,
    make_sentence,
    random_conllu_sentence,
    random_tree,
    ref_token_line,
    ref_validate_tree,
    ref_with_arcs,
    ref_write_conllu,
)

THE_BOOK = (
    "1\tthe\t_\tDET\t_\t_\t2\tdet\t_\t_\n"
    "2\tbook\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
    "\n"
)


def test_parse_two_token_sentence():
    sentences = parse_conllu(THE_BOOK)
    assert len(sentences) == 1
    s = sentences[0]
    assert len(s.tokens) == 2
    assert s.token(1).head == 2 and s.token(1).deprel == "det"
    assert s.token(2).head == 0 and s.token(2).upos == "NOUN"


def test_parse_empty_input():
    assert parse_conllu("") == []


def test_parse_multiword_line():
    text = (
        "1\tI\t_\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tsaw\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3-4\tdella\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\tdi\t_\tADP\t_\t_\t5\tcase\t_\t_\n"
        "4\tla\t_\tDET\t_\t_\t5\tdet\t_\t_\n"
        "5\tcasa\t_\tNOUN\t_\t_\t2\tdobj\t_\t_\n"
        "\n"
    )
    sentences = parse_conllu(text)
    s = sentences[0]
    assert len(s.tokens) == 5
    assert s.other_lines == ((2, "3-4\tdella\t_\t_\t_\t_\t_\t_\t_\t_"),)
    # round trip must reproduce the file byte for byte
    assert write_conllu(sentences) == text


def test_roundtrip_with_comments_and_opaque_columns():
    text = (
        "# sent_id = a-1\n"
        "# text = x y\n"
        "1\tx\tlx\tNOUN\tNN\tCase=Nom|Num=Sg\t2\tnsubj\t2:nsubj\tSpaceAfter=No\n"
        "2\ty\tly\tVERB\tVB\t_\t0\troot\t_\t_\n"
        "\n"
    )
    sentences = parse_conllu(text)
    assert sentences[0].other_lines == ((0, "# sent_id = a-1"), (0, "# text = x y"))
    assert sentences[0].token(1).feats == "Case=Nom|Num=Sg"
    assert write_conllu(sentences) == text
    assert parse_conllu(write_conllu(sentences)) == sentences


# one block with every kind of line outside the tree: comments at its top, in
# its middle and at its end, the empty nodes 0.1 and 2.1, and a multiword
# line whose LEMMA, FEATS and MISC are not `_`; then a plain block
OUTSIDE_THE_TREE = (
    "# sent_id = fr-1\n"
    "# text = Il parle du livre.\n"
    "0.1\ton\ton\tPRON\t_\t_\t_\t_\t2:nsubj\t_\n"
    "1\tIl\til\tPRON\t_\tNumber=Sing\t2\tnsubj\t2:nsubj\t_\n"
    "2\tparle\tparler\tVERB\t_\tMood=Ind\t0\troot\t0:root\t_\n"
    "# between tokens 2 and 3\n"
    "2.1\tparle\tparler\tVERB\t_\t_\t_\t_\t0:root\tCopyOf=2\n"
    "3-4\tdu\tde+le\t_\t_\tDefinite=Def|Typo=Yes\t_\t_\t_\tSpaceAfter=No\n"
    "3\tde\tde\tADP\t_\t_\t5\tcase\t5:case\t_\n"
    "4\tle\tle\tDET\t_\tDefinite=Def\t5\tdet\t5:det\t_\n"
    "5\tlivre\tlivre\tNOUN\t_\tGender=Masc\t2\tobj\t2:obj\tSpaceAfter=No\n"
    "6\t.\t.\tPUNCT\t_\t_\t2\tpunct\t2:punct\t_\n"
    "# at the end\n"
    "\n"
    "# sent_id = fr-2\n"
    "1\tOui\toui\tINTJ\t_\t_\t0\troot\t0:root\t_\n"
    "\n"
)


DU = "1-2\tdu\tde+le\t_\t_\tTypo=Yes\t_\t_\t_\tSpaceAfter=No"
EMPTY_1 = "1.1\ty\t_\tX\t_\t_\t_\t_\t0:root|1:dep\t_"
EMPTY_2 = "1.2\tz\t_\tX\t_\t_\t_\t_\t_\t_"
_OUTSIDE = OUTSIDE_THE_TREE.split("\n")


@pytest.mark.parametrize(
    "text, other_lines",
    [
        (
            OUTSIDE_THE_TREE,
            ((0, _OUTSIDE[0]), (0, _OUTSIDE[1]), (0, _OUTSIDE[2]),
             (2, _OUTSIDE[5]), (2, _OUTSIDE[6]), (2, _OUTSIDE[7]), (6, _OUTSIDE[12])),
        ),
        (
            DU + "\n1\tde\t_\tADP\t_\t_\t2\tcase\t_\t_\n2\tle\t_\tDET\t_\t_\t0\troot\t_\t_\n\n",
            ((0, DU),),
        ),
        (
            "1\tthe\t_\tDET\t_\t_\t2\tdet\t_\t_\n# middle\n"
            "2\tbook\t_\tNOUN\t_\t_\t0\troot\t_\t_\n# end\n\n",
            ((1, "# middle"), (2, "# end")),
        ),
        (
            "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n%s\n%s\n\n" % (EMPTY_1, EMPTY_2),
            ((1, EMPTY_1), (1, EMPTY_2)),
        ),
    ],
    ids=["every-kind", "multiword-columns", "comments-inside", "empty-nodes-at-the-end"],
)
def test_lines_outside_the_tree_are_kept_verbatim_in_place(text, other_lines):
    sentences = parse_conllu(text)
    assert sentences[0].other_lines == other_lines
    assert write_conllu(sentences) == text


@pytest.mark.parametrize(
    "tid, message",
    [
        ("3.1", "empty node id '3.1' is not 2.M"),
        ("1.1", "empty node id '1.1' is not 2.M"),
        ("2.", "empty node id '2.' is not 2.M"),
        (".1", "empty node id '.1' is not 2.M"),
        ("2.x", "empty node id '2.x' is not 2.M"),
        ("2.1.1", "empty node id '2.1.1' is not 2.M"),
        ("٢.1", "empty node id '٢.1' is not 2.M"),
    ],
)
def test_malformed_empty_node_id_is_refused_at_its_line(tmp_path, tid, message):
    path = tmp_path / "bad.conllu"
    path.write_text(
        "# a\n1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n"
        "%s\tc\t_\tX\t_\t_\t_\t_\t_\t_\n\n" % tid,
        encoding="utf-8",
    )
    with pytest.raises(ConlluError) as err:
        conllu.read_conllu_file(str(path))
    assert str(err.value) == "%s:4: %s" % (path, message)


opaque = st.text(
    alphabet=st.characters(blacklist_characters="\t\n", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
).filter(lambda x: not x.isspace())


@given(feats=opaque, deps=opaque, misc=opaque, xpos=opaque)
def test_roundtrip_opaque_columns_fuzz(feats, deps, misc, xpos):
    tokens = (
        Token(1, "a", "a", "NOUN", xpos, feats, 2, "nsubj", deps, misc),
        Token(2, "b", "b", "VERB", "_", "_", 0, "root", "_", "_"),
    )
    sentences = [Sentence(tokens)]
    assert parse_conllu(write_conllu(sentences)) == sentences


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("1\ta\t_\tX\t_\t_\t0\troot\t_\n\n", "10 columns"),
        ("x\ta\t_\tX\t_\t_\t0\troot\t_\t_\n\n", "non-integer token id"),
        ("1\ta\t_\tX\t_\t_\tz\troot\t_\t_\n\n", "non-integer head"),
        ("1\ta\t_\tX\t_\t_\t5\troot\t_\t_\n\n", "out of range"),
        ("1.1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n\n", "empty node id '1.1' is not 0.M"),
        (
            "1\ta\t_\tX\t_\t_\t2\tdep\t_\t_\n1\tb\t_\tX\t_\t_\t0\troot\t_\t_\n\n",
            "duplicate token id",
        ),
        ("1\ta\t_\tX\t_\t_\t1\tdep\t_\t_\n\n", "own head"),
    ],
)
def test_parse_malformed_fails_fast(bad, fragment):
    with pytest.raises(ConlluError) as err:
        parse_conllu(bad)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def mwt_text(*lines: str) -> str:
    """A sentence block of the given `id form head` lines (a multiword line
    when its head is `_`)."""
    rows = []
    for line in lines:
        tid, form, head = line.split()
        rel = "_" if head == "_" else "root" if head == "0" else "dep"
        rows.append("\t".join((tid, form, "_", "X", "_", "_", head, rel, "_", "_")))
    return "\n".join(rows) + "\n\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        (mwt_text("1 A 0", "5-6 zz _", "2 b 1"), 2, "multiword range '5-6' does not start at token 2"),
        (mwt_text("1-2 ab _", "1-2 ab _", "1 a 0", "2 b 1"), 2,
         "multiword range '1-2' is shorter than 2 or overlaps another"),
        (mwt_text("1-3 abc _", "1 a 0", "2-3 bc _", "2 b 1", "3 c 1"), 3,
         "multiword range '2-3' is shorter than 2 or overlaps another"),
        (mwt_text("1-1 a _", "1 a 0"), 1, "multiword range '1-1' is shorter than 2 or overlaps another"),
        (mwt_text("1 a 0", "2-3 bc _", "2 b 1"), 2, "multiword range 2-3 ends past token 2"),
    ],
)
def test_parse_refuses_a_multiword_line_it_could_not_write_back(text, line, message):
    with pytest.raises(ConlluError) as err:
        parse_conllu(text)
    assert str(err.value) == "line %d: %s" % (line, message)


@pytest.mark.parametrize(
    "text, line, message",
    [
        (mwt_text("1 a 0", "2 b ²"), 2, "non-integer head '²'"),
        (mwt_text("1 a 0", "2 b -²"), 2, "non-integer head '-²'"),
        (mwt_text("1 a 0", "١ b 1"), 2, "non-integer token id '١'"),
        (mwt_text("1-٢ ab _", "1 a 0", "2 b 1"), 1, "malformed multiword id '1-٢'"),
        (mwt_text("¹-2 ab _", "1 a 0", "2 b 1"), 1, "malformed multiword id '¹-2'"),
    ],
    ids=["head", "negative-head", "token-id", "multiword-end", "multiword-start"],
)
def test_parse_refuses_digits_that_are_not_ascii(text, line, message):
    # str.isdigit takes these, and int() reads "١" as 1 but cannot read "²"
    with pytest.raises(ConlluError) as err:
        parse_conllu(text)
    assert str(err.value) == "line %d: %s" % (line, message)


@pytest.mark.parametrize(
    "text, line, message",
    [
        (mwt_text("01 a 0"), 1, "token id '01' would be written back as '1'"),
        (mwt_text("1 a 0", "00 b 1"), 2, "token id '00' would be written back as '0'"),
        (mwt_text("1 a 0", "2 b 01"), 2, "head '01' would be written back as '1'"),
        (mwt_text("1 a 00"), 1, "head '00' would be written back as '0'"),
        (mwt_text("1 a -0"), 1, "head '-0' would be written back as '0'"),
    ],
    ids=["token-id-01", "token-id-00", "head-01", "head-00", "head-minus-0"],
)
def test_parse_refuses_an_id_or_head_it_could_not_write_back(text, line, message):
    with pytest.raises(ConlluError) as err:
        parse_conllu(text)
    assert str(err.value) == "line %d: %s" % (line, message)


@pytest.mark.parametrize(
    "text, line, message",
    [
        (mwt_text("0 a 0"), 1, "token id 0 breaks the 1..n sequence"),
        (mwt_text("1 a -1"), 1, "negative head -1"),
        (mwt_text("1 a -01"), 1, "negative head -1"),
    ],
)
def test_a_zero_id_and_negative_heads_keep_their_messages(text, line, message):
    with pytest.raises(ConlluError) as err:
        parse_conllu(text)
    assert str(err.value) == "line %d: %s" % (line, message)


def test_write_refuses_invalid_tree():
    s = make_sentence([2, 1], ["dep", "dep"])  # cycle, no root
    with pytest.raises(ValueError):
        write_conllu([s])


def test_validate_good_tree():
    s = parse_conllu(THE_BOOK)[0]
    report = validate_tree(s)
    assert report.ok and report.violations == ()


def test_validate_cycle_and_no_root():
    s = make_sentence([2, 1], ["dep", "dep"])
    report = validate_tree(s)
    kinds = {v[1] for v in report.violations}
    assert not report.ok
    assert "no-root" in kinds


def test_validate_multiple_roots():
    s = make_sentence([0, 0, 2], ["root", "root", "dep"])
    report = validate_tree(s)
    assert not report.ok
    assert any(v[1] == "multiple-roots" for v in report.violations)


def test_validate_matches_brute_force_on_random_graphs():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 10)
        heads = [rng.randint(0, n) for _ in range(n)]
        # skip self loops only when brute force also rejects them
        s = make_sentence(heads)
        assert validate_tree(s).ok == is_valid_tree(heads)


def test_projective_simple_cases():
    assert is_projective(parse_conllu(THE_BOOK)[0])
    # chain tree
    assert is_projective(make_sentence([2, 3, 4, 0]))
    # crossing structure: w_j heads w_i, w_i heads w_k
    assert not is_projective(make_sentence([2, 0, 1]))


def test_projective_matches_brute_force():
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.randint(1, 10)
        s = make_sentence(random_tree(rng, n))
        assert is_projective(s) == brute_force_projective(s)


def test_token_is_an_immutable_named_tuple():
    t = Token(3, "dog", upos="NOUN", head=2, deprel="nsubj")
    assert t == (3, "dog", "_", "NOUN", "_", "_", 2, "nsubj", "_", "_")
    assert hash(t) == hash(tuple(t))
    assert t == Token(id=3, form="dog", upos="NOUN", head=2, deprel="nsubj")
    assert repr(t) == (
        "Token(id=3, form='dog', lemma='_', upos='NOUN', xpos='_', feats='_', "
        "head=2, deprel='nsubj', deps='_', misc='_')"
    )
    for field in Token._fields:
        with pytest.raises(AttributeError):
            setattr(t, field, getattr(t, field))
    with pytest.raises(AttributeError):
        t.extra = 1


def random_corpus(seed: int, count: int, max_len: int = 12) -> list[Sentence]:
    rng = random.Random(seed)
    return [
        random_conllu_sentence(rng, rng.randint(1, max_len), rng.choice(SHAPES))
        for _ in range(count)
    ]


def test_validate_matches_per_token_walk_on_random_corpora():
    seen = set()
    for s in random_corpus(21, 3000):
        got = validate_tree(s)
        assert got == ref_validate_tree(s)
        seen.add(got.violations[0][1] if got.violations else "ok")
    # the corpora reach every verdict the validator can give
    assert seen == {
        "ok", "cycle", "self-loop", "multiple-roots", "no-root",
        "head-range", "empty-deprel", "id-sequence",
    }


def test_validate_deep_chains_match_per_token_walk():
    rng = random.Random(5)
    for n in (1, 2, 50, 400):
        for shape in ("chain", "cycle", "tree"):
            s = random_conllu_sentence(rng, n, shape)
            assert validate_tree(s) == ref_validate_tree(s)


def test_token_line_matches_field_by_field_join():
    for s in random_corpus(22, 300):
        for t in s.tokens:
            assert conllu._token_line(t) == ref_token_line(t)


def test_write_matches_reference_bytes_on_random_corpora():
    corpus = random_corpus(23, 2000)
    valid = [s for s in corpus if ref_validate_tree(s).ok]
    lines = [line for s in valid for _, line in s.other_lines]
    ids = [line.split("\t", 1)[0] for line in lines if not line.startswith("#")]
    # the valid sentences hold comments, multiword ranges and empty nodes
    assert len(ids) < len(lines) and any("-" in i for i in ids) and any("." in i for i in ids)
    text = write_conllu(valid)
    assert text == ref_write_conllu(valid)
    assert parse_conllu(text) == valid
    for s in corpus:
        try:
            want = ref_write_conllu([s])
        except ValueError as e:
            with pytest.raises(ValueError) as err:
                write_conllu([s])
            assert str(err.value) == str(e)
        else:
            assert write_conllu([s]) == want


def test_with_arcs_matches_replace_and_keeps_unchanged_tokens():
    rng = random.Random(24)
    for s in random_corpus(24, 500):
        n = len(s)
        if [t.id for t in s.tokens] != list(range(1, n + 1)):
            continue  # arcs are given per id, so ids must be 1..n
        heads, deprels = s.heads(), s.deprels()
        for d in range(1, n + 1):
            if rng.random() < 0.4:
                heads[d] = rng.randint(0, n)
            if rng.random() < 0.3:
                deprels[d] = rng.choice(["dep", "root", deprels[d]])
        got = s.with_arcs(heads, deprels)
        assert got == ref_with_arcs(s, heads, deprels)
        for old, new in zip(s.tokens, got.tokens):
            assert type(new) is Token
            unchanged = (old.head, old.deprel) == (heads[old.id], deprels[old.id])
            assert (new is old) == unchanged


def test_file_writers_keep_the_old_file_when_the_rename_fails(tmp_path, monkeypatch):
    """save_model and write_conllu_file write aside and rename: a failure
    before the rename leaves the old file whole and no temporary behind."""
    sents = parse_conllu(THE_BOOK)
    model_p, conllu_p = tmp_path / "model.txt", tmp_path / "out.conllu"
    save_model(train(sents, None, Hyperparameters(epochs=1), 1), str(model_p))
    write_conllu_file(str(conllu_p), sents)
    old_model, old_conllu = model_p.read_bytes(), conllu_p.read_bytes()
    relabeled = parse_conllu(THE_BOOK.replace("det", "amod"))
    other = train(relabeled, None, Hyperparameters(epochs=1), 1)

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        save_model(other, str(model_p))
    with pytest.raises(OSError):
        write_conllu_file(str(conllu_p), [make_sentence([0, 1])])
    assert model_p.read_bytes() == old_model
    assert conllu_p.read_bytes() == old_conllu
    assert sorted(os.listdir(tmp_path)) == ["model.txt", "out.conllu"]
