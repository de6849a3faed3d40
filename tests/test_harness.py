import errno
import glob
import json
import os

import pytest

from udscheme import conllu, harness
from udscheme.conllu import write_conllu_file
from udscheme.harness import (
    ExperimentConfig,
    TreebankSpec,
    _Cache,
    emit_reports,
    load_config,
    run_experiment,
)
from udscheme.parsing.perceptron import Hyperparameters
from udscheme.transform import Transformation

from synth import synth_corpus


def write_treebank(tmp_path, lang="xx", n_train=30, n_dev=6, n_test=10):
    paths = {}
    for split, n, seed in (("train", n_train, 1), ("dev", n_dev, 2), ("test", n_test, 3)):
        p = str(tmp_path / ("%s-%s.conllu" % (lang, split)))
        write_conllu_file(p, synth_corpus(n, seed=seed * 1000))
        paths[split] = p
    return paths


def write_config(tmp_path, paths, out_dir, seeds="1 2", transformations=None, epochs=2):
    lines = [
        "[experiment]",
        "seeds = %s" % seeds,
        "output_dir = %s" % out_dir,
    ]
    if transformations:
        lines.append("transformations = %s" % transformations)
    lines += [
        "[parser]",
        "epochs = %d" % epochs,
        "[treebank:xx]",
        "train = %s" % paths["train"],
        "dev = %s" % paths["dev"],
        "test = %s" % paths["test"],
    ]
    cfg = tmp_path / "exp.ini"
    cfg.write_text("\n".join(lines) + "\n")
    return str(cfg)


def test_load_config(tmp_path):
    paths = write_treebank(tmp_path)
    cfg_path = write_config(tmp_path, paths, str(tmp_path / "out"))
    cfg = load_config(cfg_path)
    assert cfg.seeds == [1, 2]
    assert cfg.hp.epochs == 2
    assert [t.value for t in cfg.transformations] == [
        t.value for t in Transformation
    ]
    assert cfg.treebanks[0].language == "xx"


def test_load_config_reads_percent_signs_literally(tmp_path):
    d = tmp_path / "100%(x)s %"
    d.mkdir()
    paths = write_treebank(d)
    cfg = load_config(write_config(tmp_path, paths, str(d / "out%")))
    assert cfg.treebanks == [TreebankSpec("xx", paths["train"], paths["dev"], paths["test"])]
    assert cfg.output_dir == str(d / "out%")


def test_readme_config_example_loads(tmp_path):
    """The INI example in README.md, with its paths pointed at temp files."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    example = text.split("Experiment config format:", 1)[1].split("```ini\n", 1)[1]
    example = example.split("```", 1)[0]
    paths = write_treebank(tmp_path, lang="en")
    for split, path in paths.items():
        assert "/data/en-%s.conllu" % split in example
        example = example.replace("/data/en-%s.conllu" % split, path)
    assert "output_dir = out\n" in example
    example = example.replace("output_dir = out\n", "output_dir = %s\n" % (tmp_path / "out"))
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(example)
    cfg = load_config(str(cfg_path))
    assert cfg == ExperimentConfig(
        treebanks=[TreebankSpec("en", paths["train"], paths["dev"], paths["test"])],
        transformations=list(Transformation),
        seeds=[1, 2, 3],
        hp=Hyperparameters(epochs=10, explore_k=1, explore_p=0.9),
        output_dir=str(tmp_path / "out"),
    )
    # every key the loader knows is documented there
    for section, keys in harness.CONFIG_KEYS.items():
        assert "[%s" % section in example
        for key in keys:
            assert "\n%s " % key in example


def test_load_config_rejects_duplicate_seeds(tmp_path):
    paths = write_treebank(tmp_path)
    cfg_path = write_config(tmp_path, paths, str(tmp_path / "out"), seeds="1 1")
    with pytest.raises(ValueError):
        load_config(cfg_path)


def test_load_config_rejects_missing_files(tmp_path):
    paths = write_treebank(tmp_path)
    os.remove(paths["dev"])
    cfg_path = write_config(tmp_path, paths, str(tmp_path / "out"))
    with pytest.raises(FileNotFoundError):
        load_config(cfg_path)


def read_all(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = f.read()
    return out


def test_full_grid_run_cache_and_reports(tmp_path):
    paths = write_treebank(tmp_path)
    out_dir = str(tmp_path / "out")
    cfg = load_config(write_config(tmp_path, paths, out_dir))

    report = run_experiment(cfg)
    assert len(report.rows) == len(Transformation)
    assert not report.errors
    # 2 UD-side trainings (shared) + 2 per non-excluded transformation
    active = [r for r in report.rows if not r.excluded]
    assert report.trainings_executed == 2 + 2 * len(active)
    emit_reports(report, out_dir)

    expected = [
        "rows.tsv",
        os.path.join("tables", "ud_wins.tsv"),
        os.path.join("tables", "top_positive.tsv"),
        os.path.join("tables", "top_negative.tsv"),
        os.path.join("tables", "coherence.tsv"),
        "hist.tsv",
        "hist.svg",
        "summary.json",
    ]
    for rel in expected:
        assert os.path.exists(os.path.join(out_dir, rel)), rel

    with open(os.path.join(out_dir, "summary.json")) as f:
        summary = json.load(f)
    assert summary["rows"] == len(report.rows)
    assert summary["positive_diffs"] + summary["negative_diffs"] <= len(active)

    # histogram bins sum to the number of non-excluded rows
    with open(os.path.join(out_dir, "hist.tsv")) as f:
        bins = [line.split("\t") for line in f.read().splitlines()[1:]]
    assert sum(int(b[2]) for b in bins) == len(active)

    before = read_all(out_dir)

    # rerun: nothing trains, reports byte-identical
    report2 = run_experiment(cfg)
    assert report2.trainings_executed == 0
    assert report2.summary == report.summary
    emit_reports(report2, out_dir)
    assert read_all(out_dir) == before


def test_noop_transformation_is_excluded(tmp_path):
    # a corpus with no mwe/goeswith arcs: the MWE cell must be excluded
    corpus = [s for s in synth_corpus(20) if all(
        t.deprel not in ("mwe", "goeswith") for t in s.tokens
    )]
    for split in ("train", "dev", "test"):
        write_conllu_file(str(tmp_path / ("%s.conllu" % split)), corpus)
    cfg = ExperimentConfig(
        treebanks=[TreebankSpec(
            "yy",
            str(tmp_path / "train.conllu"),
            str(tmp_path / "dev.conllu"),
            str(tmp_path / "test.conllu"),
        )],
        transformations=[Transformation.MWE],
        seeds=[1],
        hp=Hyperparameters(epochs=1),
        output_dir=str(tmp_path / "out"),
    )
    report = run_experiment(cfg)
    assert len(report.rows) == 1
    assert report.rows[0].excluded
    # excluded cells train nothing beyond the shared UD side
    assert report.trainings_executed == 1


# a bad split's bytes, the line its error names and the error
BAD_SPLITS = {
    "not-utf8": (b"# sent_id = 1\n1\tcaf\xe9\t_\tX\t_\t_\t0\troot\t_\t_\n\n", 2,
                 "byte 0xe9 is not UTF-8"),
    "columns": (b"1\tonly\ttwo\tcolumns\n\n", 1, "expected 10 columns, got 4"),
    "cycle": (b"1\ta\t_\tX\t_\t_\t2\tdep\t_\t_\n2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n"
              b"3\tc\t_\tX\t_\t_\t0\troot\t_\t_\n\n", 1, "token 1 is caught in a head cycle"),
    "deleted": (None, None, None),
}


@pytest.mark.parametrize("fault", sorted(BAD_SPLITS))
def test_broken_treebank_recorded_not_fatal(tmp_path, fault):
    """A treebank whose dev split cannot be read, or holds an invalid tree,
    is one error naming the split, and the treebank after it runs as if it
    were alone (these errors were pinned before lookups came first)."""
    bad = write_treebank(tmp_path, lang="bad", n_train=5, n_dev=2, n_test=2)
    data, line, message = BAD_SPLITS[fault]
    if data is not None:
        with open(bad["dev"], "wb") as f:
            f.write(data)
    good = write_treebank(tmp_path, n_train=8, n_dev=3, n_test=4)
    out_dir = str(tmp_path / "out")
    ini = write_config(tmp_path, good, out_dir, seeds="1", transformations="det", epochs=1)
    with open(ini, encoding="utf-8") as f:
        text = f.read()
    section = "[treebank:bad]\ntrain = %(train)s\ndev = %(dev)s\ntest = %(test)s\n" % bad
    with open(ini, "w", encoding="utf-8") as f:
        f.write(text.replace("[treebank:xx]", section + "[treebank:xx]"))
    cfg = load_config(ini)
    if data is None:
        os.remove(bad["dev"])
        error = "[Errno 2] No such file or directory: %r" % bad["dev"]
    else:
        error = "%s:%d: %s" % (bad["dev"], line, message)
    report = run_experiment(cfg)
    assert report.errors == [("bad", "*", error)]
    assert [tb.language for tb in cfg.treebanks] == ["bad", "xx"]
    assert not glob.glob(os.path.join(out_dir, "cache", "bad.*"))

    cfg.treebanks = cfg.treebanks[1:]
    cfg.output_dir = str(tmp_path / "alone")
    alone = run_experiment(cfg)
    assert alone.trainings_executed == report.trainings_executed == 2
    assert report.rows == alone.rows and report.metrics == alone.metrics


def test_empty_rows_emit_without_failure(tmp_path):
    from udscheme.harness import ExperimentReport

    report = ExperimentReport()
    report.summary = {"rows": 0}
    out_dir = str(tmp_path / "out")
    os.makedirs(out_dir)
    written = emit_reports(report, out_dir)
    assert any(p.endswith("hist.svg") for p in written)


def test_truncated_cache_entry_is_recomputed(tmp_path, monkeypatch):
    paths = write_treebank(tmp_path, n_train=12, n_dev=4, n_test=6)
    out_dir = str(tmp_path / "out")
    cfg = load_config(
        write_config(tmp_path, paths, out_dir, seeds="1", transformations="det")
    )
    emit_reports(run_experiment(cfg), out_dir)
    before = read_all(out_dir)

    # a fully cached rerun hashes the splits and parses none of them
    def refuse(*args):
        raise AssertionError("a fully cached rerun parsed a split")

    with monkeypatch.context() as m:
        m.setattr(harness, "read_conllu_file", refuse)
        m.setattr(conllu, "parse_conllu", refuse)
        report = run_experiment(cfg)
    assert report.trainings_executed == 0 and not report.errors
    emit_reports(report, out_dir)
    assert read_all(out_dir) == before

    (entry,) = glob.glob(os.path.join(out_dir, "cache", "xx.det.*.json"))
    with open(entry, "r+b") as f:
        f.truncate(os.path.getsize(entry) // 2)
    report = run_experiment(cfg)
    assert report.trainings_executed == 1  # only the corrupt cell retrains
    emit_reports(report, out_dir)
    assert read_all(out_dir) == before


def test_failed_cache_write_keeps_previous_entry(tmp_path):
    cache = _Cache(str(tmp_path))
    cache.put("cell", {"uas": 90.0})
    with pytest.raises(TypeError):
        cache.put("cell", {"uas": object()})  # not JSON-serializable mid-write
    assert cache.get("cell") == {"uas": 90.0}
    assert os.listdir(cache.dir) == ["cell.json"]


def test_only_changed_reports_are_rewritten(tmp_path):
    from udscheme.harness import ExperimentReport

    report = ExperimentReport()
    report.summary = {"rows": 0}
    out_dir = str(tmp_path / "out")
    os.makedirs(out_dir)
    paths = emit_reports(report, out_dir)
    inodes = {p: os.stat(p).st_ino for p in paths}
    emit_reports(report, out_dir)  # same bytes: every file is left in place
    assert {p: os.stat(p).st_ino for p in paths} == inodes
    report.summary = {"rows": 1}
    emit_reports(report, out_dir)
    changed = [p for p in paths if os.stat(p).st_ino != inodes[p]]
    assert changed == [os.path.join(out_dir, "summary.json")]
    with open(changed[0]) as f:
        assert json.load(f) == {"rows": 1}


class _HalfWriter:
    """A file that writes half of what it is given, then fails as a full
    disk would."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        self.f.write(text[: len(text) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_interrupted_report_write_keeps_previous_summary(tmp_path, monkeypatch):
    from udscheme.harness import ExperimentReport

    report = ExperimentReport()
    report.summary = {"rows": 0}
    out_dir = str(tmp_path / "out")
    os.makedirs(out_dir)
    emit_reports(report, out_dir)
    before = read_all(out_dir)

    def open_failing_summary(path, mode="r", **kw):
        f = open(path, mode, **kw)
        if "w" in mode and os.path.basename(path).startswith("summary.json"):
            return _HalfWriter(f)
        return f

    # reports are written by conllu.write_atomic
    monkeypatch.setattr(conllu, "open", open_failing_summary, raising=False)
    report.summary = {"rows": 1}
    with pytest.raises(OSError):
        emit_reports(report, out_dir)
    assert read_all(out_dir) == before  # no torn summary.json, no leftovers


def _small_grid(tmp_path, epochs=1):
    paths = write_treebank(tmp_path, n_train=8, n_dev=3, n_test=4)
    out_dir = str(tmp_path / "out")
    cfg = write_config(tmp_path, paths, out_dir, seeds="1", transformations="det", epochs=epochs)
    return paths, out_dir, cfg


def test_changed_epochs_retrain(tmp_path):
    paths, out_dir, cfg = _small_grid(tmp_path, epochs=1)
    assert run_experiment(load_config(cfg)).trainings_executed == 2
    cfg = write_config(tmp_path, paths, out_dir, seeds="1", transformations="det", epochs=2)
    assert run_experiment(load_config(cfg)).trainings_executed == 2


def test_edited_train_file_retrains(tmp_path):
    paths, out_dir, cfg = _small_grid(tmp_path)
    assert run_experiment(load_config(cfg)).trainings_executed == 2
    with open(paths["train"], encoding="utf-8") as f:
        text = f.read()
    with open(paths["train"], "w", encoding="utf-8") as f:
        f.write("# edited\n" + text)
    assert run_experiment(load_config(cfg)).trainings_executed == 2


def test_unchanged_rerun_trains_nothing_and_keeps_cache(tmp_path):
    _, out_dir, cfg = _small_grid(tmp_path)
    run_experiment(load_config(cfg))
    cache = read_all(os.path.join(out_dir, "cache"))
    assert run_experiment(load_config(cfg)).trainings_executed == 0
    assert read_all(os.path.join(out_dir, "cache")) == cache


def test_one_cache_entry_per_scheme(tmp_path, monkeypatch):
    paths = write_treebank(tmp_path, n_train=8, n_dev=3, n_test=4)
    out_dir = str(tmp_path / "out")
    names = " ".join(t.value for t in Transformation)
    cfg = load_config(write_config(tmp_path, paths, out_dir, seeds="1", transformations=names))
    report = run_experiment(cfg)
    assert any(r.excluded for r in report.rows)
    schemes = ["ud"] + [t.value for t in Transformation]
    entries = sorted(os.listdir(os.path.join(out_dir, "cache")))
    assert [e.split(".")[1] for e in entries] == sorted(schemes)  # excluded ones too
    trained = report.trainings_executed

    lookups = []
    real_get = _Cache.get
    monkeypatch.setattr(_Cache, "get", lambda self, *a: lookups.append(a[0]) or real_get(self, *a))
    assert run_experiment(cfg).trainings_executed == 0
    assert len(lookups) == len(schemes)

    # one missing entry: the splits are read once, and only its scheme trains
    (entry,) = glob.glob(os.path.join(out_dir, "cache", "xx.ud.*.json"))
    os.remove(entry)
    reads = []
    real_read = harness.read_conllu_file
    monkeypatch.setattr(harness, "read_conllu_file", lambda p: reads.append(p) or real_read(p))
    report = run_experiment(cfg)
    assert report.trainings_executed == 1 and not report.errors
    assert reads == [paths["train"], paths["dev"], paths["test"]]
    assert sorted(os.listdir(os.path.join(out_dir, "cache"))) == entries

    # every entry is named by the seed list, so a new one retrains every scheme
    cfg = load_config(write_config(tmp_path, paths, out_dir, seeds="1 2", transformations=names))
    assert run_experiment(cfg).trainings_executed == 2 * trained


@pytest.mark.parametrize(
    "entry, content, retrained",
    [
        ("xx.det", "[]", 1),
        ("xx.det", '{"uas": {"1": 90.0}}', 1),  # no "excluded"
        ("xx.det", '{"excluded": false}', 1),  # no "uas", no "metrics"
        ("xx.det", '{"excluded": false, "uas": {}, "metrics": {}}', 1),  # no seed 1
        ("xx.det", '{"excluded": 0, "uas": {"1": "x"}, "metrics": {}}', 1),
        ("xx.ud", "{}", 1),
        ("xx.ud", "[90.0]", 1),
        ("xx.ud", '"distance"', 1),
        ("xx.ud", '{"distance": 2.0}', 1),
        ("xx.ud", '{"excluded": true}', 1),  # the UD scheme is never excluded
    ],
)
def test_wrong_shape_cache_entry_is_recomputed(tmp_path, entry, content, retrained):
    paths = write_treebank(tmp_path, n_train=12, n_dev=4, n_test=6)
    out_dir = str(tmp_path / "out")
    cfg = load_config(
        write_config(tmp_path, paths, out_dir, seeds="1", transformations="det")
    )
    emit_reports(run_experiment(cfg), out_dir)
    before = read_all(out_dir)

    (path,) = glob.glob(os.path.join(out_dir, "cache", entry + ".*.json"))
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)
    report = run_experiment(cfg)
    assert report.trainings_executed == retrained
    assert not report.errors
    emit_reports(report, out_dir)
    assert read_all(out_dir) == before  # the entry is overwritten as well


def test_split_edited_during_a_run_is_an_error_of_its_treebank(tmp_path, monkeypatch):
    """Entries are named by the split bytes hashed before any is read: a
    split whose bytes differ once read is refused, so no entry or row mixes
    the old bytes with the new ones. The next run reads the new bytes."""
    paths, out_dir, ini = _small_grid(tmp_path)
    real_read = harness.read_conllu_file

    def read_then_edit(path):
        sentences = real_read(path)
        if path == paths["train"]:
            with open(path, encoding="utf-8") as f:
                text = f.read()
            with open(path, "w", encoding="utf-8") as f:
                f.write("# edited\n" + text)
        return sentences

    monkeypatch.setattr(harness, "read_conllu_file", read_then_edit)
    report = run_experiment(load_config(ini))
    error = "%s: changed while the experiment ran" % paths["train"]
    assert report.errors == [("xx", "*", error)]
    assert report.rows == [] and report.metrics == {} and report.trainings_executed == 0
    assert os.listdir(os.path.join(out_dir, "cache")) == []

    monkeypatch.setattr(harness, "read_conllu_file", real_read)
    report = run_experiment(load_config(ini))
    assert not report.errors and report.trainings_executed == 2
    assert len(report.rows) == 1 and len(os.listdir(os.path.join(out_dir, "cache"))) == 2
    assert run_experiment(load_config(ini)).trainings_executed == 0


def test_ud_side_failure_skips_only_its_treebank(tmp_path, monkeypatch):
    bad = write_treebank(tmp_path, lang="bad", n_train=5, n_dev=2, n_test=2)
    good = write_treebank(tmp_path, lang="xx", n_train=8, n_dev=3, n_test=4)
    real_train = harness.train

    def failing_train(train_set, *args, **kwargs):
        if len(train_set) == 5:
            raise RuntimeError("no convergence")
        return real_train(train_set, *args, **kwargs)

    monkeypatch.setattr(harness, "train", failing_train)
    cfg = ExperimentConfig(
        treebanks=[
            TreebankSpec("bad", bad["train"], bad["dev"], bad["test"]),
            TreebankSpec("xx", good["train"], good["dev"], good["test"]),
        ],
        transformations=[Transformation.DET, Transformation.CASE],
        seeds=[1],
        hp=Hyperparameters(epochs=1),
        output_dir=str(tmp_path / "out"),
    )
    report = run_experiment(cfg)
    assert report.errors == [("bad", "ud", "no convergence")]
    assert [(r.language, r.transformation) for r in report.rows] == [
        ("xx", Transformation.DET), ("xx", Transformation.CASE)
    ]
    assert {lang for lang, _ in report.metrics} == {"xx"}
    assert report.summary["errors"] == 1


def test_summary_mean_abs_diff_adds_left_to_right():
    # as the seed means: no compensated sum(), whatever the Python version
    from udscheme.evaluate import ComparisonRow

    report = harness.ExperimentReport()
    for diff in (0.1, -0.2, 0.3, None):
        report.rows.append(ComparisonRow("xx", Transformation.CASE, 1.0, 1.0, diff, diff is None))
    harness._compute_summary(report)
    assert report.summary["mean_abs_diff"] == (0.1 + 0.2 + 0.3) / 3 == 0.20000000000000004
    assert report.summary["excluded"] == 1
