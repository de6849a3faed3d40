"""Experiment orchestration over (treebank x scheme x seed) grids.

A treebank's schemes are the UD scheme, as read, then each configured
transformation of it. Each scheme is one task: per seed, a model is trained,
parsed and scored on the scheme's own test split, and the scheme's training
split is measured. A transformation that changes no split is excluded and
trains nothing. A failing scheme is recorded and the rest of the grid runs;
a failing UD scheme skips its treebank, whose cells are compared against it.
A read split with a tree that is not valid (`conllu` says where trees are
checked) is recorded against the treebank and skips the rest of it; a
transformed split's is recorded against its scheme. Both are checked by one
call and named by the split's file and the line of the tree's token.

Each scheme's result is one JSON cache entry under <output_dir>/cache, named
by a sha256 of the bytes of the three splits, the hyperparameters, the seed
list, the scheme and the result format. A rerun over a completed directory
trains nothing and reproduces the reports byte for byte; a changed split,
hyperparameter or seed list retrains every scheme of its treebank, UD
included. Entries and reports are written atomically; an entry that does not
decode, or has another shape than `_run_scheme` writes, is recomputed.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from .conllu import ConlluError, check_trees, read_conllu_file, read_text, write_atomic
from .evaluate import ComparisonRow, compare_schemes, corpus_uas, metric_coherence
from .metrics import MEASURE_NAMES, compute_report, metric_dict
from .parsing.perceptron import Hyperparameters, parse, train
from .transform import Transformation, apply_transformation

COHERENCE_NOTE = (
    "# coherence = the metric's preferred scheme (lower value) is the scheme "
    "with the higher UAS; ties in UAS are skipped and counted separately"
)

# part of every cache entry's name (one entry per (treebank, scheme), the UD
# scheme included; the module docstring says what names a new one): change it
# when what an entry holds, or how it is computed, changes, so older entries
# are no longer read
CACHE_FORMAT = 2


@dataclass(frozen=True)
class TreebankSpec:
    language: str
    train: str
    dev: str
    test: str


@dataclass
class ExperimentConfig:
    treebanks: list[TreebankSpec]
    transformations: list[Transformation]
    seeds: list[int]
    hp: Hyperparameters
    output_dir: str


@dataclass
class ExperimentReport:
    rows: list[ComparisonRow] = field(default_factory=list)
    # (language, scheme-name) -> metric dict
    metrics: dict[tuple[str, str], dict] = field(default_factory=dict)
    # metric name -> (coherent, comparable, ties)
    coherence: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    errors: list[tuple[str, str, str]] = field(default_factory=list)
    trainings_executed: int = 0


# what each [parser] key is read as; the bounds are Hyperparameters' own
_PARSER_KINDS = {
    "epochs": (int, "an integer"),
    "explore_k": (int, "an integer"),
    "explore_p": (float, "a number"),
}
# the keys each section may hold; a [treebank:<language>] section needs all three
CONFIG_KEYS = {
    "experiment": ("seeds", "transformations", "output_dir"),
    "parser": tuple(_PARSER_KINDS),
    "treebank:": ("train", "dev", "test"),
}


def _ini_error(path: str, e: configparser.Error) -> ValueError:
    """One `path:line: message` error for an INI file configparser cannot read."""
    if isinstance(e, configparser.DuplicateSectionError):
        line, problem = e.lineno, "[%s] is given twice" % e.section
    elif isinstance(e, configparser.DuplicateOptionError):
        line, problem = e.lineno, "[%s] %s: given twice" % (e.section, e.option)
    elif isinstance(e, configparser.MissingSectionHeaderError):
        line, problem = e.lineno, "no [section] header before this line"
    else:  # ParsingError
        line, problem = e.errors[0][0], "expected [section] or key = value"
    return ValueError("%s:%d: %s" % (path, line, problem))


def load_config(path: str) -> ExperimentConfig:
    """Read an INI experiment config. A line the INI reader cannot read
    raises ValueError naming the file and the line; an unknown or missing
    section or key, or a value that does not parse or is out of range, one
    naming the file (and the section and key). Values are literal: `%`
    interpolates nothing. A language names files in the cache and fills a
    TSV field, so it must be non-empty, without a path separator or a tab."""
    # no header can name the empty section, so no section holds defaults that
    # every other one inherits: `[DEFAULT]` is an unknown section like any other
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(read_text(path), source=path)
    except (configparser.ParsingError, configparser.DuplicateSectionError,
            configparser.DuplicateOptionError) as e:
        raise _ini_error(path, e) from None

    def bad(section: str, key: str | None, problem: str) -> ValueError:
        where = "[%s]" % section if key is None else "[%s] %s" % (section, key)
        return ValueError("%s: %s: %s" % (path, where, problem))

    for section in cp.sections():
        keys = CONFIG_KEYS.get("treebank:" if section.startswith("treebank:") else section)
        if keys is None:
            raise bad(section, None, "unknown section (one of: [experiment] [parser] "
                      "[treebank:<language>])")
        for key in cp[section]:
            if key not in keys:
                raise bad(section, key, "unknown key (one of: %s)" % " ".join(keys))
    if not cp.has_section("experiment"):
        raise ValueError("%s: no [experiment] section" % path)

    def convert(section: str, key: str, text: str, kind, what: str):
        try:
            return kind(text)
        except ValueError:
            raise bad(section, key, "%r is not %s" % (text, what)) from None

    def listed_once(key: str, values: list, name) -> None:
        for i, v in enumerate(values):
            if v in values[:i]:
                raise bad("experiment", key, "%s is listed twice" % name(v))

    exp = cp["experiment"]
    seeds = [
        convert("experiment", "seeds", x, int, "an integer")
        for x in exp.get("seeds", "1 2 3").split()
    ]
    if not seeds:
        raise bad("experiment", "seeds", "no seeds given")
    listed_once("seeds", seeds, lambda seed: "seed %d" % seed)
    names = " ".join(t.value for t in Transformation)
    transformations = [
        convert("experiment", "transformations", x, Transformation,
                "a transformation (one of: %s)" % names)
        for x in exp.get("transformations", names).split()
    ]
    listed_once("transformations", transformations, lambda t: repr(t.value))

    given = {
        key: convert("parser", key, cp.get("parser", key), kind, what)
        for key, (kind, what) in _PARSER_KINDS.items()
        if cp.has_option("parser", key)
    }
    try:
        hp = Hyperparameters(**given)
    except ValueError as e:  # Hyperparameters says `<key>: <bound>`
        raise ValueError("%s: [parser] %s" % (path, e)) from None
    output_dir = exp.get("output_dir", "out")
    if not output_dir:
        raise bad("experiment", "output_dir", "must not be empty")

    treebanks = []
    for section in cp.sections():
        if not section.startswith("treebank:"):
            continue
        language = section.split(":", 1)[1]
        if not language or any(c in language for c in "/\\\t"):
            raise bad(section, None, "the language must be non-empty, without '/', '\\' or a tab")
        for key in CONFIG_KEYS["treebank:"]:
            if not cp.has_option(section, key):
                raise ValueError("%s: [%s] has no %r key" % (path, section, key))
        tb = TreebankSpec(
            language=language,
            train=cp.get(section, "train"),
            dev=cp.get(section, "dev"),
            test=cp.get(section, "test"),
        )
        for p in (tb.train, tb.dev, tb.test):
            if not os.path.exists(p):
                raise FileNotFoundError("treebank file missing: %s" % p)
        treebanks.append(tb)
    if not treebanks:
        raise ValueError("%s: no [treebank:<lang>] sections" % path)
    return ExperimentConfig(
        treebanks=treebanks,
        transformations=transformations,
        seeds=seeds,
        hp=hp,
        output_dir=output_dir,
    )


def _entry_name(label: str, **inputs) -> str:
    """A cache entry's name: a readable label and the sha256 of the label,
    the result format and every input the entry's value depends on."""
    blob = json.dumps(dict(inputs, label=label, format=CACHE_FORMAT), sort_keys=True)
    return "%s.%s" % (label, hashlib.sha256(blob.encode("utf-8")).hexdigest())


def _file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class _Cache:
    def __init__(self, root: str):
        self.dir = os.path.join(root, "cache")
        os.makedirs(self.dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name + ".json")

    def get(self, name: str, valid=None):
        """The cached value, or None for an entry that is missing, does not
        decode, or fails `valid` (a corrupt entry is recomputed and
        overwritten)."""
        try:
            with open(self.path(name), encoding="utf-8") as f:
                value = json.load(f)
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return value if valid is None or valid(value) else None

    def put(self, name: str, value) -> None:
        write_atomic(self.path(name), json.dumps(value, sort_keys=True))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    os.makedirs(cfg.output_dir, exist_ok=True)
    cache = _Cache(cfg.output_dir)
    report = ExperimentReport()
    hp = dataclasses.asdict(cfg.hp)

    for tb in cfg.treebanks:
        try:
            paths = (tb.train, tb.dev, tb.test)
            corpora = [read_conllu_file(p) for p in paths]
            splits = [_file_sha256(p) for p in paths]
        except Exception as e:  # record and move on to the next treebank
            report.errors.append((tb.language, "*", str(e)))
            continue
        checked = False  # whether the splits' trees have been checked

        for transfo in [None, *cfg.transformations]:
            scheme = "ud" if transfo is None else transfo.value
            key = _entry_name(
                "%s.%s" % (tb.language, scheme), splits=splits, hp=hp, seeds=cfg.seeds
            )
            entry = cache.get(key, lambda value: _is_entry(value, transfo, cfg.seeds))
            if entry is None:
                if not checked:
                    try:
                        for p, c in zip(paths, corpora):
                            check_trees(c, p)
                    except ConlluError as e:
                        report.errors.append((tb.language, "*", str(e)))
                        break
                    checked = True
                try:
                    entry = _run_scheme(tb, transfo, corpora, cfg, report)
                except Exception as e:
                    report.errors.append((tb.language, scheme, str(e)))
                    if transfo is None:
                        break  # the cells are compared against the UD scheme
                    continue
                cache.put(key, entry)
            excluded = entry["excluded"]
            scores = [] if excluded else [entry["uas"][str(s)] for s in cfg.seeds]
            if not excluded:
                report.metrics[(tb.language, scheme)] = entry["metrics"]
            if transfo is None:
                ud_scores = scores
            else:
                report.rows.append(
                    compare_schemes(tb.language, transfo, ud_scores, scores, excluded)
                )

    _compute_coherence(report)
    _compute_summary(report)
    return report


def _run_scheme(tb, transfo, corpora, cfg, report) -> dict:
    """The cache entry of one scheme of treebank `tb`: its test UAS for every
    seed and the four measures of its training split. `transfo` None is the
    UD scheme, used as read; a transformation that changes none of the
    splits is excluded and trains nothing. A transformed split that is not
    a valid tree is refused as a read one is, at `<split file>:<line>`."""
    if transfo is not None:
        results = [apply_transformation(c, transfo) for c in corpora]
        for path, r in zip((tb.train, tb.dev, tb.test), results):
            check_trees(r.sentences, path)
        if not any(r.changed for r in results):
            return {"excluded": True}
        corpora = [r.sentences for r in results]
    train_c, dev_c, test_c = corpora
    scores: dict[str, float] = {}
    for seed in cfg.seeds:
        model = train(train_c, dev_c, cfg.hp, seed)
        predicted = [parse(model, s) for s in test_c]
        # each scheme is scored against its own test reference
        scores[str(seed)] = corpus_uas(test_c, predicted)
        report.trainings_executed += 1
    scheme = "ud" if transfo is None else transfo.value
    metrics = metric_dict(compute_report(train_c, "%s/%s" % (tb.language, scheme)))
    return {"excluded": False, "uas": scores, "metrics": metrics}


def _is_entry(value, transfo, seeds) -> bool:
    """Whether a decoded cache entry has the shape `_run_scheme` gives it,
    down to every value `run_experiment` reads: `excluded` a bool (false for
    the UD scheme) and, unless excluded, a number in `uas` for each seed and
    each of the four measures in `metrics`, as a number or null."""
    # exact types, since a JSON true is a Python int; a missing measure reads
    # as "", which is not a number
    if not isinstance(value, dict) or type(value.get("excluded")) is not bool:
        return False
    if value["excluded"]:
        return transfo is not None
    uas, metrics = value.get("uas"), value.get("metrics")
    return (
        isinstance(uas, dict)
        and all(type(uas.get(str(s))) in (int, float) for s in seeds)
        and isinstance(metrics, dict)
        and all(type(metrics.get(k, "")) in (int, float, type(None)) for k in MEASURE_NAMES)
    )


def _compute_coherence(report: ExperimentReport) -> None:
    for key, name in MEASURE_NAMES.items():
        coherent = comparable = ties = 0
        for row in report.rows:
            if row.excluded:
                continue
            m_ud = report.metrics.get((row.language, "ud"), {}).get(key)
            m_tr = report.metrics.get(
                (row.language, row.transformation.value), {}
            ).get(key)
            if m_ud is None or m_tr is None:
                continue
            if row.uas_ud == row.uas_transformed:
                ties += 1
                continue
            comparable += 1
            if metric_coherence(m_ud, m_tr, row.uas_ud, row.uas_transformed):
                coherent += 1
        report.coherence[name] = (coherent, comparable, ties)


def _compute_summary(report: ExperimentReport) -> None:
    diffs = [r.diff for r in report.rows if not r.excluded]
    nonzero = [d for d in diffs if d != 0]
    report.summary = {
        "rows": len(report.rows),
        "excluded": sum(1 for r in report.rows if r.excluded),
        "mean_abs_diff": sum(abs(d) for d in diffs) / len(diffs) if diffs else None,
        "max_abs_diff": max((abs(d) for d in diffs), default=None),
        "positive_diffs": sum(1 for d in diffs if d > 0),
        "negative_diffs": sum(1 for d in diffs if d < 0),
        "fraction_ud_better": (
            sum(1 for d in nonzero if d > 0) / len(nonzero) if nonzero else None
        ),
        "errors": len(report.errors),
    }


def _fmt(x) -> str:
    return "" if x is None else "%.2f" % x


def _tsv(header: tuple[str, ...], rows) -> str:
    """The one TSV layout: the header, then each row, fields joined by tabs,
    every line ending in a newline."""
    return "".join("\t".join(fields) + "\n" for fields in [header, *rows])


def emit_reports(report: ExperimentReport, output_dir: str) -> list[str]:
    """Write rows.tsv, the four tables, the diff histogram (TSV + SVG) and
    summary.json under output_dir; returns the paths written."""
    os.makedirs(os.path.join(output_dir, "tables"), exist_ok=True)
    written = []

    def emit(relpath: str, text: str) -> None:
        path = os.path.join(output_dir, relpath)
        write_atomic(path, text)
        written.append(path)

    header = ("language", "transformation", "uas_ud", "uas_transformed", "diff", "excluded")
    rows = [
        (r.language, r.transformation.value, _fmt(r.uas_ud), _fmt(r.uas_transformed),
         _fmt(r.diff), str(r.excluded).lower())
        for r in report.rows
    ]
    emit("rows.tsv", _tsv(header, rows))

    # per-transformation percentage of rows where the UD scheme won
    wins = []
    for t in Transformation:
        rows = [r for r in report.rows if r.transformation is t and not r.excluded]
        decided = [r for r in rows if r.diff != 0]
        pct = (
            100.0 * sum(1 for r in decided if r.diff > 0) / len(decided)
            if decided
            else None
        )
        wins.append((t.value, _fmt(pct), str(len(rows))))
    header = ("transformation", "ud_wins_pct", "rows")
    emit(os.path.join("tables", "ud_wins.tsv"), _tsv(header, wins))

    # top-5 positive and top-5 negative differences, one table each
    scored = [r for r in report.rows if not r.excluded and r.diff != 0]
    positive = sorted((r for r in scored if r.diff > 0), key=lambda r: -r.diff)[:5]
    negative = sorted((r for r in scored if r.diff < 0), key=lambda r: r.diff)[:5]
    header = ("language", "transformation", "uas_transformed", "uas_ud", "diff")
    for name, rows in (("top_positive", positive), ("top_negative", negative)):
        top = [
            (r.language, r.transformation.value, _fmt(r.uas_transformed), _fmt(r.uas_ud),
             _fmt(r.diff))
            for r in rows
        ]
        emit(os.path.join("tables", name + ".tsv"), _tsv(header, top))

    coherence = []
    for name in MEASURE_NAMES.values():
        coherent, comparable, ties = report.coherence.get(name, (0, 0, 0))
        pct = 100.0 * coherent / comparable if comparable else None
        coherence.append((name, _fmt(pct), str(coherent), str(comparable), str(ties)))
    coherence.append((COHERENCE_NOTE,))  # the last line: a row of one field
    header = ("metric", "coherent_pct", "coherent", "comparable", "uas_ties")
    emit(os.path.join("tables", "coherence.tsv"), _tsv(header, coherence))

    bins = _histogram([r.diff for r in report.rows if not r.excluded])
    counts = [("%.1f" % lo, "%.1f" % hi, str(count)) for lo, hi, count in bins]
    emit("hist.tsv", _tsv(("bin_lo", "bin_hi", "count"), counts))
    emit("hist.svg", _histogram_svg(bins))

    emit(
        "summary.json",
        json.dumps(report.summary, sort_keys=True, indent=2) + "\n",
    )
    return written


def _histogram(diffs: list[float], width: float = 0.5):
    """(bin_lo, bin_hi, count) triples covering all diffs, bin width 0.5 UAS."""
    if not diffs:
        return []
    lo_edge = math.floor(min(diffs) / width)
    hi_edge = math.floor(max(diffs) / width)
    bins = []
    for b in range(lo_edge, hi_edge + 1):
        lo, hi = b * width, (b + 1) * width
        count = sum(1 for d in diffs if lo <= d < hi)
        bins.append((lo, hi, count))
    return bins


def _histogram_svg(bins, bar_width: int = 24, height: int = 160) -> str:
    if not bins:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="200" height="60">\n<text x="10" y="30">no data</text>\n</svg>\n'
    peak = max(c for _, _, c in bins) or 1
    w = bar_width * len(bins) + 40
    h = height + 40
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (w, h)
    ]
    for i, (lo, _, count) in enumerate(bins):
        bh = int(height * count / peak)
        x = 20 + i * bar_width
        y = 10 + height - bh
        parts.append(
            '<rect x="%d" y="%d" width="%d" height="%d" fill="steelblue"/>'
            % (x, y, bar_width - 2, bh)
        )
        parts.append(
            '<text x="%d" y="%d" font-size="8" text-anchor="middle">%.1f</text>'
            % (x + bar_width // 2, height + 22, lo)
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
