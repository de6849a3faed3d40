"""Experiment orchestration over (treebank x transformation x seed) grids.

For each treebank the UD-side models depend only on the seed, so they are
trained once and shared across all transformation cells. Completed work is
cached as JSON under <output_dir>/cache. Each entry is named by a sha256 of
everything its value depends on (the bytes of the splits it reads, the
hyperparameters, the seed or seeds, the transformation and the result
format), so a rerun over a completed directory trains nothing and reproduces
the reports byte for byte, and a rerun with any of those changed recomputes
what they affect. Entries and reports are written atomically; an entry that
does not decode, or decodes to the wrong shape, is recomputed. A failing
cell, or a failing UD side (which skips that treebank's cells), is recorded
and the rest of the grid still runs.

Each treebank gets one feature-hash memo, shared by all of its trainings and
parses (the UD side and every cell, every seed) and dropped when the next
treebank starts. Its schemes mostly share feature strings, so each is hashed
about once per treebank; the memo only maps a string to its hash, so results
do not depend on it.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from .conllu import read_conllu_file
from .evaluate import ComparisonRow, compare_schemes, corpus_uas, metric_coherence
from .metrics import MEASURE_NAMES, compute_report, metric_dict
from .parsing.perceptron import Hyperparameters, parse, train
from .transform import Transformation, apply_transformation

COHERENCE_NOTE = (
    "# coherence = the metric's preferred scheme (lower value) is the scheme "
    "with the higher UAS; ties in UAS are skipped and counted separately"
)

# part of every cache entry's name: change it when what an entry holds, or
# how it is computed, changes, so older entries are no longer read
CACHE_FORMAT = 1


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


def load_config(path: str) -> ExperimentConfig:
    """Read an INI experiment config; a missing section or key, or a value
    that does not parse, raises ValueError naming the file (and the section
    and key)."""
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as f:
        cp.read_file(f)
    if not cp.has_section("experiment"):
        raise ValueError("%s: no [experiment] section" % path)

    def bad(section: str, key: str, problem: str) -> ValueError:
        return ValueError("%s: [%s] %s: %s" % (path, section, key, problem))

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

    def hyper(key: str, default, kind, what: str):
        text = cp.get("parser", key, fallback=None)
        return default if text is None else convert("parser", key, text, kind, what)

    hp = Hyperparameters(
        epochs=hyper("epochs", 10, int, "an integer"),
        explore_k=hyper("explore_k", 1, int, "an integer"),
        explore_p=hyper("explore_p", 0.9, float, "a number"),
    )
    if hp.epochs < 1:
        raise bad("parser", "epochs", "must be at least 1")

    treebanks = []
    for section in cp.sections():
        if not section.startswith("treebank:"):
            continue
        for key in ("train", "dev", "test"):
            if not cp.has_option(section, key):
                raise ValueError("%s: [%s] has no %r key" % (path, section, key))
        tb = TreebankSpec(
            language=section.split(":", 1)[1],
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
        output_dir=exp.get("output_dir", "out"),
    )


def _entry_name(label: str, **inputs) -> str:
    """A cache entry's name: a readable label and the sha256 of the label,
    the result format and every input the entry's value depends on."""
    blob = json.dumps(dict(inputs, label=label, format=CACHE_FORMAT), sort_keys=True)
    return "%s.%s" % (label, hashlib.sha256(blob.encode("utf-8")).hexdigest())


def _file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _write_atomic(path: str, text: str) -> None:
    """Write aside and rename, so no file is ever left half-written. A file
    that already holds `text` is left alone: a cached rerun rewrites every
    report unchanged, and renaming over a file just written makes ext4 flush
    it (auto_da_alloc)."""
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


class _Cache:
    def __init__(self, root: str):
        self.dir = os.path.join(root, "cache")
        os.makedirs(self.dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name + ".json")

    def get(self, name: str, *keys: str):
        """The cached value, or None for an entry that is missing, does not
        decode, or is not a dict with all of `keys` (a corrupt entry is
        recomputed and overwritten)."""
        try:
            with open(self.path(name), encoding="utf-8") as f:
                value = json.load(f)
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(value, dict) or not all(k in value for k in keys):
            return None
        return value

    def put(self, name: str, value) -> None:
        _write_atomic(self.path(name), json.dumps(value, sort_keys=True))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    os.makedirs(cfg.output_dir, exist_ok=True)
    cache = _Cache(cfg.output_dir)
    report = ExperimentReport()

    for tb in cfg.treebanks:
        try:
            train_c = read_conllu_file(tb.train)
            dev_c = read_conllu_file(tb.dev)
            test_c = read_conllu_file(tb.test)
            splits = {
                "train": _file_sha256(tb.train),
                "dev": _file_sha256(tb.dev),
                "test": _file_sha256(tb.test),
            }
        except Exception as e:  # record and move on to the next treebank
            report.errors.append((tb.language, "*", str(e)))
            continue
        hp = dataclasses.asdict(cfg.hp)
        memo: dict[str, int] = {}  # feature hashes, for this treebank only

        # UD-side: one training per seed, shared across the transformations;
        # the cells are compared against it, so they are skipped if it fails
        try:
            ud_scores: dict[int, float] = {}
            for seed in cfg.seeds:
                key = _entry_name(
                    "%s.ud.seed%d" % (tb.language, seed), splits=splits, hp=hp, seed=seed
                )
                cached = cache.get(key, "uas")
                if cached is None:
                    model = train(train_c, dev_c, cfg.hp, seed, memo=memo)
                    predicted = [parse(model, s, memo) for s in test_c]
                    cached = {"uas": corpus_uas(test_c, predicted)}
                    cache.put(key, cached)
                    report.trainings_executed += 1
                ud_scores[seed] = cached["uas"]

            key = _entry_name("%s.ud.metrics" % tb.language, train=splits["train"])
            cached = cache.get(key, *MEASURE_NAMES)
            if cached is None:
                cached = metric_dict(compute_report(train_c, tb.language + "/ud"))
                cache.put(key, cached)
            report.metrics[(tb.language, "ud")] = cached
        except Exception as e:
            report.errors.append((tb.language, "ud", str(e)))
            continue

        for transfo in cfg.transformations:
            key = _entry_name(
                "%s.%s" % (tb.language, transfo.value), splits=splits, hp=hp, seeds=cfg.seeds
            )
            cached = cache.get(key, "excluded")
            if cached is None:
                try:
                    cached = _run_cell(
                        tb, transfo, train_c, dev_c, test_c, cfg, report, memo
                    )
                except Exception as e:
                    report.errors.append((tb.language, transfo.value, str(e)))
                    continue
                cache.put(key, cached)
            if cached["excluded"]:
                report.rows.append(
                    compare_schemes(tb.language, transfo, [], [], excluded=True)
                )
                continue
            report.metrics[(tb.language, transfo.value)] = cached["metrics"]
            row = compare_schemes(
                tb.language,
                transfo,
                [ud_scores[s] for s in cfg.seeds],
                [cached["uas"][str(s)] for s in cfg.seeds],
            )
            report.rows.append(row)

    _compute_coherence(report)
    _compute_summary(report)
    return report


def _run_cell(tb, transfo, train_c, dev_c, test_c, cfg, report, memo) -> dict:
    t_train = apply_transformation(train_c, transfo)
    t_dev = apply_transformation(dev_c, transfo)
    t_test = apply_transformation(test_c, transfo)
    if not (t_train.changed or t_dev.changed or t_test.changed):
        return {"excluded": True}
    scores: dict[str, float] = {}
    for seed in cfg.seeds:
        model = train(t_train.sentences, t_dev.sentences, cfg.hp, seed, memo=memo)
        predicted = [parse(model, s, memo) for s in t_test.sentences]
        # transformed models are scored against their own references
        scores[str(seed)] = corpus_uas(t_test.sentences, predicted)
        report.trainings_executed += 1
    metrics = metric_dict(
        compute_report(t_train.sentences, "%s/%s" % (tb.language, transfo.value))
    )
    return {"excluded": False, "uas": scores, "metrics": metrics}


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


def emit_reports(report: ExperimentReport, output_dir: str) -> list[str]:
    """Write rows.tsv, the four tables, the diff histogram (TSV + SVG) and
    summary.json under output_dir; returns the paths written."""
    os.makedirs(os.path.join(output_dir, "tables"), exist_ok=True)
    written = []

    def emit(relpath: str, text: str) -> None:
        path = os.path.join(output_dir, relpath)
        _write_atomic(path, text)
        written.append(path)

    lines = ["language\ttransformation\tuas_ud\tuas_transformed\tdiff\texcluded"]
    for r in report.rows:
        lines.append(
            "\t".join(
                (
                    r.language,
                    r.transformation.value,
                    _fmt(r.uas_ud),
                    _fmt(r.uas_transformed),
                    _fmt(r.diff),
                    str(r.excluded).lower(),
                )
            )
        )
    emit("rows.tsv", "\n".join(lines) + "\n")

    # per-transformation percentage of rows where the UD scheme won
    lines = ["transformation\tud_wins_pct\trows"]
    for t in Transformation:
        rows = [r for r in report.rows if r.transformation is t and not r.excluded]
        decided = [r for r in rows if r.diff != 0]
        pct = (
            100.0 * sum(1 for r in decided if r.diff > 0) / len(decided)
            if decided
            else None
        )
        lines.append("%s\t%s\t%d" % (t.value, _fmt(pct), len(rows)))
    emit(os.path.join("tables", "ud_wins.tsv"), "\n".join(lines) + "\n")

    # top-5 positive and top-5 negative differences, one table each
    scored = [r for r in report.rows if not r.excluded and r.diff != 0]
    positive = sorted((r for r in scored if r.diff > 0), key=lambda r: -r.diff)[:5]
    negative = sorted((r for r in scored if r.diff < 0), key=lambda r: r.diff)[:5]
    for name, rows in (("top_positive", positive), ("top_negative", negative)):
        lines = ["language\ttransformation\tuas_transformed\tuas_ud\tdiff"]
        for r in rows:
            lines.append(
                "%s\t%s\t%s\t%s\t%s"
                % (
                    r.language,
                    r.transformation.value,
                    _fmt(r.uas_transformed),
                    _fmt(r.uas_ud),
                    _fmt(r.diff),
                )
            )
        emit(os.path.join("tables", name + ".tsv"), "\n".join(lines) + "\n")

    lines = ["metric\tcoherent_pct\tcoherent\tcomparable\tuas_ties"]
    for name in MEASURE_NAMES.values():
        coherent, comparable, ties = report.coherence.get(name, (0, 0, 0))
        pct = 100.0 * coherent / comparable if comparable else None
        lines.append(
            "%s\t%s\t%d\t%d\t%d" % (name, _fmt(pct), coherent, comparable, ties)
        )
    lines.append(COHERENCE_NOTE)
    emit(os.path.join("tables", "coherence.tsv"), "\n".join(lines) + "\n")

    bins = _histogram([r.diff for r in report.rows if not r.excluded])
    lines = ["bin_lo\tbin_hi\tcount"]
    for lo, hi, count in bins:
        lines.append("%.1f\t%.1f\t%d" % (lo, hi, count))
    emit("hist.tsv", "\n".join(lines) + "\n")
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
