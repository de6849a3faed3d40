"""The two benchmark workloads: set-up, one measured pass, and checks.

Every workload is single-process and closed-loop: one caller makes one call
at a time into udscheme's public functions, and nothing runs in parallel
(`experiment` itself has no parallelism). A pass returns its timings and the
outputs the checks need; `Checks` counts operations attempted and failed.

Workloads call the program through module attributes (`conllu.parse_conllu`,
not a name imported once), so a traced run that swaps those attributes for
timing wrappers also times the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import shutil
import statistics
import time

import gen
import tracing
from udscheme import cli, conllu, evaluate, metrics, transform
from udscheme.parsing import perceptron

GRID_SIZES = {"train": 12, "dev": 4, "test": 8}  # sentences
GRID_EPOCHS = 2
GRID_SEEDS = (1,)
GRID_RERUNS = 20  # cached reruns per pass, spread through the probe parses
PROBE_SENTENCES = 100  # held-out split for the per-sentence timings of grid

BUCKETS = {"n6": 1, "n18": 3, "n42": 7, "n84": 14}  # name -> clauses/sentence
BUCKET_TOKENS = 300
BUCKET_FILES = 3

SCHEMES = ["ud"] + [t.value for t in transform.Transformation]


class Checks:
    """Operations attempted and failed; a failure message is kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def valid_trees(self, sentences, what: str) -> None:
        bad = [i for i, s in enumerate(sentences) if not conllu.validate_tree(s).ok]
        self.check(not bad, "%s: invalid trees at %s" % (what, bad[:5]))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _tokens(sentences) -> int:
    return sum(len(s) for s in sentences)


def _lap(steps: dict, key, t0: float) -> float:
    """Record the time since t0 as step `key`; return the clock now."""
    t = time.perf_counter()
    steps[key] = t - t0
    return t


# ---------------------------------------------------------------- set-up


def setup(workload: str, work: str, seed: int) -> list[str]:
    """Generate the workload's inputs under `work`; returns info lines."""
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    return {"grid": _setup_grid, "analyze": _setup_analyze}[workload](work, seed)


def _stats_lines(splits: dict) -> list[str]:
    return ["corpus %s: %s" % (k, gen.corpus_stats(v)) for k, v in splits.items()]


def _setup_grid(work: str, seed: int) -> list[str]:
    splits = gen.treebank(seed, dict(GRID_SIZES, probe=PROBE_SENTENCES))
    for split, sents in splits.items():
        conllu.write_conllu_file(os.path.join(work, split + ".conllu"), sents)
    # the UD-side model of the grid (same data, hyperparameters and seed), for
    # per-sentence parse timings that the experiment does not expose
    hp = perceptron.Hyperparameters(epochs=GRID_EPOCHS)
    model = perceptron.train(splits["train"], splits["dev"], hp, GRID_SEEDS[0])
    perceptron.save_model(model, os.path.join(work, "model.txt"))
    return _stats_lines(splits)


def grid_config(work: str, out_dir: str) -> str:
    path = os.path.join(work, "exp-%s.ini" % os.path.basename(out_dir))
    _write(
        path,
        "\n".join(
            [
                "[experiment]",
                "seeds = %s" % " ".join(map(str, GRID_SEEDS)),
                "output_dir = %s" % out_dir,
                "[parser]",
                "epochs = %d" % GRID_EPOCHS,
                "[treebank:syn]",
            ]
            + ["%s = %s" % (k, os.path.join(work, k + ".conllu")) for k in GRID_SIZES]
        )
        + "\n",
    )
    return path


def _setup_analyze(work: str, seed: int) -> list[str]:
    buckets = {
        name: gen.length_bucket(seed, clauses, BUCKET_TOKENS)
        for name, clauses in BUCKETS.items()
    }
    for name, sents in buckets.items():
        for i in range(BUCKET_FILES):
            path = os.path.join(work, "%s-%d.conllu" % (name, i))
            _write(path, conllu.write_conllu(sents[i::BUCKET_FILES]))
    return _stats_lines(buckets)


# ---------------------------------------------------------------- passes
#
# A pass takes `section`, a context manager factory that times a block (and,
# in a traced run, records the layer counters it added) into a dict. It
# returns the time of each of its steps under `steps` (the measured phase)
# and `readback` (getting the results again from what the pass wrote). The
# steps are short and the same in every pass, so the runner can take each
# step's median time over the passes (see run.py). The grid's cached reruns
# repeat one step, so a pass gives their median.


def _report_files(out_dir: str) -> dict[str, bytes]:
    files = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, out_dir)
            if not rel.startswith("cache"):
                with open(path, "rb") as f:
                    files[rel] = f.read()
    return files


def _cache_state(out_dir: str) -> dict[str, tuple[int, int]]:
    cache = os.path.join(out_dir, "cache")
    return {
        name: (st.st_size, st.st_mtime_ns)
        for name in sorted(os.listdir(cache))
        for st in [os.stat(os.path.join(cache, name))]
    }


def _experiment(config: str, section, into: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), section(into):
        code = cli.main(["experiment", "--config", config])
    into["exit"] = code
    return out.getvalue()


class Grid:
    def __init__(self, work: str, checks: Checks):
        self.work = work
        self.checks = checks
        self.splits = {k: conllu.read_conllu_file(os.path.join(work, k + ".conllu")) for k in GRID_SIZES}
        self.reference: dict | None = None  # reports of the first cold run
        self.runs = 0
        self.last: dict | None = None  # the last cold run, for cached reruns
        # the grid's UD-side model, for the per-sentence times that the
        # experiment does not expose, timed on a held-out split
        self.model = perceptron.load_model(os.path.join(work, "model.txt"))
        self.probe = conllu.read_conllu_file(os.path.join(work, "probe.conllu"))

    def one_pass(self, section) -> dict:
        """Half the probe, the cold experiment, then the other half. The
        cached reruns are spread through the probe's parses, over the last
        pass's output before the cold run and over this one's after it: the
        host's speed changes over seconds, and samples spread over the pass
        are less likely to fall in one slow stretch together."""
        ck = self.checks
        self.runs += 1
        reruns_before, samples, pred = self._probe(self.probe[0::2], section)
        if self.last is not None:
            shutil.rmtree(self.last["out_dir"])
        out_dir = os.path.join(self.work, "out%d" % self.runs)
        config = grid_config(self.work, out_dir)
        cold: dict = {}
        stdout = _experiment(config, section, cold)
        reports = _report_files(out_dir)
        rows = reports["rows.tsv"].decode().splitlines()[1:]
        ck.check(cold["exit"] == 0 and '"errors": 0' in stdout, "grid: experiment reported errors")
        ck.check(len(rows) == len(transform.Transformation), "grid: rows.tsv has %d rows" % len(rows))
        excluded = sum(1 for r in rows if r.endswith("\ttrue"))
        ck.check(excluded == 0, "grid: %d transformations excluded" % excluded)
        if self.reference is None:
            self.reference = {"reports": reports, "stdout": stdout}
        ck.check(
            reports == self.reference["reports"] and stdout == self.reference["stdout"],
            "grid: cold run %d differs from the first" % self.runs,
        )
        self.uas_ud = rows[0].split("\t")[2]
        trainings = len(GRID_SEEDS) * (1 + len(rows) - excluded)
        if self.runs == 1:
            test = self.splits["test"]
            uas = evaluate.corpus_uas(test, [perceptron.parse(self.model, s) for s in test])
            ck.check("%.2f" % uas == self.uas_ud, "grid: probe model UAS %.2f is not the grid's" % uas)
        self.last = {
            "out_dir": out_dir,
            "config": config,
            "stdout": stdout,
            "reports": reports,
            "cache": _cache_state(out_dir),
        }
        reruns, samples_after, pred_after = self._probe(self.probe[1::2], section)
        ck.valid_trees(pred + pred_after, "grid probe")
        return {
            "steps": {"experiment": cold["wall_s"]},
            "readback": {"rerun": statistics.median(r["wall_s"] for r in reruns + reruns_before)},
            "tokens": _tokens(self.splits["train"]) * GRID_EPOCHS * trainings,
            "sections": {"": cold, "rerun": reruns[0]},
            "samples": samples + samples_after,
            "features": len(self.model.weights),  # the grid's UD-side model
        }

    def _probe(self, sentences, section) -> tuple[list, list, list]:
        """Parse and time each sentence; after every few, rerun the last
        cold experiment (when there is one) from its cache."""
        every = len(self.probe) // GRID_RERUNS
        reruns, samples, pred = [], [], []
        for j, s in enumerate(sentences):
            t0 = time.perf_counter()
            pred.append(perceptron.parse(self.model, s))
            samples.append((len(s), time.perf_counter() - t0))
            if self.last is not None and j % every == every - 1:
                gc.collect()  # every rerun starts from the same heap state
                again: dict = {}
                last = self.last
                stdout = _experiment(last["config"], section, again)
                reruns.append(again)
                self.checks.check(
                    again["exit"] == 0
                    and stdout == last["stdout"]
                    and _cache_state(last["out_dir"]) == last["cache"]
                    and _report_files(last["out_dir"]) == last["reports"],
                    "grid: rerun trained or changed a report",
                )
        return reruns, samples, pred

    def digest(self) -> str:
        h = hashlib.sha256()
        for rel in sorted(self.reference["reports"]):
            h.update(rel.encode() + b"\0" + self.reference["reports"][rel])
        h.update(self.reference["stdout"].encode())
        return h.hexdigest()


class Analyze:
    """Buckets are split into BUCKET_FILES files, and a pass takes file i of
    every bucket before file i + 1: machine speed on a shared host drifts
    over seconds, and interleaving keeps that drift out of `len_growth`.

    A sentence's latency is its part of the pass that is per sentence: its
    seven transformations and the CoNLL-U of its eight schemes."""

    def __init__(self, work: str, checks: Checks):
        self.checks = checks
        self.texts = {
            (b, i): _read(os.path.join(work, "%s-%d.conllu" % (b, i)))
            for i in range(BUCKET_FILES)
            for b in BUCKETS
        }
        self.tokens = dict.fromkeys(BUCKETS, 0)
        for (b, _), text in self.texts.items():
            self.tokens[b] += _tokens(conllu.parse_conllu(text))
        self.results: dict | None = None  # digestable outputs of the first pass

    def one_pass(self, section) -> dict:
        ck = self.checks
        clock = time.perf_counter
        samples: list[tuple[int, float]] = []
        steps: dict = {}
        readback: dict = {}
        sections: dict = {b: [] for b in BUCKETS}
        results = {}
        for (b, i), text in self.texts.items():
            sec: dict = {}
            with section(sec):
                t = clock()
                sents = conllu.parse_conllu(text)
                t = _lap(steps, (b, i, "read"), t)
                schemes = [[] for _ in SCHEMES]
                pieces = [[] for _ in SCHEMES]
                counts = [[0, 0] for _ in transform.Transformation]
                for j, s in enumerate(sents):
                    outs = [s]
                    for k, tr in enumerate(transform.Transformation):
                        r = transform.apply_transformation([s], tr)
                        outs.append(r.sentences[0])
                        counts[k][0] += r.arcs_rewritten
                        counts[k][1] += r.repairs_applied
                    texts = [conllu.write_conllu([x]) for x in outs]
                    t = _lap(steps, (b, i, "sentence", j), t)
                    samples.append((len(s), steps[b, i, "sentence", j]))
                    for scheme, piece, x, w in zip(schemes, pieces, outs, texts):
                        scheme.append(x)
                        piece.append(w)
                written = ["".join(piece) for piece in pieces]
                reports = []
                for x, name in zip(schemes, SCHEMES):
                    reports.append(metrics.compute_report(x, "%s-%d/%s" % (b, i, name)))
                    t = _lap(steps, (b, i, "report", name), t)
            sections[b].append(sec)
            # read-back: what a user pays to load the written schemes again
            t = clock()
            back = [conllu.parse_conllu(w) for w in written]
            _lap(readback, (b, i), t)
            for name, x, w, y in zip(SCHEMES, schemes, written, back):
                ck.valid_trees(x, "analyze %s-%d/%s" % (b, i, name))
                ck.check(conllu.write_conllu(y) == w, "analyze %s-%d/%s: round trip differs" % (b, i, name))
                ck.check(conllu.write_conllu(x) == w, "analyze %s-%d/%s: written per sentence differs" % (b, i, name))
            ck.check(written[0] == text, "analyze %s-%d: input does not round-trip" % (b, i))
            results["%s-%d" % (b, i)] = (written, [repr(r) for r in reports], counts)
        if self.results is None:
            self.results = results
        ck.check(results == self.results, "analyze: pass differs from the first")
        merged = {b: tracing.merge_sections(secs) for b, secs in sections.items()}
        for b, m in merged.items():
            m["tokens"] = 8 * self.tokens[b]
        return {
            "steps": steps,
            "readback": readback,
            "tokens": 8 * sum(self.tokens.values()),
            "sections": merged,
            "samples": samples,
        }

    def digest(self) -> str:
        h = hashlib.sha256()
        for b, (written, reports, counts) in sorted(self.results.items()):
            h.update(b.encode())
            for w in written:
                h.update(w.encode())
            h.update(repr((reports, counts)).encode())
        return h.hexdigest()


WORKLOADS = {"grid": Grid, "analyze": Analyze}
