"""Self-tests of the benchmark. From the checkout root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The generator tests take a second; `RunTest` runs every workload twice (once
traced) with --seconds 1, which takes under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from udscheme import transform  # noqa: E402
from udscheme.conllu import is_projective, validate_tree, write_conllu  # noqa: E402

# every metric the benchmark's specification names, end-to-end and per layer
ISSUE_METRICS = [
    "setup_s",
    "wall_s",
    "tokens_per_s",
    "rerun_s",
    "sentence_ms_p50",
    "sentence_ms_tail",
    "len_growth",
    "peak_rss_mb",
    "transform.arcs_rewritten",
    "transform.repairs_applied",
    "harness.trainings_executed",
    "harness.trainings_executed.rerun",
    "harness.cache_hit_ratio.rerun",
    "harness.cache_lookups.rerun",
    "parsing.transitions.oracle.actions",
    "parsing.perceptron.model.features",
    "parsing.perceptron.fnv1a64.calls",
    "parsing.features.extract_features.self_s",
    "parsing.perceptron.Model.score.self_s",
    "parsing.transitions.reachable_gold_count.self_s",
    "parsing.perceptron.train.self_s",
    "parsing.transitions.static_oracle_derivation.self_s",
    "metrics.compute_report.us_per_tok.n6",
    "metrics.compute_report.us_per_tok.n84",
    "harness.run_experiment.self_s.rerun",
    "conllu.read_conllu_file.self_s.rerun",
    "transform.apply_transformation.us_per_tok",
    "trace.overhead",
]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        sizes = {"train": 25, "test": 10}
        a, b, c = (gen.treebank(s, sizes) for s in (7, 7, 8))
        for split in sizes:
            self.assertEqual(write_conllu(a[split]), write_conllu(b[split]))
            self.assertNotEqual(write_conllu(a[split]), write_conllu(c[split]))
        self.assertEqual(
            write_conllu(gen.length_bucket(7, 3, 200)), write_conllu(gen.length_bucket(7, 3, 200))
        )

    def test_treebank_shape(self):
        sents = gen.treebank(3, {"train": 300})["train"]
        self.assertTrue(all(validate_tree(s).ok and is_projective(s) for s in sents))
        stats = gen.corpus_stats(sents)
        self.assertTrue(15 <= stats["mean_len"] <= 25, stats)
        self.assertGreater(stats["max_len"], 4 * stats["mean_len"], stats)
        self.assertGreater(stats["types"], 1000, stats)
        three_token_names = [
            s for s in sents
            if any(sum(1 for t in s.tokens if t.head == h.id and t.deprel == "name") >= 2
                   for h in s.tokens)
        ]
        self.assertTrue(three_token_names)

    def test_bucket_lengths_do_not_depend_on_seed(self):
        a, b = (gen.length_bucket(seed, 3, 300) for seed in (5, 6))
        self.assertEqual(len(a), len(b))
        self.assertNotEqual(write_conllu(a), write_conllu(b))
        self.assertEqual([len(x) for x in a], [len(y) for y in b])
        sizes = {"train": 12, "dev": 4, "test": 8}
        x, y = (gen.treebank(seed, sizes) for seed in (5, 6))
        for split in sizes:
            self.assertEqual([len(s) for s in x[split]], [len(s) for s in y[split]])

    def test_grid_treebank_triggers_every_transformation(self):
        # no cell of the grid's experiment may be excluded, on any seed; when
        # name lengths were drawn per seed, one seed in 64 (1876544549 among
        # them) had no three-token name, so the `name` cell was excluded
        sizes = workloads.GRID_SIZES
        for seed in list(range(1, 21)) + [1876544549]:
            train = gen.treebank(seed, sizes)["train"]
            for t in transform.Transformation:
                self.assertTrue(transform.apply_transformation(train, t).changed, (seed, t))

    def test_buckets_have_the_asked_length(self):
        for clauses, lo, hi in ((1, 4, 9), (3, 15, 22), (7, 38, 50), (14, 78, 96)):
            bucket = gen.length_bucket(5, clauses, 300)
            stats = gen.corpus_stats(bucket)
            self.assertTrue(lo <= stats["mean_len"] <= hi, (clauses, stats))
            self.assertGreaterEqual(stats["tokens"], 300)


class StatisticsTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        value, pct, n = run.tail([float(i) for i in range(1, 101)])
        self.assertEqual((value, pct, n), (90.0, 90.0, 100))
        self.assertEqual(sum(1 for i in range(1, 101) if i > value), 10)

    def test_sentence_cost_is_median_pass(self):
        runs = [[(5, 2.0), (9, 1.0)], [(5, 1.5), (9, 3.0)], [(5, 4.0), (9, 1.2)]]
        self.assertEqual(run.per_sentence(runs), [(5, 2.0), (9, 1.2)])

    def test_growth_is_one_for_linear_cost(self):
        samples = [(n, 2e-6 * n) for n in range(1, 41)]
        self.assertAlmostEqual(run.per_token_growth(samples), 1.0)


class TracingTest(unittest.TestCase):
    def test_metrics_of_absent_layers_are_left_out(self):
        absent = ["parsing.perceptron.fnv1a64", "harness.cache_get"]
        self.assertTrue(run.is_absent("parsing.perceptron.fnv1a64.us_per_tok", absent))
        self.assertTrue(run.is_absent("harness.cache_hit_ratio.rerun", absent))
        self.assertFalse(run.is_absent("parsing.perceptron.train.calls", absent))
        self.assertFalse(run.is_absent("harness.trainings_executed", absent))

    def test_missing_name_is_an_absent_layer(self):
        from udscheme.parsing import perceptron

        original = perceptron.fnv1a64
        targets = tracing.TARGETS
        tracing.TARGETS = targets + [("udscheme.parsing.perceptron", "renamed_away", "gone.layer", True)]
        try:
            tracer = tracing.Tracer()
            tracer.install()
            self.assertIsNot(perceptron.fnv1a64, original)
            sec: dict = {}
            with tracer.section(sec):
                perceptron.fnv1a64("S0w=dog")
            tracer.uninstall()
        finally:
            tracing.TARGETS = targets
        self.assertIs(perceptron.fnv1a64, original)
        self.assertEqual(tracer.absent, ["gone.layer"])
        self.assertEqual(sec["layers"]["parsing.perceptron.fnv1a64"][0], 1)
        self_sum = sum(v[2] for v in sec["layers"].values())
        self.assertAlmostEqual(self_sum, sec["wall_s"], places=9)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )


class RunTest(unittest.TestCase):
    def test_default_seed_reproducible_and_complete(self):
        spec = run.load_spec()
        seen: dict[str, float] = {}
        for w in run.WORKLOAD_NAMES:
            digests = []
            for trace in (0, 1):
                out = run_bench("--workload", w, "--seed", "1", "--seconds", "1", "--trace", str(trace))
                self.assertEqual(out.returncode, 0, out.stderr)
                lines = out.stdout.strip().splitlines()
                res = json.loads(lines[-1])
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"], out.stdout)
                self.assertEqual(res["failed"], 0)
                names = spec["per_layer"] if trace else spec["end_to_end"]
                self.assertEqual(list(res["metrics"]), [m["name"] for m in names])
                for k, v in res["metrics"].items():
                    seen[k] = max(seen.get(k, 0), abs(v["value"]))
                digests += [l for l in lines if l.startswith("digest: ")]
            self.assertEqual(len(digests), 2)
            self.assertEqual(digests[0], digests[1], w)
        for name in ISSUE_METRICS:
            self.assertIn(name, seen)
        # every per-layer metric is exercised by some workload, except the
        # ones that must read 0 (the rerun trains nothing, no layer is absent)
        zero = {"harness.trainings_executed.rerun", "trace.absent_layers"}
        self.assertEqual({k for k, v in seen.items() if v == 0}, zero)

    def test_refuses_to_run_without_sources(self):
        os.makedirs(run.WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
            out = run_bench("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn("{", out.stdout)


if __name__ == "__main__":
    unittest.main()
