"""Benchmark of udscheme on generated UD-like treebanks.

    python3 perfbench/run.py --workload grid|analyze|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`
and nothing is installed. Workloads (see BENCHMARK.json for why each exists):

  grid     `udscheme experiment` in process, cold, on a generated treebank with
           all seven transformations, then the same config over the finished
           output directory (cached rerun).
  analyze  parse_conllu -> apply_transformation x7 -> write_conllu ->
           compute_report on all eight schemes, for four buckets of equal
           token count and mean sentence length ~6/18/42/84. No training.

Set-up (input generation, and model training for grid) runs several times in
this process, before the measured phase and again after it; `setup_s` is its
median. The measured phase then runs in one fresh child process, so
`peak_rss_mb` is the peak of the measured work alone. The child repeats whole
passes while the next one fits in --seconds. A pass is timed step by step,
and each step's cost is its median time over the passes (see `per_sentence`
for why).

End-to-end metrics, per workload:
  wall_s            one pass, as the sum of its steps' costs: grid the cold
                    experiment; analyze all buckets
  tokens_per_s      grid: train tokens x epochs x trainings / wall_s;
                    analyze: input tokens x 8 schemes / wall_s
  rerun_s           getting the pass's results again from what it wrote:
                    grid the cached experiment rerun;
                    analyze parse_conllu of the eight written schemes
  sentence_ms_p50,  per-sentence latency, the median and tail over sentences
  sentence_ms_tail  of each sentence's cost: analyze: the seven
                    transformations of one sentence and the CoNLL-U of its
                    eight schemes; grid: parse() by the grid's UD-side model
                    on a held-out split, the inference path alone (the
                    experiment itself does not expose per-sentence times;
                    see workloads.Grid). The tail is
                    the highest percentile with at least ten sentences
                    beyond it; its percentile and sentence count are printed
                    with it.
  len_growth        us/token on long sentences over us/token on short ones:
                    analyze the n84 bucket over the n6 bucket; grid the top
                    over the bottom quartile of the held-out sentences
  peak_rss_mb       peak resident set of the measuring process
  setup_s           median set-up time

With --trace 1 the child also runs one traced pass after the untraced ones
and prints the per-layer metrics of BENCHMARK.json (see tracing.py), with
the tracing overhead as traced over untraced wall_s.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Exit codes: 0 after a measured run (correct or not), 1 when the
measuring process fails (no result is printed), 2 when the sources are
missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
WORKLOAD_NAMES = ("grid", "analyze")
# set-up runs in two rounds, one before the measured phase and one after it,
# so its median samples two stretches of the host's speed. A round runs set-up
# at least SETUP_REPEATS times, and more (up to SETUP_MAX_REPEATS) while it
# has taken less than SETUP_BUDGET_S, so a short set-up gets enough samples
# for a steady median.
SETUP_REPEATS = 2
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPEATS = 12
DEADLINE_S = 175  # a run must end within 180 s
GLUE_TOLERANCE = 0.05  # share of traced wall_s left outside every program layer


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "env: nproc=%s python=%s platform=%s cpu=%s" % (
        os.cpu_count(),
        platform.python_version(),
        platform.platform(),
        cpu,
    )


LOAD_NOTE = (
    "load: one process, one thread, closed loop with one call at a time "
    "(no arrivals); experiment runs its grid serially, so a parallel harness "
    "needs its own workload"
)


# ---------------------------------------------------------------- statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that has at least
    ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


# Every pass repeats the same deterministic work, so a step's times differ
# between passes only by interference from the rest of the host. On a shared
# 2-core Xeon host that interference switches the host between a fast state
# and one about 1.5x slower, in stretches from seconds to over a minute, so a
# whole run can fall in a slow stretch. A step's fastest time over the passes
# then jumps between the two states from run to run, while its median time
# moves only with the share of slow time in the run: over ten 50 s runs of
# analyze, IQR/median of wall_s was 0.23 from fastest times and 0.15 from
# median times. So a step's cost is its median time over the passes; medians
# and tails of sentences are taken across distinct sentences.


def per_sentence(runs: list[list[tuple[int, float]]]) -> list[tuple[int, float]]:
    """(tokens, median seconds over the runs) per sentence; every run times
    the same sentences in the same order."""
    return [(col[0][0], statistics.median(t for _, t in col)) for col in zip(*runs)]


def per_token_growth(samples: list[tuple[int, float]]) -> float:
    """us/token of the longest quartile of sentences over the shortest."""
    lengths = sorted(n for n, _ in samples)
    q1 = lengths[len(lengths) // 4]
    q3 = lengths[(3 * len(lengths)) // 4]

    def rate(group):
        return sum(t for _, t in group) / sum(n for n, _ in group)

    return rate([x for x in samples if x[0] >= q3]) / rate([x for x in samples if x[0] <= q1])


# ---------------------------------------------------------------- child


def run_passes(one_pass, seconds: float) -> list[dict]:
    """Repeat passes while the next one (as long as the last) fits."""
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        gc.collect()  # start every pass from the same heap state
        t0 = time.perf_counter()
        passes.append(one_pass())
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return passes


OBSERVERS = {
    "transform.apply_transformation": lambda c, a, r: _add(
        c, ("transform.arcs_rewritten", r.arcs_rewritten), ("transform.repairs_applied", r.repairs_applied)
    ),
    "parsing.transitions.static_oracle_derivation": lambda c, a, r: _add(
        c, ("parsing.transitions.oracle.actions", len(r.actions))
    ),
    "harness.cache_get": lambda c, a, r: _add(c, ("harness.cache_lookups", 1), ("harness.cache_hits", r is not None)),
}


def _add(counts: dict, *pairs) -> None:
    for k, v in pairs:
        counts[k] = counts.get(k, 0) + v


# metrics (by name prefix) that a layer's calls or observer feed, besides the
# layer's own `<layer>.*`; they go with the layer when it is absent
FED_BY = {
    "transform.arcs_rewritten": "transform.apply_transformation",
    "transform.repairs_applied": "transform.apply_transformation",
    "parsing.transitions.oracle.actions": "parsing.transitions.static_oracle_derivation",
    "harness.cache_": "harness.cache_get",
    "harness.trainings_executed": "parsing.perceptron.train",
}


def is_absent(metric: str, absent: list[str]) -> bool:
    """Whether a per-layer metric belongs to a layer the program no longer
    has; such a metric is left out rather than read as 0, which would look
    like a gain."""
    return any(metric.startswith(layer + ".") for layer in absent) or any(
        metric.startswith(prefix) and layer in absent for prefix, layer in FED_BY.items()
    )


def layer_values(sec: dict, tokens: int, suffix: str = "") -> dict[str, float]:
    out = {}
    for layer, (calls, _, self_s) in sec["layers"].items():
        out[layer + ".calls" + suffix] = calls
        out[layer + ".self_s" + suffix] = self_s
        out[layer + ".us_per_tok" + suffix] = 1e6 * self_s / tokens
    for k, v in sec["counts"].items():
        out[k + suffix] = v
    return out


def traced_pass(wl, checks, untraced_wall: float, spans_path: str) -> tuple[dict, list[str]]:
    tracer = tracing.Tracer(OBSERVERS)
    tracer.install()
    try:
        p = wl.one_pass(tracer.section)
    finally:
        tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as f:
        t0 = min((s[1] for s in tracer.spans), default=0.0)
        json.dump([[name, a - t0, b - t0, depth] for name, a, b, depth in tracer.spans], f)
    main = {k: v for k, v in p["sections"].items() if k != "rerun"}
    total = tracing.merge_sections(list(main.values()))
    values = layer_values(total, p["tokens"])
    if len(main) > 1:  # analyze buckets
        for b, sec in main.items():
            values.update(layer_values(sec, sec["tokens"], "." + b))
    if "rerun" in p["sections"]:
        values.update(layer_values(p["sections"]["rerun"], p["tokens"], ".rerun"))
        lookups = values.get("harness.cache_lookups.rerun", 0)
        values["harness.cache_hit_ratio.rerun"] = (
            values.get("harness.cache_hits.rerun", 0) / lookups if lookups else 0.0
        )
    for suffix in ("", ".rerun"):
        values["harness.trainings_executed" + suffix] = values.get("parsing.perceptron.train.calls" + suffix, 0)
    if "features" in p:
        values["parsing.perceptron.model.features"] = p["features"]
    wall = total["wall_s"]
    # Self times telescope: every wrapped call's time is taken off its
    # caller's self time, so all self times, the benchmark's own (ROOT)
    # included, sum to the traced wall exactly. The check is on the share
    # the program's layers account for.
    glue = total["layers"].get(tracing.ROOT, [0, 0.0, 0.0])[2]
    self_sum = sum(v[2] for k, v in total["layers"].items() if k != tracing.ROOT)
    values.update(
        {
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead": wall / untraced_wall,
            "trace.self_sum_s": self_sum,
            "trace.unattributed_share": glue / wall,
            "trace.absent_layers": len(tracer.absent),
        }
    )
    checks.check(
        glue <= GLUE_TOLERANCE * wall,
        "trace: %.1f%% of the traced wall is outside every layer" % (100 * glue / wall),
    )
    lines = [
        "trace: traced wall_s %.4f vs untraced %.4f (overhead x%.3f); the program's layer "
        "self times sum to %.4f s, %.2f%% of the traced wall (tolerance: at most %.0f%% "
        "left in the benchmark's own code)"
        % (wall, untraced_wall, wall / untraced_wall, self_sum, 100 * self_sum / wall,
           100 * GLUE_TOLERANCE),
        "trace: absent layers: %s" % (", ".join(tracer.absent) or "none"),
        "trace: spans (layer, start s, end s, depth) in %s" % os.path.relpath(spans_path, ROOT),
    ]
    train = total["layers"].get("parsing.perceptron.train")
    if train and train[0]:
        lines.append(
            "trace: parsing.perceptron.train spans %.1f%% of the traced wall, %.1f%% in its own code"
            % (100 * train[1] / wall, 100 * train[2] / wall)
        )
    for layer, (calls, tot, self_s) in sorted(total["layers"].items(), key=lambda kv: -kv[1][2]):
        lines.append(
            "layer %-46s calls %9d  self %8.4f s  total %8.4f s  %8.3f us/tok"
            % (layer, calls, self_s, tot, 1e6 * self_s / p["tokens"])
        )
    return values, tracer.absent, lines


def step_median(passes: list[dict], field: str) -> dict:
    """Each step's median time over the passes."""
    return {k: statistics.median(p[field][k] for p in passes) for k in passes[0][field]}


def measure(args) -> int:
    import workloads

    checks = workloads.Checks()
    wl = workloads.WORKLOADS[args.workload](args.work, checks)
    passes = run_passes(lambda: wl.one_pass(tracing.no_section), args.seconds)
    steps = step_median(passes, "steps")
    wall = sum(steps.values())
    tokens = passes[0]["tokens"]
    e2e = {
        "wall_s": wall,
        "tokens_per_s": tokens / wall,
        "rerun_s": sum(step_median(passes, "readback").values()),
    }
    lines = [
        "passes: %d, tokens per pass: %d, steps per pass: %d" % (len(passes), tokens, len(steps)),
        "wall_s per pass: %s" % " ".join("%.4f" % sum(p["steps"].values()) for p in passes),
        "sentence_ms_p50 per pass: %s"
        % " ".join("%.4f" % (1000 * statistics.median(t for _, t in p["samples"])) for p in passes),
        "rerun_s per pass: %s" % " ".join("%.5f" % sum(p["readback"].values()) for p in passes),
    ]
    if args.workload == "grid":
        lines.append("grid: UD-side test UAS %s, model features %d" % (wl.uas_ud, passes[0]["features"]))
    samples = per_sentence([p["samples"] for p in passes])
    if args.workload == "analyze":
        per_tok = {
            b: sum(v for k, v in steps.items() if k[0] == b) / (8 * wl.tokens[b]) for b in workloads.BUCKETS
        }
        e2e["len_growth"] = per_tok["n84"] / per_tok["n6"]
        for b, v in per_tok.items():
            lines.append("analyze %s: %.2f us/token/scheme" % (b, 1e6 * v))
    else:
        e2e["len_growth"] = per_token_growth(samples)
    times = [t * 1000 for _, t in samples]
    e2e["sentence_ms_p50"] = statistics.median(times)
    e2e["sentence_ms_tail"], pct, n = tail(times)
    lines.append("sentence_ms_tail is p%.2f of %d sentences" % (pct, n))
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_layer, absent = None, []
    if args.trace:
        spans_path = os.path.join(WORK, "spans-%s-seed%d.json" % (args.workload, args.seed))
        per_layer, absent, trace_lines = traced_pass(wl, checks, wall, spans_path)
        lines += trace_lines
    lines += ["check failed: " + m for m in checks.messages]
    print(
        json.dumps(
            {
                "lines": lines,
                "e2e": e2e,
                "per_layer": per_layer,
                "absent": absent,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "digest": wl.digest(),
            }
        )
    )
    return 0


# ---------------------------------------------------------------- parent


def run_workload(args, spec: dict) -> int:
    start = time.perf_counter()
    import workloads  # imports udscheme, so only once src/ is on the path

    work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    setup_times: list[float] = []

    def setup_round() -> list[str]:
        times: list[float] = []
        while len(times) < SETUP_REPEATS or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS):
            t0 = time.perf_counter()
            info = workloads.setup(args.workload, work, args.seed)
            times.append(time.perf_counter() - t0)
        setup_times.extend(times)
        return info

    try:
        info = setup_round()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--measure", "--work", work,
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - start)),
            check=False,
        )
        if child.returncode != 0:
            print("perfbench: measuring %s failed (exit %d)" % (args.workload, child.returncode), file=sys.stderr)
            return 1
        setup_round()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res = json.loads(child.stdout.strip().splitlines()[-1])
    failed = res["failed"]
    attempted = res["attempted"]
    reference = load_reference()
    if args.seed == reference["seed"]:
        attempted += 1
        if res["digest"] != reference[args.workload]:
            failed += 1
            res["lines"].append(
                "check failed: output digest %s is not the reference %s"
                % (res["digest"], reference[args.workload])
            )
    e2e = dict(res["e2e"], setup_s=statistics.median(setup_times))
    values = res["per_layer"] if args.trace else e2e
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    # a layer the workload never calls reads 0; one the program no longer has
    # is left out
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in names
        if not is_absent(m["name"], res["absent"])
    }

    print("workload: %s  seed: %d  seconds: %g  trace: %d" % (args.workload, args.seed, args.seconds, args.trace))
    print(environment())
    print(LOAD_NOTE)
    for line in info + res["lines"]:
        print(line)
    print("digest: %s" % res["digest"])
    for m in spec["end_to_end"]:
        print("%-18s %14.6f %s" % (m["name"], e2e[m["name"]], m["unit"]))
    print("setup_s: median of %d set-ups" % len(setup_times))
    print("operations: attempted %d, failed %d" % (attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        return json.load(f)


def run_all(args) -> int:
    """Each workload in a fresh process; prints their metrics, then one JSON
    line with the totals and the metrics keyed `<workload>.<name>`."""
    attempted = failed = 0
    metrics = {}
    for w in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print("perfbench: workload %s failed (exit %d)" % (w, child.returncode), file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        print()
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({"%s.%s" % (w, k): v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "udscheme", "__init__.py")):
        print("perfbench: no udscheme sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    if args.measure:
        return measure(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
