"""Layer timing from outside the program.

`Tracer.install` replaces module-global names (and a few class attributes)
that udscheme's callers look up with timing wrappers. Each wrapped call adds
to per-layer counters: calls, total time and self time (its duration minus
that of the wrapped calls it made). Coarse layers also keep one span per call
(name, start, end, depth) in memory; hot per-step functions keep counters
only. A name that no longer exists is reported as an absent layer.
"""

from __future__ import annotations

import contextlib
import importlib
import time

# (module, attribute, layer name, hot); "Class.method" patches a class attribute.
# A function imported into several modules is listed once per module that
# calls it, under one layer name, so its counters add up across callers.
TARGETS = [
    ("udscheme.cli", "main", "cli.main", False),
    ("udscheme.cli", "run_experiment", "harness.run_experiment", False),
    ("udscheme.cli", "emit_reports", "harness.emit_reports", False),
    ("udscheme.harness", "_Cache.get", "harness.cache_get", False),
    ("udscheme.harness", "read_conllu_file", "conllu.read_conllu_file", False),
    ("udscheme.harness", "apply_transformation", "transform.apply_transformation", False),
    ("udscheme.harness", "train", "parsing.perceptron.train", False),
    ("udscheme.harness", "parse", "parsing.perceptron.parse", False),
    ("udscheme.harness", "corpus_uas", "evaluate.corpus_uas", False),
    ("udscheme.harness", "compute_report", "metrics.compute_report", False),
    ("udscheme.conllu", "parse_conllu", "conllu.parse_conllu", False),
    ("udscheme.conllu", "write_conllu", "conllu.write_conllu", False),
    ("udscheme.conllu", "read_conllu_file", "conllu.read_conllu_file", False),
    ("udscheme.transform", "apply_transformation", "transform.apply_transformation", False),
    ("udscheme.evaluate", "corpus_uas", "evaluate.corpus_uas", False),
    ("udscheme.parsing.perceptron", "parse", "parsing.perceptron.parse", False),
    ("udscheme.parsing.perceptron", "extract_features", "parsing.features.extract_features", True),
    ("udscheme.parsing.perceptron", "fnv1a64", "parsing.perceptron.fnv1a64", True),
    ("udscheme.parsing.perceptron", "Model.score", "parsing.perceptron.Model.score", True),
    ("udscheme.parsing.perceptron", "valid_actions", "parsing.transitions.valid_actions", True),
    ("udscheme.parsing.perceptron", "apply_action", "parsing.transitions.apply_action", True),
    ("udscheme.parsing.perceptron", "reachable_gold_count", "parsing.transitions.reachable_gold_count", True),
    ("udscheme.parsing.transitions", "valid_actions", "parsing.transitions.valid_actions", True),
    ("udscheme.parsing.transitions", "apply_action", "parsing.transitions.apply_action", True),
    ("udscheme.parsing.transitions", "reachable_gold_count", "parsing.transitions.reachable_gold_count", True),
    ("udscheme.metrics", "compute_report", "metrics.compute_report", False),
    ("udscheme.metrics", "avg_dependency_distance", "metrics.avg_dependency_distance", False),
    ("udscheme.metrics", "pos_predictability", "metrics.pos_predictability", False),
    ("udscheme.metrics", "derivation_perplexity", "metrics.derivation_perplexity", False),
    ("udscheme.metrics", "derivation_complexity", "metrics.derivation_complexity", False),
    ("udscheme.metrics", "static_oracle_derivation", "parsing.transitions.static_oracle_derivation", False),
    ("udscheme.metrics", "apply_action", "parsing.transitions.apply_action", True),
    ("udscheme.metrics", "WittenBellTrigram", "ngram.WittenBellTrigram", False),
    ("udscheme.ngram", "WittenBellTrigram.perplexity", "ngram.WittenBellTrigram.perplexity", False),
    ("udscheme.metrics", "count_distinct_substrings", "suffixtree.count_distinct_substrings", False),
]

ROOT = "bench"  # the benchmark's own code around the calls


def _resolve(module: str, attr: str):
    """(owner object, attribute name) or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for p in path:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


class Tracer:
    def __init__(self, observers: dict | None = None):
        # layer -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        # layer -> callback(counts, args, result) run after each call, for
        # counts the layer returns (arcs rewritten, oracle actions, ...)
        self.observers = observers or {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.absent: list[str] = []
        self._stack: list[list[float]] = [[0.0]]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, hot: bool):
        st = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        spans = None if hot else self.spans
        observe = self.observers.get(layer)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if spans is not None:
                    spans.append((layer, t0, t0 + dt, len(stack)))
            if observe is not None:
                observe(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}  # one wrapper per original function
        present = set()
        for module, attr, layer, hot in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                continue
            owner, name = found
            fn = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(layer, fn, hot)
            self._patched.append((owner, name, fn))
            setattr(owner, name, wrappers[id(fn)])
            present.add(layer)
        self.absent = sorted({t[2] for t in TARGETS} - present)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    def snapshot(self) -> tuple[dict, dict]:
        return {k: list(v) for k, v in self.stats.items()}, dict(self.counts)

    @contextlib.contextmanager
    def section(self, into: dict):
        """Run the block as one span of the root layer and store into `into`
        what it added: {"wall_s", "layers": {layer: [calls, total_s, self_s]},
        "counts"}."""
        stats0, counts0 = self.snapshot()
        st = self.stats.setdefault(ROOT, [0, 0.0, 0.0])
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._stack[-1][0] += dt
            st[0] += 1
            st[1] += dt
            st[2] += dt - frame[0]
            self.spans.append((ROOT, t0, t0 + dt, len(self._stack)))
            stats1, counts1 = self.snapshot()
            zero = [0, 0.0, 0.0]
            into["wall_s"] = dt
            into["layers"] = {
                k: [v[i] - stats0.get(k, zero)[i] for i in range(3)]
                for k, v in stats1.items()
            }
            into["counts"] = {k: v - counts0.get(k, 0) for k, v in counts1.items()}


@contextlib.contextmanager
def no_section(into: dict):
    """Untraced stand-in for Tracer.section: records only the wall time."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        into["wall_s"] = time.perf_counter() - t0


def merge_sections(sections: list[dict]) -> dict:
    """One section with the summed wall time, layer stats and counts."""
    total: dict = {"wall_s": 0.0, "layers": {}, "counts": {}}
    for sec in sections:
        total["wall_s"] += sec["wall_s"]
        for k, v in sec.get("layers", {}).items():
            acc = total["layers"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        for k, v in sec.get("counts", {}).items():
            total["counts"][k] = total["counts"].get(k, 0) + v
    return total
