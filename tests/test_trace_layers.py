"""The benchmark times each layer by patching udscheme's module attributes
by name (perfbench/tracing.py). A name it traces that no longer exists drops
that layer from `perfbench/run.py --trace 1` without an error, so every one
must resolve. A name that resolves but is no longer called through the
patched attribute reads as an unused layer, so the hot ones must be called."""

import os

from udscheme.parsing import perceptron

from synth import synth_corpus

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_layer_is_present(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_training_and_parsing_call_the_hot_layers_through_module_globals(monkeypatch, tmp_path):
    calls = {"extract_features": 0, "fnv1a64": 0, "score": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("extract_features", "fnv1a64"):
        monkeypatch.setattr(perceptron, name, counted(name, getattr(perceptron, name)))
    monkeypatch.setattr(perceptron.Model, "score", counted("score", perceptron.Model.score))
    corpus = synth_corpus(4)
    # no dev set: the training steps alone must call the feature layer; they
    # score the raw weights in the packed store
    model = perceptron.train(corpus, None, perceptron.Hyperparameters(epochs=1), seed=1)
    trained = dict(calls)
    assert trained["extract_features"] >= 1 and trained["score"] == 0
    # the trained model decodes by its integer numerators, in parse() itself
    perceptron.parse(model, corpus[0])
    exact = dict(calls)
    assert exact["extract_features"] > trained["extract_features"] and exact["score"] == 0
    # a model read from a file decodes by its fixed-point rows, and calls
    # Model.score only for the steps whose sums are near the top
    path = str(tmp_path / "model.txt")
    perceptron.save_model(model, path)
    perceptron.parse(perceptron.load_model(path), corpus[0])
    assert calls["extract_features"] > exact["extract_features"]
    assert calls["score"] - exact["score"] < calls["extract_features"] - exact["extract_features"]
    # one with no weights ties on every step with a choice, and asks floats
    perceptron.parse(perceptron.Model(model.labels), corpus[0])
    assert calls["score"] > exact["score"]
    # models are keyed by string: nothing is hashed, in training or parsing
    assert calls["fnv1a64"] == 0
