"""The benchmark times each layer by patching udscheme's module attributes
by name (perfbench/tracing.py). A name it traces that no longer exists drops
that layer from `perfbench/run.py --trace 1` without an error, so every one
must resolve."""

import os

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
