"""The benchmark's per-layer metrics name callables that still exist.

perfbench/layers.py reads each per-layer span, and each probe's
counters, off a traced callable found by name.  A renamed or deleted
callable would leave its metrics at zero without any error, so this test
fails instead.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_span_is_traced():
    layers = _load_layers()
    traced = {name for name, _, _, _ in layers.traced_callables()}
    read = set()
    for metric, _ in layers.PER_LAYER:
        span, field = metric.rsplit(".", 1)
        # module.self_s sums the self time of every span in the module
        if field in ("calls", "s", "self_s") and span not in layers.MODULES:
            read.add(span)
    assert read, "no per-layer metric reads a span"
    assert sorted(read - traced) == []
    # a probe reads counters such as ainf.tuples off its span's calls
    assert sorted(set(layers.PROBES) - traced) == []
