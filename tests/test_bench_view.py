"""The benchmark's per-layer view still finds every layer it names.

`perfbench/run.py --trace 1` stops with "no value for ..." when a traced
function is renamed or deleted; this test sees the same gap in tier-1.  It
reads `perfbench/` and BENCHMARK.json and changes neither.
"""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_metric_of_the_benchmark_is_reported():
    import trialkit.cli  # noqa: F401  (loads every traced layer)
    from trialkit import linalg

    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        reported = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    traced = [n for n in names if n.endswith((".calls", ".self_s", ".pairs"))]
    assert len(traced) > 40
    assert [n for n in traced if n not in reported] == []
    # perfbench/micro.py times the FieldElement front-end itself
    assert callable(linalg.mat_mul)
