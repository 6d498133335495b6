"""The names the benchmark harness under bench/ looks up on atrig resolve, so
renaming or deleting one fails here rather than as a failed benchmark run."""

import importlib.util
from pathlib import Path

import atrig
import atrig.cli  # the harness imports it; the package itself does not
import atrig.verify

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve_on_the_package():
    traced = _load_tracer().TRACED
    assert traced
    for layer, names in traced.items():
        module = getattr(atrig, layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_sampling_helpers_of_the_workloads_resolve():
    assert callable(atrig.verify.random_depressed_presentation)
    assert callable(atrig.verify.random_ld_sample)
