"""The names the benchmark harness under bench/ looks up on atrig resolve, so
renaming or deleting one fails here rather than as a failed benchmark run."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("kind", ["nil", "complicated"])
def test_polar_keeps_the_fields_the_polar_check_reads(kind):
    # The polar check reads rho as a positive finite float and requires the
    # argument's real coordinate to be exactly zero.
    pres = atrig.preset(kind, 32)
    rng = np.random.default_rng(32)
    for norm in (3.0, 4.5, 6.0):
        v = rng.uniform(-1.0, 1.0, 32)
        form = atrig.polar(atrig.exp(pres.element(v * (norm / np.abs(v).max()))))
        assert type(form.rho) is float
        assert 0.0 < form.rho < math.inf
        assert form.arg.coords[0] == 0.0
