"""The names the traced benchmark run looks up in the package.

``perfbench/tracer.py`` wraps scipy calls through module attributes of the
package (its ``SCIPY_CALLS`` table).  An attribute that is renamed or
dropped as unused makes the traced run fail with an AttributeError, so the
table is checked here against the package.  It also wraps the private
functions named in ``PRIVATE_SPANS`` by name; renaming one of those fails
nothing and reads its per-layer metrics as 0, so they are checked too, as
are the public functions whose spans the metrics read (``SPANS`` below and
the ``verification.check_*`` functions of ``VERIFY_CHECKS``).
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_private_spans_are_package_functions():
    tracer = _tracer()
    assert tracer.PRIVATE_SPANS
    for layer, names in tracer.PRIVATE_SPANS.items():
        module = importlib.import_module(f"delay_wave_lab.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"


def test_tracer_scipy_calls_exist_on_the_package():
    tracer = _tracer()
    assert tracer.SCIPY_CALLS
    for (layer, attr), (span_calls, leaf_calls) in tracer.SCIPY_CALLS.items():
        module = importlib.import_module(f"delay_wave_lab.{layer}")
        assert hasattr(module, attr), f"{layer}.{attr}"
        for call in span_calls + leaf_calls:
            assert callable(getattr(getattr(module, attr), call, None)), \
                f"{layer}.{attr}.{call}"


# the public functions whose spans the per-layer metrics are read from
SPANS = {
    "cli": ("main", "run"),
    "core": ("sample_initial_state",),
    "discretization": ("assemble_generator", "assemble_gram",
                       "symmetrized_max_eigenvalue"),
    "spectral": ("resolvent_norm", "robin_eigenvalue", "find_c_star",
                 "characteristic_function", "characteristic_roots"),
    "analysis": ("fit_decay", "polynomial_fit_decay", "sweep"),
}


def test_tracer_public_spans_are_package_functions():
    tracer = _tracer()
    spans = dict(SPANS, verification=tuple(f"check_{c}" for c in tracer.VERIFY_CHECKS))
    for layer, names in spans.items():
        assert layer in tracer.LAYERS, layer
        module = importlib.import_module(f"delay_wave_lab.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"
