"""Every name the benchmark tracer wraps must exist in the package.

``bench/tracer.py`` swaps ``(module, name)`` pairs of ``sec_transfer`` for
timing wrappers.  A renamed function would break ``bench/run.py --trace 1``
without failing any other test, so the pairs are checked here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layer_calls():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.LAYER_CALLS


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _, _ in _layer_calls()], ids=lambda v: v
)
def test_traced_name_resolves_to_a_callable(module_name, attr):
    module = importlib.import_module(f"sec_transfer.{module_name}")
    assert callable(getattr(module, attr, None)), f"sec_transfer.{module_name}.{attr}"
