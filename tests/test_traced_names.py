"""Every name the benchmark's tracer wraps must still exist where it looks.

``perfbench/spans.py`` replaces these by name with ``getattr`` and
``cls.__dict__``; a renamed or moved function would break the traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from bibounds.series import QComplex, TruncatedSeries

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # spans.py imports only the standard library.
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("layer", sorted(spans.FUNCTIONS))
def test_traced_functions_resolve(layer):
    module = importlib.import_module(f"bibounds.{layer}")
    missing = [name for name in spans.FUNCTIONS[layer]
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_traced_methods_are_defined_on_their_class():
    for (layer, cls_name), methods in spans.METHODS.items():
        cls = getattr(importlib.import_module(f"bibounds.{layer}"), cls_name)
        assert set(methods) <= set(vars(cls)), cls_name
    assert set(spans.SERIES_METHODS) <= set(vars(TruncatedSeries))
    assert set(spans.QCOMPLEX_METHODS) <= set(vars(QComplex))
