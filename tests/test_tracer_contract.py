"""The names the benchmark's tracer wraps must exist in the package.

`perfbench/tracing.py` wraps module-level functions and a list of methods by
name, and `perfbench/metrics.py` reports spans by name. A renamed or moved
function would make a traced run read 0 for it without failing; this test
makes it fail here instead. The tracer is only imported, never installed."""

import importlib
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import metrics  # noqa: E402
import tracing  # noqa: E402


def test_traced_methods_are_functions_defined_on_their_classes():
    for layer, methods in tracing.METHODS.items():
        module = importlib.import_module(f"dnsseclab.{layer}")
        for cls_name, method in methods:
            assert inspect.isfunction(vars(getattr(module, cls_name)).get(method)), \
                f"{layer}.{cls_name}.{method}"


def test_reported_spans_name_wrapped_functions():
    spans = [span for span, _, _ in metrics.RUN_SPANS] + list(metrics.SETUP_SPANS)
    for span in spans:
        layer, _, attr = span.partition(".")
        assert layer in tracing.LAYERS, span
        if "." in attr:
            assert tuple(attr.split(".")) in tracing.METHODS[layer], span
            continue
        module = importlib.import_module(f"dnsseclab.{layer}")
        fn = vars(module).get(attr)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, span
