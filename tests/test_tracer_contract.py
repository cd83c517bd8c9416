"""The names the benchmark's tracer wraps must exist in the package.

`perfbench/tracing.py` wraps module-level functions and a list of methods by
name, and `perfbench/metrics.py` reports spans by name. A renamed or moved
function would make a traced run read 0 for it without failing; this test
makes it fail here instead. The tracer is only imported, never installed."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from dnsseclab.attack import AUTHORITY_ADDRESS, VICTIM_ADDRESS, AttackConfig, build_lab
from dnsseclab.names import DnsName
from dnsseclab.netsim import QueryEvent
from dnsseclab.records import RType

from conftest import APEX

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


@pytest.mark.parametrize("port_mode", ["fixed", "random"])
def test_on_query_length_counts_the_forged_packets(fixture_zone, port_mode):
    """The tracer's `netsim.injected_packets` adds up `len()` of what
    `KaminskyAttacker.on_query` returns."""
    cfg = AttackConfig(mode="kaminsky", target_zone=APEX, port_mode=port_mode)
    attacker = build_lab(cfg, fixture_zone).attacker
    qname = DnsName.from_text("r0-0.domaine.ma.")
    event = QueryEvent(AUTHORITY_ADDRESS, qname, RType.A, VICTIM_ADDRESS)
    assert len(attacker.on_query(event)) == 0
    attacker.arm(qname)
    assert len(attacker.on_query(event)) == cfg.forged_per_query
