"""Replies are built in one place.

`message.make_reply` decides what a reply to a query looks like: its id and
question, the echoed rd bit and EDNS, and the qr bit. No other module of the
package names the qr flag, so no responder can build a reply header of its
own; and the authoritative and gateway services share one `handle_wire`."""

import ast
from pathlib import Path

import pytest

from dnsseclab.server import AuthoritativeService, GatewayService

SRC = Path(__file__).resolve().parents[1] / "src" / "dnsseclab"
BUILDER = "message.py"


def qr_lines(source: str) -> list[int]:
    """Line numbers of the string constants "qr" in `source`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and node.value == "qr")


@pytest.mark.parametrize("source, expected", [
    ('reply = DnsMessage(flags=frozenset({"qr"}))\n', [1]),
    ('def f(q):\n    return replace(q, flags=q.flags | {"qr", "aa"})\n', [2]),
    ('if "qr" in msg.flags:\n    pass\n', [1]),
    ('FLAGS = {\n    "qr": 0x8000,\n}\n', [2]),
    ('reply = make_reply(query, "aa")\n', []),
    ('"""A qr reply."""\nflag = "QR"\n', []),
], ids=["set", "replace", "membership", "dict-key", "builder-call", "near-misses"])
def test_checker_flags_only_the_qr_constant(source, expected):
    assert qr_lines(source) == expected


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != BUILDER),
                         ids=lambda p: p.name)
def test_only_the_message_module_names_the_qr_flag(path):
    assert qr_lines(path.read_text(encoding="utf-8")) == []


def test_gateway_shares_the_authoritative_handle_wire():
    assert vars(GatewayService)["handle_wire"] is vars(AuthoritativeService)["handle_wire"]
