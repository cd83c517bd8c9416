import socket
import threading

import pytest

from dnsseclab.cli import build_service
from dnsseclab.config import (ConfigError, load_server_config,
                              parse_root_hints, parse_server_config)
from dnsseclab.message import Edns, Rcode, decode_message, encode_message, make_query
from dnsseclab.names import DnsName
from dnsseclab.netsim import SimNetwork, SimTransport
from dnsseclab.records import RType
from dnsseclab.server import AuthoritativeService, DnsServer
from dnsseclab.transport import SocketTransport
from dnsseclab.zonefile import serialize_zone

from conftest import APEX

FULL_CONFIG = """\
# server configuration
listen 127.0.0.1
port 5399
recursion yes
dnssec-enable yes
trust-anchors trusted-key.key
root-hints named.ca
source-port random
zone "domaine.ma" {
    type primary;
    file "domaine.ma.signed";
}
zone "other.example" { type secondary; file "other.db"; }
"""


def test_parse_full_config(tmp_path):
    config = parse_server_config(FULL_CONFIG, tmp_path)
    assert config.listen == "127.0.0.1" and config.port == 5399
    assert config.recursion_enabled and config.dnssec_enabled
    assert config.trust_anchor_path == tmp_path / "trusted-key.key"
    assert config.root_hints_path == tmp_path / "named.ca"
    assert config.source_port == "random"
    assert len(config.zones) == 2
    assert config.zones[0].name == APEX
    assert config.zones[0].role == "primary"
    assert config.zones[1].role == "secondary"


def test_config_rejects_duplicate_apex():
    text = ('zone "a.test" { type primary; file "a"; }\n'
            'zone "a.test" { type primary; file "b"; }\n')
    with pytest.raises(ConfigError):
        parse_server_config(text)


@pytest.mark.parametrize("line", [
    "recursion maybe",
    "source-port sometimes",
    "unknown-directive 1",
    "listen",
    'zone "x" { type primary; }',
    'zone "x" { type tertiary; file "f"; }',
    'zone "x" { type primary; file "f";',
])
def test_config_rejects_bad_directives(line):
    with pytest.raises(ConfigError):
        parse_server_config(line)


def test_config_rejects_non_numeric_port():
    with pytest.raises(ConfigError, match="port"):
        parse_server_config("port abc")


def test_default_anchor_path_env_override(tmp_path, monkeypatch):
    config = parse_server_config("dnssec-enable yes", tmp_path)
    assert config.default_anchor_path() == tmp_path / "trusted-key.key"
    monkeypatch.setenv("DNSSECLAB_CONFIG_DIR", "/etc/dnsseclab")
    assert str(config.default_anchor_path()) == "/etc/dnsseclab/trusted-key.key"


def test_root_hints_parsing():
    hints = parse_root_hints(
        ".   518400 IN NS a.root.\n"
        "a.root. 518400 IN A 9.9.9.9\n"
        ". 518400 IN NS b.root.\nb.root. 518400 IN A 9.9.9.8\n")
    assert hints.addresses() == ["9.9.9.9", "9.9.9.8"]


def test_root_hints_need_addresses():
    with pytest.raises(ConfigError):
        parse_root_hints(". 518400 IN NS a.root.\n")
    with pytest.raises(ConfigError):
        parse_root_hints("garbage\n")


def test_recursive_service_from_config(tmp_path, signed_zone, ksk):
    (tmp_path / "domaine.ma.signed").write_text(serialize_zone(signed_zone.zone))
    (tmp_path / "named.ca").write_text(
        ". 518400 IN NS a.root.\na.root. 518400 IN A 192.168.1.1\n")
    anchor = f"{APEX.to_text()} IN DNSKEY {ksk.public.to_text()}\n"
    (tmp_path / "trusted-key.key").write_text(anchor)
    (tmp_path / "server.conf").write_text(
        "listen 127.0.0.1\nport 0\nrecursion yes\ndnssec-enable yes\n"
        "root-hints named.ca\n"
        'zone "local.test" { type primary; file "local.db"; }\n')
    (tmp_path / "local.db").write_text(
        "$TTL 60\n@ IN SOA ns admin 1 2 3 4 60\n@ IN A 10.0.0.1\n")

    config = load_server_config(tmp_path / "server.conf")
    # the default trusted-key.key in the config directory is picked up
    net = SimNetwork(seed=8)
    net.register("192.168.1.1",
                 AuthoritativeService([signed_zone.zone]).handle_wire)
    service = build_service(config, transport=SimTransport(net, "192.0.2.50"),
                            clock=net.clock)

    # authoritative zone answered locally
    local = make_query(DnsName.from_text("local.test."), RType.A, id=1, rd=True)
    reply = decode_message(service.handle_wire(encode_message(local), True))
    assert "aa" in reply.flags and reply.answers

    # out-of-zone query recursed and validated through the default anchor
    away = make_query(DnsName.from_text("www.domaine.ma."), RType.A, id=2,
                      rd=True, edns=Edns(do=True))
    reply = decode_message(service.handle_wire(encode_message(away), True))
    assert reply.rcode == Rcode.NOERROR
    assert "ad" in reply.flags
    assert any(r.rtype == RType.A for r in reply.answers)

    # without the rd flag, non-authoritative queries are refused
    norec = make_query(DnsName.from_text("www.domaine.ma."), RType.A, id=3)
    reply = decode_message(service.handle_wire(encode_message(norec), True))
    assert reply.rcode == Rcode.REFUSED


def test_fixed_source_port_reuses_one_socket(signed_zone):
    server = DnsServer([signed_zone.zone], address="127.0.0.1", port=0)
    server.start()
    seen_ports = set()
    original_handler = server.service.handle_wire
    try:
        transport = SocketTransport(port=server.port, source_port="fixed")
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        # observe the client's source port through a one-shot echo server
        probe.bind(("127.0.0.1", 0))
        probe.settimeout(2.0)

        def echo():
            for _ in range(3):
                wire, sender = probe.recvfrom(65535)
                seen_ports.add(sender[1])
                probe.sendto(original_handler(wire, False), sender)

        thread = threading.Thread(target=echo, daemon=True)
        thread.start()
        address = f"127.0.0.1:{probe.getsockname()[1]}"
        query = make_query(APEX, RType.A, id=4)
        for _ in range(3):
            transport.query(address, query)
        thread.join(timeout=3)
        transport.close()
        probe.close()
    finally:
        server.shutdown()
    assert len(seen_ports) == 1


def test_server_reload_swaps_zones(signed_zone, fixture_zone):
    from dnsseclab.zonefile import parse_zone_file
    other = parse_zone_file(
        "$TTL 60\n@ IN SOA ns admin 1 2 3 4 60\n@ IN A 172.16.0.1\n", APEX)
    server = DnsServer([signed_zone.zone], address="127.0.0.1", port=0)
    server.start()
    try:
        transport = SocketTransport(port=server.port)
        query = make_query(APEX, RType.A, id=5)
        first = transport.query("127.0.0.1", query)[0]
        assert first.answers[0].rdata.address == "192.168.1.3"
        server.reload([other])
        second = transport.query("127.0.0.1", query)[0]
        assert second.answers[0].rdata.address == "172.16.0.1"
    finally:
        server.shutdown()
