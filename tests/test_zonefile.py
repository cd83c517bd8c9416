import base64

import pytest

from dnsseclab.names import DnsName
from dnsseclab.records import ARdata, RType, TxtRdata
from dnsseclab.zonefile import (DuplicateSoa, MissingSoa, Zone, ZoneError,
                                ZoneSyntaxError, parse_record_line,
                                parse_zone_file, serialize_zone)

from conftest import APEX, ZONE_TEXT

MINIMAL = """\
$TTL 3600
domaine.ma.  IN  SOA  ns.domaine.ma. admin.domaine.ma. 1 3600 900 604800 3600
"""


def test_single_a_record_line():
    record = parse_record_line("domaine.ma. 86400 IN A 192.168.1.3")
    assert record.owner == APEX
    assert record.ttl == 86400
    assert record.rtype == RType.A
    assert record.rdata == ARdata("192.168.1.3")


def test_a_record_inside_zone():
    zone = parse_zone_file(MINIMAL + "domaine.ma. 86400 IN A 192.168.1.3\n", APEX)
    records = zone.records_at(APEX, RType.A)
    assert len(records) == 1 and records[0].rdata.address == "192.168.1.3"


def test_empty_input_missing_soa():
    with pytest.raises(MissingSoa):
        parse_zone_file("", APEX)


def test_duplicate_soa():
    with pytest.raises(DuplicateSoa):
        parse_zone_file(MINIMAL + MINIMAL.splitlines()[1] + "\n", APEX)


def test_fixture_zone_parses():
    zone = parse_zone_file(ZONE_TEXT, APEX)
    assert len(zone.records) == 12
    assert zone.soa_record.rdata.serial == 2011071101
    assert zone.soa_record.rdata.minimum == 3600


def test_round_trip_fixture():
    zone = parse_zone_file(ZONE_TEXT, APEX)
    assert parse_zone_file(serialize_zone(zone), APEX) == zone


def test_round_trip_all_supported_types(signed_zone):
    # The signed fixture carries A, NS, SOA, MX, TXT, CNAME, DNSKEY, RRSIG, NSEC.
    zone = signed_zone.zone
    present = {r.rtype for r in zone.records}
    assert {RType.A, RType.NS, RType.SOA, RType.MX, RType.TXT, RType.CNAME,
            RType.DNSKEY, RType.RRSIG, RType.NSEC} <= present
    text = serialize_zone(zone)
    assert parse_zone_file(text, APEX) == zone


def test_ds_round_trip():
    text = MINIMAL + "child  IN  NS  ns.child\n" \
        "child  3600 IN  DS  12345 5 1 4f4c9c9ab6050680dde1ba3d12a4b39dce4799be\n" \
        "ns.child IN A 10.0.0.1\n"
    zone = parse_zone_file(text, APEX)
    assert parse_zone_file(serialize_zone(zone), APEX) == zone


def test_serialized_dnskey_presentation():
    key = base64.b64encode(b"\x01\x03\x05" * 20).decode()
    zone = parse_zone_file(MINIMAL + f"@ IN DNSKEY 256 3 1 {key}\n", APEX)
    text = serialize_zone(zone)
    assert "DNSKEY\t256 3 1 (" in text
    assert "; key id = " in text
    assert parse_zone_file(text, APEX) == zone


def test_soa_only_serialization():
    zone = parse_zone_file(MINIMAL, APEX)
    lines = [l for l in serialize_zone(zone).splitlines() if not l.startswith("$")]
    assert len(lines) == 1 and "SOA" in lines[0]


def test_parenthesized_soa_and_comments():
    text = """\
; zone for domaine.ma
$TTL 300
@  IN  SOA  ns admin (
        2011071101 ; serial
        3600 900
        604800 3600 )
"""
    zone = parse_zone_file(text, APEX)
    assert zone.soa_record.rdata.serial == 2011071101
    assert zone.soa_record.rdata.mname == DnsName.from_text("ns.domaine.ma.")


def test_owner_inheritance_and_relative_names():
    text = MINIMAL + "www  300  IN  A  10.0.0.1\n     300  IN  A  10.0.0.2\n"
    zone = parse_zone_file(text, APEX)
    www = DnsName.from_text("www.domaine.ma.")
    assert len(zone.records_at(www, RType.A)) == 2


def test_quoted_txt_preserves_spaces():
    text = MINIMAL + '@ IN TXT "hello world" "second;part"\n'
    zone = parse_zone_file(text, APEX)
    txt = zone.records_at(APEX, RType.TXT)[0].rdata
    assert txt == TxtRdata((b"hello world", b"second;part"))
    assert parse_zone_file(serialize_zone(zone), APEX) == zone


def test_origin_directive_switches_context():
    text = MINIMAL + "$ORIGIN sub.domaine.ma.\nhost IN A 10.0.0.9\n"
    zone = parse_zone_file(text, APEX)
    assert zone.records_at(DnsName.from_text("host.sub.domaine.ma."), RType.A)


def test_include_directive(tmp_path):
    include = tmp_path / "keys.inc"
    include.write_text("extra IN A 10.1.1.1\n")
    (tmp_path / "zone.db").write_text(MINIMAL + "$INCLUDE keys.inc\n")
    from dnsseclab.zonefile import load_zone_file
    zone = load_zone_file(tmp_path / "zone.db", APEX)
    assert zone.records_at(DnsName.from_text("extra.domaine.ma."), RType.A)


def test_include_without_base_rejected():
    with pytest.raises(ZoneSyntaxError):
        parse_zone_file(MINIMAL + "$INCLUDE other.db\n", APEX)


def test_syntax_error_reports_position():
    with pytest.raises(ZoneSyntaxError) as err:
        parse_zone_file(MINIMAL + "www  300  IN  BOGUS  10.0.0.1\n", APEX)
    assert err.value.line == 3
    assert err.value.column == 15
    assert "BOGUS" in err.value.reason


def test_unsupported_type_rejected_in_master_file():
    with pytest.raises(ZoneSyntaxError):
        parse_zone_file(MINIMAL + "@ IN TYPE99 \\# 0\n", APEX)


def test_out_of_zone_owner_rejected():
    with pytest.raises(ZoneError):
        parse_zone_file(MINIMAL + "other.example. IN A 10.0.0.1\n", APEX)


def test_missing_ttl_without_default():
    with pytest.raises(ZoneSyntaxError):
        parse_zone_file(
            "domaine.ma. IN SOA ns admin 1 2 3 4 5\n@ IN A 1.2.3.4\n", APEX)


def test_no_ttl_record_uses_default():
    zone = parse_zone_file(MINIMAL + "www IN A 10.0.0.1\n", APEX)
    assert zone.records_at(DnsName.from_text("www.domaine.ma."))[0].ttl == 3600


def test_unbalanced_parens():
    with pytest.raises(ZoneSyntaxError):
        parse_zone_file(MINIMAL + "@ IN TXT ( \"a\"\n", APEX)


def test_delegations_and_glue():
    text = MINIMAL + (
        "child       IN NS ns.child.domaine.ma.\n"
        "ns.child    IN A  10.0.0.5\n"
        "www         IN A  10.0.0.6\n")
    zone = parse_zone_file(text, APEX)
    child = DnsName.from_text("child.domaine.ma.")
    assert zone.delegations() == {child}
    assert zone.is_glue(DnsName.from_text("ns.child.domaine.ma."))
    assert not zone.is_glue(DnsName.from_text("www.domaine.ma."))
    assert not zone.is_glue(child)
