import random
import struct

import pytest
from hypothesis import given, strategies as st

from dnsseclab.names import DnsName
from dnsseclab.records import (ARdata, DnskeyRdata, NsecRdata, RdataError,
                               ResourceRecord, RrsigRdata, RRset, RType,
                               TtlMismatchWarning, TxtRdata,
                               canonical_rrset_bytes, decode_type_bitmap,
                               encode_type_bitmap, group_rrsets,
                               key_tag_from_rdata, nsec_gap_covers,
                               rdata_from_text, rdata_from_wire,
                               rrsigs_covering, timestamp_from_text,
                               timestamp_to_text)

from conftest import random_rdata

APEX = DnsName.from_text("domaine.ma.")


# ---------------------------------------------------------------------------
# Key tag checksum
# ---------------------------------------------------------------------------

def test_key_tag_all_zero_rdata():
    assert key_tag_from_rdata(b"\x00" * 8) == 0


def test_key_tag_hand_computed():
    # 0x0102 + 0x0304 = 0x0406, no carry to fold.
    assert key_tag_from_rdata(bytes([0x01, 0x02, 0x03, 0x04])) == 0x0406


def _independent_key_tag(rdata: bytes) -> int:
    """Reimplementation via 16-bit word unpacking rather than octet indexing."""
    padded = rdata + (b"\x00" if len(rdata) % 2 else b"")
    total = sum(struct.unpack(f">{len(padded) // 2}H", padded))
    return (total + (total >> 16)) & 0xFFFF


def test_key_tag_matches_independent_reimplementation():
    rng = random.Random(7)
    for _ in range(200):
        rdata = bytes(rng.randrange(256) for _ in range(rng.randint(0, 80)))
        assert key_tag_from_rdata(rdata) == _independent_key_tag(rdata)


def _loop_key_tag(rdata: bytes) -> int:
    """The octet-by-octet loop `key_tag_from_rdata` replaced: the reference."""
    acc = 0
    for i, octet in enumerate(rdata):
        acc += octet if i & 1 else octet << 8
    acc += (acc >> 16) & 0xFFFF
    return acc & 0xFFFF


@given(st.binary(max_size=1100))
def test_key_tag_equals_the_octet_loop(rdata):
    assert key_tag_from_rdata(rdata) == _loop_key_tag(rdata)


def test_key_tag_equals_the_octet_loop_at_every_length():
    rng = random.Random(11)
    for length in range(1101):
        for rdata in (b"\xff" * length, rng.randbytes(length)):
            assert key_tag_from_rdata(rdata) == _loop_key_tag(rdata), length


def test_key_tag_carry_folding():
    # 0xffff * several octet pairs forces carries past 16 bits.
    rdata = b"\xff" * 10
    assert key_tag_from_rdata(rdata) == _independent_key_tag(rdata)


def test_dnskey_method_covers_full_rdata():
    key = DnskeyRdata(256, 3, 5, b"\x01\x02")
    assert key.key_tag() == key_tag_from_rdata(key.to_wire())


# ---------------------------------------------------------------------------
# Type bitmap
# ---------------------------------------------------------------------------

@given(st.frozensets(st.integers(min_value=0, max_value=1024), max_size=12))
def test_type_bitmap_round_trip(types):
    assert decode_type_bitmap(encode_type_bitmap(types)) == types


def test_type_bitmap_known_encoding():
    # A(1), MX(15), RRSIG(46), NSEC(47): window 0, 6 octets.
    wire = encode_type_bitmap({1, 15, 46, 47})
    assert wire[0] == 0 and wire[1] == 6
    assert wire[2] == 0x40  # bit for type 1
    assert decode_type_bitmap(wire) == frozenset({1, 15, 46, 47})


def test_nsec_bitmap_is_encoded_once_per_instance(monkeypatch):
    calls = []

    def counting(types):
        calls.append(types)
        return encode_type_bitmap(types)

    monkeypatch.setattr("dnsseclab.records.encode_type_bitmap", counting)
    nsec = NsecRdata(DnsName.from_text("b.example."), frozenset({1, 15, 46, 47}))
    wires = {nsec.to_wire(), nsec.to_wire()}
    canonical = {nsec.canonical_wire(), nsec.canonical_wire()}
    assert len(calls) == 1
    assert wires == {b"\x01b\x07example\x00" + encode_type_bitmap({1, 15, 46, 47})}
    assert canonical == wires


@pytest.mark.parametrize("wire", [
    b"\x00\x02\x40\x00",
    b"\x00\x00",
    b"\x01\x01\x40\x00\x01\x40",
    b"\x00\x01\x40\x00\x01\x40",
    b"\x00\x21" + bytes(32) + b"\x01",
    b"\x00\x02\x40",
    b"\x00\x01\x40\x01",
], ids=["trailing-zero-octet", "empty-window", "descending", "repeated",
        "over-32-octets", "window-cut-short", "header-cut-short"])
def test_type_bitmap_rejects_what_the_encoder_never_writes(wire):
    with pytest.raises(RdataError):
        decode_type_bitmap(wire)


@pytest.mark.parametrize("window", [0, 1])
def test_type_bitmap_every_one_octet_window_agrees_with_the_encoder(window):
    for octet in range(1, 256):
        wire = bytes((window, 1, octet))
        types = decode_type_bitmap(wire)
        assert types == {(window << 8) | bit for bit in range(8) if octet & (0x80 >> bit)}
        assert encode_type_bitmap(types) == wire


# ---------------------------------------------------------------------------
# NSEC gaps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("owner, nxt, name, covered", [
    ("a.domaine.ma.", "c.domaine.ma.", "b.domaine.ma.", True),
    ("a.domaine.ma.", "c.domaine.ma.", "x.b.domaine.ma.", True),
    ("a.domaine.ma.", "c.domaine.ma.", "a.domaine.ma.", False),
    ("a.domaine.ma.", "c.domaine.ma.", "c.domaine.ma.", False),
    ("a.domaine.ma.", "c.domaine.ma.", "d.domaine.ma.", False),
    ("c.domaine.ma.", "domaine.ma.", "d.domaine.ma.", True),
    ("c.domaine.ma.", "domaine.ma.", "b.domaine.ma.", False),
    ("domaine.ma.", "domaine.ma.", "b.domaine.ma.", True),
    ("domaine.ma.", "domaine.ma.", "domaine.ma.", False),
], ids=["inside", "below-inside", "owner", "next", "past-next", "wrap", "before-wrap",
        "lone-nsec", "lone-nsec-owner"])
def test_nsec_gap_covers(owner, nxt, name, covered):
    """The gap runs strictly between owner and next name; a next name that
    does not sort after the owner wraps around past the last owner."""
    keys = [DnsName.from_text(n).canonical_key() for n in (owner, nxt, name)]
    assert nsec_gap_covers(*keys) is covered


def test_rrsigs_covering_matches_owner_and_covered_type():
    www, mail = DnsName.from_text("www.example."), DnsName.from_text("mail.example.")

    def rrsig(owner, covered):
        rdata = RrsigRdata(covered, 5, 2, 300, 2, 1, 7, DnsName.from_text("example."), b"s")
        return ResourceRecord(owner, RType.RRSIG, 1, 300, rdata)

    www_a, www_mx, mail_a = rrsig(www, RType.A), rrsig(www, RType.MX), rrsig(mail, RType.A)
    section = [ResourceRecord(www, RType.A, 1, 300, ARdata("10.0.0.1")),
               mail_a, www_mx, www_a, www_a]
    assert rrsigs_covering(section, DnsName.from_text("WWW.example."), RType.A) \
        == [www_a, www_a]
    assert rrsigs_covering(section, www, RType.MX) == [www_mx]
    assert rrsigs_covering(section, mail, RType.MX) == []


# ---------------------------------------------------------------------------
# Canonical RRset bytes
# ---------------------------------------------------------------------------

def make_rrset(*addresses, owner=APEX, ttl=86400):
    return RRset(owner, RType.A, 1, ttl, tuple(ARdata(a) for a in addresses))


def test_canonical_bytes_order_independent():
    forward = make_rrset("10.0.0.1", "192.168.1.3")
    backward = make_rrset("192.168.1.3", "10.0.0.1")
    assert canonical_rrset_bytes(forward, 86400) == canonical_rrset_bytes(backward, 86400)


def test_canonical_bytes_case_independent():
    upper = make_rrset("192.168.1.3", owner=DnsName.from_text("DOMAINE.MA."))
    lower = make_rrset("192.168.1.3", owner=DnsName.from_text("domaine.ma."))
    assert canonical_rrset_bytes(upper, 86400) == canonical_rrset_bytes(lower, 86400)


def test_canonical_bytes_end_with_address_octets():
    data = canonical_rrset_bytes(make_rrset("192.168.1.3"), 86400)
    assert data.endswith(bytes([192, 168, 1, 3]))


def test_canonical_bytes_perturbation_changes_output():
    rng = random.Random(5)
    for rtype in (RType.A, RType.NS, RType.MX, RType.TXT, RType.DNSKEY):
        rdata = random_rdata(rng, rtype)
        rrset = RRset(APEX, rtype, 1, 3600, (rdata,))
        baseline = canonical_rrset_bytes(rrset, 3600)
        wire = bytearray(rdata.to_wire())
        index = rng.randrange(len(wire))
        wire[index] ^= 0x01
        try:
            mutated, _ = rdata_from_wire(rtype, bytes(wire), 0, len(wire))
        except (RdataError, ValueError):
            continue
        mutated_set = RRset(APEX, rtype, 1, 3600, (mutated,))
        assert canonical_rrset_bytes(mutated_set, 3600) != baseline


def test_canonical_bytes_use_original_ttl():
    rrset = make_rrset("192.168.1.3", ttl=301)
    assert canonical_rrset_bytes(rrset, 86400) == \
        canonical_rrset_bytes(make_rrset("192.168.1.3", ttl=86400), 86400)


# ---------------------------------------------------------------------------
# RRset grouping
# ---------------------------------------------------------------------------

def _record(owner, rtype, rdata, ttl=3600):
    return ResourceRecord(DnsName.from_text(owner), rtype, 1, ttl, rdata)


def test_group_rrsets_partitions_and_orders():
    records = [
        _record("www.domaine.ma.", RType.A, ARdata("10.0.0.1")),
        _record("www.domaine.ma.", RType.A, ARdata("10.0.0.2")),
        _record("domaine.ma.", RType.MX, rdata_from_text(RType.MX, ["10", "mail"], APEX)),
    ]
    rrsets = group_rrsets(records)
    assert len(rrsets) == 2
    assert rrsets[0].owner == APEX and rrsets[0].rtype == RType.MX
    assert rrsets[1].rtype == RType.A and len(rrsets[1].rdatas) == 2
    # partition: every record appears exactly once
    def key(r):
        return (r.owner.canonical_key(), r.rtype, r.rdata.to_wire())
    regrouped = sorted((key(r) for s in rrsets for r in s.records()))
    assert regrouped == sorted(key(r) for r in records)


def test_group_rrsets_single_record():
    rrsets = group_rrsets([_record("domaine.ma.", RType.A, ARdata("1.2.3.4"))])
    assert len(rrsets) == 1 and rrsets[0].ttl == 3600


def test_group_rrsets_ttl_conflict_takes_minimum_and_warns():
    records = [
        _record("domaine.ma.", RType.A, ARdata("1.2.3.4"), ttl=300),
        _record("domaine.ma.", RType.A, ARdata("1.2.3.5"), ttl=600),
    ]
    with pytest.warns(TtlMismatchWarning):
        rrsets = group_rrsets(records)
    assert rrsets[0].ttl == 300


def test_group_rrsets_random_partition_property():
    rng = random.Random(11)
    owners = ["domaine.ma.", "a.domaine.ma.", "b.domaine.ma."]
    records = [_record(rng.choice(owners), RType.A,
                       ARdata(f"10.0.0.{rng.randint(0, 30)}"), ttl=100)
               for _ in range(60)]
    rrsets = group_rrsets(records)
    def key(r):
        return (r.owner.canonical_key(), r.rtype, r.rdata.to_wire())
    flattened = sorted(key(r) for s in rrsets for r in s.records())
    assert sorted({key(r) for r in records}) == flattened


# ---------------------------------------------------------------------------
# Rdata validation and text forms
# ---------------------------------------------------------------------------

def test_a_rdata_validation():
    with pytest.raises(RdataError):
        ARdata("192.168.1")
    with pytest.raises(RdataError):
        ARdata("1.2.3.999")
    assert ARdata("192.168.1.3").to_wire() == bytes([192, 168, 1, 3])


def test_txt_rdata_limits():
    with pytest.raises(RdataError):
        TxtRdata(())
    with pytest.raises(RdataError):
        TxtRdata((b"x" * 256,))


def test_rrset_invariants():
    with pytest.raises(RdataError):
        RRset(APEX, RType.A, 1, 60, ())
    with pytest.raises(RdataError):
        RRset(APEX, RType.A, 1, 60, (ARdata("1.1.1.1"), ARdata("1.1.1.1")))


def test_timestamp_text_forms():
    assert timestamp_to_text(timestamp_from_text("20110812095331")) == "20110812095331"
    assert len(timestamp_to_text(0)) == 14
    with pytest.raises(RdataError):
        timestamp_from_text("2011")


def test_rdata_text_round_trips():
    rng = random.Random(3)
    for rtype in (RType.A, RType.NS, RType.CNAME, RType.SOA, RType.MX,
                  RType.DNSKEY, RType.RRSIG, RType.NSEC, RType.DS):
        for _ in range(10):
            rdata = random_rdata(rng, rtype)
            text = rdata.to_text()
            parsed = rdata_from_text(rtype, text.split(), None)
            assert parsed == rdata, rtype
