"""The RDATA intern table in `records.rdata_from_wire`.

An RDATA is kept, keyed by type and octets, only when its decoder stopped
at the end of its octets and its wire form gives those octets back, which
rules out a compression pointer, so its value depends on the octets alone.
A warm table must then never change what a decode returns or raises: the
same message, or the same typed error with the same text. It holds at most
`INTERN_ENTRIES` values of at most `INTERN_OCTETS` octets each."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from dnsseclab import records
from dnsseclab.message import Edns, decode_message, encode_message, make_query
from dnsseclab.names import DnsName
from dnsseclab.records import (INTERN_ENTRIES, INTERN_OCTETS, ARdata, RType,
                               rdata_from_wire)
from dnsseclab.server import answer_authoritative
from dnsseclab.wire import Truncated

QNAMES = ("domaine.ma.", "www.domaine.ma.", "ftp.domaine.ma.", "mail.domaine.ma.",
          "nowhere.domaine.ma.", "r3-7.domaine.ma.", "ns2.domaine.ma.")
QTYPES = (RType.A, RType.NS, RType.SOA, RType.MX, RType.TXT, RType.DNSKEY,
          RType.NSEC, RType.CNAME, RType.DS)


def _within_caps() -> bool:
    return (len(records._interned) <= INTERN_ENTRIES
            and all(len(octets) <= INTERN_OCTETS for _, octets in records._interned))


def _outcome(wire: bytes):
    """The decoded message in a form that tells letter case apart, or the
    type and text of the error."""
    try:
        msg = decode_message(wire)
    except Exception as exc:  # compared, not swallowed: the type is asserted
        return type(exc), str(exc)
    return msg, repr(msg)


def _reply(zone, qname: str, qtype: int) -> bytes:
    query = make_query(DnsName.from_text(qname), qtype, id=7, edns=Edns(do=True))
    return encode_message(answer_authoritative(query, [zone]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(QNAMES), st.sampled_from(QTYPES),
       st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)), max_size=4))
def test_warm_table_decodes_as_an_empty_one(signed_zone, qname, qtype, mutations):
    """Signed replies, as served and with octets overwritten: decoding with
    the table emptied and after it was warmed with the unmutated reply and
    the mutated one itself gives the same outcome."""
    served = _reply(signed_zone.zone, qname, qtype)
    wire = bytearray(served)
    for position, octet in mutations:
        wire[position % len(wire)] = octet
    wire = bytes(wire)
    records._interned.clear()
    cold = _outcome(wire)
    _outcome(served)
    _outcome(wire)
    warm = _outcome(wire)
    assert type(warm[0]) is type(cold[0])
    assert warm == cold
    assert _within_caps()


def test_served_rdata_is_decoded_once_and_shared(signed_zone):
    wire = _reply(signed_zone.zone, "nowhere.domaine.ma.", RType.A)
    first, second = decode_message(wire), decode_message(wire)
    assert first == second and first.authority
    assert all(a.rdata is b.rdata for a, b in zip(first.authority, second.authority))


def _one_answer(qname: str, rtype: int, rdata: bytes) -> bytes:
    """A reply to `qname` whose one answer, owned by the question name
    through a pointer, has these RDATA octets."""
    question = DnsName.from_text(qname).to_wire() + struct.pack(">HH", rtype, 1)
    return (struct.pack(">HHHHHH", 1, 0x8400, 1, 1, 0, 0) + question
            + b"\xc0\x0c" + struct.pack(">HHIH", rtype, 1, 300, len(rdata)) + rdata)


QUESTION = b"\xc0\x0c"  # a pointer to the question name, right after the header
SOA_TAIL = struct.pack(">IIIII", 1, 3600, 900, 604800, 300)
RRSIG_HEAD = struct.pack(">HBBIIIH", RType.A, 5, 2, 300, 2000000000, 1000000000, 4242)


@pytest.mark.parametrize("rtype, rdata, names", [
    (RType.NS, QUESTION, lambda r: [r.target]),
    (RType.CNAME, b"\x03www" + QUESTION, lambda r: [r.target.parent()]),
    (RType.SOA, QUESTION + b"\x05admin" + QUESTION + SOA_TAIL,
     lambda r: [r.mname, r.rname.parent()]),
    (RType.MX, b"\x00\x0a" + QUESTION, lambda r: [r.exchange]),
    (RType.RRSIG, RRSIG_HEAD + QUESTION + bytes(range(64)), lambda r: [r.signer_name]),
], ids=["ns", "cname", "soa", "mx", "rrsig-signer"])
def test_compressed_names_come_from_each_message(rtype, rdata, names):
    """The same RDATA octets hold a pointer to the question name; in two
    messages with different questions each decode names its own question."""
    for qname in ("a.example.", "b.example.", "a.example."):
        (record,) = decode_message(_one_answer(qname, rtype, rdata)).answers
        assert names(record.rdata) == [DnsName.from_text(qname)] * len(names(record.rdata))
    assert (rtype, rdata) not in records._interned


def test_table_holds_at_most_its_capacity():
    records._interned.clear()
    for i in range(INTERN_ENTRIES + 10):
        octets = i.to_bytes(4, "big")
        rdata, _ = rdata_from_wire(RType.A, octets, 0, 4)
        assert rdata == ARdata(".".join(map(str, octets)))
        assert 0 < len(records._interned) <= INTERN_ENTRIES


def test_table_keeps_no_rdata_over_its_octet_cap():
    unknown = 65280  # a private-use type, decoded as opaque octets
    for size in (INTERN_OCTETS, INTERN_OCTETS + 1):
        octets = bytes(size)
        rdata, stop = rdata_from_wire(unknown, octets, 0, size)
        assert rdata.to_wire() == octets and stop == size
        assert ((unknown, octets) in records._interned) == (size <= INTERN_OCTETS)
    assert _within_caps()


@pytest.mark.parametrize("rtype, rdata", [
    (RType.SOA, b"\x00\x00" + SOA_TAIL[:-1]),
    (RType.RRSIG, RRSIG_HEAD[:-3]),
    (RType.A, b"\x0a\x00\x00"),
], ids=["soa", "rrsig", "a"])
def test_truncated_rdata_raises_the_same_error_each_time(rtype, rdata):
    wire = _one_answer("a.example.", rtype, rdata)
    errors = []
    for _ in range(2):
        with pytest.raises(Truncated) as caught:
            decode_message(wire)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert (rtype, rdata) not in records._interned


def test_a_failed_decode_is_not_kept():
    """Five octets of A RDATA: the decoder stops after four, so the record
    is rejected, and rejected again, never kept."""
    wire = _one_answer("a.example.", RType.A, bytes(5))
    for _ in range(2):
        with pytest.raises(ValueError, match="1 octets left over in A rdata"):
            decode_message(wire)
    assert (RType.A, bytes(5)) not in records._interned
