import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from dnsseclab import message
from dnsseclab.message import (DnsMessage, Edns, Question, Rcode, TooManyRecords,
                               decode_message, encode_message, make_query, make_reply)
from dnsseclab.names import DnsName
from dnsseclab.records import (RDATA_CLASSES, ARdata, NsRdata, OpaqueRdata, RdataError,
                               ResourceRecord, RrsigRdata, RType, SoaRdata, rdata_from_wire)
from dnsseclab.wire import MAX_POINTERS, BadPointer, LabelTooLong, Truncated, WireError

from conftest import random_message, random_rdata

APEX = DnsName.from_text("domaine.ma.")


def test_minimal_header_encoding():
    wire = encode_message(DnsMessage(id=0))
    assert wire == b"\x00" * 12


def test_twelve_zero_bytes_decode():
    msg = decode_message(b"\x00" * 12)
    assert msg.id == 0 and not msg.flags
    assert msg.questions == [] and msg.answers == []
    assert msg.edns is None


def test_edns_opt_advertises_payload_and_do():
    query = make_query(APEX, RType.A, id=42469, edns=Edns(do=True, udp_payload=4096))
    wire = encode_message(query)
    # OPT pseudo-record sits at the end: root, type 41, class 4096, DO in ttl.
    opt = wire[-11:]
    assert opt[0] == 0
    rtype, rclass, ttl, rdlen = struct.unpack(">HHIH", opt[1:])
    assert rtype == RType.OPT and rclass == 4096
    assert ttl & 0x8000
    assert rdlen == 0
    back = decode_message(wire)
    assert back.edns == Edns(version=0, do=True, udp_payload=4096)
    assert back.additional == []


def test_round_trip_200_random_messages():
    rng = random.Random(1234)
    for _ in range(200):
        msg = random_message(rng)
        assert decode_message(encode_message(msg)) == msg


def test_query_response_qr_flag():
    query = make_query(APEX, RType.A, rd=True)
    assert "qr" not in query.flags
    response = dataclasses.replace(query, flags=query.flags | {"qr", "aa"})
    assert "qr" in response.flags
    assert decode_message(encode_message(response)).flags == response.flags


@pytest.mark.parametrize("rd, edns", [
    (True, None), (False, Edns(do=True, udp_payload=512)), (True, Edns(udp_payload=1232)),
], ids=["rd-plain", "do-512", "rd-edns-1232"])
def test_make_reply_echoes_id_question_rd_and_edns(rd, edns):
    query = make_query(APEX, RType.MX, id=4242, rd=rd, edns=edns)
    reply = make_reply(query, "aa", rcode=Rcode.NXDOMAIN)
    assert reply.id == 4242 and reply.questions == query.questions
    assert reply.questions is not query.questions
    assert reply.flags == {"qr", "aa"} | ({"rd"} if rd else set())
    assert reply.rcode == Rcode.NXDOMAIN
    assert reply.edns == (Edns(do=edns.do, udp_payload=4096) if edns else None)
    assert not (reply.answers or reply.authority or reply.additional)
    assert decode_message(encode_message(reply)) == reply


def test_rcode_round_trip():
    for rcode in (Rcode.NOERROR, Rcode.FORMERR, Rcode.SERVFAIL, Rcode.NXDOMAIN,
                  Rcode.REFUSED):
        msg = DnsMessage(id=7, flags=frozenset({"qr"}), rcode=rcode)
        assert decode_message(encode_message(msg)).rcode == rcode


def test_forward_pointer_rejected():
    # Header + a name that is a pointer to an offset beyond its own position.
    wire = b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00" + b"\xc0\x20"
    with pytest.raises(BadPointer):
        decode_message(wire)


def test_self_pointer_rejected():
    wire = b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00" + b"\xc0\x0c"
    with pytest.raises(BadPointer):
        decode_message(wire)


def _opt(rclass, ttl, rdata=b"", rdlength=None) -> bytes:
    """An OPT pseudo-record at the root, with raw RDATA (EDNS options)."""
    rdlength = len(rdata) if rdlength is None else rdlength
    return b"\x00" + struct.pack(">HHIH", RType.OPT, rclass, ttl, rdlength) + rdata


def _message(answers=(), additional=()) -> bytes:
    header = struct.pack(">HHHHHH", 7, 0, 0, len(answers), 0, len(additional))
    return header + b"".join(answers) + b"".join(additional)


def test_opt_in_the_additional_section_decodes_straight_into_edns(monkeypatch):
    """The first OPT of the additional section becomes `msg.edns`, a later
    one is dropped, and neither is kept as a record or passed through the
    RDATA decoders: its RDATA holds only opaque options."""
    calls = []
    monkeypatch.setattr(message, "rdata_from_wire",
                        lambda *args: calls.append(args) or rdata_from_wire(*args))
    options = struct.pack(">HH", 10, 8) + bytes(8)  # a COOKIE option
    msg = decode_message(_message(additional=[_opt(1232, 0x00018000, options),
                                              _opt(512, 0)]))
    assert msg.edns == Edns(version=1, do=True, udp_payload=1232)
    assert msg.additional == [] and calls == []
    shared = decode_message(encode_message(make_query(APEX, RType.A, edns=Edns(do=True))))
    assert shared.edns is Edns.shared(do=True) and shared.edns == Edns(do=True)


def test_opt_outside_the_additional_section_stays_a_record():
    msg = decode_message(_message(answers=[_opt(4096, 0, b"\x01\x02")]))
    assert msg.edns is None
    assert msg.answers == [ResourceRecord(DnsName.from_text("."), RType.OPT, 4096, 0,
                                          OpaqueRdata(b"\x01\x02"))]


@pytest.mark.parametrize("opt", [_opt(4096, 0, b"\x00\x0a", rdlength=3), b"\x00\x00\x29"],
                         ids=["rdata", "header"])
def test_opt_past_the_end_of_the_message_is_truncated(opt):
    with pytest.raises(Truncated):
        decode_message(_message(additional=[opt]))


def test_value_classes_keep_equality_hashing_and_replace_without_a_dict():
    for value in (Edns(do=True), Question(APEX, RType.A),
                  ResourceRecord(APEX, RType.A, 1, 60, ARdata("192.0.2.1"))):
        assert not hasattr(value, "__dict__")
        assert value == dataclasses.replace(value) and hash(value) == hash(
            dataclasses.replace(value))
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.__setattr__(dataclasses.fields(value)[0].name, None)
    assert repr(Edns.shared(do=True)) == "Edns(version=0, do=True, udp_payload=4096)"
    assert Edns.shared(1, False, 512) == Edns(1, False, 512)


def test_truncated_inputs():
    with pytest.raises(Truncated):
        decode_message(b"\x00" * 11)
    query = encode_message(make_query(APEX, RType.A))
    with pytest.raises(Truncated):
        decode_message(query[:-3])


def test_reserved_label_type_rejected():
    wire = b"\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00" + b"\x40abc"
    with pytest.raises(LabelTooLong):
        decode_message(wire)


def test_too_many_records():
    msg = DnsMessage(questions=[Question(APEX, RType.A)] * 65536)
    with pytest.raises(TooManyRecords):
        encode_message(msg)


def test_compression_shrinks_repeated_owners():
    records = [ResourceRecord(DnsName.from_text(f"h{i}.domaine.ma."), RType.A, 1,
                              60, ARdata("10.0.0.1")) for i in range(8)]
    msg = DnsMessage(id=1, flags=frozenset({"qr"}),
                     questions=[Question(DnsName.from_text("h0.domaine.ma."), RType.A)],
                     answers=records)
    wire = encode_message(msg)
    uncompressed = 12 + len(encode_message(DnsMessage())) - 12
    total_names = sum(len(r.owner.to_wire()) for r in records)
    assert len(wire) < 12 + 4 + total_names + len(records) * 14 + 4
    assert decode_message(wire) == msg


def test_rrsig_rdata_names_stay_uncompressed():
    # The signer name equals the owner; compression would shrink it, but
    # signed rdata must stay verbatim.
    sig = RrsigRdata(RType.A, 5, 2, 300, 2**31, 0, 1, APEX, b"\x00" * 16)
    record = ResourceRecord(APEX, RType.RRSIG, 1, 300, sig)
    msg = DnsMessage(id=2, flags=frozenset({"qr"}), answers=[record])
    wire = encode_message(msg)
    assert APEX.to_wire() in wire[30:]  # full name inside the RRSIG rdata
    assert decode_message(wire) == msg


def test_unknown_rtype_round_trips_as_opaque():
    record = ResourceRecord(APEX, 99, 1, 60, OpaqueRdata(b"\x01\x02\x03"))
    msg = DnsMessage(id=3, flags=frozenset({"qr"}), answers=[record])
    back = decode_message(encode_message(msg))
    assert back.answers[0].rdata == OpaqueRdata(b"\x01\x02\x03")
    assert back == msg


def test_decode_accepts_compressed_rdata_names():
    # Third-party encoders may compress NS targets; decoding must resolve them.
    header = struct.pack(">HHHHHH", 1, 0x8000, 1, 1, 0, 0)
    qname = APEX.to_wire()
    question = qname + struct.pack(">HH", RType.NS, 1)
    rdata = b"\x02ns\xc0\x0c"  # ns.<pointer to qname>
    answer = b"\xc0\x0c" + struct.pack(">HHIH", RType.NS, 1, 60, len(rdata)) + rdata
    msg = decode_message(header + question + answer)
    assert msg.answers[0].rdata.target == DnsName.from_text("ns.domaine.ma.")


def test_size_reporting_is_callers_concern():
    msg = DnsMessage(id=9, questions=[Question(APEX, RType.A)],
                     edns=Edns(udp_payload=4096))
    assert len(encode_message(msg)) < 4096


# ---------------------------------------------------------------------------
# Each RDATA is decoded inside its RDLENGTH
# ---------------------------------------------------------------------------

EXAMPLE = DnsName.from_text("example.")
NS_WIRE = DnsName.from_text("ns.example.").to_wire()
RRSIG_WIRE = RrsigRdata(RType.A, 5, 1, 60, 2, 1, 7, EXAMPLE, b"").to_wire()
SOA_WIRE = SoaRdata(DnsName.from_text("ns.example."),
                    DnsName.from_text("admin.example."), 1, 3600, 900, 604800, 60).to_wire()


def one_answer(rtype: int, rdlength: int, tail: bytes) -> bytes:
    """A reply whose one answer record, of type `rtype` at `example.`, has
    RDLENGTH `rdlength` and is followed by `tail` (its RDATA and any more)."""
    return (struct.pack(">HHHHHH", 1, 0x8000, 0, 1, 0, 0) + EXAMPLE.to_wire()
            + struct.pack(">HHIH", rtype, 1, 60, rdlength) + tail)


@pytest.mark.parametrize("wire", [
    one_answer(RType.NS, 1, NS_WIRE),
    one_answer(RType.RRSIG, 2, RRSIG_WIRE),
    one_answer(RType.NS, len(NS_WIRE) + 2, NS_WIRE + b"\xde\xad"),
    one_answer(RType.SOA, len(SOA_WIRE) - 1, SOA_WIRE),
], ids=["ns-rdlength-1", "rrsig-rdlength-2", "ns-junk-inside", "soa-one-short"])
def test_rdata_outside_its_rdlength_is_rejected(wire):
    with pytest.raises((WireError, RdataError)):
        decode_message(wire)


UNKNOWN_TYPE = 99


@settings(deadline=None)
@given(st.sampled_from([*RDATA_CLASSES, UNKNOWN_TYPE]), st.integers(0, 2**32),
       st.data())
def test_rdata_decoder_consumes_exactly_rdlength(rtype, seed, data):
    """Shifting a record's RDLENGTH either fails the decode with a typed error
    or yields RDATA that re-encodes to exactly the new RDLENGTH octets."""
    rng = random.Random(seed)
    rdata = (random_rdata(rng, rtype) if rtype != UNKNOWN_TYPE
             else OpaqueRdata(rng.randbytes(rng.randint(0, 20)))).to_wire()
    rdlength = len(rdata) + data.draw(st.integers(-len(rdata), 3), label="shift")
    pad = data.draw(st.binary(min_size=3, max_size=3), label="pad")
    try:
        msg = decode_message(one_answer(rtype, rdlength, rdata + pad))
    except (WireError, RdataError):
        return
    assert len(msg.answers[0].rdata.to_wire()) == rdlength


def pointer_chain_reply(pointers: int) -> bytes:
    """A reply whose second record's owner follows `pointers` pointers: its
    own, then a chain of backward pointers kept in the first record's RDATA,
    which starts with the root label the chain ends at."""
    start = 12 + 11  # after the header and the first record's root owner and fields

    def pointer(i):
        return struct.pack(">H", 0xC000 | (start + max(0, 2 * i - 1)))

    chain = b"\x00" + b"".join(pointer(i) for i in range(pointers - 1))
    return (struct.pack(">HHHHHH", 1, 0x8000, 0, 2, 0, 0)
            + b"\x00" + struct.pack(">HHIH", UNKNOWN_TYPE, 1, 0, len(chain)) + chain
            + pointer(pointers - 1) + struct.pack(">HHIH", RType.A, 1, 0, 4) + bytes(4))


def test_pointer_chain_longer_than_any_name_is_rejected():
    # Without the cap, a 64 KiB reply of owners that each end in one long
    # chain took seconds to decode: time quadratic in the message size.
    msg = decode_message(pointer_chain_reply(MAX_POINTERS))
    assert msg.answers[1].owner == DnsName([])
    with pytest.raises(BadPointer):
        decode_message(pointer_chain_reply(MAX_POINTERS + 1))


def test_mutated_wires_raise_only_typed_errors():
    """Flipped, overwritten, inserted and deleted octets in 5 000 encoded
    messages raise nothing but the wire and RDATA errors."""
    rng = random.Random(11)
    for _ in range(250):
        original = encode_message(random_message(rng))
        for _ in range(20):
            wire = bytearray(original)
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(wire) + 1)
                action = rng.randrange(4)
                if action == 0 and pos < len(wire):
                    wire[pos] ^= 1 << rng.randrange(8)
                elif action == 1 and pos < len(wire):
                    wire[pos] = rng.randrange(256)
                elif action == 2:
                    wire.insert(pos, rng.randrange(256))
                else:
                    del wire[pos:pos + rng.randint(1, 4)]
            try:
                decode_message(bytes(wire))
            except (WireError, RdataError):
                pass


# ---------------------------------------------------------------------------
# Names are checked once, by read_name
# ---------------------------------------------------------------------------

def names_in(msg: DnsMessage):
    """Every name the decoder built: questions, owners and names in RDATA."""
    for question in msg.questions:
        yield question.name
    for _, section in msg.section_records():
        for record in section:
            yield record.owner
            for f in dataclasses.fields(record.rdata):
                value = getattr(record.rdata, f.name)
                if isinstance(value, DnsName):
                    yield value


def assert_same_as_checked(name: DnsName) -> None:
    """The name and each of its ancestors equal, in every field the
    comparisons read, the name `DnsName.__init__` builds from its labels."""
    while True:
        assert all(type(label) is bytes for label in name.labels)
        checked = DnsName(name.labels)
        assert checked.labels == name.labels
        assert checked._key == name._key
        assert hash(checked) == hash(name)
        assert checked.canonical_key() == name.canonical_key()
        if not name.labels:
            return
        name = name.parent()


LABEL = st.one_of(st.binary(min_size=1, max_size=63),
                  st.text("abcXYZ-09", min_size=1, max_size=63).map(str.encode))


@st.composite
def names_sharing_a_suffix(draw):
    """Names under one suffix, some with its exact labels (so the encoder
    compresses them) and some with its letters' case swapped."""
    suffix = draw(st.lists(LABEL, max_size=3))
    names = []
    for _ in range(draw(st.integers(1, 6))):
        tail = suffix[draw(st.integers(0, len(suffix))):]
        if draw(st.booleans()):
            tail = [label.swapcase() for label in tail]
        labels = draw(st.lists(LABEL, max_size=2)) + tail
        if sum(len(label) + 1 for label in labels) + 1 <= 255:
            names.append(DnsName(labels))
    return names or [DnsName([])]


@settings(deadline=None)
@given(names_sharing_a_suffix(), st.data())
def test_decoded_names_equal_the_checked_constructors(names, data):
    owners = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=6))
    targets = data.draw(st.lists(st.sampled_from(names), min_size=len(owners),
                                 max_size=len(owners)))
    msg = DnsMessage(id=1, flags=frozenset({"qr", "aa"}),
                     questions=[Question(owners[0], RType.NS)],
                     answers=[ResourceRecord(owner, RType.NS, 1, 60, NsRdata(target))
                              for owner, target in zip(owners, targets)])
    decoded = decode_message(encode_message(msg))
    assert decoded == msg
    for name in names_in(decoded):
        assert_same_as_checked(name)


def question_pair(first: bytes, second: bytes) -> bytes:
    """Two A questions, `first` in place at offset 12 and then `second`."""
    return (struct.pack(">HHHHHH", 1, 0, 2, 0, 0, 0)
            + first + struct.pack(">HH", RType.A, 1)
            + second + struct.pack(">HH", RType.A, 1))


NAME_253 = b"".join(bytes([n]) + b"a" * n for n in (63, 63, 63, 59)) + b"\x00"


@pytest.mark.parametrize("wire, error", [
    (question_pair(NAME_253, b"\x01a\xc0\x0c"), None),
    (question_pair(NAME_253, b"\x02ab\xc0\x0c"), LabelTooLong),
    (question_pair(b"\x40" + b"a" * 64 + b"\x00", b"\x00"), LabelTooLong),
], ids=["255-through-a-pointer", "256-through-a-pointer", "label-of-64"])
def test_read_name_is_where_wire_names_are_bounded(wire, error):
    if error is None:
        msg = decode_message(wire)
        assert len(msg.questions[1].name.to_wire()) == 255
        assert_same_as_checked(msg.questions[1].name)
    else:
        assert issubclass(error, WireError)
        with pytest.raises(error):
            decode_message(wire)


@pytest.mark.parametrize("convert", [bytes, bytearray, memoryview])
def test_decoder_takes_any_bytes_like_input(convert):
    ns = DnsName.from_text("ns.domaine.ma.")
    reply = DnsMessage(
        id=5, flags=frozenset({"qr", "aa"}),
        questions=[Question(DnsName.from_text("www.domaine.ma."), RType.A)],
        answers=[ResourceRecord(DnsName.from_text("www.domaine.ma."), RType.A, 1,
                                60, ARdata("10.0.0.1"))],
        authority=[ResourceRecord(APEX, RType.NS, 1, 60, NsRdata(ns))],
        additional=[ResourceRecord(ns, RType.A, 1, 60, ARdata("10.0.0.2"))])
    wire = encode_message(reply)
    decoded = decode_message(convert(wire))
    assert decoded == decode_message(wire) == reply
    for name in names_in(decoded):
        assert_same_as_checked(name)
