"""The one RDATA codec against the ten hand-written codecs it replaced.

`records.Rdata` reads, writes, canonicalises, prints and parses every type
from its `FIELDS`. The classes below are reference copies of the per-type
codecs it replaced, kept only here. For random field values of every type
the two must give the same wire, canonical and text forms, the same RRSIG
signed prefix, the same values back from text and from wire, and the same
outcome (value and stop offset, or exception class) for RDATA cut short or
run long. The deliberate differences are pinned by their own rows: an NSEC
with an empty type bitmap prints a trailing space, a DS whose digest is
missing from its text is refused, as a DNSKEY key or RRSIG signature
already was, and every bad IPv4 address raises `RdataError`."""

import base64
import struct
from dataclasses import dataclass, fields
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from dnsseclab import records
from dnsseclab.names import DnsName
from dnsseclab.records import (RdataError, RType, decode_type_bitmap, encode_type_bitmap,
                               key_tag_from_rdata, rtype_from_text, rtype_to_text,
                               timestamp_from_text, timestamp_to_text)
from dnsseclab.wire import read_exact, read_name, unpack_exact

# ---------------------------------------------------------------------------
# Reference copies of the hand-written codecs
# ---------------------------------------------------------------------------


def _ip4_to_bytes(text: str) -> bytes:
    parts = text.split(".")
    if len(parts) != 4 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
        raise RdataError(f"bad IPv4 address {text!r}")
    return bytes(int(p) for p in parts)


_U16 = struct.Struct(">H")
_SOA_TAIL = struct.Struct(">IIIII")
_KEY_HEAD = struct.Struct(">HBB")  # DNSKEY flags/protocol/algorithm, DS tag/algorithm/type
_RRSIG_HEAD = struct.Struct(">HBBIIIH")


class _WireOnce:
    """RDATA whose wire form `_encode` computes once, on first use: zone
    data is served again and again, and an RDATA never changes."""

    @cached_property
    def _wire(self) -> bytes:
        return self._encode()

    def to_wire(self) -> bytes:
        return self._wire


@dataclass(frozen=True)
class ARdata(_WireOnce):
    RTYPE = RType.A
    address: str

    def __post_init__(self):
        _ip4_to_bytes(self.address)

    def _encode(self) -> bytes:
        return _ip4_to_bytes(self.address)

    canonical_wire = _WireOnce.to_wire

    @classmethod
    def from_wire(cls, msg, offset, end):
        return cls(".".join(map(str, read_exact(msg, offset, end, 4, "A")))), offset + 4

    def to_text(self, origin=None) -> str:
        return self.address

    @classmethod
    def from_text(cls, tokens, origin):
        (address,) = tokens
        return cls(address)


@dataclass(frozen=True)
class _SingleName(_WireOnce):
    target: DnsName

    def _encode(self) -> bytes:
        return self.target.to_wire()

    def canonical_wire(self) -> bytes:
        return self.target.canonical_wire()

    @classmethod
    def from_wire(cls, msg, offset, end):
        name, offset = read_name(msg, offset, end)
        return cls(name), offset

    def to_text(self, origin=None) -> str:
        return self.target.relativize(origin) if origin else self.target.to_text()

    @classmethod
    def from_text(cls, tokens, origin):
        (target,) = tokens
        return cls(DnsName.from_text(target, origin))


class NsRdata(_SingleName):
    RTYPE = RType.NS


class CnameRdata(_SingleName):
    RTYPE = RType.CNAME


@dataclass(frozen=True)
class SoaRdata(_WireOnce):
    RTYPE = RType.SOA
    mname: DnsName
    rname: DnsName
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int

    def _tail(self) -> bytes:
        return _SOA_TAIL.pack(self.serial, self.refresh, self.retry, self.expire, self.minimum)

    def _encode(self) -> bytes:
        return self.mname.to_wire() + self.rname.to_wire() + self._tail()

    def canonical_wire(self) -> bytes:
        return self.mname.canonical_wire() + self.rname.canonical_wire() + self._tail()

    @classmethod
    def from_wire(cls, msg, offset, end):
        mname, offset = read_name(msg, offset, end)
        rname, offset = read_name(msg, offset, end)
        fields = unpack_exact(_SOA_TAIL, msg, offset, end, "SOA")
        return cls(mname, rname, *fields), offset + _SOA_TAIL.size

    def to_text(self, origin=None) -> str:
        names = (self.mname.relativize(origin), self.rname.relativize(origin)) \
            if origin else (self.mname.to_text(), self.rname.to_text())
        return "{} {} {} {} {} {} {}".format(*names, self.serial, self.refresh,
                                             self.retry, self.expire, self.minimum)

    @classmethod
    def from_text(cls, tokens, origin):
        mname, rname, *numbers = tokens
        if len(numbers) != 5:
            raise RdataError("SOA needs serial refresh retry expire minimum")
        return cls(DnsName.from_text(mname, origin), DnsName.from_text(rname, origin),
                   *(int(n) for n in numbers))


@dataclass(frozen=True)
class MxRdata(_WireOnce):
    RTYPE = RType.MX
    preference: int
    exchange: DnsName

    def _encode(self) -> bytes:
        return _U16.pack(self.preference) + self.exchange.to_wire()

    def canonical_wire(self) -> bytes:
        return _U16.pack(self.preference) + self.exchange.canonical_wire()

    @classmethod
    def from_wire(cls, msg, offset, end):
        (preference,) = unpack_exact(_U16, msg, offset, end, "MX")
        exchange, offset = read_name(msg, offset + 2, end)
        return cls(preference, exchange), offset

    def to_text(self, origin=None) -> str:
        name = self.exchange.relativize(origin) if origin else self.exchange.to_text()
        return f"{self.preference} {name}"

    @classmethod
    def from_text(cls, tokens, origin):
        preference, exchange = tokens
        return cls(int(preference), DnsName.from_text(exchange, origin))


@dataclass(frozen=True)
class TxtRdata:
    RTYPE = RType.TXT
    strings: tuple[bytes, ...]

    def __post_init__(self):
        if not self.strings or any(len(s) > 255 for s in self.strings):
            raise RdataError("TXT needs 1+ strings of at most 255 octets")

    def to_wire(self) -> bytes:
        return b"".join(bytes((len(s),)) + s for s in self.strings)

    canonical_wire = to_wire

    @classmethod
    def from_wire(cls, msg, offset, end):
        strings = []
        while offset < end:
            length = msg[offset]
            strings.append(read_exact(msg, offset + 1, end, length, "TXT string"))
            offset += 1 + length
        return cls(tuple(strings)), offset

    def to_text(self, origin=None) -> str:
        return " ".join('"%s"' % s.decode("ascii", "replace").replace('"', '\\"')
                        for s in self.strings)

    @classmethod
    def from_text(cls, tokens, origin):
        return cls(tuple(t.encode("ascii") for t in tokens))


@dataclass(frozen=True)
class DnskeyRdata(_WireOnce):
    RTYPE = RType.DNSKEY
    flags: int
    protocol: int
    algorithm: int
    public_key: bytes

    def _encode(self) -> bytes:
        return _KEY_HEAD.pack(self.flags, self.protocol, self.algorithm) + self.public_key

    canonical_wire = _WireOnce.to_wire

    def key_tag(self) -> int:
        return key_tag_from_rdata(self.to_wire())

    @classmethod
    def from_wire(cls, msg, offset, end):
        head = unpack_exact(_KEY_HEAD, msg, offset, end, "DNSKEY")
        return cls(*head, msg[offset + _KEY_HEAD.size : end]), end

    def to_text(self, origin=None) -> str:
        b64 = base64.b64encode(self.public_key).decode("ascii")
        return f"{self.flags} {self.protocol} {self.algorithm} {b64}"

    @classmethod
    def from_text(cls, tokens, origin):
        flags, protocol, algorithm, *key = tokens
        if not key:
            raise RdataError("DNSKEY is missing key material")
        return cls(int(flags), int(protocol), int(algorithm),
                   base64.b64decode("".join(key)))


@dataclass(frozen=True)
class RrsigRdata(_WireOnce):
    RTYPE = RType.RRSIG
    type_covered: int
    algorithm: int
    labels: int
    original_ttl: int
    expiration: int
    inception: int
    key_tag: int
    signer_name: DnsName
    signature: bytes

    def _head(self) -> bytes:
        return _RRSIG_HEAD.pack(self.type_covered, self.algorithm, self.labels,
                                self.original_ttl, self.expiration, self.inception, self.key_tag)

    def _encode(self) -> bytes:
        return self._head() + self.signer_name.to_wire() + self.signature

    def canonical_wire(self) -> bytes:
        return self.signed_prefix() + self.signature

    @cached_property
    def _signed_prefix(self) -> bytes:
        return self._head() + self.signer_name.canonical_wire()

    def signed_prefix(self) -> bytes:
        """The RRSIG RDATA with the signature field excluded, in the canonical
        form that prefixes the data a signature covers; computed once."""
        return self._signed_prefix

    @classmethod
    def from_wire(cls, msg, offset, end):
        head = unpack_exact(_RRSIG_HEAD, msg, offset, end, "RRSIG")
        signer, offset = read_name(msg, offset + _RRSIG_HEAD.size, end)
        return cls(*head, signer, msg[offset:end]), end

    def to_text(self, origin=None) -> str:
        b64 = base64.b64encode(self.signature).decode("ascii")
        return "{} {} {} {} {} {} {} {} {}".format(
            rtype_to_text(self.type_covered), self.algorithm, self.labels,
            self.original_ttl, timestamp_to_text(self.expiration),
            timestamp_to_text(self.inception), self.key_tag,
            self.signer_name.to_text(), b64)

    @classmethod
    def from_text(cls, tokens, origin):
        if len(tokens) < 9:
            raise RdataError("RRSIG needs 9 fields")
        covered, alg, labels, ottl, exp, inc, tag, signer, *sig = tokens
        return cls(rtype_from_text(covered), int(alg), int(labels), int(ottl),
                   timestamp_from_text(exp), timestamp_from_text(inc), int(tag),
                   DnsName.from_text(signer, origin), base64.b64decode("".join(sig)))


@dataclass(frozen=True)
class NsecRdata(_WireOnce):
    RTYPE = RType.NSEC
    next_name: DnsName
    type_bitmap: frozenset[int]

    def _encode(self) -> bytes:
        return self.next_name.to_wire() + self._bitmap_wire

    def canonical_wire(self) -> bytes:
        return self.next_name.canonical_wire() + self._bitmap_wire

    @cached_property
    def _bitmap_wire(self) -> bytes:
        return encode_type_bitmap(self.type_bitmap)

    @classmethod
    def from_wire(cls, msg, offset, end):
        next_name, offset = read_name(msg, offset, end)
        return cls(next_name, decode_type_bitmap(msg[offset:end])), end

    def to_text(self, origin=None) -> str:
        name = self.next_name.relativize(origin) if origin else self.next_name.to_text()
        types = " ".join(rtype_to_text(t) for t in sorted(self.type_bitmap))
        return f"{name} {types}" if types else name

    @classmethod
    def from_text(cls, tokens, origin):
        next_name, *types = tokens
        return cls(DnsName.from_text(next_name, origin),
                   frozenset(rtype_from_text(t) for t in types))


@dataclass(frozen=True)
class DsRdata(_WireOnce):
    RTYPE = RType.DS
    key_tag: int
    algorithm: int
    digest_type: int
    digest: bytes

    def _encode(self) -> bytes:
        return _KEY_HEAD.pack(self.key_tag, self.algorithm, self.digest_type) + self.digest

    canonical_wire = _WireOnce.to_wire

    @classmethod
    def from_wire(cls, msg, offset, end):
        head = unpack_exact(_KEY_HEAD, msg, offset, end, "DS")
        return cls(*head, msg[offset + _KEY_HEAD.size : end]), end

    def to_text(self, origin=None) -> str:
        return f"{self.key_tag} {self.algorithm} {self.digest_type} {self.digest.hex().upper()}"

    @classmethod
    def from_text(cls, tokens, origin):
        key_tag, algorithm, digest_type, *digest = tokens
        return cls(int(key_tag), int(algorithm), int(digest_type),
                   bytes.fromhex("".join(digest)))


REFERENCE = {cls.RTYPE: cls for cls in (ARdata, NsRdata, CnameRdata, SoaRdata, MxRdata,
                                        TxtRdata, DnskeyRdata, RrsigRdata, NsecRdata, DsRdata)}


def ref_rdata_from_text(rtype, tokens, origin):
    """Reference copy of `rdata_from_text` over the reference classes."""
    try:
        return REFERENCE[rtype].from_text(tokens, origin)
    except (ValueError, struct.error) as exc:
        raise RdataError(f"bad {rtype_to_text(rtype)} rdata: {exc}") from exc


# ---------------------------------------------------------------------------
# Random field values
# ---------------------------------------------------------------------------

label_st = st.text(alphabet="abzABZ09-", min_size=1, max_size=6).map(str.encode)
name_st = st.lists(label_st, max_size=4).map(DnsName)
u8, u16, u32 = st.integers(0, 0xFF), st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF)
octets_st = st.binary(max_size=40)
ipv4_st = st.tuples(u8, u8, u8, u8).map(lambda parts: ".".join(map(str, parts)))

FIELD_VALUES = {
    RType.A: (ipv4_st,),
    RType.NS: (name_st,),
    RType.CNAME: (name_st,),
    RType.SOA: (name_st, name_st, u32, u32, u32, u32, u32),
    RType.MX: (u16, name_st),
    RType.TXT: (st.lists(st.binary(max_size=12), min_size=1, max_size=3).map(tuple),),
    RType.DNSKEY: (u16, u8, u8, octets_st),
    RType.RRSIG: (u16, u8, u8, u32, u32, u32, u16, name_st, octets_st),
    RType.NSEC: (name_st, st.frozensets(st.integers(0, 1100), max_size=8)),
    RType.DS: (u16, u8, u8, octets_st),
}


def _plain(value):
    """A field value in a form that tells letter case and set order apart."""
    if isinstance(value, DnsName):
        return value.labels
    if isinstance(value, frozenset):
        return tuple(sorted(value))
    return value


def _outcome(call):
    """The class name and plain field values of what `call` returns, with the
    stop offset of a wire decode; or the class of the error it raises."""
    try:
        result = call()
    except Exception as exc:  # compared, not swallowed: the class is asserted
        return type(exc)
    rdata, *stop = result if isinstance(result, tuple) else (result,)
    return (type(rdata).__name__,
            tuple(_plain(getattr(rdata, f.name)) for f in fields(rdata)), *stop)


def _origins(values):
    """No origin, the root, and each suffix of the first name field."""
    names = [v for v in values if isinstance(v, DnsName)]
    origins = [None, DnsName()]
    if names:
        labels = names[0].labels
        origins += [DnsName(labels[i:]) for i in range(len(labels))]
    return origins


def _decode_both(rtype, msg, offset, end):
    """The outcome of decoding `msg[offset:end]`, the same by both codecs."""
    new = _outcome(lambda: records.RDATA_CLASSES[rtype].from_wire(msg, offset, end))
    assert new == _outcome(lambda: REFERENCE[rtype].from_wire(msg, offset, end))
    return new


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rtype", list(FIELD_VALUES), ids=rtype_to_text)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_one_codec_matches_the_hand_written_ones(rtype, data):
    values = data.draw(st.tuples(*FIELD_VALUES[rtype]))
    new, ref = records.RDATA_CLASSES[rtype](*values), REFERENCE[rtype](*values)

    wire = new.to_wire()
    assert wire == ref.to_wire()
    assert new.canonical_wire() == ref.canonical_wire()
    if rtype == RType.RRSIG:
        assert new.signed_prefix() == ref.signed_prefix()
    if rtype == RType.DNSKEY:
        assert new.key_tag() == ref.key_tag()

    for origin in _origins(values):
        text, ref_text = new.to_text(origin), ref.to_text(origin)
        if rtype == RType.NSEC and not new.type_bitmap:
            assert text == ref_text + " "
        else:
            assert text == ref_text
        tokens = text.split()
        parsed = _outcome(lambda: records.rdata_from_text(rtype, tokens, origin))
        if rtype == RType.DS and not new.digest:
            assert parsed is RdataError
        else:
            assert parsed == _outcome(lambda: ref_rdata_from_text(rtype, tokens, origin))

    prefix = data.draw(st.binary(max_size=4))
    msg, start = prefix + wire, len(prefix)
    assert _decode_both(rtype, msg, start, len(msg)) \
        == (type(new).__name__, tuple(map(_plain, values)), len(msg))
    for cut in range(len(wire)):  # cut short, with and without octets past the end
        _decode_both(rtype, msg[:start + cut], start, start + cut)
        _decode_both(rtype, msg, start, start + cut)
    run_long = msg + data.draw(st.binary(min_size=1, max_size=4))
    _decode_both(rtype, run_long, start, len(run_long))


@pytest.mark.parametrize("rtype, values, text, ref_text", [
    (RType.NSEC, (DnsName.from_text("b.example."), frozenset()), "b.example. ", "b.example."),
    (RType.DS, (1, 5, 1, b""), "1 5 1 ", "1 5 1 "),
], ids=["nsec-empty-bitmap", "ds-empty-digest"])
def test_the_two_deliberate_differences(rtype, values, text, ref_text):
    new, ref = records.RDATA_CLASSES[rtype](*values), REFERENCE[rtype](*values)
    assert (new.to_text(), ref.to_text()) == (text, ref_text)
    tokens = text.split()
    assert ref_rdata_from_text(rtype, tokens, None) == ref
    if rtype == RType.DS:
        with pytest.raises(RdataError):
            records.rdata_from_text(rtype, tokens, None)
    else:
        assert records.rdata_from_text(rtype, tokens, None) == new


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 300).map(str), st.text(alphabet="0123456789-+ x²١",
                                                                  max_size=4)),
                min_size=3, max_size=5).map(".".join))
def test_the_address_check_matches_the_old_one(text):
    """A's address check, the IPv4 writer, accepts and rejects as before,
    except that a digit `int` cannot read, such as '²', is now an
    `RdataError` like every other bad address, not a bare `ValueError`."""
    old = _outcome_of(_ip4_to_bytes, text)
    assert _outcome_of(records._ip4_to_bytes, text) == (RdataError if old is ValueError else old)


def _outcome_of(check, text):
    try:
        return check(text)
    except Exception as exc:  # compared, not swallowed: the class is asserted
        return type(exc)
