"""Resource records, RRsets, and the canonical byte form signatures cover.

Each RDATA type is a frozen dataclass whose `FIELDS` gives the kind of each
field in wire order: a name, an unsigned integer, a time, a type mnemonic, an
IPv4 address, or a kind that takes the rest of the RDATA (base64, hex, an
NSEC type bitmap, TXT strings). One codec, `Rdata`, reads, writes,
canonicalises (only names are lowercased), prints and parses every type from
that tuple; unknown types stay raw octets (`OpaqueRdata`)."""

from __future__ import annotations

import base64
import struct
import threading
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import IntEnum
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple

from .names import DnsName
from .wire import read_exact, read_name, unpack_exact


class RType(IntEnum):
    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    MX = 15
    TXT = 16
    OPT = 41
    DS = 43
    RRSIG = 46
    NSEC = 47
    DNSKEY = 48


class RClass(IntEnum):
    IN = 1


def rtype_to_text(code: int) -> str:
    try:
        return RType(code).name
    except ValueError:
        return f"TYPE{code}"


def rtype_from_text(text: str) -> int:
    text = text.upper()
    if text.startswith("TYPE") and text[4:].isdigit():
        return int(text[4:])
    try:
        return RType[text]
    except KeyError:
        raise ValueError(f"unknown record type {text!r}") from None


class RdataError(ValueError):
    pass


def _ip4_to_bytes(text: str) -> bytes:
    parts = text.split(".")
    if len(parts) == 4 and all(map(str.isdecimal, parts)):
        octets = list(map(int, parts))
        if max(octets) <= 255:
            return bytes(octets)
    raise RdataError(f"bad IPv4 address {text!r}")


def timestamp_to_text(epoch: int) -> str:
    """RRSIG time presentation: 14-digit UTC YYYYMMDDHHMMSS."""
    return datetime.fromtimestamp(epoch, timezone.utc).strftime("%Y%m%d%H%M%S")


def timestamp_from_text(text: str) -> int:
    if len(text) != 14 or not text.isdigit():
        raise RdataError(f"bad timestamp {text!r}")
    dt = datetime.strptime(text, "%Y%m%d%H%M%S").replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


# ---------------------------------------------------------------------------
# NSEC type bitmap (window-block wire format)
# ---------------------------------------------------------------------------

def encode_type_bitmap(types: Iterable[int]) -> bytes:
    out = bytearray()
    by_window: dict[int, bytearray] = {}
    for t in sorted(set(types)):
        if not 0 <= t <= 0xFFFF:
            raise RdataError(f"type code {t} out of range")
        window, low = t >> 8, t & 0xFF
        bitmap = by_window.setdefault(window, bytearray(32))
        bitmap[low >> 3] |= 0x80 >> (low & 7)
    for window in sorted(by_window):
        bitmap = by_window[window]
        while bitmap and bitmap[-1] == 0:
            del bitmap[-1]
        out += bytes((window, len(bitmap))) + bitmap
    return bytes(out)


#: The set bits of each octet value, numbered from the most significant (0).
_SET_BITS = tuple(tuple(bit for bit in range(8) if octet & (0x80 >> bit))
                  for octet in range(256))


def decode_type_bitmap(data: bytes) -> frozenset[int]:
    types = []
    pos = 0
    last = -1
    while pos < len(data):
        window = data[pos]
        length = data[pos + 1] if pos + 1 < len(data) else 0
        pos += 2
        if not (last < window and 0 < length <= 32 and pos + length <= len(data)
                and data[pos + length - 1]):
            raise RdataError("type bitmap window breaks RFC 4034 §4.1.2")
        last = window
        types += [(window << 8) | (i << 3) | bit
                  for i, octet in enumerate(data[pos : pos + length])
                  for bit in _SET_BITS[octet]]
        pos += length
    return frozenset(types)


def key_tag_from_rdata(rdata: bytes) -> int:
    """Ones-complement-style checksum over DNSKEY RDATA octets: even-index
    octets weigh 256, odd-index octets 1, carries folded, masked to 16 bits."""
    acc = (sum(rdata[0::2]) << 8) + sum(rdata[1::2])
    acc += (acc >> 16) & 0xFFFF
    return acc & 0xFFFF


# ---------------------------------------------------------------------------
# Field kinds
# ---------------------------------------------------------------------------

class FieldKind(NamedTuple):
    """How one kind of RDATA field is read, written, printed and parsed.
    `read(msg, offset, end, what)` returns the value and the offset past it,
    reading nothing past `end` (`what` names the type in errors). A `rest`
    kind takes the rest of the RDATA and the list of remaining tokens, so it
    comes last. Only a name has a `canonical` form other than its wire form,
    and only a name's `show` and `parse` take the origin as well."""
    read: Callable
    write: Callable
    show: Callable
    parse: Callable
    rest: bool = False
    canonical: Callable | None = None


def _unsigned(code: str, show=str, parse=int) -> FieldKind:
    """An unsigned integer in network order, of `struct` format `code`."""
    fixed = struct.Struct(">" + code)

    def read(msg, offset, end, what):
        (value,) = unpack_exact(fixed, msg, offset, end, what)
        return value, offset + fixed.size

    return FieldKind(read, fixed.pack, show, parse)


def _read_name(msg, offset, end, what):
    return read_name(msg, offset, end)


def _show_name(name, origin):
    return name.relativize(origin) if origin else name.to_text()


def _show_absolute_name(name, origin):
    return name.to_text()


def _read_ipv4(msg, offset, end, what):
    return ".".join(map(str, read_exact(msg, offset, end, 4, what))), offset + 4


def _octets(encode, decode) -> FieldKind:
    """The rest of the RDATA as raw octets, printed by `encode` (to ASCII
    octets) and parsed by `decode` from the joined tokens, of which there
    must be at least one."""

    def read(msg, offset, end, what):
        return msg[offset:end], end

    def show(data):
        return encode(data).decode("ascii")

    def parse(tokens):
        if not tokens:
            raise RdataError("the last field is missing")
        return decode("".join(tokens))

    return FieldKind(read, bytes, show, parse, rest=True)


def _read_bitmap(msg, offset, end, what):
    return decode_type_bitmap(msg[offset:end]), end


def _write_bitmap(types):
    return encode_type_bitmap(types)


def _show_bitmap(types):
    return " ".join(rtype_to_text(t) for t in sorted(types))


def _parse_bitmap(tokens):
    return frozenset(rtype_from_text(t) for t in tokens)


def _read_strings(msg, offset, end, what):
    strings = []
    while offset < end:
        length = msg[offset]
        strings.append(read_exact(msg, offset + 1, end, length, f"{what} string"))
        offset += 1 + length
    return tuple(strings), offset


def _write_strings(strings):
    return b"".join(bytes((len(s),)) + s for s in strings)


def _show_strings(strings):
    return " ".join('"%s"' % s.decode("ascii", "replace").replace('"', '\\"')
                    for s in strings)


def _parse_strings(tokens):
    return tuple(t.encode("ascii") for t in tokens)


U8, U16, U32 = _unsigned("B"), _unsigned("H"), _unsigned("I")
TIME = _unsigned("I", timestamp_to_text, timestamp_from_text)
TYPE = _unsigned("H", rtype_to_text, rtype_from_text)
NAME = FieldKind(_read_name, DnsName.to_wire, _show_name, DnsName.from_text,
                 canonical=DnsName.canonical_wire)
#: The RRSIG signer, printed absolute whatever the origin.
SIGNER = NAME._replace(show=_show_absolute_name)
IPV4 = FieldKind(_read_ipv4, _ip4_to_bytes, str, str)
BASE64 = _octets(base64.b64encode, base64.b64decode)
HEX = _octets(base64.b16encode, bytes.fromhex)
BITMAP = FieldKind(_read_bitmap, _write_bitmap, _show_bitmap, _parse_bitmap, rest=True)
STRINGS = FieldKind(_read_strings, _write_strings, _show_strings, _parse_strings, rest=True)


# ---------------------------------------------------------------------------
# Rdata types
# ---------------------------------------------------------------------------

class Rdata:
    """The one RDATA codec. Each subclass is a frozen dataclass of type
    `RTYPE` whose `FIELDS` gives the kind of each of its fields, in order."""

    def _fields(self):
        """(kind, value) of each field, in wire order."""
        # A dataclass's __match_args__ names its fields in declaration order.
        return zip(self.FIELDS, [getattr(self, name) for name in self.__match_args__])

    @classmethod
    def from_wire(cls, msg, offset, end):
        values = []
        for kind in cls.FIELDS:
            value, offset = kind.read(msg, offset, end, cls.RTYPE.name)
            values.append(value)
        return cls(*values), offset

    def _head(self, canonical: bool = False) -> bytes:
        """The wire form, or the canonical one, of the fields before a
        rest-of-RDATA field; names lie there, and only they differ."""
        return b"".join([(kind.canonical if canonical and kind.canonical else kind.write)(value)
                         for kind, value in self._fields() if not kind.rest])

    @property
    def _rest(self) -> bytes:
        """The octets of the rest-of-RDATA field, if any."""
        kind, value = self.FIELDS[-1], getattr(self, self.__match_args__[-1])
        return kind.write(value) if kind.rest else b""

    @cached_property
    def _wire(self) -> bytes:
        return self._head() + self._rest

    def to_wire(self) -> bytes:
        """The wire form, computed once, on first use: zone data is served
        again and again, and an RDATA never changes."""
        return self._wire

    def canonical_wire(self) -> bytes:
        """The wire form with names lowercased (RFC 4034 §6.2); a type with
        no name shares its wire form."""
        if not any(kind.canonical for kind in self.FIELDS):
            return self.to_wire()
        return self._head(canonical=True) + self._rest

    def to_text(self, origin=None) -> str:
        return " ".join([kind.show(value, origin) if kind.canonical else kind.show(value)
                         for kind, value in self._fields()])

    @classmethod
    def from_text(cls, tokens, origin):
        kinds = cls.FIELDS
        if kinds[-1].rest:  # the last field takes every remaining token
            tokens = [*tokens[:len(kinds) - 1], tokens[len(kinds) - 1:]]
        if len(tokens) != len(kinds):
            raise RdataError(f"{cls.RTYPE.name} takes {len(kinds)} fields")
        return cls(*[kind.parse(text, origin) if kind.canonical else kind.parse(text)
                     for kind, text in zip(kinds, tokens)])


@dataclass(frozen=True)
class ARdata(Rdata):
    RTYPE = RType.A
    FIELDS = (IPV4,)
    address: str

    def __post_init__(self):
        _ip4_to_bytes(self.address)


@dataclass(frozen=True)
class NsRdata(Rdata):
    RTYPE = RType.NS
    FIELDS = (NAME,)
    target: DnsName


@dataclass(frozen=True)
class CnameRdata(Rdata):
    RTYPE = RType.CNAME
    FIELDS = (NAME,)
    target: DnsName


@dataclass(frozen=True)
class SoaRdata(Rdata):
    RTYPE = RType.SOA
    FIELDS = (NAME, NAME, U32, U32, U32, U32, U32)
    mname: DnsName
    rname: DnsName
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int


@dataclass(frozen=True)
class MxRdata(Rdata):
    RTYPE = RType.MX
    FIELDS = (U16, NAME)
    preference: int
    exchange: DnsName


@dataclass(frozen=True)
class TxtRdata(Rdata):
    RTYPE = RType.TXT
    FIELDS = (STRINGS,)
    strings: tuple[bytes, ...]

    def __post_init__(self):
        if not self.strings or any(len(s) > 255 for s in self.strings):
            raise RdataError("TXT needs 1+ strings of at most 255 octets")


@dataclass(frozen=True)
class DnskeyRdata(Rdata):
    RTYPE = RType.DNSKEY
    FIELDS = (U16, U8, U8, BASE64)
    flags: int
    protocol: int
    algorithm: int
    public_key: bytes

    def key_tag(self) -> int:
        return key_tag_from_rdata(self.to_wire())


@dataclass(frozen=True)
class RrsigRdata(Rdata):
    RTYPE = RType.RRSIG
    FIELDS = (TYPE, U8, U8, U32, TIME, TIME, U16, SIGNER, BASE64)
    type_covered: int
    algorithm: int
    labels: int
    original_ttl: int
    expiration: int
    inception: int
    key_tag: int
    signer_name: DnsName
    signature: bytes

    @cached_property
    def _signed_prefix(self) -> bytes:
        return self._head(canonical=True)

    def signed_prefix(self) -> bytes:
        """The RRSIG RDATA with the signature field excluded, in the canonical
        form that prefixes the data a signature covers; computed once."""
        return self._signed_prefix


@dataclass(frozen=True)
class NsecRdata(Rdata):
    RTYPE = RType.NSEC
    FIELDS = (NAME, BITMAP)
    next_name: DnsName
    type_bitmap: frozenset[int]

    @cached_property
    def _rest(self) -> bytes:
        """The type bitmap's octets, computed once: both forms end with them,
        and encoding them is costly."""
        return BITMAP.write(self.type_bitmap)


def nsec_gap_covers(owner_key: tuple, next_key: tuple, key: tuple) -> bool:
    """True when `key` falls in the gap an NSEC spans from its owner to its
    next name, all three as canonical keys (RFC 4035 §3.1.3). A next name
    that does not sort after the owner marks the chain's wraparound back to
    the apex, covering everything past the owner."""
    return owner_key < key and (key < next_key or next_key <= owner_key)


@dataclass(frozen=True)
class DsRdata(Rdata):
    RTYPE = RType.DS
    FIELDS = (U16, U8, U8, HEX)
    key_tag: int
    algorithm: int
    digest_type: int
    digest: bytes


@dataclass(frozen=True)
class OpaqueRdata:
    """Unknown record types round-trip as raw octets."""
    data: bytes

    def to_wire(self) -> bytes:
        return self.data

    canonical_wire = to_wire

    @classmethod
    def from_wire(cls, msg, offset, end):
        return cls(msg[offset:end]), end

    def to_text(self, origin=None) -> str:
        return f"\\# {len(self.data)} {self.data.hex()}" if self.data else "\\# 0"


RDATA_CLASSES = {cls.RTYPE: cls for cls in (ARdata, NsRdata, CnameRdata, SoaRdata, MxRdata,
                                            TxtRdata, DnskeyRdata, RrsigRdata, NsecRdata,
                                            DsRdata)}


#: Most RDATA values `rdata_from_wire` keeps, and the most octets one may
#: span: at most about 1 MiB of octets in all.
INTERN_ENTRIES = 1024
INTERN_OCTETS = 1024
_interned: dict[tuple[int, bytes], object] = {}
_interned_lock = threading.Lock()


def rdata_from_wire(rtype: int, msg: bytes, offset: int, end: int):
    """Decode the `rtype` RDATA in `msg[offset:end]`; return it and the offset
    where its decoder stopped, which is `end` for a well-formed record.

    This is the one way into the RDATA decoders. An RDATA whose decoder
    stopped at `end` and whose wire form gives back its octets held no
    compression pointer, so its value depends on those octets alone: it is
    kept, keyed by type and octets, and the same octets later return the
    same immutable object. Failures are never kept."""
    key = (rtype, msg[offset:end])
    rdata = _interned.get(key)
    if rdata is not None:
        return rdata, end
    rdata, stop = RDATA_CLASSES.get(rtype, OpaqueRdata).from_wire(msg, offset, end)
    if stop == end and end - offset <= INTERN_OCTETS and rdata.to_wire() == key[1]:
        with _interned_lock:
            if len(_interned) >= INTERN_ENTRIES:
                _interned.clear()
            _interned[key] = rdata
    return rdata, stop


def rdata_from_text(rtype: int, tokens: list[str], origin: DnsName | None):
    cls = RDATA_CLASSES.get(rtype)
    if cls is None:
        raise RdataError(f"type {rtype_to_text(rtype)} not supported in master files")
    try:
        return cls.from_text(tokens, origin)
    except (ValueError, struct.error) as exc:
        raise RdataError(f"bad {rtype_to_text(rtype)} rdata: {exc}") from exc


# ---------------------------------------------------------------------------
# Records and RRsets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ResourceRecord:
    owner: DnsName
    rtype: int
    rclass: int
    ttl: int
    rdata: object

    def __post_init__(self):
        if self.ttl < 0 or self.ttl > 0xFFFFFFFF:
            raise RdataError(f"ttl {self.ttl} out of range")

    def to_text(self, origin: DnsName | None = None) -> str:
        owner = self.owner.relativize(origin) if origin else self.owner.to_text()
        return "{}\t{}\t{}\t{}\t{}".format(owner, self.ttl, RClass(self.rclass).name,
                                           rtype_to_text(self.rtype),
                                           self.rdata.to_text(origin))

    def canonical_bytes(self, original_ttl: int | None = None) -> bytes:
        """owner | type | class | TTL | RDLENGTH | RDATA, all in canonical form."""
        rdata = self.rdata.canonical_wire()
        return (self.owner.canonical_wire()
                + struct.pack(">HHIH", self.rtype, self.rclass,
                              self.ttl if original_ttl is None else original_ttl,
                              len(rdata))
                + rdata)


@dataclass(frozen=True)
class RRset:
    """All records sharing owner, type and class: the unit DNSSEC signs."""
    owner: DnsName
    rtype: int
    rclass: int
    ttl: int
    rdatas: tuple

    def __post_init__(self):
        if not self.rdatas:
            raise RdataError("RRset cannot be empty")
        if len(set(self.rdatas)) != len(self.rdatas):
            raise RdataError("RRset rdatas must be distinct")

    def records(self) -> Iterator[ResourceRecord]:
        for rdata in self.rdatas:
            yield ResourceRecord(self.owner, self.rtype, self.rclass, self.ttl, rdata)

    @classmethod
    def from_records(cls, records: Iterable[ResourceRecord]) -> "RRset":
        records = list(records)
        first = records[0]
        ttl = min(r.ttl for r in records)
        rdatas = []
        for r in records:
            if (r.owner, r.rtype, r.rclass) != (first.owner, first.rtype, first.rclass):
                raise RdataError("records do not share owner/type/class")
            if r.rdata not in rdatas:
                rdatas.append(r.rdata)
        return cls(first.owner, first.rtype, first.rclass, ttl, tuple(rdatas))


def rrsigs_covering(records: Iterable[ResourceRecord], owner: DnsName,
                    rtype: int) -> list[ResourceRecord]:
    """The class-IN RRSIG records among `records` at `owner` that cover `rtype`."""
    rrsig = RType.RRSIG  # an enum member costs an attribute lookup per record
    return [r for r in records if r.rtype == rrsig and r.owner == owner
            and r.rclass == 1 and r.rdata.type_covered == rtype]


class TtlMismatchWarning(UserWarning):
    pass


def group_rrsets(records: Iterable[ResourceRecord]) -> list[RRset]:
    """Partition records into RRsets, sorted by canonical owner order then
    type code. Mixed TTLs within a group are unified to the minimum."""
    groups: dict[tuple, list[ResourceRecord]] = {}
    for record in records:
        if record.rtype == RType.OPT:
            continue
        groups.setdefault((record.owner, record.rtype, record.rclass), []).append(record)
    rrsets = []
    for key in sorted(groups, key=lambda k: (k[0].canonical_key(), k[1], k[2])):
        members = groups[key]
        ttls = {r.ttl for r in members}
        if len(ttls) > 1:
            warnings.warn(f"mixed TTLs {sorted(ttls)} at {key[0]}/{rtype_to_text(key[1])}; "
                          f"using {min(ttls)}", TtlMismatchWarning, stacklevel=2)
        rrsets.append(RRset.from_records(members))
    return rrsets


def canonical_rrset_bytes(rrset: RRset, original_ttl: int) -> bytes:
    """The byte string a signature covers: every record of the set rendered in
    canonical form with the original TTL, concatenated in ascending canonical
    RDATA order. Deterministic for equal inputs regardless of rdata order."""
    rendered = sorted(
        ResourceRecord(rrset.owner, rrset.rtype, rrset.rclass, original_ttl, rdata)
        .canonical_bytes()
        for rdata in rrset.rdatas
    )
    return b"".join(rendered)
