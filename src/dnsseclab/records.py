"""Resource records, RRsets, and the canonical byte form signatures cover."""

from __future__ import annotations

import base64
import struct
import threading
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Iterator

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
    if len(parts) != 4 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
        raise RdataError(f"bad IPv4 address {text!r}")
    return bytes(int(p) for p in parts)


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
# Rdata types
# ---------------------------------------------------------------------------

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


def nsec_gap_covers(owner_key: tuple, next_key: tuple, key: tuple) -> bool:
    """True when `key` falls in the gap an NSEC spans from its owner to its
    next name, all three as canonical keys (RFC 4035 §3.1.3). A next name
    that does not sort after the owner marks the chain's wraparound back to
    the apex, covering everything past the owner."""
    return owner_key < key and (key < next_key or next_key <= owner_key)


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


RDATA_CLASSES = {
    RType.A: ARdata,
    RType.NS: NsRdata,
    RType.CNAME: CnameRdata,
    RType.SOA: SoaRdata,
    RType.MX: MxRdata,
    RType.TXT: TxtRdata,
    RType.DNSKEY: DnskeyRdata,
    RType.RRSIG: RrsigRdata,
    RType.NSEC: NsecRdata,
    RType.DS: DsRdata,
}


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
