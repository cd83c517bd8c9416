"""DNS message model and bit-exact wire encoding/decoding."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import combinations

from .names import DnsName
from .records import RdataError, ResourceRecord, RType, rdata_from_wire, rtype_to_text
from .wire import Truncated, read_name, unpack_exact

# In the presentation order of dig-style flag lines.
FLAG_BITS = {
    "qr": 0x8000,
    "aa": 0x0400,
    "tc": 0x0200,
    "rd": 0x0100,
    "ra": 0x0080,
    "ad": 0x0020,
    "cd": 0x0010,
}

_FLAG_NAMES = frozenset(FLAG_BITS)
_FLAG_MASK = sum(FLAG_BITS.values())
#: The flag set of each combination of the bits in `_FLAG_MASK`.
_FLAG_SETS = {sum(FLAG_BITS[f] for f in names): frozenset(names)
              for n in range(len(FLAG_BITS) + 1) for names in combinations(FLAG_BITS, n)}


_HEADER = struct.Struct(">HHHHHH")
_QUESTION = struct.Struct(">HH")
_RR_HEAD = struct.Struct(">HHIH")  # type, class, TTL, RDLENGTH
_POINTER = struct.Struct(">H")


class Rcode(IntEnum):
    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    REFUSED = 5


def rcode_to_text(code: int) -> str:
    try:
        return Rcode(code).name
    except ValueError:
        return f"RCODE{code}"


class TooManyRecords(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Question:
    name: DnsName
    qtype: int
    qclass: int = 1


@dataclass(frozen=True, slots=True)
class Edns:
    version: int = 0
    do: bool = False
    udp_payload: int = 4096

    @classmethod
    def shared(cls, version: int = 0, do: bool = False, udp_payload: int = 4096) -> Edns:
        """`Edns(...)`, one shared object for each value queries and replies carry."""
        return _SHARED_EDNS.get((version, do, udp_payload)) or cls(version, do, udp_payload)


_SHARED_EDNS = {(e.version, e.do, e.udp_payload): e for e in (Edns(), Edns(do=True))}


@dataclass
class DnsMessage:
    id: int = 0
    flags: frozenset = frozenset()
    rcode: int = Rcode.NOERROR
    questions: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    authority: list = field(default_factory=list)
    additional: list = field(default_factory=list)
    edns: Edns | None = None

    def __post_init__(self):
        self.flags = frozenset(self.flags)
        if not self.flags <= _FLAG_NAMES:
            raise ValueError(f"unknown flags {sorted(self.flags - _FLAG_NAMES)}")

    @property
    def question(self) -> Question | None:
        return self.questions[0] if self.questions else None

    @property
    def do_bit(self) -> bool:
        return bool(self.edns and self.edns.do)

    def section_records(self):
        """(section name, records) for the three record sections."""
        return (("answer", self.answers), ("authority", self.authority),
                ("additional", self.additional))

    def records_of(self, owner, rtype) -> list:
        """The answer records with this owner and type in class IN, the one class asked for."""
        return [r for r in self.answers if r.owner == owner and r.rtype == rtype and r.rclass == 1]


def make_query(name: DnsName, qtype: int, *, id: int = 0, rd: bool = False,
               edns: Edns | None = None) -> DnsMessage:
    flags = {"rd"} if rd else set()
    return DnsMessage(id=id, flags=frozenset(flags),
                      questions=[Question(name, qtype)], edns=edns)


def make_reply(query: DnsMessage, *flags: str, rcode: int = Rcode.NOERROR) -> DnsMessage:
    """The empty reply to `query`: its id and question, its rd bit echoed, qr
    and `flags` set, and EDNS (DO echoed, payload 4096) when the query had EDNS."""
    edns = Edns.shared(do=query.edns.do) if query.edns else None
    return DnsMessage(id=query.id, flags=(query.flags & {"rd"}) | {"qr", *flags},
                      rcode=rcode, questions=list(query.questions), edns=edns)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _write_name(out: bytearray, name: DnsName, table: dict) -> None:
    labels = name.labels
    for i, label in enumerate(labels):
        suffix = labels[i:]
        offset = table.get(suffix)
        if offset is not None:
            out += _POINTER.pack(0xC000 | offset)
            return
        if len(out) <= 0x3FFF:
            table[suffix] = len(out)
        out.append(len(label))
        out += label
    out.append(0)


def _write_record(out: bytearray, record: ResourceRecord, table: dict) -> None:
    # Owner names compress; names inside RDATA never do (signatures cover
    # the uncompressed form).
    _write_name(out, record.owner, table)
    rdata = record.rdata.to_wire()
    out += _RR_HEAD.pack(record.rtype, record.rclass, record.ttl & 0xFFFFFFFF, len(rdata))
    out += rdata


def encode_message(msg: DnsMessage) -> bytes:
    additional_count = len(msg.additional) + (1 if msg.edns else 0)
    for count in (len(msg.questions), len(msg.answers), len(msg.authority),
                  additional_count):
        if count > 0xFFFF:
            raise TooManyRecords(f"section of {count} records")
    flags_word = sum(FLAG_BITS[f] for f in msg.flags) | (msg.rcode & 0x0F)
    out = bytearray(_HEADER.pack(msg.id & 0xFFFF, flags_word, len(msg.questions),
                                 len(msg.answers), len(msg.authority), additional_count))
    table: dict = {}
    for q in msg.questions:
        _write_name(out, q.name, table)
        out += _QUESTION.pack(q.qtype, q.qclass)
    for _, section in msg.section_records():
        for record in section:
            _write_record(out, record, table)
    if msg.edns:
        ttl = ((msg.edns.version & 0xFF) << 16) | (0x8000 if msg.edns.do else 0)
        out += b"\x00" + _RR_HEAD.pack(RType.OPT, msg.edns.udp_payload, ttl, 0)
    return bytes(out)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _read_record(data: bytes, offset: int, size: int,
                 opt_is_edns: bool = False) -> tuple[ResourceRecord | Edns, int]:
    """The record at `offset`; with `opt_is_edns`, an OPT as the `Edns` it carries."""
    owner, offset = read_name(data, offset, size)
    rtype, rclass, ttl, rdlength = unpack_exact(_RR_HEAD, data, offset, size, "record header")
    offset += _RR_HEAD.size
    end = offset + rdlength
    if end > size:
        raise Truncated(f"rdata: need {rdlength} octets at offset {offset}")
    if opt_is_edns and rtype == RType.OPT:
        return Edns.shared((ttl >> 16) & 0xFF, bool(ttl & 0x8000), rclass), end
    rdata, stop = rdata_from_wire(rtype, data, offset, end)
    if stop != end:
        raise RdataError(f"{end - stop} octets left over in {rtype_to_text(rtype)} rdata")
    return ResourceRecord(owner, rtype, rclass, ttl, rdata), end


def decode_message(data: bytes) -> DnsMessage:
    data = bytes(data)  # `read_name` builds names from its slices unchecked
    size = len(data)
    msg_id, flags_word, qdcount, ancount, nscount, arcount = unpack_exact(
        _HEADER, data, 0, size, "header")
    msg = DnsMessage(id=msg_id, flags=_FLAG_SETS[flags_word & _FLAG_MASK],
                     rcode=flags_word & 0x0F)
    offset = _HEADER.size
    for _ in range(qdcount):
        name, offset = read_name(data, offset, size)
        qtype, qclass = unpack_exact(_QUESTION, data, offset, size, "question")
        offset += _QUESTION.size
        msg.questions.append(Question(name, qtype, qclass))
    for count, section in ((ancount, msg.answers), (nscount, msg.authority),
                           (arcount, msg.additional)):
        for _ in range(count):
            record, offset = _read_record(data, offset, size, section is msg.additional)
            if type(record) is not Edns:
                section.append(record)
            elif msg.edns is None:
                msg.edns = record
    return msg
