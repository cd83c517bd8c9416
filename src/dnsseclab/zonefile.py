"""Master zone file parsing and serialization (RFC-1035-style grammar subset).

Supports $ORIGIN/$TTL/$INCLUDE, parenthesized multi-line records, quoted
strings, and base64 continuation for DNSKEY/RRSIG payloads.
"""

from __future__ import annotations

import bisect
import io
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, TextIO

from .names import DnsName, NameError_
from .records import (RClass, RType, RdataError, ResourceRecord, RRset,
                      group_rrsets, nsec_gap_covers, rdata_from_text,
                      rrsigs_covering, rtype_from_text)


class ZoneError(ValueError):
    pass


class ZoneSyntaxError(ZoneError):
    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class MissingSoa(ZoneError):
    pass


class DuplicateSoa(ZoneError):
    pass


class _Tables(NamedTuple):
    size: int        # len(records) when built
    by_owner: dict   # owner -> rtype -> records, in record order
    rrsigs: dict     # (owner, covered type) -> the RRSIGs there that cover it
    cuts: frozenset  # owners of NS RRsets below the apex
    names: frozenset  # the owners and their ancestors up to the apex
    nsec_keys: list  # canonical keys of the NSEC owners, sorted
    nsecs: list      # the NSEC records, in nsec_keys order


@dataclass
class Zone:
    """A zone: its apex, its records (including the single apex SOA), and the
    child cuts delegated away by NS records below the apex.

    Lookups read tables built on first use and rebuilt when len(records)
    changes (records are appended, never replaced in place)."""
    apex: DnsName
    records: list = field(default_factory=list)
    _tables: _Tables | None = field(default=None, init=False, repr=False)

    def _index(self) -> _Tables:
        tables = self._tables
        if tables is None or tables.size != len(self.records):
            by_owner: dict = {}
            for record in self.records:
                by_owner.setdefault(record.owner, {}).setdefault(record.rtype, []).append(record)
            rrsigs = {}
            for owner, types in by_owner.items():
                sigs = types.get(RType.RRSIG, ())
                for covered in {sig.rdata.type_covered for sig in sigs}:
                    rrsigs[owner, covered] = tuple(rrsigs_covering(sigs, owner, covered))
            cuts = frozenset(owner for owner, types in by_owner.items()
                             if RType.NS in types and owner != self.apex)
            names = set()
            for name in by_owner:
                while name not in names:
                    names.add(name)
                    if len(name.labels) <= len(self.apex.labels):
                        break
                    name = name.parent()
            nsecs = sorted((r for r in self.records if r.rtype == RType.NSEC),
                           key=lambda r: r.owner.canonical_key())
            tables = self._tables = _Tables(len(self.records), by_owner, rrsigs, cuts,
                                            frozenset(names),
                                            [r.owner.canonical_key() for r in nsecs], nsecs)
        return tables

    @property
    def soa_record(self) -> ResourceRecord:
        soas = self.records_at(self.apex, RType.SOA)
        if not soas:
            raise MissingSoa(f"zone {self.apex} has no SOA")
        return soas[0]

    def delegations(self) -> set[DnsName]:
        return set(self._index().cuts)

    def highest_cut(self, name: DnsName) -> DnsName | None:
        """The highest delegation cut at or above `name`, where the zone's
        authority ends: a cut below it is occluded. Cuts lie strictly below
        the apex, so the walk stops at the apex's depth."""
        cuts = self._index().cuts
        apex_depth = len(self.apex.labels)
        highest = None
        while len(name.labels) > apex_depth:
            if name in cuts:
                highest = name
            name = name.parent()
        return highest

    def is_glue(self, owner: DnsName) -> bool:
        """True when `owner` lies strictly below a delegation cut."""
        return bool(owner.labels) and self.highest_cut(owner.parent()) is not None

    def covering_nsec(self, name: DnsName) -> ResourceRecord | None:
        """The NSEC owned by `name`, or else the one whose owner..next span
        covers it in canonical order (RFC 4035 §3.1.3), found by bisection."""
        tables = self._index()
        key = name.canonical_key()
        i = bisect.bisect_right(tables.nsec_keys, key) - 1
        if i < 0:
            return None
        record, owner_key = tables.nsecs[i], tables.nsec_keys[i]
        if owner_key == key or nsec_gap_covers(
                owner_key, record.rdata.next_name.canonical_key(), key):
            return record
        return None

    def has_name(self, name: DnsName) -> bool:
        """True when `name` owns records or is an ancestor of an owner up to
        the apex, an empty non-terminal (RFC 4592 §2.2.2)."""
        return name in self._index().names

    def owners(self) -> set[DnsName]:
        return set(self._index().by_owner)

    def records_at(self, owner: DnsName, rtype: int | None = None) -> list:
        types = self._index().by_owner.get(owner, {})
        if rtype is None:
            return [r for records in types.values() for r in records]
        return list(types.get(rtype, ()))

    def rrsigs_at(self, owner: DnsName, rtype: int) -> tuple:
        """The RRSIGs at `owner` that cover `rtype` (`rrsigs_covering`'s rule)."""
        return self._index().rrsigs.get((owner, rtype), ())

    def rrsets(self) -> list[RRset]:
        return group_rrsets(self.records)

    def validate(self) -> None:
        soas = [r for r in self.records if r.rtype == RType.SOA]
        if not soas:
            raise MissingSoa(f"zone {self.apex} has no SOA")
        if len(soas) > 1:
            raise DuplicateSoa(f"zone {self.apex} has {len(soas)} SOA records")
        if soas[0].owner != self.apex:
            raise ZoneError(f"SOA owner {soas[0].owner} is not the apex {self.apex}")
        for record in self.records:
            if not record.owner.is_subdomain_of(self.apex):
                raise ZoneError(f"{record.owner} is outside zone {self.apex}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Zone):
            return NotImplemented
        return self.apex == other.apex and Counter(self.records) == Counter(other.records)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    text: str
    column: int
    quoted: bool = False


def _tokenize_entries(stream: TextIO) -> Iterator[tuple[int, bool, list[_Token]]]:
    """Yield (line number, owner-column-blank, tokens) per logical entry.
    Parentheses join physical lines into one entry."""
    tokens: list[_Token] = []
    entry_line = 0
    entry_blank = False
    depth = 0
    for lineno, line in enumerate(stream, start=1):
        i, n = 0, len(line)
        if depth == 0 and line.strip():
            entry_line = lineno
            entry_blank = line[0] in " \t"
        while i < n:
            ch = line[i]
            if ch in " \t\r\n":
                i += 1
            elif ch == ";":
                break
            elif ch == "(":
                depth += 1
                i += 1
            elif ch == ")":
                if depth == 0:
                    raise ZoneSyntaxError(lineno, i + 1, "unbalanced ')'")
                depth -= 1
                i += 1
            elif ch == '"':
                j = i + 1
                while j < n and line[j] != '"':
                    j += 1
                if j >= n:
                    raise ZoneSyntaxError(lineno, i + 1, "unterminated string")
                tokens.append(_Token(line[i + 1 : j], i + 1, quoted=True))
                i = j + 1
            else:
                j = i
                while j < n and line[j] not in ' \t\r\n;()"':
                    j += 1
                tokens.append(_Token(line[i:j], i + 1))
                i = j
        if depth == 0 and tokens:
            yield entry_line, entry_blank, tokens
            tokens = []
    if depth > 0:
        raise ZoneSyntaxError(entry_line, 1, "unbalanced '('")
    if tokens:
        yield entry_line, entry_blank, tokens


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _parse_ttl(text: str) -> int | None:
    return int(text) if text.isdigit() else None


def parse_record_tokens(tokens: list[_Token], lineno: int, origin: DnsName,
                        owner: DnsName | None, default_ttl: int | None):
    """Parse one `[owner] [ttl] [class] type rdata...` entry."""
    idx = 0
    if owner is None:
        try:
            owner = DnsName.from_text(tokens[0].text, origin)
        except NameError_ as exc:
            raise ZoneSyntaxError(lineno, tokens[0].column, str(exc)) from exc
        idx = 1
    ttl = None
    rclass = RClass.IN
    rtype = None
    while idx < len(tokens):
        token = tokens[idx]
        maybe_ttl = _parse_ttl(token.text)
        if maybe_ttl is not None and ttl is None:
            ttl = maybe_ttl
            idx += 1
            continue
        if token.text.upper() == "IN":
            idx += 1
            continue
        try:
            rtype = rtype_from_text(token.text)
        except ValueError as exc:
            raise ZoneSyntaxError(lineno, token.column, str(exc)) from exc
        idx += 1
        break
    if rtype is None:
        raise ZoneSyntaxError(lineno, tokens[-1].column, "missing record type")
    if ttl is None:
        ttl = default_ttl
    if ttl is None:
        raise ZoneSyntaxError(lineno, tokens[0].column,
                              "no TTL given and no $TTL in effect")
    rdata_tokens = [t.text for t in tokens[idx:]]
    if not rdata_tokens:
        raise ZoneSyntaxError(lineno, tokens[-1].column, "missing rdata")
    try:
        rdata = rdata_from_text(rtype, rdata_tokens, origin)
    except (RdataError, NameError_, ValueError) as exc:
        raise ZoneSyntaxError(lineno, tokens[idx].column, str(exc)) from exc
    return ResourceRecord(owner, rtype, rclass, ttl, rdata)


def parse_record_line(text: str, origin: DnsName | None = None,
                      default_ttl: int = 0) -> ResourceRecord:
    """Parse a single master-format record line (key files, trust anchors,
    root hints)."""
    entries = list(_tokenize_entries(io.StringIO(text)))
    if len(entries) != 1:
        raise ZoneSyntaxError(1, 1, "expected exactly one record")
    lineno, _, tokens = entries[0]
    return parse_record_tokens(tokens, lineno, origin, None, default_ttl)


class _Parser:
    def __init__(self, origin: DnsName, include_base: Path | None):
        self.origin = origin
        self.include_base = include_base
        self.default_ttl: int | None = None
        self.last_owner: DnsName | None = None
        self.records: list[ResourceRecord] = []

    def feed(self, stream: TextIO) -> None:
        for lineno, blank_owner, tokens in _tokenize_entries(stream):
            head = tokens[0].text
            if head.startswith("$"):
                self._directive(lineno, tokens)
                continue
            owner = None
            if blank_owner:
                owner = self.last_owner
                if owner is None:
                    raise ZoneSyntaxError(lineno, 1, "no previous owner to inherit")
            record = parse_record_tokens(tokens, lineno, self.origin, owner,
                                         self.default_ttl)
            self.last_owner = record.owner
            self.records.append(record)

    def _directive(self, lineno: int, tokens: list[_Token]) -> None:
        name = tokens[0].text.upper()
        args = tokens[1:]
        if name == "$ORIGIN":
            if len(args) != 1:
                raise ZoneSyntaxError(lineno, tokens[0].column, "$ORIGIN needs a name")
            self.origin = DnsName.from_text(args[0].text, self.origin)
        elif name == "$TTL":
            if len(args) != 1 or _parse_ttl(args[0].text) is None:
                raise ZoneSyntaxError(lineno, tokens[0].column, "$TTL needs seconds")
            self.default_ttl = int(args[0].text)
        elif name == "$INCLUDE":
            if self.include_base is None:
                raise ZoneSyntaxError(lineno, tokens[0].column,
                                      "$INCLUDE requires a file-based parse")
            if len(args) not in (1, 2):
                raise ZoneSyntaxError(lineno, tokens[0].column, "$INCLUDE needs a path")
            path = self.include_base / args[0].text
            saved = self.origin
            if len(args) == 2:
                self.origin = DnsName.from_text(args[1].text, self.origin)
            with open(path, encoding="ascii") as handle:
                self.feed(handle)
            self.origin = saved
        else:
            raise ZoneSyntaxError(lineno, tokens[0].column, f"unknown directive {name}")


def parse_zone_file(text: str | TextIO, origin: DnsName | str,
                    include_base: Path | str | None = None) -> Zone:
    """Parse master-file text into a Zone rooted at `origin`."""
    if isinstance(origin, str):
        origin = DnsName.from_text(origin)
    if isinstance(text, str):
        text = io.StringIO(text)
    parser = _Parser(origin, Path(include_base) if include_base else None)
    parser.feed(text)
    zone = Zone(origin, parser.records)
    zone.validate()
    return zone


def load_zone_file(path: Path | str, origin: DnsName | str) -> Zone:
    path = Path(path)
    with open(path, encoding="ascii") as handle:
        return parse_zone_file(handle, origin, include_base=path.parent)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _wrap_base64(first_part: str, b64: str, comment: str = "") -> str:
    lines = [f"{first_part} ("]
    for i in range(0, len(b64), 56):
        lines.append("\t\t" + b64[i : i + 56])
    lines.append("\t\t)" + (f" ; {comment}" if comment else ""))
    return "\n".join(lines)


def _format_record(record: ResourceRecord, origin: DnsName) -> str:
    owner = record.owner.relativize(origin)
    lead = f"{owner}\t{record.ttl}\tIN\t{RType(record.rtype).name}"
    text = record.rdata.to_text(origin)
    if record.rtype not in (RType.DNSKEY, RType.RRSIG):
        return f"{lead}\t{text}"
    # The base64 field comes last; wrap it on lines of its own.
    head, b64 = text.rsplit(" ", 1)
    comment = f"key id = {record.rdata.key_tag()}" if record.rtype == RType.DNSKEY else ""
    return _wrap_base64(f"{lead}\t{head}", b64, comment)


def serialize_zone(zone: Zone) -> str:
    """Emit master-file text: SOA first, then records grouped by owner in
    canonical order."""
    lines = [f"$ORIGIN {zone.apex.to_text()}"]
    # A scan, not zone.soa_record, which would build the lookup tables.
    soa = next((r for r in zone.records if r.rtype == RType.SOA and r.owner == zone.apex), None)
    if soa is None:
        raise MissingSoa(f"zone {zone.apex} has no SOA")
    lines.append(_format_record(soa, zone.apex))
    rest = [r for r in zone.records if r is not soa]
    rest.sort(key=lambda r: (r.owner.canonical_key(), r.rtype,
                             r.rdata.canonical_wire()))
    lines.extend(_format_record(r, zone.apex) for r in rest)
    return "\n".join(lines) + "\n"
