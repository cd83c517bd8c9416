"""Low-level wire helpers: name encoding and compression-pointer resolution."""

from __future__ import annotations

from struct import Struct

from .names import MAX_NAME, DnsName

#: A name has at most 127 labels; a longer pointer chain only slows decoding.
MAX_POINTERS = MAX_NAME // 2


class WireError(ValueError):
    pass


class Truncated(WireError):
    """Input ended in the middle of a structure."""


class BadPointer(WireError):
    """A pointer is not backward, or a name follows over `MAX_POINTERS` of them."""


class LabelTooLong(WireError):
    """A label length is invalid or the assembled name exceeds 255 octets."""


def read_name(data: bytes, offset: int, end: int) -> tuple[DnsName, int]:
    """Read a possibly-compressed name starting at `offset`. This is the one
    place where wire names are checked; the name is then built from slices of
    `data` without `DnsName`'s checks, so `data` must be `bytes`.

    Returns the name and the offset just past its in-place encoding, which
    must end by `end`; labels reached through a pointer may lie anywhere in
    `data`. Pointers must target strictly earlier offsets, so chains terminate.
    """
    labels: list[bytes] = []
    total = 1
    pointers = 0
    pos = offset
    while True:
        if pos >= end:
            raise Truncated("name runs past the end of its field")
        length = data[pos]
        if not length:
            break
        if length < 0x40:
            start = pos + 1
            pos = start + length
            if pos > end:
                raise Truncated("label runs past the end of its field")
            labels.append(data[start:pos])
            total += length + 1
            if total > MAX_NAME:
                raise LabelTooLong("assembled name exceeds 255 octets")
            continue
        if length < 0xC0:  # 0x40-0xBF are reserved, so a label is at most 63 octets
            raise LabelTooLong(f"reserved label type 0x{length:02x}")
        if pos + 1 >= end:
            raise Truncated("pointer runs past the end of its field")
        target = ((length & 0x3F) << 8) | data[pos + 1]
        if target >= pos:
            raise BadPointer(f"pointer at {pos} targets {target} (not backward)")
        if pointers == MAX_POINTERS:
            raise BadPointer(f"name follows more than {MAX_POINTERS} pointers")
        if not pointers:
            stop = pos + 2
            end = len(data)
        pointers += 1
        pos = target
    return DnsName._trusted(tuple(labels)), stop if pointers else pos + 1


def read_exact(data: bytes, offset: int, end: int, count: int, what: str) -> bytes:
    if offset + count > end:
        raise Truncated(f"{what}: need {count} octets at offset {offset}")
    return data[offset : offset + count]


def unpack_exact(fields: Struct, data: bytes, offset: int, end: int, what: str) -> tuple:
    """The fixed-size `fields` at `offset`, which must end by `end`."""
    if offset + fields.size > end:
        raise Truncated(f"{what}: need {fields.size} octets at offset {offset}")
    return fields.unpack_from(data, offset)
