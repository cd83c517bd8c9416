"""Domain names and the canonical ordering used for NSEC chains and signing."""

from __future__ import annotations

from typing import Iterable

MAX_LABEL = 63
MAX_NAME = 255


class NameError_(ValueError):
    pass


class OversizeName(NameError_):
    """A label exceeds 63 octets or the encoded name exceeds 255 octets."""


class DnsName:
    """An absolute domain name: an ordered sequence of labels, root last.

    Comparison, equality and hashing are case-insensitive over ASCII letters.
    The presentation case of labels is preserved for display.
    """

    __slots__ = ("labels", "_key")

    def __init__(self, labels: Iterable[bytes] = ()):
        labels = tuple(bytes(l) for l in labels)
        for label in labels:
            if not label:
                raise OversizeName("empty label")
            if len(label) > MAX_LABEL:
                raise OversizeName(f"label exceeds {MAX_LABEL} octets: {label[:16]!r}...")
        if sum(len(l) + 1 for l in labels) + 1 > MAX_NAME:
            raise OversizeName("encoded name exceeds 255 octets")
        self.labels = labels
        self._key = tuple(map(bytes.lower, labels))

    @classmethod
    def _trusted(cls, labels: tuple[bytes, ...], key: tuple | None = None) -> "DnsName":
        """A name from `bytes` labels that already passed `__init__`'s checks;
        only `wire.read_name` and `parent` call it (a test keeps it so)."""
        name = object.__new__(cls)
        name.labels = labels
        name._key = tuple(map(bytes.lower, labels)) if key is None else key
        return name

    @classmethod
    def from_text(cls, text: str, origin: "DnsName | None" = None) -> "DnsName":
        """Parse presentation form. Relative names are appended to `origin`;
        `@` means the origin itself."""
        text = text.strip()
        if text in (".", ""):
            return ROOT if text == "." else _require_origin(origin)
        if text == "@":
            return _require_origin(origin)
        absolute = text.endswith(".")
        raw = text.rstrip(".")
        labels = []
        for part in raw.split("."):
            if part == "":
                raise NameError_(f"empty label in {text!r}")
            labels.append(part.encode("ascii"))
        if not absolute:
            labels.extend(_require_origin(origin).labels)
        return cls(labels)

    def to_text(self) -> str:
        if not self.labels:
            return "."
        return ".".join(l.decode("ascii", "replace") for l in self.labels) + "."

    # -- wire forms ------------------------------------------------------

    def to_wire(self) -> bytes:
        """Uncompressed wire encoding with presentation case."""
        out = bytearray()
        for label in self.labels:
            out.append(len(label))
            out += label
        out.append(0)
        return bytes(out)

    def canonical_wire(self) -> bytes:
        """Uncompressed, lowercased wire encoding (the form signatures cover)."""
        out = bytearray()
        for label in self._key:
            out.append(len(label))
            out += label
        out.append(0)
        return bytes(out)

    # -- structure -------------------------------------------------------

    def parent(self) -> "DnsName":
        if not self.labels:
            raise NameError_("root has no parent")
        return DnsName._trusted(self.labels[1:], self._key[1:])

    def is_subdomain_of(self, other: "DnsName") -> bool:
        """True when self is at or below `other`."""
        n = len(other._key)
        if n == 0:
            return True
        return self._key[-n:] == other._key if len(self._key) >= n else False

    def relativize(self, origin: "DnsName") -> str:
        """Presentation form relative to origin; `@` at the origin itself."""
        if self == origin:
            return "@"
        if self.is_subdomain_of(origin) and origin.labels:
            kept = self.labels[: len(self.labels) - len(origin.labels)]
            return ".".join(l.decode("ascii", "replace") for l in kept)
        return self.to_text()

    # -- ordering --------------------------------------------------------

    def canonical_key(self) -> tuple:
        """Sort key realizing canonical order: labels right to left, lowercased."""
        return tuple(reversed(self._key))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DnsName):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "DnsName") -> bool:
        return self.canonical_key() < other.canonical_key()

    def __le__(self, other: "DnsName") -> bool:
        return self.canonical_key() <= other.canonical_key()

    def __repr__(self) -> str:
        return f"DnsName({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


ROOT = DnsName()


def _require_origin(origin: DnsName | None) -> DnsName:
    if origin is None:
        raise NameError_("relative name used without an origin")
    return origin


def canonical_compare(a: DnsName, b: DnsName) -> int:
    """Total order on names: compare label sequences from the rightmost label
    to the leftmost, each label octet-wise after ASCII lowercasing. A name
    sorts before any name it is a proper suffix of. Returns -1, 0 or 1."""
    ka, kb = a.canonical_key(), b.canonical_key()
    if ka == kb:
        return 0
    return -1 if ka < kb else 1
