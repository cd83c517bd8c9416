"""Key pair generation, key tags, key-file persistence, and trust anchors."""

from __future__ import annotations

import base64
import random
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from . import rsa
from .names import DnsName
from .records import (DnskeyRdata, ResourceRecord, RType, timestamp_from_text,
                      timestamp_to_text)
from .zonefile import ZoneError, parse_record_line

PROTOCOL = 3
FLAGS_ZSK = 256
FLAGS_KSK = 257

#: algorithm code -> (mnemonic, digest for signing, usable for signing)
ALGORITHMS = {
    1: ("RSAMD5", None, False),  # legacy: parse and key-tag only
    5: ("RSASHA1", "sha1", True),
}

_SELF_TEST_PROBE = b"dnsseclab key correspondence probe"
#: Longest public exponent accepted, in octets: a long exponent makes every
#: verification slow.
MAX_EXPONENT_OCTETS = 8


class KeystoreError(ValueError):
    pass


class UnsupportedAlgorithm(KeystoreError):
    pass


class BadKeySize(KeystoreError):
    pass


class NotAKsk(KeystoreError):
    pass


class ParseError(KeystoreError):
    pass


class KeyMismatch(KeystoreError):
    pass


class KeyRole(Enum):
    ZSK = "ZSK"
    KSK = "KSK"

    @property
    def flags(self) -> int:
        return FLAGS_KSK if self is KeyRole.KSK else FLAGS_ZSK


def algorithm_mnemonic(code: int) -> str:
    return ALGORITHMS.get(code, (f"ALG{code}", None, False))[0]


def algorithm_from_mnemonic(text: str) -> int:
    for code, (name, _, _) in ALGORITHMS.items():
        if name == text.upper():
            return code
    raise UnsupportedAlgorithm(f"unknown algorithm {text!r}")


def encode_rsa_public(key: rsa.RsaPublicKey) -> bytes:
    """DNSKEY public key field for RSA: exponent length, exponent, modulus."""
    e = key.e.to_bytes((key.e.bit_length() + 7) // 8, "big")
    n = key.n.to_bytes(key.byte_length(), "big")
    if len(e) < 256:
        return bytes((len(e),)) + e + n
    return b"\x00" + len(e).to_bytes(2, "big") + e + n


def decode_rsa_public(data: bytes) -> rsa.RsaPublicKey:
    """The RSA key in a DNSKEY public key field (RFC 3110 §2). `ParseError`
    unless the exponent has at most `MAX_EXPONENT_OCTETS` octets and the
    modulus, without leading zero octets, has `rsa.MIN_MODULUS_BITS` to
    `rsa.MAX_MODULUS_BITS` bits, so a field that passes has at most 523 octets."""
    if not data:
        raise ParseError("empty RSA public key field")
    if data[0]:
        elen, offset = data[0], 1
    else:
        elen, offset = int.from_bytes(data[1:3], "big"), 3
    if elen > MAX_EXPONENT_OCTETS:
        raise ParseError(f"RSA exponent of {elen} octets")
    e = int.from_bytes(data[offset : offset + elen], "big")
    modulus = data[offset + elen :]
    n = int.from_bytes(modulus, "big")
    if not e or not n or not modulus[0]:
        raise ParseError("malformed RSA public key field")
    if not rsa.MIN_MODULUS_BITS <= n.bit_length() <= rsa.MAX_MODULUS_BITS:
        raise ParseError(f"RSA modulus of {n.bit_length()} bits")
    return rsa.RsaPublicKey(n, e)


@dataclass(frozen=True)
class KeyPair:
    zone: DnsName
    role: KeyRole
    algorithm: int
    bits: int
    public: DnskeyRdata
    private: rsa.RsaPrivateKey
    created: int
    publish: int
    activate: int

    @property
    def key_tag(self) -> int:
        return self.public.key_tag()

    def base_name(self) -> str:
        return f"K{self.zone.to_text()}+{self.algorithm:03d}+{self.key_tag:05d}"

    def can_sign(self) -> bool:
        return ALGORITHMS.get(self.algorithm, ("", None, False))[2]

    def sign(self, data: bytes) -> bytes:
        if not self.can_sign():
            raise UnsupportedAlgorithm(
                f"algorithm {algorithm_mnemonic(self.algorithm)} cannot sign")
        return rsa.sign(self.private, data, ALGORITHMS[self.algorithm][1])

    def dnskey_record(self, ttl: int):
        return ResourceRecord(self.zone, RType.DNSKEY, 1, ttl, self.public)


@dataclass(frozen=True)
class TrustAnchor:
    zone: DnsName
    dnskey: DnskeyRdata

    def __post_init__(self):
        if self.dnskey.flags != FLAGS_KSK:
            raise NotAKsk(f"trust anchors must be KSKs (flags {FLAGS_KSK})")

    @property
    def key_tag(self) -> int:
        return self.dnskey.key_tag()


def generate_key(zone: DnsName, role: KeyRole, algorithm: int = 5,
                 bits: int = 2048, rng: random.Random | int | None = None,
                 now: int | None = None) -> KeyPair:
    """Generate a fresh key pair. Deterministic when `rng` is seeded."""
    info = ALGORITHMS.get(algorithm)
    if info is None or not info[2]:
        raise UnsupportedAlgorithm(
            f"algorithm {algorithm} ({algorithm_mnemonic(algorithm)}) "
            "is not usable for signing")
    if isinstance(rng, int):
        rng = random.Random(rng)
    elif rng is None:
        rng = random.SystemRandom()
    try:
        private = rsa.generate_keypair(bits, rng)
    except rsa.RsaError as exc:
        raise BadKeySize(str(exc)) from exc
    public = DnskeyRdata(role.flags, PROTOCOL, algorithm,
                         encode_rsa_public(private.public()))
    stamp = int(time.time()) if now is None else int(now)
    return KeyPair(zone, role, algorithm, bits, public, private,
                   stamp, stamp, stamp)


# ---------------------------------------------------------------------------
# Key files
# ---------------------------------------------------------------------------

def _human_time(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, timezone.utc).strftime("%a %b %d %H:%M:%S %Y")


def _b64_int(value: int) -> str:
    size = max(1, (value.bit_length() + 7) // 8)
    return base64.b64encode(value.to_bytes(size, "big")).decode("ascii")


def _int_b64(text: str) -> int:
    return int.from_bytes(base64.b64decode(text), "big")


def public_key_text(key: KeyPair) -> str:
    kind = "key-signing" if key.role is KeyRole.KSK else "zone-signing"
    lines = [
        f"; This is a {kind} key, keyid {key.key_tag}, for {key.zone.to_text()}",
        f"; Created: {timestamp_to_text(key.created)} ({_human_time(key.created)})",
        f"; Publish: {timestamp_to_text(key.publish)} ({_human_time(key.publish)})",
        f"; Activate: {timestamp_to_text(key.activate)} ({_human_time(key.activate)})",
        f"{key.zone.to_text()} IN DNSKEY {key.public.to_text()}",
    ]
    return "\n".join(lines) + "\n"


def private_key_text(key: KeyPair) -> str:
    priv = key.private
    lines = [
        "Private-key-format: v1.3",
        f"Algorithm: {key.algorithm} ({algorithm_mnemonic(key.algorithm)})",
        f"Modulus: {_b64_int(priv.n)}",
        f"PublicExponent: {_b64_int(priv.e)}",
        f"PrivateExponent: {_b64_int(priv.d)}",
        f"Prime1: {_b64_int(priv.p)}",
        f"Prime2: {_b64_int(priv.q)}",
        f"Exponent1: {_b64_int(priv.dp)}",
        f"Exponent2: {_b64_int(priv.dq)}",
        f"Coefficient: {_b64_int(priv.qinv)}",
        f"Created: {timestamp_to_text(key.created)}",
        f"Publish: {timestamp_to_text(key.publish)}",
        f"Activate: {timestamp_to_text(key.activate)}",
    ]
    return "\n".join(lines) + "\n"


def write_key_files(key: KeyPair, directory: Path | str) -> tuple[Path, Path]:
    directory = Path(directory)
    base = directory / key.base_name()
    public_path = base.with_name(base.name + ".key")
    private_path = base.with_name(base.name + ".private")
    public_path.write_text(public_key_text(key), encoding="ascii")
    private_path.write_text(private_key_text(key), encoding="ascii")
    return public_path, private_path


def _parse_timestamp_field(fields: dict, name: str, fallback: int) -> int:
    text = fields.get(name.lower())
    return timestamp_from_text(text) if text else fallback


def read_key_files(public_path: Path | str, private_path: Path | str) -> KeyPair:
    """Load and cross-check a key pair. The private and public halves must
    correspond (checked with a sign/verify probe)."""
    public_text = Path(public_path).read_text(encoding="ascii")
    record_line = None
    for line in public_text.splitlines():
        if line.strip() and not line.lstrip().startswith(";"):
            record_line = line
    if record_line is None:
        raise ParseError(f"{public_path}: no DNSKEY line")
    try:
        record = parse_record_line(record_line, default_ttl=0)
    except ZoneError as exc:
        raise ParseError(f"{public_path}: {exc}") from exc
    if record.rtype != RType.DNSKEY:
        raise ParseError(f"{public_path}: last record is not a DNSKEY")
    dnskey = record.rdata

    lines = Path(private_path).read_text(encoding="ascii").splitlines()
    fields = {}
    for line in lines:
        if ":" in line:
            name, _, value = line.partition(":")
            fields[name.strip().lower()] = value.strip()
    if fields.get("private-key-format") not in ("v1.2", "v1.3"):
        raise ParseError(f"{private_path}: missing Private-key-format header")
    try:
        algorithm = int(fields["algorithm"].split()[0])
        p = _int_b64(fields["prime1"])
        q = _int_b64(fields["prime2"])
        e = _int_b64(fields["publicexponent"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{private_path}: {exc}") from exc
    private = rsa.RsaPrivateKey.from_factors(p, q, e)

    if algorithm != dnskey.algorithm:
        raise KeyMismatch("algorithm differs between public and private halves")
    role = KeyRole.KSK if dnskey.flags == FLAGS_KSK else KeyRole.ZSK
    stamp = _parse_timestamp_field(fields, "created", 0)
    key = KeyPair(record.owner, role, algorithm, private.n.bit_length(),
                  dnskey, private, stamp,
                  _parse_timestamp_field(fields, "publish", stamp),
                  _parse_timestamp_field(fields, "activate", stamp))

    expected = decode_rsa_public(dnskey.public_key)
    if expected != private.public():
        raise KeyMismatch("public key does not match private key")
    if key.can_sign():
        digest = ALGORITHMS[algorithm][1]
        if not rsa.verify(expected, _SELF_TEST_PROBE,
                          rsa.sign(private, _SELF_TEST_PROBE, digest), digest):
            raise KeyMismatch("sign/verify self-test failed")
    return key


def read_key_pair(base: Path | str) -> KeyPair:
    """Load a pair from its base name (with or without a .key suffix)."""
    base = Path(str(base).removesuffix(".key").removesuffix(".private"))
    return read_key_files(base.with_name(base.name + ".key"),
                          base.with_name(base.name + ".private"))


# ---------------------------------------------------------------------------
# Trust anchors
# ---------------------------------------------------------------------------

def parse_trust_anchors(text: str) -> list[TrustAnchor]:
    anchors = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        try:
            record = parse_record_line(line, default_ttl=0)
        except ZoneError as exc:
            raise ParseError(f"bad trust anchor line: {exc}") from exc
        if record.rtype != RType.DNSKEY:
            raise ParseError(f"trust anchor is not a DNSKEY: {line!r}")
        if record.rdata.flags != FLAGS_KSK:
            raise NotAKsk(f"trust anchor for {record.owner} is not a KSK")
        anchors.append(TrustAnchor(record.owner, record.rdata))
    return anchors


def load_trust_anchors(path: Path | str) -> list[TrustAnchor]:
    return parse_trust_anchors(Path(path).read_text(encoding="ascii"))
