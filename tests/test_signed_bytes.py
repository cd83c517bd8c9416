"""Pinned signed output: the sha256 of `serialize_zone(sign_zone(...))` for
two zones signed with seeded keys at a fixed instant. The digests were taken
from the linear-scan `Zone` helpers, so any change to the zone bookkeeping
that alters one signed byte fails here. The `SignatureMemo` keys of the
reference zone's signatures are pinned too; their digest was taken when each
RRSIG still rebuilt its signed prefix on every call."""

import hashlib
import random
import struct

from dnsseclab.keystore import KeyRole, generate_key
from dnsseclab.names import DnsName
from dnsseclab.records import DsRdata, RType, canonical_rrset_bytes, group_rrsets
from dnsseclab.signer import SigningPolicy, sign_zone
from dnsseclab.validator import SigCheck, SignatureMemo, verify_with_any
from dnsseclab.zonefile import parse_zone_file, serialize_zone

from conftest import APEX, FIXED_NOW, ZONE_TEXT

REFERENCE_DIGEST = "8667761b9c26ad23f11ddc43fddb0232a263f7a7019ab09b74e24b8aff7246f4"
GENERATED_DIGEST = "83e2f5c8c2a575a483dca600d6bb1d99b0fa041659292425b3a89c05ffc23520"
#: sha256 over the memo key (key RDATA, signature, sha256 of the signed data)
#: of each of the reference zone's 18 signatures, in `group_rrsets` order.
MEMO_KEYS_DIGEST = "0ecd2614123852d181d1e0773b9db84f6590b8d1d7c9ebd7b0631e2df289bfb7"

GEN_APEX = DnsName.from_text("pinned.example.")


def generated_zone_text(seed: int = 7) -> str:
    """Nested host names, delegations (some below nested names) with glue at
    and below the cut, and DS records at every other cut."""
    rng = random.Random(seed)
    lines = ["$TTL 3600", "@ IN SOA ns hostmaster 1 3600 900 604800 300",
             "@ IN NS ns", "ns IN A 10.0.0.1"]
    for i in range(12):
        owner = f"h{i}" + "".join(f".d{rng.randrange(3)}" for _ in range(rng.randrange(3)))
        lines.append(f"{owner} IN A 10.1.{i}.{rng.randrange(1, 255)}")
        if rng.random() < 0.4:
            lines.append(f'{owner} IN TXT "t{i}"')
    for i in range(6):
        cut = f"c{i}" + (".d1" if i % 3 == 2 else "")
        lines.append(f"{cut} IN NS ns.{cut}")
        lines.append(f"ns.{cut} IN A 172.16.{i}.1")
        lines.append(f"deep.x.{cut} IN A 172.16.{i}.2")
        if i % 2 == 0:
            lines.append(f"{cut} IN DS " + DsRdata(40000 + i, 5, 1, bytes(range(i, i + 20))).to_text())
    return "\n".join(lines) + "\n"


def signed_digest(zone, zsk, ksk) -> str:
    signed = sign_zone(zone, zsk, ksk, SigningPolicy(), FIXED_NOW)
    assert signed.stats.signatures_failed == 0
    return hashlib.sha256(serialize_zone(signed.zone).encode("ascii")).hexdigest()


def test_reference_zone_signed_bytes_are_pinned(zsk, ksk):
    zone = parse_zone_file(ZONE_TEXT, APEX)
    assert signed_digest(zone, zsk, ksk) == REFERENCE_DIGEST


def test_generated_zone_signed_bytes_are_pinned():
    zsk = generate_key(GEN_APEX, KeyRole.ZSK, bits=512, rng=71, now=FIXED_NOW)
    ksk = generate_key(GEN_APEX, KeyRole.KSK, bits=512, rng=72, now=FIXED_NOW)
    zone = parse_zone_file(generated_zone_text(), GEN_APEX)
    assert signed_digest(zone, zsk, ksk) == GENERATED_DIGEST


def test_signed_prefix_is_built_once_and_memo_keys_are_pinned(zsk, ksk):
    """Each RRSIG object builds its signed prefix once; the prefix is the
    RRSIG's fixed fields and canonical signer name, and the memo keys it
    feeds are the pinned bytes."""
    zone = sign_zone(parse_zone_file(ZONE_TEXT, APEX), zsk, ksk, SigningPolicy(),
                     FIXED_NOW).zone
    keys = [r.rdata for r in zone.records_at(APEX, RType.DNSKEY)]
    memo = SignatureMemo()
    digest = hashlib.sha256()
    signatures = 0
    for rrset in group_rrsets(r for r in zone.records if r.rtype != RType.RRSIG):
        for sig in (r.rdata for r in zone.rrsigs_at(rrset.owner, rrset.rtype)):
            prefix = sig.signed_prefix()
            assert sig.signed_prefix() is prefix
            assert prefix == struct.pack(
                ">HBBIIIH", sig.type_covered, sig.algorithm, sig.labels, sig.original_ttl,
                sig.expiration, sig.inception, sig.key_tag) + sig.signer_name.canonical_wire()
            result, key = verify_with_any(rrset, [sig], keys, FIXED_NOW, memo)
            assert result is SigCheck.VALID
            data = prefix + canonical_rrset_bytes(rrset, sig.original_ttl)
            check = (key.to_wire(), sig.signature, hashlib.sha256(data).digest())
            assert check in memo
            for part in check:
                digest.update(part)
            signatures += 1
    assert signatures == len(memo) == 18
    assert digest.hexdigest() == MEMO_KEYS_DIGEST
