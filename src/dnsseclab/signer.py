"""Zone signing: NSEC chain construction, RRSIG generation over every RRset,
DNSKEY attachment, DS emission for the parent, and signing statistics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .keystore import FLAGS_KSK, KeyPair, KeyRole, NotAKsk
from .names import DnsName
from .records import (DnskeyRdata, DsRdata, NsecRdata, ResourceRecord, RRset,
                      RrsigRdata, RType, canonical_rrset_bytes, group_rrsets)
from .validator import SigCheck, ds_digest, verify_rrsig
from .zonefile import Zone


class SignerError(ValueError):
    pass


class LegacyAlgorithm(SignerError):
    pass


class OutOfZoneOwner(SignerError):
    pass


class KeyZoneMismatch(SignerError):
    pass


class MissingDnskeyRecords(SignerError):
    pass


@dataclass(frozen=True)
class SigningPolicy:
    inception_skew: int = 3600
    validity: int = 30 * 86400
    sign_dnskey_with_zsk: bool = True
    auto_insert_dnskeys: bool = True

    def __post_init__(self):
        if not self.validity > self.inception_skew >= 0:
            raise ValueError("need validity > inception_skew >= 0")


@dataclass
class SigningStats:
    signatures_generated: int = 0
    signatures_retained: int = 0
    signatures_dropped: int = 0
    signatures_verified: int = 0
    signatures_failed: int = 0
    runtime_seconds: float = 0.0

    @property
    def signatures_per_second(self) -> float:
        return self.signatures_generated / max(self.runtime_seconds, 1e-9)

    def format_block(self) -> str:
        """The statistics block, one label per line with right-aligned values."""
        rows = [
            ("Signatures generated:", str(self.signatures_generated)),
            ("Signatures retained:", str(self.signatures_retained)),
            ("Signatures dropped:", str(self.signatures_dropped)),
            ("Signatures successfully verified:", str(self.signatures_verified)),
            ("Signatures unsuccessfully verified:", str(self.signatures_failed)),
            ("Runtime in seconds:", f"{self.runtime_seconds:.3f}"),
            ("Signatures per second:", f"{self.signatures_per_second:.3f}"),
        ]
        return "\n".join(f"{label:<36}{value:>8}" for label, value in rows)


@dataclass
class SignedZone:
    zone: Zone
    stats: SigningStats
    keys_used: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# NSEC chain
# ---------------------------------------------------------------------------

def authoritative_owners(zone: Zone) -> list[DnsName]:
    """Owner names that get NSEC records: everything except glue below cuts,
    in canonical order."""
    owners = {o for o in zone.owners() if not zone.is_glue(o)}
    return sorted(owners, key=DnsName.canonical_key)


def build_nsec_chain(zone: Zone) -> Zone:
    """Add one NSEC per authoritative owner, each pointing at the canonically
    next owner (the last wraps to the apex). NSEC TTL is the SOA minimum."""
    if any(r.rtype == RType.NSEC for r in zone.records):
        raise SignerError("zone already carries an NSEC chain")
    owners = authoritative_owners(zone)
    ttl = zone.soa_record.rdata.minimum
    records = list(zone.records)
    for i, owner in enumerate(owners):
        next_name = owners[(i + 1) % len(owners)]
        types = {r.rtype for r in zone.records_at(owner)}
        types |= {RType.NSEC, RType.RRSIG}
        records.append(ResourceRecord(owner, RType.NSEC, 1, ttl,
                                      NsecRdata(next_name, frozenset(types))))
    return Zone(zone.apex, records)


# ---------------------------------------------------------------------------
# RRset and zone signing
# ---------------------------------------------------------------------------

def sign_rrset(rrset: RRset, key: KeyPair, policy: SigningPolicy,
               now: int) -> ResourceRecord:
    """Produce the RRSIG record covering one RRset."""
    if not key.can_sign():
        raise LegacyAlgorithm(f"algorithm {key.algorithm} cannot sign")
    if not rrset.owner.is_subdomain_of(key.zone):
        raise OutOfZoneOwner(f"{rrset.owner} is outside {key.zone}")
    inception = int(now) - policy.inception_skew
    rdata = RrsigRdata(
        type_covered=rrset.rtype,
        algorithm=key.algorithm,
        labels=len(rrset.owner.labels),
        original_ttl=rrset.ttl,
        expiration=inception + policy.validity,
        inception=inception,
        key_tag=key.key_tag,
        signer_name=key.zone,
        signature=b"",
    )
    data = rdata.signed_prefix() + canonical_rrset_bytes(rrset, rrset.ttl)
    signed = replace(rdata, signature=key.sign(data))
    return ResourceRecord(rrset.owner, RType.RRSIG, rrset.rclass, rrset.ttl, signed)


def _is_signable(zone: Zone, rrset: RRset) -> bool:
    """Delegation NS sets and glue are authoritative data of the child, not of
    this zone, so they stay unsigned."""
    if rrset.rtype == RType.RRSIG:
        return False
    if zone.is_glue(rrset.owner):
        return False
    if rrset.rtype == RType.NS and rrset.owner != zone.apex:
        return False
    return True


def sign_zone(zone: Zone, zsk: KeyPair, ksk: KeyPair, policy: SigningPolicy,
              now: int) -> SignedZone:
    """Sign a zone per the configured policy and self-verify the output.

    Every signable RRset is signed by the ZSK except the DNSKEY RRset, which
    the KSK signs (and the ZSK too when the policy says so). Pre-existing
    RRSIG/NSEC records are dropped and regenerated.
    """
    if zsk.role is not KeyRole.ZSK or ksk.role is not KeyRole.KSK:
        raise KeyZoneMismatch("need a ZSK and a KSK, in that order")
    if zsk.zone != zone.apex or ksk.zone != zone.apex:
        raise KeyZoneMismatch(f"keys are not for zone {zone.apex}")
    started = time.perf_counter()
    stats = SigningStats()

    records = []
    for record in zone.records:
        if record.rtype == RType.RRSIG:
            stats.signatures_dropped += 1
        elif record.rtype != RType.NSEC:
            records.append(record)
    stripped = Zone(zone.apex, records)

    dnskeys_present = {r.rdata for r in stripped.records_at(zone.apex, RType.DNSKEY)}
    missing = [k for k in (zsk, ksk) if k.public not in dnskeys_present]
    if missing:
        if not policy.auto_insert_dnskeys:
            raise MissingDnskeyRecords(
                "zone lacks DNSKEY records for " +
                ", ".join(str(k.key_tag) for k in missing))
        ttl = stripped.soa_record.ttl
        stripped.records.extend(k.dnskey_record(ttl) for k in missing)

    chained = build_nsec_chain(stripped)
    del stripped  # its lookup tables are not needed while signing
    rrsigs = []
    for rrset in group_rrsets(chained.records):
        if not _is_signable(chained, rrset):
            continue
        if rrset.rtype == RType.DNSKEY:
            rrsigs.append(sign_rrset(rrset, ksk, policy, now))
            if policy.sign_dnskey_with_zsk:
                rrsigs.append(sign_rrset(rrset, zsk, policy, now))
        else:
            rrsigs.append(sign_rrset(rrset, zsk, policy, now))
    stats.signatures_generated = len(rrsigs)

    signed = Zone(chained.apex, chained.records + rrsigs)
    del chained  # nor are the chained copy's while self-verifying
    _self_verify(signed, (zsk.public, ksk.public), stats, now)
    stats.runtime_seconds = time.perf_counter() - started
    return SignedZone(signed, stats, [zsk.key_tag, ksk.key_tag])


def _self_verify(zone: Zone, keys: tuple[DnskeyRdata, ...],
                 stats: SigningStats, now: int) -> None:
    rrsets = {(s.owner, s.rtype): s
              for s in group_rrsets(r for r in zone.records
                                    if r.rtype != RType.RRSIG)}
    for record in zone.records:
        if record.rtype != RType.RRSIG:
            continue
        covered = rrsets.get((record.owner, record.rdata.type_covered))
        ok = covered is not None and any(
            verify_rrsig(covered, record.rdata, key, now) is SigCheck.VALID
            for key in keys)
        if ok:
            stats.signatures_verified += 1
        else:
            stats.signatures_failed += 1


def make_ds(child_apex: DnsName, ksk_rdata: DnskeyRdata, digest_type: int = 1,
            ttl: int = 86400) -> ResourceRecord:
    """The DS record a parent publishes for a child's KSK."""
    if ksk_rdata.flags != FLAGS_KSK:
        raise NotAKsk(f"DS must reference a KSK (flags {FLAGS_KSK})")
    digest = ds_digest(child_apex, ksk_rdata, digest_type)
    rdata = DsRdata(ksk_rdata.key_tag(), ksk_rdata.algorithm, digest_type, digest)
    return ResourceRecord(child_apex, RType.DS, 1, ttl, rdata)
