"""RRSIG verification, DS matching, chain-of-trust walking, and NSEC denial
proofs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import rsa
from .keystore import ALGORITHMS, TrustAnchor, decode_rsa_public
from .message import DnsMessage
from .names import DnsName
from .records import (DnskeyRdata, DsRdata, ResourceRecord, RRset, RrsigRdata,
                      RType, canonical_rrset_bytes, nsec_gap_covers)

DS_DIGESTS = {1: "sha1", 2: "sha256"}


class UnsupportedDigest(ValueError):
    pass


class FetchFailure(Exception):
    """Transport-level failure inside the fetch callback; distinct from Bogus."""


def _guarded(fetch: Callable) -> Callable:
    def wrapped(name, rtype):
        try:
            return fetch(name, rtype)
        except FetchFailure:
            raise
        except Exception as exc:
            raise FetchFailure(f"fetching {name}/{rtype}: {exc}") from exc
    return wrapped


class SigCheck(Enum):
    VALID = "Valid"
    EXPIRED = "Expired"
    NOT_YET_VALID = "NotYetValid"
    BAD_SIGNATURE = "BadSignature"
    WRONG_KEY = "WrongKey"


class Security(Enum):
    SECURE = "Secure"
    INSECURE = "Insecure"
    BOGUS = "Bogus"


class Reason(Enum):
    NO_ANCHOR = "NoAnchor"
    ANCHOR_MISMATCH = "AnchorMismatch"
    DS_MISMATCH = "DsMismatch"
    MISSING_DNSKEY = "MissingDnskey"
    MISSING_DS_PROOF = "MissingDsProof"
    BAD_SIGNATURE = "BadSignature"
    EXPIRED = "Expired"
    NOT_YET_VALID = "NotYetValid"
    INVALID_DENIAL = "InvalidDenial"
    UNSIGNED_DELEGATION = "UnsignedDelegation"


class Denial(Enum):
    NAME_DOES_NOT_EXIST = "NameDoesNotExist"
    TYPE_DOES_NOT_EXIST = "TypeDoesNotExist"
    NO_PROOF = "NoProof"
    INVALID_PROOF = "InvalidProof"


@dataclass(frozen=True)
class ValidationOutcome:
    status: Security
    reason: Reason | None = None
    chain: tuple = ()

    def __post_init__(self):
        if self.status is Security.BOGUS and self.reason is None:
            raise ValueError("Bogus outcomes need a reason")


@dataclass(frozen=True)
class DenialOutcome:
    kind: Denial
    witness: tuple = ()


# ---------------------------------------------------------------------------
# Signature verification
# ---------------------------------------------------------------------------

def verify_rrsig(rrset: RRset, sig: RrsigRdata, key: DnskeyRdata,
                 now: int) -> SigCheck:
    """Check one RRSIG over an RRset under one DNSKEY at time `now`.

    The canonical form substitutes the RRSIG's original TTL for the live TTL,
    so cache-aged copies still verify.
    """
    if (sig.key_tag != key.key_tag() or sig.algorithm != key.algorithm
            or sig.type_covered != rrset.rtype
            or not rrset.owner.is_subdomain_of(sig.signer_name)):
        return SigCheck.WRONG_KEY
    if sig.labels > len(rrset.owner.labels):
        return SigCheck.WRONG_KEY
    if now < sig.inception:
        return SigCheck.NOT_YET_VALID
    if now > sig.expiration:
        return SigCheck.EXPIRED
    digest = ALGORITHMS.get(key.algorithm, (None, None, False))[1]
    if digest is None:
        return SigCheck.BAD_SIGNATURE
    data = sig.signed_prefix() + canonical_rrset_bytes(rrset, sig.original_ttl)
    try:
        public = decode_rsa_public(key.public_key)
    except ValueError:
        return SigCheck.BAD_SIGNATURE
    if rsa.verify(public, data, sig.signature, digest):
        return SigCheck.VALID
    return SigCheck.BAD_SIGNATURE


def verify_with_any(rrset: RRset, sigs: list[RrsigRdata], keys: list[DnskeyRdata],
                    now: int) -> tuple[SigCheck, RrsigRdata | None, DnskeyRdata | None]:
    """Try every (signature, tag-matching key) pair; Valid wins.

    Key tags collide by construction, so every matching key is attempted.
    """
    worst = SigCheck.WRONG_KEY
    order = (SigCheck.WRONG_KEY, SigCheck.NOT_YET_VALID, SigCheck.EXPIRED,
             SigCheck.BAD_SIGNATURE)
    for sig in sigs:
        for key in keys:
            result = verify_rrsig(rrset, sig, key, now)
            if result is SigCheck.VALID:
                return result, sig, key
            if order.index(result) > order.index(worst):
                worst = result
    return worst, None, None


def ds_digest(owner: DnsName, key: DnskeyRdata, digest_type: int) -> bytes:
    """Digest of the owner name concatenated with the DNSKEY RDATA."""
    algo = DS_DIGESTS.get(digest_type)
    if algo is None:
        raise UnsupportedDigest(f"digest type {digest_type}")
    return hashlib.new(algo, owner.canonical_wire() + key.canonical_wire()).digest()


def match_ds(ds: DsRdata, key: DnskeyRdata, owner: DnsName) -> bool:
    """True iff the DS commits to exactly this key at this owner."""
    if ds.key_tag != key.key_tag() or ds.algorithm != key.algorithm:
        return False
    if ds.digest_type not in DS_DIGESTS:
        return False
    return ds.digest == ds_digest(owner, key, ds.digest_type)


# ---------------------------------------------------------------------------
# Denial of existence
# ---------------------------------------------------------------------------

def check_denial(qname: DnsName, qtype: int,
                 nsec_witnesses: list[tuple[ResourceRecord, ResourceRecord]],
                 zone_keys: list[DnskeyRdata], now: int) -> DenialOutcome:
    """Decide what validly signed NSEC witnesses prove about (qname, qtype).

    Every witness signature must verify; then either the name is shown absent
    (it sorts inside a witness gap) or the type is shown absent (exact owner
    match with the type bit clear).
    """
    verified = []
    for nsec_record, sig_record in nsec_witnesses:
        rrset = RRset(nsec_record.owner, RType.NSEC, nsec_record.rclass,
                      nsec_record.ttl, (nsec_record.rdata,))
        result, _, _ = verify_with_any(rrset, [sig_record.rdata], zone_keys, now)
        if result is not SigCheck.VALID:
            return DenialOutcome(Denial.INVALID_PROOF, (nsec_record,))
        verified.append(nsec_record)
    for nsec_record in verified:
        if nsec_record.owner == qname:
            if qtype not in nsec_record.rdata.type_bitmap:
                return DenialOutcome(Denial.TYPE_DOES_NOT_EXIST, (nsec_record,))
            return DenialOutcome(Denial.NO_PROOF, (nsec_record,))
    key = qname.canonical_key()
    for nsec_record in verified:
        if nsec_gap_covers(nsec_record.owner.canonical_key(),
                           nsec_record.rdata.next_name.canonical_key(), key):
            return DenialOutcome(Denial.NAME_DOES_NOT_EXIST, (nsec_record,))
    return DenialOutcome(Denial.NO_PROOF)


# ---------------------------------------------------------------------------
# Chain of trust
# ---------------------------------------------------------------------------

def _sigs_covering(msg: DnsMessage, owner: DnsName, rtype: int) -> list[RrsigRdata]:
    return [r.rdata for r in msg.answers
            if r.rtype == RType.RRSIG and r.owner == owner
            and r.rdata.type_covered == rtype]


def _rrset_from(msg: DnsMessage, owner: DnsName, rtype: int) -> RRset | None:
    records = msg.records_of(owner, rtype)
    return RRset.from_records(records) if records else None


def _closest_anchor(qname: DnsName, anchors: list[TrustAnchor]) -> TrustAnchor | None:
    best = None
    for anchor in anchors:
        if qname.is_subdomain_of(anchor.zone):
            if best is None or len(anchor.zone.labels) > len(best.zone.labels):
                best = anchor
    return best


def nsec_witnesses(msg: DnsMessage) -> list[tuple[ResourceRecord, ResourceRecord]]:
    """Pair each NSEC in the authority section with its covering RRSIG; the
    response's authority section is where proof material travels."""
    pairs = []
    for record in msg.authority:
        if record.rtype != RType.NSEC:
            continue
        for sig in msg.authority:
            if (sig.rtype == RType.RRSIG and sig.owner == record.owner
                    and sig.rdata.type_covered == RType.NSEC):
                pairs.append((record, sig))
    return pairs


@dataclass
class _ZoneKeys:
    apex: DnsName
    keys: list
    entry_tag: int


def _validate_zone_keys(zone: DnsName, dnskey_msg: DnsMessage,
                        trusted: Callable[[DnskeyRdata], bool],
                        mismatch: Reason,
                        now: int) -> tuple[_ZoneKeys | None, Reason]:
    """Validate a zone's DNSKEY RRset: some trusted KSK in the set must sign it."""
    records = [r for r in dnskey_msg.answers
               if r.rtype == RType.DNSKEY and r.owner == zone]
    if not records:
        return None, Reason.MISSING_DNSKEY
    rrset = RRset.from_records(records)
    sigs = _sigs_covering(dnskey_msg, zone, RType.DNSKEY)
    entry_keys = [r.rdata for r in records if trusted(r.rdata)]
    if not entry_keys:
        return None, mismatch
    result, _, used = verify_with_any(rrset, sigs, entry_keys, now)
    if result is not SigCheck.VALID:
        return None, _reason_for(result)
    return _ZoneKeys(zone, [r.rdata for r in records], used.key_tag()), mismatch


def validate_chain(response: DnsMessage, qname: DnsName, qtype: int,
                   anchors: list[TrustAnchor],
                   fetch: Callable[[DnsName, int], DnsMessage],
                   now: int) -> ValidationOutcome:
    """Walk the chain of trust from the closest enclosing anchor down to the
    zone that signed the answer, then validate the answer itself (or, for a
    negative response, its NSEC denial).

    Secure needs every link to hold; Insecure means no anchor applies or a
    parent validly proves an unsigned delegation; anything broken is Bogus.
    """
    anchor = _closest_anchor(qname, anchors)
    if anchor is None:
        return ValidationOutcome(Security.INSECURE, Reason.NO_ANCHOR)
    fetch = _guarded(fetch)

    # Signed answers name their zone; otherwise walk the whole way to the
    # qname so an unsigned delegation en route can downgrade to Insecure.
    target_zone = _signer_zone(response, qname, qtype) or qname
    if not target_zone.is_subdomain_of(anchor.zone):
        return ValidationOutcome(Security.BOGUS, Reason.ANCHOR_MISMATCH)

    chain: list[tuple[DnsName, int]] = []
    zone_keys, failure = _validate_zone_keys(
        anchor.zone, fetch(anchor.zone, RType.DNSKEY),
        lambda key: key == anchor.dnskey, Reason.ANCHOR_MISMATCH, now)
    if zone_keys is None:
        return ValidationOutcome(Security.BOGUS, failure, tuple(chain))
    chain.append((anchor.zone, zone_keys.entry_tag))

    # Descend one label at a time from the anchor zone toward the signer zone.
    missing = target_zone.labels[: len(target_zone.labels) - len(anchor.zone.labels)]
    current = anchor.zone
    for label in reversed(missing):
        child = DnsName((label,) + current.labels)
        ds_msg = fetch(child, RType.DS)
        ds_rrset = _rrset_from(ds_msg, child, RType.DS)
        if ds_rrset is not None:
            ds_sigs = _sigs_covering(ds_msg, child, RType.DS)
            result, _, _ = verify_with_any(ds_rrset, ds_sigs, zone_keys.keys, now)
            if result is not SigCheck.VALID:
                return ValidationOutcome(Security.BOGUS, _reason_for(result),
                                         tuple(chain))
            child_keys, failure = _validate_zone_keys(
                child, fetch(child, RType.DNSKEY),
                lambda key, _ds=ds_rrset, _child=child: any(
                    match_ds(ds, key, _child) for ds in _ds.rdatas),
                Reason.DS_MISMATCH, now)
            if child_keys is None:
                return ValidationOutcome(Security.BOGUS, failure, tuple(chain))
            zone_keys = child_keys
            chain.append((child, child_keys.entry_tag))
            current = child
            continue
        # No DS RRset: a validated NSEC must say whether this is a real
        # delegation (then insecure) or no cut at all (then keep walking).
        denial = check_denial(child, RType.DS, nsec_witnesses(ds_msg),
                              zone_keys.keys, now)
        if denial.kind is Denial.TYPE_DOES_NOT_EXIST:
            witness = denial.witness[0]
            if RType.NS in witness.rdata.type_bitmap:
                return ValidationOutcome(Security.INSECURE,
                                         Reason.UNSIGNED_DELEGATION, tuple(chain))
            current = child  # same zone continues below this name
            continue
        if denial.kind is Denial.NAME_DOES_NOT_EXIST:
            current = child
            continue
        return ValidationOutcome(Security.BOGUS, Reason.MISSING_DS_PROOF,
                                 tuple(chain))

    answer_rrset = _rrset_from(response, qname, qtype)
    answer_type = qtype
    if answer_rrset is None and qtype != RType.CNAME:
        # answered with an alias instead of the asked type
        answer_rrset = _rrset_from(response, qname, RType.CNAME)
        answer_type = RType.CNAME
    if answer_rrset is None:
        denial = check_denial(qname, qtype, nsec_witnesses(response),
                              zone_keys.keys, now)
        if denial.kind in (Denial.NAME_DOES_NOT_EXIST, Denial.TYPE_DOES_NOT_EXIST):
            return ValidationOutcome(Security.SECURE, None, tuple(chain))
        return ValidationOutcome(Security.BOGUS, Reason.INVALID_DENIAL, tuple(chain))
    sigs = _sigs_covering(response, qname, answer_type)
    result, _, _ = verify_with_any(answer_rrset, sigs, zone_keys.keys, now)
    if result is not SigCheck.VALID:
        return ValidationOutcome(Security.BOGUS, _reason_for(result), tuple(chain))
    return ValidationOutcome(Security.SECURE, None, tuple(chain))


def _reason_for(result: SigCheck) -> Reason:
    return {
        SigCheck.EXPIRED: Reason.EXPIRED,
        SigCheck.NOT_YET_VALID: Reason.NOT_YET_VALID,
        SigCheck.WRONG_KEY: Reason.MISSING_DNSKEY,
    }.get(result, Reason.BAD_SIGNATURE)


def _signer_zone(response: DnsMessage, qname: DnsName, qtype: int) -> DnsName | None:
    """The zone that must vouch for this response, from its RRSIGs over the
    answer or an alias in its place (falling back to the authority SOA/NSEC
    signer for negative answers)."""
    for record in response.answers:
        if record.rtype == RType.RRSIG and record.owner == qname \
                and record.rdata.type_covered in (qtype, RType.CNAME):
            return record.rdata.signer_name
    for record in response.authority:
        if record.rtype == RType.RRSIG:
            return record.rdata.signer_name
    return None
