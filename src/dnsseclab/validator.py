"""RRSIG verification, DS matching, chain-of-trust walking, and NSEC denial
proofs.

`validate_chain` walks the links from a trust anchor down to the answer:
anchor DNSKEY, then DS and child DNSKEY per delegation, then the answer.
Every link goes through one verification step, `_verified`, which returns
the key that validated the RRset with its records and RRSIGs, or raises
`_Bogus(reason)`; one handler in `validate_chain` turns that into the Bogus
outcome with the chain so far.
Signatures are checked only in `verify_rrsig`, and the validator calls it
only through `verify_with_any`.

A `SignatureMemo` remembers the signature checks that passed; a
`RecursiveResolver` owns one and hands it to every `validate_chain`, which
passes it down the walk. Only `verify_rrsig` reads or writes it, and only
after the key tag, algorithm, type, owner, label count and validity window
have been checked, so a remembered pass never outlives its RRSIG. Failed
checks are never remembered. `denied_rcode` is the one rule for what a
verified NSEC proves; `check_denial` and the resolver's answers from NSEC
gaps use it, and a negative answer is Secure only when the rcode it proves
is the response's and the SOA it carries verifies like any other RRset.

The walk gets each DNSKEY and DS RRset through its `fetch` callback, and
checks it against the anchor or DS however it came: a `RecursiveResolver`
answers it from the RRsets that earlier Secure walks verified, and its
signature memo passes those checks without public-key work.

`pick` is the one rule for the records of a reply that answer a question,
and `validate_chain` verifies exactly what it picks: the `answer`, or of a
denial, the NSEC `witnesses` and the `authority` they and the SOA RRset
make. A Secure `ValidationOutcome` carries them, and `links`, each DNSKEY
and DS RRset of the walk, as the response gave them, RRSIGs after the
records they cover. The resolver serves and caches the same pick of any
other reply, unverified.

Wildcards are out of scope: an NXDOMAIN proof here shows only the NSEC
that covers the qname, and `check_denial` does not check that a wildcard at
the closest encloser is denied too (RFC 4035 §5.4). The resolver's answers
from validated NSEC gaps (RFC 8198) share that restriction."""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from . import rsa
from .keystore import ALGORITHMS, TrustAnchor, decode_rsa_public
from .message import DnsMessage, Rcode
from .names import DnsName
from .records import (DnskeyRdata, DsRdata, NsecRdata, ResourceRecord, RRset, RrsigRdata,
                      RType, canonical_rrset_bytes, nsec_gap_covers, rrsigs_covering)

DS_DIGESTS = {1: "sha1", 2: "sha256"}
#: Most passed checks a `SignatureMemo` holds: as many as a resolver's
#: default cache holds entries.
MEMO_CAPACITY = 4096
#: RFC 6672; an NSEC proves nothing below a DNAME owner.
_DNAME = 39


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
    """`chain` holds the (zone, key tag) links that held; only a Secure outcome
    carries verified records, `links` as (owner, type, records) in walk order."""
    status: Security
    reason: Reason | None = None
    chain: tuple = ()
    answer: tuple = ()
    authority: tuple = ()
    witnesses: tuple = ()
    links: tuple = ()

    def __post_init__(self):
        if self.status is Security.BOGUS and self.reason is None:
            raise ValueError("Bogus outcomes need a reason")
        if self.status is not Security.SECURE:
            if self.answer or self.authority or self.witnesses or self.links:
                raise ValueError(f"{self.status.value} outcomes carry no verified records")
        elif bool(self.answer) == bool(self.witnesses) \
                or bool(self.authority) != bool(self.witnesses):
            raise ValueError("Secure outcomes carry an answer or a denial")


@dataclass(frozen=True)
class DenialOutcome:
    kind: Denial
    witness: tuple = ()
    rcode: int | None = None  # what the witness proves, by `denied_rcode`


# ---------------------------------------------------------------------------
# Signature verification
# ---------------------------------------------------------------------------

class SignatureMemo:
    """Signature checks that passed, least recently used first out, at most
    `MEMO_CAPACITY` of them. Lookups and inserts are atomic: a resolver
    validates from many threads."""

    def __init__(self):
        self._passed: OrderedDict[tuple, None] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._passed)

    def __contains__(self, check: tuple) -> bool:
        with self._lock:
            if check not in self._passed:
                return False
            self._passed.move_to_end(check)
            return True

    def add(self, check: tuple) -> None:
        with self._lock:
            self._passed[check] = None
            self._passed.move_to_end(check)
            while len(self._passed) > MEMO_CAPACITY:
                self._passed.popitem(last=False)


def verify_rrsig(rrset: RRset, sig: RrsigRdata, key: DnskeyRdata, now: int,
                 memo: SignatureMemo | None = None) -> SigCheck:
    """Check one RRSIG over an RRset under one DNSKEY at time `now`.

    The canonical form substitutes the RRSIG's original TTL for the live TTL,
    so cache-aged copies still verify. A check whose whole input (key RDATA,
    signature, signed data) already passed under `memo` is Valid without
    public-key work; a caller that passes no memo gets a fresh one.
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
    check = (key.to_wire(), sig.signature, hashlib.sha256(data).digest())
    memo = SignatureMemo() if memo is None else memo
    if check in memo:
        return SigCheck.VALID
    try:
        public = decode_rsa_public(key.public_key)
    except ValueError:
        return SigCheck.BAD_SIGNATURE
    if not rsa.verify(public, data, sig.signature, digest):
        return SigCheck.BAD_SIGNATURE
    memo.add(check)
    return SigCheck.VALID


#: How bad each failed check is; the worst one names the failure.
_SEVERITY = {SigCheck.WRONG_KEY: 0, SigCheck.NOT_YET_VALID: 1, SigCheck.EXPIRED: 2,
             SigCheck.BAD_SIGNATURE: 3}


def verify_with_any(rrset: RRset, sigs: list[RrsigRdata], keys: Sequence[DnskeyRdata],
                    now: int, memo: SignatureMemo | None = None,
                    ) -> tuple[SigCheck, DnskeyRdata | None]:
    """Try every (signature, tag-matching key) pair; Valid wins and names its
    key, else the worst failure is returned.

    Key tags collide by construction, so every matching key is attempted.
    """
    worst = SigCheck.WRONG_KEY
    for sig in sigs:
        for key in keys:
            result = verify_rrsig(rrset, sig, key, now, memo)
            if result is SigCheck.VALID:
                return result, key
            if _SEVERITY[result] > _SEVERITY[worst]:
                worst = result
    return worst, None


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

def denied_rcode(owner: DnsName, nsec: NsecRdata, qname: DnsName, qtype: int) -> int | None:
    """What a verified NSEC at `owner` proves about (qname, qtype), or None.

    At its owner, NOERROR unless the bitmap holds the type or CNAME; but a
    delegation's NSEC (NS without SOA) proves only DS absent, an apex NSEC
    never. Below a delegation or DNAME owner, nothing (RFC 4035 §5.4, RFC
    6840 §4.1). A gap that covers the qname, NXDOMAIN, or NOERROR when the
    next name lies below it (an empty non-terminal)."""
    types = nsec.type_bitmap
    delegation = RType.NS in types and RType.SOA not in types
    if owner == qname:
        if qtype in types or RType.CNAME in types or (
                RType.SOA in types if qtype == RType.DS else delegation):
            return None
        return Rcode.NOERROR
    if qname.is_subdomain_of(owner) and (delegation or _DNAME in types):
        return None
    if not nsec_gap_covers(owner.canonical_key(), nsec.next_name.canonical_key(),
                           qname.canonical_key()):
        return None
    return Rcode.NOERROR if nsec.next_name.is_subdomain_of(qname) else Rcode.NXDOMAIN


def check_denial(qname: DnsName, qtype: int,
                 nsec_witnesses: list[tuple[ResourceRecord, ResourceRecord]],
                 zone_keys: Sequence[DnskeyRdata], now: int,
                 memo: SignatureMemo | None = None) -> DenialOutcome:
    """Decide what validly signed NSEC witnesses prove about (qname, qtype).

    Every witness signature must verify; then the qname's own NSEC, else the
    first witness, proves by `denied_rcode` the type absent (at the owner) or
    the name absent (a gap that covers it), with the rcode it proves.
    """
    witness = None
    for nsec_record, sig_record in nsec_witnesses:
        rrset = RRset(nsec_record.owner, RType.NSEC, nsec_record.rclass,
                      nsec_record.ttl, (nsec_record.rdata,))
        result, _ = verify_with_any(rrset, [sig_record.rdata], zone_keys, now, memo)
        if result is not SigCheck.VALID:
            return DenialOutcome(Denial.INVALID_PROOF, (nsec_record,))
        if witness is None or (nsec_record.owner == qname and witness.owner != qname):
            witness = nsec_record
    if witness is None:
        return DenialOutcome(Denial.NO_PROOF)
    rcode = denied_rcode(witness.owner, witness.rdata, qname, qtype)
    kind = (Denial.NO_PROOF if rcode is None else Denial.TYPE_DOES_NOT_EXIST
            if witness.owner == qname else Denial.NAME_DOES_NOT_EXIST)
    return DenialOutcome(kind, (witness,), rcode)


# ---------------------------------------------------------------------------
# Chain of trust
# ---------------------------------------------------------------------------

class _Bogus(Exception):
    """A link of the chain failed; `validate_chain` turns it into the Bogus
    outcome."""

    def __init__(self, reason: Reason):
        super().__init__(reason.value)
        self.reason = reason


#: The Bogus reason for each failed signature check.
_SIG_REASONS = {SigCheck.WRONG_KEY: Reason.MISSING_DNSKEY,
                SigCheck.NOT_YET_VALID: Reason.NOT_YET_VALID,
                SigCheck.EXPIRED: Reason.EXPIRED,
                SigCheck.BAD_SIGNATURE: Reason.BAD_SIGNATURE}


def _closest_anchor(qname: DnsName, anchors: list[TrustAnchor]) -> TrustAnchor | None:
    best = None
    for anchor in anchors:
        if qname.is_subdomain_of(anchor.zone):
            if best is None or len(anchor.zone.labels) > len(best.zone.labels):
                best = anchor
    return best


class Picked(NamedTuple):
    """What `pick` finds; a Secure `ValidationOutcome` carries the same."""
    answer: tuple = ()
    authority: tuple = ()
    witnesses: tuple = ()


def pick(msg: DnsMessage, qname: DnsName, qtype: int) -> Picked:
    """The class-IN records of `msg` that answer (qname, qtype): the asked RRset
    at the qname, or the CNAME there, then its RRSIGs. Else a denial: the
    `witnesses`, each authority NSEC owning or covering the qname paired with
    each RRSIG over it, and the SOA RRset of the first SOA owner at or above
    the qname, with its RRSIGs, make the `authority` (in the reply's order)."""
    records = msg.records_of(qname, qtype) or msg.records_of(qname, RType.CNAME)
    if records:
        return Picked(answer=(*records, *rrsigs_covering(msg.answers, qname, records[0].rtype)))
    soa_type, nsec_type = RType.SOA, RType.NSEC  # looked up once, not per record
    authority, key = msg.authority, qname.canonical_key()
    witnesses = tuple([
        (nsec, sig) for nsec in authority
        if nsec.rtype == nsec_type and nsec.rclass == 1 and (
            nsec.owner == qname or nsec_gap_covers(
                nsec.owner.canonical_key(), nsec.rdata.next_name.canonical_key(), key))
        for sig in rrsigs_covering(authority, nsec.owner, nsec_type)])
    kept = {id(record) for witness in witnesses for record in witness}
    soa = next((r.owner for r in authority if r.rtype == soa_type
                and r.rclass == 1 and qname.is_subdomain_of(r.owner)), None)
    kept.update(map(id, rrsigs_covering(authority, soa, soa_type)))
    return Picked(authority=tuple([r for r in authority if id(r) in kept or (
        r.rtype == soa_type and r.rclass == 1 and r.owner == soa)]),
        witnesses=witnesses)


def _verified(records: list[ResourceRecord], rrset: RRset, section: list,
              keys: Sequence[DnskeyRdata], now: int,
              memo: SignatureMemo) -> tuple[DnskeyRdata, tuple]:
    """The one verification step of the walk: the key under which an RRSIG
    among the `section` records validates `rrset`, made of `records`, and
    those records followed by the RRSIGs over them; else raises `_Bogus`."""
    covering = rrsigs_covering(section, rrset.owner, rrset.rtype)
    result, key = verify_with_any(rrset, [r.rdata for r in covering], keys, now, memo)
    if result is not SigCheck.VALID:
        raise _Bogus(_SIG_REASONS[result])
    return key, (*records, *covering)


def _zone_keys(zone: DnsName, msg: DnsMessage, trusted: Callable[[DnskeyRdata], bool],
               mismatch: Reason, chain: list, links: list, now: int,
               memo: SignatureMemo) -> tuple[DnskeyRdata, ...]:
    """A zone's DNSKEY set, once a trusted key in it has signed it; the link
    (zone, tag of that key) joins `chain`, and the RRset joins `links`."""
    records = msg.records_of(zone, RType.DNSKEY)
    if not records:
        raise _Bogus(Reason.MISSING_DNSKEY)
    rrset = RRset.from_records(records)
    entry_keys = [key for key in rrset.rdatas if trusted(key)]
    if not entry_keys:
        raise _Bogus(mismatch)
    key, link = _verified(records, rrset, msg.answers, entry_keys, now, memo)
    chain.append((zone, key.key_tag()))
    links.append((zone, RType.DNSKEY, link))
    return rrset.rdatas


def validate_chain(response: DnsMessage, qname: DnsName, qtype: int,
                   anchors: list[TrustAnchor],
                   fetch: Callable[[DnsName, int], DnsMessage],
                   now: int, memo: SignatureMemo | None = None) -> ValidationOutcome:
    """Walk the chain of trust from the closest enclosing anchor down to the
    zone that signed the answer, then validate the answer itself (or, for a
    negative response, its NSEC denial).

    Secure needs every link to hold; Insecure means no anchor applies or a
    parent validly proves an unsigned delegation; anything broken is Bogus.
    A Secure outcome carries the records it verified: `answer`, or
    `authority` and `witnesses`, and `links`. Signature checks that passed
    are remembered in `memo`, a fresh one for this call when the caller
    passes none.
    """
    anchor = _closest_anchor(qname, anchors)
    if anchor is None:
        return ValidationOutcome(Security.INSECURE, Reason.NO_ANCHOR)
    fetch = _guarded(fetch)
    memo = SignatureMemo() if memo is None else memo
    chain: list[tuple[DnsName, int]] = []
    links: list[tuple[DnsName, int, tuple]] = []
    try:
        # Signed answers name their zone; otherwise walk the whole way to the
        # qname so an unsigned delegation en route can downgrade to Insecure.
        picked = pick(response, qname, qtype)
        target = next((r.rdata.signer_name for r in (*picked.answer, *picked.authority)
                       if r.rtype == RType.RRSIG), qname)
        if not target.is_subdomain_of(anchor.zone):
            raise _Bogus(Reason.ANCHOR_MISMATCH)
        keys = _zone_keys(anchor.zone, fetch(anchor.zone, RType.DNSKEY),
                          lambda key: key == anchor.dnskey, Reason.ANCHOR_MISMATCH,
                          chain, links, now, memo)
        # Descend through the suffixes of the signer zone below the anchor.
        for depth in range(len(anchor.zone.labels) + 1, len(target.labels) + 1):
            child = DnsName(target.labels[-depth:])
            ds_msg = fetch(child, RType.DS)
            ds_records = ds_msg.records_of(child, RType.DS)
            if ds_records:
                ds_rrset = RRset.from_records(ds_records)
                links.append((child, RType.DS, _verified(
                    ds_records, ds_rrset, ds_msg.answers, keys, now, memo)[1]))
                keys = _zone_keys(child, fetch(child, RType.DNSKEY),
                                  lambda key: any(match_ds(ds, key, child)
                                                  for ds in ds_rrset.rdatas),
                                  Reason.DS_MISMATCH, chain, links, now, memo)
                continue
            # No DS RRset: a validated NSEC must say whether this is a real
            # delegation (then insecure) or no cut at all (then keep walking).
            denial = check_denial(child, RType.DS, pick(ds_msg, child, RType.DS).witnesses,
                                  keys, now, memo)
            if denial.rcode is None:
                raise _Bogus(Reason.MISSING_DS_PROOF)
            if (denial.kind is Denial.TYPE_DOES_NOT_EXIST
                    and RType.NS in denial.witness[0].rdata.type_bitmap):
                return ValidationOutcome(Security.INSECURE, Reason.UNSIGNED_DELEGATION,
                                         tuple(chain))
        # The picked answer RRset; else a denial of the response's rcode, and its SOA.
        if not picked.answer and check_denial(qname, qtype, picked.witnesses, keys, now,
                                              memo).rcode != response.rcode:
            raise _Bogus(Reason.INVALID_DENIAL)
        section = picked.answer or picked.authority
        rtype = picked.answer[0].rtype if picked.answer else RType.SOA
        records = [r for r in section if r.rtype == rtype]
        if records:
            _verified(records, RRset.from_records(records), section, keys, now, memo)
    except _Bogus as bogus:
        return ValidationOutcome(Security.BOGUS, bogus.reason, tuple(chain))
    return ValidationOutcome(Security.SECURE, None, tuple(chain), *picked, tuple(links))

