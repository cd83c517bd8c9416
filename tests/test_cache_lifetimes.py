"""What the resolver keeps and for how long, against a hostile authority.
TTLs are not signed, so a validated RRset lives no longer than the RRSIG
that covers it allows (RFC 4035 §5.3.3), a negative answer no longer than
its SOA says (RFC 2308 §5), and nothing, referral data included, longer than
`MAX_CACHE_TTL` (RFC 8767 §4). The DNSKEY RRset a validating walk verified is
cached by the same rule, and only an RRset the walk verified is served with
AD or cached as Secure (RFC 4035 §3.2.3)."""

from dataclasses import replace

import pytest

from dnsseclab.keystore import TrustAnchor
from dnsseclab.message import Rcode
from dnsseclab.names import DnsName
from dnsseclab.records import ARdata, RType
from dnsseclab.resolver import MAX_CACHE_TTL, MAX_NEGATIVE_TTL
from dnsseclab.validator import Security

from conftest import APEX
from hostile import (FORGED, HOSTILE_TTL, MAIL, each_record, hostile_victim, raising_ttls,
                     untouched)

#: The glue address of `ns.domaine.ma.` in the parent zone's referral.
CHILD_AUTHORITY = "192.168.1.1"
WWW = DnsName.from_text("www.domaine.ma.")
NOWHERE = DnsName.from_text("nowhere.domaine.ma.")
NS = DnsName.from_text("ns.domaine.ma.")


def _lifetime(victim, network, qname, qtype=RType.A):
    entry = victim.cache.get((qname, qtype, 1), network.clock())
    return entry.expires_at - entry.inserted_at


def _expiration(zone, owner, covered):
    return min(r.rdata.expiration for r in zone.records_at(owner, RType.RRSIG)
               if r.rdata.type_covered == covered)


def test_unvalidated_entry_is_capped_at_max_cache_ttl(signed_zone):
    network, victim = hostile_victim(signed_zone.zone, raising_ttls(RType.A))
    victim.resolve_name(WWW)
    assert _lifetime(victim, network, WWW) == MAX_CACHE_TTL
    cached = victim.resolve_name(WWW)
    assert all(MAX_CACHE_TTL - 1 <= r.ttl <= MAX_CACHE_TTL for r in cached.answers)


def test_secure_entry_lives_no_longer_than_the_rrsig_original_ttl(signed_zone, ksk):
    network, victim = hostile_victim(signed_zone.zone, raising_ttls(RType.A),
                                     TrustAnchor(APEX, ksk.public))
    assert "ad" in victim.resolve_name(WWW, do=True).flags
    assert {r.rdata.original_ttl for r in signed_zone.zone.records_at(WWW, RType.RRSIG)
            if r.rdata.type_covered == RType.A} == {86400}
    assert _lifetime(victim, network, WWW) == 86400
    cached = victim.resolve_name(WWW, do=True)
    assert "ad" in cached.flags
    assert all(86400 - 1 <= r.ttl <= 86400 for r in cached.answers)


def test_secure_entry_and_ad_end_when_the_rrsig_expires(signed_zone, ksk):
    expiration = _expiration(signed_zone.zone, WWW, RType.A)
    network, victim = hostile_victim(signed_zone.zone, raising_ttls(RType.A),
                                     TrustAnchor(APEX, ksk.public),
                                     start=expiration - 1000.0)
    assert "ad" in victim.resolve_name(WWW, do=True).flags
    assert _lifetime(victim, network, WWW) <= 1000
    network.advance(999)
    assert "ad" in victim.resolve_name(WWW, do=True).flags
    sent = network.transactions
    network.advance(2)  # the RRSIG has expired
    late = victim.resolve_name(WWW, do=True)
    assert network.transactions > sent  # not answered from the cache
    assert "ad" not in late.flags and late.rcode == Rcode.SERVFAIL


def test_secure_negative_entry_ends_when_its_rrsigs_expire(signed_zone, ksk):
    expiration = _expiration(signed_zone.zone, APEX, RType.SOA)
    network, victim = hostile_victim(signed_zone.zone, untouched,
                                     TrustAnchor(APEX, ksk.public),
                                     start=expiration - 100.0)
    reply = victim.resolve_name(NOWHERE, do=True)
    assert reply.rcode == Rcode.NXDOMAIN and "ad" in reply.flags
    assert _lifetime(victim, network, NOWHERE) <= 100


@pytest.mark.parametrize("soa_ttl, minimum, expected", [
    (HOSTILE_TTL, HOSTILE_TTL, MAX_NEGATIVE_TTL),
    (300, HOSTILE_TTL, 300),
    (HOSTILE_TTL, 120, 120),
], ids=["max-negative-ttl", "soa-ttl", "soa-minimum"])
def test_negative_entry_is_capped_by_the_soa_and_max_negative_ttl(fixture_zone, soa_ttl,
                                                                   minimum, expected):
    def rewrite(record):
        if record.rtype != RType.SOA:
            return record
        return replace(record, ttl=soa_ttl, rdata=replace(record.rdata, minimum=minimum))

    network, victim = hostile_victim(fixture_zone, each_record(rewrite))
    assert victim.resolve_name(NOWHERE).rcode == Rcode.NXDOMAIN
    assert _lifetime(victim, network, NOWHERE) == expected


def test_referral_ns_and_glue_are_capped_at_max_cache_ttl(signed_zone, parent_zone_signed):
    network, victim = hostile_victim(parent_zone_signed.zone, raising_ttls(RType.NS, RType.A),
                                     below=[(CHILD_AUTHORITY, signed_zone.zone)])
    assert victim.resolve_name(WWW).rcode == Rcode.NOERROR
    assert _lifetime(victim, network, APEX, RType.NS) == MAX_CACHE_TTL
    assert _lifetime(victim, network, NS) == MAX_CACHE_TTL


def test_cached_dnskey_lives_no_longer_than_its_rrsig_original_ttl(signed_zone, ksk):
    network, victim = hostile_victim(signed_zone.zone, raising_ttls(RType.DNSKEY),
                                     TrustAnchor(APEX, ksk.public))
    assert "ad" in victim.resolve_name(WWW, do=True).flags
    assert {r.rdata.original_ttl for r in signed_zone.zone.records_at(APEX, RType.RRSIG)
            if r.rdata.type_covered == RType.DNSKEY} == {86400}
    entry = victim.cache.get((APEX, RType.DNSKEY, 1), network.clock())
    assert entry.security is Security.SECURE
    assert _lifetime(victim, network, APEX, RType.DNSKEY) == 86400


def test_cached_dnskey_ends_when_its_rrsig_expires(signed_zone, ksk):
    """Until its RRSIG expires, the DNSKEY comes from the cache and a lookup
    is one transaction; after, it is fetched again, found expired, and the
    lookup fails."""
    expiration = _expiration(signed_zone.zone, APEX, RType.DNSKEY)
    assert _expiration(signed_zone.zone, MAIL, RType.A) >= expiration
    network, victim = hostile_victim(signed_zone.zone, untouched,
                                     TrustAnchor(APEX, ksk.public),
                                     start=expiration - 1000.0)
    assert "ad" in victim.resolve_name(WWW, do=True).flags
    assert _lifetime(victim, network, APEX, RType.DNSKEY) <= 1000
    network.advance(999)
    sent = network.transactions
    assert "ad" in victim.resolve_name(MAIL, do=True).flags
    assert network.transactions == sent + 1
    network.advance(2)  # the DNSKEY's RRSIG has expired
    sent = network.transactions
    late = victim.resolve_name(NOWHERE, do=True)
    assert network.transactions == sent + 2  # the query and the DNSKEY fetch
    assert "ad" not in late.flags and late.rcode == Rcode.SERVFAIL
    assert victim.cache.get((APEX, RType.DNSKEY, 1), network.clock()) is None


@pytest.mark.parametrize("tampered, qname, rcode", [
    ((WWW, RType.A), WWW, Rcode.NOERROR),
    ((NOWHERE, RType.A), NOWHERE, Rcode.NXDOMAIN),
    ((APEX, RType.DNSKEY), WWW, Rcode.NOERROR),
], ids=["positive", "nxdomain", "dnskey-fetch"])
def test_unsigned_extra_answer_is_neither_served_with_ad_nor_cached(signed_zone, ksk,
                                                                    tampered, qname, rcode):
    """An unsigned RRset for another name rides in the answer section of a
    validated reply, or of the DNSKEY reply the walk fetches. The NXDOMAIN
    case replays only the zone's public SOA and NSEC proof, so an off-path
    attacker who wins the id race can send it."""
    def tamper(reply):
        if (reply.question.name, reply.question.qtype) == tampered:
            reply.answers.append(FORGED)

    network, victim = hostile_victim(signed_zone.zone, tamper,
                                     TrustAnchor(APEX, ksk.public))
    first = victim.resolve_name(qname, do=True)
    assert first.rcode == rcode and "ad" in first.flags
    assert FORGED.rdata not in [r.rdata for r in first.answers]
    assert victim.cache.get((MAIL, RType.A, 1), network.clock()) is None
    sent = network.transactions
    later = victim.resolve_name(MAIL, do=True)
    assert network.transactions > sent
    assert [r.rdata for r in later.answers if r.rtype == RType.A] == [ARdata("192.168.1.20")]


def test_other_class_copy_of_an_answer_record_is_neither_served_nor_cached(signed_zone, ksk):
    """A class-3 copy of one of the signed A records rides in the answer
    section. The resolver asks only for class IN, so the walk verifies the
    IN RRset alone instead of failing on a set of mixed classes."""
    def tamper(reply):
        if (reply.question.name, reply.question.qtype) == (WWW, RType.A):
            first = next(r for r in reply.answers if r.rtype == RType.A)
            reply.answers.append(replace(first, rclass=3))

    network, victim = hostile_victim(signed_zone.zone, tamper,
                                     TrustAnchor(APEX, ksk.public))
    reply = victim.resolve_name(WWW, do=True)
    assert reply.rcode == Rcode.NOERROR and "ad" in reply.flags
    served = [r for r in reply.answers if r.rtype == RType.A]
    assert sorted(r.rdata.address for r in served) == sorted(
        r.rdata.address for r in signed_zone.zone.records_at(WWW, RType.A))
    assert {r.rclass for r in served} == {1}
    assert victim.cache.get((WWW, RType.A, 3), network.clock()) is None


def test_plain_resolver_neither_serves_nor_caches_another_class(fixture_zone):
    """Without validation nothing checks the answer's records, so the class
    is checked where they are served and cached: a class-3 copy of a
    `www.domaine.ma. A` record reaches neither the client nor the cache."""
    def tamper(reply):
        if (reply.question.name, reply.question.qtype) == (WWW, RType.A):
            reply.answers.append(replace(reply.answers[0], rclass=3))

    network, victim = hostile_victim(fixture_zone, tamper)
    reply = victim.resolve_name(WWW)
    assert reply.rcode == Rcode.NOERROR
    assert sorted(r.rdata.address for r in reply.answers) == sorted(
        r.rdata.address for r in fixture_zone.records_at(WWW, RType.A))
    assert {r.rclass for r in reply.answers} == {1}
    assert victim.cache.get((WWW, RType.A, 3), network.clock()) is None
    entry = victim.cache.get((WWW, RType.A, 1), network.clock())
    assert entry is not None and len(entry.rrset.rdatas) == 2


def test_other_class_copy_of_an_answer_rrsig_is_neither_served_nor_cached(signed_zone, ksk):
    """A class-3 copy of the RRSIG over the A RRset keeps its RDATA, so it
    would verify against the IN RRset; only class-IN RRSIGs cover it."""
    def tamper(reply):
        if (reply.question.name, reply.question.qtype) == (WWW, RType.A):
            sig = next(r for r in reply.answers if r.rtype == RType.RRSIG)
            reply.answers.append(replace(sig, rclass=3))

    network, victim = hostile_victim(signed_zone.zone, tamper,
                                     TrustAnchor(APEX, ksk.public))
    reply = victim.resolve_name(WWW, do=True)
    assert reply.rcode == Rcode.NOERROR and "ad" in reply.flags
    assert {r.rclass for r in reply.answers} == {1}
    entry = victim.cache.get((WWW, RType.A, 1), network.clock())
    assert entry is not None and entry.rrsigs
    assert {r.rclass for r in entry.rrsigs} == {1}


def test_unsigned_extra_authority_record_is_neither_served_with_ad_nor_cached(signed_zone,
                                                                              ksk):
    """The walk verifies a negative answer's NSEC witnesses and SOA; an
    unsigned record appended to the authority section of the NXDOMAIN is
    none of them, so neither the fresh reply nor the cached one keeps it."""
    def tamper(reply):
        if reply.question.name == NOWHERE:
            reply.authority.append(FORGED)

    network, victim = hostile_victim(signed_zone.zone, tamper,
                                     TrustAnchor(APEX, ksk.public))
    fresh = victim.resolve_name(NOWHERE, do=True)
    sent = network.transactions
    cached = victim.resolve_name(NOWHERE, do=True)
    assert network.transactions == sent
    for reply in (fresh, cached):
        assert reply.rcode == Rcode.NXDOMAIN and "ad" in reply.flags
        assert FORGED.rdata not in [r.rdata for r in reply.authority]
        assert {r.rtype for r in reply.authority} == {RType.SOA, RType.NSEC, RType.RRSIG}
    assert victim.cache.get((MAIL, RType.A, 1), network.clock()) is None


def test_corrupted_soa_signature_fails_validation(signed_zone, ksk):
    """The SOA of a negative answer is checked like its NSEC witnesses: a
    flipped bit in its RRSIG makes the answer Bogus, so the client gets
    SERVFAIL and nothing is cached."""
    def corrupt(record):
        if record.rtype != RType.RRSIG or record.rdata.type_covered != RType.SOA:
            return record
        signature = record.rdata.signature
        flipped = bytes([signature[0] ^ 1]) + signature[1:]
        return replace(record, rdata=replace(record.rdata, signature=flipped))

    network, victim = hostile_victim(signed_zone.zone, each_record(corrupt),
                                     TrustAnchor(APEX, ksk.public))
    reply = victim.resolve_name(NOWHERE, do=True)
    assert reply.rcode == Rcode.SERVFAIL and "ad" not in reply.flags
    assert victim.cache.get((NOWHERE, RType.A, 1), network.clock()) is None
