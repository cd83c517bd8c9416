"""Answers from validated NSEC gaps (RFC 8198).

A validating resolver keeps the NSEC witnesses of each Secure negative
answer, with their RRSIGs and the SOA, and answers a later lookup of a name
inside one of those gaps itself: NXDOMAIN when the gap covers the name,
NODATA when the name owns the NSEC without the type, or when the gap's next
name lies below it (an empty non-terminal), always with AD and no upstream
query; a delegation's own NSEC denies only its DS. The table learns one
proof, then asks for another name: a synthesized reply equals the
authority's in rcode and in its NSEC and SOA records, carries AD like a
fresh validated reply, and no TTL in it outlives the gap. Every other row
must go upstream."""

import sys
import threading
from dataclasses import replace

import pytest

from dnsseclab.keystore import KeyRole, TrustAnchor, generate_key
from dnsseclab.message import DnsMessage, Edns, Rcode, make_query
from dnsseclab.names import DnsName
from dnsseclab.records import NsecRdata, ResourceRecord, RRset, RType
from dnsseclab.resolver import MAX_NEGATIVE_TTL, Cache, CacheEntry
from dnsseclab.validator import Security
from dnsseclab.server import answer_authoritative
from dnsseclab.signer import SigningPolicy, sign_zone
from dnsseclab.zonefile import parse_zone_file

from conftest import APEX, FIXED_NOW, ZONE_TEXT
from hostile import SUB, SUB_AUTHORITY, SUB_TEXT as CHILD_TEXT, hostile_victim

#: The reference zone with an empty non-terminal (`deep`) and an unsigned
#: delegation (`sub`, no DS) to a child that is signed but has no anchor.
PARENT_TEXT = ZONE_TEXT + ("x.deep\tIN\tA\t192.168.1.30\n"
                           "sub\tIN\tNS\tns.sub\nns.sub\tIN\tA\t192.168.1.40\n")
#: Seconds between learning a proof and asking the next name.
LATER = 1000


def _keys(zone, seed):
    return [generate_key(zone, role, bits=512, rng=seed + i, now=FIXED_NOW)
            for i, role in enumerate((KeyRole.ZSK, KeyRole.KSK))]


@pytest.fixture(scope="module")
def zones():
    parent_keys, child_keys = _keys(APEX, 90), _keys(SUB, 92)
    parent = sign_zone(parse_zone_file(PARENT_TEXT, APEX), *parent_keys,
                       SigningPolicy(), FIXED_NOW).zone
    child = sign_zone(parse_zone_file(CHILD_TEXT, SUB), *child_keys,
                      SigningPolicy(), FIXED_NOW).zone
    return parent, child, TrustAnchor(APEX, parent_keys[1].public)


def _name(text):
    return DnsName.from_text(text, APEX)


def _gap_victim(zones, validation=True, **kwargs):
    """A hostile victim whose only hint is the parent's authority, with the
    child's below it; it validates under the parent's anchor unless
    `validation` is off."""
    parent, child, anchor = zones
    return hostile_victim(parent, anchor=anchor if validation else None,
                          below=[(SUB_AUTHORITY, child)], **kwargs)


def _proof(reply):
    """The NSEC and SOA records of a reply's authority section, with their
    RRSIGs, TTLs aside."""
    return {(r.owner, r.rtype, r.rdata) for r in reply.authority}


@pytest.mark.parametrize("learned, asked, rcode", [
    (("nowhere", RType.A), ("nobody", RType.A), Rcode.NXDOMAIN),
    (("www", RType.MX), ("www", RType.TXT), Rcode.NOERROR),
    (("a", RType.A), ("deep", RType.A), Rcode.NOERROR),
    (("a", RType.A), ("c", RType.TXT), Rcode.NXDOMAIN),
    (("t", RType.A), ("sub", RType.DS), Rcode.NOERROR),
], ids=["nxdomain", "nodata", "empty-non-terminal", "nxdomain-other-type",
        "ds-at-delegation"])
def test_a_name_inside_a_validated_gap_is_answered_without_a_query(zones, learned,
                                                                   asked, rcode):
    network, victim = _gap_victim(zones)
    learned_at = network.clock()
    first = victim.resolve_name(_name(learned[0]), learned[1], do=True)
    assert "ad" in first.flags
    network.advance(LATER)
    sent = network.transactions
    synthesized = victim.resolve_name(_name(asked[0]), asked[1], do=True)
    assert network.transactions == sent

    query = make_query(_name(asked[0]), asked[1], edns=Edns(do=True))
    authority = answer_authoritative(query, [zones[0]])
    _, fresh_victim = _gap_victim(zones)
    fresh = fresh_victim.resolve_name(_name(asked[0]), asked[1], do=True)
    assert synthesized.rcode == authority.rcode == fresh.rcode == rcode
    assert synthesized.flags == fresh.flags and "ad" in synthesized.flags
    assert not synthesized.answers
    assert _proof(synthesized) == _proof(authority) == _proof(fresh)
    assert {r.rtype for r in synthesized.authority} == {RType.SOA, RType.NSEC, RType.RRSIG}
    remaining = learned_at + MAX_NEGATIVE_TTL - network.clock()
    assert max(r.ttl for r in synthesized.authority) == int(remaining)


def _clear(network, victim):
    victim.cache.clear()


def _expire(network, victim):
    network.advance(MAX_NEGATIVE_TTL - LATER + 1)


@pytest.mark.parametrize("validation, learned, asked, between", [
    (False, ("nowhere", RType.A), ("nobody", RType.A), None),
    (True, ("nowhere.sub", RType.A), ("nobody.sub", RType.A), None),
    (True, ("sub", RType.DS), ("x.sub", RType.A), None),
    (True, ("sub", RType.DS), ("sub", RType.TXT), None),
    (True, ("a", RType.A), ("domaine.ma.", RType.DS), None),
    (True, ("fz", RType.A), ("ftp", RType.MX), None),
    (True, ("nowhere", RType.A), ("nobody", RType.A), _expire),
    (True, ("nowhere", RType.A), ("nobody", RType.A), _clear),
], ids=["plain", "insecure-child", "below-delegation", "at-delegation", "ds-at-apex",
        "cname-owner", "expired", "cleared"])
def test_no_answer_is_synthesized_where_the_gap_does_not_apply(zones, validation, learned,
                                                               asked, between):
    network, victim = _gap_victim(zones, validation)
    first = victim.resolve_name(_name(learned[0]), learned[1], do=True)
    assert first.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN)
    network.advance(LATER)
    if between is not None:
        between(network, victim)
    sent = network.transactions
    victim.resolve_name(_name(asked[0]), asked[1], do=True)
    assert network.transactions > sent


def test_a_bogus_proof_stores_no_gap(zones):
    """A flipped bit in the SOA's RRSIG makes the NXDOMAIN Bogus: the client
    gets SERVFAIL, and a name in the same gap still goes upstream."""
    def corrupt(reply):
        if reply.question.name != _name("nowhere"):
            return
        for i, record in enumerate(reply.authority):
            if record.rtype == RType.RRSIG and record.rdata.type_covered == RType.SOA:
                signature = bytes([record.rdata.signature[0] ^ 1]) + record.rdata.signature[1:]
                reply.authority[i] = replace(record, rdata=replace(record.rdata,
                                                                   signature=signature))

    network, victim = _gap_victim(zones, tamper=corrupt)
    assert victim.resolve_name(_name("nowhere"), do=True).rcode == Rcode.SERVFAIL
    sent = network.transactions
    reply = victim.resolve_name(_name("nobody"), do=True)
    assert network.transactions > sent
    assert reply.rcode == Rcode.NXDOMAIN and "ad" in reply.flags


def test_a_gap_lives_no_longer_than_its_nsec_ttl(zones):
    """RFC 9077 §3: the NSEC's own TTL caps the gap, even where the SOA lets
    the negative entry for the asked name live longer."""
    def short_nsec(reply):
        reply.authority[:] = [replace(r, ttl=60) if r.rtype == RType.NSEC else r
                              for r in reply.authority]

    network, victim = _gap_victim(zones, tamper=short_nsec)
    victim.resolve_name(_name("nowhere"), do=True)
    network.advance(61)
    sent = network.transactions
    victim.resolve_name(_name("nowhere"), do=True)
    assert network.transactions == sent
    victim.resolve_name(_name("nobody"), do=True)
    assert network.transactions == sent + 1


def test_the_gap_index_never_exceeds_the_cache_capacity(zones):
    """Four distinct gaps through a cache of two: the index holds at most
    two, the latest one still answers, and the first one learned is gone."""
    cache = Cache(capacity=2)
    network, victim = _gap_victim(zones, cache=cache)
    for learned in ("nowhere", "a", "ns3", "zz"):
        assert victim.resolve_name(_name(learned), do=True).rcode == Rcode.NXDOMAIN
        assert len(cache._gaps) <= cache.capacity
    assert len(cache._gaps) == cache.capacity
    sent = network.transactions
    victim.resolve_name(_name("zzz"), do=True)
    assert network.transactions == sent
    victim.resolve_name(_name("nobody"), do=True)
    assert network.transactions > sent


def test_the_gap_index_stays_consistent_under_concurrent_use():
    """Six threads store and look up gaps in one cache of eight. Every gap
    stored is new, so exactly eight stay, and each zone's sorted owners are
    exactly the owners of the gaps held: a lost update would break either."""
    cache, now = Cache(capacity=8), float(FIXED_NOW)

    def gap(owner):
        nsec = ResourceRecord(owner, RType.NSEC, 1, 300,
                              NsecRdata(_name("zz"), frozenset({RType.A})))
        return CacheEntry(key=(owner, RType.NSEC, 1), rrset=RRset.from_records([nsec]),
                          expires_at=now + 300, security=Security.SECURE,
                          negative=DnsMessage())

    errors = []

    def worker(index):
        try:
            for j in range(200):
                cache.put_gap(APEX, gap(_name(f"t{index}-{j}")), now)
                cache.gap(_name(f"t{(index + 1) % 6}-{j}"), now)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cache._gaps) == cache.capacity
    assert cache._gap_owners[APEX] == sorted(owner for _, owner in cache._gaps)
