"""One admission rule for every upstream reply.

What a resolver serves or caches of a final reply is the validator's pick
of it (`validator.pick`): the asked RRset at the qname or the CNAME there,
or a denial's SOA RRset and the NSEC records that own or cover the qname,
with the RRSIGs over them; a Secure reply gives what the walk verified of
that pick, and any other reply, of the plain resolver or of a validating
one whose answer is Insecure, the same pick unverified. The reply is served
from the entry, so a fresh reply and a cached one agree, TTLs included, and
no TTL outlives its cap. Each tamper below, against each victim, leaves the
served records and the cache entries those of the untampered lookup; the
first, `_unsigned_rrset`, chains `www.bank.example. A` onto the reply, an
RRset for a name nobody asked about (name chaining, RFC 3833 §2.3)."""

from dataclasses import replace

import pytest

from dnsseclab.keystore import TrustAnchor
from dnsseclab.message import Edns, Question, Rcode, make_query
from dnsseclab.names import DnsName
from dnsseclab.records import ARdata, ResourceRecord, RType
from dnsseclab.resolver import MAX_CACHE_TTL, MAX_NEGATIVE_TTL
from dnsseclab.signer import SigningPolicy, sign_zone
from dnsseclab.zonefile import parse_zone_file

from conftest import APEX, FIXED_NOW, MA, PARENT_TEXT, ZONE_TEXT
from hostile import FORGED, HOSTILE_TTL, each_record, hostile_victim, untouched
from test_verified_records import _class3_rrsig, _second_soa_owner, _unsigned_rrset

#: The glue address of `ns.domaine.ma.` in the `ma.` zone's referral.
CHILD_AUTHORITY = "192.168.1.1"
WWW = DnsName.from_text("www.domaine.ma.")
NOWHERE = DnsName.from_text("nowhere.domaine.ma.")
PADDING = tuple(ResourceRecord(DnsName.from_text(f"pad{i}.domaine.ma."), RType.A, 1, 86400,
                               ARdata(f"203.0.{i // 256}.{i % 256}")) for i in range(2000))


@pytest.fixture(scope="module")
def victims(signed_zone, ksk, parent_zsk, parent_ksk):
    """Victim kind -> (hint zone, anchor, servers below): the signed
    reference zone without and with validation, and the unsigned reference
    zone delegated without a DS from a signed `ma.`, validated from there."""
    unsigned_delegation = sign_zone(parse_zone_file(PARENT_TEXT, MA), parent_zsk,
                                    parent_ksk, SigningPolicy(), FIXED_NOW).zone
    return {
        "plain": (signed_zone.zone, None, ()),
        "secure": (signed_zone.zone, TrustAnchor(APEX, ksk.public), ()),
        "insecure": (unsigned_delegation, TrustAnchor(MA, parent_ksk.public),
                     [(CHILD_AUTHORITY, parse_zone_file(ZONE_TEXT, APEX))]),
    }


def _padded(reply):
    reply.authority.extend(PADDING)


_raised_ttls = each_record(lambda record: replace(record, ttl=HOSTILE_TTL))


def _extra_rrset(reply):
    reply.answers.append(FORGED)



def _lookups(setup, tamper, qname):
    """The fresh reply to (qname, A) with DO, the cached one, and the cache
    entries, with `tamper` applied to the authoritative replies for it."""
    zone, anchor, below = setup

    def asked(reply):
        if "aa" in reply.flags and (reply.question.name, reply.question.qtype) == (
                qname, RType.A):
            tamper(reply)

    network, victim = hostile_victim(zone, asked, anchor, below=below)
    fresh = victim.resolve_name(qname, do=True)
    sent = network.transactions
    cached = victim.resolve_name(qname, do=True)
    assert network.transactions == sent
    return fresh, cached, victim.cache.entries()


def _records(records, ttl=False):
    return [(r.owner, r.rtype, r.rclass, r.rdata, *((r.ttl,) if ttl else ()))
            for r in records]


def _served(reply, ttl=False):
    return (reply.rcode, reply.flags, _records(reply.answers, ttl),
            _records(reply.authority, ttl))


def _entries(entries):
    """Each entry's key, security, rcode and records, TTLs aside."""
    return {entry.key: (entry.security, entry.negative and entry.negative.rcode,
                        _records((*(entry.rrset.records() if entry.rrset else ()),
                                  *entry.rrsigs,
                                  *(entry.negative.authority if entry.negative else ()))))
            for entry in entries}


@pytest.mark.parametrize("kind", ["plain", "secure", "insecure"])
@pytest.mark.parametrize("tamper, qname", [
    (_unsigned_rrset, WWW), (_unsigned_rrset, NOWHERE), (_padded, NOWHERE),
    (_raised_ttls, WWW), (_raised_ttls, NOWHERE), (_extra_rrset, NOWHERE),
    (_class3_rrsig, WWW), (_second_soa_owner, NOWHERE),
], ids=["chained", "chained-negative", "padded", "raised-ttls", "raised-negative-ttls",
        "extra-rrset", "class3-rrsig", "second-soa-owner"])
def test_a_tampered_reply_is_served_and_cached_as_the_genuine_one(victims, kind, tamper,
                                                                  qname):
    honest_fresh, honest_cached, honest_entries = _lookups(victims[kind], untouched, qname)
    fresh, cached, entries = _lookups(victims[kind], tamper, qname)
    assert ("ad" in fresh.flags) == (kind == "secure")
    assert _served(fresh) == _served(cached) == _served(honest_fresh) == _served(honest_cached)
    assert _served(fresh, ttl=True) == _served(cached, ttl=True)
    assert _entries(entries) == _entries(honest_entries)
    cap = MAX_CACHE_TTL if fresh.answers else MAX_NEGATIVE_TTL
    assert all(r.ttl <= cap for r in fresh.answers + fresh.authority)
    if tamper is _padded:
        [entry] = [e for e in entries if e.key == (NOWHERE, RType.A, 1)]
        assert len(fresh.authority) == len(entry.negative.authority) <= 4


@pytest.mark.parametrize("kind", ["plain", "secure", "insecure"])
def test_a_query_of_another_class_is_refused_without_a_lookup(victims, kind):
    """Only class IN is resolved: a class-3 (CH) question is REFUSED before
    the cache or any upstream query, even after the class-IN lookup of the
    same name and type."""
    zone, anchor, below = victims[kind]
    network, victim = hostile_victim(zone, anchor=anchor, below=below)
    chaos = replace(make_query(WWW, RType.A, id=7, rd=True, edns=Edns(do=True)),
                    questions=[Question(WWW, RType.A, 3)])
    for _ in range(2):
        reply = victim.resolve(chaos)
        assert (reply.rcode, reply.answers, reply.authority) == (Rcode.REFUSED, [], [])
        assert "ad" not in reply.flags
        assert network.transactions == 0 and victim.cache.entries() == []
    assert victim.resolve_name(WWW, do=True).answers
    sent = network.transactions
    assert victim.resolve(chaos).rcode == Rcode.REFUSED
    assert network.transactions == sent
