"""How long the resolver keeps what it caches, against an authority whose
TTLs are hostile. TTLs are not signed, so a validated RRset lives no longer
than the RRSIG that covers it allows (RFC 4035 §5.3.3), a negative answer no
longer than its SOA says (RFC 2308 §5), and nothing longer than
`MAX_CACHE_TTL` (RFC 8767 §4)."""

from dataclasses import replace

import pytest

from dnsseclab.keystore import TrustAnchor
from dnsseclab.message import Rcode, decode_message, encode_message
from dnsseclab.names import DnsName
from dnsseclab.netsim import SimNetwork, SimTransport
from dnsseclab.records import RType
from dnsseclab.resolver import (MAX_CACHE_TTL, MAX_NEGATIVE_TTL, RecursiveResolver,
                                ResolverConfig)
from dnsseclab.server import AuthoritativeService

from conftest import APEX, FIXED_NOW

AUTHORITY = "198.51.100.53"
WWW = DnsName.from_text("www.domaine.ma.")
NOWHERE = DnsName.from_text("nowhere.domaine.ma.")
HOSTILE_TTL = 2 ** 31 - 1


def _victim(zone, rewrite, anchor=None, start=float(FIXED_NOW)):
    """A resolver whose only server is `zone`'s authority, with every record
    of every reply passed through `rewrite` on the way."""
    network = SimNetwork(start_time=start)
    service = AuthoritativeService([zone])

    def hostile(wire, via_tcp):
        reply = decode_message(service.handle_wire(wire, via_tcp))
        for section in (reply.answers, reply.authority, reply.additional):
            section[:] = [rewrite(record) for record in section]
        return encode_message(reply)

    network.register(AUTHORITY, hostile)
    config = ResolverConfig(dnssec_enabled=anchor is not None,
                            anchors=(anchor,) if anchor else ())
    return network, RecursiveResolver([AUTHORITY], SimTransport(network, "192.0.2.10"),
                                      config=config, clock=network.clock)


def _raise_a_ttls(record):
    return replace(record, ttl=HOSTILE_TTL) if record.rtype == RType.A else record


def _lifetime(victim, network, qname, qtype=RType.A):
    entry = victim.cache.get((qname, qtype, 1), network.clock())
    return entry.expires_at - entry.inserted_at


def _expiration(zone, owner, covered):
    return min(r.rdata.expiration for r in zone.records_at(owner, RType.RRSIG)
               if r.rdata.type_covered == covered)


def test_unvalidated_entry_is_capped_at_max_cache_ttl(signed_zone):
    network, victim = _victim(signed_zone.zone, _raise_a_ttls)
    victim.resolve_name(WWW)
    assert _lifetime(victim, network, WWW) == MAX_CACHE_TTL
    cached = victim.resolve_name(WWW)
    assert all(MAX_CACHE_TTL - 1 <= r.ttl <= MAX_CACHE_TTL for r in cached.answers)


def test_secure_entry_lives_no_longer_than_the_rrsig_original_ttl(signed_zone, ksk):
    network, victim = _victim(signed_zone.zone, _raise_a_ttls, TrustAnchor(APEX, ksk.public))
    assert "ad" in victim.resolve_name(WWW, do=True).flags
    assert {r.rdata.original_ttl for r in signed_zone.zone.records_at(WWW, RType.RRSIG)
            if r.rdata.type_covered == RType.A} == {86400}
    assert _lifetime(victim, network, WWW) == 86400
    cached = victim.resolve_name(WWW, do=True)
    assert "ad" in cached.flags
    assert all(86400 - 1 <= r.ttl <= 86400 for r in cached.answers)


def test_secure_entry_and_ad_end_when_the_rrsig_expires(signed_zone, ksk):
    expiration = _expiration(signed_zone.zone, WWW, RType.A)
    network, victim = _victim(signed_zone.zone, _raise_a_ttls, TrustAnchor(APEX, ksk.public),
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
    network, victim = _victim(signed_zone.zone, lambda r: r, TrustAnchor(APEX, ksk.public),
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

    network, victim = _victim(fixture_zone, rewrite)
    assert victim.resolve_name(NOWHERE).rcode == Rcode.NXDOMAIN
    assert _lifetime(victim, network, NOWHERE) == expected
