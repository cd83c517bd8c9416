"""Empty non-terminals answer NODATA, not NXDOMAIN.

A zone holding `x.b.c.ent.test.` also holds the names `c.ent.test.` and
`b.c.ent.test.`, which own no records (RFC 4592 §2.2.2). A query for one of
them gets NOERROR with the SOA and, under DNSSEC, the NSEC that covers it
(RFC 8020 §2); a validating resolver answers NOERROR with AD, and the same
proof under a rewritten NXDOMAIN is Bogus."""

from dataclasses import replace

import pytest

from dnsseclab.keystore import KeyRole, TrustAnchor, generate_key
from dnsseclab.message import Edns, Rcode, make_query
from dnsseclab.names import ROOT, DnsName
from dnsseclab.netsim import SimNetwork, SimTransport
from dnsseclab.records import RType
from dnsseclab.resolver import RecursiveResolver, ResolverConfig
from dnsseclab.server import AuthoritativeService, answer_authoritative
from dnsseclab.signer import SigningPolicy, sign_zone
from dnsseclab.validator import Reason, Security, validate_chain
from dnsseclab.zonefile import parse_zone_file

from conftest import FIXED_NOW, make_fetcher

ORIGIN = DnsName.from_text("ent.test.")
ZONE_TEXT = ("$TTL 300\n@ IN SOA ns hostmaster 1 3600 900 604800 300\n"
             "@ IN NS ns\nns IN A 10.0.0.5\nx.b.c IN A 10.0.0.6\n")
ROOT_TEXT = ("$TTL 300\n. IN SOA a.root. admin.root. 1 3600 900 604800 300\n"
             ". IN NS a.root.\na.root. IN A 9.9.9.9\n"
             "ent.test. IN NS ns.ent.test.\nns.ent.test. IN A 10.0.0.5\n")
EMPTY = [DnsName.from_text(text) for text in ("c.ent.test.", "b.c.ent.test.")]
ABSENT = [DnsName.from_text(text) for text in ("d.ent.test.", "y.b.c.ent.test.")]


@pytest.fixture(scope="module")
def keys():
    return [generate_key(ORIGIN, role, bits=512, rng=80 + i, now=FIXED_NOW)
            for i, role in enumerate((KeyRole.ZSK, KeyRole.KSK))]


@pytest.fixture(scope="module")
def zone(keys):
    return sign_zone(parse_zone_file(ZONE_TEXT, ORIGIN), *keys, SigningPolicy(),
                     FIXED_NOW).zone


def test_zone_knows_the_empty_non_terminals(zone):
    assert all(zone.has_name(name) for name in EMPTY)
    assert zone.has_name(ORIGIN) and zone.has_name(DnsName.from_text("x.b.c.ent.test."))
    assert not any(zone.has_name(name) for name in ABSENT)
    assert not zone.has_name(DnsName.from_text("test."))


@pytest.mark.parametrize("do", [False, True], ids=["plain", "dnssec"])
@pytest.mark.parametrize("qname", EMPTY, ids=["depth-1", "depth-2"])
def test_empty_non_terminal_gets_nodata(zone, qname, do):
    reply = answer_authoritative(make_query(qname, RType.A, edns=Edns(do=do)), [zone])
    assert reply.rcode == Rcode.NOERROR
    assert "aa" in reply.flags and not reply.answers
    assert reply.authority[0].rtype == RType.SOA
    types = [r.rtype for r in reply.authority]
    if do:
        assert types == [RType.SOA, RType.RRSIG, RType.NSEC, RType.RRSIG]
        assert reply.authority[2].owner == ORIGIN  # the apex NSEC covers both names
    else:
        assert types == [RType.SOA]


@pytest.mark.parametrize("qname", ABSENT, ids=["sibling-of-ent", "below-ent"])
def test_names_with_nothing_below_stay_nxdomain(zone, qname):
    reply = answer_authoritative(make_query(qname, RType.A, edns=Edns(do=True)), [zone])
    assert reply.rcode == Rcode.NXDOMAIN


@pytest.mark.parametrize("do", [False, True], ids=["plain", "dnssec"])
@pytest.mark.parametrize("qname", EMPTY, ids=["depth-1", "depth-2"])
def test_validating_resolver_answers_nodata_with_ad(zone, keys, qname, do):
    net = SimNetwork(seed=3)
    net.register("9.9.9.9", AuthoritativeService([parse_zone_file(ROOT_TEXT, ROOT)])
                 .handle_wire)
    net.register("10.0.0.5", AuthoritativeService([zone]).handle_wire)
    config = ResolverConfig(dnssec_enabled=True,
                            anchors=(TrustAnchor(ORIGIN, keys[1].public),))
    resolver = RecursiveResolver(["9.9.9.9"], SimTransport(net, "192.0.2.10"),
                                 config=config, clock=net.clock)
    reply = resolver.resolve_name(qname, RType.A, do=do)
    assert reply.rcode == Rcode.NOERROR
    assert "ad" in reply.flags and not reply.answers
    assert any(r.rtype == RType.SOA for r in reply.authority)


@pytest.mark.parametrize("qname", EMPTY, ids=["depth-1", "depth-2"])
def test_nxdomain_over_an_empty_non_terminal_is_bogus(zone, keys, qname):
    reply = answer_authoritative(make_query(qname, RType.A, edns=Edns(do=True)), [zone])
    anchors, fetch = [TrustAnchor(ORIGIN, keys[1].public)], make_fetcher([zone])
    honest = validate_chain(reply, qname, RType.A, anchors, fetch, FIXED_NOW)
    forged = validate_chain(replace(reply, rcode=Rcode.NXDOMAIN), qname, RType.A,
                            anchors, fetch, FIXED_NOW)
    assert honest.status is Security.SECURE
    assert (forged.status, forged.reason) == (Security.BOGUS, Reason.INVALID_DENIAL)
