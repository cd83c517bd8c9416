import errno
import random
import struct
import sys
import threading

import pytest

from dnsseclab import message
from dnsseclab.keystore import TrustAnchor
from dnsseclab.message import (DnsMessage, Edns, Rcode, decode_message, encode_message,
                               make_query, make_reply)
from dnsseclab.names import ROOT, DnsName
from dnsseclab.netsim import NO_GUESSES, PortPolicy, SimNetwork, SimTransport
from dnsseclab.records import ARdata, NsRdata, ResourceRecord, RRset, RType
from dnsseclab.resolver import (Cache, CacheEntry, HopLimitExceeded,
                                RecursiveResolver, ResolverConfig,
                                resolve_iterative)
from dnsseclab.server import (AuthoritativeService, DnsServer, GatewayService,
                              answer_authoritative, encode_with_limit,
                              udp_limit_for)
from dnsseclab.transport import SocketTransport, Timeout, Transport, TransportError
from dnsseclab.validator import Denial, Security, check_denial, pick

from dnsseclab.zonefile import parse_zone_file

from conftest import APEX, FIXED_NOW, MA

WWW = DnsName.from_text("www.domaine.ma.")

ROOT_TEXT = """\
$ORIGIN .
$TTL 518400
.\tIN\tSOA\ta.root. admin.root. 1 3600 900 604800 3600
.\tIN\tNS\ta.root.
a.root.\tIN\tA\t9.9.9.9
ma\tIN\tNS\tns.ma.
ns.ma\tIN\tA\t192.168.1.100
"""

ROOT_ADDR = "9.9.9.9"
MA_ADDR = "192.168.1.100"
CHILD_ADDR = "192.168.1.1"


def build_hierarchy(signed_zone, parent_zone_signed, net=None):
    net = net or SimNetwork(seed=1)
    root_zone = parse_zone_file(ROOT_TEXT, ROOT)
    net.register(ROOT_ADDR, AuthoritativeService([root_zone]).handle_wire)
    net.register(MA_ADDR, AuthoritativeService([parent_zone_signed.zone]).handle_wire)
    net.register(CHILD_ADDR, AuthoritativeService([signed_zone.zone]).handle_wire)
    return net


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def _entry(name="www.domaine.ma.", rtype=RType.A, ttl=300, now=0.0,
           security=Security.INSECURE, address="10.0.0.1"):
    owner = DnsName.from_text(name)
    rrset = RRset(owner, rtype, 1, ttl, (ARdata(address),))
    return CacheEntry(key=(owner, rtype, 1), rrset=rrset, inserted_at=now,
                      expires_at=now + ttl, security=security)


def test_cache_expiry_boundary():
    cache = Cache()
    cache.put(_entry(ttl=300, now=1000.0), 1000.0)
    assert cache.get(_entry().key, 1299.0) is not None
    assert cache.get(_entry().key, 1301.0) is None


def test_cache_rank_rule():
    cache = Cache()
    secure = _entry(security=Security.SECURE, now=0.0)
    insecure = _entry(security=Security.INSECURE, now=0.0, address="6.6.6.6")
    assert cache.put(secure, 0.0)
    assert not cache.put(insecure, 0.0)
    assert cache.get(secure.key, 1.0).rrset.rdatas[0].address == "10.0.0.1"
    # the other direction is allowed
    cache2 = Cache()
    assert cache2.put(insecure, 0.0)
    assert cache2.put(secure, 0.0)
    assert cache2.get(secure.key, 1.0).security is Security.SECURE


def test_cache_lru_eviction_reference_model():
    capacity = 16
    cache = Cache(capacity=capacity)
    reference: dict = {}
    order: list = []
    rng = random.Random(9)
    for step in range(400):
        name = f"h{rng.randrange(40)}.domaine.ma."
        entry = _entry(name, ttl=10_000, now=float(step))
        if rng.random() < 0.4:
            got = cache.get(entry.key, float(step))
            assert (got is not None) == (entry.key in reference)
            if got is not None:
                order.remove(entry.key)
                order.append(entry.key)
        else:
            cache.put(entry, float(step))
            reference[entry.key] = entry
            if entry.key in order:
                order.remove(entry.key)
            order.append(entry.key)
            while len(order) > capacity:
                evicted = order.pop(0)
                del reference[evicted]
        assert len(cache) == len(reference) <= capacity


def test_cache_never_serves_expired_under_clock_sweep():
    cache = Cache()
    rng = random.Random(3)
    entries = []
    for i in range(50):
        entry = _entry(f"n{i}.domaine.ma.", ttl=rng.randint(1, 500), now=0.0)
        entries.append(entry)
        cache.put(entry, 0.0)
    for now in range(0, 600, 7):
        for entry in entries:
            got = cache.get(entry.key, float(now))
            if got is not None:
                assert now < entry.expires_at


def test_cache_rejects_bogus():
    cache = Cache()
    entry = _entry()
    entry.security = Security.BOGUS
    with pytest.raises(ValueError):
        cache.put(entry, 0.0)


# ---------------------------------------------------------------------------
# Authoritative answers
# ---------------------------------------------------------------------------

def test_signed_answer_with_do(signed_zone):
    reply = answer_authoritative(
        make_query(APEX, RType.A, id=7, edns=Edns(do=True)), [signed_zone.zone])
    assert {"qr", "aa"} <= reply.flags
    assert reply.rcode == Rcode.NOERROR
    types = [r.rtype for r in reply.answers]
    assert types.count(RType.A) == 1 and types.count(RType.RRSIG) == 1
    assert reply.answers[0].rdata.address == "192.168.1.3"


def test_do_zero_omits_dnssec_records(signed_zone):
    zone = signed_zone.zone
    for owner in sorted(zone.owners(), key=DnsName.canonical_key):
        for do in (False, True):
            query = make_query(owner, RType.A, edns=Edns(do=do))
            reply = answer_authoritative(query, [zone])
            everything = reply.answers + reply.authority + reply.additional
            dnssec = [r for r in everything
                      if r.rtype in (RType.RRSIG, RType.NSEC, RType.DNSKEY)]
            if do:
                if reply.answers:
                    assert any(r.rtype == RType.RRSIG for r in reply.answers)
            else:
                assert not dnssec


def test_explicitly_queried_dnssec_type_is_answered_without_do(signed_zone):
    reply = answer_authoritative(make_query(APEX, RType.DNSKEY),
                                 [signed_zone.zone])
    assert any(r.rtype == RType.DNSKEY for r in reply.answers)


def test_out_of_bailiwick_refused(signed_zone):
    reply = answer_authoritative(
        make_query(DnsName.from_text("example.org."), RType.A),
        [signed_zone.zone])
    assert reply.rcode == Rcode.REFUSED
    assert "aa" not in reply.flags


def test_nxdomain_carries_provable_nsec(signed_zone, zsk, ksk):
    qname = DnsName.from_text("ns9.domaine.ma.")
    reply = answer_authoritative(make_query(qname, RType.A, edns=Edns(do=True)),
                                 [signed_zone.zone])
    assert reply.rcode == Rcode.NXDOMAIN
    assert any(r.rtype == RType.SOA for r in reply.authority)
    outcome = check_denial(qname, RType.A, pick(reply, qname, RType.A).witnesses,
                           [zsk.public, ksk.public], FIXED_NOW)
    assert outcome.kind is Denial.NAME_DOES_NOT_EXIST


def test_nodata_carries_type_denial(signed_zone, zsk, ksk):
    qname = DnsName.from_text("www.domaine.ma.")
    reply = answer_authoritative(make_query(qname, RType.MX, edns=Edns(do=True)),
                                 [signed_zone.zone])
    assert reply.rcode == Rcode.NOERROR and not reply.answers
    outcome = check_denial(qname, RType.MX, pick(reply, qname, RType.MX).witnesses,
                           [zsk.public, ksk.public], FIXED_NOW)
    assert outcome.kind is Denial.TYPE_DOES_NOT_EXIST


def test_referral_below_delegation(parent_zone_signed):
    qname = DnsName.from_text("www.domaine.ma.")
    reply = answer_authoritative(make_query(qname, RType.A, edns=Edns(do=True)),
                                 [parent_zone_signed.zone])
    assert "aa" not in reply.flags
    assert any(r.rtype == RType.NS for r in reply.authority)
    assert any(r.rtype == RType.DS for r in reply.authority)
    glue = [r for r in reply.additional if r.rtype == RType.A]
    assert glue and glue[0].rdata.address == "192.168.1.1"


def test_cname_answer(signed_zone):
    qname = DnsName.from_text("ftp.domaine.ma.")
    reply = answer_authoritative(make_query(qname, RType.A), [signed_zone.zone])
    assert any(r.rtype == RType.CNAME for r in reply.answers)


@pytest.mark.parametrize("gateway", [False, True], ids=["authoritative", "gateway"])
def test_undecodable_query_gets_formerr_with_its_id(signed_zone, gateway):
    """A client matches a reply by its id, so a FORMERR must carry the id of
    the query it refuses; a datagram too short for a header gets no reply."""
    zones = [signed_zone.zone]
    service = (GatewayService(zones, make_victim(SimNetwork(seed=1))) if gateway
               else AuthoritativeService(zones))
    # A header announcing one question, then a name that runs off the end.
    wire = struct.pack(">HHHHHH", 0xBEEF, 0x0100, 1, 0, 0, 0) + b"\x07domaine"
    for via_tcp in (False, True):
        reply = decode_message(service.handle_wire(wire, via_tcp))
        assert reply.id == 0xBEEF and reply.rcode == Rcode.FORMERR
        assert "qr" in reply.flags
        assert service.handle_wire(wire[:3], via_tcp) is None


# ---------------------------------------------------------------------------
# Truncation and TCP fallback
# ---------------------------------------------------------------------------

def test_truncation_and_tcp_retry(signed_zone):
    zone = signed_zone.zone
    service = AuthoritativeService([zone])
    query = make_query(APEX, RType.DNSKEY, id=11, edns=Edns(do=True, udp_payload=512))
    wire = encode_message(query)
    udp_reply = decode_message(service.handle_wire(wire, via_tcp=False))
    assert "tc" in udp_reply.flags
    assert not udp_reply.answers
    tcp_reply = decode_message(service.handle_wire(wire, via_tcp=True))
    assert "tc" not in tcp_reply.flags
    expected = zone.records_at(APEX, RType.DNSKEY)
    got = [r for r in tcp_reply.answers if r.rtype == RType.DNSKEY]
    assert sorted(r.rdata.to_wire() for r in got) == \
        sorted(r.rdata.to_wire() for r in expected)


def test_udp_limits():
    assert udp_limit_for(make_query(APEX, RType.A)) == 512
    assert udp_limit_for(make_query(APEX, RType.A, edns=Edns(udp_payload=4096))) == 4096


def test_encode_with_limit_keeps_small_messages():
    msg = answer = make_query(APEX, RType.A, id=5)
    assert encode_with_limit(msg, 512) == encode_message(msg)


def test_iterative_tcp_fallback_transparent(signed_zone):
    net = SimNetwork(seed=4)
    net.register(CHILD_ADDR, AuthoritativeService([signed_zone.zone]).handle_wire)
    transport = SimTransport(net, "192.0.2.99")
    msg = resolve_iterative(APEX, RType.DNSKEY, [CHILD_ADDR], transport,
                            udp_payload=512)
    assert "tc" not in msg.flags
    assert len(msg.records_of(APEX, RType.DNSKEY)) == 2


# ---------------------------------------------------------------------------
# Iterative resolution over the simulated hierarchy
# ---------------------------------------------------------------------------

def test_full_hierarchy_walk_in_three_transactions(signed_zone, parent_zone_signed):
    net = build_hierarchy(signed_zone, parent_zone_signed)
    transport = SimTransport(net, "192.0.2.99")
    msg = resolve_iterative(WWW, RType.A, [ROOT_ADDR], transport)
    assert "aa" in msg.flags
    assert {r.rdata.address for r in msg.records_of(WWW, RType.A)} == \
        {"192.168.1.10", "192.168.1.11"}
    assert net.transactions == 3


def test_degenerate_hierarchy_single_transaction(signed_zone):
    net = SimNetwork(seed=2)
    net.register(CHILD_ADDR, AuthoritativeService([signed_zone.zone]).handle_wire)
    transport = SimTransport(net, "192.0.2.99")
    msg = resolve_iterative(WWW, RType.A, [CHILD_ADDR], transport)
    assert "aa" in msg.flags
    assert net.transactions == 1


def test_one_lookup_decodes_only_the_query_at_the_server_and_the_reply(
        signed_zone, monkeypatch):
    """The client hands the transport its query message, so the only decodes
    are the server's of the query and the client's of the reply."""
    real, calls = message.decode_message, []

    def counting(wire):
        calls.append(wire)
        return real(wire)

    for name, module in list(sys.modules.items()):
        if name.startswith("dnsseclab") and getattr(module, "decode_message", None) is real:
            monkeypatch.setattr(module, "decode_message", counting)
    net = SimNetwork(seed=2)
    net.register(CHILD_ADDR, AuthoritativeService([signed_zone.zone]).handle_wire)
    msg = resolve_iterative(WWW, RType.A, [CHILD_ADDR], SimTransport(net, "192.0.2.99"))
    assert "aa" in msg.flags and net.transactions == 1
    assert len(calls) == 2


def test_referral_loop_hits_hop_limit():
    net = SimNetwork(seed=3)
    loop_zone = DnsName.from_text("loop.test.")

    def looping_server(wire, tcp):
        query = decode_message(wire)
        reply = DnsMessage(id=query.id, flags=frozenset({"qr"}),
                           questions=list(query.questions))
        ns = DnsName.from_text("ns.loop.test.")
        reply.authority.append(ResourceRecord(loop_zone, RType.NS, 1, 60,
                                              NsRdata(ns)))
        reply.additional.append(ResourceRecord(ns, RType.A, 1, 60,
                                               ARdata("10.7.7.7")))
        return encode_message(reply)

    net.register("10.7.7.7", looping_server)
    transport = SimTransport(net, "192.0.2.99")
    with pytest.raises(HopLimitExceeded):
        resolve_iterative(DnsName.from_text("x.loop.test."), RType.A,
                          ["10.7.7.7"], transport)


def test_unreachable_then_next_address(signed_zone):
    net = SimNetwork(seed=5)
    net.register(CHILD_ADDR, AuthoritativeService([signed_zone.zone]).handle_wire)
    net.register("10.0.0.254", lambda wire, tcp: None)  # drops everything
    transport = SimTransport(net, "192.0.2.99")
    msg = resolve_iterative(APEX, RType.A, ["10.0.0.254", CHILD_ADDR], transport)
    assert "aa" in msg.flags


def test_all_addresses_unreachable():
    net = SimNetwork(seed=6)
    transport = SimTransport(net, "192.0.2.99")
    with pytest.raises(Timeout):
        resolve_iterative(APEX, RType.A, ["10.0.0.254"], transport)


# ---------------------------------------------------------------------------
# Recursive resolver
# ---------------------------------------------------------------------------

def make_victim(net, dnssec=False, anchors=(), port_mode="fixed"):
    transport = SimTransport(net, "192.0.2.10",
                             PortPolicy(mode=port_mode, rng=net.rng))
    return RecursiveResolver([ROOT_ADDR], transport, cache=Cache(),
                             config=ResolverConfig(dnssec_enabled=dnssec,
                                                   anchors=tuple(anchors)),
                             clock=net.clock)


class _TruncatingTransport(Transport):
    """Answers every UDP query with TC set; the TCP retry fails."""

    def new_txid(self) -> int:
        return 7

    def query(self, address, query, tcp=False):
        if tcp:
            raise TransportError("connection refused")
        reply = DnsMessage(id=query.id, flags=frozenset({"qr", "tc"}),
                           questions=list(query.questions))
        return reply, encode_message(reply)


def test_transport_error_on_tcp_retry_becomes_servfail():
    resolver = RecursiveResolver([ROOT_ADDR], _TruncatingTransport())
    assert resolver.resolve_name(WWW).rcode == Rcode.SERVFAIL


def test_second_query_served_from_cache(signed_zone, parent_zone_signed):
    net = build_hierarchy(signed_zone, parent_zone_signed)
    resolver = make_victim(net)
    first = resolver.resolve_name(WWW, RType.A)
    assert first.rcode == Rcode.NOERROR
    assert "ra" in first.flags
    upstream_before = net.transactions
    second = resolver.resolve_name(WWW, RType.A)
    assert net.transactions == upstream_before
    assert {r.rdata.address for r in second.answers if r.rtype == RType.A} == \
        {"192.168.1.10", "192.168.1.11"}


def test_secure_answer_sets_ad(signed_zone, parent_zone_signed, ksk):
    net = build_hierarchy(signed_zone, parent_zone_signed)
    resolver = make_victim(net, dnssec=True,
                           anchors=[TrustAnchor(APEX, ksk.public)])
    reply = resolver.resolve_name(WWW, RType.A, do=True)
    assert reply.rcode == Rcode.NOERROR
    assert "ad" in reply.flags
    assert any(r.rtype == RType.RRSIG for r in reply.answers)
    cached = resolver.cache.get((WWW, RType.A, 1), net.clock())
    assert cached is not None and cached.security is Security.SECURE


def test_insecure_without_anchor_has_no_ad(signed_zone, parent_zone_signed):
    net = build_hierarchy(signed_zone, parent_zone_signed)
    resolver = make_victim(net, dnssec=True, anchors=[])
    reply = resolver.resolve_name(WWW, RType.A, do=True)
    assert reply.rcode == Rcode.NOERROR
    assert "ad" not in reply.flags


def _corrupting(handler):
    """`handler` with every A record of its answers rewritten to 66.6.6.6."""
    def wrapped(wire, tcp):
        reply = handler(wire, tcp)
        if reply is None:
            return None
        msg = decode_message(reply)
        changed = False
        for record in msg.answers:
            if record.rtype == RType.A:
                msg.answers[msg.answers.index(record)] = ResourceRecord(
                    record.owner, record.rtype, record.rclass, record.ttl,
                    ARdata("66.6.6.6"))
                changed = True
        return encode_message(msg) if changed else reply
    return wrapped


def test_bogus_answer_becomes_servfail_and_never_cached(
        signed_zone, parent_zone_signed, ksk):
    net = build_hierarchy(signed_zone, parent_zone_signed)
    net.hosts[CHILD_ADDR] = _corrupting(net.hosts[CHILD_ADDR])
    resolver = make_victim(net, dnssec=True,
                           anchors=[TrustAnchor(APEX, ksk.public)])
    reply = resolver.resolve_name(WWW, RType.A, do=True)
    assert reply.rcode == Rcode.SERVFAIL
    assert not reply.answers
    assert resolver.cache.get((WWW, RType.A, 1), net.clock()) is None


class _QueryLog:
    """An off-path tap that records the question of every query and forges
    nothing."""
    on_path = False

    def __init__(self):
        self.questions = []

    def on_query(self, event):
        self.questions.append((event.qname, event.qtype))
        return NO_GUESSES


def test_ds_chain_is_served_from_the_cache_on_the_next_lookup(
        signed_zone, parent_zone_signed, parent_ksk):
    """Anchored at `ma.`, the first lookup fetches `ma.` DNSKEY, the DS of
    `domaine.ma.` and its DNSKEY; the next one fetches none of them."""
    net = build_hierarchy(signed_zone, parent_zone_signed)
    log = _QueryLog()
    net.add_tap(log)
    resolver = make_victim(net, dnssec=True,
                           anchors=[TrustAnchor(MA, parent_ksk.public)])
    keys = {(MA, RType.DNSKEY), (APEX, RType.DS), (APEX, RType.DNSKEY)}
    assert "ad" in resolver.resolve_name(WWW, RType.A).flags
    assert keys <= set(log.questions)
    for name, rtype in keys:
        entry = resolver.cache.get((name, rtype, 1), net.clock())
        assert entry.security is Security.SECURE
    log.questions.clear()
    reply = resolver.resolve_name(DnsName.from_text("mail.domaine.ma."), RType.A)
    assert "ad" in reply.flags
    assert {rtype for _, rtype in log.questions} == {RType.A}


def test_bogus_walk_caches_no_dnskey_or_ds(signed_zone, parent_zone_signed, parent_ksk):
    net = build_hierarchy(signed_zone, parent_zone_signed)
    net.hosts[CHILD_ADDR] = _corrupting(net.hosts[CHILD_ADDR])
    resolver = make_victim(net, dnssec=True,
                           anchors=[TrustAnchor(MA, parent_ksk.public)])
    assert resolver.resolve_name(WWW, RType.A).rcode == Rcode.SERVFAIL
    assert resolver.cache.entries() == []


def test_negative_answer_cached_with_bounded_ttl(signed_zone, parent_zone_signed):
    net = build_hierarchy(signed_zone, parent_zone_signed)
    resolver = make_victim(net)
    qname = DnsName.from_text("missing.domaine.ma.")
    first = resolver.resolve_name(qname, RType.A)
    assert first.rcode == Rcode.NXDOMAIN
    upstream = net.transactions
    second = resolver.resolve_name(qname, RType.A)
    assert second.rcode == Rcode.NXDOMAIN
    assert net.transactions == upstream
    entry = resolver.cache.get((qname, RType.A, 1), net.clock())
    assert entry is not None
    assert entry.expires_at - entry.inserted_at <= 3600


def test_cached_entry_expires_with_simulated_clock(signed_zone, parent_zone_signed):
    net = build_hierarchy(signed_zone, parent_zone_signed)
    resolver = make_victim(net)
    resolver.resolve_name(WWW, RType.A)
    before = net.transactions
    net.advance(86_400 + 1)
    resolver.resolve_name(WWW, RType.A)
    assert net.transactions > before


def test_cache_hit_ttl_decays(signed_zone, parent_zone_signed):
    net = build_hierarchy(signed_zone, parent_zone_signed)
    resolver = make_victim(net)
    resolver.resolve_name(WWW, RType.A)
    net.advance(1000)
    reply = resolver.resolve_name(WWW, RType.A)
    assert all(85_000 < r.ttl < 86_400 for r in reply.answers)


def test_cached_negative_answer_ttls_stay_within_the_entry(signed_zone, parent_zone_signed):
    """The negative entry lives min(SOA minimum, 3600) = 3600 s; no record
    served from it may outlive it."""
    net = build_hierarchy(signed_zone, parent_zone_signed)
    resolver = make_victim(net)
    qname = DnsName.from_text("missing.domaine.ma.")
    resolver.resolve_name(qname, RType.A, do=True)
    upstream = net.transactions
    net.advance(1000)
    reply = resolver.resolve_name(qname, RType.A, do=True)
    assert net.transactions == upstream and reply.rcode == Rcode.NXDOMAIN
    assert {r.rtype for r in reply.authority} == {RType.SOA, RType.NSEC, RType.RRSIG}
    assert all(r.ttl <= 2_600 for r in reply.authority)


@pytest.mark.parametrize("validation", [False, True], ids=["plain", "validating"])
@pytest.mark.parametrize("do", [False, True], ids=["do0", "do1"])
@pytest.mark.parametrize("name, qtype, rcode, plain_types, dnssec_types", [
    ("www.domaine.ma.", RType.A, Rcode.NOERROR, {RType.A}, {RType.RRSIG}),
    ("ftp.domaine.ma.", RType.A, Rcode.NOERROR, {RType.CNAME}, {RType.RRSIG}),
    ("www.domaine.ma.", RType.MX, Rcode.NOERROR, {RType.SOA}, {RType.RRSIG, RType.NSEC}),
    ("missing.domaine.ma.", RType.A, Rcode.NXDOMAIN, {RType.SOA}, {RType.RRSIG, RType.NSEC}),
    ("missing.domaine.ma.", RType.NSEC, Rcode.NXDOMAIN, {RType.SOA, RType.NSEC},
     {RType.RRSIG}),
    ("domaine.ma.", RType.DNSKEY, Rcode.NOERROR, {RType.DNSKEY}, {RType.RRSIG}),
], ids=["positive", "cname", "nodata", "nxdomain", "nxdomain-nsec", "apex-dnskey"])
def test_cached_reply_matches_the_fresh_one(signed_zone, parent_zone_signed, ksk,
                                            name, qtype, rcode, plain_types,
                                            dnssec_types, do, validation):
    """Without DO a client sees DNSSEC records only of the type it asked for
    (`plain_types`); DO adds `dnssec_types`. A cache hit answers alike, TTLs
    included: the fresh reply is served from the entry it made."""
    net = build_hierarchy(signed_zone, parent_zone_signed)
    resolver = make_victim(net, dnssec=validation,
                           anchors=[TrustAnchor(APEX, ksk.public)])
    qname = DnsName.from_text(name)
    fresh = resolver.resolve_name(qname, qtype, do=do)
    upstream = net.transactions
    cached = resolver.resolve_name(qname, qtype, do=do)
    assert net.transactions == upstream
    assert fresh.rcode == rcode and ("ad" in fresh.flags) == validation
    assert {r.rtype for r in fresh.answers + fresh.authority} == \
        plain_types | (dnssec_types if do else set())

    def seen(reply):
        return (reply.rcode, reply.flags,
                [(r.owner, r.rtype, r.rclass, r.rdata, r.ttl) for r in reply.answers],
                [(r.owner, r.rtype, r.rclass, r.rdata, r.ttl) for r in reply.authority])

    assert seen(cached) == seen(fresh)


def test_a_refused_reply_is_served_with_its_rcode_and_not_cached():
    """A final reply whose rcode is neither NOERROR nor NXDOMAIN reaches the
    client with that rcode and no records, and the next lookup asks again."""
    net = SimNetwork(seed=1)

    def refuse(wire, via_tcp):
        query = decode_message(wire)
        reply = make_reply(query, "aa", rcode=Rcode.REFUSED)
        reply.answers.append(ResourceRecord(query.question.name, RType.A, 1, 300,
                                            ARdata("203.0.113.99")))
        return encode_message(reply)

    net.register(ROOT_ADDR, refuse)
    resolver = make_victim(net)
    for _ in range(2):
        sent = net.transactions
        reply = resolver.resolve_name(WWW, RType.A)
        assert net.transactions == sent + 1
        assert reply.rcode == Rcode.REFUSED and not reply.answers and not reply.authority
    assert len(resolver.cache) == 0


def test_resolve_without_question_is_formerr():
    resolver = RecursiveResolver([ROOT_ADDR], _TruncatingTransport())
    stray = ResourceRecord(WWW, RType.A, 1, 60, ARdata("10.0.0.1"))
    reply = resolver.resolve(DnsMessage(id=9, flags=frozenset({"rd"}), authority=[stray]))
    assert reply.id == 9 and reply.rcode == Rcode.FORMERR
    assert reply.flags == {"qr", "ra", "rd"}
    assert not reply.questions and not reply.answers and not reply.authority


# ---------------------------------------------------------------------------
# Real sockets
# ---------------------------------------------------------------------------

def test_real_udp_tcp_server(signed_zone):
    server = DnsServer([signed_zone.zone], address="127.0.0.1", port=0)
    server.start()
    try:
        transport = SocketTransport(port=server.port)
        query = make_query(APEX, RType.A, id=99, edns=Edns(do=True))
        reply = transport.query("127.0.0.1", query)[0]
        assert reply.id == 99 and {"qr", "aa"} <= reply.flags
        assert any(r.rtype == RType.RRSIG for r in reply.answers)
        # TCP path answers the same question
        tcp_reply = transport.query("127.0.0.1", query, tcp=True)[0]
        assert tcp_reply.answers
    finally:
        server.shutdown()


def test_port_zero_rebinds_pair_when_tcp_port_is_taken(signed_zone, monkeypatch):
    """With port 0, TCP binds the port UDP got; when TCP finds it taken, the
    server closes that UDP socket and binds a fresh pair on one port."""
    from dnsseclab import server as server_module
    real_udp, real_tcp = server_module._UdpServer, server_module._TcpServer
    udp_servers, failures = [], [OSError(errno.EADDRINUSE, "Address already in use")]

    def udp(*args):
        udp_servers.append(real_udp(*args))
        return udp_servers[-1]

    def tcp(*args):
        if failures:
            raise failures.pop()
        return real_tcp(*args)

    monkeypatch.setattr(server_module, "_UdpServer", udp)
    monkeypatch.setattr(server_module, "_TcpServer", tcp)
    server = DnsServer([signed_zone.zone], address="127.0.0.1", port=0)
    server.start()
    try:
        assert len(udp_servers) == 2 and udp_servers[0].socket.fileno() == -1
        assert server._udp is udp_servers[1]
        assert server._udp.server_address[1] == server._tcp.server_address[1] == server.port
        transport = SocketTransport(port=server.port)
        query = make_query(APEX, RType.A, id=5)
        for tcp_flag in (False, True):
            assert transport.query("127.0.0.1", query, tcp=tcp_flag)[0].answers
    finally:
        server.shutdown()


def test_shutdown_without_start_returns_and_closes_sockets(signed_zone):
    server = DnsServer([signed_zone.zone], address="127.0.0.1", port=0)
    thread = threading.Thread(target=server.shutdown, daemon=True)
    thread.start()
    thread.join(timeout=3)
    assert not thread.is_alive()
    assert server._udp.socket.fileno() == -1 and server._tcp.socket.fileno() == -1


def test_socket_transport_timeout():
    transport = SocketTransport(port=1, timeout=0.2)
    with pytest.raises(Timeout):
        transport.query("127.0.0.1", make_query(APEX, RType.A))
