"""The indexed zone lookups against the linear scans they replaced.

`Zone` answers owner, cut and covering-NSEC lookups from tables; the
reference functions below are the straight scans over `zone.records`, kept
only here. Generated signed zones (nested names, delegations with glue at
and below the cut, DS at some cuts) must give the same answers both ways,
for names at, before, after, between and below the owners. The covering
NSEC must prove by `validator.denied_rcode` exactly the authority's negative
answers, and nothing where it answers with data, a CNAME or a referral."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dnsseclab.keystore import KeyRole, generate_key
from dnsseclab.message import DnsMessage, Edns, Rcode, make_query
from dnsseclab.names import DnsName, canonical_compare
from dnsseclab.records import ARdata, DsRdata, NsRdata, ResourceRecord, RType, rrsigs_covering
from dnsseclab.server import answer_authoritative
from dnsseclab.signer import SigningPolicy, sign_zone
from dnsseclab.validator import denied_rcode
from dnsseclab.zonefile import parse_zone_file

from conftest import FIXED_NOW

ORIGIN = DnsName.from_text("idx.example.")
ZSK = generate_key(ORIGIN, KeyRole.ZSK, bits=512, rng=61, now=FIXED_NOW)
KSK = generate_key(ORIGIN, KeyRole.KSK, bits=512, rng=62, now=FIXED_NOW)
QTYPES = (RType.A, RType.TXT, RType.NS, RType.DS, RType.NSEC, RType.SOA,
          RType.DNSKEY, RType.MX, RType.CNAME)


# ---------------------------------------------------------------------------
# Linear reference
# ---------------------------------------------------------------------------

def ref_records_at(zone, owner, rtype=None):
    return [r for r in zone.records
            if r.owner == owner and (rtype is None or r.rtype == rtype)]


def ref_delegations(zone):
    return {r.owner for r in zone.records if r.rtype == RType.NS and r.owner != zone.apex}


def ref_is_glue(zone, owner):
    return any(owner != cut and owner.is_subdomain_of(cut) for cut in ref_delegations(zone))


def ref_highest_cut(zone, qname):
    """The shallowest cut at or above `qname`: the zone's authority ends
    there, and any cut below it is occluded."""
    best = None
    for cut in ref_delegations(zone):
        if qname.is_subdomain_of(cut):
            if best is None or len(cut.labels) < len(best.labels):
                best = cut
    return best


def ref_covering_nsec(zone, qname):
    for record in zone.records:
        if record.rtype != RType.NSEC:
            continue
        owner, nxt = record.owner, record.rdata.next_name
        if owner == qname:
            return record
        if canonical_compare(owner, qname) < 0 and (
                canonical_compare(qname, nxt) < 0 or canonical_compare(nxt, owner) <= 0):
            return record
    return None


def ref_sigs(zone, owner, rtype):
    return [r for r in ref_records_at(zone, owner, RType.RRSIG) if r.rdata.type_covered == rtype]


def ref_add_with_sigs(zone, section, owner, rtype, dnssec):
    records = ref_records_at(zone, owner, rtype)
    if not records:
        return False
    section.extend(records)
    if dnssec:
        section.extend(ref_sigs(zone, owner, rtype))
    return True


def ref_answer(query, zone):
    """`answer_authoritative` for one zone, on the linear lookups."""
    reply = DnsMessage(id=query.id, flags=frozenset({"qr"} | (query.flags & {"rd"})),
                       questions=list(query.questions))
    if query.edns:
        reply.edns = Edns(version=0, do=query.edns.do, udp_payload=4096)
    q, dnssec = query.question, query.do_bit
    if not q.name.is_subdomain_of(zone.apex):
        reply.rcode = Rcode.REFUSED
        return reply
    cut = ref_highest_cut(zone, q.name)
    if cut is not None and not (q.name == cut and q.qtype == RType.DS):
        reply.authority.extend(ref_records_at(zone, cut, RType.NS))
        if dnssec and not ref_add_with_sigs(zone, reply.authority, cut, RType.DS, dnssec):
            nsec = ref_covering_nsec(zone, cut)
            if nsec is not None:
                reply.authority.append(nsec)
                reply.authority.extend(ref_sigs(zone, nsec.owner, RType.NSEC))
        for ns in ref_records_at(zone, cut, RType.NS):
            if ns.rdata.target.is_subdomain_of(zone.apex):
                reply.additional.extend(ref_records_at(zone, ns.rdata.target, RType.A))
        return reply
    reply.flags = reply.flags | {"aa"}
    if ref_add_with_sigs(zone, reply.answers, q.name, q.qtype, dnssec):
        return reply
    if q.qtype != RType.CNAME and ref_add_with_sigs(zone, reply.answers, q.name,
                                                    RType.CNAME, dnssec):
        return reply
    soa = next(r for r in zone.records if r.rtype == RType.SOA and r.owner == zone.apex)
    reply.authority.append(soa)
    if dnssec:
        reply.authority.extend(ref_sigs(zone, zone.apex, RType.SOA))
    if not any(r.owner.is_subdomain_of(q.name) for r in zone.records):
        reply.rcode = Rcode.NXDOMAIN  # not even an empty non-terminal
    if dnssec:
        nsec = ref_covering_nsec(zone, q.name)
        if nsec is not None:
            reply.authority.append(nsec)
            reply.authority.extend(ref_sigs(zone, nsec.owner, RType.NSEC))
    return reply


# ---------------------------------------------------------------------------
# Generated zones
# ---------------------------------------------------------------------------

label_st = st.sampled_from(["a", "b", "m", "mx", "z", "0"])
relative_st = st.lists(label_st, min_size=1, max_size=3).map(".".join)


@st.composite
def zone_text_st(draw):
    lines = ["$TTL 300", "@ IN SOA ns hostmaster 1 3600 900 604800 300",
             "@ IN NS ns", "ns IN A 10.0.0.1"]
    for i, host in enumerate(draw(st.lists(relative_st, min_size=1, max_size=8, unique=True))):
        lines.append(f"{host} IN A 10.1.0.{i + 1}")
        if draw(st.booleans()):
            lines.append(f'{host} IN TXT "t{i}"')
    cuts = draw(st.lists(relative_st, max_size=4, unique=True))
    for i, cut in enumerate(cuts):
        lines.append(f"{cut} IN NS ns.{cut}")
        lines.append(f"ns.{cut} IN A 172.16.{i}.1")
        if draw(st.booleans()):
            lines.append(f"b.below.{cut} IN A 172.16.{i}.2")
        if draw(st.booleans()):
            lines.append(f"{cut} IN DS " + DsRdata(1000 + i, 5, 1, bytes(range(i, i + 20))).to_text())
    return "\n".join(lines) + "\n"


def outside_names(zone):
    """The apex, every name above it, and names outside the zone, one of
    them deeper than the apex."""
    names = {DnsName.from_text("elsewhere.test."),
             DnsName.from_text("a.b.c.d.e.elsewhere.test.")}
    name = zone.apex
    while name.labels:
        names.add(name)
        name = name.parent()
    return names | {name}


def probe_names(zone):
    """Every owner, plus names just before, between, after and below each
    one in canonical order, and the apex, the names above it and names
    outside the zone."""
    names = outside_names(zone)
    for owner in {r.owner for r in zone.records}:
        names.add(owner)
        names.add(DnsName.from_text("0", owner))       # first child: right after
        names.add(DnsName.from_text("zzz.deeper", owner))
        if owner != zone.apex:
            first, rest = owner.labels[0], DnsName(owner.labels[1:])
            names.add(DnsName([first + b"0"] + list(rest.labels)))  # between siblings
            names.add(DnsName([first[:-1] or b"-"] + list(rest.labels)))  # before
    return sorted(names, key=DnsName.canonical_key)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(zone_text_st())
def test_indexed_lookups_match_linear_scans(text):
    zone = sign_zone(parse_zone_file(text, ORIGIN), ZSK, KSK, SigningPolicy(), FIXED_NOW).zone
    assert zone.delegations() == ref_delegations(zone)
    assert zone.soa_record is next(r for r in zone.records if r.rtype == RType.SOA)
    for name in probe_names(zone):
        assert zone.is_glue(name) == ref_is_glue(zone, name), name
        assert zone.highest_cut(name) == ref_highest_cut(zone, name), name
        assert zone.covering_nsec(name) is ref_covering_nsec(zone, name), name
        assert sorted(map(repr, zone.records_at(name))) == sorted(map(repr, ref_records_at(zone, name)))
        for qtype in QTYPES:
            assert zone.records_at(name, qtype) == ref_records_at(zone, name, qtype)
            assert list(zone.rrsigs_at(name, qtype)) == ref_sigs(zone, name, qtype)
            for do in (False, True):
                query = make_query(name, qtype, id=7, edns=Edns(do=do))
                reply = answer_authoritative(query, [zone])
                assert reply == ref_answer(query, zone), (name, qtype, do)
            if reply.rcode != Rcode.REFUSED:
                assert denied_by_rule(zone, name, qtype) == negative_rcode(zone, reply), (name, qtype)


def denied_by_rule(zone, name, qtype):
    nsec = zone.covering_nsec(name)
    return None if nsec is None else denied_rcode(nsec.owner, nsec.rdata, name, qtype)


def negative_rcode(zone, reply):
    """The rcode of an authoritative negative answer, else None. The DS at
    the apex is the parent's to deny, so no NSEC of the zone proves it."""
    q = reply.question
    if "aa" not in reply.flags or reply.answers or (q.name, q.qtype) == (zone.apex, RType.DS):
        return None
    return reply.rcode


@pytest.mark.parametrize("zone_fixture", ["signed_zone", "parent_zone_signed"])
def test_signed_index_matches_records_at_and_rrsigs_covering(zone_fixture, request):
    """For every (owner, type) of the reference zone and of its delegating
    parent, the RRset with its RRSIGs from the index is what `records_at`
    and `rrsigs_covering` give."""
    zone = request.getfixturevalue(zone_fixture).zone
    assert any(r.rtype == RType.RRSIG for r in zone.records)
    for owner in zone.owners():
        for rtype in {*QTYPES, *(r.rtype for r in zone.records_at(owner))}:
            expected = rrsigs_covering(zone.records_at(owner, RType.RRSIG), owner, rtype)
            assert list(zone.rrsigs_at(owner, rtype)) == expected, (owner, rtype)


@pytest.mark.parametrize("zone_fixture", ["signed_zone", "parent_zone_signed"])
def test_highest_cut_matches_the_linear_scan(zone_fixture, request):
    """The cut walk stops at the apex's depth. For the reference zone and
    its delegating parent, every owner, names one and three labels below
    each cut, the apex, the names above it and names outside the zone get
    the scan's cut and glue answers."""
    zone = request.getfixturevalue(zone_fixture).zone
    names = zone.owners() | outside_names(zone)
    for cut in ref_delegations(zone):
        names |= {DnsName.from_text("x", cut), DnsName.from_text("a.b.c", cut)}
    assert any(zone.highest_cut(name) is not None for name in names) \
        == bool(ref_delegations(zone))
    for name in names:
        assert zone.highest_cut(name) == ref_highest_cut(zone, name), name
        assert zone.is_glue(name) == ref_is_glue(zone, name), name


NESTED_CUTS = """$TTL 300
@ IN SOA ns hostmaster 1 3600 900 604800 300
@ IN NS ns
ns IN A 10.0.0.1
a IN NS ns.a
ns.a IN A 10.0.1.1
a.a IN NS ns.a.a
ns.a.a IN A 10.0.2.1
"""


@pytest.mark.parametrize("qname, qtype", [("a.a", RType.DS), ("x.a.a", RType.A)],
                         ids=["occluded-cut-ds", "below-occluded-cut"])
@pytest.mark.parametrize("do", [False, True], ids=["plain", "dnssec"])
def test_a_cut_below_a_cut_is_referred_to_the_higher_one(qname, qtype, do):
    """The zone's authority ends at `a`, so `a.a NS` is occluded: its DS and
    the names below it are referred to `a`, as the linear reference does."""
    zone = sign_zone(parse_zone_file(NESTED_CUTS, ORIGIN), ZSK, KSK, SigningPolicy(),
                     FIXED_NOW).zone
    query = make_query(DnsName.from_text(qname, ORIGIN), qtype, id=7, edns=Edns(do=do))
    reply = answer_authoritative(query, [zone])
    assert reply.rcode == Rcode.NOERROR and "aa" not in reply.flags and not reply.answers
    assert {r.owner for r in reply.authority if r.rtype == RType.NS} \
        == {DnsName.from_text("a", ORIGIN)}
    assert reply == ref_answer(query, zone)


def test_lookup_tables_follow_appended_records():
    zone = parse_zone_file("$TTL 60\n@ IN SOA ns admin 1 2 3 4 60\n", ORIGIN)
    cut = DnsName.from_text("late", ORIGIN)
    glue = DnsName.from_text("ns.late", ORIGIN)
    assert zone.records_at(cut) == [] and not zone.delegations()
    zone.records.append(ResourceRecord(cut, RType.NS, 1, 60, NsRdata(glue)))
    zone.records.append(ResourceRecord(glue, RType.A, 1, 60, ARdata("10.9.9.9")))
    assert zone.delegations() == {cut}
    assert zone.is_glue(glue)
    assert [r.rdata for r in zone.records_at(glue, RType.A)] == [ARdata("10.9.9.9")]
