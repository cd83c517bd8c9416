"""A Secure `ValidationOutcome` carries the records the walk verified, and
the resolver serves and caches those without searching the reply again.

The records must be the ones the resolver picked for itself before the
outcome carried them (RFC 4035 §3.2.3): of an answer, the RRset's records
as `records_of` gives them, then the RRSIGs over it; of a denial, the NSEC
witnesses, the SOA RRset and the RRSIGs over them, in the reply's order;
of each DNSKEY or DS reply the walk fetched, its RRset and RRSIGs. The
`_only` and `_proven_authority` below are reference copies of that old
selection, and every row must agree with them, tampered replies included.
`_witnesses` is the old rule that paired every NSEC of the reply: the
validator's pick keeps only those that own or cover the qname, and the
authority sends no other."""

from dataclasses import replace

import pytest

from dnsseclab.keystore import KeyRole, TrustAnchor, generate_key
from dnsseclab.message import DnsMessage, Edns, make_query
from dnsseclab.names import DnsName
from dnsseclab.records import (ARdata, NsecRdata, ResourceRecord, RType, rrsigs_covering,
                               rtype_to_text)
from dnsseclab.server import answer_authoritative
from dnsseclab.signer import SigningPolicy, make_ds, sign_zone
from dnsseclab.validator import Security, validate_chain
from dnsseclab.zonefile import parse_zone_file

from conftest import APEX, FIXED_NOW, MA, PARENT_TEXT, ZONE_TEXT, make_fetcher
from hostile import untouched
from test_nsec_gaps import LATER, _gap_victim, _name, zones  # noqa: F401 (fixture)

#: The reference zone with the empty non-terminal `deep` of the gap tests.
CHILD_TEXT = ZONE_TEXT + "x.deep\tIN\tA\t192.168.1.30\n"
WWW = DnsName.from_text("www.domaine.ma.")


def _only(msg, owner, rtype):
    """Reference copy: `msg` with only the (owner, rtype) RRset and its
    RRSIGs as answers."""
    return replace(msg, answers=[*msg.records_of(owner, rtype),
                                 *rrsigs_covering(msg.answers, owner, rtype)])


def _witnesses(response):
    """Reference copy: each NSEC of the authority section paired with each
    RRSIG over it."""
    return [(record, sig) for record in response.authority if record.rtype == RType.NSEC
            for sig in rrsigs_covering(response.authority, record.owner, RType.NSEC)]


def _soa_records(response):
    first = next((r for r in response.authority if r.rtype == RType.SOA), None)
    return [r for r in response.authority if r.rtype == RType.SOA
            and (r.owner, r.rclass) == (first.owner, first.rclass)] if first else []


def _proven_authority(response):
    """Reference copy: the NSEC witnesses, the SOA RRset and the RRSIGs over
    them, in the authority section's order."""
    proven = {record for witness in _witnesses(response) for record in witness}
    soa = _soa_records(response)
    if soa:
        proven.update(soa)
        proven.update(rrsigs_covering(response.authority, soa[0].owner, RType.SOA))
    return [r for r in response.authority if r in proven]


def _keys(zone, seed):
    return [generate_key(zone, role, bits=512, rng=seed + i, now=FIXED_NOW)
            for i, role in enumerate((KeyRole.ZSK, KeyRole.KSK))]


@pytest.fixture(scope="module")
def signed_pair():
    """The reference zone under `ma.`, which holds its DS: (zones, anchor at
    `domaine.ma.`, anchor at `ma.`)."""
    child_keys, parent_keys = _keys(APEX, 60), _keys(MA, 62)
    child = sign_zone(parse_zone_file(CHILD_TEXT, APEX), *child_keys, SigningPolicy(),
                      FIXED_NOW).zone
    parent = parse_zone_file(PARENT_TEXT, MA)
    parent.records.append(make_ds(APEX, child_keys[1].public, ttl=3600))
    parent = sign_zone(parent, *parent_keys, SigningPolicy(), FIXED_NOW).zone
    return ([parent, child], TrustAnchor(APEX, child_keys[1].public),
            TrustAnchor(MA, parent_keys[1].public))


def _unsigned_rrset(reply):
    forged = ResourceRecord(DnsName.from_text("www.bank.example."), RType.A, 1, 86400,
                            ARdata("203.0.113.66"))
    reply.answers.append(forged)
    reply.authority.append(forged)


def _class3_rrsig(reply):
    for section in (reply.answers, reply.authority):
        section[1:1] = [replace(r, rclass=3) for r in section if r.rtype == RType.RRSIG][:1]


def _second_soa_owner(reply):
    reply.authority.extend(replace(r, owner=WWW) for r in list(reply.authority)
                           if r.rtype == RType.SOA)


def _unsigned_nsec(reply):
    reply.authority.insert(0, ResourceRecord(DnsName.from_text("zz.domaine.ma."),
                                             RType.NSEC, 1, 3600,
                                             NsecRdata(APEX, frozenset({RType.A}))))


def _bad_soa_rrsig(reply):
    reply.authority.extend(replace(r, rdata=replace(r.rdata, signature=b"\x01" * 64))
                           for r in list(reply.authority) if r.rtype == RType.RRSIG
                           and r.rdata.type_covered == RType.SOA)


TAMPERS = [untouched, _unsigned_rrset, _class3_rrsig, _second_soa_owner, _unsigned_nsec,
           _bad_soa_rrsig]
ASKED = [("www", RType.A), ("ftp", RType.A), ("nowhere", RType.A), ("www", RType.MX),
         ("deep", RType.A)]


def _tampered_fetch(zones, tamper, fetched):
    base = make_fetcher(zones)

    def fetch(name, rtype):
        reply = base(name, rtype)
        tamper(reply)
        fetched.append((name, rtype, reply))
        return reply

    return fetch


@pytest.mark.parametrize("chained", [False, True], ids=["anchor-at-apex", "ds-chain"])
@pytest.mark.parametrize("tamper", TAMPERS, ids=lambda tamper: tamper.__name__.strip("_"))
@pytest.mark.parametrize("asked", ASKED,
                         ids=lambda asked: f"{asked[0]}-{rtype_to_text(asked[1])}")
def test_outcome_records_equal_the_old_selection(signed_pair, asked, tamper, chained):
    zones, apex_anchor, ma_anchor = signed_pair
    qname = _name(asked[0])
    reply = answer_authoritative(make_query(qname, asked[1], edns=Edns(do=True)), zones[1:])
    tamper(reply)
    fetched = []
    outcome = validate_chain(reply, qname, asked[1], [ma_anchor if chained else apex_anchor],
                             _tampered_fetch(zones, tamper, fetched), FIXED_NOW)
    assert outcome.status is Security.SECURE

    answer = (reply.records_of(qname, asked[1]) or reply.records_of(qname, RType.CNAME))
    if answer:
        assert outcome.answer == tuple(_only(reply, qname, answer[0].rtype).answers)
        assert outcome.authority == outcome.witnesses == ()
    else:
        assert outcome.answer == ()
        assert outcome.authority == tuple(_proven_authority(reply))
        assert outcome.witnesses == tuple(_witnesses(reply))
    assert outcome.links == tuple((name, rtype, tuple(_only(msg, name, rtype).answers))
                                  for name, rtype, msg in fetched
                                  if msg.records_of(name, rtype))
    assert [link[:2] for link in outcome.links] == (
        [(MA, RType.DNSKEY), (APEX, RType.DS), (APEX, RType.DNSKEY)] if chained
        else [(APEX, RType.DNSKEY)])


@pytest.mark.parametrize("tamper", TAMPERS, ids=lambda tamper: tamper.__name__.strip("_"))
@pytest.mark.parametrize("asked", [("nowhere", RType.A), ("www", RType.MX),
                                   ("deep", RType.A)],
                         ids=["nxdomain", "nodata", "empty-non-terminal"])
def test_each_gap_keeps_the_old_proof(zones, asked, tamper):  # noqa: F811
    """Each NSEC gap the resolver indexes holds what the old selection gave
    for that NSEC alone: it, its RRSIGs, the SOA RRset and its RRSIGs."""
    qname, replies = _name(asked[0]), []

    def kept(reply):
        tamper(reply)
        if (reply.question.name, reply.question.qtype) == (qname, asked[1]):
            replies.append(reply)

    _, victim = _gap_victim(zones, tamper=kept)
    assert "ad" in victim.resolve_name(qname, asked[1], do=True).flags
    [reply] = replies
    proven = _proven_authority(reply)
    gaps = [entry for (zone, _), entry in victim.cache._gaps.items()]
    assert [gap.rrset.owner for gap in gaps] == [r.owner for r in proven
                                                 if r.rtype == RType.NSEC]
    for gap in gaps:
        nsec = next(gap.rrset.records())
        alone = [r for r in proven if r.rtype != RType.NSEC or r == nsec]
        assert gap.negative.authority == _proven_authority(replace(reply, authority=alone))


@pytest.mark.parametrize("asked, calls", [(("ns2", RType.A), 2), (("www", RType.MX), 3)],
                         ids=["positive", "nodata"])
def test_a_warm_lookup_finds_each_rrset_once(zones, monkeypatch, asked, calls):  # noqa: F811
    """With the DNSKEY cached, the walk finds the DNSKEY RRset and the answer
    RRset (or, for NODATA, the absent type and the absent alias) once each;
    the resolver finds nothing again."""
    network, victim = _gap_victim(zones)
    assert "ad" in victim.resolve_name(_name("www"), RType.A, do=True).flags
    counted = []
    records_of = DnsMessage.records_of

    def counting(msg, owner, rtype):
        counted.append((owner, rtype))
        return records_of(msg, owner, rtype)

    monkeypatch.setattr(DnsMessage, "records_of", counting)
    sent = network.transactions
    assert "ad" in victim.resolve_name(_name(asked[0]), asked[1], do=True).flags
    assert network.transactions == sent + 1
    assert len(counted) == calls


def test_a_link_from_the_cache_is_not_stored_again(zones):  # noqa: F811
    """Only the links a walk fetched upstream are cached: putting back the
    DNSKEY RRset the walk got from the cache would extend its life."""
    network, victim = _gap_victim(zones)
    assert "ad" in victim.resolve_name(_name("www"), RType.A, do=True).flags
    key = (APEX, RType.DNSKEY, 1)
    stored = victim.cache.get(key, network.clock())
    network.advance(LATER)
    assert "ad" in victim.resolve_name(_name("ns2"), RType.A, do=True).flags
    assert victim.cache.get(key, network.clock()) is stored
