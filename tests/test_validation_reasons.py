"""Every `Reason` that `validate_chain` can give, one row each.

A row pins the outcome's status, reason and chain, and the (name, type)
sequence the walk fetched. Failures are planted in the response or in the
replies the fetch callback returns: a wrong anchor key, a tampered RRSIG, a
DS reply stripped of its records, a clock outside the signature window, an
rcode rewritten over a valid denial, a real signed NSEC replayed where it
proves nothing (`hostile.FORGED_DENIALS`)."""

from dataclasses import dataclass, field, replace
from typing import Callable

import pytest

from dnsseclab.keystore import KeyRole, TrustAnchor, generate_key
from dnsseclab.message import DnsMessage, Edns, Rcode, make_query
from dnsseclab.names import DnsName
from dnsseclab.records import RType
from dnsseclab.server import answer_authoritative
from dnsseclab.signer import SigningPolicy, sign_zone
from dnsseclab.validator import Reason, Security, validate_chain
from dnsseclab.zonefile import parse_zone_file

from conftest import APEX, FIXED_NOW, MA, make_fetcher
from hostile import FORGED_DENIALS, forged_denial, signed_delegation

POLICY = SigningPolicy()
WWW = DnsName.from_text("www.domaine.ma.")
MAIL = DnsName.from_text("mail.domaine.ma.")
ABSENT = DnsName.from_text("absent.domaine.ma.")
PLAIN = DnsName.from_text("plain.ma.")
PLAIN_TEXT = ("$ORIGIN ma.\n$TTL 3600\n"
              "@ IN SOA ns.ma. admin 1 3600 900 604800 3600\n"
              "@ IN NS ns.ma.\nns IN A 192.168.1.100\n"
              "plain IN NS ns.plain.ma.\nns.plain IN A 192.168.1.50\n")
DNSKEY, DS = RType.DNSKEY, RType.DS


@dataclass
class Setup:
    response: DnsMessage
    qname: DnsName
    anchors: list
    zones: list
    now: int = FIXED_NOW
    qtype: int = RType.A
    #: (name, rtype, reply) -> the reply the fetch callback hands back
    tamper: Callable = field(default=lambda name, rtype, reply: reply)


def _answer(zone, qname, qtype=RType.A) -> DnsMessage:
    return answer_authoritative(make_query(qname, qtype, edns=Edns(do=True)), [zone])


def _map_rrsigs(msg: DnsMessage, covered: int, change) -> DnsMessage:
    """`msg` with `change` applied to the RDATA of every RRSIG over `covered`."""
    def fix(records):
        return [replace(r, rdata=change(r.rdata))
                if r.rtype == RType.RRSIG and r.rdata.type_covered == covered else r
                for r in records]
    return replace(msg, answers=fix(msg.answers), authority=fix(msg.authority))


def _flip_last_octet(sig):
    return replace(sig, signature=sig.signature[:-1] + bytes((sig.signature[-1] ^ 1,)))


@pytest.fixture(scope="module")
def world(signed_zone, parent_zone_signed, ksk, parent_ksk):
    small = {role: generate_key(MA, role, bits=512, rng=70 + i, now=FIXED_NOW)
             for i, role in enumerate((KeyRole.ZSK, KeyRole.KSK))}
    rogue_keys = [generate_key(APEX, role, bits=512, rng=72 + i, now=FIXED_NOW)
                  for i, role in enumerate((KeyRole.ZSK, KeyRole.KSK))]
    rogue = sign_zone(parse_zone_file(
        "$TTL 3600\n@ IN SOA ns admin 1 3600 900 604800 3600\nwww IN A 10.9.9.9\n",
        APEX), *rogue_keys, POLICY, FIXED_NOW).zone
    delegating, _, delegating_anchor = signed_delegation()
    return {
        "delegating": delegating,
        "delegating_ksk": delegating_anchor.dnskey,
        "child": signed_zone.zone,
        "parent": parent_zone_signed.zone,
        "rogue": rogue,
        "unsigned": parse_zone_file(
            "$TTL 300\n@ IN SOA ns admin 1 2 3 4 300\nwww IN A 10.0.0.1\n", APEX),
        "plain_parent": sign_zone(parse_zone_file(PLAIN_TEXT, MA), small[KeyRole.ZSK],
                                  small[KeyRole.KSK], POLICY, FIXED_NOW).zone,
        "plain": parse_zone_file(
            "$TTL 300\n@ IN SOA ns admin 1 2 3 4 300\nwww IN A 10.0.0.7\n", PLAIN),
        "ksk": ksk.public,
        "parent_ksk": parent_ksk.public,
        "small_ksk": small[KeyRole.KSK].public,
    }


def _secure_answer(w):
    return Setup(_answer(w["child"], WWW), WWW, [TrustAnchor(MA, w["parent_ksk"])],
                 [w["parent"], w["child"]])


def _secure_denial(w):
    return Setup(_answer(w["child"], ABSENT), ABSENT, [TrustAnchor(APEX, w["ksk"])],
                 [w["child"]])


def _secure_nodata(w):
    return Setup(_answer(w["child"], MAIL, RType.MX), MAIL,
                 [TrustAnchor(APEX, w["ksk"])], [w["child"]], qtype=RType.MX)


def _with_rcode(setup: Setup, rcode: int) -> Setup:
    return replace(setup, response=replace(setup.response, rcode=rcode))


def _nxdomain_over_nodata_proof(w):
    return _with_rcode(_secure_nodata(w), Rcode.NXDOMAIN)


def _noerror_over_nxdomain_proof(w):
    return _with_rcode(_secure_denial(w), Rcode.NOERROR)


def _no_anchor(w):
    return Setup(_answer(w["child"], WWW), WWW, [], [w["child"]])


def _signer_outside_anchor(w):
    response = _map_rrsigs(_answer(w["child"], WWW), RType.A,
                           lambda sig: replace(sig, signer_name=MA))
    return Setup(response, WWW, [TrustAnchor(APEX, w["ksk"])], [w["child"]])


def _anchor_key_not_in_dnskey_set(w):
    return Setup(_answer(w["child"], WWW), WWW, [TrustAnchor(APEX, w["parent_ksk"])],
                 [w["child"]])


def _ds_mismatch(w):
    return Setup(_answer(w["rogue"], WWW), WWW, [TrustAnchor(MA, w["parent_ksk"])],
                 [w["parent"], w["rogue"]])


def _no_dnskey_rrset(w):
    return Setup(_answer(w["unsigned"], WWW), WWW, [TrustAnchor(APEX, w["ksk"])],
                 [w["unsigned"]])


def _answer_signed_by_unknown_key(w):
    response = _map_rrsigs(_answer(w["child"], WWW), RType.A,
                           lambda sig: replace(sig, key_tag=(sig.key_tag + 1) & 0xFFFF))
    return Setup(response, WWW, [TrustAnchor(APEX, w["ksk"])], [w["child"]])


def _ds_reply_without_records(w):
    return Setup(_answer(w["child"], WWW), WWW, [TrustAnchor(MA, w["parent_ksk"])],
                 [w["parent"], w["child"]],
                 tamper=lambda name, rtype, reply:
                 replace(reply, answers=[]) if rtype == DS else reply)


def _ds_signature_broken(w):
    return Setup(_answer(w["child"], WWW), WWW, [TrustAnchor(MA, w["parent_ksk"])],
                 [w["parent"], w["child"]],
                 tamper=lambda name, rtype, reply:
                 _map_rrsigs(reply, DS, _flip_last_octet) if rtype == DS else reply)


def _answer_signature_broken(w):
    response = _map_rrsigs(_answer(w["child"], WWW), RType.A, _flip_last_octet)
    return Setup(response, WWW, [TrustAnchor(MA, w["parent_ksk"])],
                 [w["parent"], w["child"]])


def _clock_after_expiration(w):
    return Setup(_answer(w["child"], WWW), WWW, [TrustAnchor(APEX, w["ksk"])],
                 [w["child"]], now=FIXED_NOW + POLICY.validity)


def _clock_before_inception(w):
    return Setup(_answer(w["child"], WWW), WWW, [TrustAnchor(APEX, w["ksk"])],
                 [w["child"]], now=FIXED_NOW - POLICY.inception_skew - 1)


def _denial_signature_broken(w):
    response = _map_rrsigs(_answer(w["child"], ABSENT), RType.NSEC, _flip_last_octet)
    return Setup(response, ABSENT, [TrustAnchor(APEX, w["ksk"])], [w["child"]])


def _unsigned_delegation(w):
    qname = DnsName.from_text("www.plain.ma.")
    return Setup(_answer(w["plain"], qname), qname, [TrustAnchor(MA, w["small_ksk"])],
                 [w["plain_parent"], w["plain"]])


def _forged(case):
    def build(w):
        qname, qtype, response = forged_denial(w["delegating"], case)
        return Setup(response, qname, [TrustAnchor(APEX, w["delegating_ksk"])],
                     [w["delegating"]], qtype=qtype)
    return build


SECURE, INSECURE, BOGUS = Security.SECURE, Security.INSECURE, Security.BOGUS
ANCHOR = (("ma.", DNSKEY),)
DESCENT = ANCHOR + (("domaine.ma.", DS),)
FULL = DESCENT + (("domaine.ma.", DNSKEY),)
CHILD_ONLY = (("domaine.ma.", DNSKEY),)

# id: (setup, status, reason, chain as (zone, anchor-or-DS key), fetches)
CASES = {
    "secure-answer": (_secure_answer, SECURE, None,
                      (("ma.", "parent_ksk"), ("domaine.ma.", "ksk")), FULL),
    "secure-denial": (_secure_denial, SECURE, None, (("domaine.ma.", "ksk"),),
                      CHILD_ONLY),
    "secure-nodata": (_secure_nodata, SECURE, None, (("domaine.ma.", "ksk"),),
                      CHILD_ONLY),
    "no-anchor": (_no_anchor, INSECURE, Reason.NO_ANCHOR, (), ()),
    "anchor-mismatch-signer": (_signer_outside_anchor, BOGUS, Reason.ANCHOR_MISMATCH,
                               (), ()),
    "anchor-mismatch-key": (_anchor_key_not_in_dnskey_set, BOGUS,
                            Reason.ANCHOR_MISMATCH, (), CHILD_ONLY),
    "ds-mismatch": (_ds_mismatch, BOGUS, Reason.DS_MISMATCH,
                    (("ma.", "parent_ksk"),), FULL),
    "missing-dnskey-rrset": (_no_dnskey_rrset, BOGUS, Reason.MISSING_DNSKEY, (),
                             CHILD_ONLY),
    "missing-dnskey-key-tag": (_answer_signed_by_unknown_key, BOGUS,
                               Reason.MISSING_DNSKEY, (("domaine.ma.", "ksk"),),
                               CHILD_ONLY),
    "missing-ds-proof": (_ds_reply_without_records, BOGUS, Reason.MISSING_DS_PROOF,
                         (("ma.", "parent_ksk"),), DESCENT),
    "bad-signature-ds": (_ds_signature_broken, BOGUS, Reason.BAD_SIGNATURE,
                         (("ma.", "parent_ksk"),), DESCENT),
    "bad-signature-answer": (_answer_signature_broken, BOGUS, Reason.BAD_SIGNATURE,
                             (("ma.", "parent_ksk"), ("domaine.ma.", "ksk")), FULL),
    "expired": (_clock_after_expiration, BOGUS, Reason.EXPIRED, (), CHILD_ONLY),
    "not-yet-valid": (_clock_before_inception, BOGUS, Reason.NOT_YET_VALID, (),
                      CHILD_ONLY),
    "invalid-denial": (_denial_signature_broken, BOGUS, Reason.INVALID_DENIAL,
                       (("domaine.ma.", "ksk"),), CHILD_ONLY),
    "invalid-denial-nxdomain-over-nodata": (_nxdomain_over_nodata_proof, BOGUS,
                                            Reason.INVALID_DENIAL,
                                            (("domaine.ma.", "ksk"),), CHILD_ONLY),
    "invalid-denial-noerror-over-nxdomain": (_noerror_over_nxdomain_proof, BOGUS,
                                             Reason.INVALID_DENIAL,
                                             (("domaine.ma.", "ksk"),), CHILD_ONLY),
    **{f"invalid-denial-{case}": (_forged(case), BOGUS, Reason.INVALID_DENIAL,
                                  (("domaine.ma.", "delegating_ksk"),), CHILD_ONLY)
       for case in FORGED_DENIALS},
    "unsigned-delegation": (_unsigned_delegation, INSECURE, Reason.UNSIGNED_DELEGATION,
                            (("ma.", "small_ksk"),), ANCHOR + (("plain.ma.", DS),)),
}


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_reason_table(world, case):
    build, status, reason, chain, fetches = CASES[case]
    setup = build(world)
    seen = []
    plain_fetch = make_fetcher(setup.zones)

    def fetch(name, rtype):
        seen.append((name.to_text(), rtype))
        return setup.tamper(name, rtype, plain_fetch(name, rtype))

    outcome = validate_chain(setup.response, setup.qname, setup.qtype, setup.anchors,
                             fetch, setup.now)
    assert (outcome.status, outcome.reason) == (status, reason)
    assert outcome.chain == tuple((DnsName.from_text(zone), world[key].key_tag())
                                  for zone, key in chain)
    assert seen == list(fetches)


def test_table_reaches_every_reason():
    assert {row[2] for row in CASES.values()} == set(Reason) | {None}
