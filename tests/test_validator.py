import random
from dataclasses import replace

import pytest

from dnsseclab.keystore import KeyRole, TrustAnchor, generate_key
from dnsseclab.message import Edns, make_query
from dnsseclab.names import DnsName
from dnsseclab.records import (ARdata, ResourceRecord, RRset,
                               RType, rdata_from_wire)
from dnsseclab.server import answer_authoritative
from dnsseclab.signer import SigningPolicy, make_ds, sign_rrset, sign_zone
from dnsseclab.validator import (Denial, Reason, Security, SigCheck, ValidationOutcome,
                                 check_denial, match_ds, pick, validate_chain,
                                 verify_rrsig)

from dnsseclab.zonefile import parse_zone_file

from conftest import APEX, FIXED_NOW, MA, make_fetcher, trust_anchor_line

POLICY = SigningPolicy()


@pytest.fixture(scope="module")
def small_keys():
    zsk = generate_key(APEX, KeyRole.ZSK, bits=512, rng=21, now=FIXED_NOW)
    ksk = generate_key(APEX, KeyRole.KSK, bits=512, rng=22, now=FIXED_NOW)
    return zsk, ksk


@pytest.fixture(scope="module")
def three_owner_zone(small_keys):
    """Signed zone whose authoritative owners are apex, mail and www."""
    text = ("$TTL 3600\n"
            "@ IN SOA ns.domaine.ma. admin 1 3600 900 604800 3600\n"
            "mail IN A 192.168.1.20\n"
            "www IN A 192.168.1.10\n")
    zone = parse_zone_file(text, APEX)
    return sign_zone(zone, *small_keys, POLICY, FIXED_NOW).zone


# ---------------------------------------------------------------------------
# verify_rrsig
# ---------------------------------------------------------------------------

def _signed_rrset(key, ttl=86400):
    rrset = RRset(APEX, RType.A, 1, ttl, (ARdata("192.168.1.3"),))
    rrsig = sign_rrset(rrset, key, POLICY, FIXED_NOW).rdata
    return rrset, rrsig


def test_verify_valid_inside_window(small_keys):
    zsk, _ = small_keys
    rrset, sig = _signed_rrset(zsk)
    assert verify_rrsig(rrset, sig, zsk.public, FIXED_NOW) is SigCheck.VALID
    assert verify_rrsig(rrset, sig, zsk.public, sig.expiration) is SigCheck.VALID
    assert verify_rrsig(rrset, sig, zsk.public, sig.inception) is SigCheck.VALID


def test_verify_expiry_boundaries(small_keys):
    zsk, _ = small_keys
    rrset, sig = _signed_rrset(zsk)
    assert verify_rrsig(rrset, sig, zsk.public, sig.expiration + 1) is SigCheck.EXPIRED
    assert verify_rrsig(rrset, sig, zsk.public, sig.inception - 1) \
        is SigCheck.NOT_YET_VALID


def test_verify_cache_aged_ttl_still_valid(small_keys):
    zsk, _ = small_keys
    rrset, sig = _signed_rrset(zsk, ttl=86400)
    aged = RRset(rrset.owner, rrset.rtype, rrset.rclass, 301, rrset.rdatas)
    assert verify_rrsig(aged, sig, zsk.public, FIXED_NOW) is SigCheck.VALID


def test_verify_wrong_key(small_keys):
    zsk, ksk = small_keys
    rrset, sig = _signed_rrset(zsk)
    assert verify_rrsig(rrset, sig, ksk.public, FIXED_NOW) is SigCheck.WRONG_KEY


def test_verify_bad_signature(small_keys):
    zsk, _ = small_keys
    rrset, sig = _signed_rrset(zsk)
    broken = replace(sig, signature=bytes(sig.signature[:-1]) + b"\x00")
    assert verify_rrsig(rrset, broken, zsk.public, FIXED_NOW) is SigCheck.BAD_SIGNATURE


def test_verify_is_pure(small_keys):
    zsk, _ = small_keys
    rrset, sig = _signed_rrset(zsk)
    outcomes = {verify_rrsig(rrset, sig, zsk.public, FIXED_NOW) for _ in range(5)}
    assert outcomes == {SigCheck.VALID}


# ---------------------------------------------------------------------------
# match_ds
# ---------------------------------------------------------------------------

def test_match_ds_inverse_and_perturbation(small_keys):
    _, ksk = small_keys
    ds = make_ds(APEX, ksk.public).rdata
    assert match_ds(ds, ksk.public, APEX)
    for i in range(len(ds.digest)):
        flipped = bytearray(ds.digest)
        flipped[i] ^= 0x01
        assert not match_ds(replace(ds, digest=bytes(flipped)), ksk.public, APEX)
    assert not match_ds(replace(ds, digest_type=9), ksk.public, APEX)


# ---------------------------------------------------------------------------
# check_denial
# ---------------------------------------------------------------------------

def _witnesses_for(zone, qname, qtype=RType.A):
    reply = answer_authoritative(
        make_query(qname, qtype, edns=Edns(do=True)), [zone])
    return pick(reply, qname, qtype).witnesses


def test_denial_absent_name(three_owner_zone, small_keys):
    keys = [k.public for k in small_keys]
    qname = DnsName.from_text("ns.domaine.ma.")
    witnesses = _witnesses_for(three_owner_zone, qname)
    assert witnesses[0][0].owner == DnsName.from_text("mail.domaine.ma.")
    assert witnesses[0][0].rdata.next_name == DnsName.from_text("www.domaine.ma.")
    outcome = check_denial(qname, RType.A, witnesses, keys, FIXED_NOW)
    assert outcome.kind is Denial.NAME_DOES_NOT_EXIST


def test_denial_absent_type(three_owner_zone, small_keys):
    keys = [k.public for k in small_keys]
    qname = DnsName.from_text("mail.domaine.ma.")
    witnesses = _witnesses_for(three_owner_zone, qname, qtype=28)  # AAAA
    outcome = check_denial(qname, 28, witnesses, keys, FIXED_NOW)
    assert outcome.kind is Denial.TYPE_DOES_NOT_EXIST
    bitmap = outcome.witness[0].rdata.type_bitmap
    assert RType.A in bitmap and 28 not in bitmap


def test_denial_invalid_witness_signature(three_owner_zone, small_keys):
    keys = [k.public for k in small_keys]
    qname = DnsName.from_text("ns.domaine.ma.")
    witnesses = _witnesses_for(three_owner_zone, qname)
    nsec, sig = witnesses[0]
    broken_rdata = replace(sig.rdata,
                           signature=b"\x00" + bytes(sig.rdata.signature[1:]))
    broken = ResourceRecord(sig.owner, sig.rtype, sig.rclass, sig.ttl, broken_rdata)
    outcome = check_denial(qname, RType.A, [(nsec, broken)], keys, FIXED_NOW)
    assert outcome.kind is Denial.INVALID_PROOF


def test_denial_no_proof_without_witnesses(small_keys):
    keys = [k.public for k in small_keys]
    outcome = check_denial(DnsName.from_text("x.domaine.ma."), RType.A, [],
                           keys, FIXED_NOW)
    assert outcome.kind is Denial.NO_PROOF


def test_denial_wraparound(three_owner_zone, small_keys):
    keys = [k.public for k in small_keys]
    qname = DnsName.from_text("zz.domaine.ma.")  # sorts after www
    witnesses = _witnesses_for(three_owner_zone, qname)
    outcome = check_denial(qname, RType.A, witnesses, keys, FIXED_NOW)
    assert outcome.kind is Denial.NAME_DOES_NOT_EXIST
    assert outcome.witness[0].rdata.next_name == APEX


def test_denial_soundness_against_membership_oracle(three_owner_zone, small_keys):
    keys = [k.public for k in small_keys]
    owners = three_owner_zone.owners()
    labels = ["a", "m", "maik", "mail", "mailz", "ns", "www", "wwz", "zz", "b0"]
    universe = [APEX]
    for first in labels:
        universe.append(DnsName.from_text(f"{first}.domaine.ma."))
        for second in labels[:8]:
            universe.append(DnsName.from_text(f"{second}.{first}.domaine.ma."))
    assert len(universe) <= 200
    for qname in universe:
        witnesses = _witnesses_for(three_owner_zone, qname)
        outcome = check_denial(qname, RType.A, witnesses, keys, FIXED_NOW)
        absent = qname not in owners
        assert (outcome.kind is Denial.NAME_DOES_NOT_EXIST) == absent, qname


# ---------------------------------------------------------------------------
# validate_chain
# ---------------------------------------------------------------------------

def _answer_for(zone, qname, qtype=RType.A):
    return answer_authoritative(make_query(qname, qtype, edns=Edns(do=True)),
                                [zone])


_RECORD = ResourceRecord(APEX, RType.A, 1, 300, ARdata("192.168.1.3"))
_WITNESS = (_RECORD, _RECORD)
_LINK = (APEX, RType.DNSKEY, (_RECORD,))


@pytest.mark.parametrize("fields", [
    dict(status=Security.SECURE, answer=(_RECORD,)),
    dict(status=Security.SECURE, answer=(_RECORD,), links=(_LINK,)),
    dict(status=Security.SECURE, authority=(_RECORD,), witnesses=(_WITNESS,)),
    dict(status=Security.INSECURE, reason=Reason.UNSIGNED_DELEGATION, chain=((APEX, 1),)),
    dict(status=Security.BOGUS, reason=Reason.BAD_SIGNATURE, chain=((APEX, 1),)),
], ids=["answer", "answer-links", "denial", "insecure", "bogus"])
def test_outcome_shapes_that_hold(fields):
    ValidationOutcome(**fields)


@pytest.mark.parametrize("fields", [
    dict(status=Security.SECURE),
    dict(status=Security.SECURE, links=(_LINK,)),
    dict(status=Security.SECURE, answer=(_RECORD,), authority=(_RECORD,),
         witnesses=(_WITNESS,)),
    dict(status=Security.SECURE, authority=(_RECORD,)),
    dict(status=Security.SECURE, witnesses=(_WITNESS,)),
    dict(status=Security.SECURE, answer=(_RECORD,), witnesses=(_WITNESS,)),
    dict(status=Security.INSECURE, reason=Reason.NO_ANCHOR, answer=(_RECORD,)),
    dict(status=Security.INSECURE, reason=Reason.UNSIGNED_DELEGATION, links=(_LINK,)),
    dict(status=Security.BOGUS, reason=Reason.INVALID_DENIAL, authority=(_RECORD,),
         witnesses=(_WITNESS,)),
    dict(status=Security.BOGUS),
], ids=["secure-empty", "secure-links-only", "secure-both", "secure-authority-only",
        "secure-witnesses-only", "secure-answer-witnesses", "insecure-answer",
        "insecure-links", "bogus-denial", "bogus-no-reason"])
def test_outcome_shapes_that_are_refused(fields):
    """Secure carries an answer or a denial, never both nor neither; Insecure
    and Bogus carry no verified records; Bogus names its reason."""
    with pytest.raises(ValueError):
        ValidationOutcome(**fields)


def test_single_zone_secure(signed_zone, ksk):
    zone = signed_zone.zone
    anchors = [TrustAnchor(APEX, ksk.public)]
    response = _answer_for(zone, APEX)
    outcome = validate_chain(response, APEX, RType.A, anchors,
                             make_fetcher([zone]), FIXED_NOW)
    assert outcome.status is Security.SECURE
    assert outcome.chain == ((APEX, ksk.key_tag),)


def test_no_anchor_is_insecure(signed_zone):
    zone = signed_zone.zone
    response = _answer_for(zone, APEX)
    outcome = validate_chain(response, APEX, RType.A, [],
                             make_fetcher([zone]), FIXED_NOW)
    assert outcome.status is Security.INSECURE
    assert outcome.reason is Reason.NO_ANCHOR


def test_fetch_failures_are_not_bogus(signed_zone, ksk):
    from dnsseclab.validator import FetchFailure
    zone = signed_zone.zone
    anchors = [TrustAnchor(APEX, ksk.public)]
    response = _answer_for(zone, APEX)

    def broken_fetch(name, rtype):
        raise OSError("network unplugged")

    with pytest.raises(FetchFailure):
        validate_chain(response, APEX, RType.A, anchors, broken_fetch,
                       FIXED_NOW)


def test_exported_anchor_line_bootstraps_validation(signed_zone, ksk):
    # the line a client installs via `tail -n 1` is enough to trust the zone
    from dnsseclab.keystore import parse_trust_anchors
    anchors = parse_trust_anchors(trust_anchor_line(ksk))
    zone = signed_zone.zone
    response = _answer_for(zone, APEX)
    outcome = validate_chain(response, APEX, RType.A, anchors,
                             make_fetcher([zone]), FIXED_NOW)
    assert outcome.status is Security.SECURE


def test_two_zone_chain_secure(signed_zone, parent_zone_signed, parent_ksk):
    zones = [parent_zone_signed.zone, signed_zone.zone]
    anchors = [TrustAnchor(MA, parent_ksk.public)]
    qname = DnsName.from_text("www.domaine.ma.")
    response = _answer_for(signed_zone.zone, qname)
    outcome = validate_chain(response, qname, RType.A, anchors,
                             make_fetcher(zones), FIXED_NOW)
    assert outcome.status is Security.SECURE
    assert [link[0] for link in outcome.chain] == [MA, APEX]


def test_secure_denial_through_chain(signed_zone, ksk):
    zone = signed_zone.zone
    anchors = [TrustAnchor(APEX, ksk.public)]
    qname = DnsName.from_text("absent.domaine.ma.")
    response = _answer_for(zone, qname)
    outcome = validate_chain(response, qname, RType.A, anchors,
                             make_fetcher([zone]), FIXED_NOW)
    assert outcome.status is Security.SECURE


def test_swapped_child_key_is_bogus_ds_mismatch(parent_zone_signed, parent_ksk):
    # Child re-signed under a different KSK after the parent DS was created.
    rogue_zsk = generate_key(APEX, KeyRole.ZSK, bits=512, rng=31, now=FIXED_NOW)
    rogue_ksk = generate_key(APEX, KeyRole.KSK, bits=512, rng=32, now=FIXED_NOW)
    text = ("$TTL 3600\n@ IN SOA ns admin 1 3600 900 604800 3600\n"
            "www IN A 10.9.9.9\n")
    rogue = sign_zone(parse_zone_file(text, APEX), rogue_zsk, rogue_ksk,
                      POLICY, FIXED_NOW).zone
    zones = [parent_zone_signed.zone, rogue]
    anchors = [TrustAnchor(MA, parent_ksk.public)]
    qname = DnsName.from_text("www.domaine.ma.")
    response = _answer_for(rogue, qname)
    outcome = validate_chain(response, qname, RType.A, anchors,
                             make_fetcher(zones), FIXED_NOW)
    assert outcome.status is Security.BOGUS
    assert outcome.reason is Reason.DS_MISMATCH


def test_unsigned_delegation_is_insecure(parent_zsk, parent_ksk):
    # Parent delegates without a DS record: child data validates as Insecure.
    text = ("$ORIGIN ma.\n$TTL 3600\n"
            "@ IN SOA ns.ma. admin 1 3600 900 604800 3600\n"
            "@ IN NS ns.ma.\nns IN A 192.168.1.100\n"
            "plain IN NS ns.plain.ma.\nns.plain IN A 192.168.1.50\n")
    parent = sign_zone(parse_zone_file(text, MA), parent_zsk, parent_ksk,
                       POLICY, FIXED_NOW).zone
    child_apex = DnsName.from_text("plain.ma.")
    child = parse_zone_file(
        "$TTL 300\n@ IN SOA ns admin 1 2 3 4 300\nwww IN A 10.0.0.7\n",
        child_apex)
    anchors = [TrustAnchor(MA, parent_ksk.public)]
    qname = DnsName.from_text("www.plain.ma.")
    response = _answer_for(child, qname)
    outcome = validate_chain(response, qname, RType.A, anchors,
                             make_fetcher([parent, child]), FIXED_NOW)
    assert outcome.status is Security.INSECURE
    assert outcome.reason is Reason.UNSIGNED_DELEGATION


def test_expired_window_is_bogus(small_keys, three_owner_zone):
    zsk, ksk = small_keys
    anchors = [TrustAnchor(APEX, ksk.public)]
    qname = DnsName.from_text("www.domaine.ma.")
    response = _answer_for(three_owner_zone, qname)
    late = FIXED_NOW + POLICY.validity + 10
    outcome = validate_chain(response, qname, RType.A, anchors,
                             make_fetcher([three_owner_zone]), late)
    assert outcome.status is Security.BOGUS
    assert outcome.reason is Reason.EXPIRED


def test_unsigned_answer_against_anchor_is_bogus(small_keys):
    _, ksk = small_keys
    unsigned = parse_zone_file(
        "$TTL 300\n@ IN SOA ns admin 1 2 3 4 300\nwww IN A 10.0.0.1\n", APEX)
    anchors = [TrustAnchor(APEX, ksk.public)]
    qname = DnsName.from_text("www.domaine.ma.")
    response = _answer_for(unsigned, qname)
    outcome = validate_chain(response, qname, RType.A, anchors,
                             make_fetcher([unsigned]), FIXED_NOW)
    assert outcome.status is Security.BOGUS


def _mutate_message_records(msg, rng):
    """Flip one rdata octet somewhere in the message. Skips flips that do not
    parse, and flips that leave the value unchanged (an ASCII case flip inside
    a name is canonicalized away, so it is not a data change)."""
    candidates = [(s, i) for s, section in msg.section_records()
                  for i in range(len(section))]
    section_name, index = rng.choice(candidates)
    section = dict(msg.section_records())[section_name]
    record = section[index]
    wire = bytearray(record.rdata.to_wire())
    if not wire:
        return False
    wire[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
    try:
        rdata, _ = rdata_from_wire(record.rtype, bytes(wire), 0, len(wire))
    except ValueError:
        return False
    if rdata == record.rdata or rdata.canonical_wire() == record.rdata.canonical_wire():
        return False
    section[index] = ResourceRecord(record.owner, record.rtype,
                                    record.rclass, record.ttl, rdata)
    return True


def test_tamper_detection_sample(three_owner_zone, small_keys):
    zsk, ksk = small_keys
    anchors = [TrustAnchor(APEX, ksk.public)]
    qname = DnsName.from_text("www.domaine.ma.")
    fetch = make_fetcher([three_owner_zone])
    rng = random.Random(77)
    mutated_runs = 0
    for _ in range(150):
        response = _answer_for(three_owner_zone, qname)
        if not _mutate_message_records(response, rng):
            continue
        mutated_runs += 1
        outcome = validate_chain(response, qname, RType.A, anchors, fetch,
                                 FIXED_NOW)
        assert outcome.status is not Security.SECURE
    assert mutated_runs > 100


def test_anchor_removal_is_monotonic(signed_zone, parent_zone_signed,
                                     ksk, parent_ksk):
    zones = [parent_zone_signed.zone, signed_zone.zone]
    fetch = make_fetcher(zones)
    qname = DnsName.from_text("www.domaine.ma.")
    response = _answer_for(signed_zone.zone, qname)
    full = [TrustAnchor(MA, parent_ksk.public), TrustAnchor(APEX, ksk.public)]
    subsets = [full, full[:1], full[1:], []]
    outcomes = [validate_chain(response, qname, RType.A, anchors, fetch,
                               FIXED_NOW).status for anchors in subsets]
    for bigger, smaller in ((0, 1), (0, 2), (1, 3), (2, 3)):
        if outcomes[bigger] is not Security.SECURE:
            assert outcomes[smaller] is not Security.SECURE
