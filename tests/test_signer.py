import random
import re
from dataclasses import replace

import pytest

from dnsseclab.keystore import KeyRole, NotAKsk, generate_key
from dnsseclab.names import DnsName
from dnsseclab.records import (ARdata, DnskeyRdata, RRset, RType,
                               group_rrsets, rdata_from_wire)
from dnsseclab.signer import (KeyZoneMismatch, LegacyAlgorithm,
                              MissingDnskeyRecords, OutOfZoneOwner,
                              SignedZone, SigningPolicy, SigningStats,
                              authoritative_owners, build_nsec_chain, make_ds,
                              sign_rrset, sign_zone)
from dnsseclab.validator import SigCheck, UnsupportedDigest, match_ds, verify_rrsig
from dnsseclab.zonefile import parse_zone_file

from conftest import APEX, FIXED_NOW

POLICY = SigningPolicy()


def small_zsk():
    return generate_key(APEX, KeyRole.ZSK, bits=512, rng=11, now=FIXED_NOW)


def small_ksk():
    return generate_key(APEX, KeyRole.KSK, bits=512, rng=12, now=FIXED_NOW)


def zone_with_hosts(count, apex_extra=""):
    lines = [f"h{i} IN A 10.0.0.{i + 1}" for i in range(count)]
    text = ("$TTL 3600\n"
            "@ IN SOA ns admin 1 3600 900 604800 300\n"
            + apex_extra + "\n".join(lines) + "\n")
    return parse_zone_file(text, APEX)


# ---------------------------------------------------------------------------
# NSEC chain
# ---------------------------------------------------------------------------

def test_nsec_wraparound():
    zone = parse_zone_file(
        "$TTL 3600\n@ IN SOA ns admin 1 2 3 4 300\n"
        "mail IN A 10.0.0.1\nwww IN A 10.0.0.2\n", APEX)
    chained = build_nsec_chain(zone)
    www = DnsName.from_text("www.domaine.ma.")
    nsec = chained.records_at(www, RType.NSEC)[0]
    assert nsec.rdata.next_name == APEX
    assert nsec.ttl == 300  # SOA minimum


def test_nsec_singleton_chain():
    zone = parse_zone_file("$TTL 60\n@ IN SOA ns admin 1 2 3 4 60\n"
                           "@ IN NS ns.example.net.\n", APEX)
    # out-of-zone NS target is not a zone record; keep apex-only owner set
    chained = build_nsec_chain(zone)
    nsecs = [r for r in chained.records if r.rtype == RType.NSEC]
    assert len(nsecs) == 1
    assert nsecs[0].rdata.next_name == APEX
    assert {RType.SOA, RType.NS, RType.NSEC, RType.RRSIG} <= nsecs[0].rdata.type_bitmap


def test_nsec_chain_is_a_cycle_cover():
    zone = zone_with_hosts(7)
    chained = build_nsec_chain(zone)
    nsec_at = {r.owner: r.rdata.next_name for r in chained.records
               if r.rtype == RType.NSEC}
    seen = []
    cursor = APEX
    while True:
        seen.append(cursor)
        cursor = nsec_at[cursor]
        if cursor == APEX:
            break
    assert sorted(seen, key=DnsName.canonical_key) == authoritative_owners(zone)
    assert len(seen) == len(set(seen))


def test_nsec_rejects_existing_chain():
    chained = build_nsec_chain(zone_with_hosts(1))
    with pytest.raises(Exception):
        build_nsec_chain(chained)


def test_nsec_skips_glue():
    zone = parse_zone_file(
        "$TTL 300\n@ IN SOA ns admin 1 2 3 4 300\n"
        "child IN NS ns.child\nns.child IN A 10.0.0.5\n", APEX)
    chained = build_nsec_chain(zone)
    glue = DnsName.from_text("ns.child.domaine.ma.")
    cut = DnsName.from_text("child.domaine.ma.")
    assert not chained.records_at(glue, RType.NSEC)
    cut_nsec = chained.records_at(cut, RType.NSEC)[0]
    assert RType.NS in cut_nsec.rdata.type_bitmap
    assert RType.A not in cut_nsec.rdata.type_bitmap


# ---------------------------------------------------------------------------
# RRset signing
# ---------------------------------------------------------------------------

def test_rrsig_presentation_shape():
    zsk = small_zsk()
    rrset = RRset(APEX, RType.A, 1, 86400, (ARdata("192.168.1.3"),))
    rrsig = sign_rrset(rrset, zsk, POLICY, FIXED_NOW)
    text = rrsig.rdata.to_text()
    assert re.match(r"^A 5 2 86400 \d{14} \d{14} \d+ domaine\.ma\. ", text)
    assert rrsig.rdata.key_tag == zsk.key_tag
    assert rrsig.ttl == 86400


def test_sign_verify_inverse():
    zsk = small_zsk()
    rrset = RRset(APEX, RType.A, 1, 3600, (ARdata("10.0.0.1"), ARdata("10.0.0.2")))
    rrsig = sign_rrset(rrset, zsk, POLICY, FIXED_NOW)
    assert verify_rrsig(rrset, rrsig.rdata, zsk.public, FIXED_NOW) is SigCheck.VALID


def test_single_octet_flips_break_verification():
    zsk = small_zsk()
    rdata = ARdata("192.168.1.3")
    rrset = RRset(APEX, RType.A, 1, 3600, (rdata,))
    rrsig = sign_rrset(rrset, zsk, POLICY, FIXED_NOW).rdata
    rng = random.Random(50)
    wire = rdata.to_wire()
    for _ in range(50):
        mutated = bytearray(wire)
        mutated[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
        if bytes(mutated) == wire:
            continue
        flipped, _ = rdata_from_wire(RType.A, bytes(mutated), 0, len(mutated))
        changed = RRset(APEX, RType.A, 1, 3600, (flipped,))
        assert verify_rrsig(changed, rrsig, zsk.public, FIXED_NOW) \
            is not SigCheck.VALID


def test_sign_guards():
    zsk = small_zsk()
    outside = RRset(DnsName.from_text("other.example."), RType.A, 1, 60,
                    (ARdata("1.1.1.1"),))
    with pytest.raises(OutOfZoneOwner):
        sign_rrset(outside, zsk, POLICY, FIXED_NOW)
    legacy = replace(zsk, algorithm=1)
    rrset = RRset(APEX, RType.A, 1, 60, (ARdata("1.1.1.1"),))
    with pytest.raises(LegacyAlgorithm):
        sign_rrset(rrset, legacy, POLICY, FIXED_NOW)


def test_policy_invariants():
    with pytest.raises(ValueError):
        SigningPolicy(inception_skew=100, validity=100)
    with pytest.raises(ValueError):
        SigningPolicy(inception_skew=-1)


# ---------------------------------------------------------------------------
# Zone signing
# ---------------------------------------------------------------------------

def brute_force_signable_count(signed: SignedZone) -> int:
    """Independent count: signable RRsets in the output, DNSKEY included."""
    zone = signed.zone
    count = 0
    for rrset in group_rrsets(r for r in zone.records if r.rtype != RType.RRSIG):
        if zone.is_glue(rrset.owner):
            continue
        if rrset.rtype == RType.NS and rrset.owner != zone.apex:
            continue
        count += 1
    return count


def test_signature_counting_oracle():
    zsk, ksk = small_zsk(), small_ksk()
    # SOA + 4 host A sets + 5 NSEC = 10 non-DNSKEY signable RRsets.
    signed = sign_zone(zone_with_hosts(4), zsk, ksk, POLICY, FIXED_NOW)
    assert signed.stats.signatures_generated == 10 + 2
    assert signed.stats.signatures_generated == brute_force_signable_count(signed) + 1
    assert signed.stats.signatures_verified == signed.stats.signatures_generated
    assert signed.stats.signatures_failed == 0
    assert signed.keys_used == [zsk.key_tag, ksk.key_tag]


def test_dnskey_policy_variants():
    zsk, ksk = small_zsk(), small_ksk()
    zone = zone_with_hosts(1)
    ksk_only = SigningPolicy(sign_dnskey_with_zsk=False)
    signed = sign_zone(zone, zsk, ksk, ksk_only, FIXED_NOW)
    dnskey_sigs = [r for r in signed.zone.records
                   if r.rtype == RType.RRSIG and r.rdata.type_covered == RType.DNSKEY]
    assert len(dnskey_sigs) == 1 and dnskey_sigs[0].rdata.key_tag == ksk.key_tag


def test_every_rrset_has_a_covering_valid_rrsig(signed_zone, zsk, ksk):
    zone = signed_zone.zone
    keys = (zsk.public, ksk.public)
    for rrset in group_rrsets(r for r in zone.records if r.rtype != RType.RRSIG):
        if zone.is_glue(rrset.owner) or (rrset.rtype == RType.NS
                                         and rrset.owner != zone.apex):
            continue
        sigs = [r.rdata for r in zone.records
                if r.rtype == RType.RRSIG and r.owner == rrset.owner
                and r.rdata.type_covered == rrset.rtype]
        assert sigs, rrset
        assert any(verify_rrsig(rrset, sig, key, FIXED_NOW) is SigCheck.VALID
                   for sig in sigs for key in keys), rrset


def test_resigning_drops_previous_signatures():
    zsk, ksk = small_zsk(), small_ksk()
    zone = zone_with_hosts(2)
    first = sign_zone(zone, zsk, ksk, POLICY, FIXED_NOW)
    second = sign_zone(first.zone, zsk, ksk, POLICY, FIXED_NOW)
    assert second.stats.signatures_dropped == first.stats.signatures_generated
    assert second.stats.signatures_retained == 0
    assert second.stats.signatures_generated == first.stats.signatures_generated


def test_signing_is_deterministic():
    zsk, ksk = small_zsk(), small_ksk()
    a = sign_zone(zone_with_hosts(2), zsk, ksk, POLICY, FIXED_NOW)
    b = sign_zone(zone_with_hosts(2), zsk, ksk, POLICY, FIXED_NOW)
    assert a.zone == b.zone


def test_delegation_ns_not_signed():
    zsk, ksk = small_zsk(), small_ksk()
    zone = parse_zone_file(
        "$TTL 300\n@ IN SOA ns admin 1 2 3 4 300\n@ IN NS ns\nns IN A 10.0.0.1\n"
        "child IN NS ns.child\nns.child IN A 10.0.0.5\n", APEX)
    signed = sign_zone(zone, zsk, ksk, POLICY, FIXED_NOW)
    cut = DnsName.from_text("child.domaine.ma.")
    glue = DnsName.from_text("ns.child.domaine.ma.")
    covered_at_cut = {r.rdata.type_covered
                      for r in signed.zone.records_at(cut, RType.RRSIG)}
    assert RType.NS not in covered_at_cut
    assert RType.NSEC in covered_at_cut
    assert not signed.zone.records_at(glue, RType.RRSIG)
    # apex NS is authoritative and is signed
    apex_covered = {r.rdata.type_covered
                    for r in signed.zone.records_at(APEX, RType.RRSIG)}
    assert RType.NS in apex_covered


def test_key_zone_mismatch():
    zsk, ksk = small_zsk(), small_ksk()
    other = parse_zone_file("$TTL 60\n@ IN SOA ns admin 1 2 3 4 60\n",
                            DnsName.from_text("other.example."))
    with pytest.raises(KeyZoneMismatch):
        sign_zone(other, zsk, ksk, POLICY, FIXED_NOW)
    with pytest.raises(KeyZoneMismatch):
        sign_zone(zone_with_hosts(1), ksk, zsk, POLICY, FIXED_NOW)


def test_missing_dnskeys_without_auto_insert():
    zsk, ksk = small_zsk(), small_ksk()
    policy = SigningPolicy(auto_insert_dnskeys=False)
    with pytest.raises(MissingDnskeyRecords):
        sign_zone(zone_with_hosts(1), zsk, ksk, policy, FIXED_NOW)


def test_manually_included_dnskeys_are_respected():
    zsk, ksk = small_zsk(), small_ksk()
    zone = zone_with_hosts(1)
    zone.records.append(zsk.dnskey_record(3600))
    zone.records.append(ksk.dnskey_record(3600))
    policy = SigningPolicy(auto_insert_dnskeys=False)
    signed = sign_zone(zone, zsk, ksk, policy, FIXED_NOW)
    dnskeys = signed.zone.records_at(APEX, RType.DNSKEY)
    assert {r.rdata for r in dnskeys} == {zsk.public, ksk.public}


def test_stats_block_labels_and_order():
    stats = SigningStats(signatures_generated=23, runtime_seconds=0.141)
    block = stats.format_block().splitlines()
    labels = [line.split(":")[0] + ":" for line in block]
    assert labels == [
        "Signatures generated:",
        "Signatures retained:",
        "Signatures dropped:",
        "Signatures successfully verified:",
        "Signatures unsuccessfully verified:",
        "Runtime in seconds:",
        "Signatures per second:",
    ]
    assert block[0].endswith("23")
    assert re.search(r"Runtime in seconds:\s+0\.141", stats.format_block())


# ---------------------------------------------------------------------------
# DS records
# ---------------------------------------------------------------------------

def test_make_ds_deterministic():
    ksk = small_ksk()
    assert make_ds(APEX, ksk.public) == make_ds(APEX, ksk.public)


def test_ds_digest_lengths():
    ksk = small_ksk()
    assert len(make_ds(APEX, ksk.public, digest_type=1).rdata.digest) == 20
    assert len(make_ds(APEX, ksk.public, digest_type=2).rdata.digest) == 32


def test_ds_requires_ksk_and_known_digest():
    zsk, ksk = small_zsk(), small_ksk()
    with pytest.raises(NotAKsk):
        make_ds(APEX, zsk.public)
    with pytest.raises(UnsupportedDigest):
        make_ds(APEX, ksk.public, digest_type=9)


def test_ds_matches_only_its_source_key():
    ksk = small_ksk()
    ds = make_ds(APEX, ksk.public).rdata
    assert match_ds(ds, ksk.public, APEX)
    rng = random.Random(4)
    for seed in range(30):
        other = generate_key(APEX, KeyRole.KSK, bits=512, rng=100 + seed,
                             now=FIXED_NOW)
        assert not match_ds(ds, other.public, APEX)
    # synthetic tag override: matching tag, different key material
    forged = DnskeyRdata(257, 3, 5, bytes(rng.randrange(256) for _ in range(32)))
    forged_ds = replace(ds, key_tag=forged.key_tag())
    assert not match_ds(forged_ds, forged, APEX)
