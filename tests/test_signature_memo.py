"""A resolver verifies each RRSIG once: its memo of signature checks that passed.

`verify_rrsig` consults the memo after the key tag, algorithm, type, owner,
label and validity-window checks, and stores only passes, keyed by the key
RDATA, the signature and the signed data. The public-key work is counted
with a wrapper on `rsa.verify`."""

import sys
import threading
from dataclasses import replace

import pytest

from dnsseclab import rsa, validator
from dnsseclab.attack import AttackConfig, build_lab
from dnsseclab.keystore import KeyRole, TrustAnchor, encode_rsa_public, generate_key
from dnsseclab.message import Edns, Rcode, make_query
from dnsseclab.names import DnsName
from dnsseclab.netsim import SimNetwork, SimTransport
from dnsseclab.records import ARdata, DnskeyRdata, RRset, RType, key_tag_from_rdata
from dnsseclab.resolver import RecursiveResolver
from dnsseclab.server import answer_authoritative
from dnsseclab.signer import SigningPolicy, sign_rrset
from dnsseclab.validator import (Security, SigCheck, SignatureMemo, validate_chain,
                                 verify_rrsig)

from conftest import APEX, FIXED_NOW, MA, make_fetcher

POLICY = SigningPolicy()


@pytest.fixture()
def verifies(monkeypatch):
    """The number of `rsa.verify` calls made so far, as a one-item list."""
    count = [0]
    real = rsa.verify

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(rsa, "verify", counted)
    return count


@pytest.fixture(scope="module")
def small_zsk():
    return generate_key(APEX, KeyRole.ZSK, bits=512, rng=90, now=FIXED_NOW)


def _signed(key, address="192.168.1.3"):
    rrset = RRset(APEX, RType.A, 1, 3600, (ARdata(address),))
    return rrset, sign_rrset(rrset, key, POLICY, FIXED_NOW).rdata


def _with_tag(key: DnskeyRdata, public_key: bytes, tag: int) -> DnskeyRdata:
    """A DNSKEY with `key`'s flags and algorithm, `public_key` but for its
    last two octets, and those set so that its tag is `tag`."""
    for last in range(1 << 16):
        forged = replace(key, public_key=public_key[:-2] + last.to_bytes(2, "big"))
        if key_tag_from_rdata(forged.to_wire()) == tag:
            return forged
    raise AssertionError("no colliding tag")


def test_reference_lab_verifies_once_per_signature(signed_zone, ksk, verifies):
    cfg = AttackConfig(mode="kaminsky", target_zone=APEX, trials=1, query_rounds=3,
                       seed=1000, validation=True)
    victim = build_lab(cfg, signed_zone.zone, (TrustAnchor(APEX, ksk.public),)).victim
    per_lookup = []
    for qname in ("r0-0.domaine.ma.", "r0-1.domaine.ma.", "r0-2.domaine.ma."):
        before = verifies[0]
        reply = victim.resolve_name(DnsName.from_text(qname))
        assert reply.rcode == Rcode.NXDOMAIN and "ad" in reply.flags
        per_lookup.append(verifies[0] - before)
    # Cold: the anchor's DNSKEY RRset, the NSEC ns2 -> www and the SOA; warm:
    # none of them.
    assert per_lookup == [3, 0, 0]
    assert len(victim.signature_memo) == 3
    www = DnsName.from_text("www.domaine.ma.")
    for expected in (1, 0):  # the A RRset, then nothing once the cache is cleared
        before = verifies[0]
        assert "ad" in victim.resolve_name(www).flags
        assert verifies[0] - before == expected
        victim.cache.clear()


def test_every_link_of_a_second_walk_is_remembered(signed_zone, parent_zone_signed,
                                                    parent_ksk, verifies):
    anchors = [TrustAnchor(MA, parent_ksk.public)]
    fetch = make_fetcher([parent_zone_signed.zone, signed_zone.zone])
    memo = SignatureMemo()
    for qname, links in (("www.domaine.ma.", 4), ("absent.domaine.ma.", 2)):
        qname = DnsName.from_text(qname)
        response = answer_authoritative(make_query(qname, RType.A, edns=Edns(do=True)),
                                        [signed_zone.zone])
        # Anchor DNSKEY, DS, child DNSKEY and the answer, or its NSEC and SOA;
        # then none.
        for expected in (links, 0):
            before = verifies[0]
            outcome = validate_chain(response, qname, RType.A, anchors, fetch,
                                     FIXED_NOW, memo)
            assert outcome.status is Security.SECURE
            assert verifies[0] - before == expected


def test_a_remembered_pass_still_expires(small_zsk, verifies):
    rrset, sig = _signed(small_zsk)
    memo = SignatureMemo()
    assert verify_rrsig(rrset, sig, small_zsk.public, FIXED_NOW, memo) is SigCheck.VALID
    assert verifies[0] == 1
    outcomes = [verify_rrsig(rrset, sig, small_zsk.public, now, memo)
                for now in (sig.expiration, sig.expiration + 1, sig.inception - 1)]
    assert outcomes == [SigCheck.VALID, SigCheck.EXPIRED, SigCheck.NOT_YET_VALID]
    assert verifies[0] == 1


def test_a_remembered_pass_covers_only_its_rrset_and_key(small_zsk, verifies):
    rrset, sig = _signed(small_zsk)
    memo = SignatureMemo()
    assert verify_rrsig(rrset, sig, small_zsk.public, FIXED_NOW, memo) is SigCheck.VALID
    changed, _ = _signed(small_zsk, "192.168.1.4")
    assert verify_rrsig(changed, sig, small_zsk.public, FIXED_NOW, memo) \
        is SigCheck.BAD_SIGNATURE
    other = generate_key(APEX, KeyRole.ZSK, bits=512, rng=91, now=FIXED_NOW).public
    colliding = _with_tag(small_zsk.public, other.public_key, sig.key_tag)
    assert colliding.key_tag() == sig.key_tag and colliding != small_zsk.public
    assert verify_rrsig(rrset, sig, colliding, FIXED_NOW, memo) is SigCheck.BAD_SIGNATURE
    assert verifies[0] == 3
    assert len(memo) == 1


def test_a_failed_check_is_never_remembered(small_zsk, verifies):
    rrset, sig = _signed(small_zsk)
    broken = replace(sig, signature=sig.signature[:-1] + bytes((sig.signature[-1] ^ 1,)))
    memo = SignatureMemo()
    outcomes = [verify_rrsig(rrset, broken, small_zsk.public, FIXED_NOW, memo)
                for _ in range(3)]
    assert outcomes == [SigCheck.BAD_SIGNATURE] * 3
    assert verifies[0] == 3
    assert len(memo) == 0


def test_an_oversized_key_fails_without_public_key_work(small_zsk, verifies):
    rrset, sig = _signed(small_zsk)
    modulus = (1 << rsa.MAX_MODULUS_BITS) | 1  # one bit too many
    field = encode_rsa_public(rsa.RsaPublicKey(modulus, 65537))
    hostile = _with_tag(small_zsk.public, field, sig.key_tag)
    assert verify_rrsig(rrset, sig, hostile, FIXED_NOW, SignatureMemo()) \
        is SigCheck.BAD_SIGNATURE
    assert verifies[0] == 0


def test_the_memo_holds_at_most_its_bound(small_zsk, verifies, monkeypatch):
    monkeypatch.setattr(validator, "MEMO_CAPACITY", 4)
    signed = [_signed(small_zsk, f"10.0.0.{i}") for i in range(6)]
    memo = SignatureMemo()

    def check(*indices):
        for i in indices:
            assert verify_rrsig(*signed[i], small_zsk.public, FIXED_NOW, memo) \
                is SigCheck.VALID
            assert len(memo) <= 4

    check(0, 1, 2, 3, 0, 4, 5)  # 0 was used again, so 1 and 2 are dropped
    assert verifies[0] == 6
    check(0, 3, 4, 5)
    assert verifies[0] == 6
    check(1)
    assert verifies[0] == 7
    assert len(memo) == 4


def _validation_jobs(zone):
    """(response, qname, qtype) for Secure answers, denials and a Bogus answer
    of the reference zone."""
    def answer(text, qtype):
        qname = DnsName.from_text(text)
        return answer_authoritative(make_query(qname, qtype, edns=Edns(do=True)),
                                    [zone]), qname, qtype

    jobs = [answer(text, qtype) for text, qtype in (
        ("www.domaine.ma.", RType.A), ("mail.domaine.ma.", RType.A),
        ("domaine.ma.", RType.MX), ("ftp.domaine.ma.", RType.A),
        ("absent.domaine.ma.", RType.A), ("mail.domaine.ma.", RType.MX))]
    tampered, qname, qtype = answer("ns.domaine.ma.", RType.A)
    tampered.answers = [replace(r, rdata=replace(r.rdata, signature=b"\x00" * 256))
                        if r.rtype == RType.RRSIG else r for r in tampered.answers]
    return jobs + [(tampered, qname, qtype)]


def test_threads_share_one_resolvers_memo(signed_zone, ksk, monkeypatch):
    capacity = 3  # below the distinct passes, so entries are evicted under contention
    monkeypatch.setattr(validator, "MEMO_CAPACITY", capacity)
    jobs = _validation_jobs(signed_zone.zone)
    anchors = [TrustAnchor(APEX, ksk.public)]
    fetch = make_fetcher([signed_zone.zone])

    def validate(job, memo=None):
        response, qname, qtype = job
        return validate_chain(response, qname, qtype, anchors, fetch, FIXED_NOW, memo)

    expected = [validate(job) for job in jobs]
    assert {outcome.status for outcome in expected} == {Security.SECURE, Security.BOGUS}
    memo = RecursiveResolver(["192.0.2.1"],
                             SimTransport(SimNetwork(), "192.0.2.10")).signature_memo
    results, sizes = {}, []

    def worker(index):
        outcomes = []
        start = index % len(jobs)
        for job in (jobs[start:] + jobs[:start]) * 2:
            outcomes.append(validate(job, memo))
            sizes.append(len(memo))
        results[index] = outcomes

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
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
    assert len(results) == 8
    for index, outcomes in results.items():
        start = index % len(jobs)
        assert outcomes == (expected[start:] + expected[:start]) * 2
    assert max(sizes) <= capacity and len(memo) <= capacity
