"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import math
import random
import re
import time
from dataclasses import replace

import pytest

from dnsseclab.attack import AttackConfig, build_lab, run_attack
from dnsseclab.cli import main as cli_main
from dnsseclab.keystore import KeyRole, TrustAnchor, generate_key
from dnsseclab.message import Edns, decode_message, encode_message, make_query
from dnsseclab.names import DnsName, canonical_compare
from dnsseclab.records import ResourceRecord, RType, rdata_from_wire
from dnsseclab.server import AuthoritativeService, DnsServer, answer_authoritative
from dnsseclab.signer import SigningPolicy, sign_zone
from dnsseclab.validator import (Denial, Security, check_denial, pick,
                                 validate_chain)

from dnsseclab.zonefile import load_zone_file, parse_zone_file

from conftest import (APEX, FIXED_NOW, MA, ZONE_TEXT, make_fetcher,
                      random_message)
from test_names import small_universe


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number}] {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. Operator walkthrough: keygen -> include keys -> signzone -> serve
#    -> dig +dnssec
# ---------------------------------------------------------------------------

def test_criterion_1_walkthrough(tmp_path, monkeypatch, capsys):
    started = time.monotonic()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "domaine.ma").write_text(ZONE_TEXT)

    assert cli_main(["keygen", "-a", "RSASHA1", "-b", "2048", "-n", "ZONE",
                     "domaine.ma"]) == 0
    zsk_base = capsys.readouterr().out.strip()
    assert cli_main(["keygen", "-a", "RSASHA1", "-b", "2048", "-n", "ZONE",
                     "-f", "KSK", "domaine.ma"]) == 0
    ksk_base = capsys.readouterr().out.strip()

    # step (b): include the created keys in the zone file
    with open(tmp_path / "domaine.ma", "a") as handle:
        handle.write(f"$INCLUDE {zsk_base}.key\n$INCLUDE {ksk_base}.key\n")

    assert cli_main(["signzone", "-t", "-k", ksk_base, "domaine.ma",
                     zsk_base]) == 0
    sign_out = capsys.readouterr().out
    assert "Zone signing complete:" in sign_out
    signed_path = tmp_path / "domaine.ma.signed"
    assert signed_path.exists()

    zone = load_zone_file(signed_path, APEX)
    server = DnsServer([zone], address="127.0.0.1", port=0)
    server.start()
    try:
        code = cli_main(["dig", "-P", str(server.port), "domaine.ma",
                         "+dnssec", "@127.0.0.1"])
        dig_out = capsys.readouterr().out
    finally:
        server.shutdown()
    elapsed = time.monotonic() - started

    ok = (code == 0
          and "status: NOERROR" in dig_out
          and re.search(r";; flags: qr aa[ ;]", dig_out)
          and re.search(r"domaine\.ma\..*\tA\t192\.168\.1\.3", dig_out)
          and "RRSIG" in dig_out
          and elapsed < 10.0)
    report(1, bool(ok),
           f"keygen->include->signzone->serve->dig walkthrough, NOERROR with "
           f"qr aa and A+RRSIG in {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 2. Sign-then-validate: Secure on honest data, never Secure under >= 500
#    single-octet mutations (exact)
# ---------------------------------------------------------------------------

def _mutate_one_record(msg, rng) -> bool:
    sections = [section for _, section in msg.section_records() if section]
    if not sections:
        return False
    section = rng.choice(sections)
    index = rng.randrange(len(section))
    record = section[index]
    wire = bytearray(record.rdata.to_wire())
    if not wire:
        return False
    wire[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
    try:
        rdata, _ = rdata_from_wire(record.rtype, bytes(wire), 0, len(wire))
    except ValueError:
        return False
    # canonicalization-invariant rewrites (ASCII case inside names) are not
    # data changes and cannot be detected by design
    if rdata.canonical_wire() == record.rdata.canonical_wire():
        return False
    section[index] = ResourceRecord(record.owner, record.rtype, record.rclass,
                                    record.ttl, rdata)
    return True


@pytest.fixture(scope="module")
def tamper_fixture():
    """Two-zone chain signed so that every signature is load-bearing (a
    second DNSKEY signature would make its own corruption undetectable while
    the data stays validly signed by the other)."""
    policy = SigningPolicy(sign_dnskey_with_zsk=False)
    child_zsk = generate_key(APEX, KeyRole.ZSK, bits=1024, rng=91, now=FIXED_NOW)
    child_ksk = generate_key(APEX, KeyRole.KSK, bits=1024, rng=92, now=FIXED_NOW)
    parent_zsk = generate_key(MA, KeyRole.ZSK, bits=1024, rng=93, now=FIXED_NOW)
    parent_ksk = generate_key(MA, KeyRole.KSK, bits=1024, rng=94, now=FIXED_NOW)
    child = sign_zone(parse_zone_file(ZONE_TEXT, APEX), child_zsk, child_ksk,
                      policy, FIXED_NOW).zone
    from dnsseclab.signer import make_ds
    from conftest import PARENT_TEXT
    parent_plain = parse_zone_file(PARENT_TEXT, MA)
    parent_plain.records.append(make_ds(APEX, child_ksk.public, ttl=3600))
    parent = sign_zone(parent_plain, parent_zsk, parent_ksk, policy,
                       FIXED_NOW).zone
    return child, parent, parent_ksk


def test_criterion_2_sign_then_validate(tamper_fixture):
    child_zone, parent_zone, parent_ksk = tamper_fixture
    zones = [parent_zone, child_zone]
    anchors = [TrustAnchor(MA, parent_ksk.public)]
    qname = DnsName.from_text("www.domaine.ma.")
    honest_fetch = make_fetcher(zones)
    honest_answer = answer_authoritative(
        make_query(qname, RType.A, edns=Edns(do=True)), [child_zone])
    baseline = validate_chain(honest_answer, qname, RType.A, anchors,
                              honest_fetch, FIXED_NOW)
    assert baseline.status is Security.SECURE

    # every fetchable message is a mutation target: answer, DNSKEY sets, DS
    fetch_keys = [(APEX, RType.DNSKEY), (MA, RType.DNSKEY), (APEX, RType.DS)]
    rng = random.Random(20_25)
    mutations = 0
    secure_after_mutation = 0
    while mutations < 500:
        target = rng.randrange(len(fetch_keys) + 1)
        answer = answer_authoritative(
            make_query(qname, RType.A, edns=Edns(do=True)), [child_zone])
        poisoned_key = None
        poisoned_msg = None
        if target == len(fetch_keys):
            if not _mutate_one_record(answer, rng):
                continue
        else:
            poisoned_key = fetch_keys[target]
            poisoned_msg = honest_fetch(*poisoned_key)
            poisoned_msg = replace(
                poisoned_msg, answers=list(poisoned_msg.answers),
                authority=list(poisoned_msg.authority),
                additional=list(poisoned_msg.additional))
            if not _mutate_one_record(poisoned_msg, rng):
                continue

        def fetch(name, rtype):
            if poisoned_key is not None and (name, rtype) == poisoned_key:
                return poisoned_msg
            return honest_fetch(name, rtype)

        mutations += 1
        outcome = validate_chain(answer, qname, RType.A, anchors, fetch,
                                 FIXED_NOW)
        if outcome.status is Security.SECURE:
            secure_after_mutation += 1
    report(2, secure_after_mutation == 0,
           f"honest chain Secure; {mutations} single-octet mutations across "
           f"answer/RRSIG/DNSKEY/DS produced {secure_after_mutation} Secure "
           f"outcomes (required: exactly 0)")


# ---------------------------------------------------------------------------
# 3. NSEC denial soundness against a brute-force membership oracle
# ---------------------------------------------------------------------------

def test_criterion_3_denial_soundness():
    zsk = generate_key(APEX, KeyRole.ZSK, bits=512, rng=61, now=FIXED_NOW)
    ksk = generate_key(APEX, KeyRole.KSK, bits=512, rng=62, now=FIXED_NOW)
    zone = sign_zone(parse_zone_file(
        "$TTL 3600\n@ IN SOA ns.domaine.ma. admin 1 3600 900 604800 3600\n"
        "mail IN A 192.168.1.20\nwww IN A 192.168.1.10\n", APEX),
        zsk, ksk, SigningPolicy(), FIXED_NOW).zone
    keys = [zsk.public, ksk.public]
    owners = zone.owners()

    labels = ["a", "m", "maa", "mail", "mailz", "ns", "www", "wwz", "zz",
              "aaa", "n", "x1", "z-z"]
    universe = [APEX]
    for first in labels:
        universe.append(DnsName.from_text(f"{first}.domaine.ma."))
    for first in labels[:12]:
        for second in labels[:12]:
            universe.append(DnsName.from_text(f"{second}.{first}.domaine.ma."))
    universe = universe[:200]

    mismatches = []
    for qname in universe:
        reply = answer_authoritative(
            make_query(qname, RType.A, edns=Edns(do=True)), [zone])
        outcome = check_denial(qname, RType.A, pick(reply, qname, RType.A).witnesses,
                               keys, FIXED_NOW)
        absent = qname not in owners
        if (outcome.kind is Denial.NAME_DOES_NOT_EXIST) != absent:
            mismatches.append(qname)

    # the three conditions the denial logic implements, one case each:
    # (i) qname strictly between an NSEC owner and its next name
    ns = DnsName.from_text("ns.domaine.ma.")
    between = check_denial(
        ns, RType.A,
        pick(answer_authoritative(make_query(ns, RType.A, edns=Edns(do=True)), [zone]),
             ns, RType.A).witnesses, keys, FIXED_NOW)
    # (ii) the record type does not exist at a name that does
    # (iii) equivalently, the bit for that type is 0 in the bit vector
    mail = DnsName.from_text("mail.domaine.ma.")
    nodata_witnesses = pick(answer_authoritative(
        make_query(mail, 28, edns=Edns(do=True)), [zone]), mail, 28).witnesses
    nodata = check_denial(mail, 28, nodata_witnesses, keys, FIXED_NOW)
    bit_clear = all(28 not in w.rdata.type_bitmap for w, _ in nodata_witnesses)

    ok = (not mismatches
          and between.kind is Denial.NAME_DOES_NOT_EXIST
          and nodata.kind is Denial.TYPE_DOES_NOT_EXIST
          and bit_clear)
    report(3, bool(ok),
           f"check_denial agreed with the membership oracle on all "
           f"{len(universe)} names (mismatches: {len(mismatches)}); "
           f"gap, absent-type and zero-bit conditions each exercised")


# ---------------------------------------------------------------------------
# 4. Kaminsky statistics across 30 seeds; validation blocks every forgery
# ---------------------------------------------------------------------------

def test_criterion_4_kaminsky_statistics(signed_zone, ksk):
    started = time.monotonic()
    per_round = 100 / 65536
    analytic = 1.0 - (1.0 - per_round) ** 50  # independent recomputation
    assert math.isclose(analytic, 0.0735, abs_tol=5e-4)

    successes = trials = 0
    for seed in range(30):
        cfg = AttackConfig(mode="kaminsky", target_zone=APEX,
                           forged_per_query=100, query_rounds=50, trials=75,
                           seed=seed)
        lab = build_lab(cfg, signed_zone.zone)
        rep = run_attack(cfg, lab.victim, lab.network, lab.attacker)
        successes += rep.successes
        trials += rep.trials
    mean_rate = successes / trials

    accepted = matcher_hits = 0
    for seed in range(30):
        cfg = AttackConfig(mode="kaminsky", target_zone=APEX,
                           forged_per_query=100, query_rounds=50, trials=2,
                           seed=1000 + seed, validation=True)
        lab = build_lab(cfg, signed_zone.zone, (TrustAnchor(APEX, ksk.public),))
        rep = run_attack(cfg, lab.victim, lab.network, lab.attacker)
        accepted += rep.forged_accepted_post_validation
        assert rep.successes == 0
    matcher_hits = rep.forged_matcher_hits  # cumulative? per-lab network
    elapsed = time.monotonic() - started

    ok = abs(mean_rate - analytic) <= 0.02 and accepted == 0
    report(4, bool(ok),
           f"mean poisoning rate {mean_rate:.4f} vs analytic {analytic:.4f} "
           f"(|diff| = {abs(mean_rate - analytic):.4f} <= 0.02, "
           f"{trials} trials over 30 seeds); validating victim accepted "
           f"{accepted} forgeries (required 0); runtime {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Zone-size inflation for a 20-record zone with 2048-bit keys
# ---------------------------------------------------------------------------

def test_criterion_5_zone_inflation(tmp_path, monkeypatch, capsys):
    lines = ["$ORIGIN domaine.ma.", "$TTL 86400",
             "@\tIN\tSOA\tns admin.domaine.ma. 1 3600 900 604800 3600",
             "@\tIN\tNS\tns", "@\tIN\tMX\t10 mail",
             "@\tIN\tTXT\t\"inflation fixture\"", "ns\tIN\tA\t192.168.1.1"]
    lines += [f"h{i}\tIN\tA\t10.0.1.{i}" for i in range(15)]
    text = "\n".join(lines) + "\n"
    zone = parse_zone_file(text, APEX)
    assert len(zone.records) == 20

    monkeypatch.chdir(tmp_path)
    (tmp_path / "domaine.ma").write_text(text)
    assert cli_main(["keygen", "-b", "2048", "-n", "ZONE", "--seed", "81",
                     "domaine.ma"]) == 0
    zsk_base = capsys.readouterr().out.strip()
    assert cli_main(["keygen", "-b", "2048", "-n", "ZONE", "-f", "KSK",
                     "--seed", "82", "domaine.ma"]) == 0
    ksk_base = capsys.readouterr().out.strip()
    assert cli_main(["signzone", "-t", "-k", ksk_base, "domaine.ma",
                     zsk_base]) == 0
    out = capsys.readouterr().out

    unsigned = (tmp_path / "domaine.ma").stat().st_size
    signed = (tmp_path / "domaine.ma.signed").stat().st_size
    ratio = signed / unsigned
    printed = re.search(r"Signed/unsigned size ratio:\s+(\d+\.\d+)", out)
    ok = ratio >= 2.0 and printed and abs(float(printed.group(1)) - ratio) < 0.01
    report(5, bool(ok),
           f"20-record zone grew {ratio:.2f}x when signed (required >= 2.0x; "
           f"ratio printed in signzone stats for comparison with the 7x claim)")


# ---------------------------------------------------------------------------
# 6. Signature accounting against a brute-force count, stats block layout
# ---------------------------------------------------------------------------

def test_criterion_6_signature_accounting():
    zsk = generate_key(APEX, KeyRole.ZSK, bits=512, rng=71, now=FIXED_NOW)
    ksk = generate_key(APEX, KeyRole.KSK, bits=512, rng=72, now=FIXED_NOW)

    # R = 2 + 2k host A sets (+1 with an apex TXT). R = 1 is unreachable:
    # every zone carries at least the SOA RRset and its NSEC.
    shapes = {2: (0, False), 5: (1, True), 10: (4, False), 25: (11, True)}
    results = {}
    for target, (hosts, with_txt) in shapes.items():
        body = "@ IN SOA ns admin 1 3600 900 604800 300\n"
        if with_txt:
            body += '@ IN TXT "accounting"\n'
        body += "".join(f"h{i} IN A 10.0.0.{i + 1}\n" for i in range(hosts))
        zone = parse_zone_file("$TTL 300\n" + body, APEX)
        signed = sign_zone(zone, zsk, ksk, SigningPolicy(), FIXED_NOW)
        brute_force = 0
        for rrset in signed.zone.rrsets():
            if rrset.rtype in (RType.RRSIG, RType.DNSKEY):
                continue
            if rrset.rtype == RType.NS and rrset.owner != APEX:
                continue
            if signed.zone.is_glue(rrset.owner):
                continue
            brute_force += 1
        results[target] = (brute_force,
                           signed.stats.signatures_generated,
                           brute_force + 2)

    block = sign_zone(parse_zone_file(
        "$TTL 300\n@ IN SOA ns admin 1 3600 900 604800 300\n", APEX),
        zsk, ksk, SigningPolicy(), FIXED_NOW).stats.format_block()
    labels = [line.split(":")[0] + ":" for line in block.splitlines()]
    layout_ok = labels == [
        "Signatures generated:", "Signatures retained:", "Signatures dropped:",
        "Signatures successfully verified:",
        "Signatures unsuccessfully verified:",
        "Runtime in seconds:", "Signatures per second:"]

    counts_ok = all(brute == target and generated == expected
                    for target, (brute, generated, expected) in results.items())
    report(6, counts_ok and layout_ok,
           f"signatures_generated == R + 2 exactly for R in "
           f"{sorted(results)} (R = 1 is structurally impossible: a zone "
           f"always has an SOA RRset plus its NSEC, so R = 2 substitutes); "
           f"stats block labels in the expected order")


# ---------------------------------------------------------------------------
# 7. Codec round-trip x1000 and canonical ordering vs brute force (exact)
# ---------------------------------------------------------------------------

def test_criterion_7_codec_and_ordering():
    rng = random.Random(0xC0DEC)
    failures = 0
    for _ in range(1000):
        msg = random_message(rng)
        if decode_message(encode_message(msg)) != msg:
            failures += 1

    universe = small_universe()
    by_impl = sorted(universe, key=DnsName.canonical_key)
    by_oracle = sorted(universe,
                       key=lambda n: list(reversed([l.lower() for l in n.labels])))
    ordering_ok = by_impl == by_oracle
    total_order_ok = all(
        canonical_compare(a, b) == -canonical_compare(b, a)
        for a in universe[::37] for b in universe[::41])

    report(7, failures == 0 and ordering_ok and total_order_ok,
           f"1000/1000 message round-trips exact; canonical order matches the "
           f"reversed-label brute-force sort on all {len(universe)} "
           f"small-alphabet names")


# ---------------------------------------------------------------------------
# 8. Truncation at a 512-octet advertised size and complete TCP retry
# ---------------------------------------------------------------------------

def test_criterion_8_tcp_fallback(signed_zone):
    zone = signed_zone.zone
    service = AuthoritativeService([zone])
    query = make_query(APEX, RType.DNSKEY, id=8,
                       edns=Edns(do=True, udp_payload=512))
    wire = encode_message(query)

    full_size = len(service.handle_wire(wire, via_tcp=True))
    udp_reply = decode_message(service.handle_wire(wire, via_tcp=False))
    tcp_reply = decode_message(service.handle_wire(wire, via_tcp=True))

    expected = [(r.owner, r.rtype, r.rdata.to_wire())
                for r in zone.records_at(APEX, RType.DNSKEY)]
    expected += [(r.owner, r.rtype, r.rdata.to_wire())
                 for r in zone.records_at(APEX, RType.RRSIG)
                 if r.rdata.type_covered == RType.DNSKEY]
    got = [(r.owner, r.rtype, r.rdata.to_wire()) for r in tcp_reply.answers]

    ok = (full_size > 512
          and "tc" in udp_reply.flags
          and not udp_reply.answers
          and "tc" not in tcp_reply.flags
          and sorted(got) == sorted(expected))
    report(8, bool(ok),
           f"{full_size}-octet response truncated at udp 512 (tc set), tcp "
           f"retry returned all {len(got)} records matching the zone content "
           f"exactly")
