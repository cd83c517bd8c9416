"""The attack lab's reports and simulated clock, pinned.

For each attack mode (Kaminsky with fixed and with random source ports, and
the on-path race), with and without validation, the sha256 covers
`format_machine()` and `repr(network.clock())` of the labs for attack seeds
0-9 and 1000-1009. The clock reads the time of every packet the victim's
transport tested, so a change in the order packets are tried, in where the
accepted one stood or in the seeded draws shows here even when the report
stays the same. The digests were taken from the packet-by-packet transport
that the guess-table one replaced. The two validating Kaminsky digests were
taken again when the resolver began to serve the walk's DNSKEY from its
cache: each of those labs sends 19 fewer DNSKEY fetches (40 transactions
become 21), and the ids drawn after them move. They were taken a third time
when the resolver began to answer names inside a validated NSEC gap from
its cache: each lab sends only its DNSKEY fetch and its first round (21
transactions become 2), its clock moves by the 19 rounds × 102 packets no
longer sent, and its report stays the same."""

import hashlib

import pytest

from dnsseclab.attack import AttackConfig, build_lab, run_attack
from dnsseclab.keystore import KeyRole, TrustAnchor, generate_key
from dnsseclab.signer import SigningPolicy, sign_zone
from dnsseclab.zonefile import parse_zone_file

from conftest import APEX, FIXED_NOW, ZONE_TEXT

SEEDS = (*range(10), *range(1000, 1010))

#: (mode, port mode, validation) -> sha256 over every seed's report and clock.
DIGESTS = {
    ("kaminsky", "fixed", False):
        "0abe3ef9db9970fc45d7be66f5d590ae3f00e5d3df5f5bcb47ff15d962901c16",
    ("kaminsky", "random", False):
        "6f5b846abaddfaca930073276f0d516adeb4054e7807059617cf36f2ec7bf79a",
    ("race", "fixed", False):
        "bbf057aa78dda8195110d26868201df4fd38fca96359c9e8dec0eff5c5db2e42",
    ("kaminsky", "fixed", True):
        "fffe804b1bfb2fa4742d6cdc113adaddb4e7dfba87f252e6ce4616d2815b48c1",
    ("kaminsky", "random", True):
        "2bb16e3932835f9c8c0c78f0610a13a512f513cf90445a5e270d9769cd7cc90a",
    ("race", "fixed", True):
        "f3dd69a2ffbf6fac3e08e345c0b1420c8b2258051d8f77875ddb708f95e68e8b",
}


@pytest.fixture(scope="module")
def lab_zone():
    zsk = generate_key(APEX, KeyRole.ZSK, bits=1024, rng=5, now=FIXED_NOW)
    ksk = generate_key(APEX, KeyRole.KSK, bits=1024, rng=6, now=FIXED_NOW)
    signed = sign_zone(parse_zone_file(ZONE_TEXT, APEX), zsk, ksk,
                       SigningPolicy(), FIXED_NOW)
    return signed.zone, TrustAnchor(APEX, ksk.public)


@pytest.mark.parametrize("mode, port_mode, validation", DIGESTS)
def test_reports_and_clock_match_the_pinned_digest(lab_zone, mode, port_mode,
                                                   validation):
    zone, anchor = lab_zone
    digest = hashlib.sha256()
    for seed in SEEDS:
        cfg = AttackConfig(mode=mode, target_zone=APEX, forged_per_query=100,
                           query_rounds=20 if validation else 50,
                           trials=1 if validation else 5, port_mode=port_mode,
                           seed=seed, validation=validation)
        lab = build_lab(cfg, zone, (anchor,) if validation else ())
        report = run_attack(cfg, lab.victim, lab.network, lab.attacker)
        digest.update(f"{report.format_machine()}\n{lab.network.clock()!r}\n".encode())
    assert digest.hexdigest() == DIGESTS[mode, port_mode, validation]
