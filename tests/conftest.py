"""Shared fixtures: the reference zone, session-scoped keys, and a signed copy."""

import random

import pytest

from dnsseclab.keystore import KeyRole, generate_key, public_key_text
from dnsseclab.message import DnsMessage, Edns, Question
from dnsseclab.names import DnsName
from dnsseclab.records import (ARdata, CnameRdata, DnskeyRdata, DsRdata,
                               MxRdata, NsecRdata, NsRdata, ResourceRecord,
                               RrsigRdata, RType, SoaRdata, TxtRdata)
from dnsseclab.signer import SigningPolicy, sign_zone
from dnsseclab.zonefile import parse_zone_file

# A fixed validation instant well inside the signature window.
FIXED_NOW = 1_750_000_000

ZONE_TEXT = """\
$ORIGIN domaine.ma.
$TTL 86400
@\tIN\tSOA\tns admin.domaine.ma. 2011071101 3600 900 604800 3600
@\tIN\tNS\tns
@\tIN\tNS\tns2
@\tIN\tA\t192.168.1.3
@\tIN\tMX\t10 mail
@\tIN\tTXT\t"reference deployment"
ns\tIN\tA\t192.168.1.1
ns2\tIN\tA\t192.168.1.2
www\tIN\tA\t192.168.1.10
www\tIN\tA\t192.168.1.11
mail\tIN\tA\t192.168.1.20
ftp\tIN\tCNAME\twww
"""

APEX = DnsName.from_text("domaine.ma.")


@pytest.fixture(scope="session")
def apex():
    return APEX


@pytest.fixture()
def fixture_zone():
    return parse_zone_file(ZONE_TEXT, APEX)


@pytest.fixture(scope="session")
def zsk():
    return generate_key(APEX, KeyRole.ZSK, bits=2048, rng=42, now=FIXED_NOW)


@pytest.fixture(scope="session")
def ksk():
    return generate_key(APEX, KeyRole.KSK, bits=2048, rng=43, now=FIXED_NOW)


@pytest.fixture(scope="session")
def signed_zone(zsk, ksk):
    zone = parse_zone_file(ZONE_TEXT, APEX)
    return sign_zone(zone, zsk, ksk, SigningPolicy(), FIXED_NOW)


MA = DnsName.from_text("ma.")

PARENT_TEXT = """\
$ORIGIN ma.
$TTL 3600
@\tIN\tSOA\tns.ma. admin.ma. 2011071102 3600 900 604800 3600
@\tIN\tNS\tns.ma.
ns\tIN\tA\t192.168.1.100
domaine\tIN\tNS\tns.domaine.ma.
ns.domaine\tIN\tA\t192.168.1.1
other\tIN\tA\t192.168.1.200
"""


@pytest.fixture(scope="session")
def parent_zsk():
    return generate_key(MA, KeyRole.ZSK, bits=2048, rng=44, now=FIXED_NOW)


@pytest.fixture(scope="session")
def parent_ksk():
    return generate_key(MA, KeyRole.KSK, bits=2048, rng=45, now=FIXED_NOW)


@pytest.fixture(scope="session")
def parent_zone_signed(parent_zsk, parent_ksk, ksk):
    from dnsseclab.signer import make_ds
    zone = parse_zone_file(PARENT_TEXT, MA)
    zone.records.append(make_ds(APEX, ksk.public, ttl=3600))
    return sign_zone(zone, parent_zsk, parent_ksk, SigningPolicy(), FIXED_NOW)


def trust_anchor_line(key) -> str:
    """The final line of the key's public key file: the DNSKEY record a
    client installs (`tail -n 1`) as its trusted key."""
    return public_key_text(key).rstrip("\n").splitlines()[-1]


def make_fetcher(zones, counter=None):
    """Fetch callback for chain validation: answer DNSKEY/DS queries from the
    zone that authoritatively holds them (DS lives in the parent)."""
    from dnsseclab.message import make_query
    from dnsseclab.records import RType
    from dnsseclab.server import answer_authoritative

    def fetch(name, rtype):
        if counter is not None:
            counter[0] += 1
        candidates = sorted((z for z in zones if name.is_subdomain_of(z.apex)),
                            key=lambda z: len(z.apex.labels), reverse=True)
        if not candidates:
            raise AssertionError(f"no fixture zone holds {name}")
        zone = candidates[0]
        if rtype == RType.DS and name == zone.apex and len(candidates) > 1:
            zone = candidates[1]
        query = make_query(name, rtype, edns=Edns(do=True))
        return answer_authoritative(query, [zone])

    return fetch


# ---------------------------------------------------------------------------
# Random message generator (round-trip oracles)
# ---------------------------------------------------------------------------

_LABEL_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789-"


def random_name(rng: random.Random, max_labels: int = 4) -> DnsName:
    labels = []
    for _ in range(rng.randint(0, max_labels)):
        size = rng.randint(1, 12)
        labels.append("".join(rng.choice(_LABEL_CHARS) for _ in range(size)).encode())
    return DnsName(labels)


def random_rdata(rng: random.Random, rtype: int):
    if rtype == RType.A:
        return ARdata(".".join(str(rng.randint(0, 255)) for _ in range(4)))
    if rtype == RType.NS:
        return NsRdata(random_name(rng))
    if rtype == RType.CNAME:
        return CnameRdata(random_name(rng))
    if rtype == RType.SOA:
        return SoaRdata(random_name(rng), random_name(rng),
                        rng.randint(0, 2**32 - 1), 3600, 900, 604800, 3600)
    if rtype == RType.MX:
        return MxRdata(rng.randint(0, 65535), random_name(rng))
    if rtype == RType.TXT:
        return TxtRdata(tuple(bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
                              for _ in range(rng.randint(1, 3))))
    if rtype == RType.DNSKEY:
        return DnskeyRdata(rng.choice([256, 257]), 3, rng.choice([1, 5]),
                           bytes(rng.randrange(256) for _ in range(rng.randint(1, 64))))
    if rtype == RType.RRSIG:
        return RrsigRdata(rng.choice(list(RType)), 5, rng.randint(0, 4),
                          rng.randint(0, 2**31), rng.randint(0, 2**32 - 1),
                          rng.randint(0, 2**32 - 1), rng.randint(0, 65535),
                          random_name(rng),
                          bytes(rng.randrange(256) for _ in range(rng.randint(1, 64))))
    if rtype == RType.NSEC:
        return NsecRdata(random_name(rng),
                         frozenset(rng.randint(1, 300) for _ in range(rng.randint(1, 6))))
    if rtype == RType.DS:
        return DsRdata(rng.randint(0, 65535), 5, rng.choice([1, 2]),
                       bytes(rng.randrange(256) for _ in range(20)))
    raise AssertionError(rtype)


_RECORD_TYPES = [RType.A, RType.NS, RType.CNAME, RType.SOA, RType.MX, RType.TXT,
                 RType.DNSKEY, RType.RRSIG, RType.NSEC, RType.DS]


def random_record(rng: random.Random) -> ResourceRecord:
    rtype = rng.choice(_RECORD_TYPES)
    return ResourceRecord(random_name(rng), rtype, 1,
                          rng.randint(0, 2**31 - 1), random_rdata(rng, rtype))


def random_message(rng: random.Random) -> DnsMessage:
    flags = frozenset(f for f in ("qr", "aa", "tc", "rd", "ra", "ad", "cd")
                      if rng.random() < 0.3)
    edns = None
    if rng.random() < 0.5:
        edns = Edns(version=0, do=rng.random() < 0.5,
                    udp_payload=rng.choice([512, 1232, 4096]))
    return DnsMessage(
        id=rng.randint(0, 65535),
        flags=flags,
        rcode=rng.choice([0, 1, 2, 3, 5]),
        questions=[Question(random_name(rng), rng.choice(_RECORD_TYPES), 1)
                   for _ in range(rng.randint(0, 2))],
        answers=[random_record(rng) for _ in range(rng.randint(0, 4))],
        authority=[random_record(rng) for _ in range(rng.randint(0, 3))],
        additional=[random_record(rng) for _ in range(rng.randint(0, 3))],
        edns=edns,
    )
