"""Seeded input generation for the benchmark workloads.

Everything the program under test receives is made here from the workload
seed: zone texts, key files and query streams. The same seed gives the same
bytes, and `digest` fingerprints them so that two runs (a parent and a
change) can be shown to have worked on identical inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

from dnsseclab.keystore import KeyRole, generate_key, write_key_files
from dnsseclab.names import DnsName
from dnsseclab.records import DsRdata

#: Fixed signing and validation instant; also the simulated network's epoch.
NOW = 1_750_000_000
TTL = 3600

SIGN_APEX = DnsName.from_text("bench.example.")
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def digest(*parts: bytes | str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("ascii") if isinstance(part, str) else part)
    return h.hexdigest()[:16]


def labels(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        label = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(4, 10)))
        if label[0].isalpha() and label not in taken:
            taken.add(label)
            out.append(label)
    return out


def ip(rng: random.Random, prefix: str = "10") -> str:
    return f"{prefix}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"


# ---------------------------------------------------------------------------
# The signing zone, shared by `sign` and `serve`
# ---------------------------------------------------------------------------

@dataclass
class SignZone:
    """A generated zone and the model of its content that checkers use."""
    apex: DnsName
    text: str
    hosts: dict = field(default_factory=dict)       # label -> {rtype name: [rdata text]}
    delegations: dict = field(default_factory=dict)  # label -> (glue address, DS text | None)


def sign_zone_input(seed: int, names: int = 1000) -> SignZone:
    """A zone of `names` owner names below the apex: 10% delegations with
    glue (half of them with a DS), the rest hosts with an A RRset, 30% of
    all names with a second RRset (TXT or MX)."""
    rng = random.Random(f"sign-zone-{seed}")
    n_deleg = names // 10
    n_hosts = names - n_deleg
    taken = {"ns", "ns2", "mail"}
    host_labels = labels(rng, n_hosts, taken)
    deleg_labels = labels(rng, n_deleg, taken)
    second = set(rng.sample(host_labels, min(n_hosts, names * 3 // 10)))
    with_ds = set(rng.sample(deleg_labels, n_deleg // 2))

    zone = SignZone(SIGN_APEX, "")
    lines = [f"$ORIGIN {SIGN_APEX.to_text()}", f"$TTL {TTL}",
             f"@ IN SOA ns hostmaster {seed + 1} 3600 900 604800 {TTL}",
             "@ IN NS ns", "@ IN NS ns2",
             f"ns IN A {ip(rng)}", f"ns2 IN A {ip(rng)}",
             f"mail IN A {ip(rng)}"]
    for label in host_labels:
        rrsets = {"A": [ip(rng) for _ in range(rng.randint(1, 2))]}
        if label in second:
            if rng.random() < 0.5:
                rrsets["TXT"] = [f'"v={rng.getrandbits(64):016x}"']
            else:
                rrsets["MX"] = [f"{rng.randint(1, 50)} mail"]
        rrsets["A"] = sorted(set(rrsets["A"]))
        zone.hosts[label] = rrsets
        for rtype, values in rrsets.items():
            lines.extend(f"{label} IN {rtype} {value}" for value in values)
    for label in deleg_labels:
        glue = ip(rng, "172")
        ds = None
        lines.append(f"{label} IN NS ns.{label}")
        lines.append(f"ns.{label} IN A {glue}")
        if label in with_ds:
            ds = DsRdata(rng.randrange(65536), 5, 1,
                         rng.getrandbits(160).to_bytes(20, "big")).to_text()
            lines.append(f"{label} IN DS {ds}")
        zone.delegations[label] = (glue, ds)
    zone.text = "\n".join(lines) + "\n"
    return zone


def key_pair(apex: DnsName, seed: int, bits: int):
    """A seeded (ZSK, KSK) pair for `apex`."""
    return tuple(generate_key(apex, role, bits=bits,
                              rng=random.Random(f"key-{apex}-{seed}-{i}"), now=NOW)
                 for i, role in enumerate((KeyRole.ZSK, KeyRole.KSK)))


def write_keys(workdir: Path, apex: DnsName, seed: int, bits: int) -> tuple[str, str]:
    """Write the seeded pair as BIND-style key files; returns the two
    key-file base paths (ZSK, KSK)."""
    bases = [str(write_key_files(key, workdir)[0])[: -len(".key")]
             for key in key_pair(apex, seed, bits)]
    return bases[0], bases[1]
