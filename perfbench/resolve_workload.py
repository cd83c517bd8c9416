"""`resolve`: what a validating resolver does. A `RecursiveResolver` behind a
`GatewayService` with no local zones is fed wire queries (rd=1, DO=1) over a
`SimNetwork`. The hierarchy: an unsigned root, a signed `test.` whose KSK is
the trust anchor, and 20 child zones of 50 names; 16 children are signed
with a DS in `test.`, 4 are unsigned and an NSEC proves each of those
delegations insecure. Names follow a seeded Zipf (s=1) over the 1 000 names;
10% are fresh nonexistent names, which churn the LRU cache. Set-up fills the
default 4 096-entry cache: first with stand-ins for earlier traffic
(negative entries of names that are never queried), then with a warm-up pass
of the query stream, which evicts the oldest stand-ins. So every entry the
timed pass stores evicts one. (Resolving 3 400 fresh names to fill it, at
2-3.5 ms each on the reference machine, would take 7-12 s per set-up.) One
op is one resolution; a hit is an op that caused no simulated transaction.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from pathlib import Path

from dnsseclab import netsim, resolver, server, signer, zonefile
from dnsseclab.keystore import TrustAnchor
from dnsseclab.message import DnsMessage, Edns, Rcode, decode_message, encode_message, make_query
from dnsseclab.names import DnsName
from dnsseclab.records import RType

import gen
from common import RunResult
from tracing import paused

WHY = ("misses run iterative resolution, validate_chain and rsa.verify; hits only "
       "the Cache; fresh NX names churn the LRU")
SETUP_REPS = 3
KEY_BITS = 1024
SIZES = {"full": (20, 16, 50), "tiny": (3, 2, 5)}  # children, signed, names each
NX_SHARE = 0.10
WARMUP_OPS = 2000
CLIENT = "192.0.2.1"
ROOT_ADDRESS = "10.0.0.1"
TEST_ADDRESS = "10.0.0.2"
TEST = DnsName.from_text("test.")


@dataclass
class Inputs:
    zones: dict        # address -> signed or unsigned Zone
    anchor: TrustAnchor
    names: list        # (qname, expected address, signed child?)
    children: list     # (child apex, signed?)
    seed: int
    digest: str


def generate(seed: int, size: str, workdir: Path) -> Inputs:
    n_children, n_signed, per_child = SIZES[size]
    rng = random.Random(f"resolve-{seed}")
    policy = signer.SigningPolicy()
    zones, names, children, texts = {}, [], [], []
    test_lines = ["$ORIGIN test.", f"$TTL {gen.TTL}",
                  f"@ IN SOA ns hostmaster 1 3600 900 604800 {gen.TTL}",
                  "@ IN NS ns", f"ns IN A {TEST_ADDRESS}"]
    ds_records = []
    labels = gen.labels(rng, n_children, {"ns"})
    for j, label in enumerate(labels):
        apex = DnsName.from_text(f"{label}.test.")
        address = f"10.1.{j}.1"
        is_signed = j < n_signed
        lines = [f"$ORIGIN {apex.to_text()}", f"$TTL {gen.TTL}",
                 f"@ IN SOA ns hostmaster 1 3600 900 604800 {gen.TTL}",
                 "@ IN NS ns", f"ns IN A {address}"]
        for host in gen.labels(rng, per_child, {"ns"}):
            host_ip = gen.ip(rng)
            lines.append(f"{host} IN A {host_ip}")
            names.append((DnsName.from_text(host, apex), host_ip, is_signed))
        text = "\n".join(lines) + "\n"
        texts.append(text)
        zone = zonefile.parse_zone_file(text, apex)
        if is_signed:
            zsk, ksk = gen.key_pair(apex, seed, KEY_BITS)
            zone = signer.sign_zone(zone, zsk, ksk, policy, gen.NOW).zone
            ds_records.append(signer.make_ds(apex, ksk.public, ttl=gen.TTL))
        zones[address] = zone
        children.append((apex, is_signed))
        test_lines += [f"{label} IN NS ns.{label}", f"ns.{label} IN A {address}"]
    test_text = "\n".join(test_lines) + "\n"
    test_zone = zonefile.parse_zone_file(test_text, TEST)
    test_zone.records.extend(ds_records)
    zsk, ksk = gen.key_pair(TEST, seed, KEY_BITS)
    zones[TEST_ADDRESS] = signer.sign_zone(test_zone, zsk, ksk, policy, gen.NOW).zone
    root_text = (f"$ORIGIN .\n$TTL {gen.TTL}\n"
                 f"@ IN SOA ns.root hostmaster.root 1 3600 900 604800 {gen.TTL}\n"
                 f"@ IN NS ns.root\nns.root IN A {ROOT_ADDRESS}\n"
                 f"test IN NS ns.test\nns.test IN A {TEST_ADDRESS}\n")
    zones[ROOT_ADDRESS] = zonefile.parse_zone_file(root_text, DnsName.from_text("."))
    texts += [test_text, root_text]
    return Inputs(zones, TrustAnchor(TEST, ksk.public), names, children, seed,
                  gen.digest(*texts, ksk.public.to_wire()))


def query_stream(inputs: Inputs, salt: str):
    """Endless seeded stream of (qname, expected address or None, signed?)."""
    ranked = list(inputs.names)
    random.Random(f"resolve-ranks-{inputs.seed}").shuffle(ranked)
    rng = random.Random(f"resolve-queries-{inputs.seed}-{salt}")
    cum = list(itertools.accumulate(1 / rank for rank in range(1, len(ranked) + 1)))
    for serial in itertools.count():
        if rng.random() < NX_SHARE:
            apex, is_signed = rng.choice(inputs.children)
            yield DnsName.from_text(f"nx-{salt}-{serial}", apex), None, is_signed
        else:
            yield rng.choices(ranked, cum_weights=cum)[0]


@dataclass
class State:
    network: netsim.SimNetwork
    gateway: server.GatewayService


def setup(inputs: Inputs, tracer=None, rep: int = 0) -> State:
    """Network build, resolver construction and the warm-up pass."""
    network = netsim.SimNetwork(seed=inputs.seed, start_time=gen.NOW)
    for address, zone in inputs.zones.items():
        network.register(address, server.AuthoritativeService([zone]).handle_wire)
    transport = netsim.SimTransport(network, CLIENT)
    cache = resolver.Cache()
    now = network.clock()
    for i in range(cache.capacity):  # stand-ins for earlier traffic, never queried
        cache.put(resolver.CacheEntry(
            key=(DnsName.from_text(f"earlier-{i}.invalid."), RType.A, 1), rrset=None,
            inserted_at=now, expires_at=now + gen.TTL,
            negative=DnsMessage(rcode=Rcode.NXDOMAIN)), now)
    victim = resolver.RecursiveResolver(
        [ROOT_ADDRESS], transport, cache,
        resolver.ResolverConfig(dnssec_enabled=True, anchors=(inputs.anchor,)),
        clock=network.clock)
    state = State(network, server.GatewayService([], victim))
    for i, (qname, _, _) in zip(range(WARMUP_OPS), query_stream(inputs, "warm")):
        state.gateway.handle_wire(_query_wire(qname, i), False)
    return state


def teardown(state: State) -> None:
    pass


def _query_wire(qname: DnsName, txid: int) -> bytes:
    return encode_message(make_query(qname, RType.A, id=txid & 0xFFFF, rd=True,
                                     edns=Edns(do=True)))


def run(state: State, inputs: Inputs, seconds: float, tracer=None) -> RunResult:
    result = RunResult()
    network = state.network
    stream = query_stream(inputs, "run")
    transactions_before = network.transactions
    deadline = time.perf_counter() + seconds
    for i, (qname, address, is_signed) in enumerate(stream):
        if time.perf_counter() >= deadline:
            break
        with paused(tracer):
            wire = _query_wire(qname, i)
        before = network.transactions
        if tracer is not None:
            tracer.begin_op()
        started = time.perf_counter()
        reply = state.gateway.handle_wire(wire, False)
        elapsed = time.perf_counter() - started
        result.add_op("hit" if network.transactions == before else "miss", elapsed)
        with paused(tracer):
            cause = check_reply(reply, wire, qname, address, is_signed)
        if cause:
            result.fail(cause)
    if tracer is not None:
        tracer.count("netsim.transactions", network.transactions - transactions_before)
    return result


def check_reply(reply: bytes, wire: bytes, qname: DnsName, address: str | None,
                is_signed: bool) -> str | None:
    """Rcode and answer must match the hierarchy; AD is set exactly for
    names in signed children."""
    try:
        msg = decode_message(reply)
    except ValueError as exc:
        return f"reply does not decode ({exc})"
    if msg.id != int.from_bytes(wire[:2], "big") or "qr" not in msg.flags:
        return "reply id or qr flag is wrong"
    if address is None:
        if msg.rcode != Rcode.NXDOMAIN:
            return f"nonexistent name answered with rcode {msg.rcode}"
    else:
        got = [r.rdata.to_text() for r in msg.answers if r.rtype == RType.A]
        if msg.rcode != Rcode.NOERROR or got != [address]:
            return f"existing name answered with rcode {msg.rcode}, A {got}"
    if ("ad" in msg.flags) != is_signed:
        return ("AD missing for a name in a signed child" if is_signed
                else "AD set for a name in an unsigned child")
    return None
