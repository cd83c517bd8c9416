"""Cache-poisoning lab: on-path race spoofing and Kaminsky-style off-path
poisoning against the caching resolver, with and without validation."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .config import ConfigError, _parse_bool, _parse_int
from .keystore import TrustAnchor, load_trust_anchors
from .message import decode_message, encode_message, make_query, make_reply
from .names import ROOT, DnsName
from .records import ARdata, NsRdata, ResourceRecord, RType
from .netsim import (NO_GUESSES, TXID_SPACE, GuessStream, GuessTable, PortPolicy,
                     QueryEvent, SimNetwork, SimTransport)
from .resolver import Cache, RecursiveResolver, ResolverConfig
from .server import AuthoritativeService
from .zonefile import Zone, load_zone_file

AUTHORITY_ADDRESS = "198.51.100.53"
ATTACKER_ADDRESS = "203.0.113.66"
VICTIM_ADDRESS = "192.0.2.10"
EVIL_IP = "203.0.113.99"


@dataclass
class AttackConfig:
    mode: str  # "kaminsky" | "race"
    target_zone: DnsName
    forged_per_query: int = 100
    query_rounds: int = 50
    trials: int = 1
    port_mode: str = "fixed"
    port_space: int = 4096
    seed: int = 0
    validation: bool = False
    zone_file: Path | None = None
    trust_anchor_path: Path | None = None

    def __post_init__(self):
        if self.mode not in ("kaminsky", "race"):
            raise ConfigError(f"unknown attack mode {self.mode!r}")
        if self.forged_per_query < 0 or self.query_rounds < 1 or self.trials < 1:
            raise ConfigError("need forged-per-query >= 0, rounds >= 1, trials >= 1")
        if self.port_mode not in ("fixed", "random"):
            raise ConfigError(f"port mode {self.port_mode!r}")


@dataclass
class AttackReport:
    mode: str
    rounds: int
    trials: int
    successes: int
    empirical_rate: float
    analytic_rate: float
    validation_enabled: bool
    forged_accepted_post_validation: int
    forged_matcher_hits: int
    port_mode: str
    seed: int

    def format_text(self) -> str:
        lines = [
            f"attack mode:            {self.mode}",
            f"rounds per trial:       {self.rounds}",
            f"independent trials:     {self.trials}",
            f"poisoned trials:        {self.successes}",
            f"empirical rate:         {self.empirical_rate:.6f}",
            f"analytic rate:          {self.analytic_rate:.6f}",
            f"source ports:           {self.port_mode}",
            f"validation enabled:     {'yes' if self.validation_enabled else 'no'}",
            f"forged accepted after validation: "
            f"{self.forged_accepted_post_validation}",
            f"forged packets matched in transit: {self.forged_matcher_hits}",
            f"seed:                   {self.seed}",
        ]
        return "\n".join(lines)

    def format_machine(self) -> str:
        pairs = [
            ("mode", self.mode),
            ("rounds", self.rounds),
            ("trials", self.trials),
            ("successes", self.successes),
            ("empirical_rate", f"{self.empirical_rate:.6f}"),
            ("analytic_rate", f"{self.analytic_rate:.6f}"),
            ("validation_enabled", int(self.validation_enabled)),
            ("forged_accepted_post_validation",
             self.forged_accepted_post_validation),
            ("forged_matcher_hits", self.forged_matcher_hits),
            ("port_mode", self.port_mode),
            ("seed", self.seed),
        ]
        return "\n".join(f"{key}={value}" for key, value in pairs)


def analytic_success_probability(n: int, q: int, port_mode: str = "fixed",
                                 port_space: int = 4096) -> float:
    """Probability that at least one of q rounds lands a forged answer when
    each round makes n distinct guesses without replacement."""
    space = TXID_SPACE if port_mode == "fixed" else TXID_SPACE * port_space
    per_round = min(1.0, n / space)
    return 1.0 - (1.0 - per_round) ** q


# ---------------------------------------------------------------------------
# Attackers
# ---------------------------------------------------------------------------

class KaminskyAttacker:
    """Off-path: sees that a query for the (attacker-chosen) name is in
    flight, then buries the victim in forged referrals with guessed
    transaction ids (and guessed ports when those are randomized).

    The forged referral delegates the whole target domain to the attacker's
    name server, so one hit poisons every later lookup under it."""

    on_path = False

    def __init__(self, cfg: AttackConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.armed_qname: DnsName | None = None
        self.evil_ns = DnsName.from_text("ns.evil.example.")
        self._rdatas = frozenset((NsRdata(self.evil_ns), ARdata(ATTACKER_ADDRESS),
                                  ARdata(EVIL_IP)))
        # A guess is GuessTable.key(port, txid): the txid alone at the fixed port.
        space = TXID_SPACE * (1 if cfg.port_mode == "fixed" else cfg.port_space)
        self._guesses = GuessStream(rng, space, min(cfg.forged_per_query, space))

    def arm(self, qname: DnsName) -> None:
        self.armed_qname = qname

    def forged(self, rdatas) -> bool:
        """True when any of `rdatas` is the attacker's: its name server, that
        server's address or the address its authority answers with."""
        return not self._rdatas.isdisjoint(rdatas)

    def forged_referral(self, qname: DnsName, qtype: int, txid: int) -> bytes:
        """The wire of a referral that delegates the target zone to the
        attacker's name server, answering (qname, qtype) with id `txid`."""
        msg = make_reply(make_query(qname, qtype, id=txid))
        msg.authority.append(ResourceRecord(self.cfg.target_zone, RType.NS, 1,
                                            86400, NsRdata(self.evil_ns)))
        msg.additional.append(ResourceRecord(self.evil_ns, RType.A, 1, 86400,
                                             ARdata(ATTACKER_ADDRESS)))
        return encode_message(msg)

    def on_query(self, event: QueryEvent) -> GuessTable:
        if event.dst != AUTHORITY_ADDRESS or event.qname != self.armed_qname:
            return NO_GUESSES
        return GuessTable(AUTHORITY_ADDRESS, self._guesses.draw(),
                          partial(self.forged_referral, event.qname, event.qtype))


class RaceSpoofAttacker(KaminskyAttacker):
    """On-path: reads the transaction id and source port off the wire and
    answers faster than the legitimate server."""

    on_path = True

    def on_query(self, event: QueryEvent) -> GuessTable:
        if (event.dst != AUTHORITY_ADDRESS or event.qname != self.armed_qname
                or self.cfg.forged_per_query < 1):
            return NO_GUESSES
        return GuessTable(AUTHORITY_ADDRESS, {GuessTable.key(event.src_port, event.txid): None},
                          partial(self.forged_referral, event.qname, event.qtype))


class EvilAuthority:
    """The attacker's own name server: answers anything under the target
    domain with the attacker's address, unsigned."""

    def __init__(self, target_zone: DnsName):
        self.target_zone = target_zone

    def handle_wire(self, wire: bytes, via_tcp: bool) -> bytes:
        query = decode_message(wire)
        q = query.question
        reply = make_reply(query, "aa")
        if q is not None:
            reply.answers.append(ResourceRecord(q.name, RType.A, 1, 86400,
                                                ARdata(EVIL_IP)))
        return encode_message(reply)


# ---------------------------------------------------------------------------
# Lab wiring and execution
# ---------------------------------------------------------------------------

@dataclass
class AttackLab:
    network: SimNetwork
    victim: RecursiveResolver
    attacker: KaminskyAttacker
    cfg: AttackConfig


def build_lab(cfg: AttackConfig, zone: Zone,
              anchors: tuple[TrustAnchor, ...] = ()) -> AttackLab:
    network = SimNetwork(seed=cfg.seed)
    authority = AuthoritativeService([zone])
    network.register(AUTHORITY_ADDRESS, authority.handle_wire)
    network.register(ATTACKER_ADDRESS,
                     EvilAuthority(cfg.target_zone).handle_wire)
    ports = PortPolicy(mode=cfg.port_mode,
                       rng=random.Random(cfg.seed ^ 0x5EED),
                       space=cfg.port_space)
    transport = SimTransport(network, VICTIM_ADDRESS, ports)
    victim = RecursiveResolver(
        hint_addresses=[AUTHORITY_ADDRESS], transport=transport, cache=Cache(),
        config=ResolverConfig(dnssec_enabled=cfg.validation,
                              anchors=tuple(anchors)),
        clock=network.clock)
    attacker_cls = KaminskyAttacker if cfg.mode == "kaminsky" else RaceSpoofAttacker
    attacker = attacker_cls(cfg, random.Random(cfg.seed ^ 0xA77AC))
    network.add_tap(attacker)
    return AttackLab(network, victim, attacker, cfg)


def cache_poisoned(victim: RecursiveResolver, attacker: KaminskyAttacker,
                   cfg: AttackConfig, now: float, qname: DnsName | None = None) -> bool:
    """The success oracle: the forged delegation, its glue or, when `qname`
    is given, attacker data for that name sits in the victim's cache."""
    keys = [(cfg.target_zone, RType.NS, 1), (attacker.evil_ns, RType.A, 1)]
    if qname is not None:
        keys.append((qname, RType.A, 1))
    for key in keys:
        entry = victim.cache.get(key, now)
        if entry is not None and entry.rrset is not None \
                and attacker.forged(entry.rrset.rdatas):
            return True
    return False


def run_attack(cfg: AttackConfig, victim: RecursiveResolver,
               network: SimNetwork, attacker: KaminskyAttacker | None = None,
               ) -> AttackReport:
    """Run `trials` independent attack instances of `query_rounds` each.

    A round triggers one victim lookup for a fresh name under the target
    domain and injects the forged responses; an instance counts as poisoned
    as soon as the victim's reply to that lookup holds attacker data, or the
    forged delegation or attacker data for the round's name enters its cache
    (a validating victim caches no referral, so only the last two can show
    a forgery that its validation let through)."""
    if attacker is None:
        attacker = next((tap for tap in network.taps
                         if isinstance(tap, KaminskyAttacker)), None)
        if attacker is None:
            raise ConfigError("network has no attacker tap")
    if attacker.on_path and cfg.mode == "kaminsky":
        raise ConfigError("a Kaminsky attacker must be off-path")
    if not attacker.on_path and cfg.mode == "race":
        raise ConfigError("a race-spoofing attacker must be on-path")

    label = cfg.target_zone.to_text().rstrip(".")
    successes = 0
    post_validation = 0
    for trial in range(cfg.trials):
        victim.cache.clear()
        for round_index in range(cfg.query_rounds):
            qname = DnsName.from_text(f"r{trial}-{round_index}.{label}.")
            attacker.arm(qname)
            reply = victim.resolve_name(qname, RType.A)
            attacker.arm(None)
            if (attacker.forged(r.rdata for r in (*reply.answers, *reply.authority))
                    or cache_poisoned(victim, attacker, cfg, network.clock(), qname)):
                successes += 1
                if cfg.validation:
                    post_validation += 1
                break
    report = AttackReport(
        mode=cfg.mode,
        rounds=cfg.query_rounds,
        trials=cfg.trials,
        successes=successes,
        empirical_rate=successes / cfg.trials,
        analytic_rate=analytic_success_probability(
            cfg.forged_per_query, cfg.query_rounds, cfg.port_mode, cfg.port_space),
        validation_enabled=cfg.validation,
        forged_accepted_post_validation=post_validation,
        forged_matcher_hits=network.forged_matcher_hits,
        port_mode=cfg.port_mode,
        seed=cfg.seed,
    )
    return report


# ---------------------------------------------------------------------------
# Attack config files (same key-value family as the server config)
# ---------------------------------------------------------------------------

def parse_attack_config(text: str, base_dir: Path | str = ".") -> AttackConfig:
    base = Path(base_dir)
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        value = value.strip().strip('"')
        if not value:
            raise ConfigError(f"directive {key!r} needs a value")
        values[key] = value
    try:
        target = DnsName.from_text(values["target-zone"], ROOT)
    except KeyError:
        raise ConfigError("attack config needs target-zone") from None
    known = {"mode", "target-zone", "forged-per-query", "query-rounds",
             "trials", "port-mode", "port-space", "seed", "validation",
             "zone-file", "trust-anchors"}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown directives {sorted(unknown)}")

    def number(key: str, default: str) -> int:
        return _parse_int(values.get(key, default), key)

    return AttackConfig(
        mode=values.get("mode", "kaminsky"),
        target_zone=target,
        forged_per_query=number("forged-per-query", "100"),
        query_rounds=number("query-rounds", "50"),
        trials=number("trials", "1"),
        port_mode=values.get("port-mode", "fixed"),
        port_space=number("port-space", "4096"),
        seed=number("seed", "0"),
        validation=_parse_bool(values.get("validation", "no"), "validation"),
        zone_file=base / values["zone-file"] if "zone-file" in values else None,
        trust_anchor_path=(base / values["trust-anchors"]
                           if "trust-anchors" in values else None),
    )


def run_from_config(cfg: AttackConfig) -> AttackReport:
    if cfg.zone_file is None:
        raise ConfigError("attack config needs zone-file")
    zone = load_zone_file(cfg.zone_file, cfg.target_zone)
    anchors: tuple[TrustAnchor, ...] = ()
    if cfg.validation:
        if cfg.trust_anchor_path is None:
            raise ConfigError("validation yes needs trust-anchors")
        anchors = tuple(load_trust_anchors(cfg.trust_anchor_path))
    lab = build_lab(cfg, zone, anchors)
    return run_attack(cfg, lab.victim, lab.network, lab.attacker)
