"""`lab`: what the researcher runs, a scaled-down acceptance criterion 4. The
reference `domaine.ma` zone, signed with seeded 2048-bit keys, is attacked
Kaminsky-style (100 forged packets per query, 50 rounds, fixed ports) through
`build_lab` + `run_attack`. Each cycle runs 36 trials without validation and
one validating trial (anchor = the KSK), so about 35 plain lookups run per
validating lookup, as in the criterion. One op is one victim lookup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from dnsseclab import attack, keystore, signer, zonefile
from dnsseclab.message import Rcode
from dnsseclab.names import DnsName
from dnsseclab.records import RType

import gen
from common import RunResult
from tracing import paused

WHY = ("netsim per-packet matching and attack templates dominate a plain lookup; "
       "validating lookups add validate_chain on 2048-bit keys")
SETUP_REPS = 9
KEY_BITS = 2048
SIZES = {"full": (36, 50), "tiny": (2, 10)}  # plain trials per cycle, rounds
#: Cycles reuse this many attack seeds, so each seed's report can be compared
#: with an earlier run of itself.
SEED_CYCLE = 4

APEX = DnsName.from_text("domaine.ma.")
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


@dataclass
class Inputs:
    seed: int
    trials: int
    rounds: int
    digest: str


@dataclass
class State:
    zone: object
    anchor: keystore.TrustAnchor


def generate(seed: int, size: str, workdir: Path) -> Inputs:
    trials, rounds = SIZES[size]
    return Inputs(seed, trials, rounds, gen.digest(ZONE_TEXT, str(seed), str(SIZES[size])))


def setup(inputs: Inputs, tracer=None, rep: int = 0) -> State:
    """Key generation, zone signing and `build_lab`. Each set-up of a run
    generates other keys: the time a prime search takes depends on its seed,
    so the median over set-ups says more than one search does."""
    key_seed = (inputs.seed * SETUP_REPS + rep) * 2
    zsk = keystore.generate_key(APEX, keystore.KeyRole.ZSK, bits=KEY_BITS,
                                rng=key_seed, now=gen.NOW)
    ksk = keystore.generate_key(APEX, keystore.KeyRole.KSK, bits=KEY_BITS,
                                rng=key_seed + 1, now=gen.NOW)
    zone = zonefile.parse_zone_file(ZONE_TEXT, APEX)
    signed = signer.sign_zone(zone, zsk, ksk, signer.SigningPolicy(), gen.NOW).zone
    state = State(signed, keystore.TrustAnchor(APEX, ksk.public))
    _lab(state, _config(inputs, 0, validation=False))
    return state


def teardown(state: State) -> None:
    pass


def _config(inputs: Inputs, cycle: int, validation: bool) -> attack.AttackConfig:
    base = 1000 if validation else 0
    return attack.AttackConfig(
        mode="kaminsky", target_zone=APEX, forged_per_query=100,
        query_rounds=inputs.rounds, trials=1 if validation else inputs.trials,
        port_mode="fixed", seed=base + inputs.seed * SEED_CYCLE + cycle % SEED_CYCLE,
        validation=validation)


def _lab(state: State, cfg: attack.AttackConfig) -> attack.AttackLab:
    anchors = (state.anchor,) if cfg.validation else ()
    return attack.build_lab(cfg, state.zone, anchors)


def run(state: State, inputs: Inputs, seconds: float, tracer=None) -> RunResult:
    result = RunResult()
    reports: dict = {}
    cycle = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or cycle == 0:
        for validation in (False, True):
            cfg = _config(inputs, cycle, validation)
            lab = _lab(state, cfg)
            kind = "validating" if validation else "plain"
            _time_lookups(lab, kind, result, tracer)
            report = attack.run_attack(cfg, lab.victim, lab.network, lab.attacker)
            if tracer is not None:
                tracer.count("netsim.transactions", lab.network.transactions)
                tracer.count("netsim.forged_matcher_hits", report.forged_matcher_hits)
            text = report.format_machine()
            if reports.setdefault(cfg.seed, text) != text:
                result.fail(f"format_machine() differs between runs of attack seed {cfg.seed}")
            if validation and (report.forged_accepted_post_validation or report.successes):
                result.fail("validating victim accepted a forgery")
        cycle += 1
    result.info["cycles"] = cycle
    return result


def _time_lookups(lab: attack.AttackLab, kind: str, result: RunResult, tracer) -> None:
    """Time each victim lookup and check its answer. The lab's own loop
    swallows lookup exceptions, so they are caught and counted here."""
    lookup = lab.victim.resolve_name
    evil = attack.EVIL_IP

    def timed_lookup(qname, qtype=RType.A, do=False):
        if tracer is not None:
            tracer.begin_op()
        started = time.perf_counter()
        try:
            reply = lookup(qname, qtype, do)
        except Exception as exc:
            result.add_op(kind, time.perf_counter() - started)
            result.fail(f"{kind} lookup raised {type(exc).__name__}: {exc}")
            raise
        result.add_op(kind, time.perf_counter() - started)
        with paused(tracer):
            cause = _check(reply, kind, evil)
        if cause:
            result.fail(cause)
        return reply

    lab.victim.resolve_name = timed_lookup


def _check(reply, kind: str, evil: str) -> str | None:
    """A lookup of a fresh name is NXDOMAIN, or, for a plain victim, the
    attacker's address once the forged delegation won. A validating victim
    answers NXDOMAIN with AD, or SERVFAIL when forged data failed
    validation; it never returns the attacker's address."""
    answers = [r.rdata.to_text() for r in reply.answers if r.rtype == RType.A]
    if reply.rcode == Rcode.NXDOMAIN and not answers:
        if kind == "validating" and "ad" not in reply.flags:
            return "validating lookup's NXDOMAIN is not authenticated"
        return None
    if kind == "plain" and reply.rcode == Rcode.NOERROR and answers == [evil]:
        return None
    if kind == "validating" and reply.rcode == Rcode.SERVFAIL:
        return None
    return f"{kind} lookup answered rcode {reply.rcode} with A {answers}"
