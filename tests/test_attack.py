import math

import pytest

from dnsseclab import resolver
from dnsseclab.attack import (AttackConfig, EvilAuthority, KaminskyAttacker,
                              RaceSpoofAttacker, analytic_success_probability,
                              build_lab, cache_poisoned, parse_attack_config,
                              run_attack)
from dnsseclab.config import ConfigError
from dnsseclab.keystore import TrustAnchor
from dnsseclab.message import decode_message, encode_message, make_query
from dnsseclab.names import DnsName
from dnsseclab.records import NsRdata, RType
from dnsseclab.validator import Security, ValidationOutcome

from conftest import APEX


# ---------------------------------------------------------------------------
# Analytic model
# ---------------------------------------------------------------------------

def test_analytic_no_forgeries_is_zero():
    for q in (1, 10, 1000):
        assert analytic_success_probability(0, q) == 0.0


def test_analytic_exhaustive_guess_is_certain():
    assert analytic_success_probability(65536, 1) == 1.0


def test_analytic_reference_value():
    # independent recomputation of 1 - (1 - 100/65536)^50
    per_round = 100 / 65536
    expected = 1.0 - math.exp(50 * math.log(1.0 - per_round))
    got = analytic_success_probability(100, 50, "fixed")
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.0735) < 5e-4


def test_analytic_randomized_ports_divide_the_space():
    fixed = analytic_success_probability(100, 50, "fixed")
    randomized = analytic_success_probability(100, 50, "random", port_space=4096)
    assert randomized < fixed / 1000


# ---------------------------------------------------------------------------
# Race spoofing (on-path)
# ---------------------------------------------------------------------------

def race_cfg(**kw):
    defaults = dict(mode="race", target_zone=APEX, forged_per_query=1,
                    query_rounds=1, trials=5, seed=13)
    defaults.update(kw)
    return AttackConfig(**defaults)


def test_on_path_race_always_wins(signed_zone):
    cfg = race_cfg()
    lab = build_lab(cfg, signed_zone.zone)
    report = run_attack(cfg, lab.victim, lab.network, lab.attacker)
    assert report.empirical_rate == 1.0
    assert report.successes == cfg.trials
    assert report.forged_matcher_hits >= cfg.trials


def test_race_poisons_entire_domain(signed_zone):
    cfg = race_cfg(trials=1)
    lab = build_lab(cfg, signed_zone.zone)
    run_attack(cfg, lab.victim, lab.network, lab.attacker)
    now = lab.network.clock()
    entry = lab.victim.cache.get((APEX, RType.NS, 1), now)
    assert entry is not None
    assert NsRdata(lab.attacker.evil_ns) in entry.rrset.rdatas
    # every later lookup under the domain lands on the attacker
    victim_answer = lab.victim.resolve_name(
        DnsName.from_text("login.domaine.ma."), RType.A)
    addresses = [r.rdata.address for r in victim_answer.answers
                 if r.rtype == RType.A]
    assert addresses == ["203.0.113.99"]


def test_forged_rounds_cache_no_dnskey_or_ds(signed_zone, ksk):
    """Every round of an on-path race is forged, so every walk is Bogus and
    the validated DNSKEY and DS cache stays empty."""
    cfg = race_cfg(validation=True, query_rounds=3, trials=1)
    lab = build_lab(cfg, signed_zone.zone, (TrustAnchor(APEX, ksk.public),))
    report = run_attack(cfg, lab.victim, lab.network, lab.attacker)
    assert report.forged_matcher_hits >= cfg.query_rounds and report.successes == 0
    assert not [entry for entry in lab.victim.cache.entries()
                if entry.key[1] in (RType.DNSKEY, RType.DS)]


def test_race_blocked_by_validation(signed_zone, ksk):
    cfg = race_cfg(validation=True, query_rounds=3, trials=3)
    lab = build_lab(cfg, signed_zone.zone, (TrustAnchor(APEX, ksk.public),))
    report = run_attack(cfg, lab.victim, lab.network, lab.attacker)
    assert report.forged_matcher_hits > 0       # forgeries reached the resolver
    assert report.successes == 0                # but never poisoned the cache
    assert report.forged_accepted_post_validation == 0
    assert not cache_poisoned(lab.victim, lab.attacker, cfg,
                              lab.network.clock())
    for entry in lab.victim.cache.entries():
        assert entry.security in (Security.SECURE, Security.INSECURE)


# ---------------------------------------------------------------------------
# Kaminsky (off-path)
# ---------------------------------------------------------------------------

def kaminsky_cfg(**kw):
    defaults = dict(mode="kaminsky", target_zone=APEX, forged_per_query=100,
                    query_rounds=50, trials=20, seed=1)
    defaults.update(kw)
    return AttackConfig(**defaults)


def test_kaminsky_deterministic_reports(signed_zone):
    reports = []
    for _ in range(2):
        cfg = kaminsky_cfg(trials=10)
        lab = build_lab(cfg, signed_zone.zone)
        reports.append(run_attack(cfg, lab.victim, lab.network,
                                  lab.attacker).format_machine())
    assert reports[0] == reports[1]


def test_kaminsky_empirical_tracks_analytic(signed_zone):
    # Coarse convergence smoke; the acceptance suite runs the full 30 seeds.
    total_successes = total_trials = 0
    for seed in range(6):
        cfg = kaminsky_cfg(trials=40, seed=seed)
        lab = build_lab(cfg, signed_zone.zone)
        report = run_attack(cfg, lab.victim, lab.network, lab.attacker)
        total_successes += report.successes
        total_trials += report.trials
    mean = total_successes / total_trials
    assert abs(mean - 0.0735) < 0.05


def test_kaminsky_off_path_never_sees_txid(signed_zone):
    cfg = kaminsky_cfg(trials=1, query_rounds=1)
    lab = build_lab(cfg, signed_zone.zone)
    seen = []
    original = lab.attacker.on_query

    def spy(event):
        seen.append(event)
        return original(event)

    lab.attacker.on_query = spy
    run_attack(cfg, lab.victim, lab.network, lab.attacker)
    assert seen
    assert all(e.txid is None and e.src_port is None and e.wire is None
               for e in seen)


def test_port_randomization_lowers_success(signed_zone):
    fixed_successes = random_successes = 0
    for seed in range(4):
        for mode, space in (("fixed", 4096), ("random", 4096)):
            cfg = kaminsky_cfg(trials=40, seed=seed, port_mode=mode,
                               port_space=space)
            lab = build_lab(cfg, signed_zone.zone)
            report = run_attack(cfg, lab.victim, lab.network, lab.attacker)
            if mode == "fixed":
                fixed_successes += report.successes
            else:
                random_successes += report.successes
    assert random_successes < fixed_successes


def test_kaminsky_blocked_by_validation(signed_zone, ksk):
    accepted = 0
    for seed in range(3):
        cfg = kaminsky_cfg(trials=2, seed=seed, validation=True)
        lab = build_lab(cfg, signed_zone.zone, (TrustAnchor(APEX, ksk.public),))
        report = run_attack(cfg, lab.victim, lab.network, lab.attacker)
        accepted += report.forged_accepted_post_validation
        assert report.successes == 0
    assert accepted == 0


def test_warm_validating_lookup_is_one_transaction(signed_zone, ksk):
    """The first validating lookup fetches the anchor's DNSKEY; later ones
    take it from the cache and send only their query. A name inside the
    validated NSEC gap the first one learned sends nothing at all; a
    positive answer still goes upstream."""
    cfg = kaminsky_cfg(trials=1, validation=True)
    lab = build_lab(cfg, signed_zone.zone, (TrustAnchor(APEX, ksk.public),))
    for sent, name in ((2, "r0-0.domaine.ma."), (0, "r0-1.domaine.ma."),
                       (1, "www.domaine.ma.")):
        before = lab.network.transactions
        reply = lab.victim.resolve_name(DnsName.from_text(name), RType.A)
        assert "ad" in reply.flags
        assert lab.network.transactions - before == sent


@pytest.mark.parametrize("validation, successes, transactions", [
    (True, 0, 2), (False, 1, 16)], ids=["validating", "plain"])
def test_trial_traffic_is_exact(signed_zone, ksk, validation, successes, transactions):
    """Seed 15, one trial of 50 rounds. The validating victim sends the
    DNSKEY fetch and round 0, which is not forged; the NSEC gap round 0
    proves answers the other 49 rounds without a query. The plain victim
    sends one query per round until round 14 is poisoned, and one more to
    the attacker's server that the forged referral names."""
    cfg = kaminsky_cfg(trials=1, seed=15, validation=validation)
    anchors = (TrustAnchor(APEX, ksk.public),) if validation else ()
    lab = build_lab(cfg, signed_zone.zone, anchors)
    report = run_attack(cfg, lab.victim, lab.network, lab.attacker)
    assert report.successes == successes
    assert report.forged_matcher_hits == successes
    assert lab.network.transactions == transactions


def test_fixed_port_guesses_past_the_id_space_poison_round_one(signed_zone):
    """More forged replies per query than there are ids: the attacker sends
    every id once, so each trial is poisoned by its first query."""
    cfg = kaminsky_cfg(forged_per_query=70_000, query_rounds=5, trials=3)
    lab = build_lab(cfg, signed_zone.zone)
    report = run_attack(cfg, lab.victim, lab.network, lab.attacker)
    assert report.successes == cfg.trials
    assert report.empirical_rate == report.analytic_rate == 1.0
    # One forged referral lands per trial, and its evil authority answers.
    assert report.forged_matcher_hits == cfg.trials
    assert lab.network.transactions == 2 * cfg.trials


def test_oracle_sees_a_forgery_that_validation_let_through(signed_zone, ksk, monkeypatch):
    """With a validator that calls everything Secure, a forged referral
    leads to the attacker's address with AD. The attacker guesses every id,
    so the forgery lands in each trial's first round, before the victim has
    learned an NSEC gap that would answer later rounds without a query. A
    validating victim caches no referral, so only the reply and the cache
    entry for the round's name can show it."""
    monkeypatch.setattr(resolver, "validate_chain", lambda reply, *args: ValidationOutcome(
        Security.SECURE, answer=tuple(reply.answers)))
    cfg = kaminsky_cfg(forged_per_query=70_000, query_rounds=5, trials=2,
                       validation=True)
    lab = build_lab(cfg, signed_zone.zone, (TrustAnchor(APEX, ksk.public),))
    report = run_attack(cfg, lab.victim, lab.network, lab.attacker)
    assert report.forged_matcher_hits == cfg.trials
    assert report.successes == report.forged_accepted_post_validation == cfg.trials
    assert not cache_poisoned(lab.victim, lab.attacker, cfg, lab.network.clock())


def test_attacker_mode_placement_guard(signed_zone):
    cfg = kaminsky_cfg(trials=1)
    lab = build_lab(cfg, signed_zone.zone)
    on_path_attacker = RaceSpoofAttacker(cfg, lab.attacker.rng)
    with pytest.raises(ConfigError):
        run_attack(cfg, lab.victim, lab.network, on_path_attacker)
    race = race_cfg()
    off_path = KaminskyAttacker(race, lab.attacker.rng)
    with pytest.raises(ConfigError):
        run_attack(race, lab.victim, lab.network, off_path)


def test_config_invariants():
    with pytest.raises(ConfigError):
        AttackConfig(mode="kaminsky", target_zone=APEX, query_rounds=0)
    with pytest.raises(ConfigError):
        AttackConfig(mode="nope", target_zone=APEX)
    with pytest.raises(ConfigError):
        AttackConfig(mode="kaminsky", target_zone=APEX, forged_per_query=-1)


def test_evil_authority_answers_anything():
    evil = EvilAuthority(APEX)
    query = make_query(DnsName.from_text("whatever.domaine.ma."), RType.A, id=3)
    reply = decode_message(evil.handle_wire(encode_message(query), False))
    assert reply.id == 3
    assert reply.answers[0].rdata.address == "203.0.113.99"


def test_parse_attack_config(tmp_path):
    text = """\
# lab scenario
mode kaminsky
target-zone domaine.ma
forged-per-query 100
query-rounds 50
trials 30
port-mode random
port-space 2048
seed 7
validation yes
zone-file domaine.ma.signed
trust-anchors trusted-key.key
"""
    cfg = parse_attack_config(text, tmp_path)
    assert cfg.mode == "kaminsky"
    assert cfg.target_zone == APEX
    assert cfg.port_space == 2048 and cfg.port_mode == "random"
    assert cfg.validation and cfg.trials == 30
    assert cfg.zone_file == tmp_path / "domaine.ma.signed"
    assert cfg.trust_anchor_path == tmp_path / "trusted-key.key"
    with pytest.raises(ConfigError):
        parse_attack_config("mode kaminsky\n")  # missing target-zone
    with pytest.raises(ConfigError):
        parse_attack_config("target-zone x.\nbogus-key 1\n")


@pytest.mark.parametrize("line, directive", [
    ("validation true", "validation"),
    ("query-rounds ten", "query-rounds"),
])
def test_attack_config_rejects_bad_values(line, directive):
    with pytest.raises(ConfigError, match=directive):
        parse_attack_config(f"target-zone x.\n{line}\n")
