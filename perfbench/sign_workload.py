"""`sign`: what a zone operator runs. `sign_zone` plus `serialize_zone` (the
work of `dnsseclab signzone` after the parse) on a seeded 1 000-name zone
with 1024-bit RSASHA1 keys and a fixed `now`. One op is one RRSIG."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

from dnsseclab import keystore, signer, zonefile
from dnsseclab.records import RType, group_rrsets
from dnsseclab.validator import SigCheck, verify_rrsig

import gen
from common import RunResult
from tracing import paused

WHY = ("Zone.is_glue/records_at bookkeeping (O(N^2)) and RSA pow share the time; "
       "no sockets, resolver or netsim")
SETUP_REPS = 25
KEY_BITS = 1024
SIZES = {"full": 1000, "tiny": 40}


@dataclass
class Inputs:
    model: gen.SignZone
    zone_path: Path
    zsk_base: str
    ksk_base: str
    digest: str


def generate(seed: int, size: str, workdir: Path) -> Inputs:
    model = gen.sign_zone_input(seed, SIZES[size])
    zone_path = workdir / "sign.zone"
    zone_path.write_text(model.text, encoding="ascii")
    zsk_base, ksk_base = gen.write_keys(workdir, model.apex, seed, KEY_BITS)
    key_bytes = [Path(base + ext).read_bytes()
                 for base in (zsk_base, ksk_base) for ext in (".key", ".private")]
    return Inputs(model, zone_path, zsk_base, ksk_base,
                  gen.digest(model.text, *key_bytes))


def setup(inputs: Inputs, tracer=None, rep: int = 0):
    """Zone parse and key load."""
    zone = zonefile.load_zone_file(inputs.zone_path, inputs.model.apex)
    return (zone, keystore.read_key_pair(inputs.zsk_base),
            keystore.read_key_pair(inputs.ksk_base))


def teardown(state) -> None:
    pass


def run(state, inputs: Inputs, seconds: float, tracer=None) -> RunResult:
    """Sign the zone again and again until `seconds` have passed (at least
    once); every signing must give the same bytes."""
    zone, zsk, ksk = state
    result = RunResult()
    first_text = first_digest = None
    while result.busy_s < seconds or first_text is None:
        if tracer is not None:
            tracer.begin_op()
        started = time.perf_counter()
        signed = signer.sign_zone(zone, zsk, ksk, signer.SigningPolicy(), gen.NOW)
        text = zonefile.serialize_zone(signed.zone)
        elapsed = time.perf_counter() - started
        count = signed.stats.signatures_generated
        result.add_op("zone", elapsed, count)
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
        if first_text is None:
            first_text, first_digest = text, digest
        elif digest != first_digest:
            result.fail("signed bytes differ between signings of one seed", count)
        if signed.stats.signatures_failed:
            result.fail("sign_zone self-verification failed",
                        signed.stats.signatures_failed)
    result.info["output_digest"] = first_digest
    result.info["rrsigs_per_zone"] = count
    with paused(tracer):
        for cause, n in check_signed_text(first_text, inputs.model).items():
            result.fail(cause, n)
    return result


def expected_rrsig_count(model: gen.SignZone) -> int:
    """RRSIGs a correct signer emits for the model: SOA, NS, two over DNSKEY
    and NSEC at the apex; A + NSEC at ns, ns2 and mail; every host RRset plus
    its NSEC; NSEC (and DS when present) at each delegation."""
    count = 5 + 3 * 2
    count += sum(len(rrsets) + 1 for rrsets in model.hosts.values())
    count += sum(2 if ds else 1 for _, ds in model.delegations.values())
    return count


def check_signed_text(text: str, model: gen.SignZone) -> dict:
    """Re-verify every RRSIG of the serialized zone, independently of the
    signer, with `validator.verify_rrsig`. Returns failure causes with the
    number of RRSIGs each one affects."""
    failures: dict = {}
    try:
        zone = zonefile.parse_zone_file(text, model.apex)
    except ValueError as exc:
        return {f"serialized zone does not parse: {exc}": expected_rrsig_count(model)}
    keys = [r.rdata for r in zone.records
            if r.rtype == RType.DNSKEY and r.owner == model.apex]
    rrsets = {(s.owner, s.rtype): s
              for s in group_rrsets(r for r in zone.records if r.rtype != RType.RRSIG)}
    sigs = [r for r in zone.records if r.rtype == RType.RRSIG]
    for sig in sigs:
        covered = rrsets.get((sig.owner, sig.rdata.type_covered))
        ok = covered is not None and any(
            verify_rrsig(covered, sig.rdata, key, gen.NOW) is SigCheck.VALID for key in keys)
        if not ok:
            cause = "RRSIG in serialized output does not verify"
            failures[cause] = failures.get(cause, 0) + 1
    missing = expected_rrsig_count(model) - len(sigs)
    if missing:
        failures[f"serialized output has {missing:+d} RRSIGs against the model"] = abs(missing)
    return failures
