"""Metric definitions: end-to-end metrics (tracing off) and per-layer metrics
(from a traced pass), with their units.

Every workload emits every metric so that the metric sets match across
workloads. A per-layer metric of a layer that a workload does not run reads
0; see README.md for which layer metric should move which end-to-end
metric on which workload.
"""

from __future__ import annotations

from common import RunResult, median, percentile
from tracing import LAYERS

#: name -> unit, in output order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p75_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Spans reported per op of the traced pass: (span, with calls, with self_s).
RUN_SPANS = (
    ("zonefile.Zone.is_glue", True, True),
    ("zonefile.Zone.records_at", True, True),
    ("zonefile.Zone.delegations", True, True),
    ("zonefile.serialize_zone", False, True),
    ("signer.build_nsec_chain", False, True),
    ("signer.sign_zone", False, True),
    ("records.canonical_rrset_bytes", True, True),
    ("records.group_rrsets", False, True),
    ("records.key_tag_from_rdata", True, False),
    ("rsa.sign", True, True),
    ("rsa.verify", True, True),
    ("names.canonical_compare", True, False),
    ("wire.read_name", True, True),
    ("message.decode_message", True, True),
    ("message.encode_message", True, True),
    ("server.find_zone", False, True),
    ("resolver.resolve_iterative", True, True),
    ("validator.validate_chain", True, True),
    ("validator.verify_rrsig", True, True),
    ("netsim.SimTransport.query", True, True),
    ("attack.KaminskyAttacker.on_query", True, True),
)

#: Spans of set-up work, reported per set-up of the traced pass. Key
#: generation's own time is mostly in its child `rsa.generate_keypair`.
SETUP_SPANS = ("zonefile.parse_zone_file", "keystore.generate_key", "rsa.generate_keypair")

ANSWER_KINDS = ("positive", "nodata", "nxdomain", "referral", "tcp")

#: Counters reported per op.
PER_OP_COUNTERS = (
    "server.encode_with_limit.truncated",
    "server.threads_started",
    "resolver.Cache.put.rejected",
    "resolver.cache.evictions",
    "validator.outcome.secure",
    "validator.outcome.insecure",
    "validator.outcome.bogus",
    "netsim.injected_packets",
    "netsim.forged_matcher_hits",
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for span, calls, self_s in RUN_SPANS:
        if calls:
            units[f"{span}.calls"] = "1/op"
        if self_s:
            units[f"{span}.self_s"] = "s/op"
    for span in SETUP_SPANS:
        units[f"{span}.self_s"] = "s/setup"
    for kind in ANSWER_KINDS:
        units[f"server.answer_authoritative.self_s.{kind}"] = "s/call"
    for counter in PER_OP_COUNTERS:
        units[counter] = "1/op"
    units.update({
        "signer.rsa_share": "ratio",
        "server.socket_overhead_ms": "ms",
        "resolver.cache.hit_ratio": "ratio",
        "netsim.transactions_per_op": "1/op",
        "netsim.forged_match_ratio": "ratio",
    })
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s/op"
    units["trace.ops_per_s_ratio"] = "ratio"
    return units


def end_to_end(result: RunResult, setup_times: list, rss: float) -> dict:
    latencies = result.all_latencies()
    return {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (result.ops_per_s, "1/s"),
        "latency_p75_ms": (percentile(latencies, 75), "ms"),
        "latency_p99_ms": (percentile(latencies, 99), "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }


def kind_latencies(result: RunResult) -> dict:
    """The p50 over every op and per kind (with sample counts), for the
    report line."""
    kinds = {"": result.all_latencies()}
    kinds.update((f".{kind}", values) for kind, values in sorted(result.latencies_ms.items()))
    return {f"latency_p50_ms{suffix}": {"value": median(values), "unit": "ms",
                                        "samples": len(values)}
            for suffix, values in kinds.items()}


def report_fields(result: RunResult) -> dict:
    fields = {"ops": result.ops, "failed": result.failed,
              "fail_ratio": result.failed / max(result.ops, 1),
              "failure_causes": dict(result.failures.most_common(10)),
              "samples": len(result.all_latencies())}
    fields.update(result.info)
    return fields


def per_layer(tracer, traced: RunResult, plain: RunResult, setups: int) -> dict:
    units = per_layer_units()
    ops = max(traced.ops, 1)
    stats = tracer.stats
    counters = tracer.counters

    def run_stat(span, index):
        entry = stats.get(("run", span))
        return entry[index] if entry else 0

    def run_count(key):
        return counters.get(("run", key), 0)

    values = {}
    for span, calls, self_s in RUN_SPANS:
        if calls:
            values[f"{span}.calls"] = run_stat(span, 0) / ops
        if self_s:
            values[f"{span}.self_s"] = run_stat(span, 2) / ops
    for span in SETUP_SPANS:
        entry = stats.get(("setup", span))
        values[f"{span}.self_s"] = (entry[2] if entry else 0) / setups
    for kind in ANSWER_KINDS:
        calls = run_count(f"server.answer_authoritative.calls.{kind}")
        spent = run_count(f"server.answer_authoritative.self_s.{kind}")
        values[f"server.answer_authoritative.self_s.{kind}"] = spent / calls if calls else 0
    for counter in PER_OP_COUNTERS:
        values[counter] = run_count(counter) / ops

    layer_self = {layer: 0.0 for layer in LAYERS}
    for (phase, span), (_, _, self_s) in stats.items():
        if phase == "run":
            layer_self[span.split(".", 1)[0]] += self_s
    sign_total = run_stat("signer.sign_zone", 1)
    values["signer.rsa_share"] = layer_self["rsa"] / sign_total if sign_total else 0
    values["server.socket_overhead_ms"] = plain.info.get("socket_overhead_ms", 0)
    hits, misses = run_count("resolver.cache.hits"), run_count("resolver.cache.misses")
    values["resolver.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    values["netsim.transactions_per_op"] = run_count("netsim.transactions") / ops
    injected = run_count("netsim.injected_packets")
    values["netsim.forged_match_ratio"] = (
        run_count("netsim.forged_matcher_hits") / injected if injected else 0)
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = layer_self[layer] / ops
    values["trace.ops_per_s_ratio"] = (
        traced.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0)
    return {name: (values[name], unit) for name, unit in units.items()}
