"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests

Each workload `run.py` offers, gated in BENCHMARK.json or not, runs at a
tiny size and must emit every metric named in BENCHMARK.json with its unit; planted wrong answers must be counted as
failures.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import lab_workload  # noqa: E402
import metrics  # noqa: E402
import resolve_workload  # noqa: E402
import run  # noqa: E402
import serve_workload  # noqa: E402
import sign_workload  # noqa: E402
from common import RunResult  # noqa: E402
from dnsseclab import zonefile  # noqa: E402
from dnsseclab.message import DnsMessage, Rcode  # noqa: E402
from dnsseclab.records import ARdata, ResourceRecord, RType  # noqa: E402
from dnsseclab.server import AuthoritativeService  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines[-2]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values())
    elif workload == "serve":
        # Only the server's work is traced: decoding a query with EDNS reads
        # two names, and checking the replies must add none.
        assert values["wire.read_name.calls"] == \
            pytest.approx(2 * values["message.decode_message.calls"], rel=0.05)
    elif workload == "resolve":
        assert values["resolver.cache.evictions"] > 0
    report = json.loads(lines[-2].split(" ", 1)[1])
    assert report["machine"]["nproc"] >= 1 and report["input_digest"]


def test_code_and_benchmark_json_agree():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert list(metrics.END_TO_END.items()) == \
        [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert list(metrics.per_layer_units().items()) == \
        [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").symlink_to(BENCH)
    done = _run("sign", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_inputs_follow_the_seed(tmp_path):
    one = gen.sign_zone_input(5, 40).text
    assert one == gen.sign_zone_input(5, 40).text
    assert one != gen.sign_zone_input(6, 40).text


# ---------------------------------------------------------------------------
# Planted wrong answers
# ---------------------------------------------------------------------------

def test_flipped_rrsig_byte_in_signed_output_counts_as_failure(tmp_path, monkeypatch):
    inputs = sign_workload.generate(1, "tiny", tmp_path)
    state = sign_workload.setup(inputs)
    clean = sign_workload.run(state, inputs, 0)
    assert clean.failed == 0

    serialize = zonefile.serialize_zone

    def corrupted(zone):
        lines = serialize(zone).splitlines()
        # The first base64 line after an RRSIG header carries signature bytes.
        i = next(i for i, line in enumerate(lines) if "\tRRSIG\t" in line) + 1
        body = lines[i].strip()
        lines[i] = "\t\t" + ("B" if body[0] != "B" else "C") + body[1:]
        return "\n".join(lines) + "\n"

    monkeypatch.setattr(zonefile, "serialize_zone", corrupted)
    planted = sign_workload.run(state, inputs, 0)
    assert planted.failed >= 1
    assert metrics.report_fields(planted)["fail_ratio"] > 0


def test_corrupted_serve_reply_counts_as_failure(tmp_path, monkeypatch):
    inputs = serve_workload.generate(1, "tiny", tmp_path)
    service = AuthoritativeService([zonefile.load_zone_file(inputs.zone_path, inputs.model.apex)])
    for query in inputs.queries[:200]:
        udp = service.handle_wire(query.wire, False)
        tcp = service.handle_wire(query.wire, True) if query.kind == "tcp" else b"\0\0"
        assert serve_workload.check_reply(query, inputs, udp[2:], tcp[2:]) is None, query.kind
        flipped = bytearray(udp)
        flipped[3] ^= 0x03  # rcode
        assert serve_workload.check_reply(query, inputs, bytes(flipped[2:]), tcp[2:])

    # End to end: the client sees a corrupted byte and the run counts it.
    receive = serve_workload._recv_reply

    def corrupting(sock, txid):
        reply = bytearray(receive(sock, txid))
        reply[3] ^= 0x03
        return bytes(reply)

    monkeypatch.setattr(serve_workload, "_recv_reply", corrupting)
    state = serve_workload.setup(inputs)
    try:
        result = serve_workload.run(state, inputs, 0.3)
    finally:
        serve_workload.teardown(state)
    assert result.ops > 0 and result.failed == result.ops


def test_resolve_reply_with_wrong_ad_bit_counts_as_failure(tmp_path):
    inputs = resolve_workload.generate(1, "tiny", tmp_path)
    state = resolve_workload.setup(inputs)
    qname, address, is_signed = inputs.names[0]
    wire = resolve_workload._query_wire(qname, 7)
    reply = state.gateway.handle_wire(wire, False)
    assert resolve_workload.check_reply(reply, wire, qname, address, is_signed) is None
    flipped = bytearray(reply)
    flipped[3] ^= 0x20  # AD
    assert resolve_workload.check_reply(bytes(flipped), wire, qname, address, is_signed)


def test_validating_lab_lookup_with_forged_answer_counts_as_failure():
    forged = DnsMessage(flags=frozenset({"qr"}), rcode=Rcode.NOERROR, answers=[
        ResourceRecord(lab_workload.APEX, RType.A, 1, 60, ARdata(lab_workload.attack.EVIL_IP))])
    assert lab_workload._check(forged, "plain", lab_workload.attack.EVIL_IP) is None
    assert lab_workload._check(forged, "validating", lab_workload.attack.EVIL_IP)
    result = RunResult()
    result.fail("planted")
    result.ops = 4
    assert metrics.report_fields(result)["fail_ratio"] == 0.25
