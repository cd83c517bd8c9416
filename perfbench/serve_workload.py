"""`serve`: what the authority does. The signed zone of the `sign` generator is
served by `DnsServer` in a child process and queried over the loopback
interface (no real link) in a closed loop: one client sends its next query
when the previous one is answered, as a resolver waiting for its reply does.
One op is one answered query. (With two outstanding queries the median
latency flipped between about 0.9 and 2.4 ms on identical inputs, as the
server's per-datagram threads hand the interpreter lock to each other, so the
loop keeps one query outstanding.) Client and server share one CPU: with one
query outstanding a second CPU adds only cross-CPU wake-ups, whose cost on a
2-vCPU VM flipped between runs and halved throughput in about a third of them.

Query mix: 60% positive, 10% NODATA, 15% NXDOMAIN, 10% referral, 5% `tcp`
(a DO DNSKEY query with a 512-octet EDNS payload: it truncates and is retried
over TCP, and its latency covers both legs). Every query sets DO.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from dnsseclab import server, signer, zonefile
from dnsseclab.message import Edns, Rcode, decode_message, encode_message, make_query
from dnsseclab.names import DnsName
from dnsseclab.records import RType

import gen
from common import RunResult, median
from tracing import paused

WHY = ("per-query answer cost (linear covering-NSEC scan, deepest cut), the codec, "
       "and thread-per-datagram sockets, over loopback")
SETUP_REPS = 3
SERVER_PROCESS = True
KEY_BITS = 1024
SIZES = {"full": 1000, "tiny": 40}
MIX = (("positive", 60), ("nodata", 10), ("nxdomain", 15), ("referral", 10), ("tcp", 5))
TIMEOUT_S = 2.0
STREAM = 4096
IN_PROCESS_SAMPLES = 500  # positive queries timed without sockets

_CHILD = Path(__file__).resolve().parent / "serve_child.py"


@dataclass(frozen=True)
class Query:
    kind: str
    qname: DnsName
    qtype: int
    wire: bytes
    expect: tuple = ()


@dataclass
class Inputs:
    model: gen.SignZone
    zone_path: Path
    zsk_tag: int
    ksk_tag: int
    queries: list
    digest: str
    src: Path
    seed: int


def generate(seed: int, size: str, workdir: Path) -> Inputs:
    model = gen.sign_zone_input(seed, SIZES[size])
    zsk, ksk = gen.key_pair(model.apex, seed, KEY_BITS)
    signed = signer.sign_zone(zonefile.parse_zone_file(model.text, model.apex),
                              zsk, ksk, signer.SigningPolicy(), gen.NOW)
    text = zonefile.serialize_zone(signed.zone)
    zone_path = workdir / "serve.signed"
    zone_path.write_text(text, encoding="ascii")
    queries = query_stream(model, seed, STREAM)
    return Inputs(model, zone_path, zsk.key_tag, ksk.key_tag, queries,
                  gen.digest(text, *(q.wire for q in queries)),
                  Path.cwd() / "src", seed)


def query_stream(model: gen.SignZone, seed: int, count: int) -> list:
    rng = random.Random(f"serve-queries-{seed}")
    apex = model.apex
    hosts = sorted(model.hosts)
    delegations = sorted(model.delegations)
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    queries = []
    for i in range(count):
        kind = rng.choices(kinds, weights)[0]
        payload = 4096
        if kind == "positive":
            label = rng.choice(hosts)
            rtype = rng.choice(sorted(model.hosts[label]))
            qname, qtype = DnsName.from_text(label, apex), RType[rtype]
            expect = (rtype, tuple(model.hosts[label][rtype]))
        elif kind == "nodata":
            label = rng.choice(hosts)
            present = set(model.hosts[label])
            rtype = "MX" if "MX" not in present else "TXT"
            qname, qtype = DnsName.from_text(label, apex), RType[rtype]
            expect = (frozenset(RType[t] for t in present) | {RType.NSEC, RType.RRSIG},)
        elif kind == "nxdomain":
            qname = DnsName.from_text(f"nx-{i}-{rng.getrandbits(24):06x}", apex)
            qtype = RType.A
            expect = ()
        elif kind == "referral":
            label = rng.choice(delegations)
            qname = DnsName.from_text(f"www.{label}", apex)
            qtype = RType.A
            expect = (label, *model.delegations[label])
        else:
            qname, qtype, payload = apex, RType.DNSKEY, 512
            expect = ()
        wire = encode_message(make_query(qname, qtype, edns=Edns(do=True, udp_payload=payload)))
        queries.append(Query(kind, qname, qtype, wire, expect))
    return queries


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------

@dataclass
class Server:
    process: subprocess.Popen
    port: int
    snapshot: Path | None
    tracer: object


def setup(inputs: Inputs, tracer=None, rep: int = 0) -> Server:
    """Spawn the server and wait for its first answer (zone parse and index
    build included)."""
    port = _free_port()
    command = [sys.executable, str(_CHILD), str(inputs.src), str(inputs.zone_path),
               inputs.model.apex.to_text(), str(port)]
    snapshot = None
    if tracer is not None:
        # Spans go next to the snapshot, in the directory of the run's outputs.
        snapshot = inputs.zone_path.parent.parent / f"spans-serve-seed{inputs.seed}-server.json"
        command += ["--snapshot", str(snapshot)]
    with _one_cpu():  # the server process inherits the affinity
        process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    state = Server(process, port, snapshot, tracer)
    try:
        if process.stdout.readline().strip() != str(port):
            raise RuntimeError(f"server process did not start (exit {process.poll()})")
        _wait_for_answer(port, inputs.model.apex)
    except BaseException:
        teardown(state)
        raise
    return state


def _free_port() -> int:
    """A loopback port free for both UDP and TCP. It is taken below the
    usual ephemeral range (32768 and up), so the client's own TCP
    connections cannot be holding it when the server binds."""
    rng = random.Random()
    for _ in range(200):
        port = rng.randrange(20000, 32000)
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp, \
                    socket.socket(socket.AF_INET, socket.SOCK_STREAM) as tcp:
                udp.bind(("127.0.0.1", port))
                tcp.bind(("127.0.0.1", port))
        except OSError:
            continue
        return port
    raise RuntimeError("no free loopback port for the server")


@contextlib.contextmanager
def _one_cpu():
    """Run the block on the lowest CPU this process may use (Linux only)."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _wait_for_answer(port: int, apex: DnsName) -> None:
    wire = encode_message(make_query(apex, RType.SOA))
    deadline = time.monotonic() + 60
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(0.05)
        sock.connect(("127.0.0.1", port))
        while time.monotonic() < deadline:
            sock.send(wire)
            try:
                if sock.recv(65535)[:2] == wire[:2]:
                    return
            except socket.timeout:
                continue
    raise RuntimeError("server gave no first answer within 60 s")


def teardown(state: Server) -> None:
    process = state.process
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()
    if state.snapshot is not None and state.tracer is not None:
        if state.snapshot.exists():
            state.tracer.merge(json.loads(state.snapshot.read_text(encoding="ascii")))
            state.snapshot.unlink()


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------

def run(state: Server, inputs: Inputs, seconds: float, tracer=None) -> RunResult:
    """Closed loop: send a query, wait for its answer, send the next."""
    queries = inputs.queries
    result = RunResult()
    replies: Counter = Counter()  # (query index, UDP reply, TCP reply) -> times seen
    started = time.perf_counter()
    deadline = started + seconds
    with _one_cpu(), socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(TIMEOUT_S)
        sock.connect(("127.0.0.1", state.port))
        for serial in itertools.count():
            if time.perf_counter() >= deadline:
                break
            query = queries[serial % len(queries)]
            wire = (serial & 0xFFFF).to_bytes(2, "big") + query.wire[2:]
            sent = time.perf_counter()
            result.ops += 1
            try:
                sock.send(wire)
                udp = _recv_reply(sock, wire[:2])
                tcp = b""
                if query.kind == "tcp" and len(udp) > 2 and udp[2] & 0x02:
                    tcp = _tcp_exchange(state.port, wire)
            except OSError as exc:  # socket.timeout is an OSError
                result.fail(f"{query.kind}: no answer ({type(exc).__name__})")
                continue
            result.record(query.kind, (time.perf_counter() - sent) * 1000)
            # Answers repeat byte for byte, so each distinct one is checked
            # once, after the window.
            replies[(serial % len(queries), udp[2:], tcp[2:])] += 1
    result.busy_s = time.perf_counter() - started

    with paused(tracer):
        for (index, udp, tcp), n in replies.items():
            cause = check_reply(queries[index], inputs, udp, tcp)
            if cause:
                result.fail(f"{queries[index].kind}: {cause}", n)
    if tracer is None:
        in_process = in_process_positive_ms(inputs)
        result.info["socket_overhead_ms"] = median(result.latencies_ms.get("positive", [])) - in_process
        result.info["in_process_positive_p50_ms"] = in_process
    result.info["transport"] = "loopback UDP/TCP to a child process; no real link"
    return result


def _recv_reply(sock: socket.socket, txid: bytes) -> bytes:
    while True:
        reply = sock.recv(65535)
        if reply[:2] == txid:
            return reply


def _tcp_exchange(port: int, wire: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as conn:
        conn.sendall(struct.pack(">H", len(wire)) + wire)
        (length,) = struct.unpack(">H", _read_exact(conn, 2))
        return _read_exact(conn, length)


def _read_exact(conn: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = conn.recv(count - len(data))
        if not chunk:
            raise ConnectionError("server closed the TCP connection early")
        data += chunk
    return data


def in_process_positive_ms(inputs: Inputs) -> float:
    """p50 of `handle_wire` on positive queries without sockets."""
    service = server.AuthoritativeService(
        [zonefile.load_zone_file(inputs.zone_path, inputs.model.apex)])
    positives = [q for q in inputs.queries if q.kind == "positive"][:IN_PROCESS_SAMPLES]
    times = []
    for query in positives:
        started = time.perf_counter()
        service.handle_wire(query.wire, False)
        times.append((time.perf_counter() - started) * 1000)
    return median(times)


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------

def _canonical(name: DnsName) -> tuple:
    return tuple(label.lower() for label in reversed(name.labels))


def _covers(owner: DnsName, next_name: DnsName, qname: DnsName) -> bool:
    o, n, q = _canonical(owner), _canonical(next_name), _canonical(qname)
    return o < q and (q < n or n <= o)


def check_reply(query: Query, inputs: Inputs, udp_body: bytes, tcp_body: bytes) -> str | None:
    """Why the reply (bytes after the id) is wrong for the query, or None."""
    try:
        msg = decode_message(b"\0\0" + udp_body)
        if query.kind == "tcp":
            if "tc" not in msg.flags or msg.answers or msg.authority \
                    or msg.rcode != Rcode.NOERROR:
                return "512-octet UDP reply was not a clean truncation"
            msg = decode_message(b"\0\0" + tcp_body)
    except ValueError as exc:
        return f"reply does not decode ({exc})"
    if "qr" not in msg.flags or msg.question is None or \
            (msg.question.name, msg.question.qtype) != (query.qname, query.qtype):
        return "reply header or question does not match the query"
    apex = inputs.model.apex
    sections = {"answer": msg.answers, "authority": msg.authority,
                "additional": msg.additional}
    data: dict = {}
    sigs: dict = {}
    for section, records in sections.items():
        for r in records:
            if r.rtype == RType.RRSIG:
                if r.rdata.signer_name == apex:
                    sigs.setdefault((section, r.owner, r.rdata.type_covered), set()).add(
                        r.rdata.key_tag)
            else:
                data.setdefault((section, r.owner, r.rtype), []).append(r.rdata)

    def signed(section, owner, rtype, tags=(inputs.zsk_tag,)):
        return sigs.get((section, owner, rtype)) == set(tags)

    aa = "aa" in msg.flags
    if query.kind == "positive":
        rtype, values = query.expect
        got = sorted(r.to_text(apex) for r in data.get(("answer", query.qname, query.qtype), []))
        if msg.rcode != Rcode.NOERROR or not aa or got != sorted(values):
            return "answer RRset, rcode or aa is wrong"
        if len(data) != 1 or not signed("answer", query.qname, query.qtype):
            return "answer is not exactly the RRset and its RRSIG"
        return None
    if query.kind == "tcp":
        keys = data.get(("answer", apex, RType.DNSKEY), [])
        if msg.rcode != Rcode.NOERROR or not aa or sorted(k.flags for k in keys) != [256, 257]:
            return "TCP retry did not return the DNSKEY RRset"
        if not signed("answer", apex, RType.DNSKEY, (inputs.zsk_tag, inputs.ksk_tag)):
            return "DNSKEY RRset lacks its KSK and ZSK RRSIGs"
        return None
    if query.kind == "referral":
        label, glue, ds = query.expect
        cut = DnsName.from_text(label, apex)
        ns = data.get(("authority", cut, RType.NS), [])
        additional = data.get(("additional", DnsName.from_text(f"ns.{label}", apex), RType.A), [])
        if msg.rcode != Rcode.NOERROR or aa or msg.answers:
            return "referral has wrong rcode, aa or an answer"
        if [r.to_text(apex) for r in ns] != [f"ns.{label}"] or \
                [r.to_text() for r in additional] != [glue]:
            return "referral NS or glue is wrong"
        if ds is not None:
            got = [r.to_text() for r in data.get(("authority", cut, RType.DS), [])]
            if got != [ds] or not signed("authority", cut, RType.DS):
                return "signed delegation lacks its DS and RRSIG"
        else:
            nsec = data.get(("authority", cut, RType.NSEC), [])
            if len(nsec) != 1 or RType.NS not in nsec[0].type_bitmap \
                    or RType.DS in nsec[0].type_bitmap \
                    or not signed("authority", cut, RType.NSEC):
                return "unsigned delegation lacks its NSEC proof"
        return None
    # Negative answers: SOA and the NSEC witness, each with its RRSIG.
    want_rcode = Rcode.NXDOMAIN if query.kind == "nxdomain" else Rcode.NOERROR
    if msg.rcode != want_rcode or not aa or msg.answers:
        return "negative answer has wrong rcode, aa or an answer"
    if not data.get(("authority", apex, RType.SOA)) or not signed("authority", apex, RType.SOA):
        return "negative answer lacks the signed SOA"
    witnesses = [(owner, rdatas[0]) for (section, owner, rtype), rdatas in data.items()
                 if rtype == RType.NSEC and signed("authority", owner, RType.NSEC)]
    if len(witnesses) != 1:
        return "negative answer lacks exactly one signed NSEC"
    owner, nsec = witnesses[0]
    if query.kind == "nodata":
        (types,) = query.expect
        if owner != query.qname or nsec.type_bitmap != types:
            return "NODATA NSEC is not the owner's, or its type bitmap is wrong"
    elif not _covers(owner, nsec.next_name, query.qname):
        return "NXDOMAIN NSEC does not cover the name"
    return None
