"""Deterministic in-memory network with adversary taps.

Queries deliver synchronously: taps inject forged packets first, the
legitimate reply arrives last, and the querying socket accepts the first
packet whose source and destination port match and that passes
`transport.reply_matches` (transaction id and question), the same rule the
real-socket transport applies. That models the exact race a cache-poisoning
attacker exploits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Protocol

from .message import decode_message
from .names import DnsName
from .transport import Timeout, Transport, TransportError, reply_matches


@dataclass(frozen=True)
class QueryEvent:
    """What a tap learns about a query in flight. Off-path taps get the
    question and addresses (they chose the name and can see timing); only
    on-path taps get the wire, transaction id and source port."""
    dst: str
    qname: DnsName
    qtype: int
    victim: str
    txid: int | None = None
    src_port: int | None = None
    wire: bytes | None = None


class InjectedPacket(NamedTuple):
    claimed_src: str
    dst_port: int
    wire: bytes
    forged: bool = True


class Tap(Protocol):
    on_path: bool

    def on_query(self, event: QueryEvent) -> list[InjectedPacket]:
        ...


#: Simulated time each query and each delivered packet take, in seconds.
LATENCY = 0.01
#: The fixed source port, and the lowest one a random draw can give.
PORT_BASE = 32768


class SimNetwork:
    def __init__(self, seed: int = 0, start_time: float = 1_750_000_000.0):
        self.rng = random.Random(seed)
        self.hosts: dict[str, Callable[[bytes, bool], bytes | None]] = {}
        self.taps: list[Tap] = []
        self.transactions = 0
        self.forged_matcher_hits = 0
        self._time = start_time

    def register(self, address: str,
                 handler: Callable[[bytes, bool], bytes | None]) -> None:
        self.hosts[address] = handler

    def add_tap(self, tap: Tap) -> None:
        self.taps.append(tap)

    def clock(self) -> float:
        return self._time

    def advance(self, seconds: float) -> None:
        self._time += seconds


class PortPolicy:
    """Source-port selection: `fixed` reuses one port (the Kaminsky-friendly
    regime); `random` draws from a bounded port space."""

    def __init__(self, mode: str = "fixed", rng: random.Random | None = None, space: int = 4096):
        if mode not in ("fixed", "random"):
            raise ValueError(f"port mode {mode!r}")
        self.mode = mode
        self.rng = rng or random.Random(0)
        self.space = space

    def next_port(self) -> int:
        if self.mode == "fixed":
            return PORT_BASE
        return PORT_BASE + self.rng.randrange(self.space)


class SimTransport(Transport):
    """Transport bound to one simulated host."""

    def __init__(self, network: SimNetwork, address: str,
                 port_policy: PortPolicy | None = None):
        self.network = network
        self.address = address
        self.ports = port_policy or PortPolicy(rng=network.rng)
        self._txid_rng = random.Random(network.rng.randrange(2 ** 63))

    def new_txid(self) -> int:
        return self._txid_rng.randrange(65536)

    def query(self, address: str, wire: bytes, tcp: bool = False,
              timeout: float = 2.0) -> bytes:
        net = self.network
        handler = net.hosts.get(address)
        net.transactions += 1
        net.advance(LATENCY)
        txid = int.from_bytes(wire[:2], "big")
        question = decode_message(wire).question
        if tcp:
            # Connection-oriented; off-path injection does not apply.
            reply = handler(wire, True) if handler else None
            if reply is None:
                raise Timeout(f"{address} did not answer over tcp")
            if not reply_matches(reply, txid, question):
                raise TransportError(f"tcp reply from {address} does not match the query")
            return reply

        src_port = self.ports.next_port()
        packets: list[InjectedPacket] = []
        for tap in net.taps:
            if tap.on_path:
                event = QueryEvent(address, question.name, question.qtype,
                                   self.address, txid=txid, src_port=src_port,
                                   wire=wire)
            else:
                event = QueryEvent(address, question.name, question.qtype,
                                   self.address)
            packets.extend(tap.on_query(event))
        if handler is not None:
            reply = handler(wire, False)
            if reply is not None:
                packets.append(InjectedPacket(address, src_port, reply,
                                              forged=False))
        for packet in packets:
            net.advance(LATENCY)
            if (packet.claimed_src == address and packet.dst_port == src_port
                    and reply_matches(packet.wire, txid, question)):
                if packet.forged:
                    net.forged_matcher_hits += 1
                return packet.wire
        raise Timeout(f"no matching answer from {address}")
