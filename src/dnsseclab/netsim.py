"""Deterministic in-memory network with adversary taps.

Queries deliver synchronously. Each tap answers a query with a `GuessTable`
of forged replies, sent in order before the legitimate reply, which arrives
last. A forged reply can only be accepted if its claimed source, port and
id are the query's, so the querying socket looks up its own (port, id) in
each table instead of testing every packet, and builds only the forged
wire it finds. That wire, like the legitimate reply, must still pass
`transport.reply_matches` (transaction id and question), the rule the
real-socket transport applies. Every packet up to and including the one
accepted costs `LATENCY` on the clock, as if each had been tested in turn.
That models the exact race a cache-poisoning attacker exploits.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import repeat
from math import ceil, log
from operator import add
from typing import Callable, Protocol

from .message import DnsMessage, encode_message
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


@dataclass(frozen=True)
class GuessTable:
    """The forged replies a tap sends against one query, all claiming to come
    from `claimed_src`: `positions` maps each guess, the integer
    `GuessTable.key(destination port, transaction id)`, to its place in the
    order they are sent, and `forge` builds the wire for one guessed id.
    Only a guess that lands is built. `len()` is the number of forged packets."""
    claimed_src: str = ""
    positions: dict[int, int] = field(default_factory=dict)
    forge: Callable[[int], bytes] | None = None

    def __len__(self) -> int:
        return len(self.positions)

    @staticmethod
    def key(port: int, txid: int) -> int:
        """The guess that stands for (destination port, transaction id)."""
        return (port - PORT_BASE) * TXID_SPACE + txid


_WORD = struct.Struct("<I")


def draw_guesses(rng: random.Random, n: int, k: int) -> dict[int, int]:
    """`rng.sample(range(n), k)` as a dict from each guess to its place in the
    sample: the same guesses in the same order, with `rng` left in the same
    state. CPython's `sample` draws each guess with `_randbelow(n)`, which
    takes one 32-bit word per try and keeps `word >> (32 - n.bit_length())`
    when that is below n, and then redraws a guess it already holds. Here the
    words come from one `getrandbits` call per batch of exactly as many words
    as guesses are missing: a word adds at most one guess, so no batch draws
    past the k-th. Where `sample` takes its pool branch instead (k > 5 461
    for n = 65 536), or n needs more than 32 bits, this is `sample` itself."""
    shift = 32 - n.bit_length()
    if shift < 0 or n <= 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0):
        return {guess: i for i, guess in enumerate(rng.sample(range(n), k))}
    positions: dict[int, int] = {}
    setdefault = positions.setdefault
    need = k
    while need:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        for (word,) in _WORD.iter_unpack(words):
            guess = word >> shift
            if guess < n:
                setdefault(guess, len(positions))
        need = k - len(positions)
    return positions


#: What a tap that injects nothing returns.
NO_GUESSES = GuessTable()


class Tap(Protocol):
    on_path: bool

    def on_query(self, event: QueryEvent) -> GuessTable:
        ...


#: Simulated time each query and each delivered packet take, in seconds.
LATENCY = 0.01
#: The fixed source port, and the lowest one a random draw can give.
PORT_BASE = 32768
#: Transaction ids a query can carry.
TXID_SPACE = 65536


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
        return self._txid_rng.randrange(TXID_SPACE)

    def query(self, address: str, query: DnsMessage,
              tcp: bool = False) -> tuple[DnsMessage, bytes]:
        net = self.network
        handler = net.hosts.get(address)
        net.transactions += 1
        net.advance(LATENCY)
        wire = encode_message(query)
        txid, question = query.id, query.question
        if tcp:
            # Connection-oriented; off-path injection does not apply.
            reply = handler(wire, True) if handler else None
            if reply is None:
                raise Timeout(f"{address} did not answer over tcp")
            msg = reply_matches(reply, txid, question)
            if msg is None:
                raise TransportError(f"tcp reply from {address} does not match the query")
            return msg, reply

        src_port = self.ports.next_port()
        event = QueryEvent(address, question.name, question.qtype, self.address)
        tables = [tap.on_query(replace(event, txid=txid, src_port=src_port, wire=wire)
                               if tap.on_path else event) for tap in net.taps]
        key = GuessTable.key(src_port, txid)
        for table in tables:
            position = (table.positions.get(key)
                        if table.claimed_src == address else None)
            if position is None:
                self._deliver(len(table))
                continue
            self._deliver(position + 1)
            forged = table.forge(txid)
            msg = reply_matches(forged, txid, question)
            if msg is not None:
                net.forged_matcher_hits += 1
                return msg, forged
            self._deliver(len(table) - position - 1)
        reply = handler(wire, False) if handler else None
        if reply is not None:
            self._deliver(1)
            msg = reply_matches(reply, txid, question)
            if msg is not None:
                return msg, reply
        raise Timeout(f"no matching answer from {address}")

    def _deliver(self, packets: int) -> None:
        """One `LATENCY` per packet, added one at a time in order (not `sum`,
        which compensates, nor a product): the float clock then reads the
        same as when each packet is tested in turn."""
        net = self.network
        net._time = reduce(add, repeat(LATENCY, packets), net._time)
