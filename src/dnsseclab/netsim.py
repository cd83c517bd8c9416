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
import sys
from array import array
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import compress, repeat
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
    from `claimed_src`: the keys of `guesses` are the guesses in the order
    they are sent, each the integer `GuessTable.key(destination port,
    transaction id)`, and `forge` builds the wire for one guessed id. Only a
    guess that lands is built. `len()` is the number of forged packets."""
    claimed_src: str = ""
    guesses: dict[int, None] = field(default_factory=dict)
    forge: Callable[[int], bytes] | None = None

    def __len__(self) -> int:
        return len(self.guesses)

    @staticmethod
    def key(port: int, txid: int) -> int:
        """The guess that stands for (destination port, transaction id)."""
        return (port - PORT_BASE) * TXID_SPACE + txid


#: Words per `getrandbits` call of a `GuessStream`: about 64 guesses at 65 536,
#: one or two calls per 100-guess draw. With 512, a draw that refills costs more
#: than drawing word by word; larger batches show as lookup latency spikes.
BATCH_WORDS = 128
#: A 1 in the lowest bit of each 32-bit lane of a batch.
_LANE_ONES = sum(1 << (32 * i) for i in range(BATCH_WORDS))


class GuessStream:
    """Successive `draw()`s give the guesses, in order, of successive
    `rng.sample(range(n), k)` calls. `sample` takes one 32-bit word per try,
    keeps `word >> (32 - n.bit_length())` when below n, and tries again for a
    repeat. A batch shifts and masks all its words at once and drops those at
    or above n, flagged by bit 31 of `lane + 2**31 - n` (no carry while n <=
    2**31). The RNG runs ahead of `sample`'s, so the stream must be its only
    consumer. Past 2**31, or in `sample`'s pool branch (k > 5 461 at 65 536),
    each draw is `sample`."""

    def __init__(self, rng: random.Random, n: int, k: int):
        self.rng, self.n, self.k = rng, n, k
        bits = n.bit_length()
        self._by_sample = n > 1 << 31 or n <= 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
        self._shift = 32 - bits
        self._mask = ((1 << bits) - 1) * _LANE_ONES
        self._offset = ((1 << 31) - n) * _LANE_ONES
        self._pending: list[int] = []

    def _refill(self) -> None:
        """Append the values below n of the next batch of words, in order."""
        lanes = (self.rng.getrandbits(32 * BATCH_WORDS) >> self._shift) & self._mask
        kept = (((lanes + self._offset) >> 31) & _LANE_ONES) ^ _LANE_ONES
        self._pending += compress(array("I", lanes.to_bytes(4 * BATCH_WORDS, sys.byteorder)),
                                  kept.to_bytes(4 * BATCH_WORDS, "little")[::4])

    def draw(self) -> dict[int, None]:
        """The next k distinct guesses, as the keys of a dict in order."""
        if self._by_sample:
            return dict.fromkeys(self.rng.sample(range(self.n), self.k))
        k, pending = self.k, self._pending
        while len(pending) < k:
            self._refill()
        guesses, used = dict.fromkeys(pending[:k]), k
        while len(guesses) < k:  # a repeat: `sample` draws again
            if used == len(pending):
                self._refill()
            guesses[pending[used]] = None
            used += 1
        del pending[:used]
        return guesses


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
            if table.claimed_src != address or key not in table.guesses:
                self._deliver(len(table))
                continue
            position = list(table.guesses).index(key)
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
