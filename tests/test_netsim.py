"""`SimTransport.query` looks the query's own (port, id) up in each tap's
guess table instead of testing every forged packet. It must accept the same
wire, at the same simulated time, as a scan that tests every packet in the
order sent, kept here as the reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnsseclab.attack import AttackConfig, build_lab
from dnsseclab.message import DnsMessage, Question, decode_message, encode_message, make_query
from dnsseclab.names import DnsName
from dnsseclab.netsim import (LATENCY, PORT_BASE, TXID_SPACE, GuessStream, GuessTable,
                              PortPolicy, QueryEvent, SimNetwork, SimTransport)
from dnsseclab.records import ARdata, ResourceRecord, RType
from dnsseclab.transport import Timeout, reply_matches

from conftest import APEX

WWW = DnsName.from_text("www.domaine.ma.")
EVIL = DnsName.from_text("evil.domaine.ma.")
SERVER = "198.51.100.53"
ELSEWHERE = "203.0.113.66"
VICTIM = "192.0.2.10"
#: Ports and ids are drawn from this few values, so guesses often land.
SPACE = 4


def _wire(txid: int, name: DnsName, address: str) -> bytes:
    msg = DnsMessage(id=txid, flags=frozenset({"qr"}), questions=[Question(name, RType.A)])
    msg.answers.append(ResourceRecord(name, RType.A, 1, 60, ARdata(address)))
    return encode_message(msg)


class ScriptedTap:
    """Sends the same guesses against every query; each forged wire answers
    `name` with `address`, so the accepted wire tells which tap won."""

    def __init__(self, on_path, claimed_src, guesses, name, address):
        self.on_path = on_path
        self.claimed_src = claimed_src
        self.guesses = guesses
        self.name = name
        self.address = address
        self.events = []
        self.forged = 0

    def forge(self, txid: int) -> bytes:
        self.forged += 1
        return _wire(txid, self.name, self.address)

    def on_query(self, event: QueryEvent) -> GuessTable:
        self.events.append(event)
        return GuessTable(self.claimed_src,
                          dict.fromkeys(GuessTable.key(port, txid)
                                        for port, txid in self.guesses), self.forge)


def linear_query(transport: SimTransport, address: str, query: DnsMessage) -> bytes:
    """The packet-by-packet scan: every guess of every table becomes one
    packet, in the order sent, and the legitimate reply comes last; each
    packet tested takes one LATENCY and the first that passes wins. A guess
    is decoded back into the (port, id) its packet carries."""
    net = transport.network
    handler = net.hosts.get(address)
    net.transactions += 1
    net.advance(LATENCY)
    wire = encode_message(query)
    txid, question = query.id, query.question
    src_port = transport.ports.next_port()
    packets = []
    for tap in net.taps:
        if tap.on_path:
            event = QueryEvent(address, question.name, question.qtype, transport.address,
                               txid=txid, src_port=src_port, wire=wire)
        else:
            event = QueryEvent(address, question.name, question.qtype, transport.address)
        table = tap.on_query(event)
        for key in table.guesses:
            port, guess = divmod(key, TXID_SPACE)
            packets.append((table.claimed_src, PORT_BASE + port, table.forge(guess), True))
    reply = handler(wire, False) if handler else None
    if reply is not None:
        packets.append((address, src_port, reply, False))
    for claimed_src, port, packet, forged in packets:
        net.advance(LATENCY)
        if (claimed_src == address and port == src_port
                and reply_matches(packet, txid, question) is not None):
            net.forged_matcher_hits += forged
            return packet
    raise Timeout(f"no matching answer from {address}")


def _world(seed, port_mode, taps, reply):
    net = SimNetwork(seed=seed)
    if reply != "missing":
        def handler(wire, via_tcp):
            query = decode_message(wire)
            if reply == "silent":
                return None
            txid = query.id if reply == "match" else (query.id + 1) % SPACE
            return _wire(txid, WWW, "192.0.2.1")
        net.register(SERVER, handler)
    for i, (on_path, claimed_src, guesses, wrong_name) in enumerate(taps):
        net.add_tap(ScriptedTap(on_path, claimed_src, guesses,
                                EVIL if wrong_name else WWW, f"10.0.0.{i}"))
    ports = PortPolicy(port_mode, rng=random.Random(seed + 1), space=SPACE)
    return net, SimTransport(net, VICTIM, ports)


def table_query(transport: SimTransport, address: str, query: DnsMessage) -> bytes:
    msg, accepted = transport.query(address, query)
    assert msg == decode_message(accepted)
    return accepted


def _outcome(send, transport, query):
    try:
        accepted = send(transport, SERVER, query)
    except Timeout:
        accepted = None
    net = transport.network
    return (accepted, repr(net.clock()), net.forged_matcher_hits, net.transactions,
            [tap.events for tap in net.taps])


taps = st.lists(st.tuples(
    st.booleans(),
    st.sampled_from([SERVER, ELSEWHERE]),
    st.lists(st.tuples(st.integers(PORT_BASE, PORT_BASE + SPACE - 1),
                       st.integers(0, SPACE - 1)), unique=True, max_size=16),
    st.booleans()), max_size=3)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32), port_mode=st.sampled_from(["fixed", "random"]),
       taps=taps, reply=st.sampled_from(["match", "mismatch", "silent", "missing"]),
       txids=st.lists(st.integers(0, SPACE - 1), min_size=1, max_size=3))
def test_guess_table_lookup_matches_the_packet_scan(seed, port_mode, taps, reply, txids):
    table_world = _world(seed, port_mode, taps, reply)
    scan_world = _world(seed, port_mode, taps, reply)
    for txid in txids:
        query = make_query(WWW, RType.A, id=txid)
        by_table = _outcome(table_query, table_world[1], query)
        by_scan = _outcome(linear_query, scan_world[1], query)
        assert by_table == by_scan


def test_forged_wire_with_the_right_id_and_wrong_qname_is_refused():
    """The guess at the query's (port, id) lands, but its question names
    another owner: the match rule runs on the built wire and refuses it."""
    guesses = [(PORT_BASE, txid) for txid in range(SPACE)]
    query = make_query(WWW, RType.A, id=2)
    net, transport = _world(0, "fixed", [(False, SERVER, guesses, True)], "match")
    msg, accepted = transport.query(SERVER, query)
    assert msg.answers[0].rdata.address == "192.0.2.1"
    assert net.taps[0].forged == 1 and net.forged_matcher_hits == 0
    scan_net, scan = _world(0, "fixed", [(False, SERVER, guesses, True)], "match")
    assert linear_query(scan, SERVER, query) == accepted
    assert repr(net.clock()) == repr(scan_net.clock())


@pytest.mark.parametrize("start", [1_750_000_000.0, 0.0, 12_345.678])
def test_delivering_n_packets_adds_latency_n_times_in_order(start):
    """The clock after `_deliver(n)` is the float that n one-at-a-time
    additions of `LATENCY` give, to the last bit."""
    for packets in range(301):
        net = SimNetwork(start_time=start)
        SimTransport(net, VICTIM)._deliver(packets)
        reference = SimNetwork(start_time=start)
        for _ in range(packets):
            reference.advance(LATENCY)
        assert net.clock() == reference.clock()
        assert repr(net.clock()) == repr(reference.clock())


def test_plain_lookup_builds_no_name_through_the_checks(signed_zone, monkeypatch):
    """Names decoded from the wire, and their parents, skip `DnsName.__init__`:
    `read_name` has already checked them."""
    lab = build_lab(AttackConfig(mode="kaminsky", target_zone=APEX,
                                 forged_per_query=100, seed=1), signed_zone.zone)
    qname = DnsName.from_text("r0-0.domaine.ma.")
    lab.attacker.arm(qname)
    calls = []
    checked_init = DnsName.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        checked_init(self, *args, **kwargs)

    monkeypatch.setattr(DnsName, "__init__", counting_init)
    reply = lab.victim.resolve_name(qname, RType.A)
    monkeypatch.undo()
    assert reply.answers or reply.authority
    assert len(calls) <= 1


def _agree(seed, n, k, draws):
    """`draws` successive draws of a stream against successive `sample` calls
    on a twin RNG."""
    stream, twin = GuessStream(random.Random(seed), n, k), random.Random(seed)
    for _ in range(draws):
        assert list(stream.draw()) == twin.sample(range(n), k)


@pytest.mark.parametrize("n", [TXID_SPACE, TXID_SPACE * 4096], ids=["fixed", "random"])
@pytest.mark.parametrize("k, seeds", [(0, 3), (1, 20), (100, 40), (5461, 3), (5462, 3)])
def test_draw_guesses_is_random_sample(n, k, seeds):
    """Successive draws of the stream give the guesses, in order, of
    successive `random.Random.sample` calls, for the guess spaces of both
    port modes, on each side of the 5 461 guesses where `sample` switches
    branch at 65 536. Each case makes 200 draws across its seeds, so the
    leftovers of many batches carry over from one draw to the next."""
    for seed in range(seeds):
        _agree(seed, n, k, -(-200 // seeds))


class ScriptedWords(random.Random):
    """Gives `words` first, then seeded ones, one 32-bit word per 32 bits
    asked for, lowest first, as CPython's `getrandbits` does."""

    def __init__(self, words):
        super().__init__(0)
        self.words = list(words)

    def getrandbits(self, k):
        count = max(1, k // 32)
        words = [self.words.pop(0) if self.words else random.Random.getrandbits(self, 32)
                 for _ in range(count)]
        return sum(word << (32 * i) for i, word in enumerate(words)) >> (32 * count - k)


@pytest.mark.parametrize("n", [2 ** 31, 2 ** 31 + 1])
def test_draw_guesses_is_random_sample_at_the_widest_lane(n):
    """At 2**31 every bit of a word is kept and `2**31 - n` is 0; one more
    and the draws are `sample`'s own. The words start with 0, all ones and
    each side of n, where a carry or borrow between lanes would show."""
    script = [0, 5, 0, 2 ** 32 - 1, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 0, 0, 7] * 20
    stream, twin = GuessStream(ScriptedWords(script), n, 100), ScriptedWords(script)
    for _ in range(200):
        assert list(stream.draw()) == twin.sample(range(n), 100)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 2 ** 34), k=st.integers(0, 300),
       draws=st.integers(1, 4))
def test_draw_guesses_is_random_sample_for_any_space(seed, n, k, draws):
    """Also where `sample` takes its pool branch (small n) and where n needs
    more than 32 bits: there each draw is `sample` itself."""
    _agree(seed, n, min(k, n), draws)


def test_a_repeated_guess_is_drawn_again_from_the_next_word():
    """Seed 14's first 100 accepted values at 65 536 hold a repeat, so the
    draw goes past them as `sample` does, and the next draw starts after."""
    rng = random.Random(14)
    words = (rng.getrandbits(32) >> 15 for _ in range(400))
    accepted = [guess for guess in words if guess < TXID_SPACE]
    assert len(set(accepted[:100])) < 100
    _agree(14, TXID_SPACE, 100, 3)


class CountingRandom(random.Random):
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_a_draw_of_100_at_65536_takes_at_most_two_getrandbits_calls():
    """`sample` takes one `getrandbits` call per word, about 200 for 100
    guesses at 65 536; the stream takes one call per batch of words, one or
    two per draw. Counted, not timed."""
    rng, twin = CountingRandom(11), CountingRandom(11)
    stream = GuessStream(rng, TXID_SPACE, 100)
    for _ in range(1000):
        assert list(stream.draw()) == twin.sample(range(TXID_SPACE), 100)
    assert twin.calls > 150_000
    assert rng.calls <= 2000
