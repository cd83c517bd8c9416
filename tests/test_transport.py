"""The one reply-acceptance rule (RFC 5452 §9.1), on its own and as the
real-socket transport applies it against a loopback fake server."""

import itertools
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from dnsseclab.message import DnsMessage, Question, encode_message, make_query
from dnsseclab.names import DnsName
from dnsseclab.records import RType
from dnsseclab.transport import SocketTransport, Timeout, reply_matches

WWW = DnsName.from_text("www.domaine.ma.")
TXID = 0x1234
QUERY = make_query(WWW, RType.A, id=TXID)


def _reply(txid=TXID, name=WWW, qtype=RType.A) -> bytes:
    return encode_message(DnsMessage(id=txid, flags=frozenset({"qr"}),
                                     questions=[Question(name, qtype)]))


@pytest.mark.parametrize("reply, accepted", [
    (_reply(), True),
    (_reply(txid=TXID + 1), False),
    (_reply(name=DnsName.from_text("WWW.Domaine.MA.")), True),
    (_reply(name=DnsName.from_text("evil.domaine.ma.")), False),
    (_reply(qtype=RType.MX), False),
    (_reply()[:11], False),
    (_reply()[:12] + b"\xc0", False),
], ids=["match", "id", "qname-case", "qname", "qtype", "short", "undecodable"])
def test_reply_matches_id_and_question(reply, accepted):
    assert (reply_matches(reply, TXID, QUERY.question) is not None) is accepted


@contextmanager
def fake_server(replies, gap=0.0):
    """One thread and one UDP socket: wait for a query, then send `replies`
    to its source, `gap` seconds apart, until the test is done."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(5.0)
    done = threading.Event()

    def serve():
        _, client = sock.recvfrom(65535)
        for reply in replies:
            if done.wait(gap):
                return
            sock.sendto(reply, client)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{sock.getsockname()[1]}"
    finally:
        done.set()
        thread.join(timeout=5)
        sock.close()
    assert not thread.is_alive()


@pytest.mark.parametrize("source_port", ["random", "fixed"])
def test_wrong_id_reply_from_server_port_is_ignored(source_port):
    transport = SocketTransport(timeout=2.0, source_port=source_port)
    try:
        with fake_server([_reply(txid=TXID + 1), _reply()]) as address:
            assert transport.query(address, QUERY)[1] == _reply()
    finally:
        transport.close()


def test_wrong_question_reply_is_ignored():
    wrong = _reply(name=DnsName.from_text("evil.domaine.ma."))
    with fake_server([wrong, _reply()]) as address:
        assert SocketTransport(timeout=2.0).query(address, QUERY)[1] == _reply()


def test_stream_of_wrong_ids_times_out_on_one_deadline():
    timeout = 0.3
    stream = itertools.repeat(_reply(txid=TXID + 1), 500)
    with fake_server(stream, gap=0.01) as address:
        started = time.monotonic()
        with pytest.raises(Timeout):
            SocketTransport(timeout=timeout).query(address, QUERY)
        assert time.monotonic() - started < timeout + 0.5
