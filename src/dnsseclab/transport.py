"""Transport interface: real UDP/TCP sockets, or the simulated network.
Both take the query message, encode it for each send and never decode it;
they accept a reply only when `reply_matches` the query's id and question,
and return the message that the rule decoded together with its wire."""

from __future__ import annotations

import random
import socket
import threading
import time

from .message import DnsMessage, Question, decode_message, encode_message


class TransportError(Exception):
    pass


class Timeout(TransportError):
    pass


def reply_matches(reply: bytes, txid: int, question: Question) -> DnsMessage | None:
    """The decoded reply if it has the same id, then (decoded only then) the
    same qname in any case and qtype, else None: RFC 5452 §9.1, less the
    source check that each transport makes itself."""
    if len(reply) < 12 or int.from_bytes(reply[:2], "big") != txid:
        return None
    try:
        msg = decode_message(reply)
    except ValueError:
        return None
    answer_q = msg.question
    if (answer_q is None
            or (answer_q.name, answer_q.qtype) != (question.name, question.qtype)):
        return None
    return msg


def recv_framed(sock: socket.socket) -> bytes:
    """Read one DNS message with its 2-byte length prefix from a TCP stream."""
    return _recv_exact(sock, int.from_bytes(_recv_exact(sock, 2), "big"))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise TransportError("tcp connection closed mid-message")
        data += chunk
    return data


class Transport:
    """Sends one query message to a server address and returns the accepted
    reply, decoded, with its wire."""

    def query(self, address: str, query: DnsMessage,
              tcp: bool = False) -> tuple[DnsMessage, bytes]:
        raise NotImplementedError

    def new_txid(self) -> int:
        raise NotImplementedError

    def exchange(self, address: str, query: DnsMessage,
                 tcp: bool = False) -> tuple[DnsMessage, bytes]:
        """`query`, with a truncated UDP reply asked again over TCP."""
        msg, reply = self.query(address, query, tcp=tcp)
        if "tc" in msg.flags and not tcp:
            return self.exchange(address, query, tcp=True)
        return msg, reply


class SocketTransport(Transport):
    """UDP with a 2-byte length-prefixed TCP variant, against real servers.

    source_port="fixed" reuses one query socket for every UDP query (the
    regime the Kaminsky attack exploits); "random" takes a fresh OS-assigned
    port per query.
    """

    def __init__(self, port: int = 5353, timeout: float = 2.0,
                 source_port: str = "random"):
        if source_port not in ("fixed", "random"):
            raise ValueError(f"source_port {source_port!r}")
        self.port = port
        self.timeout = timeout
        self.source_port = source_port
        self._rng = random.SystemRandom()
        self._fixed_sock: socket.socket | None = None
        self._lock = threading.Lock()

    def new_txid(self) -> int:
        return self._rng.randrange(65536)

    def _split(self, address: str) -> tuple[str, int]:
        if ":" in address:
            host, _, port = address.rpartition(":")
            return host, int(port)
        return address, self.port

    def query(self, address: str, query: DnsMessage,
              tcp: bool = False) -> tuple[DnsMessage, bytes]:
        host, port = self._split(address)
        wire = encode_message(query)
        if not tcp:
            return self._query_udp(host, port, wire, query)
        reply = self._query_tcp(host, port, wire)
        msg = reply_matches(reply, query.id, query.question)
        if msg is None:
            raise TransportError(f"tcp reply from {host}:{port} does not match the query")
        return msg, reply

    def close(self) -> None:
        with self._lock:
            if self._fixed_sock is not None:
                self._fixed_sock.close()
                self._fixed_sock = None

    def _query_udp(self, host: str, port: int, wire: bytes,
                   query: DnsMessage) -> tuple[DnsMessage, bytes]:
        if self.source_port == "fixed":
            with self._lock:
                if self._fixed_sock is None:
                    self._fixed_sock = socket.socket(socket.AF_INET,
                                                     socket.SOCK_DGRAM)
                    self._fixed_sock.bind(("", 0))
                return self._exchange(self._fixed_sock, host, port, wire, query)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            return self._exchange(sock, host, port, wire, query)

    def _exchange(self, sock: socket.socket, host: str, port: int, wire: bytes,
                  query: DnsMessage) -> tuple[DnsMessage, bytes]:
        deadline = time.monotonic() + self.timeout  # stray datagrams do not extend it
        try:
            sock.sendto(wire, (host, port))
            while (remaining := deadline - time.monotonic()) > 0:
                sock.settimeout(remaining)
                data, sender = sock.recvfrom(65535)
                if sender[0] == host and sender[1] == port:
                    msg = reply_matches(data, query.id, query.question)
                    if msg is not None:
                        return msg, data
        except socket.timeout:
            pass
        except OSError as exc:
            # ICMP port-unreachable and friends: retryable like a timeout.
            raise Timeout(f"udp query to {host}:{port}: {exc}") from exc
        raise Timeout(f"udp query to {host}:{port} timed out")

    def _query_tcp(self, host: str, port: int, wire: bytes) -> bytes:
        try:
            with socket.create_connection((host, port), timeout=self.timeout) as sock:
                sock.sendall(len(wire).to_bytes(2, "big") + wire)
                return recv_framed(sock)
        except socket.timeout as exc:
            raise Timeout(f"tcp query to {host}:{port} timed out") from exc
        except OSError as exc:
            raise TransportError(str(exc)) from exc
