"""Authoritative query answering and the socket-facing server.

Answer assembly is pure: the same logic backs the real UDP/TCP server, the
in-memory simulated network, and the validator's fetch path in tests.
"""

from __future__ import annotations

import errno
import socketserver
import threading
from dataclasses import replace

from .message import DnsMessage, Rcode, decode_message, encode_message, make_reply
from .names import DnsName
from .records import RType
from .transport import TransportError, recv_framed
from .zonefile import Zone

PLAIN_UDP_LIMIT = 512
BIND_ATTEMPTS = 5


def find_zone(zones: list, qname: DnsName) -> Zone | None:
    return max((zone for zone in zones if qname.is_subdomain_of(zone.apex)),
               key=lambda zone: len(zone.apex.labels), default=None)


def _signed(zone: Zone, records: list) -> list:
    """One RRset's records followed by the RRSIGs in `zone` that cover it."""
    if not records:
        return records
    return [*records, *zone.rrsigs_at(records[0].owner, records[0].rtype)]


def _nsec_proof(zone: Zone, name: DnsName) -> list:
    """The NSEC that owns or covers `name`, and its RRSIGs; none when unsigned."""
    nsec = zone.covering_nsec(name)
    return _signed(zone, [nsec]) if nsec is not None else []


def answer_authoritative(query: DnsMessage, zones: list) -> DnsMessage:
    """Answer one query from authoritative data.

    Exact matches get aa answers with RRSIGs when the DO bit is set; names
    below a delegation get referrals; names that own no records get NODATA
    when some owner lies below them (an empty non-terminal) and NXDOMAIN
    otherwise, with the SOA and, under DNSSEC, the covering NSEC witness.
    """
    reply = make_reply(query)
    q = query.question
    if q is None:
        reply.rcode = Rcode.FORMERR
        return reply
    dnssec = query.do_bit
    zone = find_zone(zones, q.name)
    if zone is None:
        reply.rcode = Rcode.REFUSED
        return reply

    cut = zone.highest_cut(q.name)
    if cut is not None and not (q.name == cut and q.qtype == RType.DS):
        # Referral toward the child zone; never authoritative.
        ns = zone.records_at(cut, RType.NS)
        reply.authority.extend(ns)
        if dnssec:
            reply.authority.extend(_signed(zone, zone.records_at(cut, RType.DS))
                                   or _nsec_proof(zone, cut))
        for record in ns:
            target = record.rdata.target
            if target.is_subdomain_of(zone.apex):
                reply.additional.extend(zone.records_at(target, RType.A))
        return reply

    reply.flags = reply.flags | {"aa"}
    answers = zone.records_at(q.name, q.qtype)
    if not answers and q.qtype != RType.CNAME:
        answers = zone.records_at(q.name, RType.CNAME)
    if answers:
        reply.answers = _signed(zone, answers) if dnssec else answers
        return reply

    # Negative answer: NODATA when the name exists, NXDOMAIN otherwise.
    soa = [zone.soa_record]
    reply.authority = _signed(zone, soa) + _nsec_proof(zone, q.name) if dnssec else soa
    if not zone.has_name(q.name):
        reply.rcode = Rcode.NXDOMAIN
    return reply


def encode_with_limit(msg: DnsMessage, limit: int | None) -> bytes:
    """Encode for UDP delivery: when the message exceeds the negotiated
    payload size, mark it truncated and drop the record sections."""
    wire = encode_message(msg)
    if limit is None or len(wire) <= limit:
        return wire
    truncated = replace(msg, flags=msg.flags | {"tc"}, answers=[],
                        authority=[], additional=[])
    return encode_message(truncated)


def udp_limit_for(query: DnsMessage) -> int:
    if query.edns:
        return max(PLAIN_UDP_LIMIT, query.edns.udp_payload)
    return PLAIN_UDP_LIMIT


class AuthoritativeService:
    """Wire-level request handling shared by every transport flavor.
    Authoritative for its zones; recursion-desired queries for anything else
    go through the attached resolver (when one is configured)."""

    def __init__(self, zones: list[Zone], resolver=None):
        self.zones = list(zones)
        self.resolver = resolver

    def handle_wire(self, wire: bytes, via_tcp: bool) -> bytes | None:
        try:
            query = decode_message(wire)
        except ValueError:
            if len(wire) < 12:
                return None  # no header, so no id a reply could carry
            stub = DnsMessage(id=int.from_bytes(wire[:2], "big"))
            return encode_message(make_reply(stub, rcode=Rcode.FORMERR))
        q = query.question
        if (q is not None and self.resolver is not None
                and "rd" in query.flags
                and find_zone(self.zones, q.name) is None):
            reply = self.resolver.resolve(query)
        else:
            reply = answer_authoritative(query, self.zones)
        if via_tcp:
            return encode_message(reply)
        return encode_with_limit(reply, udp_limit_for(query))


class GatewayService(AuthoritativeService):
    """An `AuthoritativeService`, usually built with a resolver."""

    handle_wire = AuthoritativeService.handle_wire  # named by perfbench METHODS; ROADMAP H drops it


class _UdpHandler(socketserver.BaseRequestHandler):
    def handle(self):
        wire, sock = self.request
        reply = self.server.service.handle_wire(wire, via_tcp=False)
        if reply is not None:
            sock.sendto(reply, self.client_address)


class _TcpHandler(socketserver.BaseRequestHandler):
    def handle(self):
        try:
            wire = recv_framed(self.request)
        except TransportError:
            return  # the client closed before sending a whole message
        reply = self.server.service.handle_wire(wire, via_tcp=True)
        if reply is not None:
            self.request.sendall(len(reply).to_bytes(2, "big") + reply)


class _UdpServer(socketserver.ThreadingUDPServer):
    daemon_threads = True


class _TcpServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class DnsServer:
    """Server listening on UDP and TCP at the same address. Accepts a list of
    zones or any service object exposing handle_wire."""

    def __init__(self, zones, address: str = "127.0.0.1", port: int = 5353):
        self.service = (zones if hasattr(zones, "handle_wire")
                        else AuthoritativeService(zones))
        # With port 0, TCP binds the port UDP got; if that is taken, try a new pair.
        attempts = 1 if port else BIND_ATTEMPTS
        for attempt in range(attempts):
            self._udp = _UdpServer((address, port), _UdpHandler)
            try:
                self._tcp = _TcpServer((address, self._udp.server_address[1]), _TcpHandler)
                break
            except OSError as exc:
                self._udp.server_close()
                if exc.errno != errno.EADDRINUSE or attempt + 1 == attempts:
                    raise
        self._udp.service = self._tcp.service = self.service
        self.address = address
        self.port = self._udp.server_address[1]
        self._threads: list[threading.Thread] = []

    def reload(self, zones: list[Zone]) -> None:
        self.service.zones = list(zones)

    def start(self) -> None:
        for server in (self._udp, self._tcp):
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            self._threads.append(thread)

    def shutdown(self) -> None:
        for server in (self._udp, self._tcp):
            if self._threads:  # socketserver's shutdown() blocks unless serve_forever runs
                server.shutdown()
            server.server_close()

    def serve_forever(self) -> None:
        self.start()
        for thread in self._threads:
            thread.join()
