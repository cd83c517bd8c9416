"""A hostile authority for resolver tests: a resolver whose servers' replies
pass through a tamper on the way, and the tampers the tests share."""

from dataclasses import replace

from dnsseclab.message import decode_message, encode_message
from dnsseclab.names import DnsName
from dnsseclab.netsim import SimNetwork, SimTransport
from dnsseclab.records import ARdata, ResourceRecord, RType
from dnsseclab.resolver import RecursiveResolver, ResolverConfig
from dnsseclab.server import AuthoritativeService

from conftest import FIXED_NOW

#: The address of the resolver's only hint.
AUTHORITY = "198.51.100.53"
MAIL = DnsName.from_text("mail.domaine.ma.")
HOSTILE_TTL = 2 ** 31 - 1
#: An unsigned record an attacker slips into a reply for another name.
FORGED = ResourceRecord(MAIL, RType.A, 1, 300, ARdata("203.0.113.99"))


def hostile_victim(zone, tamper=None, anchor=None, *, below=(),
                   start=float(FIXED_NOW), cache=None):
    """(network, resolver): the resolver's only hint is `zone`'s authority at
    `AUTHORITY`; `below` holds an (address, zone) pair for each server its
    referrals lead to. Every reply of every server passes through `tamper`
    on the way, when one is given. The resolver validates when it is given
    a trust `anchor`."""
    network = SimNetwork(start_time=start)
    for address, served in ((AUTHORITY, zone), *below):
        handle = AuthoritativeService([served]).handle_wire
        network.register(address, handle if tamper is None else _hostile(handle, tamper))
    config = ResolverConfig(dnssec_enabled=anchor is not None,
                            anchors=(anchor,) if anchor else ())
    return network, RecursiveResolver([AUTHORITY], SimTransport(network, "192.0.2.10"),
                                      cache=cache, config=config, clock=network.clock)


def _hostile(handle_wire, tamper):
    def handle(wire, via_tcp):
        reply = decode_message(handle_wire(wire, via_tcp))
        tamper(reply)
        return encode_message(reply)
    return handle


def each_record(rewrite):
    """A tamper that passes every record of the reply through `rewrite`."""
    def tamper(reply):
        for section in (reply.answers, reply.authority, reply.additional):
            section[:] = [rewrite(record) for record in section]
    return tamper


def raising_ttls(*rtypes):
    return each_record(lambda record: replace(record, ttl=HOSTILE_TTL)
                       if record.rtype in rtypes else record)


def untouched(reply):
    pass
