"""A hostile authority for resolver tests: a resolver whose servers' replies
pass through a tamper on the way, and the tampers the tests share."""

from dataclasses import replace

from dnsseclab.keystore import KeyRole, TrustAnchor, generate_key
from dnsseclab.message import Edns, Rcode, decode_message, encode_message, make_query
from dnsseclab.names import DnsName
from dnsseclab.netsim import SimNetwork, SimTransport
from dnsseclab.records import ARdata, ResourceRecord, RType
from dnsseclab.resolver import RecursiveResolver, ResolverConfig
from dnsseclab.server import AuthoritativeService, answer_authoritative
from dnsseclab.signer import SigningPolicy, make_ds, sign_zone
from dnsseclab.zonefile import parse_zone_file

from conftest import APEX, FIXED_NOW, ZONE_TEXT

#: The address of the resolver's only hint.
AUTHORITY = "198.51.100.53"
MAIL = DnsName.from_text("mail.domaine.ma.")
HOSTILE_TTL = 2 ** 31 - 1
#: An unsigned record an attacker slips into a reply for another name.
FORGED = ResourceRecord(MAIL, RType.A, 1, 300, ARdata("203.0.113.99"))
SUB = DnsName.from_text("sub.domaine.ma.")
#: The address of `sub`'s authority, as the parent's glue gives it.
SUB_AUTHORITY = "192.168.1.40"
#: The signed child zone at `sub`.
SUB_TEXT = ("$TTL 3600\n@ IN SOA ns hostmaster 1 3600 900 604800 3600\n"
            f"@ IN NS ns\nns IN A {SUB_AUTHORITY}\nwww IN A 192.168.1.41\n")
#: Denials forged from a real signed NSEC of the parent that `signed_delegation`
#: makes: id -> (asked name and type, the name whose real NXDOMAIN carries that
#: NSEC, the rcode the forgery claims). `sub`'s NSEC (NS DS RRSIG NSEC) is a
#: delegation's and `ftp`'s (CNAME RRSIG NSEC) an alias's: neither proves these.
FORGED_DENIALS = {
    "nxdomain-below-delegation": ("www.sub", RType.A, "t", Rcode.NXDOMAIN),
    "nodata-at-delegation": ("sub", RType.DNSKEY, "t", Rcode.NOERROR),
    "nodata-at-cname": ("ftp", RType.A, "fz", Rcode.NOERROR),
}


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


def signed_delegation():
    """(parent, child, anchor): the reference zone, signed, delegating `sub`
    with a DS to a signed child served at `SUB_AUTHORITY`; the anchor is the
    parent's KSK."""
    def keys(zone, seed):
        return [generate_key(zone, role, bits=512, rng=seed + i, now=FIXED_NOW)
                for i, role in enumerate((KeyRole.ZSK, KeyRole.KSK))]

    parent_keys, child_keys = keys(APEX, 94), keys(SUB, 96)
    child = sign_zone(parse_zone_file(SUB_TEXT, SUB), *child_keys, SigningPolicy(),
                      FIXED_NOW).zone
    parent = parse_zone_file(ZONE_TEXT + f"sub IN NS ns.sub\nns.sub IN A {SUB_AUTHORITY}\n",
                             APEX)
    parent.records.append(make_ds(SUB, child_keys[1].public, ttl=3600))
    parent = sign_zone(parent, *parent_keys, SigningPolicy(), FIXED_NOW).zone
    return parent, child, TrustAnchor(APEX, parent_keys[1].public)


def forged_denial(zone, case):
    """(asked name, asked type, forged reply) of the `FORGED_DENIALS` row
    `case`: `zone`'s own signed NXDOMAIN for the row's donor name, under the
    row's rcode."""
    asked, qtype, donor, rcode = FORGED_DENIALS[case]
    reply = answer_authoritative(
        make_query(DnsName.from_text(donor, APEX), RType.A, edns=Edns(do=True)), [zone])
    return DnsName.from_text(asked, APEX), qtype, replace(reply, rcode=rcode)
