"""Command-line surface: keygen, signzone, serve, dig, and the attack lab.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 transport error.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

from . import attack as attack_mod
from .config import ConfigError, load_root_hints, load_server_config
from .keystore import (KeyRole, KeystoreError, algorithm_from_mnemonic,
                       algorithm_mnemonic, generate_key, load_trust_anchors,
                       read_key_pair, write_key_files)
from .message import FLAG_BITS, DnsMessage, Edns, Rcode, make_query, rcode_to_text
from .names import ROOT, DnsName, NameError_
from .records import RType, rtype_from_text, rtype_to_text
from .resolver import Cache, RecursiveResolver, ResolverConfig
from .server import DnsServer, GatewayService
from .signer import SignerError, SigningPolicy, sign_zone
from .transport import SocketTransport, Timeout, TransportError
from .zonefile import ZoneError, load_zone_file, serialize_zone

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_DOMAIN):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

def cmd_keygen(args) -> int:
    if args.nametype != "ZONE":
        raise CliError(f"only -n ZONE is supported, not {args.nametype!r}",
                       EXIT_USAGE)
    try:
        algorithm = (int(args.algorithm) if args.algorithm.isdigit()
                     else algorithm_from_mnemonic(args.algorithm))
        zone = DnsName.from_text(args.zone, ROOT)
        role = KeyRole.KSK if args.ksk else KeyRole.ZSK
        key = generate_key(zone, role, algorithm=algorithm, bits=args.bits,
                           rng=args.seed)
        write_key_files(key, Path(args.directory))
    except (KeystoreError, NameError_) as exc:
        raise CliError(str(exc)) from exc
    print(key.base_name())
    return EXIT_OK


# ---------------------------------------------------------------------------
# signzone
# ---------------------------------------------------------------------------

def cmd_signzone(args) -> int:
    zone_path = Path(args.zonefile)
    origin_text = args.origin or zone_path.name
    if args.origin is None:
        for extension in (".signed", ".db", ".zone"):
            origin_text = origin_text.removesuffix(extension)
    try:
        origin = DnsName.from_text(origin_text, ROOT)
        zone = load_zone_file(zone_path, origin)
        ksk = read_key_pair(Path(args.ksk))
        zsk = read_key_pair(Path(args.zsk))
    except FileNotFoundError as exc:
        raise CliError(str(exc)) from exc
    except (ZoneError, KeystoreError, NameError_) as exc:
        raise CliError(str(exc)) from exc

    already_signed = any(r.rtype == RType.RRSIG for r in zone.records)
    if already_signed and not args.force:
        raise CliError(f"{zone_path} already carries signatures; "
                       "re-run with --force to drop and regenerate")
    try:
        signed = sign_zone(zone, zsk, ksk, SigningPolicy(), int(time.time()))
    except (SignerError, KeystoreError) as exc:
        raise CliError(str(exc)) from exc

    output_path = zone_path.with_name(zone_path.name + ".signed")
    output_text = serialize_zone(signed.zone)
    output_path.write_text(output_text, encoding="ascii")

    print("Verifying the zone using the following algorithms: "
          f"{_algorithm_names(zsk, ksk)}.")
    print("Zone signing complete:")
    print(f"Algorithm: {_algorithm_names(zsk, ksk)}: "
          "KSKs: 1 active, 0 stand-by, 0 revoked")
    print(" " * 16 + "ZSKs: 1 active, 0 stand-by, 0 revoked")
    print(output_path.name)
    if args.stats:
        print(signed.stats.format_block())
        unsigned_size = zone_path.stat().st_size
        if unsigned_size:
            ratio = len(output_text.encode()) / unsigned_size
            print(f"{'Signed/unsigned size ratio:':<36}{ratio:>8.2f}")
    return EXIT_OK


def _algorithm_names(zsk, ksk) -> str:
    names = {algorithm_mnemonic(k.algorithm) for k in (zsk, ksk)}
    return ", ".join(sorted(names))


# ---------------------------------------------------------------------------
# dig
# ---------------------------------------------------------------------------

def render_response(msg: DnsMessage) -> str:
    """Diagnostic rendering of a response; a pure function of the message."""
    lines = [f";; ->>HEADER<<- opcode: QUERY, status: {rcode_to_text(msg.rcode)}, "
             f"id: {msg.id}"]
    flags = " ".join(f for f in FLAG_BITS if f in msg.flags)
    additional_count = len(msg.additional) + (1 if msg.edns else 0)
    lines.append(f";; flags: {flags}; QUERY: {len(msg.questions)}, "
                 f"ANSWER: {len(msg.answers)}, AUTHORITY: {len(msg.authority)}, "
                 f"ADDITIONAL: {additional_count}")
    if msg.edns:
        lines.append("")
        lines.append(";; OPT PSEUDOSECTION:")
        do = "do" if msg.edns.do else ""
        lines.append(f"; EDNS: version: {msg.edns.version}, flags: {do};"
                     f" udp: {msg.edns.udp_payload}")
    if msg.questions:
        lines.append("")
        lines.append(";; QUESTION SECTION:")
        for q in msg.questions:
            lines.append(f";{q.name.to_text()}\t\t\tIN\t{rtype_to_text(q.qtype)}")
    for title, records in (("ANSWER", msg.answers),
                           ("AUTHORITY", msg.authority),
                           ("ADDITIONAL", msg.additional)):
        if records:
            lines.append("")
            lines.append(f";; {title} SECTION:")
            lines.extend(record.to_text() for record in records)
    return "\n".join(lines) + "\n"


def _parse_dig_tokens(tokens: list[str]):
    server = "127.0.0.1"
    name = None
    qtype = RType.A
    dnssec = False
    recurse = True
    tcp = False
    positionals = []
    for token in tokens:
        if token.startswith("@"):
            server = token[1:]
        elif token == "+dnssec":
            dnssec = True
        elif token == "+norecurse":
            recurse = False
        elif token == "+tcp":
            tcp = True
        elif token.startswith("+") or token.startswith("-"):
            raise CliError(f"unknown dig option {token!r}", EXIT_USAGE)
        else:
            positionals.append(token)
    if not positionals:
        raise CliError("dig needs a name to query", EXIT_USAGE)
    if len(positionals) > 2:
        raise CliError(f"unexpected arguments {positionals[2:]}", EXIT_USAGE)
    name = positionals[0]
    if len(positionals) == 2:
        try:
            qtype = rtype_from_text(positionals[1])
        except ValueError as exc:
            raise CliError(str(exc), EXIT_USAGE) from exc
    return server, name, qtype, dnssec, recurse, tcp


def cmd_dig(args) -> int:
    server, name, qtype, dnssec, recurse, tcp = _parse_dig_tokens(args.tokens)
    try:
        qname = DnsName.from_text(name, ROOT)
    except NameError_ as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    transport = SocketTransport(port=args.port)
    edns = Edns(do=True, udp_payload=4096) if dnssec else None
    query = make_query(qname, qtype, id=transport.new_txid(), rd=recurse,
                       edns=edns)
    print(f"; <<>> dnsseclab dig <<>> {' '.join(args.tokens)}")
    try:
        reply, reply_wire = transport.exchange(server, query, tcp=tcp)
    except TransportError as exc:
        print(";; Got no answer:")
        print(f";; transport failure: {exc}")
        raise CliError(str(exc), EXIT_TRANSPORT) from exc
    print(";; Got answer:")
    print(render_response(reply), end="")
    print()
    print(f";; SERVER: {server}#{args.port}")
    print(f";; MSG SIZE  rcvd: {len(reply_wire)}")
    if reply.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN):
        return EXIT_OK
    return EXIT_DOMAIN


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def build_service(config, transport=None, clock=time.time) -> GatewayService:
    zones = config.load_zones()
    resolver = None
    if config.recursion_enabled:
        if config.root_hints_path is None:
            raise ConfigError("recursion yes needs a root-hints file")
        hint_addresses = load_root_hints(config.root_hints_path).addresses()
        anchors = ()
        if config.dnssec_enabled:
            anchor_path = config.trust_anchor_path
            if anchor_path is None and config.default_anchor_path().exists():
                anchor_path = config.default_anchor_path()
            if anchor_path is not None:
                anchors = tuple(load_trust_anchors(anchor_path))
        if transport is None:
            transport = SocketTransport(port=config.port,
                                        source_port=config.source_port)
        resolver = RecursiveResolver(
            hint_addresses, transport, cache=Cache(),
            config=ResolverConfig(dnssec_enabled=config.dnssec_enabled,
                                  anchors=anchors),
            clock=clock)
    return GatewayService(zones, resolver)


def cmd_serve(args) -> int:
    try:
        config = load_server_config(Path(args.config))
        service = build_service(config)
    except FileNotFoundError as exc:
        raise CliError(str(exc)) from exc
    except (ConfigError, ZoneError, KeystoreError) as exc:
        raise CliError(str(exc)) from exc
    server = DnsServer(service, address=config.listen, port=config.port)

    def reload_zones(signum, frame):
        try:
            server.reload(load_server_config(Path(args.config)).load_zones())
            print(";; zones reloaded", flush=True)
        except (ConfigError, ZoneError, OSError) as exc:
            print(f";; reload failed: {exc}", flush=True)

    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP, reload_zones)
    print(f";; listening on {config.listen}#{server.port} "
          f"(udp+tcp), zones: {len(config.zones)}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return EXIT_OK


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def cmd_attack(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="ascii")
        cfg = attack_mod.parse_attack_config(text, Path(args.config).parent)
        if args.seed is not None:
            cfg.seed = args.seed
        report = attack_mod.run_from_config(cfg)
    except FileNotFoundError as exc:
        raise CliError(str(exc)) from exc
    except (ConfigError, ZoneError, KeystoreError) as exc:
        raise CliError(str(exc)) from exc
    print(report.format_text())
    print()
    print(report.format_machine())
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnsseclab",
        description="DNSSEC toolkit: key generation, zone signing, serving, "
                    "diagnostics, and a cache-poisoning lab.")
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="generate a ZSK or KSK key pair")
    keygen.add_argument("-a", dest="algorithm", default="RSASHA1",
                        help="algorithm mnemonic or code (default RSASHA1)")
    keygen.add_argument("-b", dest="bits", type=int, default=2048,
                        help="modulus size in bits (default 2048)")
    keygen.add_argument("-n", dest="nametype", default="ZONE",
                        help="name type; only ZONE is supported")
    keygen.add_argument("-f", dest="ksk", choices=["KSK"], default=None,
                        help="generate a key-signing key (flags 257)")
    keygen.add_argument("-K", dest="directory", default=".",
                        help="directory for the key files")
    keygen.add_argument("--seed", type=int, default=None,
                        help="deterministic RNG seed (tests only)")
    keygen.add_argument("zone", help="zone the key signs")
    keygen.set_defaults(func=cmd_keygen)

    signzone = sub.add_parser("signzone", help="sign a zone file")
    signzone.add_argument("-t", dest="stats", action="store_true",
                          help="print signing statistics")
    signzone.add_argument("-k", dest="ksk", required=True,
                          help="KSK base name (K<zone>.+NNN+TTTTT)")
    signzone.add_argument("-o", dest="origin", default=None,
                          help="zone origin (defaults to the file name)")
    signzone.add_argument("--force", action="store_true",
                          help="re-sign a zone that already has signatures")
    signzone.add_argument("zonefile", help="master zone file to sign")
    signzone.add_argument("zsk", help="ZSK base name")
    signzone.set_defaults(func=cmd_signzone)

    dig = sub.add_parser("dig", help="query a server and print diagnostics")
    dig.add_argument("-p", "-P", "--port", dest="port", type=int, default=5353,
                     help="server port (default 5353)")
    dig.add_argument("tokens", nargs="+",
                     help="[@server] name [type] [+dnssec] [+norecurse] [+tcp]")
    dig.set_defaults(func=cmd_dig)

    serve = sub.add_parser("serve", help="run the authoritative/caching server")
    serve.add_argument("-c", dest="config", required=True,
                       help="server configuration file")
    serve.set_defaults(func=cmd_serve)

    attack = sub.add_parser("attack", help="run a cache-poisoning scenario")
    attack.add_argument("-c", dest="config", required=True,
                        help="attack scenario file")
    attack.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    attack.set_defaults(func=cmd_attack)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"dnsseclab: {exc}", file=sys.stderr)
        return exc.code
    except (Timeout, TransportError) as exc:
        print(f"dnsseclab: transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
