"""Declarative configuration files for the server, plus root hints.

Grammar: `key value` lines, `#` comments, and
`zone "<name>" { type primary; file "<path>"; }` blocks.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .names import ROOT, DnsName
from .records import RType
from .zonefile import Zone, ZoneError, load_zone_file, parse_zone_file


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ZoneConfig:
    name: DnsName
    role: str  # primary | secondary
    file: Path


@dataclass
class ServerConfig:
    listen: str = "127.0.0.1"
    port: int = 5353
    recursion_enabled: bool = False
    dnssec_enabled: bool = False
    trust_anchor_path: Path | None = None
    root_hints_path: Path | None = None
    source_port: str = "fixed"
    zones: list = field(default_factory=list)
    base_dir: Path = Path(".")

    def load_zones(self) -> list[Zone]:
        return [load_zone_file(zc.file, zc.name) for zc in self.zones]

    def default_anchor_path(self) -> Path:
        """trusted-key.key in the config directory, overridable through the
        DNSSECLAB_CONFIG_DIR environment variable."""
        directory = os.environ.get("DNSSECLAB_CONFIG_DIR")
        base = Path(directory) if directory else self.base_dir
        return base / "trusted-key.key"


def _parse_bool(value: str, key: str) -> bool:
    if value == "yes":
        return True
    if value == "no":
        return False
    raise ConfigError(f"{key} wants yes|no, got {value!r}")


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} wants an integer, got {value!r}") from None


_ZONE_HEAD = re.compile(r'^zone\s+"([^"]+)"\s*\{(.*)$')


def parse_server_config(text: str, base_dir: Path | str = ".") -> ServerConfig:
    base = Path(base_dir)
    config = ServerConfig(base_dir=base)
    lines = [line.split("#", 1)[0].rstrip() for line in text.splitlines()]
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        head = _ZONE_HEAD.match(line)
        if head:
            # Body runs to the matching brace, same line or below.
            body_text = head.group(2)
            while "}" not in body_text:
                if i == len(lines):
                    raise ConfigError(f"zone {head.group(1)!r}: missing closing brace")
                body_text += "\n" + lines[i].strip()
                i += 1
            body_text = body_text.split("}", 1)[0]
            body = [part.strip() for chunk in body_text.splitlines()
                    for part in chunk.split(";")]
            config.zones.append(_parse_zone_block(head.group(1), body, base))
            continue
        key, _, value = line.partition(" ")
        value = value.strip().strip('"')
        if not value:
            raise ConfigError(f"directive {key!r} needs a value")
        if key == "listen":
            config.listen = value
        elif key == "port":
            config.port = _parse_int(value, key)
        elif key == "recursion":
            config.recursion_enabled = _parse_bool(value, key)
        elif key == "dnssec-enable":
            config.dnssec_enabled = _parse_bool(value, key)
        elif key == "trust-anchors":
            config.trust_anchor_path = base / value
        elif key == "root-hints":
            config.root_hints_path = base / value
        elif key == "source-port":
            if value not in ("fixed", "random"):
                raise ConfigError(f"source-port wants fixed|random, got {value!r}")
            config.source_port = value
        else:
            raise ConfigError(f"unknown directive {key!r}")
    seen = set()
    for zc in config.zones:
        if zc.name in seen:
            raise ConfigError(f"zone {zc.name} configured twice")
        seen.add(zc.name)
    return config


def _parse_zone_block(name: str, body: list[str], base: Path) -> ZoneConfig:
    role = None
    file_path = None
    for statement in body:
        statement = statement.rstrip(";").strip()
        if not statement:
            continue
        key, _, value = statement.partition(" ")
        value = value.strip().strip('"')
        if key == "type":
            if value not in ("primary", "secondary"):
                raise ConfigError(f"zone {name!r}: type wants primary|secondary")
            role = value
        elif key == "file":
            file_path = base / value
        else:
            raise ConfigError(f"zone {name!r}: unknown statement {key!r}")
    if role is None or file_path is None:
        raise ConfigError(f"zone {name!r}: needs both type and file")
    return ZoneConfig(DnsName.from_text(name, ROOT), role, file_path)


def load_server_config(path: Path | str) -> ServerConfig:
    path = Path(path)
    return parse_server_config(path.read_text(encoding="ascii"), path.parent)


# ---------------------------------------------------------------------------
# Root hints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootHints:
    """Names and addresses for the top of the hierarchy being resolved."""
    entries: tuple  # of (server name, address)

    def addresses(self) -> list[str]:
        return [address for _, address in self.entries]


def parse_root_hints(text: str) -> RootHints:
    # Master-format NS records naming the servers, A records addressing them.
    zone_text = "$TTL 518400\n. IN SOA . . 1 0 0 0 0\n" + text
    try:
        pseudo = parse_zone_file(zone_text, ROOT)
    except ZoneError as exc:
        raise ConfigError(f"bad root hints: {exc}") from exc
    servers = [r.rdata.target for r in pseudo.records if r.rtype == RType.NS]
    addresses = {r.owner: r.rdata.address for r in pseudo.records
                 if r.rtype == RType.A}
    entries = [(server, addresses[server]) for server in servers
               if server in addresses]
    if not entries:
        raise ConfigError("root hints name no reachable server")
    return RootHints(tuple(entries))


def load_root_hints(path: Path | str) -> RootHints:
    return parse_root_hints(Path(path).read_text(encoding="ascii"))
