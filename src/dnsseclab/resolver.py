"""Caching recursive resolver: full iterative resolution with referral
following, TTL cache with security ranking, and chain-of-trust validation.

One rule admits what a final reply gives the client and the cache, with or
without validation: its `validator.pick` (verified when Secure), nothing
else. `resolve` serves the entry made from it, fresh or cached alike, and a
Secure walk's DNSKEY and DS RRsets are cached by the same rule. Only the NS
and glue of the referrals a plain resolver follows are cached as they came.

Each NSEC of a Secure outcome's `witnesses`, with its RRSIGs and the SOA, is
also kept in a bounded index of the cache, per zone and in canonical order;
a later lookup of a name inside such a gap is answered with the rcode
`validator.denied_rcode` proves, with AD, and sends nothing (RFC 8198 §5).
Like `validator.check_denial`, this does not check that a wildcard at the
closest encloser is denied (RFC 4035 §5.4): wildcards are out of scope.
Only class IN is resolved; other classes are REFUSED."""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable

from .message import DnsMessage, Edns, Rcode, make_query, make_reply
from .names import DnsName
from .records import ResourceRecord, RRset, RType, group_rrsets
from .transport import Timeout, Transport, TransportError
from .validator import (FetchFailure, Picked, Security, SignatureMemo, denied_rcode, pick,
                        validate_chain)

MAX_NEGATIVE_TTL = 3600
#: The longest any entry is cached, whatever its TTL (RFC 8767 §4: 7 days).
MAX_CACHE_TTL = 7 * 86400
HOP_LIMIT = 16
#: Types a client without the DO bit sees only when it asked for them.
_DNSSEC_TYPES = (RType.RRSIG, RType.NSEC, RType.DNSKEY)


class ResolutionError(Exception):
    pass


class HopLimitExceeded(ResolutionError):
    pass


class ServFail(ResolutionError):
    pass


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

@dataclass
class CacheEntry:
    key: tuple  # (name, rtype, rclass)
    rrset: RRset | None
    rrsigs: tuple = ()
    inserted_at: float = 0.0
    expires_at: float = 0.0
    security: Security = Security.INSECURE
    negative: DnsMessage | None = None  # response skeleton for negative entries

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def remaining_ttl(self, now: float) -> int:
        return max(0, int(self.expires_at - now))


_RANK = {Security.INSECURE: 0, Security.SECURE: 1}


class Cache:
    """TTL cache with LRU eviction. An entry may only replace one of equal or
    lower security rank; Bogus data is never given to `put` at all.
    Get/put are atomic (the server handles requests concurrently). Validated
    NSEC gaps are indexed beside the entries, per zone by canonical key, by
    the same capacity and LRU rule."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self._gaps: OrderedDict[tuple, CacheEntry] = OrderedDict()  # (zone, owner key)
        self._gap_owners: dict[DnsName, list[tuple]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple, now: float) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry.expired(now):
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return entry

    def put(self, entry: CacheEntry, now: float) -> bool:
        if entry.security not in _RANK:
            raise ValueError("only Secure or Insecure data is cacheable")
        if entry.expires_at <= now:
            return False
        with self._lock:
            old = self._entries.get(entry.key)
            if old is not None and not old.expired(now) \
                    and _RANK[entry.security] < _RANK[old.security]:
                return False
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return True

    def put_gap(self, zone: DnsName, entry: CacheEntry, now: float) -> None:
        """Index the NSEC gap whose RRset is `entry.rrset` under `zone`."""
        if entry.expires_at <= now:
            return
        key = (zone, entry.rrset.owner.canonical_key())
        with self._lock:
            if key not in self._gaps:
                insort(self._gap_owners.setdefault(zone, []), key[1])
            self._gaps[key] = entry
            self._gaps.move_to_end(key)
            while len(self._gaps) > self.capacity:
                (oldest, owner), _ = self._gaps.popitem(last=False)
                owners = self._gap_owners[oldest]
                del owners[bisect_left(owners, owner)]
                if not owners:
                    del self._gap_owners[oldest]

    def gap(self, qname: DnsName, now: float) -> CacheEntry | None:
        """The live gap of the deepest indexed zone at or above `qname` whose
        owner sorts last at or before it: the only one that can cover it."""
        with self._lock:
            zone = qname
            while zone not in self._gap_owners:
                if not zone.labels:
                    return None
                zone = zone.parent()
            owners = self._gap_owners[zone]
            i = bisect_right(owners, qname.canonical_key())
            if not i:
                return None
            key = (zone, owners[i - 1])
            if self._gaps[key].expired(now):
                return None
            self._gaps.move_to_end(key)
            return self._gaps[key]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._gaps.clear()
            self._gap_owners.clear()

    def entries(self) -> list[CacheEntry]:
        with self._lock:
            return list(self._entries.values())


# ---------------------------------------------------------------------------
# Iterative resolution
# ---------------------------------------------------------------------------

def _classify(msg: DnsMessage) -> str:
    if "aa" in msg.flags or msg.rcode != Rcode.NOERROR:
        return "final"
    if msg.answers:
        return "final"
    if any(r.rtype == RType.NS for r in msg.authority):
        return "referral"
    return "final"


def _referral_targets(msg: DnsMessage) -> list[str]:
    ns_targets = {r.rdata.target for r in msg.authority if r.rtype == RType.NS}
    return [r.rdata.address for r in msg.additional
            if r.rtype == RType.A and r.owner in ns_targets]


def resolve_iterative(qname: DnsName, qtype: int, servers: list[str],
                      transport: Transport, *, udp_payload: int = 4096,
                      on_response: Callable[[DnsMessage], None] | None = None,
                      ) -> DnsMessage:
    """Follow referrals from the given servers down to an authoritative
    answer. Truncated UDP replies are retried over TCP against the same
    server before the response is interpreted."""
    candidates = list(servers)
    for _ in range(HOP_LIMIT):
        if not candidates:
            raise ServFail(f"no reachable server for {qname}")
        query = make_query(qname, qtype, id=transport.new_txid(),
                           edns=Edns.shared(do=True, udp_payload=udp_payload))
        for address in candidates:
            try:
                msg, _ = transport.exchange(address, query)
                break
            except Timeout:
                continue
        else:
            raise Timeout(f"all servers timed out for {qname}")
        if on_response is not None:
            on_response(msg)
        if _classify(msg) == "final":
            return msg
        candidates = _referral_targets(msg)
    raise HopLimitExceeded(f"{qname} not resolved within the hop limit")


# ---------------------------------------------------------------------------
# Recursive resolver
# ---------------------------------------------------------------------------

@dataclass
class ResolverConfig:
    dnssec_enabled: bool = False
    anchors: tuple = ()


class RecursiveResolver:
    """Does all the work for a client: cache, iteration, validation. It owns
    the memo of signature checks that passed, shared by all its lookups, and
    its cache holds the DNSKEY and DS RRsets its walks verified."""

    def __init__(self, hint_addresses: list[str], transport: Transport,
                 cache: Cache | None = None,
                 config: ResolverConfig | None = None,
                 clock: Callable[[], float] = time.time):
        self.hint_addresses = list(hint_addresses)
        if not self.hint_addresses:
            raise ValueError("recursion needs at least one hint address")
        self.transport = transport
        self.cache = cache if cache is not None else Cache()
        self.config = config or ResolverConfig()
        self.clock = clock
        self.signature_memo = SignatureMemo()

    # -- public entry points ---------------------------------------------

    def resolve(self, query: DnsMessage) -> DnsMessage:
        q = query.question
        if q is None:
            return make_reply(query, "ra", rcode=Rcode.FORMERR)
        now = self.clock()
        if q.qclass != 1:  # only class IN is resolved; nothing else is looked up
            entry = CacheEntry(key=(q.name, q.qtype, q.qclass), rrset=None,
                               negative=DnsMessage(rcode=Rcode.REFUSED))
        else:
            entry = self.cache.get((q.name, q.qtype, 1), now)
            if entry is None and self.config.dnssec_enabled:
                entry = self._synthesized(q.name, q.qtype, now)
        if entry is None:
            try:
                entry = self._resolve_upstream(q.name, q.qtype, now)
            except (ResolutionError, TransportError, FetchFailure):
                return make_reply(query, "ra", rcode=Rcode.SERVFAIL)
        return self._reply(query, entry, self.clock())

    def resolve_name(self, qname: DnsName, qtype: int = RType.A,
                     do: bool = False) -> DnsMessage:
        edns = Edns.shared(do=True) if do else None
        return self.resolve(make_query(qname, qtype, id=self.transport.new_txid(),
                                       rd=True, edns=edns))

    # -- internals ---------------------------------------------------------

    def _synthesized(self, qname: DnsName, qtype: int, now: float) -> CacheEntry | None:
        """A negative entry from a validated NSEC gap (RFC 8198 §5) with the
        rcode `validator.denied_rcode` proves; None where it proves nothing."""
        gap = self.cache.gap(qname, now)
        if gap is None:
            return None
        rcode = denied_rcode(gap.rrset.owner, gap.rrset.rdatas[0], qname, qtype)
        if rcode is None:
            return None
        return replace(gap, key=(qname, qtype, 1),
                       negative=replace(gap.negative, rcode=rcode))

    def _starting_servers(self, qname: DnsName, now: float) -> list[str]:
        """Start iteration at the deepest cached delegation for the name;
        this is what a poisoned NS RRset hijacks."""
        name = qname
        while name.labels:
            entry = self.cache.get((name, RType.NS, 1), now)
            if entry is not None and entry.rrset is not None:
                addresses = []
                for rdata in entry.rrset.rdatas:
                    glue = self.cache.get((rdata.target, RType.A, 1), now)
                    if glue is not None and glue.rrset is not None:
                        addresses.extend(a.address for a in glue.rrset.rdatas)
                if addresses:
                    return addresses
            name = name.parent()
        return self.hint_addresses

    def _resolve_upstream(self, qname: DnsName, qtype: int, now: float) -> CacheEntry:
        referrals: list[DnsMessage] = []
        msg = resolve_iterative(
            qname, qtype, self._starting_servers(qname, now), self.transport,
            on_response=referrals.append)
        if not self.config.dnssec_enabled:
            # Referral infrastructure is only trusted (and cached) when no
            # validation is in force; a validating resolver keeps only data
            # it has checked.
            for referral in referrals[:-1]:
                self._cache_referral(referral, now)
            return self._cache_response(qname, qtype, msg.rcode, pick(msg, qname, qtype),
                                        Security.INSECURE, now)
        fetched: dict[tuple[DnsName, int], DnsMessage] = {}
        outcome = validate_chain(msg, qname, qtype, list(self.config.anchors),
                                 self._validation_fetch(now, fetched), int(now),
                                 self.signature_memo)
        if outcome.status is Security.BOGUS:
            raise ServFail(f"validation failed: {outcome.reason}")
        # Only what the walk verified is Secure (RFC 4035 §3.2.3). Of its links, only
        # those fetched upstream are stored: storing one again would extend its life.
        for name, rtype, records in outcome.links:
            if (name, rtype) in fetched:
                self._cache_response(name, rtype, fetched[name, rtype].rcode,
                                     Picked(answer=records), Security.SECURE, now)
        picked = outcome if outcome.status is Security.SECURE else pick(msg, qname, qtype)
        return self._cache_response(qname, qtype, msg.rcode, picked, outcome.status, now)

    def _validation_fetch(self, now: float, fetched: dict):
        """The walk's fetch: a DNSKEY or DS RRset that an earlier walk
        verified comes from the cache as Secure, the walk checks it again
        against the anchor or DS (the signature memo makes that cheap), and
        anything else is resolved from the hints and kept in `fetched`."""

        def fetch(name: DnsName, rtype: int) -> DnsMessage:
            entry = self.cache.get((name, rtype, 1), now)
            if entry is not None and entry.security is Security.SECURE \
                    and entry.rrset is not None:
                return DnsMessage(answers=[*entry.rrset.records(), *entry.rrsigs])
            reply = resolve_iterative(name, rtype, self.hint_addresses, self.transport)
            fetched[name, rtype] = reply
            return reply

        return fetch

    def _cache_referral(self, msg: DnsMessage, now: float) -> None:
        infrastructure = [r for r in msg.authority if r.rtype == RType.NS]
        infrastructure += [r for r in msg.additional if r.rtype == RType.A]
        for rrset in group_rrsets(r for r in infrastructure if r.rclass == 1):
            self.cache.put(CacheEntry(
                key=(rrset.owner, rrset.rtype, rrset.rclass), rrset=rrset,
                inserted_at=now, expires_at=now + min(rrset.ttl, MAX_CACHE_TTL),
                security=Security.INSECURE), now)

    def _cache_response(self, qname: DnsName, qtype: int, rcode: int, picked,
                        security: Security, now: float) -> CacheEntry:
        """The entry for (qname, qtype) from a final reply's `picked` records
        (a `Picked` or a Secure outcome), returned whether or not the cache
        keeps it; empty and never stored for an rcode other than NOERROR or
        NXDOMAIN. An answer's RRset is stored under its own key too; a Secure
        denial indexes each witness's gap. An entry lives at most `MAX_CACHE_TTL`,
        a negative one at most its SOA's TTL and MINIMUM and `MAX_NEGATIVE_TTL`
        (RFC 2308 §5), and a Secure one no longer than its RRSIGs' original TTL
        and expiration (RFC 4035 §5.3.3)."""
        key = (qname, qtype, 1)
        if rcode not in (Rcode.NOERROR, Rcode.NXDOMAIN):
            return CacheEntry(key=key, rrset=None, inserted_at=now, expires_at=now,
                              negative=DnsMessage(rcode=rcode))

        def expiry(ttl: float, records) -> float:
            if security is Security.SECURE:
                for sig in records:
                    if sig.rtype == RType.RRSIG:
                        ttl = min(ttl, sig.rdata.original_ttl, sig.rdata.expiration - now)
            return now + min(ttl, MAX_CACHE_TTL)

        if picked.answer:
            rtype = picked.answer[0].rtype
            rrset = RRset.from_records(r for r in picked.answer if r.rtype == rtype)
            rrsigs = tuple(r for r in picked.answer if r.rtype != rtype)
            entry = CacheEntry(key=(qname, rtype, 1), rrset=rrset, rrsigs=rrsigs,
                               inserted_at=now, expires_at=expiry(rrset.ttl, rrsigs),
                               security=security)
            self.cache.put(entry, now)
            if rtype != qtype:  # an alias, kept under the asked type too
                entry = replace(entry, key=key)
                self.cache.put(entry, now)
            return entry
        authority = picked.authority
        soa = next((r for r in authority if r.rtype == RType.SOA), None)
        ttl = min(soa.ttl, soa.rdata.minimum, MAX_NEGATIVE_TTL) if soa else 60
        entry = CacheEntry(key=key, rrset=None, inserted_at=now,
                           expires_at=expiry(ttl, authority), security=security,
                           negative=DnsMessage(rcode=rcode, authority=list(authority)))
        self.cache.put(entry, now)
        if security is not Security.SECURE or soa is None:
            return entry
        # Each NSEC the walk verified indexes its gap with its RRSIGs and the
        # SOA, no longer than the negative entry nor its TTL (RFC 8198 §4,
        # RFC 9077 §3).
        witnesses = picked.witnesses
        paired = {record for witness in witnesses for record in witness}
        for nsec, _ in witnesses:
            proof = [r for r in authority
                     if r == nsec or (nsec, r) in witnesses or r not in paired]
            self.cache.put_gap(soa.owner, replace(
                entry, key=(nsec.owner, RType.NSEC, 1), rrset=RRset.from_records([nsec]),
                expires_at=min(entry.expires_at, now + nsec.ttl),
                negative=DnsMessage(authority=proof)), now)
        return entry

    def _reply(self, query: DnsMessage, entry: CacheEntry, now: float) -> DnsMessage:
        """The one reply to a client: from an entry just made, cached or
        synthesized alike, no TTL past the entry's remaining life; without the
        DO bit, DNSSEC records only of the type asked for; AD when Secure."""
        ttl, negative = entry.remaining_ttl(now), entry.negative
        reply = make_reply(query, "ra", rcode=negative.rcode if negative else Rcode.NOERROR)
        if entry.security is Security.SECURE and self.config.dnssec_enabled:
            reply.flags = reply.flags | {"ad"}
        do, qtype = query.do_bit, query.question.qtype

        def served(records) -> list:
            return [r if r.ttl <= ttl else ResourceRecord(r.owner, r.rtype, r.rclass, ttl,
                                                           r.rdata)
                    for r in records if do or r.rtype == qtype or r.rtype not in _DNSSEC_TYPES]

        if negative is None:
            reply.answers = served((*entry.rrset.records(), *entry.rrsigs))
        else:
            reply.authority = served(negative.authority)
        return reply
