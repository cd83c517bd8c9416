"""Span tracing of dnsseclab's layers, installed from outside the package.

`install` replaces the public functions of each layer module, and a short
list of public methods, with wrappers that record a span per call: name,
start, end, parent span and operation id. The wrappers are put at every
import site (`server.canonical_compare`, `signer.verify_rrsig`,
`resolver.validate_chain`, ...), so calls made through a name imported
into another module are seen too. Nothing under `src/` changes.

Spans are kept in memory (up to `MAX_SPANS`; aggregates cover every call)
and written out by `dump`. A span's self time is its duration minus the part
its child spans cover; spans of one thread nest, so that is the duration
minus the sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: The measured layers, one per module of the package.
LAYERS = ("names", "wire", "message", "records", "zonefile", "rsa", "keystore",
          "signer", "validator", "server", "resolver", "netsim", "attack")

#: Modules left unmeasured, and why.
UNMEASURED = ("transport", "config", "cli")
UNMEASURED_WHY = ("no workload sends traffic through them: the real-socket resolver is "
                  "not in the traffic, and `cli signzone` is load_zone_file + sign_zone + "
                  "serialize_zone, which `sign` drives directly")

#: Public methods that are layer entry points (module-level functions are
#: all wrapped).
METHODS = {
    "zonefile": (("Zone", "is_glue"), ("Zone", "records_at"), ("Zone", "delegations")),
    "keystore": (("KeyPair", "sign"),),
    "server": (("AuthoritativeService", "handle_wire"), ("GatewayService", "handle_wire")),
    "resolver": (("Cache", "get"), ("Cache", "put"), ("RecursiveResolver", "resolve")),
    "netsim": (("SimTransport", "query"),),
    "attack": (("KaminskyAttacker", "on_query"),),
}

ALL_MODULES = LAYERS + UNMEASURED

#: Spans kept in memory per process; the aggregates cover every call.
MAX_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.phase = "run"
        self.spans: list[tuple] = []
        self.dropped = 0
        # (phase, span name) -> [calls, inclusive seconds, self seconds]
        self.stats: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- operations --------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new operation on this thread; later spans carry its id."""
        self._local.op = next(self._ops)

    def count(self, key: str, n: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counters[(self.phase, key)] += n

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """Wrap `fn` so each call is a span named `name`. `observe(args,
        result, self_s)` runs after a traced call for layer-specific
        counters."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            frame = [span_id, 0.0]  # [id, seconds covered by children]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s = duration - frame[1]
                with tracer._lock:
                    entry = tracer.stats[(tracer.phase, name)]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += self_s
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((span_id, name, start, end, parent,
                                             getattr(local, "op", 0)))
                    else:
                        tracer.dropped += 1
            if observe is not None:
                observe(args, result, self_s)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain data (what a traced server child hands back)."""
        return {"stats": [[phase, name, *values]
                          for (phase, name), values in self.stats.items()],
                "counters": [[phase, key, value]
                             for (phase, key), value in self.counters.items()]}

    def merge(self, snapshot: dict) -> None:
        for phase, name, calls, total, self_s in snapshot["stats"]:
            entry = self.stats[(phase, name)]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for phase, key, value in snapshot["counters"]:
            self.counters[(phase, key)] += value

    def dump(self, path: Path) -> None:
        """Write the kept spans, one JSON array per line:
        [id, name, start, end, parent id, operation id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def paused(tracer: Tracer | None):
    """Leave the block untraced (benchmark checks are not the program's work)."""
    if tracer is None:
        yield
        return
    was, tracer.enabled = tracer.enabled, False
    try:
        yield
    finally:
        tracer.enabled = was


def _observers(tracer: Tracer) -> dict:
    """Counters taken at layer boundaries, keyed by span name."""
    from dnsseclab.message import Rcode
    from dnsseclab.records import RType

    def answer_kind(args, reply, self_s):
        query = args[0]
        q = query.question
        if q is None:
            return
        if q.qtype == RType.DNSKEY:
            kind = "tcp"
        elif reply.rcode == Rcode.NXDOMAIN:
            kind = "nxdomain"
        elif "aa" not in reply.flags and any(r.rtype == RType.NS for r in reply.authority):
            kind = "referral"
        elif reply.answers:
            kind = "positive"
        else:
            kind = "nodata"
        tracer.count(f"server.answer_authoritative.calls.{kind}")
        tracer.count(f"server.answer_authoritative.self_s.{kind}", self_s)

    def truncated(args, wire, self_s):
        if len(wire) > 2 and wire[2] & 0x02:
            tracer.count("server.encode_with_limit.truncated")

    def cache_get(args, entry, self_s):
        tracer.count("resolver.cache.hits" if entry is not None else "resolver.cache.misses")

    def cache_put(args, stored, self_s):
        if not stored:
            tracer.count("resolver.Cache.put.rejected")

    def outcome(args, result, self_s):
        tracer.count(f"validator.outcome.{result.status.value.lower()}")

    def injected(args, packets, self_s):
        tracer.count("netsim.injected_packets", len(packets))

    return {
        "server.answer_authoritative": answer_kind,
        "server.encode_with_limit": truncated,
        "resolver.Cache.get": cache_get,
        "resolver.Cache.put": cache_put,
        "validator.validate_chain": outcome,
        "attack.KaminskyAttacker.on_query": injected,
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and the METHODS entry points."""
    modules = {name: importlib.import_module(f"dnsseclab.{name}") for name in ALL_MODULES}
    observers = _observers(tracer)
    for layer in LAYERS:
        module = modules[layer]
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            span = f"{layer}.{attr}"
            traced = tracer.wrap(span, fn, observers.get(span))
            for site in modules.values():
                if vars(site).get(attr) is fn:
                    setattr(site, attr, traced)
        for cls_name, method in METHODS.get(layer, ()):
            cls = getattr(module, cls_name)
            span = f"{layer}.{cls_name}.{method}"
            setattr(cls, method, tracer.wrap(span, vars(cls)[method], observers.get(span)))
    _wrap_cache_evictions(tracer, modules["resolver"].Cache)


def _wrap_cache_evictions(tracer: Tracer, cache_cls) -> None:
    """Count LRU evictions around `Cache.put`. The cache exposes only its
    size, so whether the key was already present is read off its table."""
    put = cache_cls.put

    def counting_put(cache, entry, now):
        before = len(cache)
        present = entry.key in cache._entries
        stored = put(cache, entry, now)
        if stored:
            evicted = before + (0 if present else 1) - len(cache)
            if evicted > 0:
                tracer.count("resolver.cache.evictions", evicted)
        return stored

    cache_cls.put = counting_put
