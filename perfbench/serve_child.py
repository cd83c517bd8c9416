"""The `serve` workload's server process: loads a signed zone file, serves it
with `DnsServer` on the given loopback port, prints the port once it
listens, and runs until SIGTERM. With --snapshot it traces its layers and, on SIGTERM, writes the
aggregates there (and the spans next to it, as .jsonl) before exiting.

    python3 perfbench/serve_child.py SRC ZONE_FILE APEX PORT [--snapshot PATH]
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("zone_file")
    parser.add_argument("apex")
    parser.add_argument("port", type=int)
    parser.add_argument("--snapshot")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())

    tracer = None
    if args.snapshot:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        _count_threads(tracer)
        _op_per_request(tracer)
        tracer.enabled, tracer.phase = True, "setup"

    from dnsseclab import server, zonefile
    zone = zonefile.load_zone_file(args.zone_file, args.apex)
    dns = server.DnsServer([zone], "127.0.0.1", args.port)
    dns.start()
    if tracer is not None:
        tracer.phase = "run"
    print(dns.port, flush=True)
    while not stop.wait(0.2):
        pass
    dns.shutdown()
    if tracer is not None:
        tracer.enabled = False
        snapshot = Path(args.snapshot)
        tracer.dump(snapshot.with_suffix(".jsonl"))
        snapshot.write_text(json.dumps(tracer.snapshot()), encoding="ascii")
    return 0


def _count_threads(tracer) -> None:
    start = threading.Thread.start

    def counting_start(thread):
        tracer.count("server.threads_started")
        return start(thread)

    threading.Thread.start = counting_start


def _op_per_request(tracer) -> None:
    """Each request the server handles is one operation of the trace."""
    from dnsseclab.server import AuthoritativeService
    handle = AuthoritativeService.handle_wire

    def handle_wire(service, wire, via_tcp):
        tracer.begin_op()
        return handle(service, wire, via_tcp)

    AuthoritativeService.handle_wire = handle_wire


if __name__ == "__main__":
    sys.exit(main())
