"""Shared measurement helpers: per-run results, percentiles, memory."""

from __future__ import annotations

import math
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class RunResult:
    """What one measured pass produced.

    `busy_s` is the time the ops themselves took; for a closed loop over
    sockets it is the wall time of the window. `latencies_ms` maps an op kind
    to the latency of each op of that kind."""
    ops: int = 0
    busy_s: float = 0.0
    latencies_ms: dict = field(default_factory=dict)
    failures: Counter = field(default_factory=Counter)  # cause -> failed ops
    info: dict = field(default_factory=dict)

    def record(self, kind: str, latency_ms: float) -> None:
        self.latencies_ms.setdefault(kind, []).append(latency_ms)

    def add_op(self, kind: str, seconds: float, ops: int = 1) -> None:
        """Count `ops` ops of `kind` that took `seconds` of busy time."""
        self.ops += ops
        self.busy_s += seconds
        self.record(kind, seconds * 1000)

    def fail(self, cause: str, n: int = 1) -> None:
        self.failures[cause] += n

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def all_latencies(self) -> list:
        return [x for values in self.latencies_ms.values() for x in values]

    @property
    def ops_per_s(self) -> float:
        """Ops over busy time: a mean over the whole run, so that the speed
        changes of a shared machine during the run average out."""
        return self.ops / self.busy_s if self.busy_s > 0 else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, `q` in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest waited-for
    child), in MiB; Linux reports ru_maxrss in KiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(who).ru_maxrss * scale / 2 ** 20
