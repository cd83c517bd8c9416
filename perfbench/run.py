"""dnsseclab benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload sign|serve|resolve|lab --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout; the program is imported from
`./src`. All inputs come from `--seed`. With `--trace 0` the last stdout
line carries the end-to-end metrics; with `--trace 1` the run measures an
untraced pass and a traced pass (half of `--seconds` each) and reports the
per-layer metrics and the tracing overhead. The line before it is a report:
per-kind latencies, failure causes, input and output digests, machine info.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

WORKLOADS = ("sign", "serve", "resolve", "lab")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for smoke tests")
    return parser.parse_args(argv)


def _import_program(root: Path):
    src = root / "src"
    if not (src / "dnsseclab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dnsseclab sources under {src}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import dnsseclab
    if Path(dnsseclab.__file__).resolve().parent != (src / "dnsseclab").resolve():
        raise SystemExit(f"perfbench: imported dnsseclab from {dnsseclab.__file__}, "
                         f"not from {src}")


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "system": platform.system()}


def _setups(module, inputs, reps: int, tracer=None):
    """Set up `reps` times; keep the last state, tear the others down."""
    times, state = [], None
    for rep in range(reps):
        if state is not None:
            module.teardown(state)
        started = time.perf_counter()
        state = module.setup(inputs, tracer, rep)
        times.append(time.perf_counter() - started)
    return state, times


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    _import_program(root)

    import common
    import metrics
    import tracing
    workload = __import__(f"{args.workload}_workload")

    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        gen_started = time.perf_counter()
        inputs = workload.generate(args.seed, args.size, workdir)
        report = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "why": workload.WHY, "input_digest": inputs.digest,
                  "input_generation_s": round(time.perf_counter() - gen_started, 3),
                  "machine": machine_info(),
                  "unmeasured_modules": {"modules": list(tracing.UNMEASURED),
                                         "why": tracing.UNMEASURED_WHY}}
        if args.trace:
            result, layer_metrics = _traced(workload, inputs, args, out_dir)
            values = layer_metrics
        else:
            state, setup_times = _setups(workload, inputs, workload.SETUP_REPS)
            try:
                result = workload.run(state, inputs, args.seconds)
            finally:
                workload.teardown(state)
            # `serve` reports its server process, the others themselves.
            rss = common.peak_rss_mb(children=getattr(workload, "SERVER_PROCESS", False))
            values = metrics.end_to_end(result, setup_times, rss)
            report["kinds"] = metrics.kind_latencies(result)
            report["setup_s_each"] = [round(t, 4) for t in setup_times]
        report.update(metrics.report_fields(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": result.failed == 0 and result.ops > 0,
                      "attempted": max(result.ops, 1),
                      "failed": result.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in values.items()}}))
    return 0


def _traced(workload, inputs, args, out_dir: Path):
    """Untraced pass, then the same work traced; per-layer metrics from the
    traced pass, overhead from the pair."""
    import metrics
    import tracing
    half = args.seconds / 2
    state, _ = _setups(workload, inputs, 1)
    try:
        plain = workload.run(state, inputs, half)
    finally:
        workload.teardown(state)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled, tracer.phase = True, "setup"
    state, _ = _setups(workload, inputs, 1, tracer)
    try:
        tracer.phase = "run"
        traced = workload.run(state, inputs, half, tracer)
    finally:
        tracer.enabled = False
        workload.teardown(state)
    tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    values = metrics.per_layer(tracer, traced, plain, setups=1)
    # Failures of either pass count.
    for cause, n in plain.failures.items():
        traced.fail(cause, n)
    traced.ops += plain.ops
    return traced, values


if __name__ == "__main__":
    sys.exit(main())
