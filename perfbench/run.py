"""Benchmark for treegibbs: one workload per run, many timed operations.

    python3 perfbench/run.py --workload {sweep,verify,tree} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all     # every workload, each in its own process

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/``.  With ``--trace 0`` it runs whole rounds of
operations, each after a fresh set-up, until ``--seconds`` of operation
time, at least 40 operations and at least three rounds have passed.  It
checks every output and prints the end-to-end metrics; set-up time and
throughput are medians over the rounds.  With ``--trace 1`` it sets up
once under the tracer, then runs round 0 untraced and traced, in turn,
for ``--seconds``, and prints the per-layer metrics of the traced set-up
and first traced round.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

NAMES = ("sweep", "verify", "tree")
MIN_ROUNDS = 3
MIN_OPS = 40
TAIL_BEYOND = 10  # the tail latency has this many operations above it

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import treegibbs afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "treegibbs" or n.startswith("treegibbs.")]:
        del sys.modules[name]
    tg = importlib.import_module("treegibbs")
    importlib.import_module("treegibbs.cli")
    if Path(tg.__file__).resolve().parent != SRC / "treegibbs":
        raise RuntimeError(f"imported treegibbs from {tg.__file__}, not from {SRC}")
    return tg


class Ledger:
    """Latencies, items, failures and output fingerprints of operations run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.items = 0
        self.failed = 0
        self.fingerprints: dict[str, str] = {}

    def run(self, op, tracer=None, record=True) -> float:
        """Time one operation, check its output and (if ``record``) count it."""
        if tracer is None:
            start = perf_counter()
            result = op.run()
            latency = perf_counter() - start
        else:
            tracer.op = op.key
            start = perf_counter()
            result = tracer.span("op", op.run)
            latency = perf_counter() - start
        outcome = op.check(result)
        del result
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += outcome.output_bytes
        if self.fingerprints.setdefault(op.key, outcome.fingerprint) != outcome.fingerprint:
            raise workloads.CheckError(f"{op.key}: output differs from an earlier run of it")
        if record:
            self.latencies.append(latency)
            self.items += outcome.items
            self.failed += outcome.failed
        return latency

    def run_round(self, ops, tracer=None) -> float:
        return sum(self.run(op, tracer) for op in ops)


def set_up(name: str, seed: int, tracer=None):
    """Import the program, make the workload's inputs and warm up."""
    tg = import_program()
    if tracer is not None:
        tracer.op = "setup"
        tracer.install()
    try:
        job = workloads.WORKLOADS[name](tg, seed, OUT_DIR)
        Ledger().run_round(job.warm_up(), tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    return job


def measure(name: str, seed: int, seconds: float) -> tuple[Ledger, dict]:
    ledger = Ledger()
    busy, r, rates, setups = 0.0, 0, [], []
    while busy < seconds or len(ledger.latencies) < MIN_OPS or r < MIN_ROUNDS:
        # A fresh set-up before every round: set-up times are sampled across
        # the whole run, and no state carries over from one round to the next.
        start = perf_counter()
        job = set_up(name, seed)
        setups.append(perf_counter() - start)
        items = ledger.items
        seconds_r = ledger.run_round(job.round(r))
        rates.append((ledger.items - items) / seconds_r)
        busy += seconds_r
        r += 1
    # Repeat an operation of round 0 untimed: its output must not change.
    ledger.run(job.round(0)[-1], record=False)
    lat = sorted(ledger.latencies)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[-TAIL_BEYOND - 1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return ledger, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def measure_traced(name: str, seed: int, seconds: float) -> tuple[Ledger, dict]:
    setup = spans.Tracer()
    job = set_up(name, seed, setup)
    ops = job.round(0)
    ledger = Ledger()
    first, overheads, busy = None, [], 0.0
    while busy < seconds or not overheads:
        plain = ledger.run_round(ops)
        tracer = spans.Tracer(after=setup)
        tracer.install()
        try:
            traced = ledger.run_round(ops, tracer)
        finally:
            tracer.remove()
        if first is None:
            first = tracer
        elif tracer.work_counts() != first.work_counts():
            raise workloads.CheckError("traced work counts differ between repeats of round 0")
        overheads.append(traced - plain)
        busy += plain + traced
    setup.absorb(first)
    setup.write_spans(OUT_DIR / f"trace-{name}-{seed}.jsonl")
    return ledger, setup.metrics(statistics.median(overheads))


def run_one(args) -> int:
    if not (SRC / "treegibbs" / "__init__.py").is_file():
        print(f"error: no treegibbs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    measure_fn = measure_traced if args.trace else measure
    try:
        ledger, metrics = measure_fn(args.workload, args.seed, args.seconds)
    except workloads.CheckError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    result = {"correct": True, "attempted": len(ledger.latencies), "failed": ledger.failed,
              "metrics": metrics}
    for name, metric in metrics.items():
        print(f"{args.workload:<7} {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{args.workload:<7} operations attempted {result['attempted']}, failed {result['failed']}")
    line = json.dumps(result)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            code = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark for treegibbs")
    parser.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
