#!/usr/bin/env python3
"""Benchmark of the butterflyshift pressure pipeline, end to end and per layer.

    python3 benchmark/run.py --workload {curves,sweep,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout of the repository; the package is imported
from its `src/` directory.  With --trace 0 the run times whole rounds of
items until S seconds of item time have passed, and reports the end-to-end
metrics (items per second as the median over rounds); with
--trace 1 it runs a fixed, seeded list of items once untraced (in a child
process) and once traced, and reports the per-layer metrics and the tracing
overhead.  Either way it checks every output it produced and prints, as its
last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Everything runs serially in this process, with
BUTTERFLYSHIFT_THREADS unset.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from tracing import Tracer, per_layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
SETUP_PROBES = 7


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import butterflyshift from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "butterflyshift", "__init__.py")):
        fail(f"no butterflyshift package under {SRC}; run from a checkout of the repository")
    os.environ.pop("BUTTERFLYSHIFT_THREADS", None)
    sys.path.insert(0, SRC)
    import butterflyshift
    if os.path.dirname(os.path.dirname(os.path.abspath(butterflyshift.__file__))) != SRC:
        fail(f"imported butterflyshift from {butterflyshift.__file__}, not from {SRC}")
    from butterflyshift import cli, critical
    return cli, critical


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 1]): the smallest value with at least
    a share q of the values at or below it.  Unlike interpolation it gives the
    same answer for one oracle round as for several."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


class Runner:
    """Executes items in order and keeps what the checks and metrics need."""

    def __init__(self, workload, cli, critical):
        self.workload = workload
        self.cli = cli
        self.stamps = []
        self.results = []          # (item, outcome, parsed output)
        if workload.name == "curves":
            # item boundaries: a timestamp each time a beta point is done
            inner = critical.pressure_sample
            stamps = self.stamps

            def stamped(*args, **kwargs):
                sample = inner(*args, **kwargs)
                stamps.append(time.perf_counter())
                return sample

            critical.pressure_sample = stamped

    def run(self, item, tracer=None, index=0):
        def execute():
            # cli.main is looked up per call, so that a traced pass runs its wrapper
            return self.workload.execute(item, lambda argv: self.cli.main(argv), self.stamps)

        outcome = execute() if tracer is None else tracer.run_item(index, execute)
        self.results.append((item, outcome, self.workload.read(item, outcome)))
        return outcome

    def verify(self):
        """(attempted, failed, problems) over every item run so far."""
        attempted = failed = 0
        problems = []
        for item, outcome, parsed in self.results:
            attempted += item.points
            if outcome.failed:
                failed += item.points
            if not outcome.failed or item.role == "known_fault":
                problems += [f"{item.kind} {item.params}: {p}"
                             for p in self.workload.check(item, outcome, parsed)]
        return attempted, failed, problems


def make_workload(name, seed):
    os.makedirs(WORKDIR, exist_ok=True)
    return WORKLOADS[name](ROOT, seed, WORKDIR)


def warmed_runner(args):
    """Import the package, make the workload and run its warm-up items."""
    cli, critical = load_package()
    runner = Runner(make_workload(args.workload, args.seed), cli, critical)
    for item in runner.workload.warmup():
        runner.run(item)
    runner.results.clear()
    return runner


def probe_setup(args):
    """Child: the set-up of a run (import, config parsing, first input), then 'ready'."""
    cli, _ = load_package()
    workload = make_workload(args.workload, args.seed)
    cli.read_config_file(workload.config)
    next(workload.stream())
    print("ready", flush=True)


def measure_setup(args):
    """Median over SETUP_PROBES child processes of process start to 'ready'."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--probe-setup"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            fail(f"set-up probe exited {proc.returncode}")
        times.append(t1 - t0)
    return statistics.median(times)


def timed_run(args):
    setup_s = measure_setup(args)
    runner = warmed_runner(args)
    busy, item_seconds = 0.0, []
    rounds, round_items, round_busy = [], 0, 0.0
    for item in runner.workload.stream():
        outcome = runner.run(item)
        busy += outcome.seconds
        item_seconds += outcome.item_seconds
        round_items += len(outcome.item_seconds)
        round_busy += outcome.seconds
        if item.round_end:
            rounds.append(round_items / round_busy)
            round_items, round_busy = 0, 0.0
            if busy >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, problems = runner.verify()
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (statistics.median(rounds), "1/s"),
        "item_ms_p50": (1e3 * percentile(item_seconds, 0.5), "ms"),
        "item_ms_p90": (1e3 * percentile(item_seconds, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return attempted, failed, problems, metrics


def fixed_pass(args, tracer=None):
    """Warm up, then run the workload's fixed trace items; returns the runner and busy time."""
    runner = warmed_runner(args)
    if tracer is not None:
        tracer.install()
    busy = 0.0
    for i, item in enumerate(runner.workload.trace_items()):
        busy += runner.run(item, tracer, i).seconds
    if tracer is not None:
        tracer.uninstall()
    return runner, busy


def untraced_pass(args):
    """Child: the fixed trace items without tracing; prints the item time."""
    _, busy = fixed_pass(args)
    print(json.dumps({"busy_s": busy}), flush=True)


def traced_run(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--untraced-pass"]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
    if child.returncode != 0:
        fail(f"untraced pass exited {child.returncode}")
    untraced_busy = json.loads(child.stdout.strip().splitlines()[-1])["busy_s"]

    tracer = Tracer()
    runner, busy = fixed_pass(args, tracer)
    tracer.write(os.path.join(WORKDIR, f"trace-{args.workload}-{args.seed}.jsonl"))
    attempted, failed, problems = runner.verify()
    metrics = per_layer_metrics(tracer.summary(), attempted)
    metrics["trace.overhead_pct"] = (100.0 * (busy / untraced_busy - 1.0), "%")
    return attempted, failed, problems, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["curves", "sweep", "oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--untraced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.probe_setup:
        return probe_setup(args)
    if args.untraced_pass:
        return untraced_pass(args)
    attempted, failed, problems, metrics = (traced_run if args.trace else timed_run)(args)
    for p in problems[:50]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(WORKDIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
