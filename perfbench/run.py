"""Benchmark of freeknot: three seeded workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload statesum --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one caller in this one single-threaded
process; each op starts after the previous one returns.  The process is
fresh, so the library's memo caches start empty, and they are never cleared
during the run, as for a batch user.  The loop runs until ``--seconds`` have
passed and at least the workload's ``PREFIX_OPS`` ops are done.  Counts that
must repeat exactly for a seed (cache hits and misses, per-layer calls) and
the output digest and peak memory are taken after exactly ``PREFIX_OPS``
ops, a fixed amount of work, so a faster program that fits more ops into the
run does not read as one that does more per op.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library's public functions (``layertrace.py``) and reports per-layer metrics.
Lines before the last describe the run for a reader; the last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A full
report, with per-op latencies and, when traced, per-(function, caller) times
and op spans, is written to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: ops after which exact counts, digest and peak memory are read; each is at
#: least 100, so the run's p90 has at least ten samples beyond it
PREFIX_OPS = {"statesum": 120, "scan": 120, "search": 240}
#: fresh interpreters whose set-up time is the median ``setup_s``; half are
#: timed before the timed phase and half after, so that a slow spell of the
#: machine in either moment does not set the median alone
SETUP_SAMPLES = 8


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(PREFIX_OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("all", "setup", "prefix"), default="all",
                    help="internal: 'setup' stops after set-up; 'prefix' runs only the "
                         "fixed prefix untraced and prints its wall time")
    return ap.parse_args(argv)


def setup(workload: str, seed: int) -> tuple:
    """Import the library from this checkout's ``src``, load the fixtures and
    build the seeded inputs of the fixed prefix.  Returns the prefix ops and
    the stream that continues them."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import freeknot
    if os.path.dirname(os.path.dirname(os.path.abspath(freeknot.__file__))) != SRC:
        raise SystemExit(f"error: imported freeknot from {freeknot.__file__}, not from {SRC}")
    import workloads
    stream = workloads.op_stream(workload, seed)
    prefix = list(itertools.islice(stream, PREFIX_OPS[workload]))
    return prefix, stream


def cache_counts() -> dict:
    from freeknot import diagrams
    info = diagrams.canonicalize.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def timed_phase(prefix, stream, seconds: float, tracer=None) -> dict:
    """Run ops until ``seconds`` have passed and the prefix is done."""
    records = []          # (op, latency_ns, output, failure or None)
    gen_s = 0.0
    digest = hashlib.sha256()
    at_prefix = None
    before = cache_counts()
    ops = iter(prefix)
    start = time.perf_counter()
    while True:
        op = next(ops, None)
        if op is None:
            g0 = time.perf_counter()
            op = next(stream)
            gen_s += time.perf_counter() - g0
        i = len(records)
        t0 = time.perf_counter_ns()
        try:
            output = tracer.run_op(i, op.name, op.run) if tracer else op.run()
            failure = None
        except Exception:
            output, failure = "", traceback.format_exc(limit=3)
        t1 = time.perf_counter_ns()
        records.append((op, t1 - t0, output, failure))
        if i < len(prefix):
            digest.update(f"{i}\t{op.name}\t{op.text}\t{output}\n".encode())
        if i + 1 == len(prefix):
            after = cache_counts()
            at_prefix = {
                "wall_s": time.perf_counter() - start,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "canonicalize": {k: after[k] - before[k] for k in after},
                "layers": tracer.snapshot() if tracer else None,
                "digest": digest.hexdigest(),
            }
        elapsed = time.perf_counter() - start
        if at_prefix is not None and elapsed >= seconds:
            break
    return {"records": records, "wall_s": elapsed - gen_s, "at_prefix": at_prefix,
            "canonicalize_end": {k: v - before[k] for k, v in cache_counts().items()}}


def gate(records) -> list:
    """Check every op's output, outside op timing.  Returns the failures
    as (op index, op name, reason)."""
    failures = []
    for i, (op, _lat, output, failure) in enumerate(records):
        reason = failure or op.check(output)
        if reason:
            failures.append((i, op.name, reason))
    return failures


def setup_samples(args, count: int) -> list:
    """Set-up times of fresh interpreters: spawn to exit of ``--phase setup``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", "setup"]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def untraced_prefix_s(args) -> float:
    """Wall time of the prefix in a fresh untraced interpreter, the base of
    the tracing overhead."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", "prefix"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])["prefix_s"]


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(phase: dict, setup_times: list, failures: list) -> dict:
    records = phase["records"]
    lat_ms = [lat / 1e6 for _op, lat, _out, _f in records]
    n = len(lat_ms)
    return {
        "setup_s": metric(statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": metric(n / phase["wall_s"], "1/s", n),
        "op_ms.p50": metric(statistics.median(lat_ms), "ms", n),
        "op_ms.p90": metric(statistics.quantiles(lat_ms, n=10)[8], "ms", n),
        "peak_rss_mb": metric(phase["at_prefix"]["peak_rss_mb"], "MB", 1),
        "error_rate": metric(len(failures) / n, "fraction", n),
    }


def per_layer(phase: dict, untraced_s: float) -> dict:
    at = phase["at_prefix"]
    out = {name: metric(v, "s" if name.endswith("_s") else "count", 1)
           for name, v in at["layers"].items()}
    hits, misses = at["canonicalize"]["hits"], at["canonicalize"]["misses"]
    out["diagrams.canonicalize.hits"] = metric(hits, "count", 1)
    out["diagrams.canonicalize.misses"] = metric(misses, "count", 1)
    out["diagrams.canonicalize.hit_ratio"] = metric(hits / max(1, hits + misses), "fraction", 1)
    out["trace.overhead"] = metric(at["wall_s"] / untraced_s, "x", 1)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "freeknot", "__init__.py")):
        print(f"error: no freeknot sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    e2e_run = args.phase == "all" and not args.trace
    # before this process imports the library, so no child shares its pages
    setup_times = setup_samples(args, SETUP_SAMPLES // 2) if e2e_run else None
    t_start = time.perf_counter()
    prefix, stream = setup(args.workload, args.seed)
    own_setup_s = time.perf_counter() - t_start
    if args.phase == "setup":
        return 0
    if args.phase == "prefix":
        phase = timed_phase(prefix, stream, 0.0)
        print(json.dumps({"prefix_s": phase["at_prefix"]["wall_s"]}))
        return 0

    tracer = None
    if args.trace:
        untraced_s = untraced_prefix_s(args)
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
    phase = timed_phase(prefix, stream, args.seconds, tracer)
    if e2e_run:
        setup_times += setup_samples(args, SETUP_SAMPLES - len(setup_times))
    failures = gate(phase["records"])
    attempted = len(phase["records"])

    shown = per_layer(phase, untraced_s) if tracer else end_to_end(phase, setup_times, failures)
    at = phase["at_prefix"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "prefix_ops": len(prefix), "output_digest": at["digest"],
        "canonicalize_at_prefix": at["canonicalize"], "canonicalize_at_end": phase["canonicalize_end"],
        "in_process_setup_s": own_setup_s,
        "per_layer" if tracer else "end_to_end": shown,
        "ops": [(op.name, lat / 1e6) for op, lat, _o, _f in phase["records"]],
    }
    if tracer:
        report["calls_by_caller"] = tracer.table()
        report["op_spans"] = tracer.spans
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  prefix {len(prefix)}  "
          f"trace {args.trace}  report {os.path.relpath(path, ROOT)}")
    for name, m in shown.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:9s} n={m['samples']}")
    print(f"  canonicalize after {len(prefix)} ops: {at['canonicalize']}; at end: {phase['canonicalize_end']}")
    print(f"  output_digest {at['digest']}")
    for i, name, reason in failures[:5]:
        print(f"  FAILED op {i} {name}: {reason.strip().splitlines()[-1]}")

    names = [n for n in shown if n != "error_rate"]
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": shown[n]["value"], "unit": shown[n]["unit"]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
