"""toriparam benchmark: four closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  A run is one fresh process: import,
corpus build and warm-up (the set-up), then a timed pass over seeded op
blocks (see ``workloads.py``) that goes on, in whole blocks, until
``--seconds`` have passed and at least ``MIN_OPS`` ops are done.  Each
op's wall time is one latency sample and each op's answer is checked
exactly after its timer stops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced pass for half the time, then as many blocks again, drawn from a
stream of their own, with the tracer installed, and reports the
per-layer metrics of ``tracer.py``; the spans are written to
``.perfbench_out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--all`` runs every workload both ways in fresh processes
and prints every metric with its unit and sample count.
"""

import time

T0 = time.perf_counter()   # the set-up clock starts before any import

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 4           # extra fresh processes timed for setup_s
MIN_OPS = 200               # a timed pass has at least this many ops
WORKLOADS = ("roundtrip", "hinted", "geometry", "cli")

END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p95_ms": "ms", "ok_frac": "frac", "setup_s": "s",
              "peak_rss_mb": "MB"}


def _require_sources():
    if not os.path.isfile(os.path.join(SRC, "toriparam", "__init__.py")):
        sys.exit(f"perfbench: no toriparam sources under {SRC}")


def _import_package():
    _require_sources()
    sys.path.insert(0, SRC)
    import toriparam
    if not os.path.abspath(toriparam.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported toriparam from {toriparam.__file__}")
    return toriparam


def _run_op(op, tracer, op_id, failures):
    """Time one op; return (seconds, passed).  Any exception the op's check
    does not expect, and any wrong answer, fails the op."""
    err = out = None
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:      # the check decides whether it was expected
        err = exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    try:
        ok = bool(op.check(out, err))
    except Exception:
        ok = False
        err = err or sys.exc_info()[1]
    if not ok and failures < 3:
        print(f"perfbench: {op.kind} op failed", file=sys.stderr)
        if err is not None:
            traceback.print_exception(err, file=sys.stderr)
    return elapsed, ok


def timed_pass(workload, seed, seconds=0.0, n_blocks=None, stream="",
               tracer=None):
    """Run whole blocks 0, 1, 2, ... of the seed's ``stream``: ``n_blocks``
    of them if given, else until ``seconds`` have passed and at least
    ``MIN_OPS`` ops are done.  Returns one (seconds, passed, block) sample
    per op."""
    samples = []
    failures = 0
    start = time.perf_counter()
    block = 0
    while (block < n_blocks if n_blocks is not None else
           len(samples) < MIN_OPS or time.perf_counter() - start < seconds):
        for op in workload.block(seed, f"{stream}{block}"):
            elapsed, ok = _run_op(op, tracer, len(samples), failures)
            failures += not ok
            samples.append((elapsed, ok, block))
        block += 1
    return samples


def summarise(samples, seconds):
    """End-to-end figures of one pass.  Throughput is the median over
    blocks of correct ops per second busy, which a stray pause in one
    block cannot move.  A failed op counts as slower than any success: its
    latency sample is the whole run length."""
    per_block = {}
    for t, ok, block in samples:
        busy, n_ok = per_block.get(block, (0.0, 0))
        per_block[block] = (busy + t, n_ok + ok)
    lat = sorted(t * 1e3 if ok else seconds * 1e3 for t, ok, _ in samples)
    p95 = lat[min(len(lat) - 1, max(0, -(-len(lat) * 95 // 100) - 1))]
    rates = [n_ok / busy if busy else 0.0 for busy, n_ok in per_block.values()]
    return {"ops_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(lat),
            "latency_p95_ms": p95,
            "ok_frac": sum(s[1] for s in samples) / len(samples)}


def set_up(workload, seed):
    """Corpus build and warm-up."""
    workload.setup()
    for op in workload.warm_ops(seed):
        _run_op(op, None, -1, 0)


def _child_setup_seconds(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args):
    _import_package()
    import workloads
    workdir = os.path.join(OUT, f"cli-{os.getpid()}")
    workload = workloads.make(args.workload, workdir)
    try:
        set_up(workload, args.seed)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            result = {"setup_s": setup_s}
        elif args.trace:
            result = _traced_run(workload, args)
        else:
            result = _untraced_run(workload, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _untraced_run(workload, args, setup_s):
    samples = timed_pass(workload, args.seed, args.seconds)
    figures = summarise(samples, args.seconds)
    figures["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [_child_setup_seconds(args)
                          for _ in range(SETUP_REPEATS)]
    figures["setup_s"] = statistics.median(setups)
    failed = sum(not s[1] for s in samples)
    print(f"perfbench: {args.workload}: {len(samples)} ops, {failed} failed, "
          f"setups {', '.join(f'{s:.3f}' for s in setups)} s",
          file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(samples),
            "failed": failed,
            "metrics": {k: {"value": figures[k], "unit": u}
                        for k, u in END_TO_END.items()}}


def _traced_run(workload, args):
    import toriparam
    import tracer as tracing
    # The traced blocks have the make-up of the untraced ones but inputs of
    # their own, so that nothing the untraced pass left in a cache is hit.
    plain = timed_pass(workload, args.seed, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install(toriparam)
    try:
        traced = timed_pass(workload, args.seed, n_blocks=plain[-1][2] + 1,
                            stream="traced", tracer=tracer)
    finally:
        tracer.uninstall()
    if tracer.missing:
        print("perfbench: not traced (absent): " + ", ".join(tracer.missing),
              file=sys.stderr)
    metrics = tracer.metrics(len(traced),
                             summarise(plain, args.seconds)["ops_per_s"],
                             summarise(traced, args.seconds)["ops_per_s"])
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write(spans_path)
    failed = sum(not s[1] for s in plain + traced)
    print(f"perfbench: {args.workload}: {len(plain)} ops untraced, "
          f"{len(traced)} traced, {failed} failed, {len(tracer.spans)} spans "
          f"in {os.path.relpath(spans_path, ROOT)}", file=sys.stderr)
    units = tracing.metric_names()
    return {"correct": failed == 0, "attempted": len(plain) + len(traced),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()}}


def run_all(args):
    """Every workload, end-to-end then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{name} trace={trace}: exit {done.returncode}")
                status = 1
                continue
            res = json.loads(done.stdout.strip().splitlines()[-1])
            label = "traced run" if trace else "end to end"
            print(f"{name} ({label}): n = {res['attempted']} ops, "
                  f"failed = {res['failed']}, correct = {res['correct']}")
            for key, m in res["metrics"].items():
                print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
            status |= not res["correct"]
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, end to end and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _require_sources()
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
