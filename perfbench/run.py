"""Verdict benchmark for pltlbmc.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from the seed, parses them (set-up),
then runs verdicts in a closed loop, one client in one process, for at
least ``--seconds`` seconds, in whole passes over the inputs so that every
run measures the same mix.  Every verdict is then checked
against an independent answer.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the run makes exactly one pass, whatever ``--seconds`` says,
each block once untraced and once traced, and the JSON object carries the
per-layer metrics of that pass instead.  See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / ".work"
SETUP_REPS = 3
SETUP_MIN_S = 3.0
# The keys of workloads.WORKLOADS, which can only be imported once the
# sources are on the path.
WORKLOAD_NAMES = ("grid", "deep", "fair")


def _digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _run_block(block, records):
    """Run every job of a block once; exceptions are recorded, not raised.
    Returns the seconds spent in the calls.

    Each call starts from a collected heap with everything the run holds so
    far (inputs, earlier outcomes, spans) frozen out of the collector's
    reach.  A collection inside a call then scans only what that call made,
    as it would in a process of its own, and not the benchmark's growing
    records: those full scans took about 0.1 s each and landed on random
    verdicts, which moved the median verdict time from run to run.
    """
    clock = time.perf_counter
    busy = 0.0
    gc.unfreeze()  # so that what earlier blocks dropped can be freed
    for job in block:
        gc.collect()
        gc.freeze()
        t0 = clock()
        try:
            outcome = job.run()
        except Exception as exc:  # a failed verdict must not abort the run
            outcome = exc
        dt = clock() - t0
        busy += dt
        records.append((job, outcome, dt))
    return busy


def _check(records):
    """Failure messages for wrong verdicts and raised exceptions."""
    failures = []
    for job, outcome, _ in records:
        if isinstance(outcome, Exception):
            failures.append(f"{job.name}: raised {''.join(traceback.format_exception_only(outcome)).strip()}")
            continue
        try:
            msg = job.check(outcome)
        except Exception as exc:
            msg = f"checking raised {exc!r}"
        if msg:
            failures.append(f"{job.name}: {msg}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pltlbmc" / "__init__.py").is_file():
        print(f"error: no pltlbmc sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    setup = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    clock = time.perf_counter

    # Set-up, at least SETUP_REPS times and for at least SETUP_MIN_S, each
    # time from a collected heap.  A traced run then sets up once more under
    # the tracer.
    setup_times, digests = [], set()
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        inputs = None
        gc.collect()
        t0 = clock()
        inputs = setup(random.Random(args.seed), str(WORKDIR))
        setup_times.append(clock() - t0 - inputs.oracle_s)
        digests.add(_digest(inputs.texts))
    if tracer is not None:
        tracer.install()
        inputs = setup(random.Random(args.seed), str(WORKDIR))
        tracer.uninstall()
        digests.add(_digest(inputs.texts))

    # Closed loop in whole passes (every block once), so that every run
    # measures the same mix.  Untraced: until the time is up.  Traced:
    # exactly one pass, each block untraced and traced, alternating which
    # goes first, so that the per-layer sums always cover the same verdicts.
    # Times are the seconds spent in the calls, without the collections
    # between them.
    records = []
    windows = []  # traced blocks' (start, end)
    busy_s = untraced_s = traced_s = 0.0
    start = clock()
    deadline = start + args.seconds
    passes = blocks_run = 0
    while passes == 0 or (tracer is None and clock() < deadline):
        for i, block in enumerate(inputs.blocks):
            blocks_run += 1
            if tracer is None:
                busy_s += _run_block(block, records)
                continue
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                t0 = clock()
                block_s = _run_block(block, records)
                t1 = clock()
                if traced:
                    tracer.uninstall()
                    windows.append((t0, t1))
                    traced_s += block_s
                else:
                    untraced_s += block_s
        passes += 1
    elapsed = clock() - start
    gc.unfreeze()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = _check(records)
    if len(digests) != 1:
        print(f"FAIL set-up made {len(digests)} different inputs from one seed", file=sys.stderr)
    attempted = len(records)
    times = sorted(dt for _, _, dt in records)

    print(f"workload {args.workload} seed {args.seed} inputs {min(digests)} "
          f"passes {passes} blocks {blocks_run} verdicts {attempted} wall {elapsed:.3f} s in calls {busy_s + untraced_s + traced_s:.3f} s (one client, closed loop)")
    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"fail_ratio {len(failures) / attempted:.6g} 1 ({len(failures)} of {attempted})")

    if tracer is None:
        metrics = {
            "verdicts_per_s": (attempted / busy_s, "1/s"),
            "verdict_s.p50": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        if attempted >= 100:
            p90 = statistics.quantiles(times, n=10)[-1]
            print(f"verdict_s.p90 {p90:.6g} s (n={attempted})")
        else:
            print(f"verdict_s.p90 not reported: {attempted} verdicts, fewer than 100")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        tracer.write(WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = spans.layer_metrics(tracer, windows, traced_s, traced_s / untraced_s)
        for layer, layer_s in spans.loop_layers(tracer, windows, traced_s):
            print(f"layer {layer} {layer_s:.4f} s {layer_s / traced_s:.1%} of the traced loop")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures and len(digests) == 1, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
