"""Check that a fixed seed reproduces the same inputs and the same counts.

For each workload, runs one traced pass twice, in two processes with
different string-hash seeds, and compares the input digest and the
``check.bounds`` and ``sat.clauses`` counts of the traced pass.  Exits 1
on any difference.  Run from the root of a source checkout:

    python3 perfbench/repro.py --seed 7
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTS = ("check.bounds", "sat.clauses")


def _one(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    digest = out[0].split(" inputs ")[1].split()[0]
    metrics = json.loads(out[-1])["metrics"]
    return (digest,) + tuple(metrics[c]["value"] for c in COUNTS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    ok = True
    for workload in ("grid", "deep", "fair"):
        first, second = _one(workload, args.seed, 1), _one(workload, args.seed, 2)
        same = first == second
        ok &= same
        print(f"{workload} seed {args.seed}: inputs {first[0]} "
              + " ".join(f"{c}={v}" for c, v in zip(COUNTS, first[1:]))
              + (" reproduced" if same else f" DIFFERS from {second}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
