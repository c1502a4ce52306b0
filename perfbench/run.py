#!/usr/bin/env python3
"""End-to-end benchmark of `pet serve`.

Builds the `pet` binary and the benchmark program (perfbench/pbench.ml)
from the source tree this directory sits in, then runs one workload
(or all of them) and relays its report. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured through
the real binary; with --trace 1 they are the per-layer ones of a traced
in-process replay of the same inputs. The exit code is non-zero when
the build fails, an output check fails, or a run overruns its time.

Usage, from the root of the source tree:

    python3 perfbench/run.py --workload stdio-hcov --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["stdio-hcov", "tcp-durable", "tenants-open"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(argv, cwd, timeout, stdout):
    """Run argv in its own process group; kill the whole group (pbench
    and the servers it spawned) if it overruns."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.Popen(argv, cwd=cwd, stdout=stdout, stderr=sys.stderr,
                            env=env, start_new_session=True, text=True)
    overran = False
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        overran = True
    # Reap anything left in the group: a server orphaned by a crash, or
    # everything on overrun.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return (None, None) if overran else (proc.returncode, out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not all(os.path.isfile(os.path.join(root, f))
               for f in ("dune-project", os.path.join("bin", "pet.ml"))):
        print("perfbench: no pet source tree at %s" % root, file=sys.stderr)
        return 2

    start = time.monotonic()
    code, _ = run_group(["dune", "build", "--root", root, "bin/pet.exe",
                         "perfbench/pbench.exe"], root, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    build_s = time.monotonic() - start

    # A build that compiled anything is a first run in a fresh checkout,
    # which may take longer overall.
    budget = (900 if build_s > 10 else RUN_TIMEOUT_S) - build_s
    results = {}
    for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
        code, out = run_group(
            [os.path.join(root, "_build", "default", "perfbench", "pbench.exe"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--exe", os.path.join(root, "_build", "default", "bin", "pet.exe"),
             "--work", os.path.join(root, ".perfbench")],
            root, budget if args.workload != "all" else RUN_TIMEOUT_S,
            subprocess.PIPE)
        if code is None:
            print("perfbench: %s overran its time" % workload, file=sys.stderr)
            return 3
        lines = out.strip().splitlines()
        if args.workload == "all":
            print("== %s" % workload)
        for line in lines[:-1]:
            print(line)
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("perfbench: %s printed no result" % workload, file=sys.stderr)
            return 3
        if code != 0:
            print(lines[-1])
            return code

    if args.workload == "all":
        merged = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
        print(json.dumps(merged))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
