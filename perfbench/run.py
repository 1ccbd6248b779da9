#!/usr/bin/env python3
"""Build the race-detector benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/main.exe and the racedet CLI with dune (build output
goes to stderr), runs the workload and passes its standard output
through; the last line is the JSON result.  The exit code is the
workload program's: 0 only when every correctness gate passed.
See README.md.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["oneshot-perf", "campaign-tsp"]
WORK_DIR = ".perfbench"  # main.exe's scratch directory
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def stop_group(pgid):
    """Kill whatever is left in the process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(500):
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def run_group(cmd, env, timeout, stdout=None):
    """Run cmd in its own process group, which is killed when cmd ends
    (a serve daemon left behind by a crash goes with it) or times out."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 124
    stop_group(proc.pid)
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ "
              "are missing)", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled",
               OCAML_RUNTIME_EVENTS_DIR=WORK_DIR)
    build = ["dune", "build", "--root", ".", "./perfbench/main.exe",
             "./bin/racedet.exe"]
    code = run_group(build, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code or 1

    sys.stdout.flush()
    return run_group(
        ["_build/default/perfbench/main.exe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--racedet", "_build/default/bin/racedet.exe"],
        env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
