#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kv-durable --seed 1 --seconds 25 --trace 0

Builds perfbench/bench.exe with dune from the checkout's own sources,
runs one workload and passes its output through: human-readable metric
lines, then one JSON result as the last line.  Exits non-zero, without
a result, when the build fails (for instance outside a checkout of the
repository), and non-zero when a correctness check fails or the run
overruns its time limit.  Every process the run starts is stopped
before this script returns.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORK = os.path.join(HERE, "_work")
WORKLOADS = ("kv-read", "kv-durable", "map-large", "cache-zipf")
# The run itself, after the build; the caller allows 180 s in all.
RUN_LIMIT_S = 170


def parse(argv):
    want = {"--workload": str, "--seed": int, "--seconds": int, "--trace": int}
    got = {}
    it = iter(argv)
    for flag in it:
        if flag not in want:
            raise ValueError("unknown argument " + flag)
        got[flag] = want[flag](next(it))
    missing = [f for f in want if f not in got]
    if missing:
        raise ValueError("missing " + ", ".join(missing))
    if got["--workload"] not in WORKLOADS:
        raise ValueError("unknown workload " + got["--workload"])
    if got["--trace"] not in (0, 1) or got["--seconds"] < 1:
        raise ValueError("--trace must be 0 or 1 and --seconds positive")
    return got


def main():
    try:
        args = parse(sys.argv[1:])
    except (ValueError, StopIteration) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    cmd = [EXE] + [str(x) for kv in args.items() for x in kv] + ["--work", WORK]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        rc = 3
    finally:
        # The run's server processes share its session; none outlives it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for _ in range(50):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        shutil.rmtree(WORK, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
