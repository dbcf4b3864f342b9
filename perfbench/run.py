#!/usr/bin/env python3
"""Build and run the simulator's host-cost benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload steady --seed 5 --seconds 10 --trace 0

Builds perfbench/skybench.exe (and the libraries it links) with dune,
then runs it with the same arguments.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Build output goes to standard error.  Everything the build and the run
write stays under the current directory: dune's shared cache is off,
temporary files go to .bench_out/tmp, spans to .bench_out/.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/skybench.exe"
EXE = os.path.join("_build", "default", "perfbench", "skybench.exe")


def find_dune():
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        candidate = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
        if os.access(candidate, os.X_OK):
            dune = candidate
    return dune


def run(cmd, env, timeout, **kwargs):
    """Run cmd and return its exit code.  On timeout, or when this script
    is terminated, the child is stopped and waited for first."""
    child = subprocess.Popen(cmd, env=env, **kwargs)

    def stop():
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, on_signal) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop()
        print("run.py: %s timed out after %d s" % (cmd[0], timeout), file=sys.stderr)
        return 124
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: dune-project or lib/ missing; run from the repository root",
              file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    tmp = os.path.join(os.getcwd(), ".bench_out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    code = run([dune, "build", "--root", ".", TARGET], env, BUILD_TIMEOUT_S,
               stdout=sys.stderr)
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return code
    sys.stdout.flush()
    return run([EXE] + sys.argv[1:], env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
