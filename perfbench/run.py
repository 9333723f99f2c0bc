#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build is `dune build` of
perfbench/bench.exe under _build/ (dune's shared cache off, so nothing is
written outside the checkout); its output goes to stderr. The benchmark's
own stdout passes through unchanged: its last line is the JSON result.
Exits non-zero when the build fails, the benchmark fails or a check
finds a wrong answer.
"""

import os
import subprocess
import sys

# The benchmark must end within 180 s of starting; the build is not
# counted, since the first one in a fresh checkout compiles everything.
RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--display", "quiet",
             "./perfbench/bench.exe"],
            cwd=root, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    except FileNotFoundError:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=root,
                             stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
