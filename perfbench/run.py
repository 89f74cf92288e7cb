#!/usr/bin/env python3
"""Build the benchmark program from source, then run it once.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

The benchmark program (perfbench/main.exe) links the repository's libraries, so it
is built with dune against the sources in the checkout; the built
executable is then run directly, once, with the arguments given here.
Build output goes to standard error; the program's standard output,
whose last line is the JSON result, passes through unchanged.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def main(argv):
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a source checkout (%s is missing)" % needed)
    env = dict(os.environ)
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            dune_command()
            + ["build", "--root", ".", "--profile", "dev", "--display", "quiet", TARGET],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 1)
    try:
        run = subprocess.run([EXE] + argv, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out", 1)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
