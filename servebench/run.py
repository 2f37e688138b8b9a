#!/usr/bin/env python3
"""Build and run the serving-stack benchmark.

Run from the root of the repository:

    python3 servebench/run.py --workload sign-durable --seed 1 --seconds 20 --trace 0

It builds the Go program in servebench/ from source and runs it with the
given arguments. Everything the build and the run write (Go build cache,
the binary, state dirs) goes under .bench_build/ in the current directory.
The last line of standard output is the run's JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "servebench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "gotmp"),
        # The Go command keeps its telemetry counters under the user
        # config dir; keep them inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    for d in ("gocache", "gopath", "gotmp", "config", "tmp"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "servebench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return 1
    bench = subprocess.run([binary, "-dir", os.path.join(out, "tmp")] + sys.argv[1:], env=env)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
