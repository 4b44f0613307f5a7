#!/usr/bin/env python3
"""Build the Tapeworm II benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-ci --seed 1994 --seconds 55 --trace 0

The Go package next to this file is built into .bench_build/perfbench,
with the Go build cache, temporary files and configuration kept under
.bench_build too, so the run reads and writes only inside the checkout.
Every argument is passed on to the built program; see main.go for what
it measures.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.exit("perfbench: run from the root of a Tapeworm II checkout (no go.mod here)")
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    src = os.path.dirname(os.path.abspath(__file__))
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
