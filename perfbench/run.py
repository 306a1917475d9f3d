#!/usr/bin/env python3
"""Build and run the PEPPA-X benchmark from the repository root.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The Go toolchain builds perfbench (a module of its own that uses the
repository's packages through a replace directive) into .bench_build/, with
the build cache, module cache, temporary files and tool configuration kept
there too, then runs it with the given arguments. A failed build exits
non-zero without printing a result. --selftest runs the benchmark's own
tests instead.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(GOFLAGS="-mod=readonly", GOTOOLCHAIN="local", GOWORK="off",
               CGO_ENABLED="0", GOPROXY="off")
    return env


def main(args):
    env = go_env()
    if args == ["--selftest"]:
        return subprocess.call(["go", "test", "-count=1", "./..."], cwd=HERE, env=env)
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.call([binary] + args, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
