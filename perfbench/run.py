#!/usr/bin/env python3
"""Build ccserve and the perfbench driver from this checkout, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload label-large --seed 1 --seconds 10 --trace 0

Every argument is passed through to the driver (see perfbench/README.md).
All build and run state lives under the build directory: $CARGO_TARGET_DIR
when set, else .bench_build. The Go caches, temporary files and HOME point
there too, so nothing is written outside the checkout.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    for need in ("go.mod", os.path.join("cmd", "ccserve", "main.go"),
                 os.path.join("perfbench", "go.mod")):
        if not os.path.isfile(os.path.join(root, need)):
            print("perfbench: %s not found; run from the repository root" % need,
                  file=sys.stderr)
            return 2

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    bindir = os.path.join(build, "bin")
    for d in (home, tmp, bindir):
        os.makedirs(d, exist_ok=True)

    env = dict(os.environ)
    env.update(
        HOME=home,
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # The module has no dependencies: never fetch a module or toolchain.
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )

    builds = (
        (["go", "build", "-o", os.path.join(bindir, "ccserve"), "./cmd/ccserve"], root),
        (["go", "build", "-o", os.path.join(bindir, "perfbench"), "."],
         os.path.join(root, "perfbench")),
    )
    for cmd, cwd in builds:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return 2

    argv = [os.path.join(bindir, "perfbench"),
            "-ccserve", os.path.join(bindir, "ccserve"),
            "-work", os.path.join(build, "work")] + sys.argv[1:]
    sys.stdout.flush()
    os.execve(argv[0], argv, env)


if __name__ == "__main__":
    sys.exit(main())
