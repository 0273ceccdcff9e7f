#!/usr/bin/env python3
"""Build hetsep and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Builds the `hetsep` binary (the daemon serve-edit drives) and the
`perfbench` package in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs `perfbench run` with the same arguments. The last
line of standard output is the result JSON; build output and the
human-readable summary go to standard error. Traced runs write their span
file under `perfbench/out/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "crates", "hetsep", "Cargo.toml")):
        sys.stderr.write("perfbench: no hetsep workspace next to %s; nothing to build\n" % HERE)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "hetsep", "--bin", "hetsep"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), "run", *argv,
           "--daemon", os.path.join(release, "hetsep"),
           "--reference", os.path.join(HERE, "reference"),
           "--out", os.path.join(HERE, "out")]
    # The benchmark pins every thread count itself; clear the host's.
    env.pop("HETSEP_THREADS", None)
    env.pop("HETSEP_INTRA_THREADS", None)
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
