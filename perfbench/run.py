#!/usr/bin/env python3
"""Build the benchmark and the server binaries it drives, then run it.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

Run from the repository root. Every argument is passed to the benchmark
binary (see README.md). Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); scratch files and traces go to
`$CARGO_TARGET_DIR/perfbench`. Build messages go to stderr, so the last
line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys
import tomllib


def release_profile_env():
    """The root manifest's [profile.release] scalars as Cargo env config.

    The benchmark is a workspace of its own, so without this its
    in-process code would build under Cargo's default profile while the
    `serve`/`router` binaries build under the repository's.
    """
    with open("Cargo.toml", "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    env = {}
    for key, value in profile.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif not isinstance(value, (int, str)):
            continue  # nested tables (per-package overrides) have no env form
        env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    return env


def main():
    if not os.path.exists("Cargo.toml"):
        sys.exit("perfbench: run from the repository root (no Cargo.toml here)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, **release_profile_env())
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "ams-serve", "--bin", "serve", "-p", "ams-cluster", "--bin", "router"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    bin_dir = os.path.join(target, "release")
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    bench = os.path.join(bin_dir, "perfbench")
    args = [bench, "--bin-dir", bin_dir, "--out-dir", out_dir] + sys.argv[1:]
    sys.exit(subprocess.run(args, env=env).returncode)


if __name__ == "__main__":
    main()
