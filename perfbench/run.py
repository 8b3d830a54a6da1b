#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the same
arguments. The benchmark prints a report and, as its last line, one JSON
object with the run counts and the metrics. With `--trace 1` the spans
recorded around each layer call are written to
`<target dir>/perfbench/spans-<workload>-<seed>.jsonl`.

Exits non-zero without a result line if the build fails (for example when
the simulator's crates are not next to this directory) or the benchmark
does not finish within its time limit.
"""

import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Whole-process limit; the benchmark caps each run itself well below it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fixed_layout():
    """Runs in the child before exec: turn off address-space randomisation.

    With randomised layouts the simulator's speed differs by several
    percent from one process to the next, in a way the calibration kernel
    cannot see; with one fixed layout the calibration tracks it. Where the
    call is not allowed the benchmark runs with the usual layout.
    """
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def arg_value(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(target, "release", "perfbench")
    args = list(argv)
    if arg_value(argv, "--trace", "0") == "1" and "--spans" not in argv:
        name = arg_value(argv, "--workload", "unknown")
        seed = arg_value(argv, "--seed", "0")
        args += ["--spans", os.path.join(target, "perfbench", f"spans-{name}-{seed}.jsonl")]
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=env, preexec_fn=fixed_layout)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
