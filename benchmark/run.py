#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to dune's _build
directory, without dune's shared cache, so nothing is written outside
the checkout; progress and errors go to stderr. The last line of stdout is
the result JSON of benchmark/main.exe, and the exit code is its exit
code: 1 when an output was wrong. Exits 2, printing no result, when the
checkout is incomplete, the build fails or the run times out, and 3 when
the result of a workload listed in BENCHMARK.json lacks one of the
metrics the manifest names for the run's --trace mode, or reports it in
another unit.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
MAIN = os.path.join("_build", "default", "benchmark", "main.exe")


def fail(msg):
    print("benchmark: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def arg(args, key):
    for flag, value in zip(args, args[1:]):
        if flag == key:
            return value
    return None


def check_manifest(args, out):
    """The metric names and units the manifest lists for this run, against
    the result line; exits 3 on a difference."""
    try:
        with open("BENCHMARK.json") as f:
            manifest = json.load(f)
    except OSError:
        return
    if arg(args, "--workload") not in [w["name"] for w in manifest["workloads"]]:
        return
    key = "end_to_end" if arg(args, "--trace") == "0" else "per_layer"
    want = {m["name"]: m["unit"] for m in manifest[key]}
    lines = out.strip().splitlines()
    got = json.loads(lines[-1])["metrics"] if lines else {}
    got = {name: m["unit"] for name, m in got.items()}
    if got != want:
        print(
            "benchmark: %s metrics differ from the manifest: missing %s, "
            "extra %s, other unit %s"
            % (
                key,
                sorted(set(want) - set(got)),
                sorted(set(got) - set(want)),
                sorted(n for n in set(want) & set(got) if want[n] != got[n]),
            ),
            file=sys.stderr,
        )
        sys.exit(3)


def main():
    args = sys.argv[1:]
    for required in ("dune-project", "lib"):
        if not os.path.exists(required):
            fail("no %s here: run from the root of a checkout" % required)
    build = subprocess.run(
        find_dune()
        + ["build", "--root", ".", "--display", "quiet", "--cache", "disabled"]
        + ["./" + MAIN],
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed")
    # its own process group, so a timeout also stops the set-up probes it
    # spawns
    proc = subprocess.Popen(
        [MAIN] + args,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run timed out")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode == 0:
        check_manifest(args, out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
