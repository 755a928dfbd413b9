#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py [fixed settings] --workload <name> --seed <n> \
        --seconds <n> --trace <0|1>

Run from the root of a checkout. The Rust benchmark in this directory is
built with cargo (offline, release) into $CARGO_TARGET_DIR, or
`.bench_build` when it is unset, and then run with every argument passed
through. Its last line of standard output is checked against
BENCHMARK.json: with `--trace 0` the metrics must be exactly the
end-to-end metrics, with `--trace 1` exactly the per-layer metrics, each
with its unit. Only a result that passes is printed; the exit code is
the benchmark's, or non-zero when the build, the run or the check fails.
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir, "release", "perfbench")


def run(exe, args):
    proc = subprocess.Popen([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def check(line, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    expected = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m["value"], bool):
            fail(f"metric {name} has no numeric value")


def main():
    args = sys.argv[1:]
    if "--trace" not in args:
        fail("--trace is required")
    trace = args[args.index("--trace") + 1] == "1"
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.join(ROOT, target))
    code, out = run(exe, args)
    lines = out.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        fail(f"no result line (exit code {code})")
    check(lines[-1], trace)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
