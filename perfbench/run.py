#!/usr/bin/env python3
"""Build the benchmark and run one workload in fresh processes.

    python3 perfbench/run.py --workload <fixpoint|view-churn|invention> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The binary is built from source with
cargo (into $CARGO_TARGET_DIR, or perfbench/target). Every `USET_*`
variable is removed from the children's environment. With --trace 0 the
workload's set-up is measured in SETUP_SAMPLES fresh processes (the
timed run being the last) and `setup_s` is their median; with --trace 1
one traced run reports the per-layer metrics. The last line printed is
the result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fixpoint", "view-churn", "invention")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
RUN_GRACE_S = 100


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("cargo build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_child(cmd, env, timeout):
    try:
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if out.returncode != 0:
        fail(f"exit code {out.returncode}: {' '.join(cmd)}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail(f"no output: {' '.join(cmd)}")
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("USET_")}
    target = env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    binary = build(env)

    state = os.path.join(HERE, ".state")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            line = run_child(cmd + ["--setup-only"], env, SETUP_TIMEOUT_S)[-1]
            setups.append(json.loads(line)["setup_s"])
    lines = run_child(cmd, env, args.seconds + RUN_GRACE_S)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result: {lines[-1]!r}")
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        print(f"setup_s samples: {setups}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
