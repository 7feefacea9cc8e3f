#!/usr/bin/env python3
"""Build the P5 benchmark, run one workload, and log the result.

Run from the repository root:

    python3 perfbench/run.py --workload imix_link --seed 1 --seconds 10 --trace 0

The benchmark is built from source with cargo (offline, release
profile) into $CARGO_TARGET_DIR, or `.bench_build` when that is unset.
Everything the program prints is passed through; its last line is the
result object.  Each run appends one row to `perfbench/history.jsonl`
(git revision, a digest of the benchmark's own code, cores, seed,
workload and every metric) and checks the deterministic anchors in
`perfbench/anchors.json` when run with their seed: a drifted anchor is
a behaviour change, so the result then reads `"correct": false`.
Exits non-zero, without a result, when the build or the run fails.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "history.jsonl")
ANCHORS = os.path.join(HERE, "anchors.json")


def arg(argv, flag, default):
    if flag in argv and argv.index(flag) + 1 < len(argv):
        return argv[argv.index(flag) + 1]
    return default


def git_rev():
    """The checked-out commit, read from .git without running git (the
    run must not read outside its checkout); 'unknown' without one."""
    git = os.path.join(ROOT, ".git")
    try:
        head = open(os.path.join(git, "HEAD")).read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            return open(path).read().strip()
        for line in open(os.path.join(git, "packed-refs")):
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return "unknown"


def bench_digest():
    """Digest of the benchmark's own code: rows taken on one revision
    with different benchmark code tell apart by it."""
    h = hashlib.sha256()
    files = [os.path.join(HERE, "Cargo.toml"), os.path.join(HERE, "run.py")]
    src = os.path.join(HERE, "src")
    files += sorted(os.path.join(src, f) for f in os.listdir(src))
    for path in files:
        try:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0" + open(path, "rb").read())
        except OSError:
            pass
    return h.hexdigest()[:12]


def check_anchors(workload, seed, metrics):
    """Compare the deterministic anchors; returns 'ok', 'drift' or 'n/a'."""
    try:
        anchors = json.load(open(ANCHORS))
    except (OSError, ValueError):
        return "n/a"
    expected = anchors.get("workloads", {}).get(workload, {})
    if str(seed) != str(anchors.get("seed")) or not expected:
        return "n/a"
    status = "n/a"
    for name, want in expected.items():
        if name not in metrics:
            continue
        got = metrics[name]["value"]
        if got == want:
            status = "ok" if status == "n/a" else status
        else:
            print(f"perfbench: ANCHOR DRIFT {workload} {name}: "
                  f"expected {want!r}, got {got!r}", file=sys.stderr)
            status = "drift"
    return status


def main():
    argv = sys.argv[1:]
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "p5-perfbench")
    run = subprocess.run([exe, *argv, "--out-dir", os.path.join(HERE, "out")],
                         env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    workload = arg(argv, "--workload", "")
    seed = arg(argv, "--seed", "1")
    anchors = check_anchors(workload, seed, result["metrics"])
    if anchors == "drift":
        result["correct"] = False
        lines[-1] = json.dumps(result)
    row = {
        "rev": git_rev(),
        "bench": bench_digest(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": int(seed),
        "seconds": float(arg(argv, "--seconds", "10")),
        "trace": int(arg(argv, "--trace", "0")),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "anchors": anchors,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }
    with open(HISTORY, "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
