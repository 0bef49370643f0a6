#!/usr/bin/env python3
"""The SySTeC benchmark driver: builds the benchmark from source, runs one
workload, and prints the result as the last line of standard output.

    python3 perfbench/run.py --workload <kernels-exec|compile-cold|service-mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and everything a run writes goes to .bench_out,
both inside the checkout. Each workload runs in its own process.

--trace 0 prints the workload's end-to-end metrics. --trace 1 prints the
per-layer ledger: the named workload runs traced for the full --seconds,
and the other two run traced for a short slice each (in their own
processes) so that every per-layer family is present; each family comes
from the workload it belongs to (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("kernels-exec", "compile-cold", "service-mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest(root):
    """Content hash of the library and benchmark sources, so a record is
    attributable even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir, env):
    bench_dir = os.path.join(root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, "systec_bench")


def run_one(binary, root, out_dir, env, workload, seed, seconds, trace, sha):
    """Runs one workload process; returns (exit code, result dict or None,
    stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", out_dir, "--sha", sha]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: %s timed out" % workload)
        return 1, None, []
    finally:
        shutil.rmtree(os.path.join(out_dir, "scratch-%s-%d" % (workload,
                                                               proc.pid)),
                      ignore_errors=True)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, lines[:-1] if result else lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "runtime", "Executor.h")):
        log("perfbench: run from the root of a SySTeC checkout "
            "(src/ not found under %s)" % root)
        sys.exit(2)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    out_dir = os.path.join(root, ".bench_out")
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(root, build_dir, env)
    sha = "%s+src:%s" % (git_sha(root), source_digest(root))

    if not args.trace:
        code, result, lines = run_one(binary, root, out_dir, env,
                                      args.workload, args.seed, args.seconds,
                                      False, sha)
        print("\n".join(lines))
        if result is None:
            sys.exit(code or 1)
        print(json.dumps(result), flush=True)
        sys.exit(code)

    # The traced ledger: the named workload in full, the others briefly,
    # each in its own process.
    short = max(2.0, args.seconds / 4)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    for workload in order:
        seconds = args.seconds if workload == args.workload else short
        code, result, lines = run_one(binary, root, out_dir, env, workload,
                                      args.seed, seconds, True, sha)
        print("\n".join("[%s] %s" % (workload, l) for l in lines))
        if result is None:
            sys.exit(code or 1)
        exit_code = exit_code or code
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"].setdefault(name, metric)
    print(json.dumps(merged), flush=True)
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
