#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload replay|durable|wire|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run configures and builds the
project's libraries and the driver under .bench_build/ (Release); later
runs only rebuild what changed. The last line of stdout is the result
object; everything the build prints goes to stderr. --smoke runs tiny
clean runs of every workload, then one run with a flipped trace byte and
one with a flipped journal byte, and fails unless exactly the matching
correctness check fires.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORK_DIR = os.path.join(BUILD, "work")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no project sources next to perfbench/; run from a checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def src_digest():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in is not a git repository, so this stands in for the
    sha there)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(args):
    cmd = [BINARY] + args + ["--work-dir", WORK_DIR, "--git-sha", git_sha(),
                             "--src-digest", src_digest()]
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return None


def measure(opts):
    proc = run_binary(["--workload", opts.workload, "--seed", str(opts.seed),
                       "--seconds", str(opts.seconds), "--trace",
                       str(opts.trace)])
    if proc is None:
        return 2
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("benchmark failed with exit code %d" % proc.returncode)
        return 2
    result = json.loads(lines[-1])
    want = expected_metrics(opts.trace)
    if sorted(result["metrics"]) != sorted(want):
        log("metrics differ from BENCHMARK.json: %s" %
            sorted(set(result["metrics"]) ^ set(want)))
        return 2
    sys.stdout.write(proc.stdout)
    return proc.returncode


def smoke():
    """Tiny runs: clean ones must pass; each corruption must trip its check."""
    cases = [
        (["--workload", w], 0, None) for w in ("replay", "durable", "wire")
    ] + [
        (["--workload", "replay", "--corrupt", "trace"], 1,
         "replay: trace file failed validation"),
        (["--workload", "durable", "--corrupt", "journal"], 1,
         "durable: recovered packing differs from the pre-crash state"),
    ]
    ok = True
    for args, want_code, want_msg in cases:
        proc = run_binary(args + ["--seed", "7", "--seconds", "1", "--trace",
                                  "0", "--scale", "0.05"])
        fired = [l for l in proc.stderr.splitlines() if "check failed" in l] \
            if proc else []
        good = (proc is not None and proc.returncode == want_code and
                (want_msg is None and not fired or
                 want_msg is not None and any(want_msg in l for l in fired)))
        print("%s  %s (exit %s)%s" % (
            "ok  " if good else "FAIL", " ".join(args),
            proc.returncode if proc else "timeout",
            "".join("\n      " + l for l in fired[:3])))
        ok = ok and good
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    opts = p.parse_args()
    if not opts.smoke and not opts.workload:
        p.error("--workload is required")
    if not build():
        return 2
    return smoke() if opts.smoke else measure(opts)


if __name__ == "__main__":
    sys.exit(main())
