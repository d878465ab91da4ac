#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds perfbench (the library from ../src plus the harness in this
directory) with CMake, runs one workload, and relays its output. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; build output goes to stderr.

  python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all [--seeds 1,2,3] [--record runs.jsonl]

--all runs every workload untraced and prints each end-to-end metric by
name with its unit. --record appends one JSON line per run (host, working
set, result) for perfbench/compare.py. The build directory is
$CARGO_TARGET_DIR if set, else .bench_build at the repository root.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("snapshot_roundtrip", "serve_hot", "serve_cold")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR")
    return Path(base).resolve() if base else ROOT / ".bench_build"


def build(bdir):
    """Configure once, then build incrementally; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    cmake_dir = bdir / "perfbench"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return cmake_dir / "perfbench"


def source_id():
    """git sha of the checkout, else a content hash of the sources."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for sub in ("src", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def run_one(binary, bdir, workload, seed, seconds, trace, sha, echo=True):
    """Run one workload; returns (detail, result) parsed from its output."""
    work = bdir / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work), "--git-sha", sha]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}", 1)
    lines = done.stdout.rstrip("\n").split("\n")
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def record(path, workload, seed, seconds, trace, detail, result):
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "seconds": seconds, "trace": bool(trace),
                            "host": detail["host"],
                            "facts": detail["facts"],
                            "problems": detail["problems"],
                            "result": result}) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and print a table")
    ap.add_argument("--seeds", default=None,
                    help="comma-separated seeds for --all (default: --seed)")
    ap.add_argument("--record", default=None,
                    help="append one JSON line per run to this file")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")

    bdir = build_dir()
    binary = build(bdir)
    sha = source_id()
    if not args.all:
        detail, result = run_one(binary, bdir, args.workload, args.seed,
                                 args.seconds, args.trace, sha)
        if args.record:
            record(args.record, args.workload, args.seed, args.seconds,
                   args.trace, detail, result)
        return

    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds \
        else [args.seed]
    rows = []
    correct = True
    for workload in WORKLOADS:
        for seed in seeds:
            detail, result = run_one(binary, bdir, workload, seed,
                                     args.seconds, 0, sha, echo=False)
            if args.record:
                record(args.record, workload, seed, args.seconds, 0, detail,
                       result)
            correct = correct and result["correct"]
            for name, m in result["metrics"].items():
                rows.append((workload, seed, name, m["value"], m["unit"],
                             result["failed"], result["attempted"]))
    host = detail["host"]
    print(f"host: {host['cpu_model']}, nproc {host['nproc']}, "
          f"{host['llc']}, kernels {host['kernel_dispatch']}, "
          f"{host['compiler']}, {host['build_type']}, {host['git_sha']}")
    print(f"{'workload':<20} {'seed':>5} {'metric':<20} {'value':>14} unit")
    for workload, seed, name, value, unit, failed, attempted in rows:
        print(f"{workload:<20} {seed:>5} {name:<20} {value:>14.6g} {unit}")
    print("all runs correct" if correct else "SOME RUNS FAILED their checks")
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
