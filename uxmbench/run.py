#!/usr/bin/env python3
"""Builds and runs the uxm end-to-end benchmark.

    python3 uxmbench/run.py --workload topk_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds a
Release binary under .bench_build/ (later runs only re-check the build);
the binary then generates the workload's inputs from the seed, runs it,
checks its answers against an oracle and prints a report whose last line
is one JSON object. See README.md in this directory.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("cold_start", "topk_hot", "topk_cold", "ingest_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "uxmbench",
                        "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return BUILD / "uxmbench"


def commit_id():
    """The checkout's git commit, or "none" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """A digest of the library's sources and build file, which identifies
    the code measured even where there is no git history."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for p in [ROOT / "CMakeLists.txt"] + files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result record here")
    args = ap.parse_args()

    try:
        binary = build()
        source = source_digest()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"uxmbench: build failed: {e}", file=sys.stderr)
        return 1
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmpdir", str(tmp), "--commit", commit_id(), "--source", source]
    if args.out:
        cmd += ["--out", str(Path(args.out).resolve())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"uxmbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and not reports_every_metric(proc.stdout, args.trace):
        return 1
    return proc.returncode


def reports_every_metric(stdout, trace):
    """True if the result line names exactly BENCHMARK.json's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines = stdout.strip().splitlines()
    got = set(json.loads(lines[-1])["metrics"]) if lines else set()
    if got != want:
        print(f"uxmbench: result metrics differ from BENCHMARK.json: missing "
              f"{sorted(want - got)}, unexpected {sorted(got - want)}",
              file=sys.stderr)
    return got == want


if __name__ == "__main__":
    sys.exit(main())
