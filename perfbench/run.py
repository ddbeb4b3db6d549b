#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the program's libraries
and the perfbench binary from source (CMake, into .bench_build/), generates
the seeded inputs of (workload, seed) once in a separate process, runs the
measurement in a fresh process and passes its output through. The last line
of standard output is the JSON result object. Exits non-zero without a
result when the build, the generation or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
WORKLOADS = ("cg-stencil", "pagerank-rmat", "serve-mixed")
# Generated input sets kept per workload; older ones are evicted.
KEEP_INPUT_SETS = 3
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_revision():
    """The git commit when there is one, else a digest of src/."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    build_dir = BUILD_ROOT / "perfbench"
    jobs = str(os.cpu_count() or 1)
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "perfbench", "-j", jobs], stdout=log, stderr=log)
    if r.returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def inputs(binary, workload, seed):
    """Input directory of (workload, seed), generated on first use."""
    base = BUILD_ROOT / "inputs"
    final = base / f"{workload}-{seed}"
    if final.is_dir():
        os.utime(final)
        return final
    base.mkdir(parents=True, exist_ok=True)
    tmp = base / f".tmp-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    r = subprocess.run([str(binary), "gen", "--workload", workload, "--seed",
                        str(seed), "--out", str(tmp)],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail(f"input generation failed for {workload} seed {seed}")
    tmp.rename(final)
    sets = sorted(base.glob(f"{workload}-*"), key=lambda p: p.stat().st_mtime)
    for old in sets[:-KEEP_INPUT_SETS]:
        shutil.rmtree(old, ignore_errors=True)
    return final


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    binary = build()
    in_dir = inputs(binary, args.workload, args.seed)
    out_dir = BUILD_ROOT / "runs" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    env = dict(os.environ, PERFBENCH_SOURCE_REV=source_revision())
    started = time.monotonic()
    try:
        r = subprocess.run([str(binary), "run", "--workload", args.workload,
                            "--seed", str(args.seed), "--seconds",
                            str(args.seconds), "--trace", str(args.trace),
                            "--inputs", str(in_dir), "--out", str(out_dir)],
                           capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail(f"run exited with code {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(r.stdout + r.stderr)
        fail("run printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stderr.write(r.stderr)
    print("\n".join(lines[:-1]))
    print(f"wall {time.monotonic() - started:.1f} s, artifacts in "
          f"{out_dir.relative_to(ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
