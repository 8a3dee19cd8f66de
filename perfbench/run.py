#!/usr/bin/env python3
"""Builds and runs the MSSG benchmark for one workload and one seed.

    python3 perfbench/run.py --workload <ingest|scan_live> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The first run configures and builds
the benchmark program (perfbench/CMakeLists.txt compiles the library
sources under src/ directly) into .bench_build/; later runs rebuild only
what changed.
The program's output is passed through: one line per metric with its
unit, one per wall-clock figure, an environment line, and as the last
line one JSON object with "correct", "attempted", "failed" and
"metrics".  Result details and, for --trace 1, a Chrome trace-event
file land in .bench_build/results/.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = REPO / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("ingest", "scan_live")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (REPO / "src" / "mssg" / "mssg.hpp").is_file():
        fail(f"MSSG sources not found under {REPO / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j",
                  str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (see .bench_build/build.log)", 1)
    binary = CMAKE_DIR / "mssg_perfbench"
    if not binary.is_file():
        fail("build produced no mssg_perfbench binary", 1)
    return binary


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))
    try:
        done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def source_digest():
    """sha256 over every file under src/: identifies the measured code
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = REPO / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    work_dir = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--work-dir", str(work_dir),
        "--out-dir", str(BUILD / "results"),
        "--git-sha", git_sha(),
        "--source-digest", source_digest(),
        "--build-type", BUILD_TYPE,
    ]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{args.workload} exited with code {done.returncode}", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
