#!/usr/bin/env python3
"""Build and run the piso host-time benchmark (see perfbench/README.md).

Run from the root of a full checkout:

  python3 perfbench/run.py --workload pmake8 --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the simulator library
from src/ plus the driver) in Release mode under $CARGO_TARGET_DIR
(default .bench_build); later calls only rebuild what changed. The
driver's last stdout line is the result object; the lines before it,
prefixed with '#', carry the host stamp and every metric by name.

--self-test runs one op of every workload in BENCHMARK.json with tracing
off and on, and fails if a check fails or a named metric is missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pmake8", "scale256", "sweep_cpu", "sweep_io")

# Inputs of the timed program: the simulator, the Figure 2 machine the
# goldens pin, and the benchmark itself.
DIGESTED = ("src", "bench/pmake8.hh", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at %s/src; run from a full checkout"
             % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_ = ["cmake", "--build", bdir, "--target", "perfbench_driver",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench_driver")


def git_commit():
    """HEAD of the checkout, read from .git without running git (a
    checkout without .git reports 'unknown')."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the timed program's sources, so a result names the
    code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    files = []
    for entry in DIGESTED:
        path = os.path.join(ROOT, entry)
        if os.path.isfile(path):
            files.append(entry)
        for dirpath, _, names in os.walk(path):
            for name in names:
                files.append(os.path.relpath(os.path.join(dirpath, name),
                                             ROOT))
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def driver_command(exe, workload, seed, seconds, trace, quick=False):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--golden-dir", os.path.join(ROOT, "tests", "golden"),
           "--span-dir", build_dir(),
           "--git-commit", git_commit(),
           "--source-digest", source_digest()]
    return cmd + (["--quick"] if quick else [])


def self_test(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    bad = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                driver_command(exe, workload, 1, 1, trace, quick=True),
                stdout=subprocess.PIPE, text=True)
            problems = []
            lines = proc.stdout.strip().splitlines()
            result = {}
            if proc.returncode != 0 or not lines:
                problems.append("driver exited %d" % proc.returncode)
            else:
                try:
                    result = json.loads(lines[-1])
                except ValueError:
                    problems.append("last line is not a JSON result")
            if result:
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problems.append("result keys %s" % sorted(result))
                if not result.get("correct") or result.get("failed"):
                    problems.append("checks failed")
                got = {k: v.get("unit")
                       for k, v in result.get("metrics", {}).items()}
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in expected[trace]
                               if k in got and got[k] != expected[trace][k])
                if missing:
                    problems.append("missing metrics %s" % missing)
                if extra:
                    problems.append("unlisted metrics %s" % extra)
                if wrong:
                    problems.append("wrong units %s" % wrong)
            if trace == 1:
                spans = [l[len("# spans: "):] for l in lines
                         if l.startswith("# spans: ")]
                try:
                    with open(spans[0]) as f:
                        json.load(f)["traceEvents"]
                except (IndexError, OSError, ValueError, KeyError):
                    problems.append("span file missing or unreadable")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("self-test %-10s trace=%d %s" % (workload, trace, status))
            bad += bool(problems)
    return 1 if bad else 0


def main():
    # Turn SIGTERM into SystemExit, so subprocess.run() kills and reaps
    # the driver or the build instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required (or use --self-test)")
    if args.seed < 1 or args.seconds <= 0:
        ap.error("--seed must be >= 1 and --seconds > 0")

    exe = build()
    if args.self_test:
        return self_test(exe)
    cmd = driver_command(exe, args.workload, args.seed, args.seconds,
                         args.trace)
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
