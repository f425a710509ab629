#!/usr/bin/env python3
"""corona-perfbench: build the stack from source and run one workload.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 15 --trace 0

Builds the corona library, the shipped corona-serverd daemon and the
benchmark binaries into $CARGO_TARGET_DIR (default .bench_build) at the
checkout root, runs the workload over 127.0.0.1, prints every metric by name
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the per-layer (traced) variant and the google-benchmark micros and reports
the per-layer metrics.  Exit status is non-zero on any correctness
violation, on a build failure, and when the repository sources are absent.

    python3 perfbench/run.py --self-test    # the harness's own tests
    python3 perfbench/run.py --list         # workloads and why each exists
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run with an up-to-date build, build check included, ends within 170 s;
# the first run in a checkout adds its build time to the run's own 150 s.
RUN_LIMIT_S = 170
RUN_AFTER_BUILD_S = 150
# Each micro with its --benchmark_filter.  bench/micro_shared_state.cc's
# BM_ApplyUpdate times a payload allocation; micro_apply_update replaces it.
MICROS = {"micro_codec": ".", "micro_shared_state": "-ApplyUpdate",
          "micro_apply_update": "."}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir, targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"corona sources not found under {ROOT}/src; "
             "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (bdir / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def run_micros(bdir, deadline):
    """google-benchmark micros as diagnostic micro.* numbers (ns/op)."""
    metrics, notes = {}, []
    for exe, pattern in MICROS.items():
        path = bdir / exe
        if not path.exists():
            notes.append(f"{exe} not built (google-benchmark missing)")
            continue
        left = deadline - time.monotonic()
        if left < 5:
            notes.append(f"{exe} skipped: out of time")
            continue
        out = subprocess.run(
            [str(path), "--benchmark_format=json", "--benchmark_min_time=0.05",
             f"--benchmark_filter={pattern}"],
            capture_output=True, text=True, timeout=left)
        if out.returncode != 0:
            notes.append(f"{exe} exited {out.returncode}")
            continue
        data = json.loads(out.stdout)
        if data.get("context", {}).get("library_build_type") == "debug":
            notes.append(f"{exe}: the installed google-benchmark library "
                         "was built as DEBUG")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
        for b in data.get("benchmarks", []):
            name = "micro." + b["name"].replace("BM_", "").replace("/", ".")
            metrics[name] = b["real_time"] * scale[b.get("time_unit", "ns")]
    return metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args()
    t0 = time.monotonic()
    bdir = build_dir()

    if args.self_test:
        build(bdir, ["perfbench_selftest"])
        sys.exit(subprocess.run([str(bdir / "perfbench_selftest")]).returncode)

    targets = ["corona_serverd", "perfbench", "perfbench_traced"]
    build(bdir, targets + (list(MICROS) if args.trace else []))
    if args.list:
        sys.exit(subprocess.run([str(bdir / "perfbench"), "--list"]).returncode)
    if not args.workload:
        fail("--workload is required")

    # Durable data directories live on the checkout's disk, not tmpfs.
    work = bdir / "work" / f"{args.workload}-{os.getpid()}"
    exe = bdir / ("perfbench_traced" if args.trace else "perfbench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", str(bdir), "--work-dir", str(work)]
    deadline = max(t0 + RUN_LIMIT_S, time.monotonic() + RUN_AFTER_BUILD_S)
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("run timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.stdout.rstrip("\n").split("\n")
    if out.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out.stdout)
        fail(f"perfbench exited {out.returncode} without a result")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    metrics = result["metrics"]
    if args.trace:
        micro, notes = run_micros(bdir, deadline)
        for n in notes:
            print(f"# {n}")
        for name, value in micro.items():
            print(f"{name:<34} {value:14.6g} ns")
            metrics[name] = {"value": value, "unit": "ns"}
    missing = [n for n in units if n not in metrics]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    result["metrics"] = {n: metrics[n] for n in units}
    print(f"# run took {time.monotonic() - t0:.1f} s")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
