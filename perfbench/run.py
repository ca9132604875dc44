#!/usr/bin/env python3
"""End-to-end benchmark of the HemoFlow in situ loop.

Builds perfbench/ (the library sources plus one driver program) into the
build directory, writes the seeded inputs of the workload, runs it and
forwards its result: the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when the
build fails or an output check fails.

    python3 perfbench/run.py --workload insitu_steered --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20   # every workload, one table
    python3 perfbench/run.py --smoke                       # all workloads, tiny sizes

--trace 1 runs the workload twice, untraced and then traced, and reports the
per-layer metrics of the traced run plus telemetry.trace_overhead_frac, the
MLUPS the tracing costs. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; see perfbench/NOTES.md for what
each workload and metric is for.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["batch_large", "insitu_steered", "restandup"]
# Every run of the program (after the build) must end within this budget.
RUN_BUDGET_S = 172
deadline = None


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def checkout_env(build_root):
    """Environment for every child: temporary files stay in the build dir."""
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(build_root):
    """Configure and build perfbench; returns the binary path or None."""
    build_dir = os.path.join(build_root, "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 4)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=checkout_env(build_root))
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            return None
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return binary if os.path.exists(binary) else None


def run_binary(args, build_root):
    """Run the program; returns (exit code, stdout lines)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, env=checkout_env(build_root))
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        log(f"perfbench: {' '.join(args[:4])} ran out of time")
        return 124, out.splitlines()
    return proc.returncode, proc.stdout.splitlines()


def run_workload(binary, build_root, workload, seed, seconds, trace, smoke,
                 extra=()):
    """Generate inputs, run one workload; returns (rc, table lines, result)."""
    inputs = os.path.join(build_root, "inputs")
    work = os.path.join(build_root, "work", workload)
    common = ["--workload", workload, "--seed", str(seed), "--inputs", inputs]
    if smoke:
        common.append("--smoke")
    rc, lines = run_binary([binary, "gen"] + common + ["--seconds", "1"],
                           build_root)
    for line in lines:
        log(line)
    if rc != 0:
        return rc, [], None
    rc, lines = run_binary([binary, "run"] + common +
                           ["--seconds", str(seconds), "--trace",
                            "1" if trace else "0", "--work", work] +
                           list(extra), build_root)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    table = [line for line in lines[:-1] if line.startswith("#")]
    return rc, table, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, a few seconds per workload: checks the "
                         "benchmark code and every output check, not speed")
    args = ap.parse_args()
    if args.smoke:
        args.seconds = min(args.seconds, 2)

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)
    if binary is None:
        return 1
    global deadline
    deadline = time.monotonic() + RUN_BUDGET_S * (
        len(WORKLOADS) if args.workload == "all" else 1)

    if args.workload == "all":
        failed = False
        for w in WORKLOADS:
            rc, table, result = run_workload(binary, build_root, w, args.seed,
                                             args.seconds, args.trace == 1,
                                             args.smoke)
            print("\n".join(table))
            ok = rc == 0 and result is not None and result["correct"]
            failed = failed or not ok
            print(f"# {w}: {'ok' if ok else 'FAILED'}")
        return 1 if failed else 0

    extra = []
    if args.trace:
        # Untraced reference for the tracing overhead: same seed and length.
        rc, table, plain = run_workload(binary, build_root, args.workload,
                                        args.seed, args.seconds, False,
                                        args.smoke)
        if rc != 0 or plain is None:
            print("\n".join(table))
            return rc or 1
        extra = ["--untraced-mlups", repr(plain["metrics"]["mlups"]["value"])]
    rc, table, result = run_workload(binary, build_root, args.workload,
                                     args.seed, args.seconds,
                                     args.trace == 1, args.smoke, extra)
    print("\n".join(table))
    if result is None:
        return rc or 1
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
