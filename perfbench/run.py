#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload hit-dsl --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build; every file a run writes (server stores and
checkpoints, kernel objects, compiler temporaries, span dumps) stays under
that directory. The last line of standard output is the result JSON from
the driver (perfbench/driver.cpp); see perfbench/README.md for the
workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("hit-dsl", "miss-dsl", "miss-graph", "native")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the driver and the server; False on failure."""
    log_path = os.path.join(build_dir, "build.log")
    tmp = os.path.join(build_dir, "tmp")  # compiler temporaries stay in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "lf_perfbench", "example_fusion_server",
         "-j", str(os.cpu_count() or 1)],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    if not build(build_dir):
        return 1

    runs_dir = os.path.join(build_dir, "runs")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(runs_dir, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=runs_dir)
    cmd = [os.path.join(build_dir, "lf_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--server", os.path.join(build_dir, "example_fusion_server"),
           "--work", work]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    env = dict(os.environ, TMPDIR=work)
    # Own process group, so a timed-out driver is stopped with every server
    # and sandbox worker it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # a hung or crashed driver's leftovers
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if out is None:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = out.strip().splitlines()
    if not lines:
        sys.stderr.write("perfbench: driver printed no result (exit %d)\n" % proc.returncode)
        return proc.returncode or 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
