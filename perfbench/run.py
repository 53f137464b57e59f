#!/usr/bin/env python3
"""Builds the engine and the perfbench binary from this checkout, then runs
one workload and passes its output through; the last line of standard output
is the run's JSON result.

    python3 perfbench/run.py --workload csv_explore --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --print-expected --workload rawd_serve --seed 1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout
root. Each run writes its inputs, and the JIT compiler its scratch files, to a
private directory under .bench_run/ that is deleted when the run ends,
whether it passes, fails or is interrupted. A run still going 110 s after its
measured seconds counts as hung: it is stopped, and run.py exits with 1.
"""
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release",
                   # no compiler cache: it would write outside the checkout
                   "-DCMAKE_CXX_COMPILER_LAUNCHER="]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                       stdout=sys.stderr)
    return build_dir


def run_limit_s(args):
    """How long a run may take before it counts as hung and is stopped:
    its measured seconds plus 110 s for set-up, checks and the last round."""
    for flag, value in zip(args, args[1:]):
        if flag == "--seconds":
            try:
                return float(value) + 110
            except ValueError:
                break
    return 600  # --selftest, --print-expected


def main():
    try:
        build_dir = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    run_root = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=run_root)
    env = {k: v for k, v in os.environ.items() if not k.startswith("RAW_")}
    env["TMPDIR"] = workdir
    cmd = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
           "--workdir", workdir,
           "--rawd", os.path.join(build_dir, "raw", "src", "bin", "rawd")]
    child = None

    def stop(signum, _frame):
        if child is not None and child.poll() is None:
            child.send_signal(signal.SIGTERM)  # perfbench stops rawd, then exits
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        # Own process group, so nothing it started can outlive the run.
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
        try:
            return child.wait(timeout=run_limit_s(sys.argv[1:]))
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded its time limit; stopping it", file=sys.stderr)
            child.send_signal(signal.SIGTERM)
            return 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if child is not None:
            try:
                child.wait(timeout=20)  # perfbench stops rawd within 10 s
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
            # Anything left in the group (rawd, or a JIT compiler an
            # interrupted run had started) is killed, and the run ends once
            # the group is empty.
            for _ in range(500):
                try:
                    os.killpg(child.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    break
                time.sleep(0.01)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(run_root)
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
