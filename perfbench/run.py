#!/usr/bin/env python3
"""End-to-end FEAST benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2_inproc --seed 1 --seconds 10 --trace 0

Builds the library layers, the feastc worker binary and the benchmark
binary from source into $CARGO_TARGET_DIR (default .bench_build), then runs
one workload and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer split with --trace 1.  Exits non-zero
when the build fails or any output is wrong.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("fig2_inproc", "bus_baselines", "isolate_small", "serve_mixed")
# A run that takes longer than this is killed and fails, so a hung worker
# cannot hold the command forever.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out: Path) -> Path:
    """Configures once, then builds the benchmark binary (and feastc) incrementally."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "feast_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / "feast_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes (perfbench/tests/smoke_test.py)")
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work), "--golden", str(BENCH / "fingerprints.json")]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group, so a timeout also stops the worker subprocesses.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
