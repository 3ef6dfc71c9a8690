#!/usr/bin/env python3
"""Build and run the libaod benchmark.

    python3 perfbench/run.py --workload flight-aoc --seed 1 --seconds 10 --trace 0

Configures and builds the perfbench CMake package (libaod from the
repository's sources plus the benchmark binaries) into .bench_build/, then
runs one workload. The last line of standard output is the JSON result.
Extra flags (--scale, --watchdog, --inject-hang, --inject-corrupt) pass through to the binary; see src/main.cc.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary dir."""
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench", "perfbench_shard_runner"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out


def revision():
    """git revision when available, plus a digest of the built sources.

    Python caches are skipped, so running the self-test leaves the digest
    unchanged.
    """
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "nogit"
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            rev = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "%s+src.%s" % (rev, digest.hexdigest()[:12])


def stop_group(pgid):
    """Kills whatever is left in the run's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_binary(out, args, timeout=RUN_TIMEOUT_S):
    """Runs perfbench with `args`; returns (exit code, stdout text)."""
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench")] + list(args) + [
        "--runner", os.path.join(out, "perfbench_shard_runner"),
        "--trace-dir", trace_dir, "--revision", revision()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        sys.stderr.write("perfbench: no result within %d s\n" % timeout)
        return 3, ""
    stop_group(proc.pid)
    return proc.returncode, stdout


def main(argv):
    if "--workload" not in argv:
        sys.stderr.write(__doc__)
        return 2
    try:
        out = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 1
    code, stdout = run_binary(out, argv)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
