#!/usr/bin/env python3
"""Builds servebench from source and runs one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR when
that is set, else to .bench_build/ (a Release build of kspdg_core,
shard_worker and servebench; the first run compiles, later runs only check).
Everything the run writes stays under that directory: the full report and
span trace in out/, the shard workers' unix sockets in sock/.

The last line of standard output is the result object; build logs go to
standard error. Exits non-zero without a result when the build or the run
fails, or when the run exceeds its time limit.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170


def log(message):
    print(f"servebench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures once, then builds; returns the binary path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("the repository's CMakeLists.txt and src/ are missing; "
            "nothing to build")
        return None
    cmake_dir = os.path.join(bdir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = subprocess.run(["cmake", "--build", cmake_dir, "--target",
                            "servebench", "-j", jobs], stdout=sys.stderr)
    if built.returncode != 0:
        log("build failed")
        return None
    return os.path.join(cmake_dir, "bin", "servebench")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def main(argv):
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1
    out_dir = os.path.join(bdir, "out")
    sock_dir = os.path.join(bdir, "sock")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(sock_dir, exist_ok=True)
    # A relative socket directory keeps socket paths short (unix socket
    # paths are limited to 107 bytes) wherever the checkout lives.
    cmd = [binary] + argv + ["--out-dir", out_dir,
                             "--socket-dir", os.path.relpath(sock_dir, ROOT)]
    sha = git_sha()
    if sha:
        cmd += ["--git-sha", sha]
    # Own process group, so a timeout also stops the shard workers.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_LIMIT_S} s; stopping it")
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 1
    except KeyboardInterrupt:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
