#!/usr/bin/env python3
"""Serving benchmark for `tpp serve`.

Builds the repository's `tpp` CLI and this directory's `servebench` program
from source, then runs one workload:

  python3 servebench/run.py --workload point_hk1e5 --seed 1 --seconds 30 --trace 0

--trace 0 starts a real `tpp serve --socket=...` on the generated fixture,
drives it with the workload's script and prints the end-to-end metrics.
--trace 1 replays the same script in process and prints the per-layer
metrics. Either way the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
is the run record. `--selftest` runs the tests of the benchmark's own
arithmetic instead. README.md in this directory documents the workloads
and every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("point_hk1e5", "heavy_arenas", "churn_dblp")
# `tpp serve` flags, the same on every workload. One solve thread: with the
# IO thread and the benchmark's one client thread a run keeps two cores busy
# at most, so it measures the program rather than the scheduler of a shared
# box, and a second run beside it on four cores does not slow it. The plan
# cache is on. The admission caps are raised from 256 queued / 64 per
# client, so that a stall of the shared box long enough to queue 64 of
# churn's requests on its one connection does not shed them.
SERVER_THREADS = 1
CACHE_SIZE = 4096
QUEUE_DEPTH = 1024
PER_CLIENT = 256
# Server starts are timed in two batches, one before the driven server and
# one after it, so they meet the shared box at two moments. Each batch makes
# at least the first figure of starts, then more until the second has passed
# or the third is reached (a start on the small fixtures takes
# milliseconds). setup_s is the median of every start, the driven one too.
SETUP_MIN_SPAWNS = 3
SETUP_BUDGET_S = 0.5
SETUP_MAX_SPAWNS = 20
SERVER_START_TIMEOUT_S = 60
# A run ends this many seconds after its build at the latest.
RUN_BUDGET_S = 170


def log(*parts):
    print("servebench:", *parts, file=sys.stderr, flush=True)


def cores():
    return len(os.sched_getaffinity(0))


def server_flags():
    """The settings of the server under test, passed alike to `tpp serve`
    and to the traced run's in-process server."""
    return [f"--threads={SERVER_THREADS}", f"--cache-size={CACHE_SIZE}",
            f"--queue-depth={QUEUE_DEPTH}", f"--per-client={PER_CLIENT}"]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("repository sources not found beside", HERE)
        sys.exit(2)
    out = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                        *generator], check=True, stdout=out)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(cores()), "--target",
                    "tpp_cli", "servebench", "servebench_selftest"],
                   check=True, stdout=out)


def compiler():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    return subprocess.run([path, "--version"], capture_output=True,
                                          text=True).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_version():
    """The git commit when there is one, and a digest of the sources."""
    commit = "unknown"
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if got.returncode == 0:
            commit = got.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_json(cmd, timeout):
    got = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(got.stderr)
    if got.returncode != 0:
        log("failed:", " ".join(cmd))
        sys.exit(1)
    return json.loads(got.stdout.strip().splitlines()[-1])


class Server:
    """One `tpp serve` process on ./serve.sock, timed from spawn to the
    first accepted connection."""

    def __init__(self, tpp):
        if os.path.exists("serve.sock"):
            os.unlink("serve.sock")
        self.log = open("serve.log", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [tpp, "serve", "--graph=graph.edges", "--socket=serve.sock", *server_flags()],
            stdout=self.log, stderr=self.log)
        while True:
            if self.proc.poll() is not None:
                self.log.close()
                raise RuntimeError("tpp serve exited during start-up")
            if time.perf_counter() - start > SERVER_START_TIMEOUT_S:
                self.stop()
                raise RuntimeError("tpp serve did not start listening")
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect("serve.sock")
                break
            except OSError:
                time.sleep(0.0005)
        self.setup_s = time.perf_counter() - start

    def stop(self):
        """Drains the server; returns True when it exited cleanly."""
        clean = False
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(30)
                s.connect("serve.sock")
                s.sendall(b"shutdown\n")
                s.recv(64)
            clean = self.proc.wait(timeout=60) == 0
        except (OSError, subprocess.TimeoutExpired):
            pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        return clean


def time_starts(tpp):
    """One batch of timed server starts, each drained again."""
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_MAX_SPAWNS and (
            len(setups) < SETUP_MIN_SPAWNS or time.perf_counter() - start < SETUP_BUDGET_S):
        server = Server(tpp)
        setups.append(server.setup_s)
        if not server.stop():
            raise RuntimeError("tpp serve did not drain cleanly")
    return setups


def run(args):
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    servebench = os.path.join(BUILD, "servebench")
    # One directory per process, so runs that overlap in one checkout keep
    # apart. A correct untraced run removes its own when it ends; a traced
    # run keeps its spans there, a failed one what it was given and did.
    run_dir = os.path.join(BUILD, "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.chdir(run_dir)  # socket paths stay short: they are relative
    correct = run_in(args, servebench, run_dir, deadline)
    os.chdir(ROOT)
    if correct and not args.trace:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_in(args, servebench, run_dir, deadline):
    fixture = run_json([servebench, "prepare", f"--workload={args.workload}",
                        f"--seed={args.seed}", f"--seconds={args.seconds}",
                        f"--threads={cores()}", "--dir=."], timeout=60)
    commit, digest = source_version()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "nproc": os.cpu_count(), "server_threads": SERVER_THREADS,
              "cache_size": CACHE_SIZE, "queue_depth": QUEUE_DEPTH,
              "per_client": PER_CLIENT, "commit": commit, "source_digest": digest,
              "compiler": compiler(), "fixture": fixture}

    if args.trace:
        result = run_json([servebench, "trace", f"--workload={args.workload}", "--dir=.",
                           *server_flags()], timeout=deadline - time.monotonic())
        record.update(result.pop("record"))
        record["spans"] = os.path.join(run_dir, "spans.jsonl")
    else:
        tpp = os.path.join(BUILD, "tpp", "tpp")
        setups = time_starts(tpp)
        server = Server(tpp)
        setups.append(server.setup_s)
        try:
            result = run_json([servebench, "drive", f"--workload={args.workload}",
                               "--dir=.", "--socket=serve.sock",
                               f"--server-pid={server.proc.pid}", "--timeout=80"],
                              timeout=90)
        finally:
            drained = server.stop()
        setups += time_starts(tpp)
        result["correct"] = result["correct"] and drained
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        record.update(result.pop("record"))
        record["setup_s_samples"] = setups

    print("record: " + json.dumps(record))
    print(json.dumps(result), flush=True)
    return result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the tests of the benchmark's own arithmetic")
    args = parser.parse_args()
    if args.selftest:
        build()
        sys.exit(subprocess.run([os.path.join(BUILD, "servebench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        run(args)
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log(e)
        sys.exit(1)


if __name__ == "__main__":
    main()
