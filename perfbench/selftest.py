#!/usr/bin/env python3
"""Self-test of the benchmark harness: does it catch what it must?

    python3 perfbench/selftest.py

Checks, each against the real program:

  corrupt   a corrupted expected answer fails the run (inproc_big and
            wire_hot: indices, inproc_rw and wire_rw: live keys): nonzero
            exit, "correct": false
  kill      a server SIGKILLed mid-run (wire_hot), and a shard SIGKILLed
            behind the router (router_fanout), show up as failed batches
            and a nonzero exit
  digest    the same seed gives an identical input digest, another seed a
            different one
  sigint    SIGINT mid-run stops every child and removes every temp dir
  bare      run from a directory holding only BENCHMARK.json and
            perfbench/, the benchmark exits nonzero without a result

Exits 0 only when every check passes.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

ROOT = bench.ROOT
SECONDS = "2"


def run_bench(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", SECONDS,
           "--trace", "0", *extra]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    last = None
    if lines:
        try:
            last = json.loads(lines[-1])
        except ValueError:
            last = None
    return p.returncode, last


def our_children():
    """coopserve / perfbench_pb processes started from this checkout."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                argv0 = f.read().split(b"\0")[0].decode(errors="replace")
        except OSError:
            continue
        if argv0 in (bench.COOPSERVE, bench.PB):
            found.append(int(pid))
    return found


def tmp_entries():
    d = os.path.join(bench.WORK, "tmp")
    return sorted(os.listdir(d)) if os.path.isdir(d) else []


def check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    return ok


def main():
    results = []
    for w in ("inproc_big", "inproc_rw", "wire_hot", "wire_rw"):
        rc, last = run_bench(w, "--selftest", "corrupt")
        results.append(check(
            f"corrupt/{w}",
            rc != 0 and last is not None and last["correct"] is False,
            f"exit {rc}, last line {last}"))
    for w in ("wire_hot", "router_fanout"):
        rc, last = run_bench(w, "--selftest", "kill")
        results.append(check(
            f"kill/{w}",
            rc != 0 and last is not None and last["failed"] > 0,
            f"exit {rc}, failed {last and last['failed']} of "
            f"{last and last['attempted']}"))

    bench.build()
    digests = []
    for seed in (5, 5, 6):
        out = tempfile.mkdtemp(prefix="selftest-prep-",
                               dir=bench.WORK)
        try:
            args = ["prep", "--out", out, "--seed", seed]
            for k, v in bench.HOT.items():
                args += [f"--{k}", v]
            digests.append(bench.run_pb(args)["digest"])
        finally:
            shutil.rmtree(out, ignore_errors=True)
    results.append(check(
        "digest", digests[0] == digests[1] and digests[0] != digests[2],
        f"seed 5: {digests[0]}, seed 5 again: {digests[1]}, "
        f"seed 6: {digests[2]}"))

    before = tmp_entries()
    p = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "wire_rw", "--seed", "3", "--seconds", "20", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    give_up = time.monotonic() + 120
    while not our_children() and time.monotonic() < give_up:
        time.sleep(0.05)
    time.sleep(2)
    running = our_children()
    p.send_signal(signal.SIGINT)
    rc = p.wait(timeout=60)
    left = our_children()
    results.append(check(
        "sigint", running and not left and tmp_entries() == before and
        rc != 0,
        f"exit {rc}, children before {len(running)}, after {len(left)}, "
        f"temp dirs left {sorted(set(tmp_entries()) - set(before))}"))

    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=bench.WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        t0 = time.monotonic()
        rc, last = run_bench("wire_hot", cwd=bare)
        results.append(check(
            "bare", rc != 0 and last is None,
            f"exit {rc} after {time.monotonic() - t0:.1f} s, no result"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
