#!/usr/bin/env python3
"""The serving benchmark: checked, closed-loop workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
        [--result-file PATH] [--selftest corrupt|kill]

Workloads; BENCHMARK.json lists the two in-process ones, which stay
steady when the hypervisor steals CPU (README.md says why the others are
left out of it):

    inproc_big     library embedding: height-16 / 2^22-entry snapshot opened
                   by snapshot::open behind one serve::Frontend whose
                   engine runs each batch inline, 4 caller threads
    inproc_rw      the height-8 / 20000-entry snapshot as a DynamicCatalog
                   behind the same embedding, 1 caller: write of 6
                   mutations + read-your-writes probe + 4 reads
    wire_hot       default coopserve on the height-8 / 20000-entry
                   snapshot, 4 connections
    wire_rw        fresh coopserve per instance with the same snapshot as a
                   dynamic collection, WAL in an empty directory,
                   every-ack fsync; the inproc_rw cycle over 4 connections
    router_fanout  coopserve --router in front of 2 shard processes

Every run builds the program from source (first run only), prepares the
seeded inputs and their expected answers (cached per seed), and starts
fresh program instances one after another.  Each is timed from its start
to the first checked batch, warmed up for WARMUP_S (the default engine
needs about a second after start before it is steady), then loaded for
seconds/MIN_INSTANCES, cut into WINDOWS_PER_INSTANCE windows by batch end
time.  A window in which the hypervisor stole more than STEAL_MAX of the
machine's CPU measures the host, not the program: it is left out, and
more instances are started, while the run is younger than RUN_CAP_S,
until MIN_CLEAN windows are clean; short of that, the least-stolen
MIN_CLEAN windows are used.  qps, p50_us and p99_us are interquartile
means over the kept windows: an outlying window moves them little, and
unlike a median they do not jump between the two speeds inproc_rw's
single caller alternates between.  setup_s is the median over the
instances that gave at least half their windows.  The steal of
every window is kept in the result file.  With --trace 1 it runs the
per-layer ladder instead (perfbench_pb ladder) and prints the per-layer
metrics, a span self-time table and the span file's path.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Any wrong answer, typed error, shed or timeout makes
the exit code nonzero.  Every child process is reaped and every temporary
directory removed on every exit path, SIGINT and SIGTERM included.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench-build")
PB = os.path.join(BUILD, "perfbench_pb")
COOPSERVE = os.path.join(BUILD, "coopsearch_tools", "coopserve")

WORKLOADS = ("inproc_big", "inproc_rw", "wire_hot", "wire_rw",
             "router_fanout")
# The hot tree serves every workload but inproc_big, which has the big one.
HOT = {"height": 8, "entries": 20000, "batches": 1024, "rw-batches": 512,
       "shards": 2}
BIG = {"height": 16, "entries": 1 << 22, "batches": 2048}
MIN_INSTANCES = 6
RUN_CAP_S = 40
WARMUP_S = 1.5
WINDOWS_PER_INSTANCE = 3
# A 1 s window on 4 CPUs holds 400 jiffies: 0.01 is four stolen ones.
# Even 1.5% steal can lift a window's p99 by a third.
STEAL_MAX = 0.01
MIN_CLEAN = 9
# wire_rw: pending mutations that trigger a background compaction.  At the
# ~11K acked mutations/s wire_rw measures on a 4-vCPU host that is up to
# 11 compactions a second (the traced run's dyn.compactions_per_s reads
# 7-15), some 30-50 per instance.
COMPACT_THRESHOLD = 1000
# Inputs kept per kind: the big pool and snapshot are ~270 MB a seed.
KEEP_INPUTS = {"big": 2, "hot": 8}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Interrupted(Exception):
    pass


class Children:
    """Every process and temp dir this run created, torn down on exit."""

    def __init__(self):
        self.procs = []
        self.dirs = []

    def spawn(self, cmd, log_path):
        with open(log_path, "ab") as lf:
            p = subprocess.Popen(cmd, stdout=lf, stderr=subprocess.STDOUT,
                                 start_new_session=True)
        self.procs.append(p)
        return p

    def tempdir(self, prefix):
        os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
        d = tempfile.mkdtemp(prefix=prefix, dir=os.path.join(WORK, "tmp"))
        self.dirs.append(d)
        return d

    def stop(self, p, sig=signal.SIGTERM):
        for s, timeout in ((sig, 10), (signal.SIGKILL, None)):
            if p.poll() is not None:
                break
            try:
                os.killpg(p.pid, s)  # a server and its session's group
            except ProcessLookupError:
                try:
                    p.send_signal(s)  # perfbench_pb, in our own group
                except ProcessLookupError:
                    pass
            try:
                p.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        if p in self.procs:
            self.procs.remove(p)

    def remove(self, d):
        shutil.rmtree(d, ignore_errors=True)
        if d in self.dirs:
            self.dirs.remove(d)

    def cleanup(self):
        for p in list(self.procs):
            self.stop(p)
        for d in list(self.dirs):
            self.remove(d)


KIDS = Children()


def on_signal(signum, _frame):
    raise Interrupted(f"signal {signum}")


# ---- build and inputs ------------------------------------------------------

def build():
    os.makedirs(WORK, exist_ok=True)
    blog = os.path.join(WORK, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_pb", "coopserve"])
    for cmd in steps:
        with open(blog, "ab") as lf:
            p = subprocess.Popen(cmd, stdout=lf, stderr=subprocess.STDOUT)
            KIDS.procs.append(p)
            rc = p.wait()
            KIDS.procs.remove(p)
        if rc != 0:
            with open(blog, errors="replace") as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            raise RuntimeError(f"build failed ({' '.join(cmd[:2])}); "
                               f"see {blog}")


def start_pb(args):
    p = subprocess.Popen([PB] + [str(a) for a in args],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    KIDS.procs.append(p)
    return p


def await_ready(p, timeout=60):
    """Wait for a wire load generator to load its inputs and say so."""
    if not select.select([p.stdout], [], [], timeout)[0] or \
            p.stdout.readline().strip() != "ready":
        raise RuntimeError("perfbench_pb did not get ready")


def finish_pb(p, what, stdin=None, timeout=170):
    """Wait for perfbench_pb; return its last stdout line as JSON."""
    try:
        out, err = p.communicate(stdin, timeout=timeout)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        KIDS.procs.remove(p)
    if err:
        sys.stderr.write(err)
    if p.returncode != 0:
        raise RuntimeError(f"perfbench_pb {what} exited {p.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_pb(args):
    return finish_pb(start_pb(args), args[0])


def prep(kind, seed):
    """Seeded inputs for `kind` ("hot" or "big"), cached per seed."""
    base = os.path.join(WORK, "inputs")
    d = os.path.join(base, f"{kind}-s{seed}")
    info = os.path.join(d, "inputs.json")
    if not os.path.exists(info):
        os.makedirs(base, exist_ok=True)
        tmp = KIDS.tempdir(f"prep-{kind}-")
        params = HOT if kind == "hot" else BIG
        args = ["prep", "--out", tmp, "--seed", seed]
        for k, v in params.items():
            args += [f"--{k}", v]
        run_pb(args)
        shutil.rmtree(d, ignore_errors=True)
        os.replace(tmp, d)
        KIDS.dirs.remove(tmp)
        evict(base, kind)
    os.utime(info)
    with open(info) as f:
        return d, json.load(f)


def evict(base, kind):
    dirs = [os.path.join(base, n) for n in os.listdir(base)
            if n.startswith(kind + "-")]
    dirs.sort(key=lambda p: os.path.getmtime(os.path.join(p, "inputs.json"))
              if os.path.exists(os.path.join(p, "inputs.json")) else 0,
              reverse=True)
    for old in dirs[KEEP_INPUTS[kind]:]:
        shutil.rmtree(old, ignore_errors=True)


# ---- program instances -------------------------------------------------------

def vm_hwm_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def wait_port_file(path, proc, timeout=60):
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited {proc.returncode} at start")
        try:
            with open(path) as f:
                port = int(f.read().strip() or 0)
            if port:
                return port
        except (OSError, ValueError):
            pass
        time.sleep(0.0005)
    raise RuntimeError(f"no port in {path}")


def serve_cmd(tmp, name, extra, mode=()):
    pf = os.path.join(tmp, f"{name}.port")
    return [COOPSERVE, *mode, "--port", "0", "--port-file", pf] + extra, pf


def start_hot(tmp, hot):
    cmd, pf = serve_cmd(tmp, "hot",
                        ["--collection", f"main={hot}/main.snap"])
    return KIDS.spawn(cmd, os.path.join(tmp, "hot.log")), pf


def start_rw(tmp, hot):
    wal = os.path.join(tmp, "wal")
    os.makedirs(wal)
    cmd, pf = serve_cmd(tmp, "rw", [
        "--dynamic-collection", f"main={hot}/main.snap", "--wal-dir", wal,
        "--fsync", "every-ack", "--compact-threshold",
        str(COMPACT_THRESHOLD)])
    return KIDS.spawn(cmd, os.path.join(tmp, "rw.log")), pf


def start_fleet(tmp, hot):
    """Two shard processes, then the router once both listen.  Shards run
    one engine thread so the fleet's three processes fit on 4 cores
    beside the load generator."""
    shards, spec = [], []
    for k in range(HOT["shards"]):
        cmd, pf = serve_cmd(tmp, f"shard{k}", [
            "--collection", f"main={hot}/part/shard{k}.snap",
            "--engine-threads", "1"])
        shards.append((KIDS.spawn(cmd, os.path.join(tmp, f"shard{k}.log")),
                       pf))
    for k, (p, pf) in enumerate(shards):
        spec += ["--shard", f"{k}=127.0.0.1:{wait_port_file(pf, p)}"]
    cmd, pf = serve_cmd(tmp, "router", [
        "--routing-map", f"{hot}/part/routing.map",
        "--collection-name", "main"] + spec, mode=("--router",))
    router = KIDS.spawn(cmd, os.path.join(tmp, "router.log"))
    return [router] + [p for p, _ in shards], pf


def instance(workload, dirs, secs, selftest, kill):
    """One fresh program instance from spawn to teardown: set-up timed to
    the first checked batch, a warm-up, then `secs` of timed load in
    WINDOWS_PER_INSTANCE windows.  Returns perfbench_pb's figures."""
    tmp = KIDS.tempdir(f"{workload}-")
    common = ["--seconds", secs, "--warmup", WARMUP_S,
              "--windows", WINDOWS_PER_INSTANCE]
    if selftest == "corrupt":
        common += ["--corrupt", 1]
    procs = []
    try:
        if workload.startswith("inproc"):
            big = workload == "inproc_big"
            r = run_pb(["inproc" if big else "inproc-rw", "--inputs",
                        dirs["big" if big else "hot"]] + common)
            # The embedding's peak, without the load generator's pool.
            r["peak_rss_mb"] = r["hwm_mb"] - r["base_mb"]
            return r
        # The port file of the server the load is sent to (serve_cmd).
        name = {"wire_hot": "hot", "wire_rw": "rw"}.get(workload, "router")
        verb = "rw" if workload == "wire_rw" else "wire"
        pb = start_pb([verb, "--inputs", dirs["hot"], "--port-file",
                       os.path.join(tmp, f"{name}.port")] + common)
        await_ready(pb)
        # Set-up runs from here: the server's spawn, not the load
        # generator's start, which has already loaded its inputs.
        t0 = time.monotonic_ns()
        if workload == "wire_hot":
            procs = [start_hot(tmp, dirs["hot"])[0]]
        elif workload == "wire_rw":
            procs = [start_rw(tmp, dirs["hot"])[0]]
        else:
            procs = start_fleet(tmp, dirs["hot"])[0]
        killer = None
        if kill:
            # SIGKILL the server (a shard, behind the router) mid-run.
            victim = procs[-1]
            killer = threading.Timer(WARMUP_S + secs / 2,
                                     lambda: os.kill(victim.pid,
                                                     signal.SIGKILL))
            killer.start()
        try:
            r = finish_pb(pb, verb, stdin=f"{t0}\n")
        finally:
            if killer is not None:
                killer.cancel()
        r["peak_rss_mb"] = sum(vm_hwm_mb(p.pid) for p in procs)
        return r
    finally:
        for p in procs:
            KIDS.stop(p)
        KIDS.remove(tmp)


def iq_mean(vals):
    """Mean of the middle half of `vals`."""
    vals = sorted(vals)
    cut = len(vals) // 4
    return statistics.mean(vals[cut:len(vals) - cut])


def end_to_end(workload, dirs, seconds, selftest):
    """Fresh instances, each set up, warmed and loaded for
    seconds / MIN_INSTANCES, until MIN_CLEAN windows are clean."""
    runs = []
    clean = 0
    start = time.monotonic()
    while len(runs) < MIN_INSTANCES or (
            clean < MIN_CLEAN and time.monotonic() - start < RUN_CAP_S):
        r = instance(workload, dirs, seconds / MIN_INSTANCES, selftest,
                     selftest == "kill" and not runs)
        runs.append(r)
        clean += sum(x <= STEAL_MAX for x in r["window_steal"])
        if r["failed"]:
            break  # the run has failed; more instances would not help

    # Leave out the windows the hypervisor stole from, keeping MIN_CLEAN.
    steal = [v for r in runs for v in r["window_steal"]]
    floor = sorted(steal)[min(len(steal), MIN_CLEAN) - 1]
    keep = [x <= max(STEAL_MAX, floor) for x in steal]

    def window_mean(key):
        vals = (v for r in runs for v in r["window_" + key])
        return iq_mean([v for v, k in zip(vals, keep) if k])

    # Set-up of the instances that gave at least half their windows.
    at, full = 0, []
    for r in runs:
        n = len(r["window_steal"])
        if 2 * sum(keep[at:at + n]) >= n:
            full.append(r)
        at += n

    out = {"setup_s": statistics.median(r["setup_s"] for r in full or runs),
           "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
           "qps": window_mean("qps"),
           "p50_us": window_mean("p50_us"), "p99_us": window_mean("p99_us"),
           "instances_run": len(runs),
           "windows": len(keep), "windows_kept": sum(keep),
           "tail_samples_per_window": statistics.median(
               n / 100 for n, k in zip((n for r in runs
                                        for n in r["window_reads"]), keep)
               if k),
           "deep_pct": statistics.median(r["deep_pct"] for r in runs),
           "deep_us": statistics.median(r["deep_us"] for r in runs),
           "steal_mean": statistics.mean(steal),
           "client_cpu_us_per_batch": statistics.median(
               r["client_cpu_us_per_batch"] for r in runs),
           "simd": runs[0]["simd"],
           "first_error": next((r["first_error"] for r in runs
                                if r["first_error"]), "")}
    out["instances"] = [{k: v for k, v in r.items()
                         if k.startswith("window_") or k == "setup_s"}
                        for r in runs]
    for k in ("samples", "attempted", "failed", "wrong", "shed", "timeouts",
              "errors"):
        out[k] = int(sum(r[k] for r in runs))
    if workload.endswith("_rw"):
        out.update({"write_ops_s": window_mean("write_ops_s"),
                    "write_p50_us": window_mean("write_p50_us"),
                    "write_p99_us": window_mean("write_p99_us"),
                    "write_samples": int(sum(r["write_samples"]
                                             for r in runs)),
                    "fsync": "every-ack" if workload == "wire_rw"
                             else "no WAL"})
    return out


def ladder(workload, dirs, seed, secs):
    tmp = KIDS.tempdir(f"trace-{workload}-")
    try:
        hot, hot_pf = start_hot(tmp, dirs["hot"])
        fleet, router_pf = start_fleet(tmp, dirs["hot"])
        rw, rw_pf = start_rw(tmp, dirs["hot"])
        spans_dir = os.path.join(WORK, "traces")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{workload}-s{seed}.spans.jsonl")
        r = run_pb([
            "ladder", "--workload", workload, "--seconds", secs,
            "--own", dirs["big" if workload == "inproc_big" else "hot"],
            "--hot", dirs["hot"],
            "--hot-port", wait_port_file(hot_pf, hot), "--hot-pid", hot.pid,
            "--router-port", wait_port_file(router_pf, fleet[0]),
            "--router-pid", fleet[0].pid,
            "--rw-port", wait_port_file(rw_pf, rw), "--spans-out", spans])
        r["spans_file"] = os.path.relpath(spans, ROOT)
        return r
    finally:
        for p in list(KIDS.procs):
            KIDS.stop(p)
        KIDS.remove(tmp)


# ---- environment and output ----------------------------------------------------

def environment(dirs_info):
    env = {"host": platform.node(), "nproc": os.cpu_count(),
           "loadavg_1m": os.getloadavg()[0], "cpu_model": ""}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        env["commit"] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        env["commit"] = None
    if not env["commit"]:
        # A checkout without git: name the source by its content.
        h = hashlib.sha256()
        for top in ("src", "tools"):
            for dp, dn, fn in sorted(os.walk(os.path.join(ROOT, top))):
                dn.sort()
                for n in sorted(fn):
                    with open(os.path.join(dp, n), "rb") as f:
                        h.update(n.encode() + f.read())
        env["commit"] = "src-sha256:" + h.hexdigest()[:16]
    env["build_type"] = None
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                env["build_type"] = line.split("=", 1)[1].strip()
    env["snapshot_digests"] = {k: v["snapshot_digest"]
                               for k, v in dirs_info.items()}
    env["input_digests"] = {k: v["digest"] for k, v in dirs_info.items()}
    return env


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result-file")
    ap.add_argument("--selftest", choices=("corrupt", "kill"))
    a = ap.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "tools", "coopserve.cpp"))):
        log("no program source beside perfbench/ (src/, tools/): "
            "run from the root of a full checkout")
        return 2
    if a.selftest == "kill" and a.workload.startswith("inproc"):
        log("--selftest kill needs a server workload")
        return 2
    spec = load_spec()
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        return run(a, spec)
    except Interrupted as e:
        log(f"interrupted ({e}); children stopped, temp dirs removed")
        return 130
    except (RuntimeError, OSError, ValueError) as e:
        log(f"error: {e}")
        return 1
    finally:
        KIDS.cleanup()


def run(a, spec):
    start_load = os.getloadavg()[0]
    build()
    seed = a.seed
    kinds = ["hot"] + (["big"] if a.workload == "inproc_big" else [])
    dirs, info = {}, {}
    for k in kinds:
        dirs[k], info[k] = prep(k, seed)
    env = environment(info)
    env["loadavg_1m"] = start_load
    result = {"workload": a.workload, "seed": seed, "seconds": a.seconds,
              "trace": a.trace, "env": env}

    if a.trace:
        r = ladder(a.workload, dirs, seed, a.seconds)
        env["simd"] = r["simd"]
        env["cpu_steal_share"] = r["steal"]
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        got = r["metrics"]
        missing = [n for n, _ in names if n not in got]
        if missing:
            raise RuntimeError(f"ladder did not report {missing}")
        metrics = {n: {"value": got[n], "unit": u} for n, u in names}
        attempted, failed = r["attempted"], r["failed"]
        wrong = r["wrong"]
        result["spans_file"] = r["spans_file"]
        result["info"] = {k: v for k, v in got.items()
                          if k not in dict(names)}
        first_error = r["first_error"]
    else:
        r = end_to_end(a.workload, dirs, a.seconds, a.selftest)
        env["simd"] = r["simd"]
        env["cpu_steal_share"] = r["steal_mean"]
        metrics = {m["name"]: {"value": r[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        attempted, failed, wrong = r["attempted"], r["failed"], r["wrong"]
        info = {k: r[k] for k in (
            "instances_run", "windows", "windows_kept", "samples",
            "tail_samples_per_window", "deep_pct", "deep_us", "shed",
            "timeouts", "errors", "client_cpu_us_per_batch")}
        info["error_rate"] = failed / max(1, attempted)
        if a.workload.endswith("_rw"):
            info.update({k: r[k] for k in (
                "write_ops_s", "write_p50_us", "write_p99_us",
                "write_samples", "fsync")})
        result["info"] = info
        result["instances"] = r["instances"]
        first_error = r["first_error"]

    result.update({"attempted": attempted, "failed": failed, "wrong": wrong,
                   "metrics": metrics})
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    for name, v in result["info"].items():
        val = f"{v:.6g}" if isinstance(v, (int, float)) else v
        print(f"  info {name:31s} {val}")
    if a.trace:
        print(f"  info spans_file                      {result['spans_file']}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    if first_error:
        log(f"first failure: {first_error}")
    res_file = a.result_file or os.path.join(
        WORK, "results", f"{a.workload}-s{seed}-t{a.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(res_file)), exist_ok=True)
    with open(res_file, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
