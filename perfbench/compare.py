#!/usr/bin/env python3
"""Repeat a benchmark workload and judge the spread, or compare two builds.

    python3 perfbench/compare.py --workload NAME --runs N [--seconds T]
        [--seed S] [--checkout DIR] [--checkout DIR] [--keep DIR]

With one checkout (default: this one) it runs the workload N times, seed
S, S+1, ..., and prints each metric's median, quartiles and spread (the
interquartile range as a share of the median, from
statistics.quantiles(n=4)) against the metric's bound in BENCHMARK.json.

With two checkouts, the first is the parent and the second the change.
Both must hold identical benchmark files (perfbench/ and BENCHMARK.json).
It runs N alternating pairs on the same seed per pair, the parent first
in even pairs and second in odd ones, and for every metric reports:

  gain          at least 10 pairs, the change wins >= 9/10 of them (ties
                count for neither) and the medians differ by more than the
                parent's own interquartile range;
  unresolved    either side's spread is wider than the bound, unless every
                change run beats every parent run;
  regression    the change's median is worse than the parent's by more
                than the metric's bound;
  no regression otherwise.

Results whose host, CPU model, core count or SIMD path differ are never
paired.  A run that reports a failure or a wrong answer is a failure of
the comparison, whatever its figures.  Besides BENCHMARK.json's
end-to-end metrics it compares the write figures of inproc_rw and
wire_rw, with the bound INFO_BOUND.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
INFO = {"write_ops_s": "higher", "write_p50_us": "lower",
        "write_p99_us": "lower"}
INFO_BOUND = 0.25
PAIRING_KEYS = ("host", "cpu_model", "nproc", "simd")


def bench_digest(root):
    h = hashlib.sha256()
    with open(os.path.join(root, "BENCHMARK.json"), "rb") as f:
        h.update(f.read())
    for dp, dn, fn in sorted(os.walk(os.path.join(root, "perfbench"))):
        dn[:] = sorted(d for d in dn if not d.startswith("."))
        for n in sorted(fn):
            if n.endswith(".pyc"):
                continue
            with open(os.path.join(dp, n), "rb") as f:
                h.update(os.path.relpath(os.path.join(dp, n), root).encode())
                h.update(f.read())
    return h.hexdigest()


def run_once(root, workload, seed, seconds, out_dir, tag):
    res = os.path.join(out_dir, f"{tag}-{workload}-s{seed}.json")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--result-file", res]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if not os.path.exists(res):
        raise SystemExit(f"{tag}: run failed (exit {p.returncode}), "
                         "no result")
    with open(res) as f:
        r = json.load(f)
    r["exit"] = p.returncode
    print(f"  {tag} seed {seed}: " + ", ".join(
        f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()) +
        f", failed={r['failed']}, "
        f"steal={r['env'].get('cpu_steal_share', 0):.3f}", flush=True)
    return r


def metric_table(spec, workload):
    table = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    if workload.endswith("_rw"):
        table.update({k: (d, INFO_BOUND) for k, d in INFO.items()})
    return table


def values(results, name):
    out = []
    for r in results:
        if name in r["metrics"]:
            out.append(r["metrics"][name]["value"])
        else:
            out.append(r["info"][name])
    return out


def spread(v):
    q1, q2, q3 = statistics.quantiles(v, n=4)
    med = statistics.median(v)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def better(direction, a, b):
    """True when b is better than a."""
    return b > a if direction == "higher" else b < a


def check_failures(results, tag):
    bad = [r for r in results if r["failed"] or r["wrong"] or r["exit"]]
    for r in bad:
        print(f"FAIL {tag} seed {r['seed']}: failed={r['failed']} "
              f"wrong={r['wrong']} exit={r['exit']}")
    return not bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--checkout", action="append", default=[])
    ap.add_argument("--keep", help="directory for the per-run result files")
    a = ap.parse_args()
    roots = [os.path.abspath(c) for c in a.checkout] or [os.path.dirname(HERE)]
    if len(roots) > 2:
        raise SystemExit("at most two checkouts")
    if len(roots) == 2 and bench_digest(roots[0]) != bench_digest(roots[1]):
        raise SystemExit("the checkouts hold different benchmark files; "
                         "measure both with identical benchmark code")
    with open(os.path.join(roots[0], "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    table = metric_table(spec, a.workload)
    work = os.path.join(roots[-1], ".bench_build")
    os.makedirs(work, exist_ok=True)
    out_dir = a.keep or tempfile.mkdtemp(prefix="compare-", dir=work)
    os.makedirs(out_dir, exist_ok=True)

    if len(roots) == 1:
        runs = [run_once(roots[0], a.workload, a.seed + i, seconds, out_dir,
                         "run") for i in range(a.runs)]
        ok = check_failures(runs, "run")
        print(f"\n{a.workload}: {len(runs)} runs, {seconds:g} s each")
        print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, (_, bound) in table.items():
            med, q1, q3, sp = spread(values(runs, name))
            verdict = "ok" if sp <= bound else "wider than bound"
            print(f"{name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{sp:8.3f} {bound:6.2f}  {verdict}")
        return 0 if ok else 1

    parent, change = [], []
    for i in range(a.runs):
        seed = a.seed + i
        order = [(roots[0], parent, "parent"), (roots[1], change, "change")]
        if i % 2 == 1:
            order.reverse()
        for root, bucket, tag in order:
            bucket.append(run_once(root, a.workload, seed, seconds, out_dir,
                                   tag))
        for key in PAIRING_KEYS:
            seen = {r["env"].get(key) for r in parent + change}
            if len(seen) > 1:
                raise SystemExit(f"refusing to pair: {key} differs {seen}")
    ok = check_failures(parent, "parent") & check_failures(change, "change")
    n = len(parent)
    print(f"\n{a.workload}: {n} alternating pairs, {seconds:g} s each")
    print(f"{'metric':16s} {'parent med [q1,q3]':>30s} "
          f"{'change med [q1,q3]':>30s} {'wins':>6s}  verdict")
    for name, (direction, bound) in table.items():
        pv, cv = values(parent, name), values(change, name)
        pm, pq1, pq3, psp = spread(pv)
        cm, cq1, cq3, csp = spread(cv)
        wins = sum(better(direction, p, c) for p, c in zip(pv, cv))
        worse_by = (pm - cm if direction == "higher" else cm - pm) / pm
        all_better = all(better(direction, p, c) for p in pv for c in cv)
        if n >= 10 and wins >= 0.9 * n and abs(cm - pm) > (pq3 - pq1) \
                and better(direction, pm, cm):
            verdict = "gain"
        elif max(psp, csp) > bound and not all_better:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "regression"
        else:
            verdict = "no regression"
        print(f"{name:16s} {pm:12.6g} [{pq1:.4g},{pq3:.4g}] "
              f"{cm:12.6g} [{cq1:.4g},{cq3:.4g}] {wins:3d}/{n}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
