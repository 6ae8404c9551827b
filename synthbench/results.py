#!/usr/bin/env python3
"""Collect, summarize and compare runs of the synthesis benchmark.

Run from the root of the repository:

  python3 synthbench/results.py collect --workload cegis --seeds 1-10 --out a.jsonl
  python3 synthbench/results.py spread a.jsonl
  python3 synthbench/results.py compare parent.jsonl change.jsonl
  python3 synthbench/results.py baseline e2e.jsonl traced.jsonl --out synthbench/baseline.json

`collect` runs the command named in BENCHMARK.json once per seed and
appends one JSON line per run (stamp plus result). `spread` prints, per
workload and end-to-end metric, the median, the quartiles and their distance
as a share of the median next to the metric's bound. `compare` prints one row
per workload and end-to-end metric with both sides' medians and quartiles and
a verdict, following the rules of choosing-metrics sections 6.5 and 8:

  unresolved    a side's quartile spread is wider than the bound, and not
                every run of the change beats every run of the parent
  worse         the change's median is worse than the parent's by more than
                the bound
  within bound  otherwise
  better        within bound, and the change also wins at least nine tenths
                of the seed-paired runs by more than the parent's own
                quartile spread (a gain may be claimed)
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    failures = 0
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace),
                ]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    failures += 1
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                          file=sys.stderr)
                    continue
                result = json.loads(lines[-1])
                stamp = next((json.loads(l)["stamp"] for l in lines if l.startswith('{"stamp"')), None)
                row = {"workload": workload, "seed": seed, "trace": args.trace,
                       "stamp": stamp, "result": result}
                out.write(json.dumps(row) + "\n")
                out.flush()
                status = "ok" if result["correct"] else f"FAILED {result['failed']}"
                print(f"{workload} seed {seed}: {status}", file=sys.stderr)
                if not result["correct"]:
                    failures += 1
    return 1 if failures else 0


def load_runs(path, trace=0):
    """Metric values per (workload, metric), with the seed of each value."""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if row["trace"] != trace:
                continue
            for name, m in row["result"]["metrics"].items():
                runs[(row["workload"], name)].append((row["seed"], m["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def end_to_end(spec):
    return {m["name"]: m for m in spec["end_to_end"]}


def spread(args):
    spec = load_spec()
    metrics = end_to_end(spec)
    runs = load_runs(args.file)
    print(f"{'workload':<10} {'metric':<16} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  status")
    unsteady = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, m in metrics.items():
            values = [v for _, v in runs.get((workload, name), [])]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            s = rel_spread(values)
            if name == "setup_s":
                status = "not checked"
            elif s <= m["bound"] / 3:
                status = "steady"
            elif s <= m["bound"]:
                status = "within bound"
            else:
                status = "UNSTEADY"
                unsteady += 1
            print(f"{workload:<10} {name:<16} {len(values):>3} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {s:>7.3f} {m['bound']:>6}  {status}")
    return 1 if unsteady else 0


def verdict(base, new, bound, lower_is_better):
    """Compares two lists of (seed, value) for one metric and workload."""
    bv = [v for _, v in base]
    nv = [v for _, v in new]
    _, bmed, _ = quartiles(bv)
    _, nmed, _ = quartiles(nv)
    sign = 1 if lower_is_better else -1
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    all_better = all(sign * (n - b) < 0 for n in nv for b in bv)
    if max(rel_spread(bv), rel_spread(nv)) > bound:
        return worse_by, ("better" if all_better else "unresolved")
    if worse_by > bound:
        return worse_by, "worse"
    paired = dict(base)
    pairs = [(paired[s], v) for s, v in new if s in paired]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    bq1, _, bq3 = quartiles(bv)
    if pairs and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > (bq3 - bq1) and worse_by < 0:
        return worse_by, "better"
    return worse_by, "within bound"


def compare(args):
    spec = load_spec()
    metrics = end_to_end(spec)
    base = load_runs(args.base)
    new = load_runs(args.new)
    print(f"{'workload':<10} {'metric':<16} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'worse_by':>9} {'bound':>6}  verdict")
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, m in metrics.items():
            b = base.get((workload, name))
            n = new.get((workload, name))
            if not b or not n:
                continue
            worse_by, v = verdict(b, n, m["bound"], m["better"] == "lower")
            bq1, bmed, bq3 = quartiles([x for _, x in b])
            nq1, nmed, nq3 = quartiles([x for _, x in n])
            print(f"{workload:<10} {name:<16} {bmed:>12.6g} [{bq1:>9.6g}, {bq3:>9.6g}] "
                  f"{nmed:>12.6g} [{nq1:>9.6g}, {nq3:>9.6g}] {worse_by:>+9.3f} {m['bound']:>6}  {v}")
            if v in ("worse", "unresolved"):
                bad += 1
    return 1 if bad else 0


def baseline(args):
    spec = load_spec()
    e2e = load_runs(args.untraced, trace=0)
    traced = load_runs(args.traced, trace=1)
    stamps = {}
    for path in (args.untraced, args.traced):
        with open(path) as f:
            for line in f:
                row = json.loads(line)
                stamp = row["stamp"] or {}
                key = (stamp.get("git_rev"), stamp.get("rustc"), stamp.get("profile"),
                       stamp.get("nproc"), stamp.get("seconds"))
                stamps.setdefault(key, set()).add(row["seed"])
    out = {"stamps": [
        {"git_rev": k[0], "rustc": k[1], "profile": k[2], "nproc": k[3], "seconds": k[4],
         "seeds": sorted(v)} for k, v in stamps.items()],
        "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        entry = {"end_to_end": {}, "per_layer": {}}
        for name in end_to_end(spec):
            values = [v for _, v in e2e.get((workload, name), [])]
            if values:
                q1, med, q3 = quartiles(values)
                entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "runs": len(values)}
        for m in spec["per_layer"]:
            values = [v for _, v in traced.get((workload, m["name"]), [])]
            if values:
                entry["per_layer"][m["name"]] = statistics.median(values)
        out["workloads"][workload] = entry
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark once per seed")
    c.add_argument("--workload", action="append", help="repeatable; default: every workload")
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    c.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    c.add_argument("--trace", type=int, default=0, choices=(0, 1))
    c.add_argument("--out", required=True)
    s = sub.add_parser("spread", help="quartile spread of each end-to-end metric")
    s.add_argument("file")
    k = sub.add_parser("compare", help="parent against change, one row per workload and metric")
    k.add_argument("base")
    k.add_argument("new")
    b = sub.add_parser("baseline", help="write the recorded baseline")
    b.add_argument("untraced")
    b.add_argument("traced")
    b.add_argument("--out", required=True)
    args = p.parse_args()
    return {"collect": collect, "spread": spread, "compare": compare, "baseline": baseline}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
