#!/usr/bin/env python3
"""Repeat benchmark runs and report their spread against BENCHMARK.json.

    # every workload once, each metric printed with its unit
    python3 perfbench/noise.py runs --label once --seeds 1
    # ten seeds per workload, kept under a label
    python3 perfbench/noise.py runs --label A --seeds 1-10
    # the same code again, then compare the two sets of medians
    python3 perfbench/noise.py runs --label B --seeds 1-10
    python3 perfbench/noise.py compare A B
    # two traced runs on one seed: counts and digest must repeat exactly
    python3 perfbench/noise.py trace-repeat --seed 1

Runs are made one at a time with the command of BENCHMARK.json, from
the root of the checkout.  Results go to perfbench/out/noise-<label>.json.
The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles, n=4) over their median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["result_digest"] = json.loads(lines[-2])["result_digest"]
    return result


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def cmd_runs(args) -> int:
    path = OUT / f"noise-{args.label}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for w in WORKLOADS:
        for seed in seeds_of(args.seeds):
            r = run_once(w, seed, 0)
            data.setdefault(w, {})[str(seed)] = r
            vals = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in sorted(r["metrics"].items()))
            print(f"{w} seed={seed} correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} {vals}", flush=True)
            OUT.mkdir(exist_ok=True)
            path.write_text(json.dumps(data, indent=1, sort_keys=True))
    report(data)
    return 0


def report(data) -> None:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    print(f"{'workload':14} {'metric':12} {'median':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for w, runs in data.items():
        if len(runs) < 2:
            continue
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs.values()]
            s = spread(vals)
            print(f"{w:14} {name:12} {statistics.median(vals):12.4f} {s:8.4f} {bound:6.2f} {s / bound:12.2f}")


def cmd_compare(args) -> int:
    a = json.loads((OUT / f"noise-{args.first}.json").read_text())
    b = json.loads((OUT / f"noise-{args.second}.json").read_text())
    worse = 0
    for m in SPEC["end_to_end"]:
        for w in a:
            if w not in b:
                continue
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a[w].values())
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b[w].values())
            change = (mb - ma) / ma if ma else 0.0
            loss = change if m["better"] == "lower" else -change
            flag = "WORSE" if loss > m["bound"] else "ok"
            worse += flag == "WORSE"
            print(f"{w:14} {m['name']:12} {ma:12.4f} {mb:12.4f} {change:+8.4f} bound {m['bound']:.2f} {flag}")
    for w in a:
        same = all(a[w][s]["result_digest"] == b[w][s]["result_digest"] for s in a[w] if s in b.get(w, {}))
        print(f"{w:14} result digests per seed identical: {same}")
    return 1 if worse else 0


def cmd_trace_repeat(args) -> int:
    ok = True
    for w in WORKLOADS:
        first, second = run_once(w, args.seed, 1), run_once(w, args.seed, 1)
        counts = [k for k, v in first["metrics"].items() if v["unit"] in ("count", "bit")]
        differ = [k for k in counts if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        same_digest = first["result_digest"] == second["result_digest"]
        ok &= not differ and same_digest
        print(f"{w:14} counts compared {len(counts)}, differing {differ}, digest identical {same_digest}, "
              f"overhead {first['metrics']['trace.overhead_ratio']['value']:.2f} / "
              f"{second['metrics']['trace.overhead_ratio']['value']:.2f}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--label", required=True)
    r.add_argument("--seeds", default="1-10")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    t = sub.add_parser("trace-repeat")
    t.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    return {"runs": cmd_runs, "compare": cmd_compare, "trace-repeat": cmd_trace_repeat}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
