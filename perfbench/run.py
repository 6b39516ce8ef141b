#!/usr/bin/env python3
"""comm-lab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lamp_mix --seed 1 --seconds 10 --trace 0

Workloads: lamp_mix, lamp_large, rational_mix (closed loop, one client,
in this process) and cli_corpus (one ``comm-lab`` child process per call,
one at a time).  The program is run from ``src/`` of this checkout.

--trace 0 measures the end-to-end metrics with nothing wrapped.
--trace 1 runs the op list once plain and once under the outside-in
tracer (tracer.py) and reports the per-layer metrics.

Every output is checked by an exact identity after the timed phase.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the
environment and a SHA-256 digest of the canonical outputs.  A full
record of the run goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("lamp_mix", "lamp_large", "rational_mix", "cli_corpus")
SETUP_PROBES = 3
# Warm-up runs the first op of each of these kinds: the same cheap set on
# every seed, so no slow op of a size sweep ever lands in set-up.
WARMUP_KINDS = {
    "lamp_mix": ("compose", "invert", "apply", "domain", "from_partial", "quotient_dim"),
    "lamp_large": ("apply_1e3", "power_1e2", "module_1e3", "domain_large", "compose_high"),
    "rational_mix": ("unitri_log", "unitri_exp", "unitri_root", "unitri_mul", "unitri_inv",
                     "solve_inner", "desc_mul", "desc_inv", "bs_domain", "bs_conj", "torus_rank"),
}
MIN_OPS = {"cli_corpus": 100}  # ops a run must time, at least; 1000 for the others
# Wall time of one pass over the op list on the reference host (2-vCPU
# x86_64 VM, CPython 3.11).  The timed phase makes round(seconds / PASS_S)
# passes: a count fixed by the workload and --seconds, never by the speed
# of the code under test, so best_slices picks from the same number of
# passes on every commit.
PASS_S = {"lamp_mix": 3.0, "lamp_large": 3.8, "rational_mix": 3.3, "cli_corpus": 10.0}
SLICES = 16  # slices of the op list for best_slices
# A shared host runs the same code up to a fifth slower in phases of
# seconds to minutes (on the reference host the fastest time of the
# small-int loop below sat near 195 us for a minute, then near 233 us for
# the next), and its two vCPUs slow down at different times.  So the run
# stays on one CPU, and times a fixed calibration loop at both ends of
# every slice of every pass and around every set-up probe.  Each slice's
# times are scaled by the loop's reference time over its fastest time at
# the slice's two ends, and the set-up time likewise around the probes:
# each time reads as it would on the reference host in its fast phase.
# The loop is the benchmark's own code and resembles the work it scales,
# since a slow phase moves small-int code, big-int code and fresh
# processes by different amounts: big-int shifts and xors for lamp_large,
# whose time goes to multi-thousand-bit masks; the start of a bare
# interpreter for cli_corpus and for every set-up probe, whose time goes
# to new processes; a small-int loop for the rest.  The unscaled times go
# to the run's record.
SPAWN_CAL_SAMPLES = 3  # bare interpreter starts around each set-up probe
SWEEP_REPS = 5
IMPORT_PROBES = 5
SPAN_BUDGET = 1_000_000  # spans kept in memory by a traced pass (26 bytes each)


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU: the one
    the calibration loop measures.  The two vCPUs of the reference host
    slow down at different times, so a child on the other CPU would not
    be timed at the speed the loop saw."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every call compiles from source; nothing is written
    return env


# ---------------------------------------------------------------------------
# set-up: generate inputs, parse them through the program, warm up


def setup(workload: str, seed: int):
    """Returns (timed ops, ops for the traced run, cli corpus or None)."""
    if workload == "lamp_mix":
        import lampgen
        ops = lampgen.build_mix(seed)
    elif workload == "lamp_large":
        import lampgen
        ops = lampgen.build_large(seed)
    elif workload == "rational_mix":
        import ratgen
        ops = ratgen.build(seed)
    else:
        import corpus
        entries = corpus.build_corpus(seed)
        corpus.run_inproc(entries[0].argv)  # warm-up: the first call's imports and caches
        return corpus.child_ops(entries, child_env(), ROOT), corpus.inproc_ops(entries), entries
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    run_pass([first[kind] for kind in WARMUP_KINDS[workload]])
    return ops, ops, None


def slice_bounds(n_ops: int) -> list:
    return [round(j * n_ops / SLICES) for j in range(SLICES + 1)]


def run_pass(ops, tracer=None, cal=None):
    """One closed-loop pass: each op starts when the previous one ends.
    Returns the op latencies, the outputs and, given a calibration
    (loop, samples), the loop's fastest time at each of the SLICES + 1
    slice boundaries (timed between two ops, outside every latency).
    Under a tracer the pass stops at the first op boundary past
    SPAN_BUDGET spans, so the traced prefix is fixed by the seed."""
    clock = time.perf_counter
    lat, speed = array("d"), array("d")
    at = set(slice_bounds(len(ops))) if cal else ()
    outs = []
    for i, op in enumerate(ops):
        if tracer is not None:
            if len(tracer.start) >= SPAN_BUDGET:
                break
            tracer.op_id = i
        if i in at:
            speed.append(fastest(*cal))
        s = clock()
        try:
            out = op.fn(*op.args)
        except Exception as exc:  # kept as the op's output; the checks decide
            out = exc
        lat.append(clock() - s)
        outs.append(out)
    if cal:
        speed.append(fastest(*cal))
    return lat, outs, speed


def verify(ops, outs) -> list:
    """Per-op problem text, or None where every exact check held."""
    problems = []
    for op, out in zip(ops, outs):
        try:
            verdict = op.check(out)
        except Exception as exc:
            verdict = f"check raised {type(exc).__name__}: {exc}"
        if verdict is True:
            problems.append(None)
        elif isinstance(out, BaseException):
            problems.append(f"{op.kind}: raised {type(out).__name__}: {out}")
        else:
            problems.append(f"{op.kind}: {verdict}")
    return problems


def best_slices(passes, n_ops: int, keep: int, ref_s: float):
    """The op list as it ran in the quietest windows of the run.

    ``passes`` holds (latencies, calibration times) of each pass.  A
    slice's time in a pass is the sum of its op latencies, scaled by ref_s
    over the calibration loop's fastest time at the slice's two ends.  On a
    shared host the CPU speed can drop by a third from one second to the
    next, and that noise only ever slows ops down, so for each of the
    SLICES fixed slices the ``keep`` passes with the lowest scaled time are
    kept.  Returns the number of ops kept (every op of the list ``keep``
    times), their scaled and unscaled summed time, and their scaled and
    unscaled latencies."""
    bounds = slice_bounds(n_ops)
    time_s, raw_s, lat, raw_lat = 0.0, 0.0, array("d"), array("d")
    for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
        timed = []
        for pass_lat, speed in passes:
            t = sum(pass_lat[a:b])
            timed.append((t * ref_s / min(speed[j], speed[j + 1]), t, pass_lat[a:b]))
        for scaled, t, slice_lat in sorted(timed, key=lambda x: x[0])[:keep]:
            time_s += scaled
            raw_s += t
            lat.extend(x * scaled / t for x in slice_lat)
            raw_lat.extend(slice_lat)
    return keep * n_ops, time_s, raw_s, lat, raw_lat


def _small_ints() -> None:
    acc = 0
    for i in range(3000):
        acc += i * i % 7


_BIG_A, _BIG_B = (1 << 300) // 7, (1 << 20000) // 3  # 100 set bits times 20000 bits


def _big_ints() -> None:
    from common import clmul
    clmul(_BIG_A, _BIG_B)


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True)


SPAWN_REF_S = 50e-3
# workload -> (calibration loop, timings at each slice boundary, the
# loop's fastest time on the reference host)
CALIBRATION = {
    "lamp_mix": (_small_ints, 10, 200e-6),
    "lamp_large": (_big_ints, 10, 90e-6),
    "rational_mix": (_small_ints, 10, 200e-6),
    "cli_corpus": (_spawn, 2, SPAWN_REF_S),
}


def fastest(loop, samples: int) -> float:
    """The fastest of ``samples`` timings of a calibration loop."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(samples):
        t0 = clock()
        loop()
        best = min(best, clock() - t0)
    return best


def setup_probe_seconds(args) -> tuple:
    """Wall time from spawn to 'ready' of fresh processes that do the whole
    set-up: interpreter start, imports, inputs parsed, warm-up; and the
    same scaled by SPAWN_REF_S over the fastest bare interpreter start at
    the probe's two ends."""
    cal = fastest(_spawn, SPAWN_CAL_SAMPLES)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "READY" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
        cal_after = fastest(_spawn, SPAWN_CAL_SAMPLES)
        scaled.append(elapsed * SPAWN_REF_S / min(cal, cal_after))
        cal = cal_after
    return times, scaled


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args, res: dict) -> dict:
    from common import percentiles, result_digest, same

    ops, _, entries = setup(args.workload, args.seed)
    # each slice keeps as many of its fastest passes as it takes to time min_ops ops
    keep = -(-MIN_OPS.get(args.workload, 1000) // len(ops))
    loop, samples, ref_s = CALIBRATION[args.workload]
    walls, passes, first, later = [], [], None, []
    for _ in range(max(keep, round(args.seconds / PASS_S[args.workload]))):
        lat, outs, speed = run_pass(ops, cal=(loop, samples))
        walls.append(sum(lat))
        passes.append((lat, speed))
        if first is None:
            first = outs
        else:  # outputs of a repeat pass must equal the first pass's
            later.append([i for i, (a, b) in enumerate(zip(first, outs)) if not same(a, b)])
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_corpus" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024

    problems = verify(ops, first)
    bad = {i for i, p in enumerate(problems) if p is not None}
    failed = len(bad)
    for changed in later:
        failed += len(bad.union(changed))
        problems += [f"{ops[i].kind}: output changed on a repeat pass" for i in changed]
    record_failures(res, ops, problems, entries, unexpected=sum(map(len, later)))
    attempted = len(ops) * len(walls)
    res["attempted"], res["failed"] = attempted, failed
    res["result_digest"] = result_digest(first)
    res["pass_walls_s"] = walls
    res["kind_p50_ms"] = _kind_p50(ops, [lat for lat, _ in passes])
    res["slice_cal_s"] = [min(speed) for _, speed in passes]

    setup_times, setup_scaled = setup_probe_seconds(args)
    res["setup_probe_s"] = setup_times
    kept, time_s, raw_s, lat, raw_lat = best_slices(passes, len(ops), keep, ref_s)
    q, raw_q = percentiles(lat), percentiles(raw_lat)
    res["raw"] = {"setup_s": median(setup_times), "ops_per_s": kept / raw_s,
                  **{f"op_p{c}_ms": raw_q[c] * 1e3 for c in (50, 90, 99)}}
    return {
        "setup_s": (median(setup_scaled), "s"),
        "ops_per_s": (kept / time_s, "1/s"),
        "op_p50_ms": (q[50] * 1e3, "ms"),
        "op_p90_ms": (q[90] * 1e3, "ms"),
        "op_p99_ms": (q[99] * 1e3, "ms"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced(args, res: dict) -> dict:
    from common import percentiles, result_digest
    from tracer import LAYERS, Tracer

    _, ops, entries = setup(args.workload, args.seed)
    lat_plain, outs_plain, _ = run_pass(ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops = [op._replace(fn=tracer.resolve(op.fn)) for op in ops]
        lat_traced, outs_traced, _ = run_pass(traced_ops, tracer)
    finally:
        tracer.uninstall()
    n_traced = len(outs_traced)

    problems = verify(ops, outs_plain)
    failed = sum(p is not None for p in problems) + sum(p is not None for p in problems[:n_traced])
    differs = result_digest(outs_traced) != result_digest(outs_plain[:n_traced])
    if differs:
        failed += 1
        problems.append("traced pass gave other outputs than the plain pass")
    record_failures(res, ops, problems, entries, unexpected=int(differs))
    res["attempted"], res["failed"] = len(ops) + n_traced, failed
    res["result_digest"] = result_digest(outs_plain)
    res["traced_ops"] = n_traced

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"spans-{args.workload}-s{args.seed}"
    tracer.write(stem)
    res["spans"] = {"count": len(tracer.start), "files": [f"{stem.name}.json", f"{stem.name}.bin"]}

    summary = tracer.layer_summary()
    calls = tracer.name_calls()
    counts = tracer.counts
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (summary["calls"][layer], "count")
        m[f"{layer}.self_s"] = (summary["self_s"][layer], "s")
        m[f"{layer}.errors"] = (counts[f"{layer}.errors"], "count")
    m.update({
        "polymat.bitmat_mul_calls": (calls["polymat.BitMat.__mul__"], "count"),
        "polymat.entry_calls": (calls["polymat.PolyMat.entry"], "count"),
        "lamplighter.commute_tests": (counts["lamplighter.commute_tests"], "count"),
        "lamplighter.commute_hits": (counts["lamplighter.commute_hits"], "count"),
        "lamplighter.partial_apply_calls": (counts["lamplighter.partial_apply_calls"], "count"),
        "lamplighter.qdim_rank_rows": (counts["lamplighter.qdim_rank_rows"], "count"),
        "f2poly.mask_mul_calls": (calls["f2poly.mask_mul"], "count"),
        "f2poly.mask_mul_bits": (counts["f2poly.mask_mul_bits"], "bit"),
        "f2poly.geometric_terms": (counts["f2poly.geometric_terms"], "count"),
        "hnf.row_echelon_calls": (calls["hnf.row_echelon"], "count"),
        "matrices.elim_calls": (counts["matrices.elim_calls"], "count"),
        "matrices.mul_scalar_ops": (counts["matrices.mul_scalar_ops"], "count"),
        "unipotent.lie_check_calls": (calls["unipotent.lie_aut_check"], "count"),
        "unipotent.lie_check_cached": (counts["unipotent.lie_check_cached"], "count"),
    })

    import corpus
    import lampgen
    if entries is None:
        entries = corpus.build_corpus(args.seed)
        inproc_lat, _, _ = run_pass(corpus.inproc_ops(entries))
    else:
        inproc_lat = lat_plain
    m["cli.import_ms"] = (median(_import_ms() for _ in range(IMPORT_PROBES)), "ms")
    m["cli.inproc_p50_ms"] = (percentiles(inproc_lat)[50] * 1e3, "ms")
    for name, (fn, fargs) in lampgen.sweep_cases(args.seed).items():
        reps = []
        for _ in range(SWEEP_REPS):
            t0 = time.perf_counter()
            fn(*fargs)
            reps.append(time.perf_counter() - t0)
        m[name] = (median(reps) * 1e3, "ms")
    m["trace.overhead_ratio"] = (sum(lat_traced) / sum(lat_plain[:n_traced]), "ratio")
    return m


def _import_ms() -> float:
    """Cumulative import time of commlab.cli in a fresh interpreter (-X importtime)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import commlab.cli"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "commlab.cli":
            return int(parts[1]) / 1e3
    raise RuntimeError("no import time reported for commlab.cli")


def _kind_p50(ops, lats) -> dict:
    per = {}
    for lat in lats:
        for op, t in zip(ops, lat):
            per.setdefault(op.kind, []).append(t)
    return {k: round(median(v) * 1e3, 4) for k, v in sorted(per.items())}


def record_failures(res: dict, ops, problems, entries, unexpected: int) -> None:
    """The run is correct when every failing op is one of the corpus's
    known contract gaps (ROADMAP item 5), failing exactly the way it is
    known to fail today, and nothing else went wrong."""
    known = {f"{e.label}: {text}" for e in entries for text in e.today} if entries else set()
    res["failures"] = sorted({p for p in problems if p is not None})
    res["expected_gaps"] = sorted(known)
    res["correct"] = unexpected == 0 and all(p is None or p in known for p in problems)


# ---------------------------------------------------------------------------


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "commlab" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'commlab'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("READY", flush=True)
        return 0

    pin_to_one_cpu()
    res = {"env": environment(args)}
    metrics = traced(args, res) if args.trace else end_to_end(args, res)
    res["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)

    print(json.dumps({"env": res["env"]}, sort_keys=True))
    print(json.dumps({"result_digest": res["result_digest"], "failures": res["failures"],
                      "unscaled": res.get("raw")}, sort_keys=True))
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": res["metrics"],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
