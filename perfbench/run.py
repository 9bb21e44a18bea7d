#!/usr/bin/env python3
"""Benchmark of the circulant library: three workloads, whole passes.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its src/.
The inputs of a run are generated here from --seed and handed to fresh
worker processes (worker.py), one at a time: one per pass for sweep and
enumerate, one per operation for large.  A run makes whole passes over the
same list of operations; --seconds sets how many (see PASSES).  The last
line of stdout is the result JSON; the line before it is the run record.
With --trace 1 a run makes an untraced, a traced and another untraced
pass, prints the per-layer metrics and writes the spans under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170

# nominal seconds of timed work in one pass, the least number of passes,
# the percentile reported as op_tail_ms (the highest with at least ten of
# the list's operations beyond it), and how many set-up-only processes are
# added so that setup_s is a median of at least three set-ups
PASSES = {
    "sweep": {"pass_s": 25.0, "min": 1, "tail_pct": 98, "extra_setups": 2},
    "enumerate": {"pass_s": 14.0, "min": 2, "tail_pct": 75, "extra_setups": 1},
    "large": {"pass_s": 18.0, "min": 1, "tail_pct": 75, "extra_setups": 0},
}

SWEEP_MODULI = (30, 36, 40, 45)
ENUMERATE_MODULI = tuple(range(23, 63))
LARGE_FIXED = [{"kind": "cyc", "n": 2000}, {"kind": "rank2", "n": 300},
               {"kind": "example12", "argv": ["example12"]},
               {"kind": "example12", "argv": ["example12", "--equal"]}]

PER_LAYER = [
    ("catalog.enumerate_s", "s"), ("catalog.enumerate_calls", "count"),
    ("catalog.rings", "count"),
    ("sring.validate_s", "s"), ("sring.validate_calls", "count"),
    ("scheme.aut_group_s", "s"), ("scheme.aut_group_calls", "count"),
    ("scheme.aut_generators", "count"), ("scheme.aut_group_peak_mb", "MB"),
    ("scheme.is_schurian_s", "s"), ("scheme.nonschurity_s", "s"),
    ("perm.chain_s", "s"), ("perm.chain_calls", "count"),
    ("perm.two_orbits_s", "s"),
    ("structure.proj_classes_s", "s"),
    ("structure.resolve_s", "s"), ("structure.resolve_calls", "count"),
    ("cli.example12_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
]


# --- inputs ---------------------------------------------------------------------

def sweep_specs(rng: random.Random, passes: int) -> list[dict]:
    """Every ring of every catalog over SWEEP_MODULI, as the acceptance
    sweep visits them, in an order shuffled by the seed.  A sample would
    make the median depend on the seed: the cost of one ring rises from
    11 ms to 30 ms between the 40th and 60th percentile of these rings."""
    spec = {"workload": "sweep", "moduli": list(SWEEP_MODULI),
            "order_seed": rng.randrange(2 ** 32)}
    return [dict(spec, check=p == 0) for p in range(passes)]


def enumerate_prebuild() -> list[int]:
    """Divisors of the listed moduli that are not listed, built in set-up
    in increasing order so each operation is the closure step at n alone."""
    listed = set(ENUMERATE_MODULI)
    need = {d for n in listed for d in range(2, n) if n % d == 0} - listed
    return sorted(need)


def enumerate_specs(rng: random.Random, passes: int) -> list[dict]:
    """The closure step depends on n alone, so the list is fixed; the seed
    has nothing to choose."""
    spec = {"workload": "enumerate", "moduli": list(ENUMERATE_MODULI),
            "prebuild": enumerate_prebuild()}
    return [dict(spec, check=p == 0) for p in range(passes)]


def large_ops(rng: random.Random) -> list[dict]:
    """Forty queries: the four fixed ones twice, so that repeated CLI calls
    can be compared byte for byte, and thirty-two seeded ones, aut_group of
    Cyc({±1}, n) for n in sixteen strata of width 16 from 1000 and of
    rank2(n) for n in sixteen strata of width 4 from 100.  The seed moves n
    inside its stratum by at most 1, so that the cost of the list hardly
    depends on it."""
    cyc = [{"kind": "cyc", "n": 1000 + 16 * k + rng.randrange(2)} for k in range(16)]
    rk2 = [{"kind": "rank2", "n": 100 + 4 * k + rng.randrange(2)} for k in range(16)]
    return (LARGE_FIXED + cyc[0::2] + rk2[0::2]) + (LARGE_FIXED + cyc[1::2] + rk2[1::2])


# --- running workers ------------------------------------------------------------

def run_worker(spec: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(spec),
                          capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    src = (ROOT / "src").resolve()
    if not Path(res["circulant_file"]).resolve().is_relative_to(src):
        raise RuntimeError(f"worker imported circulant from {res['circulant_file']}")
    return res


def run_passes(workload: str, rng: random.Random, passes: int,
               traced: int | None) -> list[list[dict]]:
    """Each pass as a list of worker results, in order; pass number
    `traced` is traced, and with no traced pass set-up-only workers are
    added."""
    if workload == "large":
        ops = large_ops(rng)
        out = []
        for p in range(passes):
            results = [run_worker({"workload": "large", "op": op, "check": True,
                                   "trace": p == traced}) for op in ops]
            if p == traced:
                for argv in (["example12"], ["example12", "--equal"]):
                    replay = {"kind": "nonschurity", "argv": argv}
                    results.append(dict(run_worker({"workload": "large", "op": replay,
                                                    "check": True, "trace": True}),
                                        replay_only=True))
            out.append(results)
        return out
    specs = (sweep_specs if workload == "sweep" else enumerate_specs)(rng, passes)
    out = [[run_worker(dict(s, trace=i == traced))] for i, s in enumerate(specs)]
    if traced is None:
        for _ in range(PASSES[workload]["extra_setups"]):
            out.append([run_worker(dict(specs[0], setup_only=True, trace=False))])
    return out


# --- metrics --------------------------------------------------------------------

def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def timed_passes(passes: list[list[dict]]) -> list[list[dict]]:
    """The passes without set-up-only and replay workers."""
    timed = [[r for r in p if not r.get("replay_only") and r["latencies_s"]] for p in passes]
    return [p for p in timed if p]


def verdicts(passes: list[list[dict]]) -> tuple[int, int, bool, str]:
    """attempted, failed, correct and the result digest.  An execution
    fails when a check fails or when its output differs from that of an
    earlier execution of the same input: the first pass of sweep and
    enumerate is checked and later passes must reproduce it exactly."""
    timed = timed_passes(passes)
    first = [d for r in timed[0] for d in r["digests"]]
    seen: dict[str, str] = {}
    attempted = failed = 0
    correct = True
    for results in timed:
        keys = [k for r in results for k in r["keys"]]
        digests = [d for r in results for d in r["digests"]]
        problems = [q for r in results for q in r["problems"]]
        for k, d, q in zip(keys, digests, problems):
            attempted += 1
            if q or seen.setdefault(k, d) != d:
                failed += 1
                correct = False
                print(f"op {k} failed: {q or 'output differs for the same input'}",
                      file=sys.stderr)
    for results in passes:
        for r in results:
            if r.get("replay_only") and any(r["problems"]):
                correct = False
                print(f"replay failed: {r['problems']}", file=sys.stderr)
    digest = hashlib.sha256("".join(first).encode()).hexdigest()[:16]
    return attempted, failed, correct, digest


def end_to_end(workload: str, passes: list[list[dict]]) -> dict:
    """An operation's latency is the mean of its executions, one per pass;
    the median and the tail are taken over the operations of the list."""
    results = [r for p in passes for r in p]
    timed = timed_passes(passes)
    per_pass = [[x for r in p for x in r["latencies_s"]] for p in timed]
    lat = [statistics.mean(xs) for xs in zip(*per_pass)]
    timed_s = sum(r["timed_s"] for p in timed for r in p)
    return {
        "ops_per_s": (sum(map(len, per_pass)) / timed_s, "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * nearest_rank(lat, PASSES[workload]["tail_pct"]), "ms"),
        "peak_rss_mb": (max(r["peak_mb"] for p in timed for r in p), "MB"),
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
    }


def per_layer(passes: list[list[dict]]) -> tuple[dict, list[dict], list[float]]:
    """Per-layer sums over the traced pass (the middle one), its spans, and
    the traced pass's timed time minus that of each untraced pass.  Replays
    run after the timed loop or in workers of their own, so they are not in
    the timed time.  The overhead is the traced time minus the mean of the
    two untraced passes around it, so a drift of the host's speed that is
    linear over the three passes cancels."""
    before, traced, after = passes
    spans = []
    for w, r in enumerate(traced):
        spans += [dict(s, worker=w) for s in r["spans"]]
    m = {name: 0.0 for name, _ in PER_LAYER}
    for s in spans:
        layer = s["name"]
        m[layer + "_s"] = m.get(layer + "_s", 0.0) + s["end"] - s["start"]
        m[layer + "_calls"] = m.get(layer + "_calls", 0) + 1
        m["catalog.rings"] += s.get("rings", 0)
        m["scheme.aut_generators"] += s.get("generators", 0)
        m["scheme.aut_group_peak_mb"] = max(m["scheme.aut_group_peak_mb"], s.get("rise_mb", 0))
    plain = [sum(r["timed_s"] for r in p if r["latencies_s"]) for p in (before, after)]
    with_trace = sum(r["timed_s"] for r in traced if r["latencies_s"])
    m["trace.overhead_s"] = with_trace - statistics.mean(plain)
    m["trace.overhead_pct"] = 100 * m["trace.overhead_s"] / statistics.mean(plain)
    pairs = [with_trace - x for x in plain]
    return {name: (m[name], unit) for name, unit in PER_LAYER}, spans, pairs


# --- run record -----------------------------------------------------------------

def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "circulant").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "circulant" / "__init__.py").is_file():
        print(f"no circulant sources under {ROOT / 'src'}: run from a checkout",
              file=sys.stderr)
        return 2
    plan = PASSES[args.workload]
    passes = max(plan["min"], round(args.seconds / plan["pass_s"]))
    rng = random.Random(f"{args.workload}:{args.seed}")
    trace = bool(args.trace)
    try:
        results = run_passes(args.workload, rng, 3 if trace else passes,
                             1 if trace else None)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted, failed, correct, digest = verdicts(results)
    if trace:
        metrics, spans, pairs = per_layer(results)
    else:
        metrics, spans, pairs = end_to_end(args.workload, results), [], None

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(results) if trace else passes,
        "git_sha": git_sha(), "source_digest": source_digest(),
        "python": platform.python_version(), "numpy": results[0][0]["numpy"],
        "nproc": os.cpu_count(), "result_digest": digest,
    }
    if trace:
        record["overhead_vs_each_untraced_s"] = pairs
    (OUT / f"run-{stem}.json").write_text(json.dumps(dict(
        record, latencies_s=[r["latencies_s"] for p in results for r in p]), indent=1))
    if trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(spans))
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
