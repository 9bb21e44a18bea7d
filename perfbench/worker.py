"""One benchmark process: set-up, timed operations, then checks.

Reads a JSON spec on stdin and prints one JSON result line.  Started by
run.py as a fresh process for every pass (sweep, enumerate) or every
operation (large), so the program's caches start empty each time.  Set-up
is timed from just after numpy's import: it covers the import of circulant
and the input generation.  numpy's own import is left out because no
change to this repository moves it, and, being bound by file reads, it
moved set-up by a third between two sets of runs of the same commit.
In a traced process, the replays that isolate one layer run after the
timed loop: made inside each operation, they shortened the rest of a
sweep pass by about 8%, so the timed loop no longer showed the cost of
tracing alone.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import sys
import time

import numpy as np

T0 = time.perf_counter()

import checks  # noqa: E402
import circulant  # noqa: E402
from circulant import (  # noqa: E402
    Example12Params,
    PermGroup,
    SRing,
    aut_group,
    brute_force_srings,
    enumerate_srings,
    example12,
    is_schurian,
    nonschurity_criterion,
    proj_classes,
    radical,
    rank2,
    resolve,
    two_orbits,
    validate,
)

BRUTE_FORCE_MAX_N = 13  # the largest n brute_force_srings accepts


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def translation(n: int) -> tuple[int, ...]:
    return tuple((x + 1) % n for x in range(n))


class Tracer:
    """Spans kept in memory: name, start, end, enclosing span, operation.
    A disabled tracer records nothing; its spans yield a throwaway dict."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int | None, replay: bool = False):
        if not self.enabled:
            yield {}
            return
        rec = {"name": name, "op": op, "replay": replay,
               "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


# --- sweep: one catalog ring per operation -----------------------------------

def sweep_op(ring, i: int, tr: Tracer):
    if tr.enabled:
        # aut_group first, so that is_schurian's own call is a cache hit
        before = peak_mb()
        with tr.span("scheme.aut_group", i) as s:
            aut = aut_group(ring)
        s["generators"] = len(aut.generators)
        s["rise_mb"] = peak_mb() - before
    with tr.span("scheme.is_schurian", i):
        schurian = is_schurian(ring)
    with tr.span("structure.proj_classes", i):
        classes = proj_classes(ring)
    res = None
    if schurian and any(c.singular for c in classes):
        with tr.span("structure.resolve", i):
            res = resolve(ring)
    return schurian, classes, res


def sweep_replays(catalogs: dict, rings: list, tr: Tracer) -> None:
    if not tr.enabled:
        return
    for cat in catalogs.values():
        validate_replay(cat, None, tr)
    for i, ring in enumerate(rings):
        gens = aut_group(ring).generators
        with tr.span("perm.chain", i, replay=True):
            PermGroup(ring.n, gens).order()
        with tr.span("perm.two_orbits", i, replay=True):
            two_orbits(PermGroup(ring.n, gens))


def sweep_record(ring, out) -> dict:
    schurian, classes, res = out
    return {"n": ring.n, "cells": ring.cells, "schurian": schurian,
            "aut_order": str(aut_group(ring).order()),
            "singular": [c.order for c in classes if c.singular],
            "resolve": None if res is None else [res.group.generators, res.verified]}


def sweep_problems(ring, out) -> list[str]:
    schurian, _, res = out
    n, cells = ring.n, ring.cells
    aut = aut_group(ring)
    problems = checks.generator_problems(n, cells, aut.generators)
    if not aut.contains(translation(n)):
        problems.append("Aut does not contain x -> x+1")
    labels = checks.pair_orbits(n, aut.generators)
    if schurian != (checks.stabilizer0_cells(labels) == checks.canonical(cells)):
        problems.append("verdict disagrees with the orbits of the stabilizer of 0")
    if not schurian and checks.omega(n) <= 3:
        problems.append("non-schurian with at most three prime factors")
    if not schurian and radical(ring) == 1:
        problems.append("non-schurian with trivial radical")
    if res is not None:
        if res.verified is not True:
            problems.append("resolve not verified 2-equivalent")
        if not np.array_equal(checks.pair_orbits(n, res.group.generators), labels):
            problems.append("resolve group not 2-equivalent to Aut")
    return problems


def run_sweep(spec, tr):
    catalogs = {}
    for n in spec["moduli"]:
        with tr.span("catalog.enumerate", None) as s:
            catalogs[n] = enumerate_srings(n)
        s["rings"] = len(catalogs[n])
    rings = [ring for n in spec["moduli"] for ring in catalogs[n]]
    random.Random(spec["order_seed"]).shuffle(rings)
    setup_s = time.perf_counter() - T0
    if spec.get("setup_only"):
        return setup_s, [], 0.0, peak_mb(), [], []
    outs, lat = [], []
    start = time.perf_counter()
    for i, ring in enumerate(rings):
        t = time.perf_counter()
        outs.append(sweep_op(ring, i, tr))
        lat.append(time.perf_counter() - t)
    timed_s = time.perf_counter() - start
    peak = peak_mb()
    sweep_replays(catalogs, rings, tr)
    records = [sweep_record(r, o) for r, o in zip(rings, outs)]
    problems = [sweep_problems(r, o) if spec["check"] else [] for r, o in zip(rings, outs)]
    return setup_s, lat, timed_s, peak, records, problems


def validate_replay(catalog, op: int | None, tr: Tracer) -> None:
    for ring in catalog:
        with tr.span("sring.validate", op, replay=True):
            validate(catalog.n, ring.cells)


# --- enumerate: the closure step at n, one modulus per operation ---------------

def run_enumerate(spec, tr):
    for n in spec["prebuild"]:
        enumerate_srings(n)
    setup_s = time.perf_counter() - T0
    if spec.get("setup_only"):
        return setup_s, [], 0.0, peak_mb(), [], []
    catalogs, lat = [], []
    start = time.perf_counter()
    for i, n in enumerate(spec["moduli"]):
        t = time.perf_counter()
        with tr.span("catalog.enumerate", i) as s:
            catalogs.append(enumerate_srings(n))
        s["rings"] = len(catalogs[-1])
        lat.append(time.perf_counter() - t)
    timed_s = time.perf_counter() - start
    peak = peak_mb()
    if tr.enabled:
        for i, cat in enumerate(catalogs):
            validate_replay(cat, i, tr)
    records = [[cat.n, [r.cells for r in cat]] for cat in catalogs]
    problems = [[] for _ in catalogs]
    if spec["check"]:
        problems = [catalog_problems(cat.n) for cat in catalogs]
        # the divisors built in set-up are catalogs too; a fault there
        # shows in every operation that was built on it
        pre = [p for m in spec["prebuild"] for p in catalog_problems(m)]
        problems = [p + pre for p in problems]
    return setup_s, lat, timed_s, peak, records, problems


def catalog_problems(n: int) -> list[str]:
    cat = enumerate_srings(n)
    brute = None
    if n <= BRUTE_FORCE_MAX_N:
        brute = [r.cells for r in brute_force_srings(n)]
    return [f"n={n}: {p}" for p in
            checks.catalog_problems(n, [r.cells for r in cat], brute)]


# --- large: one large-n query per process --------------------------------------

def run_large(spec, tr):
    op = spec["op"]
    kind = op["kind"]
    if kind == "example12" or kind == "nonschurity":
        return run_example12(op, tr, replay=kind == "nonschurity")
    n = op["n"]
    if kind == "cyc":
        # cyclotomic(n, (-1,)) checks every structure constant, which at
        # these n costs several times the query itself; build the same
        # ring from its basic sets {x, -x} instead
        ring = SRing(n, checks.canonical({frozenset({x, -x % n}) for x in range(n)}))
    else:
        ring = rank2(n)
    setup_s = time.perf_counter() - T0
    before = peak_mb()
    t = time.perf_counter()
    with tr.span("scheme.aut_group", 0) as s:
        group = aut_group(ring)
    lat = time.perf_counter() - t
    peak = peak_mb()
    s["generators"] = len(group.generators)
    s["rise_mb"] = peak - before
    order = group.order()
    problems = []
    if spec["check"]:
        if kind == "cyc":
            expected = 2 * n
        else:
            expected = math.factorial(n)
            if checks.canonical(ring.cells) != ((0,), tuple(range(1, n))):
                problems.append("rank2(n) is not {0}, Z_n - {0}")
        cells = ring.cells
        if order != expected:
            problems.append(f"|Aut| = {order}, expected {expected}")
        problems += checks.generator_problems(n, cells, group.generators)
        if not group.contains(translation(n)):
            problems.append("Aut does not contain x -> x+1")
    return setup_s, [lat], lat, peak, [[kind, n, str(order)]], [problems]


def run_example12(op, tr, replay: bool):
    from circulant import cli
    setup_s = time.perf_counter() - T0
    equal = "--equal" in op["argv"]
    if replay:
        # `example12 --equal` maps both isomorphisms to the least image of
        # order d, which is the first image of the default distinct pair
        params = Example12Params()
        if equal:
            e = example12(params).m1_generator % params.p4
            params = Example12Params(phi_choice=(e, e))
        result = example12(params)
        with tr.span("scheme.nonschurity", 0, replay=True):
            report = nonschurity_criterion(result.ring, result.certificate_section)
        problems = [] if report.holds != equal else ["certificate verdict is wrong"]
        return setup_s, [], 0.0, peak_mb(), [report.holds], [problems]
    buf = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        with tr.span("cli.example12", 0):
            code = cli.main(op["argv"])
    lat = time.perf_counter() - t
    peak = peak_mb()
    text = buf.getvalue()
    problems = []
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        out = {}
    if code != 0 or not out:
        problems.append(f"exit code {code}, output not JSON")
    elif out["subgroup_lattice"] != checks.EXAMPLE12_LATTICE or out["n"] != 3575:
        problems.append("wrong A-subgroup lattice")
    elif out["nonschurian_certificate"] == equal or out["distinct"] == equal:
        problems.append("certificate verdict is wrong")
    record = hashlib.sha256(text.encode()).hexdigest()
    return setup_s, [lat], lat, peak, [record], [problems]


RUNNERS = {"sweep": run_sweep, "enumerate": run_enumerate, "large": run_large}


def main() -> int:
    spec = json.load(sys.stdin)
    tr = Tracer(spec["trace"])
    setup_s, lat, timed_s, peak, records, problems = RUNNERS[spec["workload"]](spec, tr)
    print(json.dumps({
        "setup_s": setup_s,
        "latencies_s": lat,
        "timed_s": timed_s,
        "peak_mb": peak,
        "digests": [digest(r) for r in records],
        "keys": [json.dumps(spec["op"], sort_keys=True)] if "op" in spec
                else [str(i) for i in range(len(records))],
        "problems": problems,
        "spans": tr.spans,
        "circulant_file": circulant.__file__,
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
