"""Command-line front-end with JSON input/output.

Exit codes: 0 success, 1 domain errors (usage errors among them), 2 budget
errors.  Group orders are serialized as decimal strings since they
routinely exceed 64 bits.  Output is deterministic: keys are sorted and no
timestamps are emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .errors import BudgetError, DomainError
from .catalog import (
    ENUMERATE_MAX_N,
    Example12Params,
    enumerate_srings,
    example12,
    schurity_sweep,
)
from .scheme import (
    DEFAULT_AUT_MAX_N,
    DEFAULT_NODE_BUDGET,
    aut_group,
    is_normal,
    is_schurian,
    nonschurity_criterion,
    stabilizer0_orbits,
)
from .sring import (
    SRing,
    classify,
    cyclotomic,
    generalized_wreath,
    group_ring,
    radical,
    rank2,
    subgroup_lattice,
    tensor,
)
from .structure import proj_classes, resolve
from .zn import Section, big_omega


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_ring(args) -> SRing:
    if args.infile:
        try:
            with open(args.infile) as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read {args.infile}: {exc.strerror}") from exc
        return SRing.from_json(text, args.n)
    if args.ring:
        return SRing.from_json(args.ring, args.n)
    raise DomainError("no ring given: use --ring JSON or --in FILE")


def _ints(flag: str, text: str, count: int | None = None) -> list[int]:
    """The comma-separated integers of a flag's value, exactly count (1 or
    2) of them if given (--ns, --phi and the construct flags)."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        need = {None: "comma-separated integers", 1: "an integer",
                2: "a comma-separated pair of integers"}[count]
        raise DomainError(f"{flag} takes {need}, got {text!r}")
    return values


def _ring_dict(ring: SRing) -> dict:
    return {"n": ring.n, "basic_sets": [list(c) for c in ring.cells]}


def cmd_validate(args) -> dict:
    ring = _load_ring(args)
    return {"valid": True, "ring": _ring_dict(ring), "rank": ring.rank}


def cmd_construct(args) -> dict:
    needs = {"tensor": ("left", "right"), "gwp": ("left", "right", "u", "l")}
    missing = [f"--{flag}" for flag in needs.get(args.kind, ()) if getattr(args, flag) is None]
    if missing:
        raise DomainError(f"construct --kind {args.kind} needs {', '.join(missing)}")
    if args.kind == "cyclotomic":
        gens = tuple(_ints("--gens", g, 1)[0] for g in args.gens or ())
        ring = cyclotomic(args.n, gens)
    elif args.kind == "rank2":
        ring = rank2(args.n)
    elif args.kind == "full":
        ring = group_ring(args.n)
    elif args.kind == "tensor":
        ring = tensor(SRing.from_json(args.left), SRing.from_json(args.right))
    elif args.kind == "gwp":
        [u], [l] = _ints("--u", args.u, 1), _ints("--l", args.l, 1)
        ring = generalized_wreath(SRing.from_json(args.left), SRing.from_json(args.right),
                                  Section(args.n, u, l))
    else:
        raise DomainError(f"unknown construction kind {args.kind!r}")
    return {"ring": _ring_dict(ring), "rank": ring.rank}


def cmd_analyze(args) -> dict:
    ring = _load_ring(args)
    flags = classify(ring)
    classes = proj_classes(ring)
    return {
        "n": ring.n,
        "rank": ring.rank,
        "omega": big_omega(ring.n),
        "radical_order": radical(ring),
        "subgroup_lattice": list(subgroup_lattice(ring)),
        "dense": flags.dense,
        "primitive": flags.primitive,
        "trivial_radical": flags.trivial_radical,
        "gwp_sections": [list(s) for s in flags.proper_gwp_sections],
        "proj_classes": [
            {
                "order": cl.order,
                "s_min": [cl.s_min.u, cl.s_min.l],
                "s_max": [cl.s_max.u, cl.s_max.l],
                "rank": cl.rank,
                "primitive": cl.primitive,
                "isolated": cl.isolated,
                "singular": cl.singular,
            }
            for cl in classes
        ],
        "singular_classes": sum(cl.singular for cl in classes),
    }


def cmd_aut(args) -> dict:
    ring = _load_ring(args)
    group = aut_group(ring, max_n=args.max_n, node_budget=args.max_nodes)
    return {
        "n": ring.n,
        "aut_order": str(group.order()),
        "normal": is_normal(ring, max_n=args.max_n, node_budget=args.max_nodes),
        "generators": [list(g) for g in group.generators],
    }


def cmd_schurity(args) -> dict:
    ring = _load_ring(args)
    group = aut_group(ring, max_n=args.max_n, node_budget=args.max_nodes)
    orbits = stabilizer0_orbits(ring, max_n=args.max_n, node_budget=args.max_nodes)
    return {
        "n": ring.n,
        "schurian": is_schurian(ring, max_n=args.max_n, node_budget=args.max_nodes),
        "aut_order": str(group.order()),
        "stabilizer_orbits": [list(o) for o in orbits],
    }


def cmd_nonschurity(args) -> dict:
    ring = _load_ring(args)
    report = nonschurity_criterion(
        ring, Section(ring.n, args.u, args.l),
        max_n=args.max_n, node_budget=args.max_nodes)
    return {
        "n": ring.n,
        "section": [args.u, args.l],
        "nonschurian_certificate": report.holds,
        "intersection_order": str(report.intersection_order),
        "section_aut_order": str(report.section_aut_order),
        "induced_orders": [str(x) for x in report.induced_orders],
    }


def cmd_enumerate(args) -> dict | None:
    catalog = enumerate_srings(args.n, limit=args.max_enum_n)
    lines = [
        json.dumps({"n": catalog.n, "basic_sets": [list(c) for c in ring.cells],
                    "provenance": prov}, sort_keys=True)
        for ring, prov in zip(catalog.entries, catalog.provenance)
    ]
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return None


def _sweep_one(payload):
    n, max_n, node_budget = payload
    report = schurity_sweep([n], max_n=max_n, node_budget=node_budget)[0]
    return {
        "n": report.n,
        "total": report.total,
        "schurian": report.schurian,
        "nonschurian": [
            {"basic_sets": [list(c) for c in e.ring.cells],
             "trivial_radical": e.trivial_radical,
             "gwp_sections": [list(s) for s in e.gwp_sections]}
            for e in report.nonschurian_entries
        ],
        "structural_checks": list(report.structural_checks),
    }


def cmd_sweep(args) -> dict:
    ns = _ints("--ns", args.ns)
    if args.jobs < 1:
        raise DomainError(f"--jobs must be a positive integer, got {args.jobs}")
    payloads = [(n, args.max_n, args.max_nodes) for n in ns]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_sweep_one, payloads))
    else:
        reports = [_sweep_one(p) for p in payloads]
    return {"reports": reports}


def cmd_resolve(args) -> dict:
    ring = _load_ring(args)
    result = resolve(ring, max_n=args.max_n, node_budget=args.max_nodes)
    return {
        "n": ring.n,
        "order": str(result.group.order()),
        "two_equivalent_to_aut": result.verified,
        "generators": [list(g) for g in result.group.generators],
    }


def cmd_example12(args) -> dict:
    phi = None if args.phi is None else tuple(_ints("--phi", args.phi, 2))
    params = Example12Params(p=args.p, p3=args.p3, p4=args.p4, d=args.d,
                             phi_choice=phi)
    if args.equal:
        params = params.negative_control()
    result = example12(params)
    sec = result.certificate_section
    report = nonschurity_criterion(result.ring, sec,
                                   max_n=args.max_n, node_budget=args.max_nodes)
    return {
        "n": result.ring.n,
        "rank": result.ring.rank,
        "distinct": result.m1_generator != result.m2_generator,
        "m_generators": [result.m_generator, result.m1_generator, result.m2_generator],
        "subgroup_lattice": list(subgroup_lattice(result.ring)),
        "certificate_section": [sec.u, sec.l],
        "nonschurian_certificate": report.holds,
        "ring": _ring_dict(result.ring),
    }


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise DomainError, so they exit
    with 1 and JSON like any other bad input, not with argparse's 2, the
    budget code.  Subparsers are made of the same class."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circulant",
        description="S-rings over cyclic groups: construction, schurity, enumeration")
    sub = parser.add_subparsers(dest="verb", required=True)

    def ring_io(p):
        p.add_argument("--n", type=int, default=None, help="modulus")
        p.add_argument("--ring", help="inline ring JSON")
        p.add_argument("--in", dest="infile", help="path to ring JSON")
        p.add_argument("--out", help="output path (default stdout)")

    def budgets(p):
        p.add_argument("--max-n", type=int, default=DEFAULT_AUT_MAX_N,
                       help="automorphism search bound on n")
        p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_BUDGET,
                       help="automorphism search node budget")

    p = sub.add_parser("validate", help="check the S-ring axioms")
    ring_io(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("construct", help="build a ring")
    p.add_argument("--kind", required=True,
                   choices=["cyclotomic", "rank2", "full", "tensor", "gwp"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", nargs="*", help="unit generators (cyclotomic)")
    p.add_argument("--left", help="left factor ring JSON (tensor/gwp)")
    p.add_argument("--right", help="right factor ring JSON (tensor/gwp)")
    p.add_argument("--u", help="order of U (gwp)")
    p.add_argument("--l", help="order of L (gwp)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="rank, lattice, radical, classes")
    ring_io(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("aut", help="automorphism group of the Cayley scheme")
    ring_io(p)
    budgets(p)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("schurity", help="decide schurity")
    ring_io(p)
    budgets(p)
    p.set_defaults(func=cmd_schurity)

    p = sub.add_parser("nonschurity", help="one-sided section criterion")
    ring_io(p)
    budgets(p)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=cmd_nonschurity)

    p = sub.add_parser("enumerate", help="catalog of all S-rings over Z_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-enum-n", type=int, default=ENUMERATE_MAX_N)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sweep", help="schurity sweep over several moduli")
    p.add_argument("--ns", required=True, help="comma-separated moduli")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    budgets(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("resolve", help="2-equivalent subgroup via singularity resolution")
    ring_io(p)
    budgets(p)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("example12", help="the four-prime non-schurian family")
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--p3", type=int, default=11)
    p.add_argument("--p4", type=int, default=13)
    p.add_argument("--d", type=int, default=4)
    # the negative control chooses its own pair of images
    choice = p.add_mutually_exclusive_group()
    choice.add_argument("--phi", help="comma-separated pair of order-d images mod p4")
    choice.add_argument("--equal", action="store_true",
                        help="negative control with equal isomorphisms")
    p.add_argument("--out")
    budgets(p)
    p.set_defaults(func=cmd_example12)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload = args.func(args)
    except DomainError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(json.dumps({"budget_error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2
    if payload is not None:
        _emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
