#!/usr/bin/env python3
"""Reproduce the minimal non-schurian four-prime family over Z_3575.

Builds the ring for (p, p3, p4, d) = (5, 11, 13, 4), prints its subgroup
lattice, runs the section non-schurity certificate, and repeats with the
two isomorphisms chosen equal as a negative control.
"""

import argparse
import json

from circulant import nonschurity_criterion, subgroup_lattice
from circulant.catalog import Example12Params, example12


def run(params: Example12Params) -> dict:
    result = example12(params)
    report = nonschurity_criterion(result.ring, result.certificate_section)
    return {
        "n": result.ring.n,
        "rank": result.ring.rank,
        "distinct": result.m1_generator != result.m2_generator,
        "multiplier_generators": [result.m_generator, result.m1_generator,
                                  result.m2_generator],
        "subgroup_lattice": list(subgroup_lattice(result.ring)),
        "certificate_section": [result.certificate_section.u,
                                result.certificate_section.l],
        "nonschurian_certificate": report.holds,
        "intersection_order": str(report.intersection_order),
        "section_aut_order": str(report.section_aut_order),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--p3", type=int, default=11)
    parser.add_argument("--p4", type=int, default=13)
    parser.add_argument("--d", type=int, default=4)
    args = parser.parse_args()

    params = Example12Params(p=args.p, p3=args.p3, p4=args.p4, d=args.d)
    print(json.dumps({"family": run(params)}, indent=2, sort_keys=True))

    print(json.dumps({"negative_control": run(params.negative_control())},
                     indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
