"""Schur rings over cyclic groups: construction, schurity testing,
enumeration, and singularity resolution."""

from .errors import BudgetError, DomainError
from .zn import (
    Section,
    big_omega,
    divisors,
    is_multiple,
    is_prime,
    unit_orbits,
)
from .sring import (
    Classification,
    SRing,
    classify,
    cyclotomic,
    generalized_wreath,
    group_ring,
    radical,
    radical_of_set,
    rank2,
    section_ring,
    subgroup_lattice,
    tensor,
    validate,
    wreath,
)
from .perm import (
    PermGroup,
    holomorph,
    induced_on_section,
    intersect,
    kernel_on_blocks,
    symmetric,
    translations,
    two_equivalent,
    two_orbits,
)
from .scheme import (
    aut_group,
    is_normal,
    is_schurian,
    nonschurity_criterion,
    stabilizer0_orbits,
)
from .structure import (
    GwrSpec,
    ProjClass,
    canonical_gwp,
    ext,
    gwr_group,
    proj_classes,
    resolve,
    singular_classes,
)
from .catalog import (
    Catalog,
    Example12Params,
    brute_force_srings,
    enumerate_srings,
    example12,
    schurity_sweep,
)

__all__ = [
    "BudgetError", "DomainError",
    "Section", "big_omega", "divisors", "is_multiple", "is_prime",
    "unit_orbits",
    "Classification", "SRing", "classify", "cyclotomic", "generalized_wreath",
    "group_ring", "radical", "radical_of_set", "rank2",
    "section_ring", "subgroup_lattice", "tensor", "validate", "wreath",
    "PermGroup", "holomorph", "induced_on_section", "intersect",
    "kernel_on_blocks", "symmetric", "translations",
    "two_equivalent", "two_orbits",
    "aut_group", "is_normal", "is_schurian",
    "nonschurity_criterion", "stabilizer0_orbits",
    "GwrSpec", "ProjClass", "canonical_gwp", "ext", "gwr_group",
    "proj_classes", "resolve", "singular_classes",
    "Catalog", "Example12Params", "brute_force_srings", "enumerate_srings",
    "example12", "schurity_sweep",
]
