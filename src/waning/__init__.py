"""Waning-function calculus for topologies on the partial-bijection monoid.

The package computes with the countable family of separable semigroup
topologies on the monoid of partial bijections of the naturals: each is
labelled by a waning function, neighbourhoods have exact finite membership
tests, and every constructive refinement produces a checkable witness.  A
bounded-universe harness verifies the defining containments exhaustively.
"""

from .descriptors import (
    Dual,
    DomMiss,
    FixBelow,
    ImMiss,
    Intersection,
    PointHit,
    SetDescriptor,
    UBasic,
    Wany,
    WNbhd,
    basis_refinement,
    continuity_p,
    cover_witness,
    cross_family_witness,
    member,
    much_wan_witness,
    order_counterexample,
    tfprime_refinement,
    valid_r_min,
)
from .errors import (
    BadBase,
    BoundTooLarge,
    DomainError,
    InvalidDescriptor,
    InvalidPoset,
    InvalidR,
    NoWitness,
    NotMember,
    OmegaEntries,
    PreconditionError,
    UnknownSuite,
    WaningError,
)
from .functions import (
    CONST_OMEGA,
    CONST_ZERO,
    ExtNat,
    GenFn,
    OMEGA,
    SIZE_LIMIT,
    WaningFn,
    closure,
    count_with_first_value_below,
    descending_chain_element,
    enumerate_below,
    is_omega,
    is_waning,
    join,
    meet,
    preceq,
    staircase,
)
from .harness import (
    CheckReport,
    all_posets,
    enumerate_universe,
    equality_check,
    product_containment_check,
    run_suite,
    subset_check,
    suite_names,
    universe_size,
    waning_sample,
)
from .pbij import EMPTY, PBij, collapse
from .topology import (
    Comparison,
    FinitePoset,
    PolishTopology,
    compare,
    embed_poset,
    hasse_dot,
    join_topology,
)

__all__ = [name for name in dir() if not name.startswith("_")]
