"""Abelian ideals of the Borel subalgebra of sp(2n) and the cohomology of its
nilradical, with exhaustive exact verification of the correspondence between
the two."""

from .errors import ConsistencyError, InvalidRankError, RankCapError
from .roots import Root, RootSet, SignedRoot, dotted_sum, positive_roots, precedes, split
from .weyl import (
    Perm,
    SignedPerm,
    StandardForm,
    act_on_root,
    enumerate_group,
    inversion_set,
    perm_from_inversions,
    perm_inversions,
    recompose,
    standard_form,
)
from .ideals import (
    IncreasingSet,
    dimension_histogram,
    enumerate_increasing,
    is_abelian_ideal_combinatorial,
    is_increasing,
)
from .correspondence import (
    CorrespondencePair,
    cocycle_support,
    correspondence_pair,
    from_pair,
    ideal_component,
    ideal_component_closed_form,
    sym_component,
    sym_component_closed_form,
    trace_element,
    verify_bijection,
)
from .liealg import (
    IntMatrix,
    StructureTable,
    bracket,
    is_abelian_ideal_lie,
    root_vector,
    structure_table,
)
from .ce import (
    ChainComplex,
    betti_numbers,
    verify_cohomology_basis,
)
from .poincare import (
    IntPolynomial,
    ideal_generating,
    sym_poincare,
    verify_identities,
    weyl_length_histogram,
    weyl_poincare,
)
from .report import CheckRecord, VerificationReport

__version__ = "0.1.0"
