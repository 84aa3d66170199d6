"""Finite-semigroup engine: power semigroups, semilattice decomposition of
completely regular semigroups, and verified transfer of power-semigroup
isomorphisms down to element isomorphisms."""

from .core import (
    CayleyTable,
    GreenData,
    NaturalOrder,
    green_relations,
    idempotents,
    is_completely_regular,
    is_completely_simple,
    is_left_zero,
    is_right_zero,
    natural_order,
    restrict,
    validate_table,
)
from .breakable import (
    BreakableForm,
    a2_characterization,
    a2_counterexample,
    a3_characterization,
    a3_counterexample,
    structural_form,
)
from .families import canonical_form, corpus, enumerate_small
from .globaldet import (
    IsoMap,
    Record,
    RhoPartition,
    STATEMENT_IDS,
    Transfer,
    construct_eta,
    extract_theta,
    find_isomorphisms,
    lift,
    power_of,
    power_table,
    rho_partition,
    verify_member_statements,
    verify_morphism,
    verify_statement_suite,
)
from .power import Power, h_class_of_idempotent_singleton, h_class_of_left_zero_set
from .structure import CS0, LEFT_ZERO, RIGHT_ZERO, Decomposition, decompose, id_set_mask

__version__ = "0.1.0"
