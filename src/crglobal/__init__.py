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
    construct_eta,
    extract_theta,
    lift,
)
from .power import Power, h_class_of_idempotent_singleton, h_class_of_left_zero_set, power_of, power_table
from .search import IsoMap, find_isomorphisms, verify_morphism
from .statements import (
    STATEMENTS,
    Record,
    verify_member_statements,
    verify_statement_suite,
)
from .structure import CS0, LEFT_ZERO, RIGHT_ZERO, Decomposition, RhoPartition, decompose, id_set_mask, rho_partition

__version__ = "0.1.0"
