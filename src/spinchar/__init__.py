"""Exact spin representation theory for the order-27 group of exponent 3.

Builds the group's order-243 representation group from power-commutator
presentations, classifies all 35 irreducible representations by spin type,
computes the exact spin character table over cyclotomic fields, and
extracts the projective factor sets on the base group.
"""

from .cyclo import Cyc, CycError, OMEGA, cyc_cbrt, root_of_unity
from .cyclo9 import Cyc9, cyc9_cbrt, parse_scalar, scalar_str, zeta9
from .linalg import CycMatrix, MatrixError, J_SHIFT, K_SHIFT, intertwiner_space, nullspace
from .groups import (CheckReport, CollectionError, Group, GroupSchema,
                     SchemaError, Subgroup, check_schema, covering_data, exhaustive_associativity,
                     get_group, isomorphism_fingerprint, quotient_fingerprint,
                     random_triples_associative, schema,
                     verify_efficient_covering, verify_phi_automorphism)
from .mackey import (DualCharacter, MackeyError, SubRep, act_on_dual, dual_group,
                     induce, orbit_decomposition)
from .spinrep import (CocycleTable, RepError, Representation, SpinType,
                      extend_and_tensor, full_catalog, g27_nonspin_catalog,
                      intertwiner_solutions, irreps_by_spin_type, intertwiner_alpha, restrict_to_projective, solve_intertwiner,
                      spin_character_table, verify_rep)
from .verify import CHECKS, run_checks

__version__ = "0.1.0"
