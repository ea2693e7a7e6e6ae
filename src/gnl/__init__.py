"""Graph calculus and Schwinger nullifiers for Gaussian pure states.

The package is organized around the complex adjacency matrix K of a
Gaussian pure state:

* :mod:`gnl.graphs` converts between K and the Z = V + iU potential,
  validates both, and applies passive mode transformations;
* :mod:`gnl.schwinger` handles quadratic photon-conserving operators
  adag M a as Hermitian matrices and symbolic Schwinger expressions;
* :mod:`gnl.nullifiers` decides and derives nullifiers through the
  antisymmetry criterion MK = -(MK)^T;
* :mod:`gnl.states` builds named states (TMS pairs, Bell-like variants,
  the periodic dual-rail wire) with their documented nullifier families;
* :mod:`gnl.fock` verifies everything independently in truncated Fock space;
* :mod:`gnl.cli` is the command-line entry point (``gnl``).
"""

from .errors import GnlError
from .graphs import (
    ValidationReport,
    finite_square,
    hgraph_k,
    k_to_z,
    matrix_from_json,
    matrix_to_json,
    passive_transform,
    phase_shift,
    tms_k,
    to_dot,
    u_from_k,
    validate,
    z_to_k,
)
from .schwinger import (
    SchwingerExpression,
    SchwingerTerm,
    change_basis,
    display_expressions,
    embed_pauli,
    expression_from_json,
    expression_to_json,
    expression_to_matrix,
    format_expression,
    generator_to_unitary,
    matrix_to_expression,
    su2_structure_check,
    unitary_path,
)
from .nullifiers import (
    NullifierBasis,
    TwoModeClass,
    bipartite_nullifier,
    is_nullifier,
    nullifier_space,
    two_mode_invariant_class,
    verify_symmetry,
)
from .states import (
    SpinPairing,
    WireLayout,
    bell_analogue,
    dual_rail_wire,
    four_mode_symmetries,
    six_mode_symmetry_decomposition,
    tms_pair,
    tms_pair_nullifiers,
    tms_pair_pairing,
    wire_chain_nullifier,
    wire_distributed_k,
    wire_global_x,
    wire_global_z,
    wire_local_nullifiers,
    wire_mixer,
    wire_overlap_forms,
    wire_y_symmetry,
)
from .fock import (
    FockVector,
    SpinBasisView,
    apply_quadratic,
    export_table,
    fock_from_json,
    fock_to_json,
    nullifier_residual,
    spin_basis_view,
    state_from_k,
)

__version__ = "0.1.0"

__all__ = [
    "GnlError",
    "ValidationReport",
    "z_to_k",
    "k_to_z",
    "validate",
    "finite_square",
    "u_from_k",
    "phase_shift",
    "passive_transform",
    "hgraph_k",
    "tms_k",
    "matrix_to_json",
    "matrix_from_json",
    "to_dot",
    "SchwingerTerm",
    "SchwingerExpression",
    "embed_pauli",
    "expression_to_matrix",
    "matrix_to_expression",
    "su2_structure_check",
    "change_basis",
    "generator_to_unitary",
    "unitary_path",
    "format_expression",
    "display_expressions",
    "expression_to_json",
    "expression_from_json",
    "NullifierBasis",
    "TwoModeClass",
    "is_nullifier",
    "nullifier_space",
    "bipartite_nullifier",
    "two_mode_invariant_class",
    "verify_symmetry",
    "SpinPairing",
    "WireLayout",
    "tms_pair",
    "tms_pair_pairing",
    "tms_pair_nullifiers",
    "four_mode_symmetries",
    "bell_analogue",
    "dual_rail_wire",
    "wire_mixer",
    "wire_distributed_k",
    "wire_local_nullifiers",
    "wire_global_x",
    "wire_global_z",
    "wire_chain_nullifier",
    "wire_y_symmetry",
    "wire_overlap_forms",
    "six_mode_symmetry_decomposition",
    "FockVector",
    "SpinBasisView",
    "state_from_k",
    "export_table",
    "apply_quadratic",
    "nullifier_residual",
    "spin_basis_view",
    "fock_to_json",
    "fock_from_json",
]
