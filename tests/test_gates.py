"""Input gates: every operand a solver reads is checked once, in graphs.

A NaN operand passes every tolerance test (``nan > tol`` is False), so each
entry point must reject it before any arithmetic, with a typed error: no NaN
result, no vacuous 0.0, no numpy LinAlgError and no RuntimeWarning (the
suite turns those into errors).
"""

import numpy as np
import pytest

from gnl import fock, graphs, nullifiers, schwinger
from gnl.errors import GnlError

K = graphs.tms_k(0.5)
M = np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, -0.5]])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
K0 = 0.3 * np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5]])


def _spoil(a, value):
    """A copy of a with its first entry set to value."""
    a = np.array(a)
    a.flat[0] = value
    return a


# one entry per gated operand: a call with that operand spoiled by value
_CASES = {
    "z_to_k Z": lambda v: graphs.z_to_k(_spoil(1j * np.eye(2), v)),
    "k_to_z K": lambda v: graphs.k_to_z(_spoil(K, v)),
    "u_from_k K": lambda v: graphs.u_from_k(_spoil(K, v)),
    "phase_shift K": lambda v: graphs.phase_shift(_spoil(K, v), [0.1, 0.2]),
    "phase_shift angles": lambda v: graphs.phase_shift(K, _spoil([0.1, 0.2], v)),
    "passive_transform K": lambda v: graphs.passive_transform(_spoil(K, v), np.eye(2)),
    "passive_transform W": lambda v: graphs.passive_transform(K, _spoil(np.eye(2), v)),
    "hgraph_k G": lambda v: graphs.hgraph_k(_spoil(SX, v), 0.5),
    "hgraph_k alpha": lambda v: graphs.hgraph_k(SX, v),
    "unitaries M": lambda v: schwinger.unitaries(_spoil(M, v), [0.1]),
    "unitaries angles": lambda v: schwinger.unitaries(M, [0.1, v]),
    "generator_to_unitary theta": lambda v: schwinger.generator_to_unitary(M, v),
    "nullifier_space K": lambda v: nullifiers.nullifier_space(_spoil(K, v)),
    "verify_symmetry K": lambda v: nullifiers.verify_symmetry(_spoil(K, v), M, [0.1]),
    "verify_symmetry M": lambda v: nullifiers.verify_symmetry(K, _spoil(M, v), [0.1]),
    "verify_symmetry angles": lambda v: nullifiers.verify_symmetry(K, M, [0.1, v]),
    "bipartite_nullifier K0": lambda v: nullifiers.bipartite_nullifier(_spoil(K0, v), 1.0),
    "bipartite_nullifier D": lambda v: nullifiers.bipartite_nullifier(0.5 * np.eye(2), v),
    "bipartite_nullifier D_right": lambda v: nullifiers.bipartite_nullifier(
        K0, [0.7, -0.2], [0.7, -0.2, v]
    ),
    "two_mode_invariant_class coefficients": lambda v: (
        nullifiers.two_mode_invariant_class(0.0, 1.0, v, 0.0)
    ),
    "state_from_k K": lambda v: fock.state_from_k(_spoil(K, v), 4),
    "apply_quadratic M": lambda v: fock.apply_quadratic(
        _spoil(M, v), fock.state_from_k(K, 4)
    ),
    "nullifier_residual K": lambda v: fock.nullifier_residual(M, _spoil(K, v), 4),
    "nullifier_residual M": lambda v: fock.nullifier_residual(_spoil(M, v), K, 4),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("case", list(_CASES))
def test_every_gate_rejects_a_non_finite_operand(case, value):
    with pytest.raises(GnlError):
        _CASES[case](value)


@pytest.mark.parametrize("spoil", ["m", "k"])
def test_is_nullifier_fails_closed_on_a_nan_operand(spoil):
    # is_nullifier has no gate of its own; a NaN residual is a failed verdict
    m, k = 0.5 * np.diag([1.0, -1.0]), K
    if spoil == "m":
        m = _spoil(m, np.nan)
    else:
        k = _spoil(k, np.nan)
    ok, residual = nullifiers.is_nullifier(m, k)
    assert ok is False and np.isnan(residual)


def test_the_unitary_gate_checks_shape_and_unitarity():
    assert graphs.unitary(np.eye(3), 3).dtype == complex
    with pytest.raises(GnlError, match="does not match 2 modes"):
        graphs.unitary(np.eye(3), 2)
    with pytest.raises(GnlError, match="not unitary"):
        graphs.unitary(2.0 * np.eye(2), 2)
