"""Schwinger-operator layer: embeddings, conversions, basis changes, exponentials."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_unitary, reference_display_expression
from gnl import schwinger, states
from gnl.errors import (
    EqualIndices,
    IndexOutOfRange,
    NonHermitian,
    NonUnitary,
    ShapeMismatch,
)
from gnl.schwinger import SchwingerExpression, SchwingerTerm


def test_term_validation():
    with pytest.raises(EqualIndices):
        SchwingerTerm("x", (1, 1), 1.0)
    with pytest.raises(IndexOutOfRange):
        SchwingerTerm("z", (2, 1), 1.0)
    with pytest.raises(IndexOutOfRange):
        SchwingerTerm("x", (-1, 0), 1.0)
    with pytest.raises(ShapeMismatch):
        SchwingerTerm("w", (0, 1), 1.0)


@pytest.mark.parametrize("coeff", [float("inf"), float("-inf"), float("nan")])
def test_format_expression_rejects_a_non_finite_coefficient(coeff):
    # an infinite coefficient made _format_coeff raise OverflowError
    with pytest.raises(ShapeMismatch):
        schwinger.format_expression(
            SchwingerExpression(2, [SchwingerTerm("z", (0, 1), coeff)])
        )
    # singleton on axis 0 is the number operator and is allowed
    SchwingerTerm("0", (1, 1), 1.0)
    with pytest.raises(IndexOutOfRange):
        SchwingerExpression(2, [SchwingerTerm("x", (0, 3), 1.0)])


def test_embed_pauli_matrices():
    assert np.array_equal(
        schwinger.embed_pauli("z", 0, 1, 2), np.diag([1.0 + 0j, -1.0])
    )
    assert np.array_equal(schwinger.embed_pauli("0", 0, 1, 2), np.eye(2, dtype=complex))
    y = schwinger.embed_pauli("y", 0, 1, 2)
    assert y[0, 1] == -1j and y[1, 0] == 1j
    m = schwinger.embed_pauli("x", 1, 2, 4)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(m, expected)


def test_embed_pauli_index_errors():
    with pytest.raises(IndexOutOfRange):
        schwinger.embed_pauli("x", 0, 5, 3)
    with pytest.raises(EqualIndices):
        schwinger.embed_pauli("x", 1, 1, 3)


def test_expression_to_matrix_single_z():
    expr = SchwingerExpression(2, [SchwingerTerm("z", (0, 1), 1.0)])
    assert np.array_equal(
        schwinger.expression_to_matrix(expr), 0.5 * np.diag([1.0 + 0j, -1.0])
    )


def test_expression_to_matrix_full_u2_block():
    a, b, g, d = 0.3, -1.2, 0.7, 2.0
    expr = SchwingerExpression(
        2,
        [
            SchwingerTerm("0", (0, 1), a),
            SchwingerTerm("x", (0, 1), b),
            SchwingerTerm("y", (0, 1), g),
            SchwingerTerm("z", (0, 1), d),
        ],
    )
    m = schwinger.expression_to_matrix(expr)
    expected = 0.5 * np.array([[a + d, b - 1j * g], [b + 1j * g, a - d]])
    assert np.max(np.abs(m - expected)) == 0.0


def test_expression_to_matrix_wire_local_support():
    layout = states.WireLayout(5, 0.5)
    m = schwinger.expression_to_matrix(states.wire_local_nullifiers(layout)[2])
    live = sorted({i for i in range(10) if np.any(m[i] != 0.0)})
    assert live == [4, 5, 6, 7]
    assert np.max(np.abs(m - m.conj().T)) == 0.0


def test_expression_singleton_is_number_operator():
    expr = SchwingerExpression(3, [SchwingerTerm("0", (1, 1), 2.5)])
    m = schwinger.expression_to_matrix(expr)
    assert m[1, 1] == 2.5
    assert np.count_nonzero(m) == 1


def test_matrix_to_expression_identity_and_half_sigma_z():
    expr = schwinger.matrix_to_expression(np.eye(2, dtype=complex))
    assert [(t.axis, t.pair, t.coeff) for t in expr.terms] == [("0", (0, 1), 2.0)]
    expr = schwinger.matrix_to_expression(0.5 * np.diag([1.0 + 0j, -1.0]))
    assert [(t.axis, t.pair, t.coeff) for t in expr.terms] == [("z", (0, 1), 1.0)]


def test_matrix_to_expression_odd_mode_count():
    m = np.diag([0.0, 0.0, 3.0]).astype(complex)
    expr = schwinger.matrix_to_expression(m)
    back = schwinger.expression_to_matrix(expr)
    assert np.max(np.abs(back - m)) < 1e-12
    pairs = {t.pair for t in expr.terms}
    assert pairs == {(1, 2)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matrix_expression_round_trip(n):
    rng = np.random.default_rng(100 + n)
    m = random_hermitian(rng, n)
    back = schwinger.expression_to_matrix(schwinger.matrix_to_expression(m))
    assert np.max(np.abs(back - m)) < 1e-12


def test_matrix_to_expression_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        schwinger.matrix_to_expression(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_combine_terms_collects_and_sorts():
    expr = SchwingerExpression(
        3,
        [
            SchwingerTerm("x", (0, 2), 1.0),
            SchwingerTerm("z", (0, 1), 0.5),
            SchwingerTerm("x", (0, 2), -1.0),
            SchwingerTerm("0", (0, 1), 2.0),
        ],
    )
    out = schwinger.combine_terms(expr)
    assert [(t.axis, t.pair, t.coeff) for t in out.terms] == [
        ("0", (0, 1), 2.0),
        ("z", (0, 1), 0.5),
    ]


def test_add_expressions_is_linear():
    rng = np.random.default_rng(31)
    ma, mb = random_hermitian(rng, 4), random_hermitian(rng, 4)
    ea = schwinger.matrix_to_expression(ma)
    eb = schwinger.matrix_to_expression(mb)
    combo = schwinger.add_expressions(ea, eb, 2.0, -0.5)
    got = schwinger.expression_to_matrix(combo)
    assert np.max(np.abs(got - (2.0 * ma - 0.5 * mb))) < 1e-12
    with pytest.raises(ShapeMismatch):
        schwinger.add_expressions(ea, schwinger.matrix_to_expression(np.eye(2)))


@pytest.mark.parametrize("r,s,n", [(0, 1, 2), (1, 3, 4), (0, 4, 6)])
def test_su2_structure_relations_hold(r, s, n):
    assert schwinger.su2_structure_check(r, s, n) < 1e-15


def test_su2_relations_would_catch_a_dent():
    # the criterion itself discriminates: perturbing sigma_x breaks [x, y] = i z
    sx = schwinger.embed_pauli("x", 0, 1, 2)
    sx[0, 1] += 0.01
    sy = schwinger.embed_pauli("y", 0, 1, 2)
    sz = schwinger.embed_pauli("z", 0, 1, 2)
    defect = np.max(np.abs(0.25 * (sx @ sy - sy @ sx) - 0.5j * sz))
    assert defect > 1e-3


def test_change_basis_identity_and_spectrum():
    rng = np.random.default_rng(41)
    m = random_hermitian(rng, 4)
    assert np.array_equal(schwinger.change_basis(m, np.eye(4)), m)
    w = random_unitary(rng, 4)
    mp = schwinger.change_basis(m, w)
    assert np.max(np.abs(mp - mp.conj().T)) == 0.0
    assert np.max(np.abs(np.linalg.eigvalsh(mp) - np.linalg.eigvalsh(m))) < 1e-12


def test_change_basis_composition():
    rng = np.random.default_rng(43)
    m = random_hermitian(rng, 3)
    w1 = random_unitary(rng, 3)
    w2 = random_unitary(rng, 3)
    lhs = schwinger.change_basis(m, w1 @ w2)
    rhs = schwinger.change_basis(schwinger.change_basis(m, w1), w2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_change_basis_rejects_non_unitary():
    with pytest.raises(NonUnitary):
        schwinger.change_basis(np.eye(2), 2.0 * np.eye(2))


def test_change_basis_pulls_distributed_edge_z_back_to_rails():
    layout = states.WireLayout(3, 0.5)
    w = states.wire_mixer(layout)
    # S^z between the two distributed modes of the first edge (flat 1 and 2)
    dist = 0.5 * schwinger.embed_pauli("z", 1, 2, 6)
    phys = schwinger.change_basis(dist, w)
    n0 = schwinger.expression_to_matrix(states.wire_local_nullifiers(layout)[0])
    assert np.max(np.abs(phys - 0.5 * n0)) < 1e-14


def test_generator_to_unitary_x_block():
    m = 0.5 * schwinger.embed_pauli("x", 0, 1, 2)
    assert np.max(np.abs(schwinger.generator_to_unitary(m, 0.0) - np.eye(2))) < 1e-14
    th = 0.77
    w = schwinger.generator_to_unitary(m, th)
    c, s = np.cos(th / 2.0), np.sin(th / 2.0)
    expected = np.array([[c, -1j * s], [-1j * s, c]])
    assert np.max(np.abs(w - expected)) < 1e-12


def test_generator_to_unitary_y_is_real_rotation():
    m = 0.5 * schwinger.embed_pauli("y", 0, 1, 2)
    w = schwinger.generator_to_unitary(m, 1.1)
    assert np.max(np.abs(w.imag)) < 1e-12
    c, s = np.cos(0.55), np.sin(0.55)
    assert np.max(np.abs(w.real - np.array([[c, -s], [s, c]]))) < 1e-12


def test_generator_to_unitary_composes_and_is_unitary():
    rng = np.random.default_rng(47)
    m = random_hermitian(rng, 3)
    w = schwinger.generator_to_unitary
    assert np.max(np.abs(w(m, 0.4) @ w(m, 1.3) - w(m, 1.7))) < 1e-10
    u = w(m, 2.2)
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-12


def test_generator_to_unitary_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        schwinger.generator_to_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.3)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_unitary_path_rejects_a_non_finite_generator(value):
    # nan > TOL_HERM is False, so a NaN generator gave a NaN unitary
    with pytest.raises(NonHermitian):
        schwinger.unitary_path(np.full((2, 2), value))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_display_expressions_rejects_a_non_finite_generator(value):
    # the NaN generator displayed as "0"
    with pytest.raises(NonHermitian):
        schwinger.display_expressions([np.full((2, 2), value)])


def test_expression_json_round_trip():
    expr = SchwingerExpression(
        5, [SchwingerTerm("x", (1, 3), 1.0), SchwingerTerm("x", (2, 4), -1.0)]
    )
    blob = json.dumps(schwinger.expression_to_json(expr))
    back = schwinger.expression_from_json(blob)
    assert back.n == 5
    assert [(t.axis, t.pair, t.coeff) for t in back.terms] == [
        ("x", (1, 3), 1.0),
        ("x", (2, 4), -1.0),
    ]


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": "abc"}]},
        {"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": [1]}]},
        {"n": 2, "terms": [{"axis": "z", "pair": [0], "coeff": 1.0}]},
        {"n": 2},
        [],
        {"n": 2, "terms": [{"axis": "z", "pair": "01", "coeff": 1.0}]},
        {"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": "1.5"}]},
        {"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": float("nan")}]},
        {"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": float("-inf")}]},
        '{"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": Infinity}]}',
    ],
)
def test_expression_from_json_rejects_malformed_input(obj):
    with pytest.raises(ShapeMismatch):
        schwinger.expression_from_json(obj)


def test_expression_from_json_keeps_the_term_errors():
    blob = {"n": 2, "terms": [{"axis": "z", "pair": [0, 2], "coeff": 1.0}]}
    with pytest.raises(IndexOutOfRange):
        schwinger.expression_from_json(blob)


def test_format_expression_rendering():
    expr = SchwingerExpression(
        5, [SchwingerTerm("x", (1, 3), 1.0), SchwingerTerm("x", (2, 4), -1.0)]
    )
    assert schwinger.format_expression(expr) == "1.0·S^x_{1,3} - 1.0·S^x_{2,4}"
    assert schwinger.format_expression(SchwingerExpression(2, [])) == "0"
    labeled = SchwingerExpression(2, [SchwingerTerm("z", (0, 1), -0.25)])
    assert schwinger.format_expression(labeled, ["0a", "0b"]) == "-0.25·S^z_{0a,0b}"


def test_near_integral_coefficients_print_like_integral_ones():
    # 0.9999999999999999 differs from 1.0 in the last bit only; both must
    # render "1.0", or rounding noise flips the text output
    terms = [
        SchwingerTerm("x", (0, 1), 0.9999999999999999),
        SchwingerTerm("x", (1, 2), 1.0),
        SchwingerTerm("y", (0, 2), -2.0000000000000004),
        SchwingerTerm("z", (0, 1), 0.5000000000000001),
    ]
    assert schwinger.format_expression(SchwingerExpression(3, terms)) == (
        "1.0·S^x_{0,1} + 1.0·S^x_{1,2} - 2.0·S^y_{0,2} + 0.5·S^z_{0,1}"
    )


def _mixed_hermitian(rng, n):
    """Hermitian matrix whose Schwinger coefficients mix exact zeros, integer
    values, random floats and dust just above and below the display cut."""
    kind = rng.integers(0, 3, size=(2, n, n))
    parts = np.where(kind == 0, 0.0, rng.standard_normal((2, n, n)))
    parts = np.where(kind == 1, rng.integers(-3, 4, size=(2, n, n)) / 2.0, parts)
    m = np.triu(parts[0] + 1j * parts[1], 1)
    m = m + m.conj().T + np.diag(parts[0].diagonal())
    d = m.diagonal().real
    r, s = np.triu_indices(n, 1)
    coeffs = np.concatenate([
        d[0:n - 1:2] + d[1:n:2], d[0:n - 1:2] - d[1:n:2], d[n - 1:] if n % 2 else [],
        2.0 * m[r, s].real, 2.0 * m[r, s].imag,
    ])
    scale = np.max(np.abs(coeffs), initial=0.0)
    for a, b in zip(r, s):
        if scale and m[a, b].real == 0.0 and rng.random() < 0.5:
            # S^x coefficient 2 Re M_ab at 1e-12 * scale * (1 +- 1e-3)
            dust = 0.5e-12 * scale * rng.choice([1 - 1e-3, 1 + 1e-3]) * rng.choice([-1, 1])
            m[a, b] += dust
            m[b, a] += dust
    return m


# near-integral magnitudes: %.10g prints the bare integer "1" for all but
# the first, whose binary value sits just under 0.99999999995
_NEAR_INTEGRAL = (
    0.99999999995, np.nextafter(0.99999999995, 1.0), 1 - 2**-53, 0.9999999999950001,
    0.999999999999, 1.0, 0.5, 0.49999999999, 0.25,
)


def _near_integral_hermitian(rng, n):
    """Hermitian matrix with zero diagonal whose S^x and S^y coefficients are
    0 or +-_NEAR_INTEGRAL values, one of them exactly 1.0 so that the display
    scale leaves them as they are."""
    coeffs = rng.choice(_NEAR_INTEGRAL + (0.0,), (2, n, n)) * rng.choice([-1.0, 1.0], (2, n, n))
    if n > 1:
        coeffs[0, 0, 1] = 1.0
    # S^x = 2 Re M_rs and S^y = -2 Im M_rs
    m = np.triu(0.5 * coeffs[0] - 0.5j * coeffs[1], 1)
    return m + m.conj().T


_HERMITIAN = {
    "mixed": _mixed_hermitian,
    "dense": random_hermitian,  # every coefficient a distinct magnitude
    "near": _near_integral_hermitian,
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 7),
    d=st.integers(1, 4) | st.integers(20, 70),
    seed=st.integers(0, 2**32 - 1),
    wire_labels=st.booleans(),
    kind=st.sampled_from(sorted(_HERMITIAN)),
)
def test_display_expressions_match_the_reference(n, d, seed, wire_labels, kind):
    rng = np.random.default_rng(seed)
    gens = [_HERMITIAN[kind](rng, n) for _ in range(d)]
    if rng.random() < 0.2:
        gens[0] = np.zeros((n, n), dtype=complex)
    labels = [f"{i // 2}{'ab'[i % 2]}" for i in range(n)] if wire_labels else None
    expected = [reference_display_expression(g, labels) for g in gens]
    assert schwinger.display_expressions(gens, labels) == expected
    assert schwinger.display_expressions(np.array(gens), labels) == expected


def test_display_expressions_run_across_blocks_and_check_hermiticity():
    rng = np.random.default_rng(9)
    gens = [_mixed_hermitian(rng, 5) for _ in range(2 * schwinger.DISPLAY_BLOCK + 3)]
    out = schwinger.display_expressions(gens)
    assert out == [reference_display_expression(g) for g in gens]
    gens[-1][0, 1] += 1e-6
    with pytest.raises(NonHermitian):
        schwinger.display_expressions(gens)
