"""Schwinger-operator layer: embeddings, conversions, the display, exponentials."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_hermitian,
    reference_coordinates,
    reference_display_expression,
    reference_expression_matrix,
    reference_from_coordinates,
    template_coordinate_expressions,
)
from gnl import schwinger, states
from gnl.errors import (
    EqualIndices,
    IndexOutOfRange,
    NonHermitian,
    PrecisionLimit,
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
    # an infinite coefficient made _format_coeff raise OverflowError; a term
    # refuses it, and the display of coordinates near the float limit
    # formats finite coefficients only
    with pytest.raises(ShapeMismatch):
        SchwingerTerm("z", (0, 1), coeff)
    w = np.array([[1e308, -5e307, 1e308, 0.0]])
    expected = reference_display_expression(reference_from_coordinates(w)[0])
    assert schwinger.coordinate_expressions(w) == [expected]
    assert expected.startswith("0.3333333333·S^0_{0,1} + 1.0·S^z_{0,1} ")
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
    with pytest.raises(EqualIndices):
        schwinger.embed_pauli("0", 1, 1, 3)
    with pytest.raises(ShapeMismatch):
        schwinger.embed_pauli("w", 0, 1, 3)


def test_an_expression_keeps_the_terms_its_range_check_saw():
    # expression_to_matrix reads the pairs unchecked; a term appended to the
    # list after the check reached numpy as a bare IndexError
    term = SchwingerTerm("x", (0, 1), 1.0)
    expr = SchwingerExpression(2, [term])
    assert expr.terms == (term,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        expr.terms = [SchwingerTerm("x", (0, 5), 1.0)]


@pytest.mark.parametrize("axis", schwinger.AXES)
def test_embed_pauli_refuses_a_reversed_pair(axis):
    # the pair was swapped silently: embed_pauli("z", 2, 1, 3) returned
    # sigma_z on (1, 2), the opposite operator to the one asked for
    with pytest.raises(IndexOutOfRange, match="pair must be ordered"):
        schwinger.embed_pauli(axis, 2, 1, 3)


# coefficients: signed zeros, subnormals and a range of ordinary values
_COEFFS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300]) | st.floats(-1e6, 1e6)


@st.composite
def _expressions(draw):
    """Expressions of up to 8 terms on 1-6 modes, singleton S^0 terms included."""
    n = draw(st.integers(1, 6))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        if n == 1 or draw(st.integers(0, 4)) == 0:
            r = draw(st.integers(0, n - 1))
            axis, pair = "0", (r, r)
        else:
            axis = draw(st.sampled_from(schwinger.AXES))
            pair = tuple(sorted(draw(st.lists(
                st.integers(0, n - 1), min_size=2, max_size=2, unique=True
            ))))
        terms.append(SchwingerTerm(axis, pair, draw(_COEFFS)))
    return SchwingerExpression(n, terms)


@settings(max_examples=300, deadline=None)
@given(_expressions())
def test_expression_to_matrix_is_the_sum_of_the_embedded_terms(expr):
    # entries are added in place, with no matrix per term; the sums are the
    # per-term embeddings' bit for bit, signed zeros included
    got = schwinger.expression_to_matrix(expr)
    assert got.tobytes() == reference_expression_matrix(expr).tobytes()


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


def _canonical_expression(m):
    """The expression of the display's coefficients of a Hermitian matrix, zeros left out."""
    n = len(m)
    _, slots, values = schwinger._terms(reference_coordinates([m]))
    axes_pairs = schwinger._slots(n)
    return SchwingerExpression(n, [
        SchwingerTerm(*axes_pairs[slot], c) for slot, c in zip(slots.tolist(), values.tolist())
    ])


def test_matrix_to_expression_identity_and_half_sigma_z():
    expr = _canonical_expression(np.eye(2, dtype=complex))
    assert [(t.axis, t.pair, t.coeff) for t in expr.terms] == [("0", (0, 1), 2.0)]
    expr = _canonical_expression(0.5 * np.diag([1.0 + 0j, -1.0]))
    assert [(t.axis, t.pair, t.coeff) for t in expr.terms] == [("z", (0, 1), 1.0)]


def test_matrix_to_expression_odd_mode_count():
    m = np.diag([0.0, 0.0, 3.0]).astype(complex)
    expr = _canonical_expression(m)
    back = schwinger.expression_to_matrix(expr)
    assert np.max(np.abs(back - m)) < 1e-12
    pairs = {t.pair for t in expr.terms}
    assert pairs == {(1, 2)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matrix_expression_round_trip(n):
    # the display's coefficient table is the decomposition that
    # expression_to_matrix inverts
    rng = np.random.default_rng(100 + n)
    m = random_hermitian(rng, n)
    back = schwinger.expression_to_matrix(_canonical_expression(m))
    assert np.max(np.abs(back - m)) < 1e-12


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
    ea = _canonical_expression(ma)
    eb = _canonical_expression(mb)
    combo = schwinger.add_expressions(ea, eb, 2.0, -0.5)
    got = schwinger.expression_to_matrix(combo)
    assert np.max(np.abs(got - (2.0 * ma - 0.5 * mb))) < 1e-12
    with pytest.raises(ShapeMismatch):
        schwinger.add_expressions(ea, _canonical_expression(np.eye(2)))


@pytest.mark.parametrize("r,s,n", [(0, 1, 2), (1, 3, 4), (0, 4, 6)])
def test_su2_structure_relations_hold(r, s, n):
    # [sigma_k/2, sigma_l/2] = i eps_klm sigma_m/2 for the embedded x, y, z,
    # both ways round, and the embedded sigma_0 commutes with all three
    sig = {a: schwinger.embed_pauli(a, r, s, n) for a in schwinger.AXES}

    def comm(a, b):
        return a @ b - b @ a

    defects = []
    for k, l, m in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        defects.append(comm(0.5 * sig[k], 0.5 * sig[l]) - 0.5j * sig[m])
        defects.append(comm(0.5 * sig[l], 0.5 * sig[k]) + 0.5j * sig[m])
    defects += [comm(sig["0"], sig[a]) for a in "xyz"]
    assert max(float(np.max(np.abs(d))) for d in defects) < 1e-15


def test_su2_relations_would_catch_a_dent():
    # the criterion itself discriminates: perturbing sigma_x breaks [x, y] = i z
    sx = schwinger.embed_pauli("x", 0, 1, 2)
    sx[0, 1] += 0.01
    sy = schwinger.embed_pauli("y", 0, 1, 2)
    sz = schwinger.embed_pauli("z", 0, 1, 2)
    defect = np.max(np.abs(0.25 * (sx @ sy - sy @ sx) - 0.5j * sz))
    assert defect > 1e-3


def test_change_basis_pulls_distributed_edge_z_back_to_rails():
    layout = states.WireLayout(3, 0.5)
    w = states.wire_mixer(layout)
    # S^z between the two distributed modes of the first edge (flat 1 and 2),
    # as a quadratic form in the rail modes: W^H M W
    dist = 0.5 * schwinger.embed_pauli("z", 1, 2, 6)
    phys = w.conj().T @ dist @ w
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
def test_unitaries_rejects_a_non_finite_generator(value):
    # nan > TOL_HERM is False, so a NaN generator gave a NaN unitary
    with pytest.raises(NonHermitian):
        schwinger.unitaries(np.full((2, 2), value), [0.3])
    with pytest.raises(NonHermitian):
        schwinger.unitaries(np.full((2, 2), value), [])


def test_unitaries_is_the_stack_of_single_angles():
    # one eigendecomposition for the whole grid, each slice bit for bit the
    # unitary of its angle alone
    rng = np.random.default_rng(53)
    for n, real in [(1, True), (3, False), (6, True), (7, False)]:
        m = random_hermitian(rng, n)
        if real:
            m = m.real
        thetas = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 16), rng.uniform(-9, 9, 4)])
        ws = schwinger.unitaries(m, thetas)
        assert ws.shape == (len(thetas), n, n)
        for theta, w in zip(thetas, ws):
            assert w.tobytes() == schwinger.unitaries(m, [theta])[0].tobytes()
            assert w.tobytes() == schwinger.generator_to_unitary(m, theta).tobytes()
    assert schwinger.unitaries(np.eye(2), []).shape == (0, 2, 2)


def test_unitaries_names_the_first_angle_past_the_phase_limit():
    # |theta| max|lambda| past the float range is over the limit, with no
    # overflow warning
    m = 2.0 * schwinger.embed_pauli("z", 0, 1, 2)
    with pytest.raises(PrecisionLimit, match=r"^theta 1\.700e\+308 times"):
        schwinger.unitaries(m, [0.5, 1.7e308, -1e17, 0.1])
    with pytest.raises(PrecisionLimit, match=r"^theta -1\.000e\+17 times"):
        schwinger.unitaries(m, [0.5, -1e17, 1.7e308, 0.1])


def test_expression_json_round_trip():
    obj = {"n": 5, "terms": [
        {"axis": "x", "pair": [1, 3], "coeff": 1.0},
        {"axis": "x", "pair": [2, 4], "coeff": -1},
    ]}
    expected = SchwingerExpression(
        5, [SchwingerTerm("x", (1, 3), 1.0), SchwingerTerm("x", (2, 4), -1.0)]
    )
    for value in (obj, json.dumps(obj)):
        back = schwinger.expression_from_json(value)
        assert back == expected
        assert type(back.terms[1].coeff) is float
    terms = [{"axis": t.axis, "pair": list(t.pair), "coeff": t.coeff} for t in back.terms]
    assert json.loads(json.dumps({"n": back.n, "terms": terms})) == obj


@pytest.mark.parametrize("n", [0, -1])
def test_an_expression_needs_at_least_one_mode(n):
    # n = -1 reached numpy's "negative dimensions" ValueError in
    # expression_to_matrix, and gnl check exited 1, the failed-check code
    with pytest.raises(ShapeMismatch, match=f"at least one mode, got n = {n}$"):
        SchwingerExpression(n, [])
    with pytest.raises(ShapeMismatch):
        schwinger.expression_from_json({"n": n, "terms": []})


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
        # past the float range: math.isfinite raised OverflowError
        {"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": -(10**400)}]},
    ],
)
def test_expression_from_json_rejects_malformed_input(obj):
    with pytest.raises(ShapeMismatch):
        schwinger.expression_from_json(obj)


def test_expression_from_json_keeps_the_term_errors():
    blob = {"n": 2, "terms": [{"axis": "z", "pair": [0, 2], "coeff": 1.0}]}
    with pytest.raises(IndexOutOfRange):
        schwinger.expression_from_json(blob)


def _display(expr, labels=None):
    """The display of the matrix of expr, read through its coordinates."""
    w = reference_coordinates([schwinger.expression_to_matrix(expr)])
    return schwinger.coordinate_expressions(w, labels)[0]


def test_format_expression_rendering():
    expr = SchwingerExpression(
        5, [SchwingerTerm("x", (1, 3), 1.0), SchwingerTerm("x", (2, 4), -1.0)]
    )
    assert _display(expr) == "1.0·S^x_{1,3} - 1.0·S^x_{2,4}"
    assert _display(SchwingerExpression(2, [])) == "0"
    # scaled so that the largest |coefficient| is 1.0, its sign kept
    labeled = SchwingerExpression(2, [SchwingerTerm("z", (0, 1), -0.25)])
    assert _display(labeled, ["0a", "0b"]) == "-1.0·S^z_{0a,0b}"
    labeled = SchwingerExpression(
        2, [SchwingerTerm("0", (0, 1), 1.0), SchwingerTerm("z", (0, 1), -0.25)]
    )
    assert _display(labeled, ["0a", "0b"]) == "1.0·S^0_{0a,0b} - 0.25·S^z_{0a,0b}"


def test_near_integral_coefficients_print_like_integral_ones():
    # 0.9999999999999999 differs from 1.0 in the last bit only; both must
    # render "1.0", or rounding noise flips the text output.  Through the
    # coordinates and the scale, S^x_{0,1} and S^y_{0,2} read
    # +-0.9999999999999998, whose %.10g text is the bare "1"
    terms = [
        SchwingerTerm("x", (0, 1), 0.9999999999999999),
        SchwingerTerm("x", (1, 2), 1.0),
        SchwingerTerm("y", (0, 2), -0.9999999999999998),
        SchwingerTerm("z", (0, 1), 0.5000000000000001),
    ]
    assert _display(SchwingerExpression(3, terms)) == (
        "0.5·S^z_{0,1} + 1.0·S^x_{0,1} - 1.0·S^y_{0,2} + 1.0·S^x_{1,2}"
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
    # the coordinate rows of each stack render as the reference renders the
    # matrices those rows stand for
    rng = np.random.default_rng(seed)
    gens = [_HERMITIAN[kind](rng, n) for _ in range(d)]
    if rng.random() < 0.2:
        gens[0] = np.zeros((n, n), dtype=complex)
    labels = [f"{i // 2}{'ab'[i % 2]}" for i in range(n)] if wire_labels else None
    w = reference_coordinates(gens)
    expected = [reference_display_expression(m, labels) for m in reference_from_coordinates(w)]
    assert schwinger.coordinate_expressions(w, labels) == expected


def _near_ties(rng, size):
    """Doubles next to the rounding ties (q + 1/2) 10^(e - 9) of 10-digit
    mantissas q, e = -12..-1, on either side, and the doubles nearest them."""
    q = rng.integers(10**9, 10**10, size).tolist()
    e = rng.integers(-12, 0, size).tolist()
    ties = np.array([float(Fraction(2 * a + 1, 2) * Fraction(10) ** (b - 9)) for a, b in zip(q, e)])
    return np.nextafter(ties, rng.choice([0.0, 1.0, np.inf], size))


# magnitude families of the displayed coefficients
_MAGNITUDES = {
    # every decade from 1e-12 to 1, exponent forms below 1e-4
    "decades": lambda rng, size: 10.0 ** rng.uniform(-12.0, 0.0, size),
    # within 1e-9 of 1, where the exact printer's "1.0" rule holds
    "near one": lambda rng, size: 1.0 - rng.uniform(0.0, 1e-9, size) * rng.integers(0, 2, size),
    "near ties": _near_ties,
    # the doubles next to the powers of ten, where the decade changes
    "powers": lambda rng, size: np.minimum(
        np.nextafter(10.0 ** rng.integers(-12, 1, size), rng.choice([0.0, np.inf], size)), 1.0
    ),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 8),
    d=st.integers(1, 3) | st.integers(40, 70),
    seed=st.integers(0, 2**32 - 1),
    families=st.lists(st.sampled_from(sorted(_MAGNITUDES)), min_size=1, max_size=4),
    sparse=st.booleans(),
)
def test_display_spells_as_the_template_renderer(n, d, seed, families, sparse):
    # each row carries one coefficient 1.0, so the others are displayed as
    # drawn: exactly on the diagonal pairs (d_r S^0 + d_r S^z with d_s = 0),
    # within a few ulps through a pair coordinate
    rng = np.random.default_rng(seed)
    size = d * n * n
    mags = np.concatenate([_MAGNITUDES[f](rng, size) for f in families])
    w = rng.choice(mags, size).reshape(d, n * n) * rng.choice([-1.0, 1.0], (d, n * n))
    w[:, 1:n:2] = 0.0
    w[:, n:] *= math.sqrt(0.5)
    if sparse:
        w[rng.random((d, n * n)) < 0.9] = 0.0
    w[:, 0] = rng.choice([-1.0, 1.0], d)
    labels = [f"{i // 2}{'ab'[i % 2]}" for i in range(n)] if rng.random() < 0.5 else None
    assert schwinger.coordinate_expressions(w, labels) == template_coordinate_expressions(w, labels)


@pytest.mark.parametrize("family", sorted(_MAGNITUDES))
def test_the_kernel_spells_what_it_does_not_flag_as_the_exact_printer(family):
    rng = np.random.default_rng(29)
    x = np.concatenate([_MAGNITUDES[family](rng, 4000), [1.0, 1e-12, np.nextafter(1e-12, 1.0)]])
    words = np.empty((len(x), 4), dtype=np.uint32)
    flagged = set(schwinger._spell(x, words).tolist())
    texts = [row.tobytes().replace(b"\xff", b"").decode() for row in words]
    # the exact printer takes the near ties and what lies below 1e-12 only
    assert len(flagged) < len(x) // 100 or family in ("near ties", "powers")
    assert [t for i, t in enumerate(texts) if i not in flagged] == [
        schwinger._format_coeff(v) for i, v in enumerate(x.tolist()) if i not in flagged
    ]


def test_display_expressions_run_across_blocks_and_check_hermiticity():
    # every coordinate row stands for a Hermitian matrix, so the display has
    # no matrix to check
    rng = np.random.default_rng(9)
    gens = [_mixed_hermitian(rng, 5) for _ in range(2 * schwinger.DISPLAY_BLOCK + 3)]
    w = reference_coordinates(gens)
    ms = schwinger.from_coordinates(w)
    assert np.array_equal(ms, ms.conj().swapaxes(1, 2))
    out = schwinger.coordinate_expressions(w)
    assert out == [reference_display_expression(m) for m in reference_from_coordinates(w)]


def test_display_refuses_a_non_finite_coordinate_row():
    # a NaN row would render as "0", a vacuous zero generator
    with pytest.raises(ShapeMismatch, match="coordinate row entries must be finite"):
        schwinger.coordinate_expressions(np.array([[np.nan, 0.0, 1.0, 0.0]]))


_READERS = {
    "coordinate_expressions": schwinger.coordinate_expressions,
    "from_coordinates": schwinger.from_coordinates,
    "real_from_coordinates": lambda w: schwinger.real_from_coordinates(w, True),
    "real_from_coordinates, S half": lambda w: schwinger.real_from_coordinates(w, False),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("shape", [(1, 5), (2, 3), (1, 0), (4,), (1, 2, 2)])
def test_coordinate_readers_refuse_a_row_width_that_is_not_a_square(reader, shape):
    # these reached an IndexError or a broadcast ValueError, or gave a
    # result for a mode count the width does not have
    with pytest.raises(ShapeMismatch, match=r"shape \(d, n\^2\)"):
        _READERS[reader](np.ones(shape))


@pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
def test_display_refuses_labels_that_do_not_name_every_mode(labels):
    # too few labels reached an IndexError, too many were silently cut
    with pytest.raises(ShapeMismatch, match=f"need 2 labels, got {len(labels)}$"):
        schwinger.coordinate_expressions(np.array([[1.0, -1.0, 0.0, 0.0]]), labels)


def test_display_refuses_a_finite_row_whose_coefficients_overflow():
    # the diagonal pair's S^0 and S^z coefficients are 1e308 -+ -1e308
    with pytest.raises(PrecisionLimit, match="overflow"):
        schwinger.coordinate_expressions(np.array([[1e308, -1e308, 0.0, 0.0]]))
