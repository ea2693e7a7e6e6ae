"""Adjacency-matrix calculus: Z/K conversion, validation, transforms, export."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_k, random_unitary, random_z
from gnl import graphs
from gnl.errors import (
    NonPositiveAlpha,
    NonPositiveU,
    NonSymmetric,
    NonSymmetricG,
    NonUnitary,
    NormAtOrAboveOne,
    ShapeMismatch,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_z_to_k_vacuum_is_zero():
    k = graphs.z_to_k(1j * np.eye(2))
    assert np.max(np.abs(k)) == 0.0


def test_z_to_k_two_mode_squeezer():
    a = 0.5
    z = 1j * (np.cosh(2 * a) * np.eye(2) - np.sinh(2 * a) * SX)
    k = graphs.z_to_k(z)
    assert np.max(np.abs(k - np.tanh(a) * SX)) < 1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    norm=st.floats(0.0, 0.99),
)
def test_z_and_k_round_trip(seed, n, norm):
    rng = np.random.default_rng(seed)
    z = random_z(rng, n)
    back = graphs.k_to_z(graphs.z_to_k(z))
    assert np.max(np.abs(back - z)) <= 1e-9 * max(1.0, np.max(np.abs(z)))
    k = random_k(rng, n, norm=norm)
    assert np.max(np.abs(graphs.z_to_k(graphs.k_to_z(k)) - k)) <= 1e-10


def test_z_to_k_rejects_bad_inputs():
    with pytest.raises(NonSymmetric):
        graphs.z_to_k(np.array([[1j, 0.2], [0.0, 1j]]))
    with pytest.raises(NonPositiveU):
        graphs.z_to_k(-1j * np.eye(2))


def test_k_to_z_vacuum():
    z = graphs.k_to_z(np.zeros((2, 2)))
    assert np.max(np.abs(z - 1j * np.eye(2))) == 0.0


def test_k_to_z_two_mode_squeezer_closed_form():
    a = 0.5
    z = graphs.k_to_z(graphs.tms_k(a))
    expected = 1j * (np.cosh(2 * a) * np.eye(2) - np.sinh(2 * a) * SX)
    assert np.max(np.abs(z - expected)) < 1e-12


def test_k_to_z_rejects_norm_at_one():
    with pytest.raises(NormAtOrAboveOne):
        graphs.k_to_z(np.eye(2, dtype=complex))


def test_round_trip_z_side():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 6, 8):
        z = random_z(rng, n)
        back = graphs.k_to_z(graphs.z_to_k(z))
        assert np.max(np.abs(back - z)) < 1e-9


def test_round_trip_k_side_near_edge():
    rng = np.random.default_rng(11)
    k = random_k(rng, 3, norm=0.9)
    back = graphs.z_to_k(graphs.k_to_z(k))
    assert np.max(np.abs(back - k)) < 1e-9


def test_validate_reports():
    rep = graphs.validate(np.zeros((2, 2)))
    assert rep.is_valid and rep.spectral_norm == 0.0
    rep = graphs.validate(graphs.tms_k(0.5))
    assert rep.is_valid
    assert abs(rep.spectral_norm - np.tanh(0.5)) < 1e-12
    assert rep.min_eig_U > 0.0
    rep = graphs.validate(np.eye(2, dtype=complex))
    assert not rep.is_valid
    assert abs(rep.spectral_norm - 1.0) < 1e-12


def test_validate_flags_asymmetry():
    rep = graphs.validate(np.array([[0.0, 0.5], [0.2, 0.0]]))
    assert rep.symmetric_defect > 0.1
    assert not rep.is_valid


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", _NON_FINITE)
def test_validate_reports_a_non_finite_k_as_invalid(value):
    # a NaN entry made the SVD raise numpy's LinAlgError
    rep = graphs.validate(np.array([[0.0, value], [value, 0.0]]))
    assert not rep.is_valid
    assert np.isnan([rep.symmetric_defect, rep.spectral_norm, rep.min_eig_U]).all()


@pytest.mark.parametrize("value", _NON_FINITE)
def test_hgraph_k_rejects_a_non_finite_g(value):
    # a NaN entry gave an all-NaN K
    with pytest.raises(ShapeMismatch):
        graphs.hgraph_k(np.array([[0.0, value], [value, 0.0]]), 0.5)


def test_u_from_k_vacuum_is_identity():
    u = graphs.u_from_k(np.zeros((3, 3)))
    assert np.max(np.abs(u - np.eye(3))) == 0.0


def test_u_from_k_matches_imaginary_part_of_z():
    rng = np.random.default_rng(3)
    for n in (2, 4):
        k = random_k(rng, n, norm=0.8)
        u = graphs.u_from_k(k)
        assert np.max(np.abs(u - graphs.k_to_z(k).imag)) < 1e-10
        assert np.linalg.eigvalsh(u).min() > 0.0


def test_u_from_k_min_eig_closes_towards_norm_one():
    eigs = []
    for t in (0.9, 0.99, 0.999):
        u = graphs.u_from_k(t * SX.astype(complex))
        eigs.append(np.linalg.eigvalsh(u).min())
    assert eigs[0] > eigs[1] > eigs[2] > 0.0


def test_phase_shift_zero_and_single_mode():
    k = graphs.tms_k(0.5)
    assert np.max(np.abs(graphs.phase_shift(k, [0.0, 0.0]) - k)) == 0.0
    th = 0.7
    kp = graphs.phase_shift(k, [0.0, th])
    assert abs(kp[0, 1] - np.exp(-1j * th) * np.tanh(0.5)) < 1e-12
    assert abs(kp[0, 0]) == 0.0 and abs(kp[1, 1]) == 0.0


def test_phase_shift_composes_and_preserves_norm():
    rng = np.random.default_rng(5)
    k = random_k(rng, 4, norm=0.6)
    t1 = rng.uniform(-np.pi, np.pi, 4)
    t2 = rng.uniform(-np.pi, np.pi, 4)
    twice = graphs.phase_shift(graphs.phase_shift(k, t1), t2)
    once = graphs.phase_shift(k, t1 + t2)
    assert np.max(np.abs(twice - once)) < 1e-12
    assert abs(np.linalg.norm(twice, 2) - 0.6) < 1e-12


def test_phase_shift_checks_theta_shape():
    with pytest.raises(ShapeMismatch):
        graphs.phase_shift(np.zeros((3, 3)), [0.1, 0.2])


def test_passive_transform_identity_and_diagonal_phases():
    rng = np.random.default_rng(9)
    k = random_k(rng, 3, norm=0.5)
    assert np.max(np.abs(graphs.passive_transform(k, np.eye(3)) - k)) == 0.0
    th = np.array([0.3, -1.1, 2.0])
    w = np.diag(np.exp(-1j * th))
    assert np.max(np.abs(graphs.passive_transform(k, w) - graphs.phase_shift(k, th))) < 1e-14


def test_passive_transform_preserves_norm_and_symmetry():
    rng = np.random.default_rng(13)
    for n in (2, 5):
        k = random_k(rng, n, norm=0.7)
        w = random_unitary(rng, n)
        kp = graphs.passive_transform(k, w)
        assert np.max(np.abs(kp - kp.T)) < 1e-12
        assert abs(np.linalg.norm(kp, 2) - 0.7) < 1e-12


def test_passive_transform_rejects_non_unitary():
    with pytest.raises(NonUnitary):
        graphs.passive_transform(np.zeros((2, 2)), np.ones((2, 2)))


def test_hgraph_zero_and_sigma_x():
    assert np.max(np.abs(graphs.hgraph_k(np.zeros((3, 3)), 0.7))) == 0.0
    k = graphs.hgraph_k(SX, 0.5)
    assert np.max(np.abs(k - np.tanh(0.5) * SX)) < 1e-15


def test_hgraph_self_inverse_collapses_to_scaled_graph():
    rng = np.random.default_rng(21)
    g0 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    g = np.zeros((4, 4))
    g[:2, 2:] = g0
    g[2:, :2] = g0.T
    assert np.max(np.abs(g @ g - np.eye(4))) < 1e-12
    k = graphs.hgraph_k(g, 0.8)
    assert np.max(np.abs(k - np.tanh(0.8) * g)) < 1e-12


def test_hgraph_small_alpha_series():
    # the odd tanh series is an independent check at small argument
    a = 0.1
    series = a - a**3 / 3 + 2 * a**5 / 15 - 17 * a**7 / 315
    k = graphs.hgraph_k(SX, a)
    assert abs(k[0, 1] - series) < 1e-10


def test_hgraph_rejects_bad_inputs():
    with pytest.raises(NonSymmetricG):
        graphs.hgraph_k(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)
    with pytest.raises(NonSymmetricG):
        graphs.hgraph_k(SX + 0.1j * np.eye(2), 0.5)
    with pytest.raises(ShapeMismatch):
        graphs.hgraph_k(np.zeros((0, 0)), 0.5)
    for alpha in (0.0, np.inf):
        with pytest.raises(NonPositiveAlpha):
            graphs.hgraph_k(SX, alpha)


def test_tms_k_values_and_norm():
    k = graphs.tms_k(0.5)
    assert abs(k[0, 1] - 0.4621171573) < 1e-10
    assert k[0, 0] == 0.0 and k[1, 1] == 0.0
    assert np.max(np.abs(k - k.T)) == 0.0
    assert np.max(np.abs(graphs.tms_k(1e-8))) < 2e-8
    for a in (0.1, 1.0, 3.0):
        assert abs(np.linalg.norm(graphs.tms_k(a), 2) - np.tanh(a)) < 1e-12
    for alpha in (-1.0, np.inf):
        with pytest.raises(NonPositiveAlpha):
            graphs.tms_k(alpha)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(17)
    m = random_k(rng, 3, norm=0.4)
    blob = json.dumps(graphs.matrix_to_json(m))
    back = graphs.matrix_from_json(blob)
    assert np.array_equal(back, m)


def test_matrix_from_json_checks_entry_count():
    with pytest.raises(ShapeMismatch):
        graphs.matrix_from_json({"n": 2, "entries": [[0.0, 0.0]]})


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 2, "entries": [[0, 0], [1], [1, 0], [0, 0]]},
        {"n": 1, "entries": ["ab"]},
        [],
        {"n": "x", "entries": []},
        {"n": 1},
        {"n": -1, "entries": [[0, 0]]},
        {"n": 2.9, "entries": [[0, 0], [0.1, 0], [0.1, 0], [0, 0]]},
        {"n": 1, "entries": [[float("nan"), 0.0]]},
        {"n": 1, "entries": [[0.0, float("-inf")]]},
        '{"n": 1, "entries": [[Infinity, 0]]}',
        {"n": 0, "entries": []},
    ],
)
def test_matrix_from_json_rejects_malformed_input(obj):
    with pytest.raises(ShapeMismatch):
        graphs.matrix_from_json(obj)


def test_edges_walk_the_upper_triangle_above_the_cutoff():
    k = np.array([[0.5, 1e-12, -0.25j], [1e-12, 0.0, 0.1], [-0.25j, 0.1, 0.0]])
    assert graphs.edges(k) == [(0, 0, 0.5 + 0j), (0, 2, -0.25j), (1, 2, 0.1 + 0j)]
    assert all(type(v) is complex for _, _, v in graphs.edges(k))


def test_format_weight_rendering():
    assert graphs.format_weight(np.tanh(0.5)) == "0.462117"
    assert graphs.format_weight(0.3 - 0.4j) == "0.3-0.4i"
    assert graphs.format_weight(-0.25) == "-0.25"


def test_to_dot_edges_and_styles():
    dot = graphs.to_dot(graphs.tms_k(0.5))
    assert dot.startswith("graph K {")
    assert 'label="0.462117"' in dot
    assert dot.count(" -- ") == 1
    flipped = graphs.to_dot(graphs.phase_shift(graphs.tms_k(0.5), [0.0, np.pi]))
    assert "style=dashed" in flipped


def test_to_dot_drops_dust_edges_and_checks_labels():
    small = np.zeros((2, 2), dtype=complex)
    small[0, 1] = small[1, 0] = 1e-10
    assert " -- " not in graphs.to_dot(small)
    with pytest.raises(ShapeMismatch):
        graphs.to_dot(np.zeros((2, 2)), labels=["only-one"])
