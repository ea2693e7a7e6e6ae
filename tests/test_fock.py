"""Truncated-Fock oracle: the recursion, operator application, spin view."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fock_vectors,
    hafnian_amplitudes,
    linear_nullifier_residual,
    random_hermitian,
    random_k,
    random_unitary,
)
from gnl import fock, graphs, nullifiers, schwinger, states
from gnl.errors import (
    BadPairing,
    FockTooLarge,
    InconsistentRecursion,
    OddCutoff,
    ShapeMismatch,
)


def test_vacuum_state():
    v = fock.state_from_k(np.zeros((3, 3)), 4)
    assert v.amplitudes == {(0, 0, 0): 1.0 + 0.0j}
    assert v.norm() == 1.0


def test_tms_amplitudes_are_geometric():
    a = 0.5
    v = fock.state_from_k(graphs.tms_k(a), 12)
    t = np.tanh(a)
    for n in range(1, 7):
        ratio = v.amplitude((n, n)) / v.amplitude((n - 1, n - 1))
        assert abs(ratio - t) < 1e-10
    for occ in v.amplitudes:
        assert occ[0] == occ[1]


def test_only_even_sectors_are_populated():
    rng = np.random.default_rng(101)
    v = fock.state_from_k(random_k(rng, 3, norm=0.5), 8)
    assert all(sum(occ) % 2 == 0 for occ in v.amplitudes)
    assert abs(v.norm() - 1.0) < 1e-12


def test_recursion_against_dense_ladder_algebra():
    rng = np.random.default_rng(103)
    k = random_k(rng, 3, norm=0.6)
    v = fock.state_from_k(k, 8)
    assert linear_nullifier_residual(k, v) < 1e-10


def test_amplitudes_are_stable_across_cutoffs():
    k = graphs.tms_k(0.6)
    v8 = fock.state_from_k(k, 8)
    v10 = fock.state_from_k(k, 10)
    scale = v10.amplitude((0, 0)) / v8.amplitude((0, 0))
    for occ, amp in v8.amplitudes.items():
        assert abs(v10.amplitude(occ) - scale * amp) < 1e-12


def test_state_from_k_input_guards():
    with pytest.raises(OddCutoff):
        fock.state_from_k(np.zeros((2, 2)), 7)
    with pytest.raises(OddCutoff):
        fock.state_from_k(np.zeros((2, 2)), 0)
    with pytest.raises(ShapeMismatch):
        fock.state_from_k(np.zeros((2, 3)), 4)
    with pytest.raises(ShapeMismatch):
        fock.state_from_k(np.zeros((0, 0)), 4)
    with pytest.raises(InconsistentRecursion):
        fock.state_from_k(np.array([[0.0, 0.5], [0.2, 0.0]]), 4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    cutoff=st.sampled_from([2, 4, 6, 8]),
    norm=st.floats(0.05, 0.95),
)
def test_amplitudes_match_the_hafnian_reference(seed, n, cutoff, norm):
    k = random_k(np.random.default_rng(seed), n, norm=norm)
    v = fock.state_from_k(k, cutoff)
    ref = hafnian_amplitudes(k, cutoff)
    assert set(v.amplitudes) <= set(ref)
    scale = {}
    for occ, c in ref.items():
        scale[sum(occ)] = max(scale.get(sum(occ), 0.0), abs(c))
    for occ, c in ref.items():
        assert abs(v.amplitude(occ) - c) <= 1e-12 * scale[sum(occ)], occ


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 6),
    cutoff=st.sampled_from([2, 4, 6]),
    skew=st.floats(1e-6, 0.1),
)
def test_a_single_asymmetric_entry_is_caught(seed, n, cutoff, skew):
    # every route is compared, so one K_ij != K_ji anywhere fails sector 2
    rng = np.random.default_rng(seed)
    k = random_k(rng, n, norm=0.5)
    i, j = rng.choice(n, 2, replace=False)
    k[i, j] += skew
    with pytest.raises(InconsistentRecursion):
        fock.state_from_k(k, cutoff)


@pytest.mark.parametrize("cutoff", [2, 4])
def test_forty_mode_product_state_has_exact_ranks(cutoff):
    # 20 disjoint TMS pairs: 3^40 > 2^63, so a base-(cutoff + 1) code of
    # the occupations would wrap in int64
    t = np.tanh(0.4)
    k = np.kron(np.eye(20), graphs.tms_k(0.4))
    v = fock.state_from_k(k, cutoff)
    expected = {(0,) * 40: 1.0}
    for _ in range(cutoff // 2):
        for occ, c in list(expected.items()):
            for p in range(20):
                nxt = list(occ)
                nxt[2 * p] += 1
                nxt[2 * p + 1] += 1
                expected[tuple(nxt)] = c * t
    c0 = 1.0 / math.sqrt(sum(c * c for c in expected.values()))
    assert set(v.amplitudes) == set(expected)
    for occ, c in expected.items():
        assert abs(v.amplitudes[occ] - c0 * c) <= 1e-14


def test_oversized_fock_spaces_fail_before_allocating():
    k = np.zeros((40, 40))
    estimate = r"C\(59, 39\) = 2\.795e\+15 amplitudes, about .* bytes"
    with pytest.raises(FockTooLarge, match=estimate):
        fock.state_from_k(k, 20)
    with pytest.raises(FockTooLarge):
        fock.nullifier_residual(np.eye(40), k, 20)
    v = fock.FockVector(40, 20, {(20,) + (0,) * 39: 1.0 + 0.0j})
    with pytest.raises(FockTooLarge):
        fock.apply_quadratic(np.eye(40), v)
    # a 6-spin wire (12 modes) at cutoff 8 stays within the limit
    v = fock.state_from_k(np.zeros((12, 12)), 8)
    assert v.amplitudes == {(0,) * 12: 1.0 + 0.0j}


def test_apply_quadratic_single_ladder_steps():
    v = fock.FockVector(2, 4, {(1, 0): 1.0 + 0.0j})
    out = fock.apply_quadratic(np.eye(2), v)
    assert out.amplitudes == {(1, 0): 1.0 + 0.0j}
    v = fock.FockVector(2, 4, {(0, 1): 1.0 + 0.0j})
    out = fock.apply_quadratic(0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]), v)
    assert out.amplitudes == {(1, 0): 0.5 + 0.0j}


def test_apply_quadratic_sqrt_weights():
    v = fock.FockVector(2, 6, {(0, 2): 1.0 + 0.0j})
    hop = np.zeros((2, 2))
    hop[0, 1] = 1.0
    out = fock.apply_quadratic(hop, v)
    assert abs(out.amplitude((1, 1)) - np.sqrt(2.0)) < 1e-15


def test_apply_quadratic_annihilates_on_a_nullifier():
    v = fock.state_from_k(graphs.tms_k(0.8), 10)
    out = fock.apply_quadratic(0.5 * np.diag([1.0, -1.0]), v)
    assert out.norm() < 1e-14


def test_apply_quadratic_is_linear_and_checks_shapes():
    rng = np.random.default_rng(107)
    v = fock.state_from_k(random_k(rng, 2, norm=0.5), 6)
    m = np.array([[0.2, 0.1 - 0.3j], [0.1 + 0.3j, -0.4]])
    doubled = fock.apply_quadratic(2.0 * m, v)
    single = fock.apply_quadratic(m, v)
    for occ, amp in doubled.amplitudes.items():
        assert abs(amp - 2.0 * single.amplitude(occ)) < 1e-14
    with pytest.raises(ShapeMismatch):
        fock.apply_quadratic(np.eye(3), v)


def test_nullifier_residual_separates_the_two_cases():
    k = graphs.tms_k(0.5)
    assert fock.nullifier_residual(0.5 * np.diag([1.0, -1.0]), k, 16) < 1e-10
    sx = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert fock.nullifier_residual(sx, k, 16) > 0.1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    levels=st.lists(st.sampled_from([0.0, 0.15, 0.4, 0.7]), min_size=2, max_size=5),
)
def test_criterion_agrees_with_the_fock_residual(seed, levels):
    rng = np.random.default_rng(seed)
    n = len(levels)
    w = random_unitary(rng, n)
    k = (w * levels) @ w.T
    for g in nullifiers.nullifier_space(k).generators:
        assert fock.nullifier_residual(g, k, 6) <= 1e-12
    m = random_hermitian(rng, n)
    _, res = nullifiers.is_nullifier(m, k)
    if res > 1e-3:
        # sector 2 alone gives |c_0| |MK + (MK)^T|_F / sqrt(2)
        s = m @ k + (m @ k).T
        c0 = abs(fock.state_from_k(k, 6).amplitude((0,) * n))
        floor = c0 * np.linalg.norm(s) / math.sqrt(2.0)
        assert floor > 1e-4
        assert fock.nullifier_residual(m, k, 6) >= (1.0 - 1e-9) * floor


def test_nullifier_residual_streams_its_sectors():
    layout = states.WireLayout(6, 0.5)
    k = states.dual_rail_wire(layout)
    m = schwinger.expression_to_matrix(states.wire_local_nullifiers(layout)[0])
    tracemalloc.start()
    try:
        res = fock.nullifier_residual(m, k, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res < 1e-12
    assert peak <= 4e6, f"peak {peak / 1e6:.2f} MB"


def test_wire_local_residuals_at_small_cutoff():
    layout = states.WireLayout(3, 0.5)
    k = states.dual_rail_wire(layout)
    for expr in states.wire_local_nullifiers(layout):
        m = schwinger.expression_to_matrix(expr)
        assert fock.nullifier_residual(m, k, 6) < 1e-9


def test_spin_basis_view_relabels_occupations():
    pairing = states.SpinPairing(((0, 1),))
    v = fock.FockVector(2, 4, {(2, 0): 1.0 + 0.0j})
    view = fock.spin_basis_view(v, pairing)
    assert view.amplitude(((1.0, 1.0),)) == 1.0 + 0.0j


def test_spin_view_of_the_tms_pair_is_flat_per_sector():
    v = fock.state_from_k(states.tms_pair(0.5), 8)
    view = fock.spin_basis_view(v, states.tms_pair_pairing())
    by_s = {}
    for key, amp in view.amplitudes.items():
        (sa, ma), (sb, mb) = key
        assert sa == sb and ma == mb
        by_s.setdefault(sa, []).append(amp)
    for s, amps in by_s.items():
        assert len(amps) == int(2 * s) + 1
        assert max(abs(a - amps[0]) for a in amps) < 1e-10
    t = np.tanh(0.5)
    assert abs(by_s[1.0][0] / by_s[0.5][0] - t) < 1e-10


def test_spin_view_rejects_a_mismatched_pairing():
    v = fock.FockVector(4, 4, {(0, 0, 0, 0): 1.0 + 0.0j})
    with pytest.raises(BadPairing):
        fock.spin_basis_view(v, states.SpinPairing(((0, 1),)))


def test_fock_json_round_trip_drops_dust_and_sorts():
    v = fock.state_from_k(graphs.tms_k(0.5), 6)
    v.amplitudes[(3, 1)] = 1e-16 + 0.0j
    blob = fock.fock_to_json(v)
    assert all(
        abs(complex(row["re"], row["im"])) >= 1e-14 for row in blob["amps"]
    )
    occs = [tuple(row["occ"]) for row in blob["amps"]]
    assert occs == sorted(occs, key=lambda o: (sum(o), o))
    back = fock.fock_from_json(json.dumps(blob))
    assert back.n_modes == 2 and back.cutoff == 6
    for row in blob["amps"]:
        assert back.amplitude(row["occ"]) == complex(row["re"], row["im"])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(v=fock_vectors())
def test_export_table_sorts_the_kept_amplitudes(v):
    kept = {o: c for o, c in v.amplitudes.items() if abs(c) >= fock.EXPORT_CUTOFF}
    order = sorted(kept, key=lambda o: (sum(o), o))
    occ, amps = fock.export_table(v)
    assert occ.shape == (len(order), v.n_modes)
    assert list(map(tuple, occ.tolist())) == order
    expected = np.array([kept[o] for o in order], dtype=complex)
    assert amps.tobytes() == expected.tobytes()  # bit for bit: -0.0 and NaN too


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 2, "cutoff": 4, "amps": [{"occ": [1, 1, 1], "re": 1.0, "im": 0.0}]},
        {"n": 2, "cutoff": 4, "amps": [{"occ": [3, 3], "re": 1.0, "im": 0.0}]},
        {"n": 2, "cutoff": 4, "amps": [{"occ": [1], "re": 1.0, "im": 0.0}]},
        {"n": 2, "cutoff": 4, "amps": [{"occ": [-1, 1], "re": 1.0, "im": 0.0}]},
        {"n": 2, "cutoff": 4, "amps": [{"occ": [1.5, 0], "re": 1.0, "im": 0.0}]},
        {"n": 2, "cutoff": 4, "amps": [{"occ": "11", "re": 1.0, "im": 0.0}]},
        {"n": 2, "cutoff": 4, "amps": [{"occ": [1, 1], "re": "1", "im": 0.0}]},
        {"n": 2, "cutoff": 4, "amps": [{"occ": [1, 1], "re": 1.0}]},
        {"n": 2, "cutoff": 4, "amps": [[1, 1]]},
        {"n": 2, "cutoff": 4},
        {"n": 2.0, "cutoff": 4, "amps": []},
        {"n": 0, "cutoff": 4, "amps": []},
        {"n": 2, "cutoff": -2, "amps": []},
        [],
        "not json",
        '{"n": 2, "cutoff": 4, "amps": [',
    ],
)
def test_fock_from_json_rejects_malformed_input(obj):
    with pytest.raises(ShapeMismatch):
        fock.fock_from_json(obj)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_the_oracle_rejects_a_non_finite_k(value):
    # a NaN entry gave a FockVector of NaN amplitudes and a RuntimeWarning
    k = np.array([[0.0, value], [value, 0.0]])
    with pytest.raises(ShapeMismatch):
        fock.state_from_k(k, 4)
    with pytest.raises(ShapeMismatch):
        fock.nullifier_residual(np.eye(2), k, 4)
