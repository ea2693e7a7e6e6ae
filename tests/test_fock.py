"""Truncated-Fock oracle: the recursion, operator application, the export."""

import collections
import itertools
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_apply,
    dense_residual,
    dense_state,
    dense_vector,
    fock_vector,
    fock_vectors,
    hafnian_amplitudes,
    linear_nullifier_residual,
    quadratic_reference,
    random_hermitian,
    random_k,
    random_unitary,
    reference_export_table,
)
from gnl import cli, fock, graphs, nullifiers, schwinger, states
from gnl.errors import (
    FockTooLarge,
    InconsistentRecursion,
    NonSymmetric,
    NormAtOrAboveOne,
    OddCutoff,
    ShapeMismatch,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_vacuum_state():
    v = fock.state_from_k(np.zeros((3, 3)), 4)
    assert v.amplitudes == {(0, 0, 0): 1.0 + 0.0j}
    assert v.norm() == 1.0


@pytest.mark.parametrize("occ", [(2,), (1, 1, 0)])
def test_an_occupation_of_the_wrong_length_is_refused(occ):
    # (2,) was broadcast against both modes and read c(2, 2) = 0.1903, and a
    # long occupation reached numpy's own ValueError
    v = fock.state_from_k(graphs.tms_k(0.5), 4)
    with pytest.raises(ShapeMismatch, match=rf"need 2 occupations, got shape \({len(occ)},\)"):
        v.amplitude(occ)
    assert v.amplitude((2, 2)) == pytest.approx(0.1903, abs=1e-4)


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
    with pytest.raises(NonSymmetric, match="K is not symmetric"):
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
    # the symmetry gate of nullifier_space: routes that disagree would read
    # as a recursion defect
    rng = np.random.default_rng(seed)
    k = random_k(rng, n, norm=0.5)
    i, j = rng.choice(n, 2, replace=False)
    k[i, j] += skew
    with pytest.raises(NonSymmetric):
        fock.state_from_k(k, cutoff)
    with pytest.raises(NonSymmetric):
        fock.nullifier_residual(np.eye(n), k, cutoff)


def test_an_asymmetric_k_is_refused_by_every_check():
    # the oracle raised InconsistentRecursion for it, and the symmetry sweep
    # passed it with a deviation of 1.4e-17
    k = np.array([[0.0, 0.5], [0.1, 0.0]])
    m = 0.5 * np.diag([1.0, -1.0])
    for check in (
        lambda: fock.state_from_k(k, 4),
        lambda: fock.nullifier_residual(m, k, 4),
        lambda: nullifiers.verify_symmetry(k, m, np.linspace(0.0, 1.0, 5)),
        lambda: nullifiers.nullifier_space(k),
    ):
        with pytest.raises(NonSymmetric, match="K is not symmetric within tolerance"):
            check()


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
    amplitudes = v.amplitudes
    assert set(amplitudes) == set(expected)
    for occ, c in expected.items():
        assert abs(amplitudes[occ] - c0 * c) <= 1e-14


def test_oversized_fock_spaces_fail_before_allocating():
    k = np.zeros((40, 40))
    estimate = r"C\(60, 40\) = 4\.192e\+15 amplitudes, about .* bytes"
    with pytest.raises(FockTooLarge, match=estimate):
        fock.state_from_k(k, 20)
    with pytest.raises(FockTooLarge):
        fock.nullifier_residual(np.eye(40), k, 20)
    # a 6-spin wire (12 modes) at cutoff 8 and 16 modes at cutoff 8 stay
    # within the limit
    v = fock.state_from_k(np.zeros((12, 12)), 8)
    assert v.amplitudes == {(0,) * 12: 1.0 + 0.0j}
    fock._check_size(16, 8)


def test_a_long_one_mode_ladder_fails_before_allocating():
    # the gate bounded only the largest sector, one amplitude for one mode,
    # so a 1-mode K passed at any cutoff: 160 MB at cutoff 10^7
    tracemalloc.start()
    try:
        with pytest.raises(FockTooLarge, match=r"C\(10000001, 1\) = 1\.000e\+07"):
            fock.state_from_k(np.array([[0.5]]), 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"


def test_apply_quadratic_single_ladder_steps():
    v = fock_vector(2, 4, {(1, 0): 1.0 + 0.0j})
    out = fock.apply_quadratic(np.eye(2), v)
    assert out.amplitudes == {(1, 0): 1.0 + 0.0j}
    v = fock_vector(2, 4, {(0, 1): 1.0 + 0.0j})
    out = fock.apply_quadratic(0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]), v)
    assert out.amplitudes == {(1, 0): 0.5 + 0.0j}


def test_apply_quadratic_sqrt_weights():
    v = fock_vector(2, 6, {(0, 2): 1.0 + 0.0j})
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    cutoff=st.sampled_from([2, 4, 6, 8]),
    real=st.booleans(),
    exponent=st.floats(-6.0, 0.0),
)
def test_a_failing_residual_matches_the_dense_reference(seed, n, cutoff, real, exponent):
    # a scaled random Hermitian M is no nullifier: its residual, from 1e-6
    # up, and the vector adag M a psi are pinned, every sector included
    rng = np.random.default_rng(seed)
    k = random_k(rng, n, norm=0.6)
    if real:
        k = k.real * (0.6 / np.linalg.norm(k.real, 2))
    m = 10.0**exponent * random_hermitian(rng, n)
    occs, ref = quadratic_reference(m, k, cutoff)
    norm = np.linalg.norm(ref)
    assert norm > 0.0
    assert abs(fock.nullifier_residual(m, k, cutoff) - norm) <= 1e-12 * norm
    out = dense_vector(fock.apply_quadratic(m, fock.state_from_k(k, cutoff)), occs)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    cutoff=st.sampled_from([2, 4, 6, 8]),
    real_k=st.booleans(),
    real_m=st.booleans(),
)
def test_the_pair_walk_matches_the_dense_walk_bit_for_bit(seed, n, cutoff, real_k, real_m):
    # the dense walk of conftest.DenseWalk gathered every route and raised
    # through dense (mode, occupation) tables; the pair tables make the same
    # additions in the same order, so every number keeps its bits
    rng = np.random.default_rng(seed)
    k = random_k(rng, n, norm=0.6)
    if real_k:
        k = k.real * (0.6 / np.linalg.norm(k.real, 2))
    m = random_hermitian(rng, n)
    if real_m:
        m = m.real
    v = fock.state_from_k(k, cutoff)
    for (occ, c), (ref_occ, ref) in zip(v.sectors, dense_state(k, cutoff), strict=True):
        assert (occ == ref_occ).all()
        assert c.dtype == ref.dtype and c.tobytes() == ref.tobytes()
    assert fock.nullifier_residual(m, k, cutoff).hex() == dense_residual(m, k, cutoff).hex()
    # and on every sector, odd ones included, of a vector of random amplitudes
    parts = 1 if real_k else 1j
    w = fock.FockVector(n, cutoff, tuple(
        (occ, rng.standard_normal(occ.shape[1]) + parts * rng.standard_normal(occ.shape[1]))
        for occ, *_ in fock._ladder(n, cutoff)))
    for vector in (v, w):
        out = fock.apply_quadratic(m, vector)
        for (occ, c), (ref_occ, ref) in zip(out.sectors, dense_apply(m, vector), strict=True):
            assert occ is ref_occ
            assert c.dtype == ref.dtype and c.tobytes() == ref.tobytes()


def test_nullifier_residual_streams_its_sectors(monkeypatch):
    layout = states.WireLayout(6, 0.5)
    k = states.dual_rail_wire(layout)
    m = schwinger.expression_to_matrix(states.wire_local_nullifiers(layout)[0])
    monkeypatch.setattr(fock, "_ladders", {})  # a cold call builds every sector
    tracemalloc.start()
    try:
        res = fock.nullifier_residual(m, k, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res < 1e-12
    assert peak <= 4e6, f"peak {peak / 1e6:.2f} MB"
    # kept, for each sector t <= 6: the 12 x N_t uint8 occupations, a uint8
    # count of each column, and the pair table of 12 x (N_{t-1} + 1) intp
    # columns and float64 weights; 18564 columns in all, 6188 of them in the
    # sectors t - 1, and 600 bytes a sector
    columns = sum(math.comb(t + 11, 11) for t in range(7))
    below = sum(math.comb(t + 10, 11) for t in range(7))
    assert fock._cached_bytes() == columns * (12 + 1) + 12 * 16 * (below + 7) + 7 * 600


def test_wire_local_residuals_at_small_cutoff():
    layout = states.WireLayout(3, 0.5)
    k = states.dual_rail_wire(layout)
    for expr in states.wire_local_nullifiers(layout):
        m = schwinger.expression_to_matrix(expr)
        assert fock.nullifier_residual(m, k, 6) < 1e-9


def test_spin_view_of_the_tms_pair_is_flat_per_sector():
    # each spin (r, s) of the pair reads (n_r + n_s)/2, (n_r - n_s)/2
    v = fock.state_from_k(states.tms_pair(0.5), 8)
    view = {}
    for occ, amp in v.amplitudes.items():
        key = tuple(((occ[r] + occ[s]) / 2.0, (occ[r] - occ[s]) / 2.0)
                    for r, s in (states.SPIN_A, states.SPIN_B))
        view[key] = view.get(key, 0.0 + 0.0j) + amp
    by_s = {}
    for key, amp in view.items():
        (sa, ma), (sb, mb) = key
        assert sa == sb and ma == mb
        by_s.setdefault(sa, []).append(amp)
    for s, amps in by_s.items():
        assert len(amps) == int(2 * s) + 1
        assert max(abs(a - amps[0]) for a in amps) < 1e-10
    t = np.tanh(0.5)
    assert abs(by_s[1.0][0] / by_s[0.5][0] - t) < 1e-10


def test_fock_json_round_trip_drops_dust_and_sorts():
    amps = dict(fock.state_from_k(graphs.tms_k(0.5), 6).amplitudes)
    amps[(3, 1)] = 1e-16 + 0.0j
    v = fock_vector(2, 6, amps)
    blob = json.loads(cli._json_dumps(cli._fock_payload(v)))
    assert all(
        abs(complex(row["re"], row["im"])) >= 1e-14 for row in blob["amps"]
    )
    occs = [tuple(row["occ"]) for row in blob["amps"]]
    assert occs == sorted(occs, key=lambda o: (sum(o), o))
    assert blob["n"] == 2 and blob["cutoff"] == 6
    for row in blob["amps"]:
        assert v.amplitude(row["occ"]) == complex(row["re"], row["im"])


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
    "n, top", [(n, 12) for n in range(1, 6)] + [(n, 8) for n in range(6, 9)] + [(1, 600)]
)
def test_the_ladder_order_is_the_export_order(n, top):
    # export_table concatenates the sectors with no sort: np.lexsort over
    # (total, occ_0, ..., occ_{n-1}) must leave the ladder's rows in place
    occ = np.concatenate([tables[0] for tables in fock._ladder(n, top)], axis=1)
    order = np.lexsort((*occ[::-1], occ.sum(axis=0)))
    assert (order == np.arange(occ.shape[1])).all()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    cutoff=st.sampled_from([2, 4, 6, 8]),
    real=st.booleans(),
)
def test_the_export_matches_the_sorted_dict_export(seed, n, cutoff, real):
    rng = np.random.default_rng(seed)
    k = random_k(rng, n, norm=0.7)
    if real:
        k = k.real * (0.7 / np.linalg.norm(k.real, 2))
    v = fock.state_from_k(k, cutoff)
    occ, amps = fock.export_table(v)
    ref_occ, ref_amps = reference_export_table(v)
    assert occ.dtype == ref_occ.dtype and occ.shape == ref_occ.shape
    assert (occ == ref_occ).all()
    assert amps.tobytes() == ref_amps.tobytes()


def test_a_state_holds_the_cached_tables_of_its_sectors(monkeypatch):
    # the amplitudes' dtype follows K: float64 for a real K, complex128 else
    monkeypatch.setattr(fock, "_ladders", {})
    for phase, dtype in [(1.0, np.float64), (1j, np.complex128)]:
        v = fock.state_from_k(phase * graphs.tms_k(0.5), 6)
        assert [occ.shape[1] for occ, _ in v.sectors] == [1, 3, 5, 7]
        for t, (occ, c) in zip(range(0, 7, 2), v.sectors):
            assert occ is fock._ladders[(2, np.dtype(np.uint8))][1][t][0]
            assert not occ.flags.writeable and c.dtype == dtype


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    cutoff=st.sampled_from([2, 4, 6, 8]),
    phi=st.floats(0.05, 1.5),
    real_m=st.booleans(),
)
def test_the_real_and_complex_routes_agree(seed, n, cutoff, phi, real_m):
    # e^{2i phi} K is the state of K rotated by e^{i phi N}: sector t picks up
    # e^{i phi t}, and adag M a, which keeps N, has the same residual on both
    rng = np.random.default_rng(seed)
    k = random_k(rng, n).real
    k *= 0.7 / np.linalg.norm(k, 2)
    m = random_hermitian(rng, n)
    if real_m:
        m = m.real
    real = fock.state_from_k(k, cutoff)
    rotated = fock.state_from_k(np.exp(2j * phi) * k, cutoff)
    scale = max(np.abs(c).max() for _, c in real.sectors)
    for (occ, c), (occ_c, c_c) in zip(real.sectors, rotated.sectors, strict=True):
        assert occ is occ_c
        assert c.dtype == np.float64 and c_c.dtype == np.complex128
        t = int(occ[:, 0].sum())
        assert np.abs(c_c - np.exp(1j * phi * t) * c).max() <= 1e-14 * scale, t
    res = fock.nullifier_residual(m, k, cutoff)
    res_c = fock.nullifier_residual(m, np.exp(2j * phi) * k, cutoff)
    assert graphs.passes(abs(res - res_c), m, k)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_the_oracle_rejects_a_non_finite_k(value):
    # a NaN entry gave a FockVector of NaN amplitudes and a RuntimeWarning
    k = np.array([[0.0, value], [value, 0.0]])
    with pytest.raises(ShapeMismatch):
        fock.state_from_k(k, 4)
    with pytest.raises(ShapeMismatch):
        fock.nullifier_residual(np.eye(2), k, 4)


@pytest.mark.parametrize(
    "k",
    [graphs.tms_k(40.0), 1e200 * SX, (1.0 - 1e-10) * SX, np.eye(3)],
    ids=["tms-alpha-40", "sx-1e200", "sx-inside-the-margin", "identity"],
)
def test_the_oracle_refuses_a_k_at_or_above_the_edge(k):
    # tanh(40) is 1.0: every sector came out flat, 5.77e-01 at cutoff 4; at
    # 1e200 the recursion overflowed into nine NaN amplitudes
    with pytest.raises(NormAtOrAboveOne):
        fock.state_from_k(k, 4)
    with pytest.raises(NormAtOrAboveOne):
        fock.nullifier_residual(np.eye(len(k)), k, 4)


def test_the_oracle_takes_a_k_just_below_the_edge():
    v = fock.state_from_k((1.0 - 2e-9) * SX, 4)
    assert len(v.amplitudes) == 3 and np.isfinite(list(v.amplitudes.values())).all()


def test_a_nan_route_fails_the_consistency_check():
    # the check read "scale > 0 and spread > tol * scale", False for a NaN
    # scale, so NaN amplitudes passed
    ladder = fock._ladder(2, 2)
    next(ladder)
    odd = next(ladder)[0]
    _, cols, _, occupied = next(ladder)
    d = np.zeros((2, odd.shape[1] + 1), dtype=complex)
    d[0, 0] = np.nan
    with pytest.raises(InconsistentRecursion):
        fock._routes(d, cols, occupied, 2, fock._Scratch(2, 2))


def test_finite_routes_that_disagree_fail_the_consistency_check():
    # (1, 1) is reached from (0, 1) through mode 0 and from (1, 0) through
    # mode 1: routes of 1 and 2 have the mean 1.5 and a spread of 0.5
    # the pairs of mode 0 and of mode 1 each read row i of d, over the odd
    # sector and its spare column
    ladder = fock._ladder(2, 2)
    next(ladder)
    odd = next(ladder)[0]
    occ, cols, _, occupied = next(ladder)
    assert odd.T.tolist() == [[0, 1], [1, 0]]
    assert occ.T.tolist() == [[0, 2], [1, 1], [2, 0]] and cols.tolist() == [[1, 2, 3], [0, 1, 3]]
    d = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
    with pytest.raises(InconsistentRecursion, match=r"disagree by 5\.000e-01 in sector 2"):
        fock._routes(d, cols, occupied, 2, fock._Scratch(2, 2))
    d[1] = d[0]
    c = fock._routes(d, cols, occupied, 2, fock._Scratch(2, 2))
    assert c.tolist() == [1.0, 1.0, 1.0, 0.0]


def test_routes_that_disagree_by_1e_8_relative_fail_the_consistency_check():
    # as above, with the routes of mode 1 2e-8 above those of mode 0: the
    # mean of (1, 1) is 1 + 1e-8 and its spread 1e-8, 100 graphs.RTOL
    ladder = fock._ladder(2, 2)
    next(ladder)
    next(ladder)
    _, cols, _, occupied = next(ladder)
    d = np.array([[1.0, 1.0, 0.0], [1.0 + 2e-8, 1.0 + 2e-8, 0.0]])
    with pytest.raises(InconsistentRecursion, match=r"disagree by 1\.000e-08 in sector 2"):
        fock._routes(d, cols, occupied, 2, fock._Scratch(2, 2))


# ----------------------------------------------------------------------
# the sector tables and their cache


def brute_force_sector(n, t):
    """(occ, cols, roots, occupied) of sector t over n modes, by enumeration.

    cols[j, s] is the row of nu_s + e_j in sector t for the occupation nu_s
    of row s of sector t - 1, and roots[j, s] is sqrt(nu_s,j + 1); the last
    column, the spare pairs', is N_t in cols and 1 in roots.
    """
    rows = [o for o in itertools.product(range(t + 1), repeat=n) if sum(o) == t]
    lower = [o for o in itertools.product(range(t), repeat=n) if sum(o) == t - 1]
    here = {o: r for r, o in enumerate(rows)}
    cols = [[here[o[:j] + (o[j] + 1,) + o[j + 1:]] for o in lower] + [len(rows)]
            for j in range(n)]
    roots = [[math.sqrt(o[j] + 1) for o in lower] + [1.0] for j in range(n)]
    occupied = [sum(x > 0 for x in o) for o in rows]
    return (np.array(rows).reshape(len(rows), n).T, np.array(cols), np.array(roots),
            np.array(occupied))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_sector_matches_the_brute_force_reference(n, monkeypatch):
    monkeypatch.setattr(fock, "_ladders", {})
    cold = list(fock._ladder(n, 6))
    warm = list(fock._ladder(n, 6))
    for t, tables in enumerate(cold):
        for got, want in zip(tables, brute_force_sector(n, t), strict=True):
            assert got.shape == want.shape and (got == want).all(), (n, t)
            assert not got.flags.writeable
        # the pairs of mode j are the columns mu with mu_j > 0, each once and
        # in their order, and weigh sqrt(mu_j)
        occ, cols, roots, _ = tables
        for j in range(n):
            assert (cols[j, :-1] == np.flatnonzero(occ[j])).all(), (n, t, j)
            assert (roots[j, :-1] == np.sqrt(occ[j, cols[j, :-1]] * 1.0)).all(), (n, t, j)
        # the second ladder is served the same arrays
        assert all(a is b for a, b in zip(tables, warm[t]))
    assert [len(kept) for _, kept in fock._ladders.values()] == [7]


def test_a_ladder_past_255_photons_gets_its_own_tables(monkeypatch):
    # uint8 tables of a small cutoff must not seed a ladder that needs uint16
    monkeypatch.setattr(fock, "_ladders", {})
    list(fock._ladder(2, 4))
    occ = list(fock._ladder(2, 300))[300][0]
    assert occ.dtype == np.uint16 and occ[:, -1].tolist() == [300, 0]


def test_sector_tables_are_read_only(monkeypatch):
    monkeypatch.setattr(fock, "_ladders", {})
    for tables in (list(fock._ladder(3, 4))[4], list(fock._ladder(3, 4))[4]):
        for a in tables:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1


def _cached_sectors():
    """The (modes, sector) pairs whose tables the cache holds."""
    return {(n, t) for (n, _), (_, kept) in fock._ladders.items() for t in range(len(kept))}


def _bits(v):
    return list(v.amplitudes), np.array(list(v.amplitudes.values())).tobytes()


def test_oracle_results_do_not_depend_on_the_cache(monkeypatch):
    rng = np.random.default_rng(109)
    k = random_k(rng, 4, norm=0.6)
    m = random_hermitian(rng, 4)

    def results():
        v = fock.state_from_k(k, 8)
        return _bits(v), _bits(fock.apply_quadratic(m, v)), fock.nullifier_residual(m, k, 8)

    monkeypatch.setattr(fock, "_ladders", {})
    cold = results()
    warm = results()
    monkeypatch.setattr(fock, "SECTOR_CACHE_BYTES", 0)
    monkeypatch.setattr(fock, "_ladders", {})
    uncached = results()
    assert fock._ladders == {}
    assert cold == warm == uncached


def test_the_cache_keeps_within_its_budget(monkeypatch):
    # sectors 0..8 of 5 modes take 77202 bytes (see _charge); a budget of
    # 20000 keeps sectors 0..5 (15672 bytes; with sector 6, 27692) and
    # builds the rest on every call
    monkeypatch.setattr(fock, "SECTOR_CACHE_BYTES", 20000)
    monkeypatch.setattr(fock, "_ladders", {})
    k = random_k(np.random.default_rng(113), 5, norm=0.5)
    v = fock.state_from_k(k, 8)
    assert fock._cached_bytes() == 15672
    assert _cached_sectors() == {(5, t) for t in range(6)}
    for t, tables in enumerate(fock._ladder(5, 8)):
        for got, want in zip(tables, brute_force_sector(5, t)):
            assert (got == want).all(), t
    assert fock._cached_bytes() == 15672
    assert _bits(fock.state_from_k(k, 8)) == _bits(v)
    for occ, c in hafnian_amplitudes(k, 8).items():
        assert abs(v.amplitude(occ) - c) <= 1e-12, occ


def test_a_new_ladder_drops_other_ladders_to_fit(monkeypatch):
    # 5 modes keep sectors 0..5 (15672 bytes of a budget of 20000); 3 modes
    # fit beside them up to sector 3 (3152 bytes), and sector 4 (1188 more)
    # drops the 5-mode tables, so the ladder in use is the one kept
    monkeypatch.setattr(fock, "SECTOR_CACHE_BYTES", 20000)
    monkeypatch.setattr(fock, "_ladders", {})
    list(fock._ladder(5, 5))
    assert fock._cached_bytes() == 15672
    for t, tables in enumerate(fock._ladder(3, 8)):
        for got, want in zip(tables, brute_force_sector(3, t)):
            assert (got == want).all(), t
    three = {(3, t) for t in range(9)}
    assert _cached_sectors() == three
    assert fock._cached_bytes() == 12252
    # a sector past the budget on its own (128 modes, sector 1: 21208 bytes)
    # is built and dropped, and drops no other ladder
    assert list(fock._ladder(128, 1))[1][0].shape == (128, 128)
    assert _cached_sectors() == three | {(128, 0)}


def test_a_long_one_mode_ladder_holds_no_more_than_the_budget(monkeypatch):
    # the budget counted only the arrays' bytes: a 1-mode ladder's 4,001
    # sectors counted as 28 kB and held 2.3 MB, over a budget of 1 MiB
    monkeypatch.setattr(fock, "SECTOR_CACHE_BYTES", 2**20)
    monkeypatch.setattr(fock, "_ladders", {})
    tracemalloc.start()
    try:
        collections.deque(fock._ladder(1, 4000), maxlen=0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < fock._cached_bytes() <= fock.SECTOR_CACHE_BYTES
    assert held <= fock.SECTOR_CACHE_BYTES, f"held {held / 1e6:.1f} MB"


def test_threads_keep_the_cache_within_its_budget(monkeypatch):
    # threads that fill the cache together, switching every microsecond:
    # without the lock around the budget test and the insertion, one thread
    # summed the cache's bytes while another inserted (RuntimeError:
    # dictionary changed size during iteration), and two could pass the
    # budget together
    monkeypatch.setattr(fock, "SECTOR_CACHE_BYTES", 20000)
    expected = {n: [brute_force_sector(n, t) for t in range(7)] for n in (3, 4, 5, 6)}
    errors, over = [], []

    def work(n):
        try:
            for t, tables in enumerate(fock._ladder(n, 6)):
                for got, want in zip(tables, expected[n][t]):
                    assert (got == want).all(), (n, t)
            with fock._ladders_lock:
                kept = fock._cached_bytes()
            if kept > fock.SECTOR_CACHE_BYTES:
                over.append(kept)
        except Exception as exc:  # a thread's failure is reported by the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            monkeypatch.setattr(fock, "_ladders", {})
            threads = [threading.Thread(target=work, args=(n,)) for n in (3, 4, 5, 6) * 2]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and over == []


class _CountingDict(dict):
    """A dict that counts the entries read from it."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __iter__(self):
        for key in super().__iter__():
            self.reads += 1
            yield key

    def values(self):
        for value in super().values():
            self.reads += 1
            yield value

    def items(self):
        for item in super().items():
            self.reads += 1
            yield item


def test_a_ladder_reads_the_cache_a_bounded_number_of_times_per_sector(monkeypatch):
    # each insert summed the bytes of every cached sector: a one-mode ladder
    # at cutoff 6000 spent 23 of its 26 s there, O(T^2) in its T sectors
    ladders = _CountingDict()
    monkeypatch.setattr(fock, "_ladders", ladders)
    top = 2000
    list(fock._ladder(1, top))
    reads = ladders.reads
    [(held, kept)] = ladders.values()
    assert len(kept) == top + 1
    assert reads <= 2 * (top + 1), reads
    assert held == sum(map(fock._charge, kept)) == fock._cached_bytes()


def test_the_kept_byte_count_follows_inserts_and_evictions(monkeypatch):
    monkeypatch.setattr(fock, "SECTOR_CACHE_BYTES", 20000)
    monkeypatch.setattr(fock, "_ladders", {})

    def kept():
        return sum(fock._charge(t) for _, ladder in fock._ladders.values() for t in ladder)

    list(fock._ladder(5, 5))
    assert kept() == fock._cached_bytes() == 15672
    list(fock._ladder(3, 8))  # drops the 5-mode tables
    assert kept() == fock._cached_bytes() == 12252
    list(fock._ladder(128, 1))  # keeps sector 0 (2777 bytes), not sector 1 (21208)
    assert kept() == fock._cached_bytes() == 12252 + 2777
    # 2 modes, sectors 0..4: 15 columns of 2 + 1 bytes, 30 pairs (2 (N_{t-1}
    # + 1) a sector) of an intp column and a float64 weight, and 600 bytes a
    # sector
    list(fock._ladder(2, 4))
    assert kept() == fock._cached_bytes() == 12252 + 2777 + 15 * 3 + 30 * 16 + 5 * 600


def _assert_cached_prefixes():
    """Each cached ladder holds the true tables of its sectors 0..T-1."""
    for (n, _), (held, kept) in fock._ladders.items():
        for t, tables in enumerate(kept):
            for got, want in zip(tables, brute_force_sector(n, t)):
                assert got.shape == want.shape and (got == want).all(), (n, t)
        assert held == sum(map(fock._charge, kept)), n


def test_a_ladder_caches_only_a_prefix_of_its_sectors(monkeypatch):
    # a sector is kept only where its ladder holds every sector before it:
    # not after that ladder was dropped mid-walk, nor past a sector that
    # did not fit
    monkeypatch.setattr(fock, "SECTOR_CACHE_BYTES", 30000)
    monkeypatch.setattr(fock, "_ladders", {})
    five = fock._ladder(5, 8)
    for _ in range(3):
        next(five)
    assert _cached_sectors() == {(5, t) for t in range(3)}
    # 4 modes up to sector 8 take 29571 bytes: they drop the 5-mode tables,
    # and the rest of the 5-mode walk keeps none of its sectors 3..8
    list(fock._ladder(4, 8))
    collections.deque(five, maxlen=0)
    assert _cached_sectors() == {(4, t) for t in range(9)}
    _assert_cached_prefixes()
    # a 3-mode sector 3 over a budget lowered to 0 is not kept, and neither
    # is any sector past it once the budget is back
    three = fock._ladder(3, 8)
    for _ in range(3):
        next(three)
    monkeypatch.setattr(fock, "SECTOR_CACHE_BYTES", 0)
    next(three)
    monkeypatch.setattr(fock, "SECTOR_CACHE_BYTES", 30000)
    collections.deque(three, maxlen=0)
    assert {key for key in _cached_sectors() if key[0] == 3} == {(3, t) for t in range(3)}
    _assert_cached_prefixes()
    # a fresh walk extends the prefix where it stopped
    list(fock._ladder(3, 8))
    assert _cached_sectors() == {(3, t) for t in range(9)}
    _assert_cached_prefixes()
    assert fock._cached_bytes() == 12252


@pytest.mark.parametrize("entry", ["state_from_k", "apply_quadratic", "nullifier_residual"])
def test_the_size_gate_comes_before_any_cutoff_sized_allocation(entry, monkeypatch):
    # sqrt(0..cutoff) was built before the gate ran: 160 MB at cutoff 10^7
    # (240 MB in nullifier_residual), and 16 GB at 10^9 would be asked for
    cutoff = 10**7
    k = graphs.tms_k(0.5)
    # no vector past the limit can be held in sector arrays: apply_quadratic
    # meets a limit lowered below the 15 amplitudes of sectors 0..4
    v = fock.state_from_k(k, 4)
    calls = {
        "state_from_k": lambda: fock.state_from_k(k, cutoff),
        "apply_quadratic": lambda: fock.apply_quadratic(SX, v),
        "nullifier_residual": lambda: fock.nullifier_residual(SX, k, cutoff),
    }
    if entry == "apply_quadratic":
        monkeypatch.setattr(fock, "MAX_FOCK_AMPLITUDES", 14)
    tracemalloc.start()
    try:
        with pytest.raises(FockTooLarge):
            calls[entry]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"
