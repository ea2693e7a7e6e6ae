"""Named-state library: TMS pairs, Bell analogues, dual-rail wires."""

import numpy as np
import pytest

from gnl import fock, graphs, nullifiers, schwinger, states
from gnl.errors import (
    BadPairing,
    IndexOutOfRange,
    NonPositiveAlpha,
    OddSpinCount,
    SpanTooLong,
    TooFewSpins,
    UnknownVariant,
    WireTooSmall,
)


def _matrix(expr):
    return schwinger.expression_to_matrix(expr)


def test_spin_pairing_validation():
    p = states.tms_pair_pairing()
    assert p.pairs == (states.SPIN_A, states.SPIN_B)
    assert p.n_modes == 4
    with pytest.raises(BadPairing):
        states.SpinPairing(((0, 1), (1, 2)))


def test_tms_pair_edges():
    k = states.tms_pair(0.5)
    t = np.tanh(0.5)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = t
    expected[2, 3] = expected[3, 2] = t
    assert np.array_equal(k, expected)
    for alpha in (0.0, -0.1, np.inf):
        with pytest.raises(NonPositiveAlpha):
            states.tms_pair(alpha)
        with pytest.raises(NonPositiveAlpha):
            states.tms_pair(0.5, alpha_second=alpha)


def test_tms_pair_nullifiers_all_pass():
    k = states.tms_pair(0.5)
    exprs = states.tms_pair_nullifiers()
    assert len(exprs) == 4
    for expr in exprs:
        ok, res = nullifiers.is_nullifier(_matrix(expr), k)
        assert ok and res < 1e-12


def test_tms_pair_detuning_breaks_the_mixing_axes_only():
    k = states.tms_pair(0.5, alpha_second=0.6)
    exprs = states.tms_pair_nullifiers()
    for expr in exprs[:2]:
        ok, res = nullifiers.is_nullifier(_matrix(expr), k)
        assert not ok and res > 1e-3
    # z and the photon-number difference are per-pair counting identities
    # (n0 = n1 and n2 = n3 on each squeezed pair) and never see the split
    for expr in exprs[2:]:
        ok, res = nullifiers.is_nullifier(_matrix(expr), k)
        assert ok and res < 1e-12


def test_four_mode_symmetries_pass_and_detune():
    k = states.tms_pair(0.5)
    detuned = states.tms_pair(0.5, alpha_second=0.6)
    entries = states.four_mode_symmetries(0.5)
    assert len(entries) == 3
    grid = np.linspace(0.0, 2.0 * np.pi, 16)
    for expr, text in entries:
        assert isinstance(text, str) and text
        m = _matrix(expr)
        ok, _ = nullifiers.is_nullifier(m, k)
        assert ok
        assert nullifiers.verify_symmetry(k, m, grid) < 1e-9
        ok, res = nullifiers.is_nullifier(m, detuned)
        axis = {t.axis for t in expr.terms}
        if axis < {"x", "y"}:
            assert not ok and res > 1e-3
        else:
            assert ok  # the z difference is a counting identity


_BELL_EXPECTED_SIGNS = {
    "phi+": (-1.0, +1.0, -1.0),
    "phi-": (+1.0, -1.0, -1.0),
    "psi+": (-1.0, -1.0, +1.0),
    "psi-": (+1.0, +1.0, +1.0),
}


@pytest.mark.parametrize("variant", states.BELL_VARIANTS)
def test_bell_analogue_nullifier_sign_patterns(variant):
    k, exprs = states.bell_analogue(variant, 0.5)
    assert len(exprs) == 4
    signs = []
    for expr, axis in zip(exprs[:3], ("x", "y", "z")):
        assert {t.axis for t in expr.terms} == {axis}
        coeffs = {t.pair: t.coeff for t in expr.terms}
        assert coeffs[states.SPIN_A] == 1.0
        signs.append(coeffs[states.SPIN_B])
        ok, res = nullifiers.is_nullifier(_matrix(expr), k)
        assert ok and res < 1e-12
    assert tuple(signs) == _BELL_EXPECTED_SIGNS[variant]
    diff = {t.pair: t.coeff for t in exprs[3].terms}
    assert diff == {states.SPIN_A: 1.0, states.SPIN_B: -1.0}
    ok, res = nullifiers.is_nullifier(_matrix(exprs[3]), k)
    assert ok and res < 1e-12


def test_bell_variants_are_the_stated_mode_maps():
    base, _ = states.bell_analogue("phi+", 0.5)
    assert np.array_equal(base, states.tms_pair(0.5))
    minus, _ = states.bell_analogue("phi-", 0.5)
    assert np.max(np.abs(minus - graphs.phase_shift(base, [0.0, 0.0, np.pi, 0.0]))) == 0.0
    y_gen = _matrix(
        schwinger.SchwingerExpression(
            4, [schwinger.SchwingerTerm("y", states.SPIN_A, 1.0)]
        )
    )
    w_y = schwinger.generator_to_unitary(y_gen, np.pi)
    plus, _ = states.bell_analogue("psi+", 0.5)
    assert np.max(np.abs(plus - graphs.passive_transform(minus, w_y))) < 1e-14
    z_gen = _matrix(
        schwinger.SchwingerExpression(
            4, [schwinger.SchwingerTerm("z", states.SPIN_B, 1.0)]
        )
    )
    w_z = schwinger.generator_to_unitary(z_gen, np.pi)
    final, _ = states.bell_analogue("psi-", 0.5)
    assert np.max(np.abs(final - graphs.passive_transform(plus, w_z))) < 1e-14


def test_bell_edge_structure():
    t = np.tanh(0.5)
    minus, _ = states.bell_analogue("phi-", 0.5)
    assert abs(minus[0, 1] - t) < 1e-12
    assert abs(minus[2, 3] + t) < 1e-12
    plus, _ = states.bell_analogue("psi+", 0.5)
    assert abs(plus[0, 1]) < 1e-12 and abs(plus[2, 3]) < 1e-12
    assert abs(abs(plus[0, 3]) - t) < 1e-12
    assert abs(abs(plus[1, 2]) - t) < 1e-12


def test_bell_unknown_variant():
    with pytest.raises(UnknownVariant):
        states.bell_analogue("omega", 0.5)
    for alpha in (0.0, np.inf):
        with pytest.raises(NonPositiveAlpha):
            states.bell_analogue("phi+", alpha)


def test_wire_layout_indexing_and_labels():
    layout = states.WireLayout(3, 0.5)
    assert layout.n_modes == 6
    assert layout.mode_index(1, "a") == 2
    assert layout.mode_index(1, "b") == 3
    assert layout.mode_index(2, 0) == 4
    assert layout.labels() == ["0a", "0b", "1a", "1b", "2a", "2b"]
    with pytest.raises(IndexOutOfRange):
        layout.mode_index(3, "a")
    with pytest.raises(IndexOutOfRange):
        layout.mode_index(0, "c")
    with pytest.raises(TooFewSpins):
        states.WireLayout(1, 0.5)
    for alpha in (0.0, np.inf):
        with pytest.raises(NonPositiveAlpha):
            states.WireLayout(3, alpha)


def test_wire_distributed_edges():
    layout = states.WireLayout(4, 0.5)
    k = states.wire_distributed_k(layout)
    t = np.tanh(0.5)
    for i in range(4):
        r, c = 2 * i + 1, 2 * ((i + 1) % 4)
        assert k[r, c] == t and k[c, r] == t
    assert np.count_nonzero(k) == 8


def test_dual_rail_wire_entries_are_exactly_half_tanh():
    for n in (3, 4, 5):
        layout = states.WireLayout(n, 0.5)
        k = states.dual_rail_wire(layout)
        assert np.max(np.abs(k.imag)) == 0.0
        assert np.max(np.abs(k - k.T)) == 0.0
        half_t = np.tanh(0.5) / 2.0
        nz = np.abs(k[np.abs(k) > 0.0])
        assert np.max(np.abs(nz - half_t)) < 1e-12
    with pytest.raises(TooFewSpins):
        states.dual_rail_wire(states.WireLayout(2, 0.5))


def test_dual_rail_wire_round_trips_through_the_mixer():
    layout = states.WireLayout(4, 0.7)
    w = states.wire_mixer(layout)
    assert np.max(np.abs(w @ w - np.eye(8))) < 1e-12
    k_phys = states.dual_rail_wire(layout)
    back = graphs.passive_transform(k_phys, w.conj().T)
    assert np.max(np.abs(back - states.wire_distributed_k(layout))) < 1e-12


def test_wire_local_nullifiers_pass_and_are_independent():
    for n in (3, 4, 5):
        layout = states.WireLayout(n, 0.5)
        k = states.dual_rail_wire(layout)
        exprs = states.wire_local_nullifiers(layout)
        assert len(exprs) == n
        mats = [_matrix(e) for e in exprs]
        for m in mats:
            ok, res = nullifiers.is_nullifier(m, k)
            assert ok and res <= 1e-10
        stack = np.array([m.ravel() for m in mats])
        assert np.linalg.matrix_rank(stack) == n


def test_wire_local_combinations_still_nullify():
    rng = np.random.default_rng(53)
    layout = states.WireLayout(4, 0.5)
    k = states.dual_rail_wire(layout)
    mats = [_matrix(e) for e in states.wire_local_nullifiers(layout)]
    for _ in range(5):
        weights = rng.standard_normal(len(mats))
        combo = sum(w * m for w, m in zip(weights, mats))
        ok, res = nullifiers.is_nullifier(combo, k)
        assert ok and res < 1e-10


def test_wire_locals_telescope_to_the_global_x_sum():
    layout = states.WireLayout(5, 0.5)
    exprs = states.wire_local_nullifiers(layout)
    total = exprs[0]
    for expr in exprs[1:]:
        total = schwinger.add_expressions(total, expr)
    assert {t.axis for t in total.terms} == {"x"}
    target = _matrix(states.wire_global_x(layout))
    assert np.max(np.abs(_matrix(total) + 2.0 * target)) == 0.0


def test_wire_global_x_passes_and_a_truncated_sum_fails():
    for n in (3, 4):
        layout = states.WireLayout(n, 0.5)
        k = states.dual_rail_wire(layout)
        ok, res = nullifiers.is_nullifier(_matrix(states.wire_global_x(layout)), k)
        assert ok and res <= 1e-10
    layout = states.WireLayout(4, 0.5)
    k = states.dual_rail_wire(layout)
    truncated = schwinger.SchwingerExpression(
        8, [schwinger.SchwingerTerm("x", (2 * i, 2 * i + 1), 1.0) for i in range(3)]
    )
    ok, res = nullifiers.is_nullifier(_matrix(truncated), k)
    assert not ok and res > 1e-3


def test_wire_global_z_needs_even_spin_count():
    for n in (4, 6):
        layout = states.WireLayout(n, 0.5)
        expr = states.wire_global_z(layout)
        ok, res = nullifiers.is_nullifier(_matrix(expr), states.dual_rail_wire(layout))
        assert ok and res <= 1e-10
    with pytest.raises(OddSpinCount):
        states.wire_global_z(states.WireLayout(3, 0.5))


def test_wire_chain_telescopes_with_interior_weight_two():
    layout = states.WireLayout(8, 0.5)
    chain = states.wire_chain_nullifier(layout, 0, 2)
    locals_ = states.wire_local_nullifiers(layout)
    summed = schwinger.add_expressions(
        schwinger.add_expressions(locals_[0], locals_[1]), locals_[2]
    )
    assert np.array_equal(_matrix(chain), _matrix(summed))
    coeffs = {(t.axis, t.pair): t.coeff for t in chain.terms}
    assert coeffs[("0", (0, 1))] == 1.0
    assert coeffs[("x", (0, 1))] == -1.0
    assert coeffs[("x", (2, 3))] == -2.0
    assert coeffs[("x", (4, 5))] == -2.0
    assert coeffs[("0", (6, 7))] == -1.0
    assert coeffs[("x", (6, 7))] == -1.0
    assert ("0", (2, 3)) not in coeffs
    assert ("0", (4, 5)) not in coeffs
    ok, res = nullifiers.is_nullifier(_matrix(chain), states.dual_rail_wire(layout))
    assert ok and res <= 1e-10


def test_wire_chain_span_edge_cases():
    layout = states.WireLayout(4, 0.5)
    single = states.wire_chain_nullifier(layout, 2, 2)
    assert np.array_equal(
        _matrix(single), _matrix(states.wire_local_nullifiers(layout)[2])
    )
    ring = states.wire_chain_nullifier(layout, 0, 3)
    target = _matrix(states.wire_global_x(layout))
    assert np.max(np.abs(_matrix(ring) + 2.0 * target)) == 0.0
    wrapped = states.wire_chain_nullifier(layout, 3, 1)
    ok, _ = nullifiers.is_nullifier(_matrix(wrapped), states.dual_rail_wire(layout))
    assert ok
    with pytest.raises(SpanTooLong):
        states.wire_chain_nullifier(layout, 1, 5)
    with pytest.raises(IndexOutOfRange):
        states.wire_chain_nullifier(layout, 7, 2)


def test_wire_y_symmetry_holds_for_every_size():
    for n in (3, 4, 5, 7):
        layout = states.WireLayout(n, 0.5)
        expr = states.wire_y_symmetry(layout)
        assert all(t.axis == "y" for t in expr.terms)
        assert len(expr.terms) == 8
        ok, res = nullifiers.is_nullifier(_matrix(expr), states.dual_rail_wire(layout))
        assert ok and res <= 1e-10
    with pytest.raises(WireTooSmall):
        states.wire_y_symmetry(states.WireLayout(2, 0.5))


def test_wire_overlap_forms_are_the_same_operator():
    layout = states.WireLayout(3, 0.5)
    z_form, local_form = states.wire_overlap_forms(layout)
    assert np.max(np.abs(_matrix(z_form) - _matrix(local_form))) == 0.0
    assert {t.axis for t in z_form.terms} == {"z", "x"}


def test_six_mode_decomposition_nullifies_and_factors_compose():
    for n in (3, 4):
        layout = states.WireLayout(n, 0.5)
        expr, factors = states.six_mode_symmetry_decomposition(layout, 0.3)
        m = _matrix(expr)
        ok, res = nullifiers.is_nullifier(m, states.dual_rail_wire(layout))
        assert ok and res <= 1e-10
        assert len(factors) == 4
        full = factors[3] @ factors[2] @ factors[1] @ factors[0]
        assert np.max(np.abs(full - schwinger.generator_to_unitary(m, 0.3))) < 1e-12
        x_part = schwinger.SchwingerExpression(
            2 * n, [t for t in expr.terms if t.axis == "x"]
        )
        partial = factors[2] @ factors[1] @ factors[0]
        expected = schwinger.generator_to_unitary(_matrix(x_part), 0.3)
        assert np.max(np.abs(partial - expected)) < 1e-12


def test_six_mode_decomposition_at_theta_zero():
    layout = states.WireLayout(3, 0.5)
    _, factors = states.six_mode_symmetry_decomposition(layout, 0.0)
    for f in (factors[1], factors[3]):
        assert np.max(np.abs(f - np.eye(6))) < 1e-14
    # the beam-splitter factors are theta-independent and square to one
    assert np.max(np.abs(factors[0] @ factors[2] - np.eye(6))) < 1e-12
    with pytest.raises(WireTooSmall):
        states.six_mode_symmetry_decomposition(states.WireLayout(2, 0.5), 0.1)
