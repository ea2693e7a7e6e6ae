"""Acceptance checklist: one test per shipping requirement.

Tolerances and runtime budgets here are pinned; loosening them is not an
option. Each test ends with a single printed pass line so a -v run reads as
a checklist.
"""

import subprocess
import sys
import time

import numpy as np

from conftest import (
    brute_force_dim, random_hermitian, random_k, random_z, six_mode_factors, wire_z_form,
)
from gnl import cli, fock, graphs, nullifiers, schwinger, states


def _matrix(expr):
    return schwinger.expression_to_matrix(expr)


def test_01_round_trip_and_norm_edge():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    for _ in range(200):
        n = int(rng.integers(2, 9))
        z = random_z(rng, n)
        back = graphs.k_to_z(graphs.z_to_k(z))
        assert np.max(np.abs(back - z)) < 1e-9
    for trial in range(200):
        n = int(rng.integers(2, 9))
        if trial < 20:
            k = random_k(rng, n, norm=float(rng.uniform(1.01, 1.49)))
        else:
            k = random_k(rng, n, norm=float(rng.uniform(0.05, 0.95)))
        min_eig = float(np.linalg.eigvalsh(graphs.u_from_k(k)).min())
        if np.linalg.norm(k, 2) < 1.0:
            assert min_eig > 0.0
        else:
            assert min_eig <= 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 01 pass: 400 random conversions agree in {elapsed:.2f}s")


def test_02_criterion_agrees_with_the_fock_oracle():
    rng = np.random.default_rng(2025)
    start = time.monotonic()
    grid = np.linspace(0.0, 2.0 * np.pi, 32)
    nullifier_cases = 0
    for trial in range(100):
        kind = trial % 4
        if kind == 0:
            k = graphs.tms_k(float(rng.uniform(0.2, 1.2)))
            if trial % 8 == 0:
                m = 0.5 * np.diag([1.0 + 0j, -1.0])
            else:
                m = random_hermitian(rng, 2)
        elif kind == 1:
            k = float(rng.uniform(0.1, 0.8)) * np.eye(2, dtype=complex)
            if trial % 8 == 1:
                m = np.array([[0.0, -0.5j], [0.5j, 0.0]])
            else:
                m = random_hermitian(rng, 2)
        elif kind == 2:
            n1 = int(rng.integers(1, 3))
            k0 = rng.standard_normal((n1, n1)) + 1j * rng.standard_normal((n1, n1))
            k0 *= float(rng.uniform(0.2, 0.7)) / np.linalg.norm(k0, 2)
            k = np.zeros((2 * n1, 2 * n1), dtype=complex)
            k[:n1, n1:] = k0
            k[n1:, :n1] = k0.T
            m = nullifiers.bipartite_nullifier(k0, rng.standard_normal(n1))
        else:
            n = int(rng.integers(2, 5))
            k = random_k(rng, n, norm=float(rng.uniform(0.3, 0.8)))
            m = random_hermitian(rng, n)
        ok, res = nullifiers.is_nullifier(m, k)
        fres = fock.nullifier_residual(m, k, 8)
        assert ok == (fres <= 1e-8), (trial, res, fres)
        if ok:
            nullifier_cases += 1
            assert nullifiers.verify_symmetry(k, m, grid) <= 1e-9
    assert nullifier_cases >= 25
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 02 pass: 100 cases agree ({nullifier_cases} nullifiers) "
        f"in {elapsed:.1f}s"
    )


def test_03_two_mode_invariance_classes():
    cls = nullifiers.two_mode_invariant_class(0.0, 0.0, 0.0, 1.0)
    assert cls.dimension == 1
    k11, k12, k22 = cls.basis[0]
    assert abs(k11) <= 1e-10 and abs(k22) <= 1e-10 and abs(k12) > 0.9

    cls = nullifiers.two_mode_invariant_class(0.0, 1.0, 0.0, 0.0)
    assert cls.dimension == 1
    k11, k12, k22 = cls.basis[0]
    assert abs(k12) <= 1e-10 and abs(k11 + k22) <= 1e-10

    cls = nullifiers.two_mode_invariant_class(0.0, 0.0, 1.0, 0.0)
    assert cls.dimension == 1
    k11, k12, k22 = cls.basis[0]
    assert abs(k12) <= 1e-10 and abs(k11 - k22) <= 1e-10

    for theta in (0.0, np.pi / 6.0, np.pi / 3.0):
        cls = nullifiers.two_mode_invariant_class(
            0.0, np.cos(theta), np.sin(theta), 0.0
        )
        assert cls.dimension == 1
        k11, k12, k22 = cls.basis[0]
        assert abs(k12) <= 1e-10
        assert abs(k22 + np.exp(2j * theta) * k11) <= 1e-10
    print("criterion 03 pass: all four invariance classes recovered")


def test_04_kernel_dimensions_match_an_independent_rank_count():
    rng = np.random.default_rng(2026)
    for k, expected in (
        (np.zeros((2, 2), dtype=complex), 4),
        (graphs.tms_k(0.5), 1),
        (0.3 * np.eye(2, dtype=complex), 1),
    ):
        basis = nullifiers.nullifier_space(k)
        assert basis.dimension == expected
        assert brute_force_dim(k, rng) == expected
    print("criterion 04 pass: dimensions 4/1/1 confirmed by brute rank")


def test_05_tms_pair_nullifiers_and_detuning_control():
    k = states.tms_pair(0.5)
    exprs = states.bell_analogue("phi+", 0.5)[1]
    assert len(exprs) == 4
    for expr in exprs:
        m = _matrix(expr)
        ok, res = nullifiers.is_nullifier(m, k)
        assert ok and res <= 1e-12
        assert fock.nullifier_residual(m, k, 10) <= 1e-10
    detuned = states.tms_pair(0.5, alpha_second=0.6)
    for expr in exprs[:2]:
        ok, res = nullifiers.is_nullifier(_matrix(expr), detuned)
        assert not ok and res > 1e-3
    # the z and photon-number differences reduce to the per-pair identities
    # n0 = n1 and n2 = n3, so they cannot see the squeezing split; only the
    # x and y mixers carry the detuning control
    for expr in exprs[2:]:
        ok, res = nullifiers.is_nullifier(_matrix(expr), detuned)
        assert ok and res <= 1e-12
    print("criterion 05 pass: four nullifiers at cutoff 10, x/y detune")


def test_06_bell_analogue_sign_table_and_rotations():
    expected_signs = {
        "phi+": (-1.0, +1.0, -1.0),
        "phi-": (+1.0, -1.0, -1.0),
        "psi+": (-1.0, -1.0, +1.0),
        "psi-": (+1.0, +1.0, +1.0),
    }
    for variant, signs in expected_signs.items():
        k, exprs = states.bell_analogue(variant, 0.5)
        for expr in exprs:
            ok, res = nullifiers.is_nullifier(_matrix(expr), k)
            assert ok and res <= 1e-12
        got = tuple(
            {t.pair: t.coeff for t in expr.terms}[states.SPIN_B]
            for expr in exprs[:3]
        )
        assert got == signs
    base, _ = states.bell_analogue("phi+", 0.5)
    minus, _ = states.bell_analogue("phi-", 0.5)
    assert np.max(np.abs(minus - graphs.phase_shift(base, [0.0, 0.0, np.pi, 0.0]))) <= 1e-14
    y_rot = schwinger.generator_to_unitary(
        _matrix(
            schwinger.SchwingerExpression(
                4, [schwinger.SchwingerTerm("y", states.SPIN_A, 1.0)]
            )
        ),
        np.pi,
    )
    plus, _ = states.bell_analogue("psi+", 0.5)
    assert np.max(np.abs(plus - graphs.passive_transform(minus, y_rot))) <= 1e-14
    z_rot = schwinger.generator_to_unitary(
        _matrix(
            schwinger.SchwingerExpression(
                4, [schwinger.SchwingerTerm("z", states.SPIN_B, 1.0)]
            )
        ),
        np.pi,
    )
    final, _ = states.bell_analogue("psi-", 0.5)
    assert np.max(np.abs(final - graphs.passive_transform(plus, z_rot))) <= 1e-14
    print("criterion 06 pass: sign table and mode maps for all four variants")


def test_07_dual_rail_wire_family():
    start = time.monotonic()
    grid = np.linspace(0.0, 2.0 * np.pi, 16)
    half_t = np.tanh(0.5) / 2.0
    for n in (3, 4, 5, 8):
        layout = states.WireLayout(n, 0.5)
        k = states.dual_rail_wire(layout)
        nz = np.abs(k[np.abs(k) > 0.0])
        assert np.max(np.abs(nz - half_t)) <= 1e-12
        gens = list(states.wire_local_nullifiers(layout))
        gens.append(states.wire_global_x(layout))
        if n % 2 == 0:
            gens.append(states.wire_global_z(layout))
        if n == 8:
            gens.append(states.wire_chain_nullifier(layout, 0, 2))
        for expr in gens:
            m = _matrix(expr)
            ok, res = nullifiers.is_nullifier(m, k)
            assert ok and res <= 1e-10
            assert nullifiers.verify_symmetry(k, m, grid) <= 1e-9
    layout = states.WireLayout(3, 0.5)
    k = states.dual_rail_wire(layout)
    for expr in states.wire_local_nullifiers(layout):
        assert fock.nullifier_residual(_matrix(expr), k, 6) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 07 pass: wire families at n=3,4,5,8 in {elapsed:.1f}s")


def test_08_bipartite_constructor_and_self_inverse_two_path():
    rng = np.random.default_rng(2027)
    for _ in range(50):
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 5))
        k0 = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
        k0 *= float(rng.uniform(0.2, 0.8)) / np.linalg.norm(k0, 2)
        shared = rng.standard_normal(min(n1, n2))
        d_left = np.concatenate([shared, rng.standard_normal(max(0, n1 - n2))])
        d_right = np.concatenate([shared, rng.standard_normal(max(0, n2 - n1))])
        m = nullifiers.bipartite_nullifier(k0, d_left, d_right)
        k = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        k[:n1, n1:] = k0
        k[n1:, :n1] = k0.T
        ok, res = nullifiers.is_nullifier(m, k)
        assert ok and res <= 1e-10
    for _ in range(10):
        nb = int(rng.integers(1, 4))
        g0 = np.linalg.qr(rng.standard_normal((nb, nb)))[0]
        g = np.zeros((2 * nb, 2 * nb))
        g[:nb, nb:] = g0
        g[nb:, :nb] = g0.T
        alpha = float(rng.uniform(0.2, 1.0))
        k = graphs.hgraph_k(g, alpha)
        assert np.max(np.abs(k - np.tanh(alpha) * g)) <= 1e-12
        m = nullifiers.bipartite_nullifier(k[:nb, nb:], np.ones(nb))
        ok, res = nullifiers.is_nullifier(m, k)
        assert ok and res <= 1e-10
    print("criterion 08 pass: 50 random blocks plus 10 self-inverse graphs")


def test_09_six_mode_decomposition_and_overlap_forms():
    layout = states.WireLayout(3, 0.5)
    k = states.dual_rail_wire(layout)
    for theta in (0.1, 0.7, np.pi / 2.0):
        m = _matrix(states.six_mode_symmetry(layout))
        factors = six_mode_factors(layout, theta)
        ok, res = nullifiers.is_nullifier(m, k)
        assert ok and res <= 1e-10
        product = factors[3] @ factors[2] @ factors[1] @ factors[0]
        assert np.max(np.abs(product - schwinger.generator_to_unitary(m, theta))) <= 1e-9
    z_form, local_form = wire_z_form(layout), states.wire_local_nullifiers(layout)[0]
    assert np.max(np.abs(_matrix(z_form) - _matrix(local_form))) <= 1e-12
    print("criterion 09 pass: factor products match, overlap forms coincide")


def test_10_cli_output_is_deterministic(capsys):
    for argv in (
        ["nullifiers", "tms"],
        ["nullifiers", "tms-pair", "--format", "json"],
        ["nullifiers", "wire", "--spins", "3"],
    ):
        assert cli.main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli.main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
    cmd = [sys.executable, "-m", "gnl.cli", "nullifiers", "tms-pair"]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b and a
    print("criterion 10 pass: repeated runs are byte-identical")
