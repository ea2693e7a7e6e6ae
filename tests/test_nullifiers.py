"""Nullifier engine: the algebraic criterion, kernel solver, constructors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_dim,
    random_hermitian,
    random_k,
    random_unitary,
    reference_canonical_basis,
    reference_nullifier_space,
)
from gnl import fock, graphs, nullifiers, schwinger, states
from gnl.errors import (
    AllZeroCoefficients,
    InvalidBlockShape,
    KernelTooLarge,
    NonCommutingD,
    NonHermitian,
    ShapeMismatch,
)

SRC = Path(__file__).resolve().parents[1] / "src"

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.diag([1.0 + 0j, -1.0])


def test_is_nullifier_two_mode_squeezer():
    k = graphs.tms_k(0.5)
    ok, res = nullifiers.is_nullifier(0.5 * SZ, k)
    assert ok and res < 1e-15
    ok, res = nullifiers.is_nullifier(0.5 * SX, k)
    assert not ok
    assert abs(res - np.tanh(0.5)) < 1e-12


def test_is_nullifier_vacuum_and_shape_guard():
    rng = np.random.default_rng(1)
    ok, res = nullifiers.is_nullifier(random_hermitian(rng, 3), np.zeros((3, 3)))
    assert ok and res == 0.0
    with pytest.raises(ShapeMismatch):
        nullifiers.is_nullifier(np.eye(2), np.zeros((3, 3)))


def test_is_nullifier_scales_linearly_in_m():
    rng = np.random.default_rng(2)
    k = random_k(rng, 3, norm=0.5)
    m = random_hermitian(rng, 3)
    _, res1 = nullifiers.is_nullifier(m, k)
    _, res3 = nullifiers.is_nullifier(3.0 * m, k)
    assert abs(res3 - 3.0 * res1) < 1e-12


def test_is_nullifier_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(3)
    k = states.tms_pair(0.5)
    stack = np.array(
        nullifiers.nullifier_space(k).generators
        + [random_hermitian(rng, 4) for _ in range(3)]
        + [1e-11 * random_hermitian(rng, 4)]
    )
    ok, res = nullifiers.is_nullifier(stack, k)
    assert ok.shape == res.shape == (len(stack),)
    single = [nullifiers.is_nullifier(m, k) for m in stack]
    assert ok.tolist() == [v for v, _ in single] == [True] * 6 + [False] * 3 + [True]
    assert np.allclose(res, [r for _, r in single], rtol=1e-14, atol=0.0)
    ok, res = nullifiers.is_nullifier(np.zeros((0, 4, 4)), k)
    assert ok.shape == res.shape == (0,)
    with pytest.raises(ShapeMismatch):
        nullifiers.is_nullifier(stack[:, :3, :3], k)


def _kernel(seed, size, dim, kind, is_complex):
    """Orthonormal rows spanning a random dim-dimensional subspace, in a random gauge.

    kind "dense" draws the subspace at random; "sparse" draws it inside a
    random set of 2 dim coordinates, so that every other projector column is
    zero and half of the others are spanned by earlier ones; "faint" is
    "sparse" with half of those coordinates scaled by 1e-5, so that their
    projector columns are short but new; "units" spans dim coordinate unit
    vectors, whose projector columns are those units.
    """
    rng = np.random.default_rng(seed)

    def draw(*shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if is_complex else a

    rows = np.zeros((dim, size), dtype=complex if is_complex else float)
    if kind == "units":
        rows[np.arange(dim), rng.choice(size, dim, replace=False)] = 1.0
    else:
        support = rng.choice(size, min(size, 2 * dim), replace=False)
        if kind == "dense":
            support = np.arange(size)
        rows[:, support] = draw(dim, len(support))
        if kind == "faint":
            rows[:, support[: len(support) // 2]] *= 1e-5
    basis = np.linalg.qr(rows.T)[0].T if dim else rows
    gauge = np.linalg.qr(draw(dim, dim))[0] if dim else np.eye(0)
    return gauge @ basis


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 3 * nullifiers.BLOCK + 10),
    share=st.floats(0.0, 1.0),
    kind=st.sampled_from(["dense", "sparse", "faint", "units"]),
    is_complex=st.booleans(),
)
@example(seed=1, size=200, share=0.0, kind="dense", is_complex=False)  # dim = 0
@example(seed=2, size=150, share=1.0, kind="dense", is_complex=True)  # dim = size
@example(seed=3, size=200, share=0.35, kind="dense", is_complex=False)  # fills at column 70
@example(seed=4, size=200, share=0.45, kind="sparse", is_complex=True)
@example(seed=5, size=150, share=0.3, kind="faint", is_complex=False)
def test_blocked_canonical_basis_matches_the_column_loop(seed, size, share, kind, is_complex):
    dim = round(share * size)
    kernel = _kernel(seed, size, dim, kind, is_complex)
    blocked = nullifiers._canonical_basis(kernel)
    reference = reference_canonical_basis(kernel)
    assert blocked.shape == reference.shape == (dim, size)
    assert blocked.dtype == kernel.dtype
    assert np.max(np.abs(blocked - reference), initial=0.0) <= 1e-10
    gram = blocked.conj() @ blocked.T
    assert np.max(np.abs(gram - np.eye(dim)), initial=0.0) <= 1e-12


def test_oversized_kernels_fail_before_allocating():
    n = 80  # K = 0: every Hermitian M is a nullifier, dim = n^2
    with pytest.raises(KernelTooLarge, match=r"dimension 6400 .* about 1\.6\d\de\+09 bytes"):
        nullifiers.nullifier_space(np.zeros((n, n)))


def test_nullifier_space_vacuum_is_everything():
    basis = nullifiers.nullifier_space(np.zeros((2, 2)))
    assert basis.dimension == 4
    assert len(basis.generators) == 4
    gram = np.array(
        [[np.trace(a.conj().T @ b) for b in basis.generators] for a in basis.generators]
    )
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_nullifier_space_tms_is_the_z_line():
    basis = nullifiers.nullifier_space(graphs.tms_k(0.5))
    assert basis.dimension == 1
    assert not basis.borderline
    assert np.max(np.abs(basis.generators[0] - SZ / np.sqrt(2.0))) < 1e-12


def test_nullifier_space_scaled_identity_is_the_y_line():
    basis = nullifiers.nullifier_space(0.3 * np.eye(2, dtype=complex))
    assert basis.dimension == 1
    assert np.max(np.abs(basis.generators[0] - SY / np.sqrt(2.0))) < 1e-12


def test_nullifier_space_matches_brute_force_rank():
    rng = np.random.default_rng(71)
    cases = [
        np.zeros((2, 2), dtype=complex),
        graphs.tms_k(0.5),
        0.3 * np.eye(2, dtype=complex),
        states.tms_pair(0.5),
        random_k(rng, 3, norm=0.6),
        random_k(rng, 4, norm=0.5),
    ]
    for k in cases:
        basis = nullifiers.nullifier_space(k)
        assert basis.dimension == brute_force_dim(k, rng)


def test_nullifier_space_generators_all_pass_the_criterion():
    rng = np.random.default_rng(73)
    for n in (2, 3, 4):
        k = random_k(rng, n, norm=0.7)
        basis = nullifiers.nullifier_space(k)
        for g in basis.generators:
            assert np.max(np.abs(g - g.conj().T)) < 1e-12
            ok, res = nullifiers.is_nullifier(g, k)
            assert ok and res <= 1e-10
        kept = [s for s in basis.singular_values if s > basis.threshold]
        assert len(kept) + basis.dimension == n * n


def test_nullifier_space_output_is_deterministic():
    k = states.tms_pair(0.5)
    a = nullifiers.nullifier_space(k)
    b = nullifiers.nullifier_space(k)
    assert a.dimension == b.dimension == 6
    for ga, gb in zip(a.generators, b.generators):
        assert np.array_equal(ga, gb)
    assert a.singular_values == b.singular_values


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    levels=st.lists(st.sampled_from([0.0, 0.15, 0.4, 0.7, 0.95]), min_size=1, max_size=6),
)
def test_nullifier_space_matches_the_dense_reference(seed, levels):
    # K = W diag(s) W^T with repeated levels: the Takagi multiplicities fix
    # the dimension, sum m_j (m_j - 1) / 2 over nonzero levels plus m_0^2
    n = len(levels)
    w = random_unitary(np.random.default_rng(seed), n)
    k = (w * np.array(levels)) @ w.T
    counts = {level: levels.count(level) for level in levels}
    expected = sum(m * (m - 1) // 2 for level, m in counts.items() if level) + counts.get(0.0, 0) ** 2

    basis = nullifiers.nullifier_space(k)
    projector, spectrum = reference_nullifier_space(k)
    assert basis.dimension == expected == round(np.trace(projector))
    assert np.max(np.abs(np.array(basis.singular_values) - spectrum)) <= 1e-12

    gens = np.array([g.ravel() for g in basis.generators]).reshape(expected, n * n)
    embedded = np.hstack([gens.real, gens.imag])
    assert np.max(np.abs(embedded.T @ embedded - projector)) <= 1e-8
    gram = embedded @ embedded.T  # Re tr(A B) of Hermitian A, B
    assert np.max(np.abs(gram - np.eye(expected)), initial=0.0) <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    levels=st.lists(st.sampled_from([0.0, 0.15, 0.4, 0.7, 0.95]), min_size=1, max_size=6),
    spins=st.none() | st.integers(3, 5),
)
def test_nullifiers_are_covariant_under_passive_transforms(seed, levels, spins):
    # K -> W K W^T maps the criterion M K + (M K)^T to W (M K + (M K)^T) W^T
    # for M -> W M W^H, so the nullifier spaces correspond one to one
    rng = np.random.default_rng(seed)
    if spins is None:
        v = random_unitary(rng, len(levels))
        k = (v * np.array(levels)) @ v.T
    else:
        k = states.dual_rail_wire(states.WireLayout(spins, float(rng.uniform(0.2, 1.0))))
    w = random_unitary(rng, k.shape[0])
    moved = graphs.passive_transform(k, w)
    basis = nullifiers.nullifier_space(k)
    assert nullifiers.nullifier_space(moved).dimension == basis.dimension
    if basis.dimension:
        mapped = w @ np.array(basis.generators) @ w.conj().T
        ok, residual = nullifiers.is_nullifier(mapped, moved)
        assert np.all(ok), np.max(residual)


@pytest.mark.parametrize("n, draw", [(16, 31), (20, 4)])
def test_nullifier_space_dense_involutions_pass_the_self_check(n, draw):
    # G = Q diag(+-1) Q^T with dense Q: every Takagi value of K = tanh(alpha G)
    # is tanh(alpha), so the kernel is the full n(n-1)/2 sigma_y-like block
    rng = np.random.default_rng((2011, n, draw))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    g = (q * rng.choice([-1, 1], n)) @ q.T
    k = graphs.hgraph_k(0.5 * (g + g.T), round(rng.uniform(0.3, 1.0), 4))
    basis = nullifiers.nullifier_space(k)
    assert basis.dimension == n * (n - 1) // 2
    assert max(nullifiers.is_nullifier(m, k)[1] for m in basis.generators) <= 1e-12


def test_self_check_survives_python_optimize():
    script = """
import sys
from gnl import cli, graphs, nullifiers
from gnl.errors import SelfCheckFailed

nullifiers.is_nullifier = lambda m, k, tol=nullifiers.TOL_NULL: (False, 1.0)
try:
    nullifiers.nullifier_space(graphs.tms_k(0.5))
except SelfCheckFailed as exc:
    print("raised:", exc)
print("exit", cli.main(["nullifiers", "tms"]))
print("optimize", sys.flags.optimize)
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines == [
        "raised: kernel element failed the residual check: 1.000e+00",
        "exit 2",
        "optimize 1",
    ]
    assert "error: kernel element failed the residual check" in proc.stderr


def test_bipartite_single_edge_recovers_sigma_z():
    t = np.tanh(0.4)
    m = nullifiers.bipartite_nullifier(np.array([[t]]), 1.0)
    assert np.max(np.abs(m - SZ)) < 1e-12
    ok, res = nullifiers.is_nullifier(m, graphs.tms_k(0.4))
    assert ok and res < 1e-12


def test_bipartite_identity_block_with_vector_d():
    t = np.tanh(0.5)
    m = nullifiers.bipartite_nullifier(t * np.eye(2), np.array([1.0, 1.0]))
    assert np.max(np.abs(m - np.diag([1.0, 1.0, -1.0, -1.0]))) < 1e-12
    k = np.zeros((4, 4), dtype=complex)
    k[:2, 2:] = t * np.eye(2)
    k[2:, :2] = t * np.eye(2)
    ok, res = nullifiers.is_nullifier(m, k)
    assert ok and res < 1e-12


def test_bipartite_zero_d_gives_zero_generator():
    m = nullifiers.bipartite_nullifier(np.array([[0.3, 0.1], [0.0, 0.2]]), 0.0)
    assert np.max(np.abs(m)) == 0.0


def test_bipartite_rectangular_block():
    rng = np.random.default_rng(79)
    k0 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    k0 *= 0.4 / np.linalg.norm(k0, 2)
    d_left = np.array([0.7, -0.2])
    m = nullifiers.bipartite_nullifier(k0, d_left, np.array([0.7, -0.2, 5.0]))
    k = np.zeros((5, 5), dtype=complex)
    k[:2, 2:] = k0
    k[2:, :2] = k0.T
    ok, res = nullifiers.is_nullifier(m, k)
    assert ok and res < 1e-12
    with pytest.raises(NonCommutingD):
        nullifiers.bipartite_nullifier(k0, d_left, np.array([0.7, 0.3, 5.0]))
    with pytest.raises(InvalidBlockShape):
        nullifiers.bipartite_nullifier(k0, d_left)
    with pytest.raises(InvalidBlockShape):
        nullifiers.bipartite_nullifier(k0, np.ones(3), np.ones(3))


def test_bipartite_degenerate_block_admits_a_full_d_matrix():
    rng = np.random.default_rng(83)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    k0 = 0.5 * q
    d = rng.standard_normal((3, 3))
    d = 0.5 * (d + d.T)
    m = nullifiers.bipartite_nullifier(k0, d)
    k = np.zeros((6, 6), dtype=complex)
    k[:3, 3:] = k0
    k[3:, :3] = k0.T
    ok, res = nullifiers.is_nullifier(m, k)
    assert ok and res < 1e-12


def test_bipartite_rejects_asymmetric_d_block():
    with pytest.raises(InvalidBlockShape):
        nullifiers.bipartite_nullifier(
            0.5 * np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])
        )


def test_two_mode_class_pure_axes():
    cls = nullifiers.two_mode_invariant_class(0.0, 0.0, 0.0, 1.0)
    assert cls.dimension == 1
    k11, k12, k22 = cls.basis[0]
    assert abs(k11) < 1e-12 and abs(k22) < 1e-12
    assert abs(abs(k12) - 1.0) < 1e-12

    cls = nullifiers.two_mode_invariant_class(0.0, 1.0, 0.0, 0.0)
    assert cls.dimension == 1
    k11, k12, k22 = cls.basis[0]
    assert abs(k12) < 1e-12 and abs(k11 + k22) < 1e-12

    cls = nullifiers.two_mode_invariant_class(0.0, 0.0, 1.0, 0.0)
    assert cls.dimension == 1
    k11, k12, k22 = cls.basis[0]
    assert abs(k12) < 1e-12 and abs(k11 - k22) < 1e-12


@pytest.mark.parametrize("theta", [0.0, np.pi / 6, np.pi / 3, 1.1])
def test_two_mode_class_tilted_equator(theta):
    cls = nullifiers.two_mode_invariant_class(0.0, np.cos(theta), np.sin(theta), 0.0)
    assert cls.dimension == 1
    k11, k12, k22 = cls.basis[0]
    assert abs(k12) < 1e-10
    assert abs(k22 + np.exp(2j * theta) * k11) < 1e-10


def test_two_mode_class_pure_s0_is_empty():
    cls = nullifiers.two_mode_invariant_class(1.0, 0.0, 0.0, 0.0)
    assert cls.dimension == 0
    assert cls.basis == []


def test_two_mode_class_rejects_all_zero():
    with pytest.raises(AllZeroCoefficients):
        nullifiers.two_mode_invariant_class(0.0, 0.0, 0.0, 0.0)


def test_two_mode_class_members_are_nullified():
    cases = [
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
        (0.0, np.cos(0.4), np.sin(0.4), 0.0),
    ]
    for a, b, g, d in cases:
        cls = nullifiers.two_mode_invariant_class(a, b, g, d)
        m = 0.5 * np.array([[a + d, b - 1j * g], [b + 1j * g, a - d]])
        for vec in cls.basis:
            k = np.array([[vec[0], vec[1]], [vec[1], vec[2]]])
            k *= 0.5 / np.linalg.norm(k, 2)
            ok, res = nullifiers.is_nullifier(m, k)
            assert ok and res < 1e-10


def test_verify_symmetry_invariance_and_first_order_slope():
    k = graphs.tms_k(0.5)
    dev = nullifiers.verify_symmetry(k, 0.5 * SZ, [0.1, 1.0, np.pi])
    assert dev < 1e-12
    sx = 0.5 * SX.astype(complex)
    assert nullifiers.verify_symmetry(k, sx, [0.0]) < 1e-14
    theta = 1e-4
    dev = nullifiers.verify_symmetry(k, sx, [theta])
    _, residual = nullifiers.is_nullifier(sx, k)
    assert dev > 1e-8  # a non-nullifier moves the graph at first order
    assert abs(dev / theta - residual) < 0.01 * residual


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nullifier_space_rejects_a_non_finite_k(value):
    # a NaN entry was reported as a solver defect (SelfCheckFailed)
    with pytest.raises(ShapeMismatch):
        nullifiers.nullifier_space(np.array([[0.0, value], [value, 0.0]]))


@pytest.mark.parametrize("seed", range(6))
def test_verify_symmetry_diagonalizes_once_and_matches_the_unitary_loop(seed, monkeypatch):
    # odd seeds: a random K and M; even seeds: a wire and one of its nullifiers
    rng = np.random.default_rng(seed)
    if seed % 2:
        k, m = random_k(rng, 2 + seed), random_hermitian(rng, 2 + seed)
    else:
        k = states.dual_rail_wire(states.WireLayout(3 + seed // 2, 0.6))
        m = nullifiers.nullifier_space(k).generators[seed]
    grid = np.linspace(0.0, 2.0 * np.pi, 16)
    expected = 0.0
    for theta in grid:
        w = schwinger.generator_to_unitary(m, float(theta))
        expected = max(expected, float(np.max(np.abs(w @ k @ w.T - k))))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    assert nullifiers.verify_symmetry(k, m, grid) == expected
    assert len(calls) == 1


def test_verify_symmetry_shape_guard():
    with pytest.raises(ShapeMismatch):
        nullifiers.verify_symmetry(np.zeros((2, 2)), np.eye(3), [0.1])


def test_verify_symmetry_rejects_a_nan_generator():
    # it returned a deviation of nan, which no tolerance test rejects
    with pytest.raises(NonHermitian):
        nullifiers.verify_symmetry(graphs.tms_k(0.5), np.full((2, 2), np.nan), [0.1])


def test_residual_lower_bounds_the_fock_residual():
    rng = np.random.default_rng(97)
    for _ in range(20):
        k = random_k(rng, 2, norm=0.6)
        m = random_hermitian(rng, 2)
        ok, res = nullifiers.is_nullifier(m, k)
        if ok:
            continue
        fres = fock.nullifier_residual(m, k, 6)
        assert fres > res / 4.0
