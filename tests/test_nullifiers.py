"""Nullifier engine: the algebraic criterion, kernel solver, constructors."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_dim,
    matmul_canonical_basis,
    random_hermitian,
    random_k,
    random_unitary,
    real_adjacency,
    reference_canonical_basis,
    reference_display_expression,
    reference_from_coordinates,
    reference_nullifier_space,
)
from gnl import fock, graphs, nullifiers, schwinger, states
from gnl.errors import (
    AllZeroCoefficients,
    InvalidBlockShape,
    KernelTooLarge,
    NonCommutingD,
    NonSymmetric,
    NonHermitian,
    PrecisionLimit,
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
    generators = nullifiers.nullifier_space(k).generators
    # each matrix against its own scale: a tiny non-nullifier fails and a
    # huge nullifier passes
    stack = np.array(
        generators
        + [random_hermitian(rng, 4) for _ in range(3)]
        + [1e-11 * random_hermitian(rng, 4), 1e9 * generators[0]]
    )
    ok, res = nullifiers.is_nullifier(stack, k)
    assert ok.shape == res.shape == (len(stack),)
    single = [nullifiers.is_nullifier(m, k) for m in stack]
    assert ok.tolist() == [v for v, _ in single] == [True] * 6 + [False] * 4 + [True]
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
    blocked, at = nullifiers._canonical_basis(kernel)
    reference, reference_at = reference_canonical_basis(kernel)
    assert blocked.shape == reference.shape == (dim, size)
    assert at.tolist() == reference_at
    assert blocked.dtype == kernel.dtype
    assert np.max(np.abs(blocked - reference), initial=0.0) <= 1e-10
    gram = blocked.conj() @ blocked.T
    assert np.max(np.abs(gram - np.eye(dim)), initial=0.0) <= 1e-12


def _assert_same_bytes(kernel):
    rows, at = nullifiers._canonical_basis(kernel)
    reference, reference_at = matmul_canonical_basis(kernel)
    assert (rows.dtype, rows.shape) == (reference.dtype, reference.shape)
    assert rows.tobytes() == reference.tobytes()
    assert (at.dtype, at.tobytes()) == (reference_at.dtype, reference_at.tobytes())


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 3 * nullifiers.BLOCK + 10),
    share=st.floats(0.0, 1.0),
    kind=st.sampled_from(["dense", "sparse", "faint", "units"]),
)
@example(seed=3, size=200, share=0.35, kind="dense")
@example(seed=5, size=150, share=0.3, kind="faint")
def test_real_kernels_give_the_bytes_of_the_matmul_form(seed, size, share, kind):
    # the per-column passes call ndarray.dot; on float64 it is the same gemv
    # as @, so rows and indices must not move by a bit
    _assert_same_bytes(_kernel(seed, size, round(share * size), kind, False))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 3 * nullifiers.BLOCK + 10),
    share=st.floats(0.0, 1.0),
    kind=st.sampled_from(["dense", "sparse", "faint", "units"]),
    is_complex=st.booleans(),
)
@example(seed=3, size=200, share=0.35, kind="dense", is_complex=False)
@example(seed=4, size=200, share=0.45, kind="sparse", is_complex=True)
def test_the_canonical_basis_leaves_its_kernel_as_it_was(seed, size, share, kind, is_complex):
    # the per-column passes subtract into their candidate in place, which
    # must be a copy: a real kernel's first block is a view of the kernel
    kernel = _kernel(seed, size, round(share * size), kind, is_complex)
    before = kernel.tobytes()
    nullifiers._canonical_basis(kernel)
    assert kernel.tobytes() == before


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=real_adjacency())
def test_both_real_route_halves_give_the_bytes_of_the_matmul_form(case):
    k, _ = case
    kernels = []
    canonical = nullifiers._canonical_basis

    def recorded(kernel):
        kernels.append(kernel)
        return canonical(kernel)

    nullifiers._canonical_basis = recorded
    try:
        nullifiers.nullifier_space(k)
    finally:
        nullifiers._canonical_basis = canonical
    assert len(kernels) == 2  # the R half, then the S half
    for kernel in kernels:
        assert kernel.dtype == float
        _assert_same_bytes(kernel)


def test_oversized_kernels_fail_before_allocating():
    n = 80  # K = 0: every Hermitian M is a nullifier, dim = n^2
    with pytest.raises(KernelTooLarge, match=r"dimension 6400 .* about 1\.6\d\de\+09 bytes"):
        nullifiers.nullifier_space(np.zeros((n, n)))


def test_oversized_complex_kernels_fail_before_allocating():
    # K = 0.5i I: every Takagi value is 0.5, so dim = n (n - 1) / 2
    tracemalloc.start()
    try:
        with pytest.raises(KernelTooLarge, match=r"dimension 4950 .* about 1\.780e\+09 bytes"):
            nullifiers.nullifier_space(0.5j * np.eye(100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=real_adjacency(), phi=st.floats(0.1, 3.0))
def test_real_route_matches_the_complex_route(case, phi):
    # M (e^{i phi} K) = e^{i phi} M K: the phase keeps the kernel and sends K
    # down the complex Takagi route
    k, _ = case
    real = nullifiers.nullifier_space(k)
    turned = nullifiers.nullifier_space(np.exp(1j * phi) * k)
    assert (real.dimension, real.borderline) == (turned.dimension, turned.borderline)
    gap = np.abs(np.array(real.generators) - np.array(turned.generators))
    assert np.max(gap, initial=0.0) <= 1e-10


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=real_adjacency())
def test_real_route_splits_into_s0_sz_sx_and_sy_generators(case):
    # M = R + iS is a nullifier of a real K exactly when RK = -KR and SK = KS:
    # each generator is real symmetric (R) or imaginary antisymmetric (iS),
    # and there is one per eigenvalue pair that cancels (R) or repeats (S)
    k, dim = case
    basis = nullifiers.nullifier_space(k)
    assert basis.dimension == dim
    for g in basis.generators:
        if g.imag.any():
            assert not g.real.any() and np.array_equal(g, -g.T)
        else:
            assert np.array_equal(g, g.T)


@st.composite
def _adjacency(draw):
    """A real K (see conftest.real_adjacency), its phase e^{i phi} K, or a complex
    K = W diag(s) W^T with repeated and zero Takagi levels; dimension 0 included."""
    kind = draw(st.sampled_from(["real", "turned", "takagi"]))
    if kind == "takagi":
        levels = draw(st.lists(st.sampled_from([0.0, 0.15, 0.4, 0.7]), min_size=1, max_size=6))
        w = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), len(levels))
        return (w * np.array(levels)) @ w.T
    k, _ = draw(real_adjacency())
    return k if kind == "real" else np.exp(1j * draw(st.floats(0.1, 3.0))) * k


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(k=_adjacency(), wire_labels=st.booleans())
@example(k=np.diag([0.3, 0.6, -0.1]), wire_labels=False)  # dimension 0
@example(k=np.zeros((3, 3)), wire_labels=True)  # everything, S^0_{r,r} pairs included
@example(k=np.array([[0.4]]), wire_labels=False)  # one mode, dimension 0
def test_coordinates_render_like_the_generators_they_build(k, wire_labels):
    # the display read off the coordinates is the reference display of the
    # matrices, and the matrices are those the solver built before, bit for bit
    basis = nullifiers.nullifier_space(k)
    n = k.shape[0]
    assert basis.coordinates.shape == (basis.dimension, n * n)
    assert basis.coordinates.dtype == np.float64
    assert "generators" not in vars(basis)  # not built by the solver
    labels = [f"{i // 2}{'ab'[i % 2]}" for i in range(n)] if wire_labels else None
    expected = [reference_display_expression(m, labels) for m in basis.generators]
    assert schwinger.coordinate_expressions(basis.coordinates, labels) == expected
    reference = reference_from_coordinates(basis.coordinates)
    built = np.array(basis.generators, dtype=complex).reshape(reference.shape)
    assert np.array_equal(built.view(np.int64), reference.view(np.int64))
    assert basis.generators is basis.generators  # built once


def test_the_text_path_never_builds_the_complex_stack(monkeypatch, capsys):
    from gnl import cli

    def refuse(w):
        raise AssertionError("complex stack built")

    monkeypatch.setattr(schwinger, "from_coordinates", refuse)
    assert cli.main(["nullifiers", "wire", "--spins", "4", "--format", "text"]) == 0
    assert "g27: " in capsys.readouterr().out
    with pytest.raises(AssertionError, match="complex stack built"):
        cli.main(["nullifiers", "wire", "--spins", "4", "--format", "json"])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=real_adjacency(), seed=st.integers(0, 2**32 - 1))
def test_is_nullifier_keeps_real_operands_real(case, seed):
    # a real stack and its complex cast: the same verdicts, residuals equal to
    # rounding; the stack mixes the real parts of true nullifiers (R and S),
    # random symmetric and antisymmetric matrices and tiny ones
    k, _ = case
    n = k.shape[0]
    rng = np.random.default_rng(seed)
    w = nullifiers.nullifier_space(k).coordinates
    a = rng.standard_normal((6, n, n))
    stack = np.concatenate([
        schwinger.real_from_coordinates(w, True),
        schwinger.real_from_coordinates(w, False),
        a + a.swapaxes(1, 2),
        a - a.swapaxes(1, 2),
        1e-12 * a,
    ])
    ok, res = nullifiers.is_nullifier(stack, k)
    ok_c, res_c = nullifiers.is_nullifier(stack.astype(complex), k.astype(complex))
    assert res.dtype == np.float64 and ok.tolist() == ok_c.tolist()
    assert np.allclose(res, res_c, rtol=1e-13, atol=1e-15)
    assert ok[: 2 * len(w)].all()


# a real K with both halves: eigenvalues 0.3 twice (one S^y-like pair) and
# -0.3 (two cancelling pairs), in a dense frame where no coordinate unit is a
# nullifier, so a perturbed coordinate always breaks the criterion
_LEVELS_K = (lambda o: (o * [0.3, 0.3, -0.3, 0.6]) @ o.T)(
    np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]
)
_MUTATION = """
import numpy as np
from gnl import nullifiers
from gnl.errors import SelfCheckFailed

canonical = nullifiers._canonical_basis


def perturb(k, call):
    # add 1e-6 to coordinate 0 of row 0 of the rows of the given
    # _canonical_basis call (real route: 1 is the R half, 2 the S half)
    calls = []

    def wrapped(kernel):
        rows, at = canonical(kernel)
        calls.append(1)
        if len(calls) == call:
            rows = rows.copy()
            rows[0, 0] += 1e-6
        return rows, at

    nullifiers._canonical_basis = wrapped
    try:
        nullifiers.nullifier_space(k)
    except SelfCheckFailed as exc:
        return f"raised: {exc}"
    finally:
        nullifiers._canonical_basis = canonical
    return "passed"
"""
_MUTATIONS = {"R half": (1.0, 1), "S half": (1.0, 2), "complex route": (np.exp(0.7j), 1)}


@pytest.mark.parametrize("where", sorted(_MUTATIONS))
def test_self_check_catches_a_perturbed_coordinate(where):
    phase, call = _MUTATIONS[where]
    space = {}
    exec(_MUTATION, space)
    assert nullifiers.nullifier_space(phase * _LEVELS_K).dimension == 3
    assert space["perturb"](phase * _LEVELS_K, call).startswith(
        "raised: kernel element failed the residual check"
    )


def test_self_check_catches_a_perturbed_coordinate_under_python_optimize():
    script = _MUTATION + f"""
import sys
k = np.array({_LEVELS_K.tolist()!r})
for phase, call in {list(_MUTATIONS.values())!r}:
    print(perturb(phase * k, call).split(":")[0])
print("optimize", sys.flags.optimize)
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["raised"] * 3 + ["optimize 1"]


@pytest.mark.parametrize("unit", [1.0, 1j])
def test_nullifier_space_refuses_a_spectrum_past_the_float_range(unit):
    # 2.0 * lam (real route) and 2.0 * s (complex route) overflowed: inf
    # singular values after a RuntimeWarning
    with pytest.raises(PrecisionLimit, match=r"Takagi value of 1\.000e\+308"):
        nullifiers.nullifier_space(1e308 * unit * np.eye(2))
    edge = nullifiers.nullifier_space(np.finfo(float).max / 2 * unit * np.eye(2))
    assert edge.dimension == 1 and np.isfinite(edge.singular_values).all()


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e4, 1e6, 1e8])
@pytest.mark.parametrize(
    "k, dim",
    [
        (states.dual_rail_wire(states.WireLayout(4, 0.5)), 28),
        (states.bell_analogue("psi-", 0.5)[0], 6),
    ],
    ids=["wire-4", "bell-psi-"],
)
def test_nullifier_space_is_scale_free(k, dim, scale):
    # at 1e6 the self-check's absolute 1e-10 raised SelfCheckFailed on the
    # dimension the relative kernel cut had found
    assert nullifiers.nullifier_space(scale * k).dimension == dim


def test_is_nullifier_fails_a_residual_past_the_float_range():
    # M K overflows to inf, and inf passed the scale max|M| max|K|, itself
    # inf: the identity passed as a nullifier of sigma_x
    with pytest.warns(RuntimeWarning, match="overflow"):
        ok, res = nullifiers.is_nullifier(1e200 * np.eye(2), 1e200 * SX)
    assert not ok and res == np.inf


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(k=_adjacency(), seed=st.integers(0, 2**32 - 1), m_exp=st.floats(-12.0, 12.0),
       k_exp=st.floats(-12.0, 0.0))
def test_the_criterion_verdict_does_not_change_with_scale(k, seed, m_exp, k_exp):
    # M K = -(M K)^T is homogeneous in M and in K, and so is its verdict:
    # true nullifiers and random Hermitian matrices under M -> cM, K -> cK
    n = k.shape[0]
    rng = np.random.default_rng(seed)
    generators = nullifiers.nullifier_space(k).generators
    stack = np.array(generators + [random_hermitian(rng, n) for _ in range(3)])
    ok, _ = nullifiers.is_nullifier(stack, k)
    assert ok[: len(generators)].all()
    assert nullifiers.is_nullifier(10.0**m_exp * stack, k)[0].tolist() == ok.tolist()
    assert nullifiers.is_nullifier(stack, 10.0**k_exp * k)[0].tolist() == ok.tolist()


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


# Spectra with one value between RTOL and 1e3 RTOL of their scale: a cut
# 10^3 times looser than graphs.RTOL takes that value into the kernel


def test_takagi_values_1e_8_apart_are_not_a_degenerate_pair():
    # K = Q diag(s) Q^T: a unit is in the kernel iff 2 s_a or s_a + s_b is
    # 0 or s_a = s_b, so only (0.2, 0.2) counts; |s_0 - s_1| and s_4 are
    # 1e-8 of the largest, and s_4 as 0 would add E_44
    q = random_unitary(np.random.default_rng(7), 5)
    s = np.array([0.5, 0.5 * (1.0 + 1e-8), 0.2, 0.2, 5e-9])
    k = q @ np.diag(s) @ q.T
    assert k.imag.any()  # the complex route
    assert nullifiers.nullifier_space(k).dimension == 1


def test_an_eigenvalue_1e_8_of_the_largest_is_not_zero():
    # real K = O diag(lam) O^T: a unit is in the kernel iff 2 lam_a,
    # lam_a + lam_b or lam_a - lam_b is 0, so only lam_0 + lam_1 = 0 counts;
    # lam_3 is 1e-8 of the largest, and as 0 it would add E_33
    o = np.linalg.qr(np.random.default_rng(8).standard_normal((4, 4)))[0]
    k = o @ np.diag([0.5, -0.5, 0.3, 5e-9]) @ o.T
    k = 0.5 * (k + k.T)
    assert nullifiers.nullifier_space(k).dimension == 1


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

nullifiers.is_nullifier = lambda m, k: (False, 1.0)
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


def test_bipartite_does_not_overflow_on_a_large_finite_d():
    # 0.5 * (M + M^H) overflowed: inf+nanj entries and RuntimeWarnings
    m = nullifiers.bipartite_nullifier(0.5 * np.eye(2), 1e308)
    assert np.array_equal(m, np.diag([1e308, 1e308, -1e308, -1e308]))


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


def test_two_mode_class_of_a_system_1e_8_from_singular_is_empty():
    # with gamma = 0 the 3x3 system has determinant 2 alpha (beta^2 + delta^2
    # - alpha^2): singular at (1, 0.8, 0, 0.6), and full rank, dimension 0,
    # with beta 3e-8 larger, where its smallest singular value is 1e-8 of
    # the largest
    a, b, d = 1.0, 0.8 + 3e-8, 0.6
    sing = np.linalg.svd([[a + d, b, 0.0], [0.0, b, a - d], [b, 2.0 * a, b]], compute_uv=False)
    assert 0.5e-8 < sing[-1] / sing[0] < 2e-8
    assert nullifiers.two_mode_invariant_class(a, 0.8, 0.0, d).dimension == 1
    cls = nullifiers.two_mode_invariant_class(a, b, 0.0, d)
    assert cls.dimension == 0 and cls.basis == []


def test_two_mode_class_rejects_all_zero():
    with pytest.raises(AllZeroCoefficients):
        nullifiers.two_mode_invariant_class(0.0, 0.0, 0.0, 0.0)


def test_two_mode_class_survives_coefficients_near_the_float_limit():
    # 2.0 * alpha overflowed in the 3x3 system: dimension 0 after a RuntimeWarning
    big = nullifiers.two_mode_invariant_class(1e308, 1e308, 0.0, 0.0)
    unit = nullifiers.two_mode_invariant_class(1.0, 1.0, 0.0, 0.0)
    assert big.dimension == unit.dimension == 1
    assert np.max(np.abs(np.array(big.basis) - unit.basis)) < 1e-15


@pytest.mark.parametrize("exponent", [-1074 + 60, -300, -1, 1, 300, 1000])
@pytest.mark.parametrize(
    "coeffs", [(0.0, np.cos(0.4), np.sin(0.4), 0.0), (0.3, 1.0, -0.7, 0.2), (1.0, 1.0, 0.0, 0.0)]
)
def test_two_mode_class_is_exact_under_power_of_two_scaling(coeffs, exponent):
    # the solve divides the coefficients by a power of two, which is exact
    base = nullifiers.two_mode_invariant_class(*coeffs)
    cls = nullifiers.two_mode_invariant_class(*np.ldexp(coeffs, exponent).tolist())
    assert cls.dimension == base.dimension
    assert np.array_equal(np.array(cls.basis), np.array(base.basis))


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


@pytest.mark.parametrize("k", [[[0, 0.5], [0.1, 0]], [[0.1, 0.3j], [0.2j, 0]]])
def test_nullifier_space_refuses_a_non_symmetric_k(k):
    # the first raised SelfCheckFailed, which reads as a solver defect, and
    # the second returned a space of dimension 0 with no error
    with pytest.raises(NonSymmetric, match="K is not symmetric"):
        nullifiers.nullifier_space(k)


def test_nullifier_space_takes_a_k_symmetric_to_rounding():
    k = graphs.tms_k(0.5)
    k[0, 1] += 1e-12  # within graphs.RTOL max|K|
    assert nullifiers.nullifier_space(k).dimension == nullifiers.nullifier_space(
        graphs.tms_k(0.5)
    ).dimension


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


@st.composite
def _grids(draw, middle):
    """2-32 angles in random order, one of them 0.0 and one negative."""
    grid = draw(st.lists(middle, max_size=30))
    grid.insert(draw(st.integers(0, len(grid))), 0.0)
    grid.insert(draw(st.integers(0, len(grid))), -draw(st.floats(1e-6, 10.0)))
    return grid


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    real_k=st.booleans(),
    grid=_grids(st.floats(-10.0, 10.0)),
    entries=st.sampled_from([nullifiers.SWEEP_ENTRIES, 1, 50]),
)
def test_the_batched_sweep_equals_the_unitary_loop(seed, n, real_k, grid, entries):
    # one (T, n, n) product, or blocks of them, against the per-theta loop
    rng = np.random.default_rng(seed)
    k = random_k(rng, n)
    if real_k:
        k = k.real * (0.7 / max(np.linalg.norm(k.real, 2), 1e-300))
    m = random_hermitian(rng, n)
    expected = 0.0
    for theta in grid:
        w = schwinger.generator_to_unitary(m, theta)
        expected = max(expected, float(np.max(np.abs(w @ k @ w.T - k))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nullifiers, "SWEEP_ENTRIES", entries)
        assert nullifiers.verify_symmetry(k, m, grid) == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    grid=_grids(st.floats(-10.0, 10.0) | st.floats(3e16, 1e300) | st.floats(-1e300, -3e16)),
    entries=st.sampled_from([nullifiers.SWEEP_ENTRIES, 1]),
)
def test_the_batched_sweep_names_the_first_angle_past_the_phase_limit(seed, n, grid, entries):
    # M has spectral radius 1, so an angle past PHASE_LIMIT (2.8e16) has no
    # significant phase digit; exp of it would overflow or warn, which fails
    # the suite, so the refusal comes before any arithmetic on it
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, n)
    m /= np.abs(np.linalg.eigvalsh(m)).max()
    bad = [theta for theta in grid if abs(theta) > schwinger.PHASE_LIMIT]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nullifiers, "SWEEP_ENTRIES", entries)
        if not bad:
            assert nullifiers.verify_symmetry(random_k(rng, n), m, grid) >= 0.0
            return
        with pytest.raises(PrecisionLimit, match="^" + re.escape(f"theta {bad[0]:.3e} times")):
            nullifiers.verify_symmetry(random_k(rng, n), m, grid)


def test_verify_symmetry_shape_guard():
    with pytest.raises(ShapeMismatch):
        nullifiers.verify_symmetry(np.zeros((2, 2)), np.eye(3), [0.1])


def test_verify_symmetry_keeps_a_nan_deviation(monkeypatch):
    # max(0.0, nan) is 0.0: when exp(-i theta M) overflowed at one theta of the
    # grid, the deviation of the others passed for the whole grid.  Such a
    # grid now fails on the phase limit, so the NaN W is planted here, inside
    # the grid, where a max that keeps its first element would drop it
    def unitaries(m, thetas):
        return np.array([np.full((2, 2), np.nan) if t == 1.0 else np.eye(2) for t in thetas])

    monkeypatch.setattr(schwinger, "unitaries", unitaries)
    dev = nullifiers.verify_symmetry(graphs.tms_k(0.5), 0.5 * SZ, [0.0, 1.0, 2.0])
    assert np.isnan(dev)


@pytest.mark.parametrize("coeff, thetas", [(1e308, [0.0, 2.0 * np.pi]), (1.0, [-1e17, 0.5])])
def test_verify_symmetry_refuses_a_phase_without_significant_digits(coeff, thetas):
    # exp(-i theta M) overflowed to NaN with numpy warnings for S^z at 1e308;
    # at theta 1e17 the phase of S^z/2 kept no digit and was used as exact
    m = 0.5 * coeff * SZ
    message = r"theta -?[0-9.e+]+ times the largest \|eigenvalue\|"
    with pytest.raises(PrecisionLimit, match=message):
        nullifiers.verify_symmetry(graphs.tms_k(0.5), m, thetas)
    with pytest.raises(PrecisionLimit):
        schwinger.generator_to_unitary(m, max(thetas, key=abs))
    edge = schwinger.PHASE_LIMIT / (0.5 * coeff)
    assert nullifiers.verify_symmetry(graphs.tms_k(0.5), m, [edge]) < 1e-6


def test_verify_symmetry_rejects_a_nan_generator():
    # it returned a deviation of nan, which no tolerance test rejects; an
    # empty grid must not pass it as 0.0
    for grid in ([0.1], []):
        with pytest.raises(NonHermitian):
            nullifiers.verify_symmetry(graphs.tms_k(0.5), np.full((2, 2), np.nan), grid)


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
