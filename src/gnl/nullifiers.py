"""Quadratic nullifier criteria and derivation.

A photon-number-conserving quadratic operator adag M a (M Hermitian)
annihilates the Gaussian pure state with adjacency matrix K exactly when

    M K = -(M K)^T.

Everything in this module is built on that antisymmetry criterion:

* :func:`is_nullifier` evaluates it directly;
* :func:`nullifier_space` returns an orthonormal basis of ALL Hermitian M
  satisfying it, solved in the Takagi frame K = Q diag(s) Q^T, where the
  criterion is diagonal and its spectrum has a closed form, and made
  canonical by a greedy Gram-Schmidt over coordinate columns that runs in
  blocks of matrix-matrix products (:func:`_canonical_basis`);
* :func:`bipartite_nullifier` constructs one analytically from the singular
  value decomposition of a bipartite block;
* :func:`two_mode_invariant_class` inverts the question and solves for all
  two-mode K nullified by a given generator;
* :func:`verify_symmetry` checks the exponentiated statement, i.e. that
  W = exp(-i theta M) satisfies W K W^T = K.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroCoefficients,
    InvalidBlockShape,
    KernelTooLarge,
    NonCommutingD,
    SelfCheckFailed,
    ShapeMismatch,
)
from . import graphs
from .schwinger import unitary_path

# residual threshold for the antisymmetry criterion (max entry)
TOL_NULL = 1e-10
# singular values below TOL_KERNEL_REL * sigma_max count as kernel
TOL_KERNEL_REL = 1e-10
# spectra with above/below ratio under this are flagged, not trusted
KERNEL_GAP_MIN = 10.0
# candidate columns per Gram-Schmidt block, kernel rows per assembly step and
# generators per self-check call in nullifier_space
BLOCK = 64
# nullifier_space refuses a kernel whose working arrays would exceed this
MAX_KERNEL_BYTES = 2**30


@dataclass
class NullifierBasis:
    """Orthonormal basis of the quadratic nullifier space of one K.

    generators are Hermitian matrices, orthonormal under the real inner
    product Re tr(A B); dimension = len(generators); singular_values is the
    full spectrum of the map M -> MK + (MK)^T (n^2 values, descending), in
    closed form from the Takagi values s of K: 2 s_i, and s_i + s_j and
    |s_i - s_j| for i < j.  threshold is the cut below which values counted
    as kernel, useful for judging how clear the cut was; borderline is True
    when the spectral gap around the threshold is thinner than a factor 10.
    """

    generators: list
    dimension: int
    singular_values: list
    threshold: float = 0.0
    borderline: bool = False


@dataclass
class TwoModeClass:
    """Solutions (k11, k12, k22) of the two-mode invariance constraints.

    basis holds unit complex 3-vectors; any complex combination, assembled
    into the symmetric matrix [[k11, k12], [k12, k22]] and scaled to spectral
    norm < 1, is a state nullified by the generator that produced the class.
    """

    basis: list
    dimension: int


def is_nullifier(m, k, tol=TOL_NULL):
    """Antisymmetry test: does adag M a annihilate the state of K?

    m is one (n, n) matrix or a (d, n, n) stack of them, tested together.

    Returns
    -------
    (bool, float), or for a stack (bool array, float array)
        The verdict and the residual max |MK + (MK)^T| of each matrix.
    """
    m = np.asarray(m, dtype=complex)
    k = np.asarray(k, dtype=complex)
    square = k.ndim == 2 and k.shape[0] == k.shape[1]
    if not square or m.ndim not in (2, 3) or m.shape[-2:] != k.shape:
        raise ShapeMismatch(f"shapes {m.shape} and {k.shape} incompatible")
    mk = m @ k
    residual = np.abs(mk + mk.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if m.ndim == 2:
        return bool(residual <= tol), float(residual)
    return residual <= tol, residual


def _snap_rows(w, tol_zero=1e-13, tol_tie=1e-9):
    """Canonicalize each row of ``w`` in place of arbitrary solver gauge.

    Entries below tol_zero of the row's largest are solver dust and are
    snapped to zero; the row is renormalized and then phased/signed so that
    its first entry of near-maximal magnitude is real positive.  The near-tie
    tolerance keeps the choice stable when two entries are equal up to
    rounding.  w is overwritten and returned.
    """
    mags = np.abs(w)
    top = mags.max(axis=1, keepdims=True)
    w[mags < tol_zero * top] = 0.0
    w /= np.sqrt(np.add.reduce((w.conj() * w).real, axis=1, keepdims=True))
    rows = np.arange(len(w))
    lead = (mags >= (1.0 - tol_tie) * top).argmax(axis=1)
    head = w[rows, lead]
    if np.iscomplexobj(w):
        w *= (np.abs(head) / head)[:, None]
        head = w[rows, lead]
        head.imag[np.abs(head.imag) < tol_zero] = 0.0
        w[rows, lead] = head
    else:
        w *= np.where(head < 0, -1.0, 1.0)[:, None]
    return w


def _canonical_basis(kernel):
    """Deterministic orthonormal basis of the row space of ``kernel``.

    kernel holds orthonormal rows, real or complex, in some coordinate
    space.  The candidates are the columns of the projector onto their span,
    taken in coordinate order; each is accepted greedily (Gram-Schmidt) when
    its residual norm exceeds 1e-8 and is then cleaned by :func:`_snap_rows`.
    The result depends only on the span, not on the gauge of the rows.

    The orthogonalization runs in kernel coordinates (column idx of the
    projector is kernel^T conj(kernel[:, idx])), where the rows act as an
    isometry; every accepted direction therefore lies in the span up to
    rounding, however much cancellation the projection involved.  It is a
    block classical Gram-Schmidt with reorthogonalization (Barlow and
    Smoktunowicz, Numer. Math. 123, 2013) over blocks of BLOCK candidates:
    two passes of matrix-matrix products project a block against every
    vector accepted before it, then each column is accepted or rejected
    against the block's own accepted vectors, again in two passes, and the
    block's accepted vectors are snapped together, one matrix product to the
    coordinate space and one back.
    """
    dim, size = kernel.shape
    chosen = np.empty_like(kernel)
    coords = np.empty((dim, dim), dtype=kernel.dtype)
    count = 0
    for start in range(0, size, BLOCK):
        if count == dim:
            break
        block = kernel[:, start:start + BLOCK].conj()
        if count:
            # classical Gram-Schmidt twice: one pass can leave rounding noise
            # above the acceptance norm when a column is already spanned.  The
            # first pass's coefficients conj(coords) @ block are the accepted
            # rows' own entries in these columns, since the rows lie in the
            # span (up to the snapped dust); only rows with a nonzero entry
            # there take part.
            done = coords[:count]
            coef = chosen[:count, start:start + BLOCK].conj()
            live = coef.any(axis=1)
            block = block - done[live].T @ coef[live]
            block = block - done.T @ (done.conj() @ block)
        new = np.empty((min(BLOCK, dim - count), dim), dtype=kernel.dtype)
        taken = 0
        # a column of norm under 1e-8 stays under it when projected further
        for c in block.T[np.add.reduce((block.conj() * block).real, axis=0) > 1e-16]:
            if taken:
                ours = new[:taken]
                for _ in range(2):
                    c = c - ours.T @ (ours.conj() @ c)
            norm = math.sqrt(np.vdot(c, c).real)
            if norm > 1e-8:
                new[taken] = c / norm
                taken += 1
                if taken == len(new):
                    break
        if taken:
            rows = _snap_rows(new[:taken] @ kernel)
            chosen[count:count + taken] = rows
            # snapped rows are sparse on sparse kernels: skip their zero columns
            used = rows.any(axis=0)
            coords[count:count + taken] = rows[:, used] @ kernel[:, used].conj().T
            count += taken
    return chosen[:count]


def _kernel_rows(q, a, b, u, r, s):
    """Canonical coordinates of the kernel units M = Q (u E_ab + conj(u) E_ba) Q^H.

    One row per unit (a, b, u) over the canonical orthonormal Hermitian basis
    under Re tr(A B): the n diagonal units E_rr first, then for each pair
    (r, s), r < s in lexicographic order, the normalized embedded sigma_x and
    sigma_y.  Entry rs of M is u q_ra conj(q_sb) + conj(u) q_rb conj(q_sa),
    so the diagonal is 2 Re(u q_ra conj(q_rb)) and each pair has coordinates
    (Re z, -Im z) with z = sqrt(2) M_rs.  Rows are filled BLOCK at a time,
    which bounds the complex temporaries.
    """
    n = q.shape[0]
    rows = np.empty((len(a), n + 2 * len(r)))
    for start in range(0, len(a), BLOCK):
        part = slice(start, start + BLOCK)
        ua = u[part, None] * q.T[a[part]]
        qb = q.T[b[part]].conj()
        rows[part, :n] = 2.0 * (ua * qb).real
        z = np.sqrt(2.0) * (ua[:, r] * qb[:, s] + (ua[:, s] * qb[:, r]).conj())
        rows[part, n::2] = z.real
        rows[part, n + 1::2] = -z.imag
    return rows


def _from_coordinates(w, r, s):
    """Hermitian matrices from rows of canonical coordinates (see _kernel_rows).

    Filled BLOCK rows at a time, which bounds the complex temporaries.
    """
    n = w.shape[1] - 2 * len(r)
    m = np.zeros((len(w), n, n), dtype=complex)
    m[:, np.arange(n), np.arange(n)] = w[:, :n]
    for start in range(0, len(w), BLOCK):
        part = slice(start, start + BLOCK)
        z = np.sqrt(0.5) * (w[part, n::2] - 1j * w[part, n + 1::2])
        m[part, r, s] = z
        m[part, s, r] = z.conj()
    return m


def nullifier_space(k):
    """Complete space of quadratic nullifiers of K, solved in its Takagi frame.

    Write K = Q diag(s) Q^T (the Takagi form; Bloch-Messiah for a pure
    state) and M = Q A Q^H.  The real-linear map M -> MK + (MK)^T becomes
    A -> A diag(s) + diag(s) A^T, which is diagonal over the Hermitian units
    of A: the diagonal unit E_ii has singular value 2 s_i, and the
    sigma_x-like and sigma_y-like units on a pair i < j have s_i + s_j and
    |s_i - s_j|.  These n^2 numbers are the full spectrum of the map, and
    its kernel is spanned by the units whose value is at most
    TOL_KERNEL_REL times the largest.

    Q and s come from one symmetric eigendecomposition of the real matrix
    [[Re K, Im K], [Im K, -Re K]], whose eigenvalues are +-s_i: each
    eigenvector [x; y] of an eigenvalue s > TOL_KERNEL_REL s_max gives the
    Takagi vector x + iy, and the orthonormal complement of those vectors
    spans the (numerical) kernel of K, where s = 0.

    The kernel units are written straight from the columns of Q into the
    canonical orthonormal Hermitian basis of M (see :func:`_kernel_rows`)
    and canonicalized there by the blocked greedy Gram-Schmidt of
    :func:`_canonical_basis`, so output is reproducible byte-for-byte across
    runs.  Every generator is checked against the antisymmetry criterion,
    BLOCK generators per :func:`is_nullifier` call, before it is returned.

    Raises
    ------
    ShapeMismatch
        K is not square with at least one mode, or has a NaN or infinite
        entry.
    KernelTooLarge
        Before the kernel is built, if its working arrays would take more
        than MAX_KERNEL_BYTES.
    SelfCheckFailed
        A derived generator fails the criterion (a solver defect).
    """
    k = graphs.finite_square(k, "K")
    n = k.shape[0]
    x, y = k.real, k.imag
    vals, vecs = np.linalg.eigh(np.vstack([np.hstack([x, y]), np.hstack([y, -x])]))
    # the upper half of the spectrum holds every s_i; those under the cut
    # form an ascending prefix and are the zero block of the Takagi form
    keep = vals[n:] > TOL_KERNEL_REL * vals[-1]
    s = np.where(keep, vals[n:], 0.0)

    diag = np.arange(n)
    i, j = np.nonzero(diag[:, None] < diag)  # pairs i < j, lexicographic
    values = np.concatenate([2.0 * s, s[i] + s[j], np.abs(s[i] - s[j])])
    tau = TOL_KERNEL_REL * values.max()
    in_kernel = values <= tau
    dim = int(np.sum(in_kernel))

    # kernel rows, canonical rows and their coordinates (float64), and the
    # complex generators
    need = dim * (32 * n * n + 8 * dim)
    if need > MAX_KERNEL_BYTES:
        raise KernelTooLarge(
            f"{n} modes: the nullifier space has dimension {dim} and its solve "
            f"needs about {need:.3e} bytes; the solver's limit is "
            f"{MAX_KERNEL_BYTES:.3e} bytes"
        )

    borderline = False
    if 0 < dim < len(values):
        above = values[~in_kernel].min()
        below = values[in_kernel].max()
        if below > 0 and above / below < KERNEL_GAP_MIN:
            borderline = True

    q = vecs[:n, n:][:, keep] + 1j * vecs[n:, n:][:, keep]
    if not keep.all():
        # the orthonormal complement of the Takagi vectors is the zero block
        q = np.hstack([np.linalg.qr(q, mode="complete")[0][:, q.shape[1]:], q])
    # unit A = u E_ab + conj(u) E_ba, mapped back to M = Q A Q^H
    a = np.concatenate([diag, i, i])[in_kernel]
    b = np.concatenate([diag, j, j])[in_kernel]
    u = np.repeat([0.5, np.sqrt(0.5), -1j * np.sqrt(0.5)], [n, len(i), len(i)])
    chosen = _canonical_basis(_kernel_rows(q, a, b, u[in_kernel], i, j))

    generators = _from_coordinates(chosen, i, j)
    for start in range(0, dim, BLOCK):
        ok, res = is_nullifier(generators[start:start + BLOCK], k)
        if not np.all(ok):
            raise SelfCheckFailed(
                f"kernel element failed the residual check: {np.max(res):.3e}"
            )
    singular_values = np.sort(values)[::-1].tolist()
    return NullifierBasis(list(generators), dim, singular_values, float(tau), borderline)


def _as_block_diag(d, size, name):
    d = np.asarray(d, dtype=float)
    if d.ndim == 0:
        return float(d) * np.eye(size)
    if d.ndim == 1:
        if d.shape[0] != size:
            raise InvalidBlockShape(f"{name} needs {size} entries, got {d.shape[0]}")
        return np.diag(d)
    if d.ndim == 2:
        if d.shape != (size, size):
            raise InvalidBlockShape(f"{name} must be {size}x{size}, got {d.shape}")
        if np.max(np.abs(d - d.T)) > TOL_NULL:
            raise InvalidBlockShape(f"{name} must be real symmetric")
        return d
    raise InvalidBlockShape(f"{name} has too many dimensions: {d.ndim}")


def bipartite_nullifier(k0, d, d_right=None):
    """Analytic nullifier of a bipartite state from the SVD of its block.

    For K = [[0, K0], [K0^T, 0]] with K0 = U Sigma V^H, the matrix

        M = (U (+) V*) diag(D_left, -D_right) (U^H (+) V^T)

    is Hermitian and satisfies MK = -(MK)^T whenever
    D_left Sigma = Sigma D_right.  D may be a scalar, a vector of diagonal
    entries, or a full real symmetric matrix; d_right defaults to d (the
    square case, where the condition is automatic for diagonal D).

    Returns the (n1+n2) x (n1+n2) Hermitian generator.

    Raises
    ------
    InvalidBlockShape, NonCommutingD
    """
    k0 = np.asarray(k0, dtype=complex)
    if k0.ndim != 2:
        raise InvalidBlockShape(f"K0 must be 2-D, got {k0.ndim}-D")
    n1, n2 = k0.shape
    u, sing, vh = np.linalg.svd(k0)
    d1 = _as_block_diag(d, n1, "D")
    if d_right is None:
        if n1 != n2 and np.asarray(d).ndim != 0:
            raise InvalidBlockShape(
                "rectangular K0 needs d_right (or a scalar d)"
            )
        d2 = _as_block_diag(d, n2, "D")
    else:
        d2 = _as_block_diag(d_right, n2, "D_right")
    sigma = np.zeros((n1, n2))
    sigma[: len(sing), : len(sing)] = np.diag(sing)
    if np.max(np.abs(d1 @ sigma - sigma @ d2)) > TOL_NULL:
        raise NonCommutingD("D does not commute with the singular profile")
    top = u @ d1 @ u.conj().T
    bottom = -vh.T @ d2 @ vh.conj()
    m = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    m[:n1, :n1] = top
    m[n1:, n1:] = bottom
    return 0.5 * (m + m.conj().T)


def two_mode_invariant_class(alpha, beta, gamma, delta):
    """All two-mode states invariant under a given U(2) generator.

    The generator is M = (alpha sigma_0 + beta sigma_x + gamma sigma_y +
    delta sigma_z)/2; the antisymmetry criterion on a symmetric 2x2 matrix
    K = [[k11, k12], [k12, k22]] reduces to three complex linear constraints:

        (alpha + delta) k11 + (beta - i gamma) k12 = 0
        (beta + i gamma) k12 + (alpha - delta) k22 = 0
        (beta + i gamma) k11 + 2 alpha k12 + (beta - i gamma) k22 = 0

    The returned basis spans the solution set; the caller picks the scale
    (solutions are rays, physical states need spectral norm < 1).

    Raises
    ------
    AllZeroCoefficients
    """
    coeffs = np.array([alpha, beta, gamma, delta], dtype=float)
    if np.all(coeffs == 0.0):
        raise AllZeroCoefficients("generator coefficients are all zero")
    a, b, g, d = coeffs
    bp = b + 1j * g
    bm = b - 1j * g
    system = np.array(
        [
            [a + d, bm, 0.0],
            [0.0, bp, a - d],
            [bp, 2.0 * a, bm],
        ],
        dtype=complex,
    )
    _, sing, vh = np.linalg.svd(system)
    smax = sing[0]
    tau = TOL_KERNEL_REL * smax
    dim = int(np.sum(sing <= tau))
    kernel = vh[3 - dim:].conj()
    return TwoModeClass(list(_canonical_basis(kernel)), dim)


def verify_symmetry(k, m, theta_grid):
    """Max deviation of exp(-i theta M) K exp(-i theta M)^T from K.

    For a true nullifier the deviation stays at rounding level for every
    theta; otherwise it grows linearly near theta = 0 with slope set by the
    antisymmetry residual.

    M is checked and diagonalized once (:func:`schwinger.unitary_path`);
    each W is the product :func:`schwinger.generator_to_unitary` computes,
    bit for bit.

    Raises
    ------
    ShapeMismatch, NonHermitian
    """
    k = np.asarray(k, dtype=complex)
    m = np.asarray(m, dtype=complex)
    if m.shape != k.shape:
        raise ShapeMismatch(f"shapes {m.shape} and {k.shape} incompatible")
    unitary = unitary_path(m)
    worst = 0.0
    for theta in np.atleast_1d(np.asarray(theta_grid, dtype=float)):
        w = unitary(float(theta))
        dev = float(np.max(np.abs(w @ k @ w.T - k)))
        worst = max(worst, dev)
    return worst
