"""Quadratic nullifier criteria and derivation.

A photon-number-conserving quadratic operator adag M a (M Hermitian)
annihilates the Gaussian pure state with adjacency matrix K exactly when

    M K = -(M K)^T.

Everything in this module is built on that antisymmetry criterion:

* :func:`is_nullifier` evaluates it directly;
* :func:`nullifier_space` returns an orthonormal basis of ALL Hermitian M
  satisfying it, solved in the Takagi frame K = Q diag(s) Q^T, where the
  criterion is diagonal and its spectrum has a closed form;
* :func:`bipartite_nullifier` constructs one analytically from the singular
  value decomposition of a bipartite block;
* :func:`two_mode_invariant_class` inverts the question and solves for all
  two-mode K nullified by a given generator;
* :func:`verify_symmetry` checks the exponentiated statement, i.e. that
  W = exp(-i theta M) satisfies W K W^T = K.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroCoefficients,
    InvalidBlockShape,
    NonCommutingD,
    SelfCheckFailed,
    ShapeMismatch,
)
from .schwinger import generator_to_unitary

# residual threshold for the antisymmetry criterion (max entry)
TOL_NULL = 1e-10
# singular values below TOL_KERNEL_REL * sigma_max count as kernel
TOL_KERNEL_REL = 1e-10
# spectra with above/below ratio under this are flagged, not trusted
KERNEL_GAP_MIN = 10.0


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

    Returns
    -------
    (bool, float)
        The verdict and the residual max |MK + (MK)^T|.
    """
    m = np.asarray(m, dtype=complex)
    k = np.asarray(k, dtype=complex)
    if m.shape != k.shape or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"shapes {m.shape} and {k.shape} incompatible")
    mk = m @ k
    residual = float(np.max(np.abs(mk + mk.T))) if m.size else 0.0
    return residual <= tol, residual


def _snap_and_sign(w, tol_zero=1e-13, tol_tie=1e-9):
    """Canonicalize one kernel vector in place of arbitrary solver gauge.

    Coordinates below tol_zero (relative to the largest) are solver dust and
    are snapped to zero; the vector is renormalized and then phased/signed so
    that its first coordinate of near-maximal magnitude is real positive.
    The near-tie tolerance keeps the choice stable when two coordinates are
    equal up to rounding.
    """
    mags = np.abs(w)
    w = np.where(mags < tol_zero * mags.max(), 0.0, w)
    w = w / np.linalg.norm(w)
    mags = np.abs(w)
    lead = int(np.argmax(mags >= (1.0 - tol_tie) * mags.max()))
    if np.iscomplexobj(w):
        w = w * (mags[lead] / w[lead])
        if abs(w[lead].imag) < tol_zero:
            w[lead] = w[lead].real
    elif w[lead] < 0:
        w = -w
    return w


def _canonical_basis(kernel):
    """Deterministic orthonormal basis of the row space of ``kernel``.

    kernel holds orthonormal rows, real or complex, in some coordinate
    space.  The candidates are the columns of the projector onto their span,
    taken in coordinate order; each is accepted greedily (Gram-Schmidt) when
    it adds a new direction and is then cleaned by :func:`_snap_and_sign`.
    The result depends only on the span, not on the gauge of the rows.

    The orthogonalization runs in kernel coordinates (column idx of the
    projector is kernel^T conj(kernel[:, idx])), where the rows act as an
    isometry; every accepted direction therefore lies in the span up to
    rounding, however much cancellation the projection involved.
    """
    dim, size = kernel.shape
    chosen = np.zeros_like(kernel)
    coords = np.zeros((dim, dim), dtype=kernel.dtype)
    count = 0
    for idx in range(size):
        if count == dim:
            break
        c = kernel[:, idx].conj()
        # classical Gram-Schmidt twice: one pass can leave rounding noise
        # above the acceptance norm when the column is already spanned
        for _ in range(2):
            c = c - coords[:count].T @ (coords[:count].conj() @ c)
        norm = np.linalg.norm(c)
        if norm > 1e-8:
            chosen[count] = _snap_and_sign(kernel.T @ (c / norm))
            coords[count] = kernel.conj() @ chosen[count]
            count += 1
    return chosen[:count]


def _coordinates(m, r, s):
    """Rows of real coordinates of a stack of Hermitian matrices ``m[d, n, n]``.

    The coordinates are taken over the canonical orthonormal Hermitian basis
    under Re tr(A B): the n diagonal units E_ii first, then for each pair
    (r, s), r < s in lexicographic order, the normalized embedded sigma_x and
    sigma_y.
    """
    z = np.sqrt(2.0) * m[:, r, s]
    pairs = np.stack([z.real, -z.imag], axis=-1).reshape(len(m), 2 * len(r))
    return np.hstack([np.diagonal(m, axis1=1, axis2=2).real, pairs])


def _from_coordinates(w, r, s):
    """Hermitian matrices from rows of canonical coordinates (see _coordinates)."""
    n = w.shape[1] - 2 * len(r)
    m = np.zeros((len(w), n, n), dtype=complex)
    m[:, np.arange(n), np.arange(n)] = w[:, :n]
    z = np.sqrt(0.5) * (w[:, n::2] - 1j * w[:, n + 1::2])
    m[:, r, s] = z
    m[:, s, r] = z.conj()
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

    The kernel is then canonicalized deterministically over the canonical
    orthonormal Hermitian basis of M (see :func:`_coordinates` and
    :func:`_canonical_basis`), so output is reproducible byte-for-byte
    across runs.  Every generator is checked against the antisymmetry
    criterion before it is returned.

    Raises
    ------
    ShapeMismatch
        K is not square.
    SelfCheckFailed
        A derived generator fails the criterion (a solver defect).
    """
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ShapeMismatch(f"K must be square 2-D, got {k.shape}")
    n = k.shape[0]
    x, y = k.real, k.imag
    vals, vecs = np.linalg.eigh(np.vstack([np.hstack([x, y]), np.hstack([y, -x])]))
    # the upper half of the spectrum holds every s_i; those under the cut
    # form an ascending prefix and are the zero block of the Takagi form
    keep = vals[n:] > TOL_KERNEL_REL * vals[-1]
    takagi = vecs[:n, n:][:, keep] + 1j * vecs[n:, n:][:, keep]
    zero_block = np.linalg.qr(takagi, mode="complete")[0][:, takagi.shape[1]:]
    q = np.hstack([zero_block, takagi])
    s = np.where(keep, vals[n:], 0.0)

    diag = np.arange(n)
    i, j = np.nonzero(diag[:, None] < diag)  # pairs i < j, lexicographic
    values = np.concatenate([2.0 * s, s[i] + s[j], np.abs(s[i] - s[j])])
    tau = TOL_KERNEL_REL * values.max()
    in_kernel = values <= tau
    dim = int(np.sum(in_kernel))

    borderline = False
    if 0 < dim < len(values):
        above = values[~in_kernel].min()
        below = values[in_kernel].max()
        if below > 0 and above / below < KERNEL_GAP_MIN:
            borderline = True

    # unit A = u E_ab + conj(u) E_ba, mapped back to M = Q A Q^H
    a = np.concatenate([diag, i, i])[in_kernel]
    b = np.concatenate([diag, j, j])[in_kernel]
    u = np.repeat([0.5, np.sqrt(0.5), -1j * np.sqrt(0.5)], [n, len(i), len(i)])
    t = u[in_kernel, None, None] * q.T[a, :, None] * q.T[b, None, :].conj()
    chosen = _canonical_basis(_coordinates(t + t.conj().transpose(0, 2, 1), i, j))

    generators = list(_from_coordinates(chosen, i, j))
    for m in generators:
        ok, res = is_nullifier(m, k)
        if not ok:
            raise SelfCheckFailed(f"kernel element failed the residual check: {res:.3e}")
    singular_values = np.sort(values)[::-1].tolist()
    return NullifierBasis(generators, dim, singular_values, float(tau), borderline)


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
    """
    k = np.asarray(k, dtype=complex)
    m = np.asarray(m, dtype=complex)
    if m.shape != k.shape:
        raise ShapeMismatch(f"shapes {m.shape} and {k.shape} incompatible")
    worst = 0.0
    for theta in np.atleast_1d(np.asarray(theta_grid, dtype=float)):
        w = generator_to_unitary(m, float(theta))
        dev = float(np.max(np.abs(w @ k @ w.T - k)))
        worst = max(worst, dev)
    return worst
