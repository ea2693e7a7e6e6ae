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
  blocks of matrix-matrix products (:func:`_canonical_basis`).  A complex K
  takes the complex Takagi route.  A real K takes a real route: with
  M = R + iS (R real symmetric, S real antisymmetric) the criterion splits
  into RK = -KR and SK = KS, so the space is the sum of an S^0/S^z/S^x half
  and an S^y half, each solved in real arithmetic from one real
  eigendecomposition K = O diag(lam) O^T;
* :func:`bipartite_nullifier` constructs one analytically from the singular
  value decomposition of a bipartite block;
* :func:`two_mode_invariant_class` inverts the question and solves for all
  two-mode K nullified by a given generator;
* :func:`verify_symmetry` checks the exponentiated statement, i.e. that
  W = exp(-i theta M) satisfies W K W^T = K.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroCoefficients,
    InvalidBlockShape,
    KernelTooLarge,
    NonCommutingD,
    PrecisionLimit,
    SelfCheckFailed,
    ShapeMismatch,
)
from . import graphs, schwinger

# spectra with above/below ratio under this are flagged, not trusted
KERNEL_GAP_MIN = 10.0
# candidate columns per Gram-Schmidt block, kernel rows per assembly step and
# generators per self-check call in nullifier_space
BLOCK = 64
# nullifier_space refuses a kernel whose working arrays would exceed this
MAX_KERNEL_BYTES = 2**30
# matrix entries of one (T, n, n) stack of verify_symmetry: a grid of more
# than SWEEP_ENTRIES / n^2 angles is swept in blocks of that many
SWEEP_ENTRIES = 2**18


@dataclass
class NullifierBasis:
    """Orthonormal basis of the quadratic nullifier space of one K.

    coordinates is a (dimension, n^2) float64 array with one row per basis
    generator M, in the canonical coordinates of Hermitian matrices (see
    :func:`schwinger.from_coordinates`): the n diagonal entries M_rr, then
    for each mode pair r < s, in lexicographic order, the coefficients w_x
    and w_y of the embedded sigma_x / sqrt(2) and sigma_y / sqrt(2), so that
    M_rs = sqrt(1/2) (w_x - i w_y).  In Schwinger terms each pair carries
    sqrt(2) (w_x S^x + w_y S^y).  The rows are orthonormal, which makes the
    generators orthonormal under the real inner product Re tr(A B).

    dimension is the number of rows; singular_values is the full spectrum
    of the map M -> MK + (MK)^T (n^2 values, descending), in closed form
    from the Takagi values s of K: 2 s_i, and s_i + s_j and |s_i - s_j| for
    i < j.  threshold is the cut below which values counted as kernel,
    useful for judging how clear the cut was; borderline is True when the
    spectral gap around the threshold is thinner than a factor 10.

    generators, the list of (n, n) complex Hermitian matrices of the rows,
    is built from the coordinates on first access and kept;
    :func:`nullifier_space` itself never builds it.
    """

    coordinates: np.ndarray
    dimension: int
    singular_values: list
    threshold: float = 0.0
    borderline: bool = False

    @functools.cached_property
    def generators(self):
        """The generators as a list of (n, n) complex matrices, built once."""
        return list(schwinger.from_coordinates(self.coordinates))


@dataclass
class TwoModeClass:
    """Solutions (k11, k12, k22) of the two-mode invariance constraints.

    basis holds unit complex 3-vectors; any complex combination, assembled
    into the symmetric matrix [[k11, k12], [k12, k22]] and scaled to spectral
    norm < 1, is a state nullified by the generator that produced the class.
    """

    basis: list
    dimension: int


def is_nullifier(m, k):
    """Antisymmetry test: does adag M a annihilate the state of K?

    m is one (n, n) matrix or a (d, n, n) stack of them, tested together,
    each against graphs.RTOL max|M| max|K| (:func:`graphs.passes`).  When m
    and K are both float64 the test runs in real arithmetic; otherwise both
    are taken as complex.

    Returns
    -------
    (bool, float), or for a stack (bool array, float array)
        The verdict and the residual max |MK + (MK)^T| of each matrix.

    Raises
    ------
    ShapeMismatch
        K is not square 2-D, or m is not one matrix or a stack of K's shape.
    """
    m, k = np.asarray(m), np.asarray(k)
    if m.dtype != float or k.dtype != float:
        m, k = m.astype(complex, copy=False), k.astype(complex, copy=False)
    square = k.ndim == 2 and k.shape[0] == k.shape[1]
    if not square or m.ndim not in (2, 3) or m.shape[-2:] != k.shape:
        raise ShapeMismatch(f"shapes {m.shape} and {k.shape} incompatible")
    mk = m @ k
    residual = np.abs(mk + mk.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if m.ndim == 2:
        return graphs.passes(residual, m, k), float(residual)
    return graphs.passes(residual, m, k), residual


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

    The per-column passes call ``ndarray.dot``, not ``@``: both run the same
    BLAS gemv on the same operands, but ``dot`` skips the generalized-ufunc
    dispatch of matmul, which dominates on the small operands of this loop
    (about 0.6 against 1.0 µs a call at 30 x 66 float64, numpy 2.4 on one
    BLAS thread of a Xeon VM).  Nor does the loop allocate per candidate:
    each gemv writes into ``out=`` work vectors made once per call, each
    pass subtracts into the candidate itself (a row of the block's copy of
    its candidate columns, never the kernel), an accepted vector is divided
    straight into its row, and the accepted rows and their conjugate are
    sliced again only when a vector is accepted.  ``out=`` changes where a
    result lands, not the call or its operands, and a real norm's
    ``c.dot(c)`` is the ddot that ``np.vdot`` runs, so no bit moves.  On
    float64 kernels the result is byte for byte that of ``@``
    (tests/conftest.py keeps the ``@`` form as a reference); on complex
    kernels the two may differ in the last bit.

    Returns the accepted rows and, for each, the coordinate index of the
    candidate column it was accepted at (ascending).
    """
    dim, size = kernel.shape
    chosen = np.empty_like(kernel)
    index = np.empty(dim, dtype=int)
    coords = np.empty((dim, dim), dtype=kernel.dtype)
    real = not np.iscomplexobj(kernel)
    # the per-column passes' gemv results: y = work[:taken], then z
    work, z = np.empty(min(BLOCK, dim), dtype=kernel.dtype), np.empty(dim, dtype=kernel.dtype)
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
        cand = np.flatnonzero(np.add.reduce((block.conj() * block).real, axis=0) > 1e-16)
        # each c is a row of this copy, so the passes may subtract into it
        for col, c in zip(cand.tolist(), block.T[cand]):
            if taken:
                right.dot(c, out=y)
                np.subtract(c, left.dot(y, out=z), out=c)
                right.dot(c, out=y)
                np.subtract(c, left.dot(y, out=z), out=c)
            norm = math.sqrt(c.dot(c) if real else np.vdot(c, c).real)
            if norm > 1e-8:
                np.divide(c, norm, out=new[taken])
                index[count + taken] = start + col
                taken += 1
                if taken == len(new):
                    break
                left, right, y = new[:taken].T, new[:taken].conj(), work[:taken]
        if taken:
            rows = _snap_rows(new[:taken] @ kernel)
            chosen[count:count + taken] = rows
            # snapped rows are sparse on sparse kernels: skip their zero columns
            used = rows.any(axis=0)
            coords[count:count + taken] = rows[:, used] @ kernel[:, used].conj().T
            count += taken
    return chosen[:count], index[:count]


def _kernel_rows(q, a, b, u, r, s):
    """Canonical coordinates of the kernel units M = Q (u E_ab + conj(u) E_ba) Q^H.

    One row per unit (a, b, u) over the canonical orthonormal Hermitian basis
    under Re tr(A B) (see :func:`schwinger.from_coordinates`): the n diagonal
    units E_rr first, then for each pair (r, s), r < s in lexicographic
    order, the normalized embedded sigma_x and sigma_y.  Entry rs of M is
    u q_ra conj(q_sb) + conj(u) q_rb conj(q_sa), so the diagonal is
    2 Re(u q_ra conj(q_rb)) and each pair has coordinates (Re z, -Im z)
    with z = sqrt(2) M_rs.  Rows are filled BLOCK at a time,
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


def _real_kernel_rows(o, a, b, r, s, symmetric):
    """Coordinates of the real kernel units O (E_ab +- E_ba) O^T of a real K.

    The symmetric units (E_ab + E_ba, a <= b, normalized) give the real
    symmetric part R of M, written over the diagonal units E_rr and then the
    normalized sigma_x of each pair r < s: entry rs of R is
    f (o_ra o_sb + o_rb o_sa) / 2 with f = 1 for a = b and sqrt(2) for
    a < b.  The antisymmetric units (E_ab - E_ba, a < b) give the real
    antisymmetric S of M = iS, written over the sigma_y of each pair, with
    coordinate o_ra o_sb - o_rb o_sa (the sign of a row does not change the
    span).  See :func:`_kernel_rows` for the canonical basis.  Rows are
    filled BLOCK at a time.
    """
    n = o.shape[0]
    rows = np.empty((len(a), n + len(r) if symmetric else len(r)))
    for start in range(0, len(a), BLOCK):
        part = slice(start, start + BLOCK)
        oa, ob = o.T[a[part]], o.T[b[part]]
        if symmetric:
            oa = np.where(a[part] == b[part], 1.0, np.sqrt(2.0))[:, None] * oa
            rows[part, :n] = oa * ob
            rows[part, n:] = np.sqrt(0.5) * (oa[:, r] * ob[:, s] + oa[:, s] * ob[:, r])
        else:
            rows[part] = oa[:, r] * ob[:, s] - oa[:, s] * ob[:, r]
    return rows


def _takagi_spectrum(k):
    """Takagi vectors Q and values s of a complex symmetric K = Q diag(s) Q^T.

    From one symmetric eigendecomposition of [[Re K, Im K], [Im K, -Re K]],
    whose eigenvalues are +-s_i: each eigenvector [x; y] of an eigenvalue
    s > graphs.RTOL s_max gives the Takagi vector x + iy, and an
    orthonormal complement of those vectors spans the (numerical) kernel of
    K, where s is set to 0.
    """
    n = k.shape[0]
    x, y = k.real, k.imag
    vals, vecs = np.linalg.eigh(np.vstack([np.hstack([x, y]), np.hstack([y, -x])]))
    # the upper half of the spectrum holds every s_i; those under the cut
    # form an ascending prefix and are the zero block of the Takagi form
    keep = vals[n:] > graphs.RTOL * vals[-1]
    q = vecs[:n, n:][:, keep] + 1j * vecs[n:, n:][:, keep]
    if not keep.all():
        q = np.hstack([np.linalg.qr(q, mode="complete")[0][:, q.shape[1]:], q])
    return q, np.where(keep, vals[n:], 0.0)


def _real_canonical_rows(o, in_kernel, i, j):
    """Canonical coordinates of the kernel of a real K, one half at a time.

    in_kernel marks the units of :func:`nullifier_space`'s real route: the
    n diagonal and the pair symmetric units (the R half, supported on the
    diagonal and sigma_x coordinates), then the pair antisymmetric units
    (the S half, on the sigma_y coordinates).  The two halves occupy
    disjoint coordinates, so every projector column lies in one of them and
    the greedy basis over all coordinates is the union of each half's own,
    in the order of the coordinates at which their vectors were accepted.

    Returns the merged coordinate rows and the row numbers of each half
    (the R half's, then the S half's).
    """
    n, pairs = o.shape[0], len(i)
    sym, anti = in_kernel[:n + pairs], in_kernel[n + pairs:]
    a, b = np.concatenate([np.arange(n), i]), np.concatenate([np.arange(n), j])
    sym_rows, sym_at = _canonical_basis(_real_kernel_rows(o, a[sym], b[sym], i, j, True))
    anti_rows, anti_at = _canonical_basis(_real_kernel_rows(o, i[anti], j[anti], i, j, False))
    # each half's columns among all coordinates: E_rr is r, and the sigma_x
    # and sigma_y of pair p are n + 2p and n + 2p + 1; a vector's row in the
    # merged basis is the rank of the coordinate it was accepted at
    sym_cols = np.concatenate([np.arange(n), n + 2 * np.arange(pairs)])
    anti_cols = n + 1 + 2 * np.arange(pairs)
    place = np.argsort(np.argsort(np.concatenate([sym_cols[sym_at], anti_cols[anti_at]])))
    sym_place, anti_place = place[:len(sym_at)], place[len(sym_at):]
    chosen = np.zeros((len(place), n * n))
    chosen[sym_place[:, None], sym_cols] = sym_rows
    chosen[anti_place[:, None], anti_cols] = anti_rows
    return chosen, (sym_place, anti_place)


def _check_representable(top):
    """Refuse a K whose largest Takagi value top would overflow the spectrum.

    The spectrum holds 2 s_i and s_i + s_j, which a float represents only
    while s_max is at most half the largest float.
    """
    if top > np.finfo(float).max / 2:
        raise PrecisionLimit(
            f"K has a Takagi value of {top:.3e}: twice it, a singular value of "
            f"the nullifier map, exceeds the largest float {np.finfo(float).max:.3e}"
        )


def nullifier_space(k):
    """Complete space of quadratic nullifiers of K, solved in its Takagi frame.

    Write K = Q diag(s) Q^T (the Takagi form; Bloch-Messiah for a pure
    state) and M = Q A Q^H.  The real-linear map M -> MK + (MK)^T becomes
    A -> A diag(s) + diag(s) A^T, which is diagonal over the Hermitian units
    of A: the diagonal unit E_ii has singular value 2 s_i, and the
    sigma_x-like and sigma_y-like units on a pair i < j have s_i + s_j and
    |s_i - s_j|.  These n^2 numbers are the full spectrum of the map, and
    its kernel is spanned by the units whose value is at most
    graphs.RTOL times the largest.  There are two routes to it:

    * Complex K: Q and s come from one symmetric eigendecomposition of a
      real 2n x 2n matrix (:func:`_takagi_spectrum`), and the kernel units
      are written straight from the columns of Q into the canonical
      orthonormal Hermitian basis of M (see :func:`_kernel_rows`).
    * Real K (no imaginary part): write M = R + iS with R real symmetric
      and S real antisymmetric.  The criterion splits into RK = -KR and
      SK = KS, and with K = O diag(lam) O^T from one real n x n
      eigendecomposition, into (lam_a + lam_b) A_ab = 0 for the symmetric
      units of R = O A O^T (pairs a <= b) and (lam_a - lam_b) B_ab = 0 for
      the antisymmetric units of S = O B O^T (pairs a < b).  These are the
      same n^2 values, as s = |lam|.  In Schwinger terms every nullifier of
      a real K is a sum of an S^0/S^z/S^x part (R, on the diagonal and
      sigma_x coordinates) and an S^y part (iS, on the sigma_y
      coordinates), each a nullifier on its own.  Each half is solved in
      real arithmetic over its own coordinates
      (:func:`_real_canonical_rows`).

    Either way the kernel is canonicalized by the blocked greedy
    Gram-Schmidt of :func:`_canonical_basis`, so output is reproducible
    byte-for-byte across runs and, up to rounding, the same on both routes.
    The basis is returned as its canonical coordinate rows; the complex
    generators are built only when a caller asks for them (see
    :class:`NullifierBasis`).  Every generator is checked against the
    antisymmetry criterion before it is returned, BLOCK generators per
    :func:`is_nullifier` call: on the complex route as complex matrices,
    on the real route as the real R or S of each half.

    Raises
    ------
    ShapeMismatch
        K is not square with at least one mode, or has a NaN or infinite
        entry.
    NonSymmetric
        max|K - K^T| exceeds graphs.RTOL max|K| (:func:`graphs.check_symmetric`).
    PrecisionLimit
        A Takagi value of K exceeds half the largest float, so the spectrum
        would overflow.
    KernelTooLarge
        Before the kernel is built, if its working arrays would take more
        than MAX_KERNEL_BYTES.
    SelfCheckFailed
        A derived generator fails the criterion (a solver defect).
    """
    k = graphs.finite_square(k, "K")
    graphs.check_symmetric(k)
    n = k.shape[0]
    diag = np.arange(n)
    i, j = schwinger._pairs(n)  # pairs i < j, lexicographic, as in the coordinates
    real = not k.imag.any()
    if real:
        # eigenvalues under the cut are the zero block, as on the complex
        # route; the values are laid out like the coordinates: diagonal,
        # then sigma_x-like (R half), then sigma_y-like (S half) pair units
        k = np.ascontiguousarray(k.real)
        lam, o = np.linalg.eigh(k)
        _check_representable(np.abs(lam).max())
        lam = np.where(np.abs(lam) > graphs.RTOL * np.abs(lam).max(), lam, 0.0)
        values = np.abs(np.concatenate([2.0 * lam, lam[i] + lam[j], lam[i] - lam[j]]))
    else:
        q, s = _takagi_spectrum(k)
        _check_representable(s.max())
        values = np.concatenate([2.0 * s, s[i] + s[j], np.abs(s[i] - s[j])])
    tau = graphs.RTOL * values.max()
    in_kernel = values <= tau
    dim = int(np.sum(in_kernel))

    # kernel rows, canonical rows and their coordinates (float64), and the
    # complex generators a caller may build from them
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

    if real:
        chosen, halves = _real_canonical_rows(o, in_kernel, i, j)
        # M = R + iS with R or S zero: each half is checked in real
        # arithmetic, as R against RK = -KR and as S against SK = KS, whose
        # residual |SK + (SK)^T| is that of M = iS
        stacks = (
            schwinger.real_from_coordinates(chosen[rows[start:start + BLOCK]], symmetric)
            for rows, symmetric in zip(halves, (True, False))
            for start in range(0, len(rows), BLOCK)
        )
    else:
        # unit A = u E_ab + conj(u) E_ba, mapped back to M = Q A Q^H
        a = np.concatenate([diag, i, i])[in_kernel]
        b = np.concatenate([diag, j, j])[in_kernel]
        u = np.repeat([0.5, np.sqrt(0.5), -1j * np.sqrt(0.5)], [n, len(i), len(i)])
        chosen = _canonical_basis(_kernel_rows(q, a, b, u[in_kernel], i, j))[0]
        stacks = (schwinger.from_coordinates(chosen[start:start + BLOCK])
                  for start in range(0, dim, BLOCK))

    for m in stacks:
        ok, res = is_nullifier(m, k)
        if not np.all(ok):
            raise SelfCheckFailed(
                f"kernel element failed the residual check: {np.max(res):.3e}"
            )
    singular_values = np.sort(values)[::-1].tolist()
    return NullifierBasis(chosen, dim, singular_values, float(tau), borderline)


def _as_block_diag(d, size, name):
    d = graphs.finite(d, name)
    if d.ndim == 0:
        return float(d) * np.eye(size)
    if d.ndim == 1:
        if d.shape[0] != size:
            raise InvalidBlockShape(f"{name} needs {size} entries, got {d.shape[0]}")
        return np.diag(d)
    if d.ndim == 2:
        if d.shape != (size, size):
            raise InvalidBlockShape(f"{name} must be {size}x{size}, got {d.shape}")
        if not graphs.passes(np.max(np.abs(d - d.T)), d):
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
    ShapeMismatch
        K0, D or d_right has a NaN or infinite entry.
    InvalidBlockShape, NonCommutingD
    """
    k0 = graphs.finite(k0, "K0", complex)
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
    defect = np.max(np.abs(d1 @ sigma - sigma @ d2))
    if not graphs.passes(defect, np.concatenate((d1, d2), axis=None), sing):
        raise NonCommutingD("D does not commute with the singular profile")
    top = u @ d1 @ u.conj().T
    bottom = -vh.T @ d2 @ vh.conj()
    m = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    m[:n1, :n1] = top
    m[n1:, n1:] = bottom
    return 0.5 * m + 0.5 * m.conj().T


def two_mode_invariant_class(alpha, beta, gamma, delta):
    """All two-mode states invariant under a given U(2) generator.

    The generator is M = (alpha sigma_0 + beta sigma_x + gamma sigma_y +
    delta sigma_z)/2; the antisymmetry criterion on a symmetric 2x2 matrix
    K = [[k11, k12], [k12, k22]] reduces to three complex linear constraints:

        (alpha + delta) k11 + (beta - i gamma) k12 = 0
        (beta + i gamma) k12 + (alpha - delta) k22 = 0
        (beta + i gamma) k11 + 2 alpha k12 + (beta - i gamma) k22 = 0

    The returned basis spans the solution set; the caller picks the scale
    (solutions are rays, physical states need spectral norm < 1).  The
    coefficients are first divided by the power of two of the largest
    magnitude, which is exact and keeps the system from overflowing.

    Raises
    ------
    ShapeMismatch
        A coefficient is NaN or infinite.
    AllZeroCoefficients
    """
    coeffs = graphs.finite([alpha, beta, gamma, delta], "generator coefficients")
    if np.all(coeffs == 0.0):
        raise AllZeroCoefficients("generator coefficients are all zero")
    a, b, g, d = np.ldexp(coeffs, -np.frexp(np.abs(coeffs).max())[1])
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
    dim = int(np.sum(sing <= graphs.RTOL * sing[0]))
    kernel = vh[3 - dim:].conj()
    return TwoModeClass(list(_canonical_basis(kernel)[0]), dim)


def verify_symmetry(k, m, theta_grid):
    """Max deviation of exp(-i theta M) K exp(-i theta M)^T from K.

    For a true nullifier the deviation stays at rounding level relative to
    max|K| (1 + |theta| max|M|), the phase rounding of W, for every theta;
    otherwise it grows linearly near theta = 0 with slope set by the
    antisymmetry residual.

    The grid's W form one (T, n, n) stack (:func:`schwinger.unitaries`, which
    checks and diagonalizes M once), and W K W^T - K is one batched product
    over it, whose slices are the products of the per-theta loop of
    :func:`schwinger.generator_to_unitary` bit for bit; a grid of more than
    SWEEP_ENTRIES / n^2 angles is swept in blocks of that many, one stack
    each.  The blocks are taken in grid order, so PrecisionLimit names the
    first angle past the limit.

    The deviation is NaN when a W K W^T is, for example when it overflows
    on a K near the float limit; a NaN fails every tolerance test of it.

    Raises
    ------
    ShapeMismatch
        K is not square 2-D with at least one mode, M does not have its
        shape, or an entry of K or of the grid is NaN or infinite.
    NonSymmetric
        max|K - K^T| exceeds graphs.RTOL max|K| (:func:`graphs.check_symmetric`).
    NonHermitian
        M has a NaN or infinite entry or is not Hermitian.
    PrecisionLimit
        max |theta| max|lambda| exceeds schwinger.PHASE_LIMIT.
    """
    k = graphs.finite_square(k, "K")
    graphs.check_symmetric(k)
    if np.shape(m) != k.shape:
        raise ShapeMismatch(f"shapes {np.shape(m)} and {k.shape} incompatible")
    thetas = graphs.finite(theta_grid, "theta grid").reshape(-1)
    step = max(1, SWEEP_ENTRIES // k.size)
    devs = []
    # an empty grid still checks M, in one empty block
    for at in range(0, max(len(thetas), 1), step):
        ws = schwinger.unitaries(m, thetas[at:at + step])
        devs.append(np.max(np.abs(ws @ k @ ws.swapaxes(1, 2) - k), initial=0.0))
    # np.max, not max: max(0.0, nan) is 0.0
    return float(np.max(devs, initial=0.0))
