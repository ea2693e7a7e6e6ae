"""Complex-adjacency-matrix calculus for Gaussian pure states.

A zero-mean Gaussian pure state of n qumodes is fixed by a complex symmetric
matrix Z = V + iU with U positive definite, or equivalently by the adjacency
matrix K = (I + iZ)(I - iZ)^{-1}, which is complex symmetric with spectral
norm strictly below 1.  K is the edge-weight matrix of the state's graph:
the state is the zero eigenvector of every linear nullifier a_i - sum_j
K_ij adag_j.

This module converts between the two pictures, checks them, and applies
passive (photon-number-conserving) mode transformations.  Under b = W a the
adjacency matrix transforms as K' = W K W^T, which reduces to
K' = e^{-i Theta} K e^{-i Theta} for pure phase shifts.

It also holds the input policy of the package, one gate per kind of
operand: :func:`finite_square` for square matrices, :func:`unitary` for mode
unitaries, :func:`finite` for every other number, :func:`check_alpha` for
the squeezing parameter, :func:`check_symmetric` for the symmetry of K and Z
and :func:`check_edge` for the norm of K; and its
one tolerance rule, :func:`passes`, which every pass/fail check applies.
"""

import itertools
import json
import math

import numpy as np

from .errors import (
    NonPositiveAlpha,
    NonPositiveU,
    NonSymmetric,
    NonSymmetricG,
    NonUnitary,
    NormAtOrAboveOne,
    ShapeMismatch,
    SingularSolve,
)

# the one relative tolerance of every pass/fail check (see passes)
RTOL = 1e-10
# margin below the ||K|| = 1 edge; states at the edge are infinitely
# squeezed and (I + K) becomes ill-conditioned in u_from_k
TOL_EDGE = 1e-9
# edges below this magnitude are dropped from DOT exports
DOT_EDGE_CUTOFF = 1e-9


def _square_complex(m, name="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"{name} must be square 2-D, got shape {m.shape}")
    return m


def passes(residual, *operands):
    """The one pass/fail rule: residual <= RTOL times the operands' scale.

    The scale is the product of the operands' largest absolute entries (1
    with none).  One operand may be a (d, n, n) stack, whose d residuals are
    then judged each against its own matrix (a bool array; else a bool).  A
    NaN or infinite residual fails.  A scale past the float range is inf,
    silently; RTOL is applied first, so the true bound is past it too.
    """
    bound, stack = RTOL, None
    for x in operands:
        # a Python float: a product past the float range is inf, silently
        if isinstance(x, float):
            bound *= float(abs(x))
            continue
        a = np.abs(x)
        if a.ndim > 2:
            stack = a.max(axis=(-2, -1), initial=0.0)
        else:
            bound *= float(a.max(initial=0.0))
    if stack is None:
        return bool(residual <= bound) and math.isfinite(residual)
    with np.errstate(over="ignore"):
        return np.isfinite(residual) & (residual <= bound * stack)


def finite(x, name, dtype=float):
    """x as an array of dtype with every entry finite.

    The finiteness rule of every number a solver reads, applied once, before
    any arithmetic: here for vectors, coefficients and rectangular blocks,
    through :func:`finite_square` for square matrices, so that bad input is
    named as such.  (``schwinger._check_hermitian`` reports a non-finite
    generator as NonHermitian.)

    Raises
    ------
    ShapeMismatch
        An entry is NaN or infinite.
    """
    x = np.asarray(x, dtype=dtype)
    if not np.isfinite(x).all():
        raise ShapeMismatch(f"{name} entries must be finite, not NaN or Infinity")
    return x


def finite_square(m, name="K"):
    """m as a square 2-D complex array of at least one mode, all entries finite.

    The gate of every square matrix a solver reads: K, Z, G, the M of the
    Fock oracle, a mode unitary W (see :func:`unitary`) and matrix files.

    Raises
    ------
    ShapeMismatch
        m is not square 2-D with at least one mode, or an entry is NaN or
        infinite.
    """
    m = _square_complex(m, name)
    if not m.size:
        raise ShapeMismatch(f"{name} must have at least one mode")
    return finite(m, name, complex)


def unitary(w, n):
    """w as an n-mode unitary: :func:`finite_square`, shape (n, n), W W^H = I.

    The one unitarity gate, for the mode maps of :func:`passive_transform`.

    Raises
    ------
    ShapeMismatch
        W is not a finite (n, n) matrix.
    NonUnitary
        If max |W W^H - I| exceeds RTOL: :func:`passes`, with I as the scale.
    """
    w = finite_square(w, "W")
    if w.shape != (n, n):
        raise ShapeMismatch(f"W shape {w.shape} does not match {n} modes")
    if not passes(np.max(np.abs(w @ w.conj().T - np.eye(n)))):
        raise NonUnitary(f"W is not unitary within {RTOL:g}")
    return w


def check_alpha(alpha, name="alpha"):
    """The one squeezing-parameter check: alpha must be finite and > 0.

    Raises
    ------
    NonPositiveAlpha
        alpha is zero, negative, infinite or NaN.
    """
    if not alpha > 0:
        raise NonPositiveAlpha(f"{name} must be > 0")
    if not alpha < np.inf:
        raise NonPositiveAlpha(f"{name} must be finite")


def check_symmetric(m, name="K"):
    """The one symmetry gate of K and Z: max|m - m^T| within :func:`passes` of m.

    Raises
    ------
    NonSymmetric
        max|m - m^T| exceeds RTOL max|m|.
    """
    if not passes(np.max(np.abs(m - m.T)), m):
        raise NonSymmetric(f"{name} is not symmetric within tolerance")


def check_edge(k):
    """Raise NormAtOrAboveOne unless the finite K has spectral norm below 1 - TOL_EDGE."""
    # the Frobenius norm bounds the spectral norm and needs no SVD
    edge = 1.0 - TOL_EDGE
    if np.vdot(k, k).real >= edge * edge and np.linalg.svd(k, compute_uv=False)[0] >= edge:
        raise NormAtOrAboveOne("spectral norm of K is at or above the edge")


def _symmetrize(k):
    # suppress floating-point drift after transforms; K stays symmetric.
    # Halved before the sum, so no finite entry overflows
    return 0.5 * k + 0.5 * k.T


def z_to_k(z):
    """Convert a Z = V + iU potential to its adjacency matrix K.

    Parameters
    ----------
    z : (n, n) array_like, complex
        Symmetric matrix whose imaginary part is positive definite.

    Returns
    -------
    (n, n) ndarray
        K = (I + iZ)(I - iZ)^{-1}, complex symmetric with ||K|| < 1.

    Raises
    ------
    ShapeMismatch
        Z is not square 2-D with at least one mode, or has a NaN or
        infinite entry.
    NonSymmetric, NonPositiveU, SingularSolve
    """
    z = finite_square(z, "Z")
    check_symmetric(z, "Z")
    u = 0.5 * z.imag + 0.5 * z.imag.T
    if np.linalg.eigvalsh(u).min() <= 0:
        raise NonPositiveU("Im(Z) is not positive definite")
    n = z.shape[0]
    eye = np.eye(n)
    # K (I - iZ) = (I + iZ); solve on the right via the transposed system
    try:
        k = np.linalg.solve((eye - 1j * z).T, (eye + 1j * z).T).T
    except np.linalg.LinAlgError as exc:
        raise SingularSolve("(I - iZ) solve failed") from exc
    return _symmetrize(k)


def k_to_z(k):
    """Invert :func:`z_to_k`: Z = i (I + K)^{-1} (I - K).

    Raises
    ------
    ShapeMismatch
        K is not square 2-D with at least one mode, or has a NaN or
        infinite entry.
    NormAtOrAboveOne
        If the spectral norm of K is not below 1 - TOL_EDGE (:func:`check_edge`).
    """
    k = finite_square(k, "K")
    check_edge(k)
    n = k.shape[0]
    eye = np.eye(n)
    try:
        z = 1j * np.linalg.solve(eye + k, eye - k)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - norm guard above
        raise SingularSolve("(I + K) solve failed") from exc
    return _symmetrize(z)


def u_from_k(k):
    """Reconstruct U = Im(Z) directly from K.

    Uses U = (I + K)^{-1} (I - K K*) (I + K*)^{-1}, which is Hermitian and,
    for symmetric K, real symmetric up to rounding.  The returned matrix is
    the real symmetric part; it is positive definite exactly when ||K|| < 1.

    Raises
    ------
    ShapeMismatch
        K is not square 2-D with at least one mode, or has a NaN or
        infinite entry.
    SingularSolve
    """
    k = finite_square(k, "K")
    n = k.shape[0]
    eye = np.eye(n)
    try:
        left = np.linalg.solve(eye + k, eye - k @ k.conj())
        u = np.linalg.solve((eye + k.conj()).T, left.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularSolve("(I + K) solve failed") from exc
    u = 0.5 * (u + u.conj().T)
    return u.real.copy()


def defect_and_norm(k):
    """max|K - K^T| and the spectral norm of K.

    The two numbers ``gnl state --format text`` prints; neither needs a
    solve.  The verdicts on symmetry and on the norm edge are
    :func:`check_symmetric` and :func:`check_edge`.

    Raises
    ------
    ShapeMismatch
        K is not square 2-D with at least one mode, or has a NaN or
        infinite entry (:func:`finite_square`).
    """
    k = finite_square(k, "K")
    return float(np.max(np.abs(k - k.T))), float(np.linalg.norm(k, 2))


def phase_shift(k, thetas):
    """Apply per-mode phase shifts: K' = e^{-i Theta} K e^{-i Theta}.

    Parameters
    ----------
    k : (n, n) array_like
    thetas : (n,) array_like of reals

    Raises
    ------
    ShapeMismatch
        K is not square 2-D with at least one mode, there are not n angles,
        or an entry of either is NaN or infinite.
    """
    k = finite_square(k, "K")
    thetas = finite(thetas, "phase angles")
    if thetas.shape != (k.shape[0],):
        raise ShapeMismatch(
            f"need {k.shape[0]} phase angles, got shape {thetas.shape}"
        )
    phase = np.exp(-1j * thetas)
    return _symmetrize(phase[:, None] * k * phase[None, :])


def passive_transform(k, w):
    """Transform K under the passive mode map b = W a: K' = W K W^T.

    The spectral norm and symmetry of K are preserved.  With diagonal
    W = e^{-i Theta} this agrees with :func:`phase_shift` to rounding, not
    bit for bit: the matrix products round differently from phase_shift's
    entrywise ones, so the last bits of most entries may differ.

    Raises
    ------
    ShapeMismatch
        K or W is not square 2-D with at least one mode, their shapes
        differ, or an entry is NaN or infinite.
    NonUnitary
        If max |W W^H - I| exceeds RTOL (see :func:`unitary`).
    """
    k = finite_square(k, "K")
    w = unitary(w, k.shape[0])
    return _symmetrize(w @ k @ w.T)


def hgraph_k(g, alpha):
    """Adjacency matrix of a multimode-squeezed (H-graph) state: K = tanh(alpha G).

    The matrix function is evaluated through the real symmetric
    eigendecomposition of G (tanh applied to eigenvalues), so it is valid for
    every finite alpha and G, with no overflow; no series expansion is
    involved.  For self-inverse G (G^2 = I) this collapses to
    tanh(alpha) * G since the eigenvalues are +-1.

    Parameters
    ----------
    g : (n, n) array_like, real symmetric
    alpha : float, finite and > 0
        Overall squeezing parameter.

    Raises
    ------
    ShapeMismatch
        G is not square 2-D with at least one mode, or has a NaN or
        infinite entry.
    NonSymmetricG, NonPositiveAlpha
    """
    # G is halved before any sum and alpha * eigenvalue clipped where tanh is
    # exactly +-1 already, so no finite G or alpha overflows
    half = 0.5 * finite_square(g, "G")
    if not passes(np.max(np.abs(half - half.T.real)), half):
        raise NonSymmetricG("G is not real symmetric within tolerance")
    half = half.real
    check_alpha(alpha)
    vals, vecs = np.linalg.eigh(half + half.T)
    limit = 20.0 / float(alpha)
    k = (vecs * np.tanh(alpha * np.clip(vals, -limit, limit))) @ vecs.T
    return _symmetrize(k.astype(complex))


def tms_k(alpha):
    """Two-mode squeezed vacuum: K = tanh(alpha) * sigma_x (2 x 2)."""
    check_alpha(alpha)
    t = np.tanh(alpha)
    return np.array([[0.0, t], [t, 0.0]], dtype=complex)


# ----------------------------------------------------------------------
# serialization


def matrix_to_json(m):
    """Dense complex matrix -> {"n": n, "entries": [[re, im], ...]} (row-major)."""
    m = _square_complex(m, "matrix")
    entries = np.column_stack([m.real.ravel(), m.imag.ravel()]).tolist()
    return {"n": int(m.shape[0]), "entries": entries}


def matrix_from_json(obj):
    """Inverse of :func:`matrix_to_json`; accepts a dict or a JSON string.

    The entries are read by one float conversion of their values and one
    scan of the values' types, with no call per entry.

    Raises
    ------
    ShapeMismatch
        The value is not an object with an integer n >= 1 and n*n
        ``[re, im]`` entries of numbers, or an entry is a boolean, NaN,
        infinite or an integer past the float range.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        n, entries = obj["n"], obj["entries"]
        values = list(itertools.chain.from_iterable(entries))
        sizes = set(map(len, entries))
        parts = np.array(values, dtype=float)
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(
            f"matrix JSON needs n and entries of [re, im] pairs: {exc}"
        ) from None
    # the float conversion reads true and false as 1 and 0, a numeric string
    # as its number and null as NaN
    kinds = set(map(type, values)) - {int, float}
    if kinds:
        names = ", ".join(sorted(k.__name__ for k in kinds))
        raise ShapeMismatch(f"matrix JSON entries must be numbers, not {names}")
    if type(n) is not int or n < 1:
        raise ShapeMismatch(f"matrix JSON needs an integer n >= 1, got {n!r}")
    if sizes != {2} or len(entries) != n * n:
        raise ShapeMismatch(f"expected {n * n} [re, im] entries, got {len(entries)}")
    return finite_square(parts.view(complex).reshape(n, n), "matrix JSON")


def format_weight(v):
    """Complex edge weight as "a+bi" with 6 significant digits.

    Pure-real weights drop the imaginary part entirely.
    """
    v = complex(v)
    if abs(v.imag) < 1e-12 * max(1.0, abs(v.real)):
        return f"{v.real:.6g}"
    return f"{v.real:.6g}{v.imag:+.6g}i"


def edges(k):
    """The drawn edges of the K-graph: (i, j, K_ij) for i <= j, row by row.

    Entries with |K_ij| < DOT_EDGE_CUTOFF are left out; the weights are
    Python complex numbers.
    """
    k = _square_complex(k, "K")
    rows, cols = np.nonzero(np.triu(~(np.abs(k) < DOT_EDGE_CUTOFF)))
    return list(zip(rows.tolist(), cols.tolist(), k[rows, cols].tolist()))


def to_dot(k, labels=None):
    """Render the K-graph as DOT text.

    Nodes are qumode indices (or the given labels); edges carry the complex
    weight with 6 significant digits.  Edges with |K_ij| < 1e-9 are omitted
    and negative-real edges are drawn dashed, mirroring the usual
    positive/negative edge color convention.  Output is deterministic: nodes
    and edges are emitted in index order.
    """
    k = _square_complex(k, "K")
    n = k.shape[0]
    if labels is None:
        labels = [str(i) for i in range(n)]
    if len(labels) != n:
        raise ShapeMismatch(f"need {n} labels, got {len(labels)}")
    lines = ["graph K {"]
    for i in range(n):
        lines.append(f'  {i} [label="{labels[i]}"];')
    for i, j, v in edges(k):
        style = ""
        if abs(v.imag) < 1e-12 * max(1.0, abs(v.real)) and v.real < 0:
            style = ", style=dashed"
        lines.append(f'  {i} -- {j} [label="{format_weight(v)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
