"""Complex-adjacency-matrix calculus for Gaussian pure states.

A zero-mean Gaussian pure state of n qumodes is fixed by a complex symmetric
matrix Z = V + iU with U positive definite, or equivalently by the adjacency
matrix K = (I + iZ)(I - iZ)^{-1}, which is complex symmetric with spectral
norm strictly below 1.  K is the edge-weight matrix of the state's graph:
the state is the zero eigenvector of every linear nullifier a_i - sum_j
K_ij adag_j.

This module converts between the two pictures, validates them, and applies
passive (photon-number-conserving) mode transformations.  Under b = W a the
adjacency matrix transforms as K' = W K W^T, which reduces to
K' = e^{-i Theta} K e^{-i Theta} for pure phase shifts.
"""

import json

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

# max-entry tolerance for symmetry of Z and K
TOL_SYM = 1e-10
# margin below the ||K|| = 1 edge; states at the edge are infinitely
# squeezed and (I + K) becomes ill-conditioned in u_from_k
TOL_EDGE = 1e-9
# edges below this magnitude are dropped from DOT exports
DOT_EDGE_CUTOFF = 1e-9


class ValidationReport:
    """Diagnostics for a candidate adjacency matrix.

    Attributes
    ----------
    symmetric_defect : float
        max |K - K^T| over entries.
    spectral_norm : float
        Largest singular value of K.
    min_eig_U : float
        Smallest eigenvalue of the reconstructed U matrix, or nan when
        (I + K) is singular and U cannot be formed.
    is_valid : bool
        True iff symmetric_defect <= TOL_SYM and spectral_norm < 1 - TOL_EDGE.
    """

    def __init__(self, symmetric_defect, spectral_norm, min_eig_U, is_valid):
        self.symmetric_defect = float(symmetric_defect)
        self.spectral_norm = float(spectral_norm)
        self.min_eig_U = float(min_eig_U)
        self.is_valid = bool(is_valid)

    def __repr__(self):
        return (
            "ValidationReport(symmetric_defect={:.3e}, spectral_norm={:.12g}, "
            "min_eig_U={:.6g}, is_valid={})".format(
                self.symmetric_defect,
                self.spectral_norm,
                self.min_eig_U,
                self.is_valid,
            )
        )


def _square_complex(m, name="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"{name} must be square 2-D, got shape {m.shape}")
    return m


def _symmetrize(k):
    # suppress floating-point drift after transforms; K stays symmetric
    return 0.5 * (k + k.T)


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
    NonSymmetric, NonPositiveU, SingularSolve
    """
    z = _square_complex(z, "Z")
    if np.max(np.abs(z - z.T)) > TOL_SYM:
        raise NonSymmetric("Z is not symmetric within tolerance")
    u = 0.5 * (z.imag + z.imag.T)
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
    NormAtOrAboveOne
        If the spectral norm of K is not strictly below 1 - TOL_EDGE.
    """
    k = _square_complex(k, "K")
    if np.linalg.norm(k, 2) >= 1.0 - TOL_EDGE:
        raise NormAtOrAboveOne("spectral norm of K is at or above the edge")
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
    """
    k = _square_complex(k, "K")
    n = k.shape[0]
    eye = np.eye(n)
    try:
        left = np.linalg.solve(eye + k, eye - k @ k.conj())
        u = np.linalg.solve((eye + k.conj()).T, left.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularSolve("(I + K) solve failed") from exc
    u = 0.5 * (u + u.conj().T)
    return u.real.copy()


def validate(k):
    """Build a :class:`ValidationReport` for a candidate K.

    An invalid K is reported, not rejected; only input that is not a square
    2-D matrix raises.

    Raises
    ------
    ShapeMismatch
        K is not square 2-D.
    """
    k = _square_complex(k, "K")
    defect = float(np.max(np.abs(k - k.T))) if k.size else 0.0
    norm = float(np.linalg.norm(k, 2)) if k.size else 0.0
    try:
        min_eig = float(np.linalg.eigvalsh(u_from_k(k)).min())
    except SingularSolve:
        min_eig = float("nan")
    is_valid = defect <= TOL_SYM and norm < 1.0 - TOL_EDGE
    return ValidationReport(defect, norm, min_eig, is_valid)


def phase_shift(k, thetas):
    """Apply per-mode phase shifts: K' = e^{-i Theta} K e^{-i Theta}.

    Parameters
    ----------
    k : (n, n) array_like
    thetas : (n,) array_like of reals
    """
    k = _square_complex(k, "K")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (k.shape[0],):
        raise ShapeMismatch(
            f"need {k.shape[0]} phase angles, got shape {thetas.shape}"
        )
    phase = np.exp(-1j * thetas)
    return _symmetrize(phase[:, None] * k * phase[None, :])


def passive_transform(k, w):
    """Transform K under the passive mode map b = W a: K' = W K W^T.

    The spectral norm and symmetry of K are preserved.  With diagonal
    W = e^{-i Theta} this reproduces :func:`phase_shift` exactly.

    Raises
    ------
    NonUnitary
        If max |W W^H - I| > 1e-10.
    """
    k = _square_complex(k, "K")
    w = _square_complex(w, "W")
    if w.shape != k.shape:
        raise ShapeMismatch(f"W shape {w.shape} does not match K {k.shape}")
    if np.max(np.abs(w @ w.conj().T - np.eye(w.shape[0]))) > 1e-10:
        raise NonUnitary("W is not unitary within 1e-10")
    return _symmetrize(w @ k @ w.T)


def hgraph_k(g, alpha):
    """Adjacency matrix of a multimode-squeezed (H-graph) state: K = tanh(alpha G).

    The matrix function is evaluated through the real symmetric
    eigendecomposition of G (tanh applied to eigenvalues), so it is valid for
    every alpha; no series expansion is involved.  For self-inverse G
    (G^2 = I) this collapses to tanh(alpha) * G since the eigenvalues are +-1.

    Parameters
    ----------
    g : (n, n) array_like, real symmetric
    alpha : float > 0
        Overall squeezing parameter.
    """
    g = np.asarray(g)
    if np.iscomplexobj(g):
        if np.max(np.abs(g.imag)) > TOL_SYM:
            raise NonSymmetricG("G must be real")
        g = g.real
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ShapeMismatch(f"G must be square 2-D, got shape {g.shape}")
    if g.size and np.max(np.abs(g - g.T)) > TOL_SYM:
        raise NonSymmetricG("G is not symmetric within tolerance")
    if not alpha > 0:
        raise NonPositiveAlpha("alpha must be > 0")
    vals, vecs = np.linalg.eigh(0.5 * (g + g.T))
    k = (vecs * np.tanh(alpha * vals)) @ vecs.T
    return _symmetrize(k.astype(complex))


def tms_k(alpha):
    """Two-mode squeezed vacuum: K = tanh(alpha) * sigma_x (2 x 2)."""
    if not alpha > 0:
        raise NonPositiveAlpha("alpha must be > 0")
    t = np.tanh(alpha)
    return np.array([[0.0, t], [t, 0.0]], dtype=complex)


# ----------------------------------------------------------------------
# serialization


def matrix_to_json(m):
    """Dense complex matrix -> {"n": n, "entries": [[re, im], ...]} (row-major)."""
    m = _square_complex(m, "matrix")
    entries = [[float(v.real), float(v.imag)] for v in m.ravel()]
    return {"n": int(m.shape[0]), "entries": entries}


def matrix_from_json(obj):
    """Inverse of :func:`matrix_to_json`; accepts a dict or a JSON string."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    n = int(obj["n"])
    entries = obj["entries"]
    if len(entries) != n * n:
        raise ShapeMismatch(f"expected {n * n} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(n, n)


def format_weight(v):
    """Complex edge weight as "a+bi" with 6 significant digits.

    Pure-real weights drop the imaginary part entirely.
    """
    v = complex(v)
    if abs(v.imag) < 1e-12 * max(1.0, abs(v.real)):
        return f"{v.real:.6g}"
    return f"{v.real:.6g}{v.imag:+.6g}i"


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
    for i in range(n):
        for j in range(i, n):
            v = k[i, j]
            if abs(v) < DOT_EDGE_CUTOFF:
                continue
            style = ""
            if abs(v.imag) < 1e-12 * max(1.0, abs(v.real)) and v.real < 0:
                style = ", style=dashed"
            lines.append(f'  {i} -- {j} [label="{format_weight(v)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
