"""Schwinger U(2) operators as Hermitian mode matrices.

A pair of qumodes (r, s) carries four quadratic, photon-number-conserving
operators:

    S^x = (adag_r a_s + adag_s a_r) / 2
    S^y = (adag_r a_s - adag_s a_r) / 2i
    S^z = (n_r - n_s) / 2
    S^0 = (n_r + n_s) / 2

Each is adag M a for a Hermitian matrix M = sigma/2 with sigma the
corresponding Pauli matrix embedded at rows/columns (r, s); x, y, z close the
su(2) algebra and S^0 commutes with all of them.  Real linear combinations of
these operators are exactly the operators adag M a with M Hermitian, and
that matrix picture is what this module manipulates: symbolic expressions of
Schwinger terms <-> Hermitian matrices, unitary basis changes, and matrix
exponentials of generators.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EqualIndices,
    IndexOutOfRange,
    NonHermitian,
    NonUnitary,
    ShapeMismatch,
)

AXES = ("0", "x", "y", "z")

# Hermiticity tolerance (max entry)
TOL_HERM = 1e-10


@dataclass(frozen=True)
class SchwingerTerm:
    """One coefficient * S^axis_{r,s} term.

    axis is one of "0", "x", "y", "z"; pair is (r, s) with r < s, except that
    axis "0" also admits r = s, where S^0_{r,r} is read as the single-mode
    number operator n_r.
    """

    axis: str
    pair: tuple
    coeff: float

    def __post_init__(self):
        if self.axis not in AXES:
            raise ShapeMismatch(f"unknown axis {self.axis!r}")
        r, s = self.pair
        if r < 0 or s < 0:
            raise IndexOutOfRange(f"negative mode index in pair ({r}, {s})")
        if r == s and self.axis != "0":
            raise EqualIndices(f"axis {self.axis} needs two distinct modes")
        if r > s:
            raise IndexOutOfRange(f"pair must be ordered, got ({r}, {s})")
        if not math.isfinite(self.coeff):
            raise ShapeMismatch(f"coefficient must be finite, got {self.coeff!r}")


@dataclass
class SchwingerExpression:
    """Real linear combination of Schwinger terms on n qumodes."""

    n: int
    terms: list

    def __post_init__(self):
        for t in self.terms:
            if t.pair[1] >= self.n:
                raise IndexOutOfRange(
                    f"pair {t.pair} outside 0..{self.n - 1}"
                )


def embed_pauli(axis, r, s, n):
    """Pauli matrix sigma_axis embedded at modes (r, s) of an n-mode system.

    The quadratic operator adag (sigma_axis^{(r,s)} / 2) a is the Schwinger
    S^axis_{r,s} operator.

    Parameters
    ----------
    axis : str
        "0", "x", "y" or "z".
    r, s : int
        Mode indices, 0 <= r < s < n.
    n : int
        Total number of modes.
    """
    if axis not in AXES:
        raise ShapeMismatch(f"unknown axis {axis!r}")
    if not (0 <= r < n and 0 <= s < n):
        raise IndexOutOfRange(f"pair ({r}, {s}) outside 0..{n - 1}")
    if r == s:
        raise EqualIndices("embedding needs two distinct modes")
    if r > s:
        r, s = s, r
    m = np.zeros((n, n), dtype=complex)
    if axis == "0":
        m[r, r] = 1.0
        m[s, s] = 1.0
    elif axis == "x":
        m[r, s] = 1.0
        m[s, r] = 1.0
    elif axis == "y":
        m[r, s] = -1j
        m[s, r] = 1j
    else:
        m[r, r] = 1.0
        m[s, s] = -1.0
    return m


def expression_to_matrix(expr):
    """Assemble the Hermitian matrix M with adag M a = sum of the terms."""
    m = np.zeros((expr.n, expr.n), dtype=complex)
    for t in expr.terms:
        r, s = t.pair
        if r == s:
            # singleton S^0_{r,r} is the number operator n_r
            m[r, r] += t.coeff
        else:
            m += 0.5 * t.coeff * embed_pauli(t.axis, r, s, expr.n)
    return m


def _check_hermitian(m, what):
    # a NaN entry would pass the tolerance test below: nan > TOL_HERM is False
    if not np.isfinite(m).all():
        raise NonHermitian(f"{what} has a NaN or infinite entry")
    if m.size and np.max(np.abs(m - m.conj().swapaxes(-1, -2))) > TOL_HERM:
        raise NonHermitian(f"{what} is not Hermitian within tolerance")


def _slots(n):
    """The (axis, pair) of every coefficient, in canonical order (see below)."""
    slots = []
    for k in range(n // 2):
        slots += [("0", (2 * k, 2 * k + 1)), ("z", (2 * k, 2 * k + 1))]
    if n % 2 == 1 and n >= 2:
        slots += [("0", (n - 2, n - 1)), ("z", (n - 2, n - 1))]
    if n == 1:
        # no partner mode: keep the bare number operator
        slots.append(("0", (0, 0)))
    for r in range(n):
        for s in range(r + 1, n):
            slots += [("x", (r, s)), ("y", (r, s))]
    return slots


def _coefficient_table(ms):
    """Canonical Schwinger coefficients of a stack of Hermitian matrices.

    ms has shape (d, n, n).  Returns the slot list ``[(axis, pair), ...]``
    and a (d, len(slots)) float array; a zero coefficient means the term is
    absent.  The slots are the diagonal pairs (2k, 2k+1) as
    (d_r + d_s) S^0 + (d_r - d_s) S^z, for odd n the lone trailing entry d
    as d S^0 - d S^z on the last pair (for n = 1 the bare d S^0_{0,0}), then
    2 Re(M_rs) S^x - 2 Im(M_rs) S^y for each r < s in lexicographic order.

    Raises
    ------
    ShapeMismatch, NonHermitian
    """
    ms = np.asarray(ms, dtype=complex)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ShapeMismatch(f"expected a stack of square matrices, got {ms.shape}")
    _check_hermitian(ms, "matrix")
    d, n = ms.shape[0], ms.shape[1]
    diag = np.diagonal(ms, axis1=1, axis2=2).real
    even, odd = diag[:, 0:n - 1:2], diag[:, 1:n:2]
    parts = [np.stack([even + odd, even - odd], axis=-1).reshape(d, -1)]
    if n % 2 == 1:
        last = diag[:, n - 1:]
        parts.append(np.hstack([last, -last]) if n >= 2 else last)
    r, s = np.triu_indices(n, 1)
    upper = ms[:, r, s]
    parts.append(np.stack([2.0 * upper.real, -2.0 * upper.imag], axis=-1).reshape(d, -1))
    return _slots(n), np.hstack(parts)


def matrix_to_expression(m):
    """Decompose a Hermitian matrix into Schwinger terms (canonical form).

    The Schwinger family is overcomplete, so a fixed decomposition rule is
    used: each off-diagonal entry M_rs (r < s) contributes
    2 Re(M_rs) S^x_{r,s} - 2 Im(M_rs) S^y_{r,s}; diagonal entries are taken
    in consecutive pairs (2k, 2k+1) as (d_r + d_s) S^0 + (d_r - d_s) S^z,
    and for odd n the lone trailing entry d becomes d (S^0 - S^z) on the
    last pair.  The result round-trips through
    :func:`expression_to_matrix` to 1e-12.

    Raises
    ------
    NonHermitian
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"matrix must be square 2-D, got {m.shape}")
    slots, table = _coefficient_table(m[None])
    terms = [
        SchwingerTerm(axis, pair, c)
        for (axis, pair), c in zip(slots, table[0].tolist())
        if c != 0.0
    ]
    return SchwingerExpression(m.shape[0], terms)


def combine_terms(expr):
    """Collect like terms (same axis and pair) and drop exact zeros."""
    acc = {}
    for t in expr.terms:
        key = (t.axis, t.pair)
        acc[key] = acc.get(key, 0.0) + t.coeff
    terms = [
        SchwingerTerm(axis, pair, c)
        for (axis, pair), c in sorted(
            acc.items(), key=lambda kv: (kv[0][1], AXES.index(kv[0][0]))
        )
        if c != 0.0
    ]
    return SchwingerExpression(expr.n, terms)


def add_expressions(a, b, ca=1.0, cb=1.0):
    """ca * a + cb * b as a combined expression."""
    if a.n != b.n:
        raise ShapeMismatch(f"mode counts differ: {a.n} vs {b.n}")
    terms = [SchwingerTerm(t.axis, t.pair, ca * t.coeff) for t in a.terms]
    terms += [SchwingerTerm(t.axis, t.pair, cb * t.coeff) for t in b.terms]
    return combine_terms(SchwingerExpression(a.n, terms))


def su2_structure_check(r, s, n):
    """Max defect of the u(2) structure relations for the embedding at (r, s).

    Checks [sigma_k/2, sigma_l/2] = i eps_klm sigma_m/2 on the embedded x, y,
    z matrices, and that the embedded sigma_0 commutes with all three.
    Returns the largest absolute entry of any violated relation (0 for a
    correct embedding).
    """
    sig = {a: embed_pauli(a, r, s, n) for a in AXES}
    eps = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}
    defect = 0.0

    def comm(a, b):
        return a @ b - b @ a

    for (k, l), target in eps.items():
        d = comm(0.5 * sig[k], 0.5 * sig[l]) - 0.5j * sig[target]
        defect = max(defect, float(np.max(np.abs(d))))
        d = comm(0.5 * sig[l], 0.5 * sig[k]) + 0.5j * sig[target]
        defect = max(defect, float(np.max(np.abs(d))))
    for a in ("x", "y", "z"):
        defect = max(defect, float(np.max(np.abs(comm(sig["0"], sig[a])))))
    return defect


def change_basis(m, w):
    """Rewrite the quadratic form adag M a in the new modes b = W a.

    Returns M' = W^H M W, so adag_new M' a_new is the same operator.
    Hermiticity is preserved (re-symmetrized against rounding).
    """
    m = np.asarray(m, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if m.shape != w.shape or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"shapes {m.shape} and {w.shape} incompatible")
    if np.max(np.abs(w @ w.conj().T - np.eye(w.shape[0]))) > 1e-10:
        raise NonUnitary("W is not unitary within 1e-10")
    out = w.conj().T @ m @ w
    return 0.5 * (out + out.conj().T)


def unitary_path(m):
    """The map theta -> exp(-i theta M), with M checked and diagonalized once.

    W = V exp(-i theta Lambda) V^H from the Hermitian eigendecomposition
    M = V Lambda V^H, so W is unitary to rounding for any real theta.  This
    is the one unitary formula; :func:`generator_to_unitary` is one point of
    it.

    Raises
    ------
    ShapeMismatch, NonHermitian
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"matrix must be square 2-D, got {m.shape}")
    _check_hermitian(m, "generator")
    vals, vecs = np.linalg.eigh(m)
    vecs_h = vecs.conj().T

    def unitary(theta):
        return (vecs * np.exp(-1j * theta * vals)) @ vecs_h

    return unitary


def generator_to_unitary(m, theta):
    """Mode unitary W = exp(-i theta M) generated by the Hamiltonian adag M a.

    See :func:`unitary_path`.
    """
    return unitary_path(m)(theta)


# ----------------------------------------------------------------------
# serialization and pretty printing


def expression_to_json(expr):
    """SchwingerExpression -> plain dict (stable term order as given)."""
    return {
        "n": int(expr.n),
        "terms": [
            {"axis": t.axis, "pair": [int(t.pair[0]), int(t.pair[1])], "coeff": float(t.coeff)}
            for t in expr.terms
        ],
    }


def expression_from_json(obj):
    """Inverse of :func:`expression_to_json`; accepts a dict or JSON string.

    Raises
    ------
    ShapeMismatch
        The value is not an object with an integer n and a list of terms,
        each with an axis, a pair of two integers and a finite numeric coeff
        (JSON numbers, not strings, NaN or Infinity).
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        n = obj["n"]
        terms = [(t["axis"], t["pair"], t["coeff"]) for t in obj["terms"]]
    except (LookupError, TypeError) as exc:
        raise ShapeMismatch(
            f"expression JSON needs n and terms with axis, pair and coeff: {exc}"
        ) from None
    if type(n) is not int or not all(
        type(pair) is list and len(pair) == 2 and {type(i) for i in pair} == {int}
        and type(coeff) in (int, float) and math.isfinite(coeff)
        for _, pair, coeff in terms
    ):
        raise ShapeMismatch(
            "expression JSON needs an integer n and terms with an integer pair "
            "[r, s] and a finite numeric coeff"
        )
    return SchwingerExpression(
        n, [SchwingerTerm(axis, tuple(pair), float(coeff)) for axis, pair, coeff in terms]
    )


def _format_coeff(c):
    # keep one decimal on integral coefficients so "1.0" reads as a weight;
    # a value that only rounds to an integer (0.9999999999999999) reads the
    # same, so a last-bit change cannot flip "1.0" to "1"
    if c == int(c) and abs(c) < 1e15:
        return f"{c:.1f}"
    text = f"{c:.10g}"
    return text + ".0" if text.lstrip("-").isdigit() else text


# sign before a term: first term (c >= 0, else), later term (c >= 0, c < 0)
_SIGNS = np.array(["", "-", " + ", " - "], dtype=object)


def _join_terms(coeffs, bodies, ends):
    """Signed sums "c0·b0 - c1·b1 + ..." over consecutive runs of terms.

    coeffs and bodies hold the terms of all runs back to back and ends the
    offset where each run stops; returns one string per run, "0" for an
    empty run.  The distinct |coeff| are formatted in one ``%.10g`` template
    pass; :func:`_format_coeff` spells only those it treats specially.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    ends = np.asarray(ends, dtype=int)
    mags, which = np.unique(np.abs(coeffs), return_inverse=True)
    values = mags.tolist()
    texts = ("\0".join(["%.10g"] * len(values)) % tuple(values)).split("\0")
    # _format_coeff respells integral and non-finite values and those within
    # 1e-9 of an integer, whose %.10g text may be a bare integer
    nearest = np.rint(mags)
    for i in np.flatnonzero(~(np.abs(mags - nearest) > 1e-9 * nearest)).tolist():
        texts[i] = _format_coeff(values[i])
    starts = np.concatenate([[0], ends[:-1]])
    first = np.zeros(len(coeffs), dtype=bool)
    first[starts[starts < len(coeffs)]] = True
    signs = np.where(first, ~(coeffs >= 0), 2 + (coeffs < 0))
    # three pieces per term: its sign, its |coeff| and "·" with its body
    pieces = [None] * (3 * len(coeffs))
    pieces[0::3] = _SIGNS[signs].tolist()
    pieces[1::3] = np.array(texts, dtype=object)[which].tolist()
    pieces[2::3] = bodies
    return [
        "".join(pieces[3 * b:3 * e]) or "0"
        for b, e in zip(starts.tolist(), ends.tolist())
    ]


def _term_body(axis, pair, labels):
    return f"·S^{axis}_{{{labels[pair[0]]},{labels[pair[1]]}}}"


def format_expression(expr, labels=None):
    """Render an expression like "1.0·S^z_{0,1} - 0.5·S^x_{0,2}".

    Parameters
    ----------
    expr : SchwingerExpression
    labels : list of str, optional
        Per-mode labels replacing the bare indices (e.g. "1a" for wire
        spin/rail naming).
    """
    if labels is None:
        labels = [str(i) for i in range(expr.n)]
    return _join_terms(
        [t.coeff for t in expr.terms],
        [_term_body(t.axis, t.pair, labels) for t in expr.terms],
        [len(expr.terms)],
    )[0]


# generators rendered per block of the (d, n, n) stack, which bounds the
# temporary coefficient table on large kernels
DISPLAY_BLOCK = 64


def display_expressions(generators, labels=None):
    """Pretty expression of each Hermitian matrix, largest coefficient 1.0.

    Each matrix is written in the canonical Schwinger form of
    :func:`matrix_to_expression` and rescaled so its largest |coefficient|
    is 1.0.  Coefficients twelve orders below the largest are rounding dust
    from the kernel solve and are dropped from the printout.  A matrix with
    no terms renders as "0".  The matrices are read DISPLAY_BLOCK at a time
    into one coefficient table; each distinct magnitude of a block is
    spelled once (see :func:`_join_terms`) and each expression is one join
    of sign, coefficient and term pieces.

    Parameters
    ----------
    generators : sequence of (n, n) Hermitian matrices, or a (d, n, n) array
    labels : list of str, optional
        Per-mode labels, as in :func:`format_expression`.

    Raises
    ------
    ShapeMismatch, NonHermitian
    """
    out = []
    bodies = None
    for start in range(0, len(generators), DISPLAY_BLOCK):
        block = np.asarray(generators[start:start + DISPLAY_BLOCK], dtype=complex)
        slots, table = _coefficient_table(block)
        if bodies is None:
            if labels is None:
                labels = [str(i) for i in range(block.shape[-1])]
            bodies = np.array(
                [_term_body(axis, pair, labels) for axis, pair in slots], dtype=object
            )
        mags = np.abs(table)
        scale = mags.max(axis=1, initial=0.0)
        keep = (table != 0.0) & (mags >= 1e-12 * scale[:, None])
        rows, cols = np.nonzero(keep)
        out += _join_terms(
            table[rows, cols] / scale[rows],
            bodies[cols].tolist(),
            np.cumsum(np.bincount(rows, minlength=len(table))),
        )
    return out
