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
Schwinger terms -> Hermitian matrices, the canonical coordinates of the
nullifier solver -> matrices and their printed Schwinger form, and matrix
exponentials of generators.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import graphs
from .errors import (
    EqualIndices,
    IndexOutOfRange,
    NonHermitian,
    PrecisionLimit,
    ShapeMismatch,
)

AXES = ("0", "x", "y", "z")

# largest |theta lambda| for exp(-i theta lambda): past it the spacing of
# floats near theta lambda is of order 2 pi, so the phase keeps no
# significant digit
PHASE_LIMIT = 2.0 * math.pi / np.finfo(float).eps


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


@dataclass(frozen=True)
class SchwingerExpression:
    """Real linear combination of Schwinger terms on n qumodes.

    Frozen, with the terms kept as a tuple, so that an expression stays as
    its checks found it: every reader relies on them.

    Raises
    ------
    ShapeMismatch
        n < 1.
    IndexOutOfRange
        A pair reaches past mode n - 1.
    """

    n: int
    terms: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ShapeMismatch(f"an expression needs at least one mode, got n = {self.n}")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if t.pair[1] >= self.n:
                raise IndexOutOfRange(
                    f"pair {t.pair} outside 0..{self.n - 1}"
                )


def embed_pauli(axis, r, s, n):
    """Pauli matrix sigma_axis embedded at modes (r, s) of an n-mode system.

    Twice the matrix of the one term S^axis_{r,s} (see
    :func:`expression_to_matrix`): the quadratic operator
    adag (sigma_axis^{(r,s)} / 2) a is the Schwinger S^axis_{r,s} operator.
    The axis, the order and the range of the pair are the term's and the
    expression's rules (:class:`SchwingerTerm`, :class:`SchwingerExpression`).

    Parameters
    ----------
    axis : str
        "0", "x", "y" or "z".
    r, s : int
        Mode indices, 0 <= r < s < n.
    n : int
        Total number of modes.

    Raises
    ------
    EqualIndices
        r == s: the singleton S^0_{r,r} is a number operator, no Pauli matrix.
    ShapeMismatch
        Unknown axis.
    IndexOutOfRange
        A negative index, r > s, or s >= n.
    """
    if r == s:
        raise EqualIndices("embedding needs two distinct modes")
    return 2.0 * expression_to_matrix(
        SchwingerExpression(n, [SchwingerTerm(axis, (r, s), 1.0)])
    )


def expression_to_matrix(expr):
    """Assemble the Hermitian matrix M with adag M a = sum of the terms.

    Each term c S^axis_{r,s} adds the entries of (c/2) sigma_axis at rows
    and columns (r, s) straight into M, and a singleton S^0_{r,r} adds c at
    (r, r); no matrix is built per term.  The sums are those of adding the
    terms' embedded matrices one by one, bit for bit, signed zeros included.
    """
    m = np.zeros((expr.n, expr.n), dtype=complex)
    re, im = m.real, m.imag
    for t in expr.terms:
        (r, s), h = t.pair, 0.5 * t.coeff
        if r == s:
            # singleton S^0_{r,r} is the number operator n_r
            re[r, r] += t.coeff
        elif t.axis == "x":
            re[r, s] += h
            re[s, r] += h
        elif t.axis == "y":
            im[r, s] -= h
            im[s, r] += h
        else:
            re[r, r] += h
            re[s, s] += h if t.axis == "0" else -h
    return m


def _check_hermitian(m, what):
    if not np.isfinite(m).all():
        raise NonHermitian(f"{what} has a NaN or infinite entry")
    defect = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if not np.all(graphs.passes(defect, m)):
        raise NonHermitian(f"{what} is not Hermitian within tolerance")


@functools.lru_cache(maxsize=128)
def _pairs(n):
    """Row and column indices (r, s) of the pairs r < s of n modes, lexicographic.

    Read-only and cached: np.triu_indices alone costs more than the rest of
    a small coordinate read.
    """
    r, s = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    r.flags.writeable = s.flags.writeable = False
    return r, s


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


def unitaries(m, thetas):
    """The (T, n, n) stack of the mode unitaries exp(-i theta M), theta in thetas.

    W = V exp(-i theta Lambda) V^H from the Hermitian eigendecomposition
    M = V Lambda V^H, taken once per call, so W is unitary to rounding for
    any theta with |theta| max|lambda| at most PHASE_LIMIT.  This is the one
    unitary formula; :func:`generator_to_unitary` is one angle of it.  Each
    slice equals, bit for bit, the stack of that angle alone.

    Raises
    ------
    ShapeMismatch
        M is not square 2-D, or an angle is NaN or infinite.
    NonHermitian
        M has a NaN or infinite entry or is not Hermitian.
    PrecisionLimit
        Before any arithmetic on the angles, when |theta| max|lambda|
        exceeds PHASE_LIMIT; it names the first such theta in thetas.
    """
    # the shape step lets a non-finite M through to _check_hermitian, which
    # reports it as NonHermitian
    m = graphs._square_complex(m, "generator")
    _check_hermitian(m, "generator")
    thetas = graphs.finite(thetas, "theta").reshape(-1)
    vals, vecs = np.linalg.eigh(m)
    radius = float(np.abs(vals).max(initial=0.0))
    # a product past the float range is inf, which is over the limit
    with np.errstate(over="ignore"):
        over = np.abs(thetas) * radius > PHASE_LIMIT
    if over.any():
        theta = float(thetas[over.argmax()])
        raise PrecisionLimit(
            f"theta {theta:.3e} times the largest |eigenvalue| "
            f"{radius:.3e} of the generator exceeds {PHASE_LIMIT:.3e}, where "
            f"the phase of exp(-i theta M) keeps no significant digit"
        )
    phases = np.exp(-1j * thetas[:, None] * vals)
    return (vecs * phases[:, None, :]) @ vecs.conj().T


def generator_to_unitary(m, theta):
    """Mode unitary W = exp(-i theta M) generated by the Hamiltonian adag M a.

    See :func:`unitaries`.

    Raises
    ------
    ShapeMismatch
        M is not square 2-D, or theta is NaN or infinite.
    NonHermitian
    PrecisionLimit
        |theta| max|lambda| exceeds PHASE_LIMIT.
    """
    return unitaries(m, [theta])[0]


# ----------------------------------------------------------------------
# serialization and pretty printing


def expression_from_json(obj):
    """The expression of {"n": n, "terms": [{"axis":, "pair": [r, s], "coeff":}, ...]}.

    Accepts a dict or a JSON string; the terms keep their order.

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

    coeffs (a float array) and bodies hold the terms of all runs back to
    back and ends (an int array) the offset where each run stops; returns
    one string per run, "0" for an empty run.  The distinct |coeff| are
    formatted in one ``%.10g`` template pass; :func:`_format_coeff` spells
    only those it treats specially.
    """
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


# coordinate rows read per block by coordinate_expressions and by
# from_coordinates, which bounds their temporaries on large kernels
DISPLAY_BLOCK = 64


# ----------------------------------------------------------------------
# canonical coordinates
#
# The nullifier solver writes each Hermitian n x n matrix M as n^2 real
# coordinates over a basis orthonormal under Re tr(A B): the n diagonal units
# E_rr first, then for each pair r < s, in lexicographic order, the embedded
# sigma_x / sqrt(2) and sigma_y / sqrt(2).  So M_rr = w_r and, for the pair's
# coordinates (w_x, w_y), M_rs = sqrt(1/2) (w_x - i w_y).  The functions
# below are the only readers of that layout.


def _modes(w):
    """The mode count n of a (d, n^2) array of coordinate rows.

    Raises
    ------
    ShapeMismatch
        w is not 2-D, or its row width is not n^2 for some n >= 1.
    """
    n = math.isqrt(w.shape[1]) if w.ndim == 2 else 0
    if n < 1 or n * n != w.shape[1]:
        raise ShapeMismatch(f"coordinate rows need shape (d, n^2) with n >= 1, got {w.shape}")
    return n


def from_coordinates(w):
    """The Hermitian matrices of rows of canonical coordinates.

    w is a (d, n^2) float array; returns the (d, n, n) complex stack.  Pairs
    are filled DISPLAY_BLOCK rows at a time, which bounds the complex
    temporaries.

    Raises
    ------
    ShapeMismatch
        w is not 2-D with a row width of n^2 (see :func:`_modes`).
    """
    n = _modes(w)
    r, s = _pairs(n)
    m = np.zeros((len(w), n, n), dtype=complex)
    m[:, np.arange(n), np.arange(n)] = w[:, :n]
    for start in range(0, len(w), DISPLAY_BLOCK):
        part = slice(start, start + DISPLAY_BLOCK)
        z = np.sqrt(0.5) * (w[part, n::2] - 1j * w[part, n + 1::2])
        m[part, r, s] = z
        m[part, s, r] = z.conj()
    return m


def real_from_coordinates(w, symmetric):
    """One real part of the matrices M = R + iS of rows of canonical coordinates.

    With symmetric true, the real symmetric R, read from the diagonal and
    sigma_x coordinates; otherwise the real antisymmetric S, read from the
    sigma_y coordinates (S_rs = -sqrt(1/2) w_y for r < s).  w is a
    (d, n^2) float array; returns a (d, n, n) float stack.

    Raises
    ------
    ShapeMismatch
        w is not 2-D with a row width of n^2 (see :func:`_modes`).
    """
    n = _modes(w)
    r, s = _pairs(n)
    m = np.zeros((len(w), n, n))
    if symmetric:
        m[:, np.arange(n), np.arange(n)] = w[:, :n]
        z = np.sqrt(0.5) * w[:, n::2]
        m[:, r, s] = z
        m[:, s, r] = z
    else:
        z = np.sqrt(0.5) * w[:, n + 1::2]
        m[:, r, s] = -z
        m[:, s, r] = z
    return m


def _slots(n):
    """The (axis, pair) of every coefficient, in :func:`_coordinate_table`'s order."""
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


def _coordinate_table(w):
    """Canonical Schwinger coefficients of the matrices of coordinate rows w.

    w has shape (d, n^2).  Returns a (d, len(_slots(n))) float array; a zero
    coefficient means the term is absent.  The Schwinger family is
    overcomplete, so a fixed rule is used: the diagonal pairs (2k, 2k+1) as
    (d_r + d_s) S^0 + (d_r - d_s) S^z, for odd n the lone trailing entry d
    as d S^0 - d S^z on the last pair (for n = 1 the bare d S^0_{0,0}), then
    2 Re(M_rs) S^x - 2 Im(M_rs) S^y for each r < s in lexicographic order.
    :func:`expression_to_matrix` of these terms gives back the matrix of the
    row.

    The S^x and S^y coefficients are read straight off the coordinates as
    2 (sqrt(1/2) w_x) and 2 (sqrt(1/2) w_y), bit for bit the 2 Re M_rs and
    -2 Im M_rs of the matrix :func:`from_coordinates` builds (the complex
    product that forms M_rs rounds its nonzero parts as the real one does;
    a zero may differ in sign, and the display drops zeros).  No matrix is
    built.
    """
    n = math.isqrt(w.shape[1])
    diag = w[:, :n]
    even, odd = diag[:, 0:n - 1:2], diag[:, 1:n:2]
    parts = [np.stack([even + odd, even - odd], axis=-1).reshape(len(w), -1)]
    if n % 2 == 1:
        last = diag[:, n - 1:]
        parts.append(np.hstack([last, -last]) if n >= 2 else last)
    return np.hstack(parts + [2.0 * (np.sqrt(0.5) * w[:, n:])])


_HALF_MAX = np.finfo(float).max / 2


def _check_rows(w):
    """Refuse coordinate rows whose Schwinger coefficients are not all finite.

    Raises
    ------
    ShapeMismatch
        An entry of w is NaN or infinite.
    PrecisionLimit
        A coefficient of a finite row overflows the float range.
    """
    graphs.finite(w, "coordinate row")
    with np.errstate(over="ignore"):
        table = _coordinate_table(w)
    if not np.isfinite(table).all():
        raise PrecisionLimit("a coordinate row's Schwinger coefficients overflow the float range")


def coordinate_expressions(w, labels=None):
    """Pretty Schwinger expression of the matrix of each coordinate row.

    Each row is written in the canonical Schwinger form of
    :func:`_coordinate_table` and rescaled so that its largest
    |coefficient| is 1.0.  Coefficients more than twelve orders below the
    largest are rounding dust from the kernel solve and are dropped; a row
    with no term left renders as "0".  The rows are read DISPLAY_BLOCK at a
    time, and no matrix is built.  Each distinct magnitude of a block is
    spelled once (see :func:`_join_terms`) and each expression is one join
    of sign, coefficient and term pieces, as in
    "1.0·S^z_{0,1} - 0.5·S^x_{0,2}".

    Parameters
    ----------
    w : (d, n^2) float array of canonical coordinate rows
    labels : list of str, optional
        Per-mode labels replacing the bare indices (e.g. "1a" for wire
        spin/rail naming).

    Raises
    ------
    ShapeMismatch
        w is not 2-D with a row width of n^2 (see :func:`_modes`), labels
        does not name n modes, or a row has a NaN or infinite entry, which
        would render as "0".
    PrecisionLimit
        A finite row's coefficients overflow the float range.
    """
    n = _modes(w)
    if labels is None:
        labels = [str(i) for i in range(n)]
    elif len(labels) != n:
        raise ShapeMismatch(f"need {n} labels, got {len(labels)}")
    bodies = np.array(
        [f"·S^{axis}_{{{labels[r]},{labels[s]}}}" for axis, (r, s) in _slots(n)], dtype=object
    )
    out = []
    for start in range(0, len(w), DISPLAY_BLOCK):
        block = w[start:start + DISPLAY_BLOCK]
        # no coefficient of rows below half the float range overflows; NaN
        # fails the comparison too
        if not np.abs(block).max() <= _HALF_MAX:
            _check_rows(block)
        table = _coordinate_table(block)
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
