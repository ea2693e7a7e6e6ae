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
import sys
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

# the largest finite float; the comparison with it is exact for any int
_FLOAT_MAX = sys.float_info.max

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
        (JSON numbers, not strings, NaN, Infinity or integers past the float
        range).
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
        and type(coeff) in (int, float) and abs(coeff) <= _FLOAT_MAX
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
    """The (axis, pair) of every coefficient, in :func:`_terms`' order."""
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


def _terms(w):
    """The nonzero canonical Schwinger coefficients of coordinate rows w.

    w has shape (d, n^2).  Returns (rows, slots, values): the row, the
    index into :func:`_slots` and the value of each nonzero coefficient, in
    row order and by slot within a row.  The Schwinger family is
    overcomplete, so a fixed rule is used: the diagonal pairs (2k, 2k+1) as
    (d_r + d_s) S^0 + (d_r - d_s) S^z, for odd n the lone trailing entry d
    as d S^0 - d S^z on the last pair (for n = 1 the bare d S^0_{0,0}), then
    2 Re(M_rs) S^x - 2 Im(M_rs) S^y for each r < s in lexicographic order.
    :func:`expression_to_matrix` of these terms gives back the matrix of the
    row.

    The S^x and S^y coefficients are read straight off the nonzero
    coordinates as 2 (sqrt(1/2) w_x) and 2 (sqrt(1/2) w_y), bit for bit the
    2 Re M_rs and -2 Im M_rs of the matrix :func:`from_coordinates` builds
    (the complex product that forms M_rs rounds its nonzero parts as the
    real one does).  No matrix and no table of the zero coefficients is
    built.  A NaN, infinite or overflowing coordinate gives a value that is
    not finite.
    """
    d, n = len(w), math.isqrt(w.shape[1])
    # the diagonal slots: n, or n + 1 for an odd n >= 3
    width = n + (n % 2 == 1 and n > 1)
    size = width + n * n - n
    table = np.empty((d, size))
    pairs = n // 2 * 2
    even, odd = w[:, 0:pairs:2], w[:, 1:pairs:2]
    np.add(even, odd, out=table[:, 0:pairs:2])
    np.subtract(even, odd, out=table[:, 1:pairs:2])
    if n % 2 == 1:
        table[:, n - 1] = w[:, n - 1]
        if n > 1:
            np.negative(w[:, n - 1], out=table[:, n])
    table[:, width:] = w[:, n:]
    # a NaN is nonzero, -0.0 is not
    flat = np.flatnonzero(table != 0.0)
    rows = flat // size
    slots = flat - rows * size
    values = table.ravel().take(flat)
    pair = slots >= width
    values[pair] = 2.0 * (np.sqrt(0.5) * values[pair])
    return rows, slots, values


# bytes of the term matrix of :func:`_render`: _PAD fills each text to its
# words and _SEP opens each expression.  Neither is a byte of UTF-8 text,
# nor of the latin-1 bodies :func:`_bodies` writes.
_PAD, _SEP = b"\xff", b"\xfe"
# the margin around each rounding tie within which _spell leaves a
# magnitude to the exact printer; its products err by at most 2^-20
TIE_MARGIN = 1e-5
# a block of fewer terms is spelled by the exact printer alone: at 48 terms
# the two take about 40 us each, the kernel's cost being its ~40 numpy calls
KERNEL_MIN_TERMS = 48
# the kernel's range of magnitudes
_SMALLEST = 1e-12


@functools.cache
def _decades():
    """Per binary exponent k of np.frexp, at index k + 1073: p and the next power of ten.

    x in [2^(k-1), 2^k) has x 10^p in [10^9, 10^10) below the power of ten
    inside its binade and x 10^(p-1) there from on, a binade spanning less
    than a decade.  Binades below 10^-13, past the powers 10^p <= 10^22 that
    floats hold exactly, read p = 22 and no power.  Built on first use.
    """
    p = [9 - math.floor((k - 1) * math.log10(2)) for k in range(-1073, 2)]
    return (
        np.array([min(e, 22) for e in p], dtype=np.intp),
        np.array([float(f"1e{10 - e}") if e <= 22 else np.inf for e in p]),
    )


_BINADE_OFFSET = np.intp(1073)
# 10^p, exact for p <= 22, and 10^(14 - p), 0 past p = 14
_POW10 = np.array([float(10**p) for p in range(23)])
_SHIFT = np.array([float(10 ** (14 - p)) if p <= 14 else 0.0 for p in range(23)])


def _pack(texts):
    """4-byte latin-1 texts, each filled with _PAD, as a uint32 array."""
    raw = b"".join(t.encode("latin-1").ljust(4, _PAD) for t in texts)
    return np.frombuffer(raw, dtype=np.uint32)


# the sign word of a first term (c >= 0, c < 0), then of a later one
_SIGNS = _pack([_SEP.decode("latin-1"), _SEP.decode("latin-1") + "-", " + ", " - "])


@functools.cache
def _word_tables():
    """The word tables of :func:`_spell` and :func:`_render`, built on first use.

    groups[2 v + more] spells the four digits of v < 10^4, and heads[2 h +
    more] "0.dd" for h < 100, "1.0" at h = 100 and "d.d" of the two leading
    digits h - 101 of an exponent form; where no nonzero digit follows
    (more = 0), trailing zeros, and the point of an exponent form without
    decimals, are padding.  exponents[X] spells "e-XX".  About 81 kB in
    all, which blocks that only the exact printer spells never build.
    """
    v = np.arange(10**4)[:, None]
    digits = (v // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    stripped = np.where(trailing, _PAD[0], digits).astype(np.uint8)
    groups = np.stack([stripped, digits], axis=1).view(np.uint32).reshape(-1)
    heads = []
    for h in range(201):
        if h < 100:
            full = f"0.{h:02d}"
            heads += [full.rstrip("0"), full]
        elif h == 100:
            heads += ["1.0", "1.0"]
        else:
            full = f"{(h - 101) // 10}.{(h - 101) % 10}"
            heads += [full.rstrip("0").rstrip("."), full]
    exponents = _pack([f"e-{x:02d}" for x in range(16)])
    return _pack(heads), groups, exponents


def _spell(x, out):
    """Write the ``%.10g`` text of each magnitude x in [1e-12, 1] into out.

    x is a float array and out a (len(x), 4) uint32 array (16 bytes a row,
    padded with _PAD); "1.0" is spelled as :func:`_format_coeff` spells it.
    Returns the indices of the magnitudes left to the exact printer.

    With p the power that puts s = x 10^p in [10^9, 10^10], q = rint(s) is
    the 10-digit mantissa.  10^p is exact (p <= 22) and s < 2^34, so s errs
    from x 10^p by at most 2^-20, and q is the correctly rounded mantissa
    unless x 10^p lies within 2^-20 of a half-integer.  The kernel flags
    every x whose s lies within TIE_MARGIN of one, and every x below 1e-12;
    those go to :func:`_format_coeff`.  (Rounding is monotone and each
    half-integer below 2^34 is a float, so an s crosses a tie only by
    landing on it: the margin guards more than the proof needs.)  The
    rounded value q 10^-p is spelled "0." and its 14 decimals, trailing
    zeros dropped, when it is at least 10^-4, else d.ddddddddde-XX.
    """
    heads, groups, exponents = _word_tables()
    power, next_decade = _decades()
    k = np.frexp(x)[1] + _BINADE_OFFSET
    p = power.take(k) - (x >= next_decade.take(k))
    s = x * _POW10.take(p)
    q = np.rint(s)
    flagged = np.flatnonzero((np.abs(s - q) >= 0.5 - TIE_MARGIN) | (x < _SMALLEST))
    # the 14 decimals of the rounded value: exact, as q 10^(14 - p) < 2^53
    # when it is at least 10^-4
    big = q * _SHIFT.take(p)
    expo = np.flatnonzero(big < 1e10)
    if len(expo):
        # the 10 digits of the exponent form, led by "d.d", then "e-XX"
        qe = q[expo]
        carry = qe >= 1e10
        big[expo] = np.where(carry, 1e9, qe) * 1e4
        exponent = p[expo] - 9 - carry
    big = big.astype(np.int64)
    hi = big // 10**8
    lo = big - hi * 10**8
    head = hi // 10**4
    first = hi - head * 10**4
    second = lo // 10**4
    third = lo - second * 10**4
    if len(expo):
        head[expo] += 101
    more = lo != 0
    out[:, 0] = heads.take(2 * head + ((first != 0) | more))
    out[:, 1] = groups.take(2 * first + more)
    out[:, 2] = groups.take(2 * second + (third != 0))
    out[:, 3] = groups.take(2 * third)
    if len(expo):
        out[expo, 3] = exponents.take(exponent)
    return flagged


@functools.lru_cache(maxsize=32)
def _bodies(n, labels):
    """The term bodies "·S^axis_{r,s}" of n labelled modes, by slot, and their codec.

    Returns a read-only (words, len(_slots(n))) uint32 array, one row per
    word of the bodies' bytes (padded with _PAD), and the codec of those
    bytes: latin-1, or UTF-8 when a label has a character past U+00FD.
    """
    texts = [f"·S^{axis}_{{{labels[r]},{labels[s]}}}" for axis, (r, s) in _slots(n)]
    codec = "latin-1" if max(map(ord, "".join(labels)), default=0) < _SEP[0] else "utf-8"
    encoded = [t.encode(codec) for t in texts]
    width = -(-max(map(len, encoded)) // 4) * 4
    raw = b"".join(e.ljust(width, _PAD) for e in encoded)
    words = np.frombuffer(raw, dtype=np.uint32).reshape(len(texts), -1).T.copy()
    words.flags.writeable = False
    return words, codec


def _render(first, slots, coeffs, bodies, codec):
    """The signed sums "c0·b0 - c1·b1 + ..." of consecutive runs of terms.

    coeffs holds the nonzero coefficients, at most 1 in magnitude, of all
    runs back to back, first marks the first term of each run and slots
    the body of each term, a column of bodies.  Each term is one row of a
    uint32 matrix: its sign word, the four words of its |coeff|
    (:func:`_spell`, or :func:`_format_coeff` for those it flags) and its
    body words.  The matrix is written out, stripped of its padding with
    one ``bytes.translate``, and cut at each run's _SEP.
    """
    mags = np.abs(coeffs)
    words = np.empty((len(coeffs), 5 + len(bodies)), dtype=np.uint32)
    words[:, 0] = _SIGNS.take(np.where(first, 0, 2) + (coeffs < 0))
    if len(mags) < KERNEL_MIN_TERMS:
        exact = slice(None)
    else:
        exact = _spell(mags, words[:, 1:5])
    raw = b"".join(_format_coeff(c).encode().ljust(16, _PAD) for c in mags[exact].tolist())
    words[exact, 1:5] = np.frombuffer(raw, dtype=np.uint32).reshape(-1, 4)
    for j, column in enumerate(bodies):
        words[:, 5 + j] = column.take(slots)
    text = words.tobytes().translate(None, _PAD)
    return [part.decode(codec) for part in text.split(_SEP)[1:]]


def _leads(rows):
    """Mark the first entry of each run of equal values in a sorted int array."""
    lead = np.empty(len(rows), dtype=bool)
    lead[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=lead[1:])
    return lead


def coordinate_expressions(w, labels=None):
    """Pretty Schwinger expression of the matrix of each coordinate row.

    Each row is written in the canonical Schwinger form of :func:`_terms`
    and rescaled so that its largest |coefficient| is 1.0.  Coefficients
    more than twelve orders below the largest are rounding dust from the
    kernel solve and are dropped; a row with no term left renders as "0".
    Each coefficient is spelled as ``%.10g`` spells it, with "1.0" for the
    values :func:`_format_coeff` spells so, and each expression joins sign,
    coefficient and term pieces, as in "1.0·S^z_{0,1} - 0.5·S^x_{0,2}".

    The rows are read DISPLAY_BLOCK at a time, off their nonzero
    coordinates, and each block is rendered by :func:`_render` as one
    matrix of bytes.  The coefficients are spelled by the numpy kernel
    :func:`_spell`, whose products err by at most 2^-20: it hands every
    magnitude within TIE_MARGIN (1e-5) of a rounding tie, or below 1e-12,
    to the exact printer :func:`_format_coeff`, so the text is ``%.10g``'s
    byte for byte.  A block of fewer than KERNEL_MIN_TERMS (48) terms goes
    to the exact printer whole, which is as fast there as the kernel's
    fixed cost.

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
    bodies, codec = _bodies(n, tuple(labels))
    out = []
    for start in range(0, len(w), DISPLAY_BLOCK):
        block = w[start:start + DISPLAY_BLOCK]
        with np.errstate(over="ignore", invalid="ignore"):
            rows, slots, values = _terms(block)
        if not len(rows):
            out += ["0"] * len(block)
            continue
        mags = np.abs(values)
        if not np.isfinite(mags).all():
            graphs.finite(block, "coordinate row")
            raise PrecisionLimit(
                "a coordinate row's Schwinger coefficients overflow the float range"
            )
        first = _leads(rows)
        scale = np.maximum.reduceat(mags, np.flatnonzero(first))[np.cumsum(first) - 1]
        coeffs = values / scale
        keep = mags >= 1e-12 * scale
        if not keep.all():
            # a row's first term may be dust: its next kept term leads
            rows, slots, coeffs = rows[keep], slots[keep], coeffs[keep]
            first = _leads(rows)
        texts = _render(first, slots, coeffs, bodies, codec)
        if len(texts) < len(block):
            full = ["0"] * len(block)
            for r, text in zip(rows[first].tolist(), texts):
                full[r] = text
            texts = full
        out += texts
    return out
