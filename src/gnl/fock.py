"""Truncated Fock-space verification, independent of the matrix calculus.

The linear nullifiers (a_i - sum_j K_ij adag_j) |phi> = 0 give a two-photon
recursion for the Fock amplitudes of the state of K:

    sqrt(mu_i) c(mu) = sum_j K_ij sqrt((mu - e_i)_j) c(mu - e_i - e_j)

for any i with mu_i > 0.  Starting from c(vacuum) = 1 and walking total
photon number upward in steps of two fills every even sector up to the
cutoff; odd sectors vanish identically.  Different choices of i (routes)
must agree, which is checked and doubles as a consistency check of K itself.

Sector/ladder form.  The amplitudes of photon-number sector t are one dense
vector over the occupations of that sector in lexicographic order.  Its
dtype follows K: a K with no imaginary part runs the whole recursion, the
operator and the residual in float64, any other K in complex128 (a complex
M makes the operator's output complex on either).  It is one path, generic
in the dtype.
Every step between two sectors runs on one pair table per sector (see
_ladder): it lists each mode j and occupation mu of sector t with mu_j > 0,
in mode-major order, with the column of mu and the weight sqrt(mu_j).  In
that order the pairs of mode j are the occupations mu - e_j of sector t - 1
in theirs, so an (n, N_{t-1}) array over sector t - 1, one row per mode,
lines up with the pairs of sector t as it is: a gather of a sector vector
through the columns is a_j for every j at once, one ``np.bincount`` through
them sums such an array over the modes, and adag_j writes each row to its
columns.  Only occupied modes have pairs, a share t / (t + n - 1) of the
n N_t (mode, occupation) entries of sector t.  The arrays of a step carry
one spare column, and the vectors one zero entry past their end, which the
spare pairs read and sum into: the matrix products then keep the column
count that BLAS rounded by before (its kernels round a column alike only
within one column count).  Every step writes into the work arrays its call
made once (see _Scratch).  One recursion step works through the odd sector
t - 1:

    D = K (adag c_{t-2}) / sqrt(nu_i + 1)       an (n, N_{t-1}) array
    route i:  c_t(mu) = D[i, mu - e_i]

and each route is compared with their mean.  This is the dense per-sector
Fock recursion of Miatto & Quesada, "Fast optimization of parametrized
quantum optical circuits", Quantum 4, 366 (2020), and the recursive hafnian
scheme of The Walrus (Gupt, Izaac & Quesada, JOSS 4, 1705 (2019)).  The
tables are built sector by sector from the previous one, so ranks are exact
positions and no occupation is ever encoded as one integer.

The tables depend only on the mode count, the photon number and the
occupation dtype, so a process builds them once and every call shares them:
they are read-only, and one cache holds, per (modes, dtype) ladder, the
tables of its sectors 0..T-1 and the bytes they take, within
SECTOR_CACHE_BYTES, each sector charged its arrays' bytes and the
ENTRY_BYTES of its Python objects.  A sector is appended only where it
extends that prefix.  One that does not fit makes room by dropping the
other ladders; one that does not fit even then is built from the one before
it on each call and dropped after, and so is every sector past it, which is
no smaller.  Before any of it, the ladder up to the cutoff must hold at most
MAX_FOCK_AMPLITUDES amplitudes in all.

A FockVector is these sector vectors as they come: one (occupation table,
amplitudes) pair per populated sector, in ladder order, which is also the
order of every export.

Quadratic operators adag M a conserve photon number, so applying them to a
truncated state is exact sector by sector (lower, multiply by M, raise):
residual norms computed here have no truncation artifact and confirm (or
refute) nullifier claims to machine precision.
"""

import math
import threading
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import graphs
from .errors import FockTooLarge, InconsistentRecursion, OddCutoff, ShapeMismatch

# amplitudes below this are dropped from JSON exports
EXPORT_CUTOFF = 1e-14
# the largest ladder the oracle builds: C(cutoff + n, n) amplitudes over the
# sectors 0..cutoff, which also bounds their count, cutoff + 1; 16 modes at
# cutoff 8 hold 7.4e5 amplitudes and need about 88 MB with their tables
# (see _check_size)
MAX_FOCK_AMPLITUDES = 10**6
# bytes of sector tables a process keeps between calls (see _ladder); the
# verify workload holds about 3.2e6, a 6-spin wire at cutoff 8 about 1.1e7
SECTOR_CACHE_BYTES = 2**24
# the bytes of Python objects one cached sector holds beside its arrays' data:
# four array headers, the tables' tuple and its list slot; a 1-mode ladder of
# 200,001 sectors held 613 bytes a sector by tracemalloc, 37 of them data
ENTRY_BYTES = 600

# (modes, occupation dtype) -> (bytes held, [the read-only tables of _ladder
# for the sectors 0, 1, ..., T - 1]); the lock makes _keep's budget test and
# insertion one step
_ladders = {}
_ladders_lock = threading.Lock()


@dataclass(frozen=True, eq=False)
class FockVector:
    """A state vector over the photon-number sectors of n_modes modes.

    sectors holds one (occ, c) pair per populated sector, in increasing
    photon number: occ is the read-only (n_modes, N_t) occupation table of
    the sector, in ladder order (see _ladder), and c the amplitudes of its
    columns: float64 for the state of a real K, complex128 for a complex
    one.  Sectors left out are zero.
    """

    n_modes: int
    cutoff: int
    sectors: tuple = ()

    @property
    def amplitudes(self):
        """A read-only {occupation tuple: amplitude} of the exact nonzeros.

        Built on each access, sector by sector in ladder order; the values
        are Python floats for float64 sectors and complex otherwise.
        """
        amps = {}
        for occ, c in self.sectors:
            nz = np.flatnonzero(c)
            amps.update(zip(map(tuple, occ[:, nz].T.tolist()), c[nz].tolist()))
        return MappingProxyType(amps)

    def norm(self):
        return math.sqrt(sum(_norm2(c) for _, c in self.sectors))

    def amplitude(self, occ):
        """The amplitude of one occupation, 0 outside the populated sectors.

        Raises
        ------
        ShapeMismatch
            occ does not hold one occupation per mode.
        """
        column = np.asarray(occ)
        if column.shape != (self.n_modes,):
            raise ShapeMismatch(f"need {self.n_modes} occupations, got shape {column.shape}")
        column = column.reshape(-1, 1)
        for table, c in self.sectors:
            hit = np.flatnonzero((table == column).all(axis=0))
            if hit.size:
                return complex(c[hit[0]])
        return 0.0 + 0.0j


def _sector_size(total, modes):
    """Number of occupations of `modes` modes summing to `total`."""
    return math.comb(total + modes - 1, modes - 1)


def _check_size(n, top):
    """Refuse a ladder of n modes up to sector top past MAX_FOCK_AMPLITUDES.

    Every entry point calls this before it allocates anything that grows
    with the cutoff, so the size gate comes first.  The error's estimate
    takes 17 + n bytes an amplitude (a complex amplitude, its column of occ
    and its count of occupied modes) and 16 bytes a pair of the pair
    tables, n (N_{t-1} + 1) of them in sector t (see _ladder).

    Raises
    ------
    FockTooLarge
        Before any allocation, if the sectors 0..top would hold more than
        MAX_FOCK_AMPLITUDES amplitudes.
    """
    total = math.comb(top + n, n)
    if total > MAX_FOCK_AMPLITUDES:
        pairs = n * (math.comb(top - 1 + n, n) + top + 1)
        raise FockTooLarge(
            f"{n} modes at cutoff {top}: the Fock sectors up to the cutoff hold "
            f"C({top + n}, {n}) = {total:.3e} amplitudes, about "
            f"{total * (17 + n) + 16 * pairs:.3e} bytes of amplitudes and sector "
            f"tables; the oracle's limit is {MAX_FOCK_AMPLITUDES:.0e}"
        )


def _ladder(n, top):
    """Yield the tables (occ, cols, roots, occupied) of the sectors t = 0, 1, ..., top.

    occ is the (n, N_t) table of the occupations of sector t in
    lexicographic order, one column each, and occupied[r] counts the
    occupied modes of occ[:, r]; the rank of an occupation in its sector is
    its row there.

    cols and roots are the sector's pair table, with one entry for each
    mode j and occupation mu of sector t with mu_j > 0, in mode-major
    order.  Lowering by e_j maps these mu one to one onto sector t - 1 and
    keeps their order, so the pairs of mode j, in the order of mu, are the
    occupations nu = mu - e_j of sector t - 1 in theirs: pair (j, mu) is
    entry (j, row of nu) of an (n, N_{t-1} + 1) array, and every such array
    of a step lines up with the pairs as it is.  The last column of each
    row is a spare pair, whose column is N_t and whose weight is 1: the
    vectors of a walk carry a zero entry at N_t, which the spare pairs read
    and sum into, so a step's matrix products keep their N_{t-1} + 1
    columns (BLAS rounds a column the same only within one column count).

    - cols[j, s] (intp) is the column in sector t of mu = nu_s + e_j, for
      the occupation nu_s of row s of sector t - 1; a gather of a sector-t
      vector through cols is a_j for every mode j at once, and
      ``np.bincount`` through it sums an (n, N_{t-1} + 1) array over the
      modes (see _mode_sum).
    - roots[j, s] (float64) is sqrt(mu_j) = sqrt(nu_s,j + 1), the weight of
      that pair: a_j takes c(mu) to sqrt(mu_j) c(mu) at nu, and adag_j
      takes c(nu) to the same weight at mu.

    Sector t is built from sector t - 1 alone.  Ordered by the first
    occupied mode j, from n - 1 down to 0, its block j is mu = nu + e_j over
    the nu of sector t - 1 whose modes before j are empty, which are the
    first C(t - 1 + n - j - 1, n - j - 1) rows of sector t - 1.  A nu of
    block j of sector t - 1 raised in a mode i > j lies in block j of sector
    t, at the row of (nu - e_j) + e_i in sector t - 1 past its start.

    The cached sectors are read from _ladders once, and each sector past
    them is built from the one before and kept there if it fits within
    SECTOR_CACHE_BYTES (see _keep).  The caller has passed the size gate
    of :func:`_check_size` for (n, top).
    """
    ladder = (n, np.min_scalar_type(top))
    _, cached = _ladders.get(ladder, (0, ()))
    for t in range(top + 1):
        if t < len(cached):
            tables = cached[t]
        else:
            tables = _sealed(*(_vacuum(n, ladder[1]) if t == 0 else _next_sector(*tables[:2], t)))
            with _ladders_lock:
                _keep(ladder, t, tables)
        yield tables


def _sealed(occ, cols, roots):
    """The read-only tables (occ, cols, roots, occupied) of one sector."""
    occupied = np.count_nonzero(occ, axis=0).astype(np.min_scalar_type(occ.shape[0]))
    tables = occ, cols, roots, occupied
    for a in tables:
        a.flags.writeable = False
    return tables


def _charge(tables):
    """The bytes one cached sector holds: its arrays' data and ENTRY_BYTES."""
    return ENTRY_BYTES + sum(a.nbytes for a in tables)


def _cached_bytes():
    """Bytes of the sector tables held in _ladders, as _keep charges them."""
    return sum(held for held, _ in _ladders.values())


def _keep(ladder, t, tables):
    """Append sector t's tables to its ladder in _ladders if they fit.

    They are kept only where the ladder holds sectors 0..t - 1, and only
    within SECTOR_CACHE_BYTES, each sector charged its arrays' bytes and
    ENTRY_BYTES (see _charge).  Where they fit only without the other
    ladders (another mode count or dtype), those are dropped first, so the
    ladder in use is the one kept.  The caller holds _ladders_lock.
    """
    held, kept = _ladders.get(ladder, (0, []))
    size = _charge(tables)
    if len(kept) != t or held + size > SECTOR_CACHE_BYTES:
        return
    if _cached_bytes() + size > SECTOR_CACHE_BYTES:
        for other in [o for o in _ladders if o != ladder]:
            del _ladders[other]
    kept.append(tables)
    _ladders[ladder] = (held + size, kept)


def _vacuum(n, dtype):
    """(occ, cols, roots) of sector 0: the spare pairs alone."""
    return np.zeros((n, 1), dtype=dtype), np.ones((n, 1), np.intp), np.ones((n, 1))


def _next_sector(occ, cols, t):
    """(occ, cols, roots) of sector t from occ and cols of sector t - 1 (see _ladder).

    occ and cols are written in place, block by block, from a slice of the
    tables before them.
    """
    n, rows = occ.shape
    size_t = _sector_size(t, n)
    new_occ = np.empty((n, size_t), dtype=occ.dtype)
    new_cols = np.empty((n, rows + 1), dtype=np.intp)
    new_cols[:, -1] = size_t
    at = 0
    for j in range(n - 1, -1, -1):
        size = _sector_size(t - 1, n - j)
        block = slice(at, at + size)
        new_occ[:, block] = occ[:, :size]
        new_occ[j, block] += 1
        new_cols[j, :size] = np.arange(at, at + size)
        if j < n - 1 and t > 1:
            start = _sector_size(t - 1, n - j - 1)
            lower = _sector_size(t - 2, n - j)
            np.add(cols[j + 1:, :lower], at, out=new_cols[j + 1:, start:start + lower])
        at += size
    roots = np.ones((n, rows + 1))
    np.add(occ, 1.0, out=roots[:, :-1])
    return new_occ, new_cols, np.sqrt(roots, out=roots)


class _Scratch:
    """The work arrays of one walk up to sector top, reused by every step.

    pair(dtype) makes two arrays of a dtype on first use, each of n
    (N_{top-1} + 1) entries: one for each pair of sector top with its spare
    pairs (see _ladder), as many as any array of a step holds.  A step
    writes into leading parts of them, so a call touches their pages once,
    not once a step; where the allocator hands freed memory back to the
    system, fresh arrays each step cost a page fault per 4 kB.
    """

    def __init__(self, n, top):
        self.size = n * (_sector_size(top - 1, n) + 1 if top else 1)
        self._pairs = {}

    def pair(self, dtype):
        """The two work arrays of dtype."""
        if dtype not in self._pairs:
            self._pairs[dtype] = (np.empty(self.size, dtype), np.empty(self.size, dtype))
        return self._pairs[dtype]


def _shaped(a, shape):
    """The leading entries of the flat array a, as an array of that shape."""
    return a[:shape[0] * shape[1]].reshape(shape)


def _mode_sum(values, cols, spent):
    """The sum over the modes of a pair array, with its zero entry at the end.

    values lines up with the pairs cols indexes (see _ladder), and out[mu]
    sums its entries at the pairs of mu.  ``np.bincount`` adds the pairs of
    each mu in mode order, starting from 0, as a sum over the axis of the
    modes does.  It takes float64 weights, so a complex array is summed
    part by part, each part copied first into the array spent, whose
    entries the caller no longer needs: the float64 view of a work array.
    The spare pairs sum into the last entry, a zero.
    """
    index, size = cols.ravel(), cols[0, -1] + 1
    if values.dtype.kind != "c":
        return np.bincount(index, values.ravel(), size)
    part = _shaped(spent.view(np.float64), values.shape)
    out = np.empty(size, dtype=values.dtype)
    np.copyto(part, values.real)
    out.real = np.bincount(index, part.ravel(), size)
    np.copyto(part, values.imag)
    out.imag = np.bincount(index, part.ravel(), size)
    return out


def _apply(m, c, cols, roots, scratch):
    """adag M a on one sector: lower, multiply by M, raise (sum over modes).

    c is the sector's vector followed by a zero entry, and cols and roots
    its pair table: the lowered array holds sqrt(mu_j) c(mu) at each pair
    (j, mu), which is a_j c for every mode j, and the raise weighs each
    pair of M times it by sqrt(mu_j) again and sums them over the modes
    (see _mode_sum).  The result has no zero entry at the end.
    """
    spent = scratch.pair(c.dtype)[1]
    lowered = c.take(cols, out=_shaped(spent, cols.shape), mode="clip")
    lowered *= roots
    p = np.matmul(m, lowered, out=_shaped(scratch.pair(np.result_type(m, c))[0], cols.shape))
    p *= roots
    return _mode_sum(p, cols, spent)[:-1]


def _routes(d, cols, occupied, t, scratch):
    """Sector-t amplitudes, the mean of the routes c(mu) = d[i, mu - e_i].

    d is :func:`_odd_sector`'s, which lines up with the pairs of sector t:
    each pair (i, mu) is one route of mu.  The mean of each mu is the sum
    of its routes by :func:`_mode_sum` over its count of occupied modes;
    the spread is the largest deviation of a route from its mean, which
    the spare pairs read as 0.  The first array of scratch.pair(d.dtype),
    which holds d in a walk, takes the deviations' magnitudes.  The result
    carries a zero entry at the end.
    """
    x, y = scratch.pair(d.dtype)
    c = _mode_sum(d, cols, y)
    c[:-1] /= occupied
    dev = _shaped(y, cols.shape)
    dev = np.subtract(d, c.take(cols, out=dev, mode="clip"), out=dev)
    dev = np.abs(dev, out=_shaped(x.view(np.float64), cols.shape))
    # max propagates a NaN, which fails
    spread = float(dev.max())
    if not graphs.passes(spread, c):
        raise InconsistentRecursion(
            f"recursion routes disagree by {spread:.3e} in sector {t} "
            f"(scale {np.abs(c).max():.3e})"
        )
    return c


def _odd_sector(k, c, odd, even, scratch):
    """d over the odd sector t - 1 from c_{t-2}, an (n, N_{t-1} + 1) array.

    d[i, nu] = (a_i c_t)(nu) / sqrt(nu_i + 1) = sum_j K_ij (adag_j c_{t-2})(nu)
    / sqrt(nu_i + 1), from the nullifier relation; its last column is the
    zero of the spare pairs.  c carries its zero entry, and odd and even are
    the tables of the sectors t - 1 and t.  adag c_{t-2} is c_{t-2} times the
    roots of sector t - 1, each mode's row written at its pairs' columns in
    a zeroed array; the roots of sector t, which line up with d, divide it.
    d is written into the first array of scratch.pair.
    """
    _, cols, roots, _ = odd
    x, y = scratch.pair(c.dtype)
    src = np.multiply(roots, c, out=_shaped(x, cols.shape))
    raised = _shaped(y, even[1].shape)
    raised.fill(0)
    for row, at, values in zip(raised, cols, src):
        row[at] = values
    d = np.matmul(k, raised, out=_shaped(x, raised.shape))
    d /= even[2]
    return d


def _even_sectors(k, cutoff, scratch):
    """Yield (tables, c) for the sectors 0, 2, ..., cutoff in turn.

    tables are :func:`_ladder`'s and c the unnormalized amplitudes of the
    sector (c(vacuum) = 1) followed by a zero entry.  scratch is the walk's
    :class:`_Scratch`.  One step goes through the odd sector t - 1:

        d = K (adag c_{t-2}) / sqrt(nu_i + 1)        (n, N_{t-1} + 1)
        route i:  c_t(mu) = d[i, mu - e_i]

    and only the previous even sector and the odd one between are kept.
    """
    ladder = _ladder(k.shape[0], cutoff)
    tables = next(ladder)
    c = np.array([1.0, 0.0], dtype=k.dtype)
    yield tables, c
    for t in range(2, cutoff + 1, 2):
        odd = next(ladder)
        tables = next(ladder)
        d = _odd_sector(k, c, odd, tables, scratch)
        c = _routes(d, tables[1], tables[3], t, scratch)
        yield tables, c


def _norm2(c):
    """sum |c|^2 by numpy's pairwise sum, whose bits no BLAS thread count moves."""
    sq = c.real * c.real
    if c.dtype.kind == "c":
        sq += c.imag * c.imag
    return float(np.add.reduce(sq))


def _narrowed(a):
    """a, or its real part where no entry has an imaginary part.

    The dtype of the recursion's arithmetic: float64 for a real K (and M),
    complex128 otherwise, by the test nullifiers.nullifier_space makes.
    """
    return a if a.imag.any() else np.ascontiguousarray(a.real)


def _checked_k(k, cutoff):
    k = graphs.finite_square(k, "K")
    if cutoff % 2 != 0 or cutoff < 2:
        raise OddCutoff("cutoff must be an even integer >= 2")
    graphs.check_symmetric(k)
    graphs.check_edge(k)
    return _narrowed(k)


def _checked_m(m, n):
    # shape and finiteness only: a non-Hermitian M is a valid operator here
    m = graphs.finite_square(m, "M")
    if m.shape != (n, n):
        raise ShapeMismatch(f"M shape {m.shape} does not match {n} modes")
    return _narrowed(m)


def state_from_k(k, cutoff):
    """Fock amplitudes of the Gaussian state of K, up to a photon cutoff.

    Parameters
    ----------
    k : (n, n) array_like, complex symmetric with spectral norm < 1
    cutoff : int
        Maximum total photon number, even and >= 2.

    Returns
    -------
    FockVector
        Normalized; the even sectors 0, 2, ..., cutoff are populated, each
        over the cached occupation table of its sector.

    Raises
    ------
    ShapeMismatch
        K is not square 2-D with at least one mode, or has a NaN or
        infinite entry.
    OddCutoff
    NonSymmetric
        If K fails :func:`graphs.check_symmetric`.
    NormAtOrAboveOne
        If K fails :func:`graphs.check_edge`.
    FockTooLarge
        If the sectors up to the cutoff exceed MAX_FOCK_AMPLITUDES.
    InconsistentRecursion
        If two recursion routes disagree, which signals an invalid K that
        passed the gates (or a bug).
    """
    k = _checked_k(k, cutoff)
    _check_size(k.shape[0], cutoff)
    scratch = _Scratch(k.shape[0], cutoff)
    sectors = [(tables[0], c[:-1]) for tables, c in _even_sectors(k, cutoff, scratch)]
    nrm = math.sqrt(sum(_norm2(c) for _, c in sectors))
    return FockVector(k.shape[0], cutoff, tuple((occ, c / nrm) for occ, c in sectors))


def apply_quadratic(m, v):
    """Apply the photon-conserving operator adag M a to a Fock vector.

    Exact within each photon-number sector (these operators never leave a
    sector, so the truncation does not leak): the result populates the
    sectors v populates.

    Raises
    ------
    ShapeMismatch
        M is not (n, n) for the n modes of v, or has a NaN or infinite
        entry.
    FockTooLarge
        If the sectors up to v's largest photon number exceed
        MAX_FOCK_AMPLITUDES.
    """
    m = _checked_m(m, v.n_modes)
    by_total = {int(occ[:, 0].sum()): c for occ, c in v.sectors}
    top = max(by_total, default=0)
    _check_size(v.n_modes, top)
    out, scratch = [], _Scratch(v.n_modes, top)
    for t, (occ, cols, roots, _) in enumerate(_ladder(v.n_modes, top)):
        if t in by_total:
            out.append((occ, _apply(m, np.append(by_total[t], 0), cols, roots, scratch)))
    return FockVector(v.n_modes, v.cutoff, tuple(out))


def nullifier_residual(m, k, cutoff):
    """|| adag M a |phi_K> || for the normalized truncated state.

    Sector-exact: true nullifiers give rounding-level residuals at any even
    cutoff >= 2, with no cutoff artifact.  The sectors are streamed: the
    state is never held whole.

    Raises
    ------
    ShapeMismatch
        K is not square 2-D with at least one mode, M is not of its shape,
        or an entry of either is NaN or infinite.
    OddCutoff, NonSymmetric, NormAtOrAboveOne, FockTooLarge, InconsistentRecursion
        As :func:`state_from_k`.
    """
    k = _checked_k(k, cutoff)
    m = _checked_m(m, k.shape[0])
    _check_size(k.shape[0], cutoff)
    res2 = norm2 = 0.0
    scratch = _Scratch(k.shape[0], cutoff)
    for (_, cols, roots, _), c in _even_sectors(k, cutoff, scratch):
        norm2 += _norm2(c[:-1])
        res2 += _norm2(_apply(m, c, cols, roots, scratch))
    return math.sqrt(res2 / norm2)


# ----------------------------------------------------------------------
# serialization


def kept_sectors(v):
    """The amplitudes a JSON export keeps, one (occ, amps) pair per sector.

    occ is the (count, n) table of the kept occupations of one populated
    sector, one row each in ladder order, and amps their amplitudes, in
    the vector's dtype.  Kept are the amplitudes of magnitude >=
    EXPORT_CUTOFF, the magnitude taken as ``abs`` takes it (``np.hypot`` of
    the parts), so NaN is dropped and an infinite part is kept.  A sector
    with nothing kept is left out.
    """
    out = []
    for occ, c in v.sectors:
        keep = np.hypot(c.real, c.imag) >= EXPORT_CUTOFF
        if keep.any():
            out.append((occ.T[keep], c[keep]))
    return out


def export_table(v):
    """The rows of :func:`kept_sectors`, as one (count, n) int64 table and amps.

    The ladder's order, by total photon number and then by occupation with
    mode 0 most significant, is the order of ``np.lexsort`` over (total,
    occ_0, ..., occ_{n-1}); this is the one ordering rule of every export.
    amps is complex128 whatever the vector's dtype: a real amplitude gets
    the imaginary part 0.0, as the oracle's JSON writes it.
    """
    kept = kept_sectors(v)
    occ = np.concatenate([np.empty((0, v.n_modes), np.int64)] + [o for o, _ in kept])
    return occ, np.concatenate([np.empty(0, complex)] + [a for _, a in kept])
