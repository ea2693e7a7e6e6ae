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
Every step between two sectors is one gather through a whole table, with
no scatter and no loop over the modes.  Two index tables per sector serve
it (see _ladder): `flat` maps each mode j and occupation mu of sector t to
mu - e_j in n rows over sector t - 1 read flat, which makes adag_j for all
j, or all the routes below, one gather; `up` maps each occupation nu of
sector t - 1 to nu + e_j in sector t, which makes a_j for all j one gather.
Every array gathered from carries one zero entry past its last column,
which the entries with mu_j = 0 read.  The sqrt weights are applied on the
smaller sector, before the raise or after the lowering: sqrt(mu_j) c(mu -
e_j) is sqrt(nu_j + 1) c(nu) at nu = mu - e_j.  The gathers of the top
sector run in column blocks, and every step writes into the work arrays
its call made once (see _Scratch).  One recursion step works through the
odd sector t - 1:

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
# sectors 0..cutoff, which also bounds their count, cutoff + 1, and keeps
# every int32 index of the tables below 2^31; 16 modes at cutoff 8 hold
# 7.4e5 amplitudes and need about 120 MB with their tables (see _check_size)
MAX_FOCK_AMPLITUDES = 10**6
# bytes of sector tables a process keeps between calls (see _ladder); the
# verify workload holds about 2.9e6, a 6-spin wire at cutoff 8 about 1.0e7
SECTOR_CACHE_BYTES = 2**24
# the bytes of Python objects one cached sector holds beside its arrays' data:
# four array headers, the tables' tuple and its list slot; a 1-mode ladder of
# 200,001 sectors held 597 bytes a sector by tracemalloc, 21 of them data
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
        """The amplitude of one occupation, 0 outside the populated sectors."""
        column = np.asarray(occ).reshape(-1, 1)
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
    takes 17 + 9 n bytes an amplitude: a complex amplitude, its column of
    occ and of flat, about one of up, and its count of occupied modes.

    Raises
    ------
    FockTooLarge
        Before any allocation, if the sectors 0..top would hold more than
        MAX_FOCK_AMPLITUDES amplitudes.
    """
    total = math.comb(top + n, n)
    if total > MAX_FOCK_AMPLITUDES:
        raise FockTooLarge(
            f"{n} modes at cutoff {top}: the Fock sectors up to the cutoff hold "
            f"C({top + n}, {n}) = {total:.3e} amplitudes, about "
            f"{total * (17 + 9 * n):.3e} bytes of amplitudes and ladder "
            f"tables; the oracle's limit is {MAX_FOCK_AMPLITUDES:.0e}"
        )


def _ladder(n, top):
    """Yield the tables (occ, flat, up, occupied) of the sectors t = 0, 1, ..., top.

    occ is the (n, N_t) table of the occupations of sector t in
    lexicographic order, one column each, and occupied[r] counts the
    occupied modes of occ[:, r]; the rank of an occupation in its sector is
    its row there.  The two int32 index tables serve arrays that carry a
    zero entry past their end: a vector over sector t, (N_t + 1,), and an
    (n, N_{t-1} + 1) array of one vector over sector t - 1 per mode, read
    flat.

    - flat[j, r] indexes entry (j, row of occ[:, r] - e_j) of the latter,
      or entry (j, N_{t-1}), a zero, where occ[j, r] == 0; its last column,
      r = N_t, reads the zeros too.  A gather through flat is adag_j for
      every mode j at once, or every route of the recursion, and ends in a
      zero column itself.
    - up[j, s] is the row in sector t of nu + e_j for the occupation nu of
      row s of sector t - 1, and its last column is N_t; a gather of a
      sector-t vector through up is a_j for every mode j at once.

    Sector t is built from sector t - 1 alone.  Ordered by the first
    occupied mode j, from n - 1 down to 0, its block j is mu = nu + e_j over
    the nu of sector t - 1 whose modes before j are empty, which are the
    first C(t - 1 + n - j - 1, n - j - 1) rows of sector t - 1.  For i > j,
    mu - e_i = (nu - e_i) + e_j lies in block j of sector t - 1, at the row
    of nu - e_i in sector t - 2 past the start of that block; likewise a
    nu of block j of sector t - 1 raised in a mode i > j lies in block j of
    sector t, at the row of (nu - e_j) + e_i in sector t - 1 past its start.

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
            tables = _sealed(*(_vacuum(n, ladder[1]) if t == 0 else _next_sector(*tables[:3], t)))
            with _ladders_lock:
                _keep(ladder, t, tables)
        yield tables


def _sealed(occ, flat, up):
    """The read-only tables (occ, flat, up, occupied) of one sector."""
    occupied = np.count_nonzero(occ, axis=0).astype(np.min_scalar_type(occ.shape[0]))
    tables = occ, flat, up, occupied
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
    """(occ, flat, up) of sector 0: every index reads a zero entry."""
    modes = np.arange(n, dtype=np.int32)[:, None]
    return np.zeros((n, 1), dtype=dtype), np.repeat(modes, 2, axis=1), np.ones((n, 1), np.int32)


def _next_sector(occ, flat, up, t):
    """(occ, flat, up) of sector t from those of sector t - 1 (see _ladder).

    Each table is written in place, block by block, from a slice of the
    table before it; only the masks of the unoccupied modes are temporary.
    """
    n, rows = occ.shape
    size_t = _sector_size(t, n)
    # the row widths of the arrays gathered from over sectors t - 1 and t - 2
    width, old_width = rows + 1, up.shape[1]
    modes = np.arange(n)[:, None]
    zeros = modes * width + rows  # entry (j, N_{t-1}): the zero of row j
    new_occ = np.empty((n, size_t), dtype=occ.dtype)
    new_flat = np.empty((n, size_t + 1), dtype=np.int32)
    new_up = np.empty((n, width), dtype=np.int32)
    new_flat[:] = zeros
    new_up[:, -1] = size_t
    at = 0
    for j in range(n - 1, -1, -1):
        size = _sector_size(t - 1, n - j)
        block = slice(at, at + size)
        new_occ[:, block] = occ[:, :size]
        new_occ[j, block] += 1
        new_flat[j, block] = np.arange(j * width, j * width + size)
        new_up[j, :size] = np.arange(at, at + size)
        if j < n - 1:
            later = modes[j + 1:]
            start = _sector_size(t - 1, n - j - 1)
            out = new_flat[j + 1:, block]
            np.add(flat[j + 1:, :size], later * (width - old_width) + start, out=out)
            np.copyto(out, zeros[j + 1:], where=occ[j + 1:, :size] == 0)
            if t > 1:
                lower = _sector_size(t - 2, n - j)
                np.add(up[j + 1:, :lower], at, out=new_up[j + 1:, start:start + lower])
        at += size
    return new_occ, new_flat, new_up


class _Scratch:
    """The work arrays of one walk up to sector top, reused by every step.

    Each holds n (N_{top-1} + 1) entries, the size of the largest table
    gathered whole (an up table of sector top); the tables of sector top
    are gathered in blocks of as many columns, step.  index is intp: numpy
    gathers with it about three times as fast as with the int32 of the
    tables, so each table is cast into it first.  w holds the weights of
    the sector below the step's, and pair(dtype) two arrays of a dtype,
    made on first use.  A step writes into leading parts of them, so a
    call touches their pages once, not once a step; where the allocator
    hands freed memory back to the system, fresh arrays each step cost a
    page fault per 4 kB.
    """

    def __init__(self, n, top):
        size = n * (_sector_size(top - 1, n) + 1 if top else 1)
        self.index = np.empty(size, dtype=np.intp)
        self.w = np.empty(size)
        self.step = size // n
        self._pairs = {}

    def pair(self, dtype):
        """The two work arrays of dtype."""
        if dtype not in self._pairs:
            self._pairs[dtype] = (np.empty_like(self.w, dtype), np.empty_like(self.w, dtype))
        return self._pairs[dtype]

    def blocks(self, columns):
        """Slices over range(columns), step columns each."""
        return (slice(at, min(at + self.step, columns)) for at in range(0, columns, self.step))

    def gather(self, src, table, out):
        """src read flat at the entries of table, written into out (see _shaped)."""
        index = _shaped(self.index, table.shape)
        np.copyto(index, table)
        # clip: no bounds pass and no copy of the output; every index is in range
        return src.take(index, out=_shaped(out, table.shape), mode="clip")


def _shaped(a, shape):
    """The leading entries of the flat array a, as an array of that shape."""
    return a[:shape[0] * shape[1]].reshape(shape)


def _weights(occ, out):
    """sqrt(nu_j + 1) over the occupations nu of a sector, (n, N + 1), last column 1.

    adag_j takes c(nu) to sqrt(nu_j + 1) c(nu) at nu + e_j, and a_j takes
    c(nu + e_j) to the same weight at nu: every weight of a ladder step is
    applied on its smaller sector.  The last column multiplies or divides
    only the zero columns of the arrays it meets.  Written into out.
    """
    w = _shaped(out, (len(occ), occ.shape[1] + 1))
    w[:, -1] = 1.0
    np.add(occ, 1.0, out=w[:, :-1])
    return np.sqrt(w, out=w)


def _apply(m, c, flat, up, w, scratch):
    """adag M a on one sector: lower, multiply by M, raise (sum over modes).

    c is the sector's vector followed by a zero entry and w the
    :func:`_weights` of the sector below.  The raise is gathered in column
    blocks (see _Scratch); the sum over the modes adds them in mode order.
    """
    lowered = scratch.gather(c, up, scratch.pair(c.dtype)[1])
    lowered *= w
    p, block = scratch.pair(np.result_type(m, c))
    p = np.matmul(m, lowered, out=_shaped(p, lowered.shape))
    p *= w
    out = np.empty(flat.shape[1] - 1, dtype=p.dtype)
    for cols in scratch.blocks(len(out)):
        np.add.reduce(scratch.gather(p, flat[:, cols], block), axis=0, initial=0, out=out[cols])
    return out


def _routes(d, flat, occ, occupied, t, scratch):
    """Sector-t amplitudes, the mean of the routes c(mu) = d[i, mu - e_i].

    d is :func:`_odd_sector`'s.  Routes through unoccupied modes read the
    zero column of d and are left out of the mean and of the spread.  The
    routes are gathered in column blocks (see _Scratch), each block holding
    its deviations in place.  The result carries a zero entry at the end.
    """
    c = np.zeros(flat.shape[1], dtype=d.dtype)
    routes_out = scratch.pair(d.dtype)[1]
    spread = 0.0
    for cols in scratch.blocks(len(c) - 1):
        routes = scratch.gather(d, flat[:, cols], routes_out)
        part = np.add.reduce(routes, axis=0, out=c[cols])
        part /= occupied[cols]
        dev = np.abs(np.subtract(routes, part, out=routes), out=routes).real
        # routes through unoccupied modes read 0: their deviation |c| is
        # zeroed; np.maximum, not max, keeps a NaN, which fails
        spread = np.maximum(spread, np.multiply(dev, occ[:, cols] > 0, out=dev).max())
    if not graphs.passes(float(spread), c):
        raise InconsistentRecursion(
            f"recursion routes disagree by {spread:.3e} in sector {t} "
            f"(scale {np.abs(c).max():.3e})"
        )
    return c


def _odd_sector(k, c, below, occ, flat, scratch):
    """(d, w) over the odd sector t - 1 from c_{t-2}; d has a zero last column.

    d[i, nu] = (a_i c_t)(nu) / sqrt(nu_i + 1) = sum_j K_ij (adag_j c_{t-2})(nu)
    / sqrt(nu_i + 1), from the nullifier relation, and w is the
    :func:`_weights` of sector t - 1.  below is the occupation table of
    sector t - 2, and occ and flat are those of sector t - 1.  d is written
    into the first array of scratch.pair, w into scratch.w after the
    weights of sector t - 2.
    """
    x, y = scratch.pair(c.dtype)
    lower = _weights(below, scratch.w)
    src = np.multiply(lower, c, out=_shaped(x, lower.shape))
    w = _weights(occ, scratch.w)
    d = np.matmul(k, scratch.gather(src, flat, y), out=_shaped(x, w.shape))
    d /= w
    return d, w


def _even_sectors(k, cutoff, scratch):
    """Yield (tables, w, c) for the sectors 0, 2, ..., cutoff in turn.

    tables are :func:`_ladder`'s, w the :func:`_weights` of the sector
    below (one column of 1s for sector 0), and c the unnormalized amplitudes
    of the sector (c(vacuum) = 1) followed by a zero entry.  scratch is the
    walk's :class:`_Scratch`.  One step goes through the odd sector t - 1:

        d = K (adag c_{t-2}) / sqrt(nu_i + 1)        (n, N_{t-1} + 1)
        route i:  c_t(mu) = d[i, mu - e_i]

    and only the previous even sector and the odd one between are kept.
    """
    ladder = _ladder(k.shape[0], cutoff)
    tables = next(ladder)
    c = np.array([1.0, 0.0], dtype=k.dtype)
    yield tables, np.ones((k.shape[0], 1)), c
    for t in range(2, cutoff + 1, 2):
        below = tables[0]
        odd_occ, odd_flat, _, _ = next(ladder)
        tables = occ, flat, _, occupied = next(ladder)
        d, w = _odd_sector(k, c, below, odd_occ, odd_flat, scratch)
        c = _routes(d, flat, occ, occupied, t, scratch)
        yield tables, w, c


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
    sectors = [(tables[0], c[:-1]) for tables, _, c in _even_sectors(k, cutoff, scratch)]
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
    out, below, scratch = [], np.empty((v.n_modes, 0)), _Scratch(v.n_modes, top)
    for t, (occ, flat, up, _) in enumerate(_ladder(v.n_modes, top)):
        if t in by_total:
            c = np.append(by_total[t], 0)
            w = _weights(below, scratch.w)
            out.append((occ, _apply(m, c, flat, up, w, scratch)))
        below = occ
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
    for (_, flat, up, _), w, c in _even_sectors(k, cutoff, scratch):
        norm2 += _norm2(c[:-1])
        res2 += _norm2(_apply(m, c, flat, up, w, scratch))
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
