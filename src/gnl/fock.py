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
A ladder table gives, for each mode j and each occupation mu of sector t,
the row in sector t - 1 of mu - e_j (-1 where mu_j = 0), so a_j and adag_j
are a scatter and a gather of one vector.  Every vector that is gathered
from carries one extra zero entry at the end, which the -1 rows read.  One
recursion step works through the odd sector t - 1:

    D = K (adag c_{t-2})                    an (n, N_{t-1}) array
    route i:  c_t(mu) = D[i, mu - e_i] / sqrt(mu_i)

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
# cutoff 8 hold 7.4e5 amplitudes and need about 70 MB
MAX_FOCK_AMPLITUDES = 10**6
# bytes of sector tables a process keeps between calls (see _ladder); the
# verify workload holds about 2.2e6, a 6-spin wire at cutoff 8 about 7.6e6
SECTOR_CACHE_BYTES = 2**24
# the bytes of Python objects one cached sector holds beside its arrays' data:
# three array headers, the tables' tuple, its key and its dict slot; a 1-mode
# ladder of 200,001 sectors held 580 bytes a sector by tracemalloc
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


def _roots(n, top):
    """sqrt(0), sqrt(1), ..., sqrt(top), for a ladder of n modes up to sector top.

    Every entry point calls this before it allocates anything that grows
    with the cutoff, so the size gate comes first.

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
            f"{total * (16 + 5 * n):.3e} bytes of amplitudes and ladder "
            f"tables; the oracle's limit is {MAX_FOCK_AMPLITUDES:.0e}"
        )
    return np.sqrt(np.arange(top + 1))


def _ladder(n, top):
    """Yield the tables (occ, down, occupied) of the sectors t = 0, 1, ..., top.

    occ is the (n, N_t) table of the occupations of sector t in
    lexicographic order; down[j, r] is the row in sector t - 1 of
    occ[:, r] - e_j, or -1 where occ[j, r] == 0; occupied[r] counts the
    occupied modes of occ[:, r].

    Sector t is built from sector t - 1 alone.  Ordered by the first
    occupied mode j, from n - 1 down to 0, its block j is mu = nu + e_j over
    the nu of sector t - 1 whose modes before j are empty, which are the
    first C(t - 1 + n - j - 1, n - j - 1) rows of sector t - 1.  For i > j,
    mu - e_i = (nu - e_i) + e_j lies in block j of sector t - 1, at the row
    of nu - e_i in sector t - 2 past the start of that block.

    The cached sectors are read from _ladders once, and each sector past
    them is built from the one before and kept there if it fits within
    SECTOR_CACHE_BYTES (see _keep).  The caller has passed the size gate
    of :func:`_roots` for (n, top).
    """
    ladder = (n, np.min_scalar_type(top))
    _, cached = _ladders.get(ladder, (0, ()))
    for t in range(top + 1):
        if t < len(cached):
            tables = cached[t]
        else:
            if t == 0:
                vacuum = np.zeros((n, 1), dtype=ladder[1])
                tables = _sealed(vacuum, np.full((n, 1), -1, dtype=np.int32))
            else:
                tables = _sealed(*_next_sector(occ, down, t))
            with _ladders_lock:
                _keep(ladder, t, tables)
        occ, down, _ = tables
        yield tables


def _sealed(occ, down):
    """The read-only tables (occ, down, occupied) of one sector."""
    occupied = np.count_nonzero(occ, axis=0).astype(np.min_scalar_type(occ.shape[0]))
    tables = occ, down, occupied
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


def _next_sector(occ, down, t):
    """The tables of sector t from those of sector t - 1 (see _ladder)."""
    n = occ.shape[0]
    new_occ = np.empty((n, _sector_size(t, n)), dtype=occ.dtype)
    new_down = np.full(new_occ.shape, -1, dtype=np.int32)
    at = 0
    for j in range(n - 1, -1, -1):
        size = _sector_size(t - 1, n - j)
        block = slice(at, at + size)
        new_occ[:, block] = occ[:, :size]
        new_occ[j, block] += 1
        new_down[j, block] = np.arange(size)
        if j < n - 1:
            prev = down[j + 1:, :size]
            start = _sector_size(t - 1, n - j - 1)
            new_down[j + 1:, block] = np.where(prev < 0, -1, prev + start)
        at += size
    return new_occ, new_down


def _raise(c, occ, down, roots):
    """adag_j c for every mode j, c over sector t - 1 -> (n, N_t + 1) over sector t."""
    c = np.append(c, 0.0)
    out = np.zeros((occ.shape[0], occ.shape[1] + 1), dtype=c.dtype)
    for j in range(occ.shape[0]):
        np.multiply(roots.take(occ[j]), c.take(down[j]), out=out[j, :-1])
    return out


def _lower(c, occ, down, roots):
    """a_j c for every mode j, c over sector t -> (n, N_{t-1} + 1) over sector t - 1.

    Every row of sector t - 1 is reached through mode 0, so the largest
    entry of down[0] is N_{t-1} - 1; unoccupied modes write sqrt(0) c = 0
    into the last column.
    """
    n = occ.shape[0]
    out = np.zeros((n, int(down[0].max()) + 2), dtype=c.dtype)
    for j in range(n):
        out[j, down[j]] = roots.take(occ[j]) * c
    return out


def _apply(m, c, occ, down, roots):
    """adag M a on one sector: lower, multiply by M, raise (sum over modes)."""
    p = m @ _lower(c, occ, down, roots)
    out = np.zeros(occ.shape[1], dtype=p.dtype)
    for i in range(occ.shape[0]):
        out += roots.take(occ[i]) * p[i].take(down[i])
    return out


def _routes(d, down, occupied, t):
    """Sector-t amplitudes, the mean of the routes c(mu) = d[i, mu - e_i].

    d is :func:`_odd_sector`'s.  Routes through unoccupied modes read the
    zero column of d and are left out of the mean and of the spread.  Each
    route is gathered once, into one (n, N_t) array that then holds the
    deviations in place; d is dropped once gathered, so that the two are
    held together only while the gather runs.
    """
    routes = np.empty(down.shape, dtype=d.dtype)
    for i in range(down.shape[0]):
        d[i].take(down[i], out=routes[i])
    del d
    c = routes.sum(axis=0)
    c /= occupied
    dev = np.abs(np.subtract(routes, c, out=routes), out=routes).real
    spread = float(np.max(dev, where=down >= 0, initial=0.0))
    if not graphs.passes(spread, c):
        raise InconsistentRecursion(
            f"recursion routes disagree by {spread:.3e} in sector {t} "
            f"(scale {np.abs(c).max():.3e})"
        )
    return c


def _odd_sector(k, c, occ, down, roots):
    """d over the odd sector t - 1 from c_{t-2}, with (occ, down) its tables.

    d[i, nu] = (a_i c_t)(nu) / sqrt(nu_i + 1) = sum_j K_ij (adag_j c_{t-2})(nu)
    / sqrt(nu_i + 1), from the nullifier relation, with a zero last column.
    """
    d = k @ _raise(c, occ, down, roots)
    d[:, :-1] /= roots[occ + 1]
    return d


def _even_sectors(k, roots):
    """Yield (occ, down, c) for the sectors 0, 2, ..., cutoff in turn.

    roots is :func:`_roots` of K's modes and the cutoff.  c holds the
    unnormalized amplitudes of the sector (c(vacuum) = 1); only the previous
    even sector and the odd one between are kept.
    """
    cutoff = len(roots) - 1
    ladder = _ladder(k.shape[0], cutoff)
    occ, down, _ = next(ladder)
    c = np.ones(1, dtype=k.dtype)
    yield occ, down, c
    for t in range(2, cutoff + 1, 2):
        odd_occ, odd_down, _ = next(ladder)
        occ, down, occupied = next(ladder)
        # d is passed on, not held here, so _routes can drop it
        c = _routes(_odd_sector(k, c, odd_occ, odd_down, roots), down, occupied, t)
        yield occ, down, c


def _norm2(c):
    """sum |c|^2 by numpy's pairwise sum, whose bits no BLAS thread count moves."""
    return float(np.add.reduce(c.real * c.real + c.imag * c.imag))


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
    NormAtOrAboveOne
        If K fails :func:`graphs.check_edge`.
    FockTooLarge
        If the sectors up to the cutoff exceed MAX_FOCK_AMPLITUDES.
    InconsistentRecursion
        If two recursion routes disagree, which signals a non-symmetric or
        otherwise invalid K (or a bug).
    """
    k = _checked_k(k, cutoff)
    sectors = [(occ, c) for occ, _, c in _even_sectors(k, _roots(k.shape[0], cutoff))]
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
    roots = _roots(v.n_modes, top)
    out = tuple(
        (occ, _apply(m, by_total[t], occ, down, roots))
        for t, (occ, down, _) in enumerate(_ladder(v.n_modes, top))
        if t in by_total
    )
    return FockVector(v.n_modes, v.cutoff, out)


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
    OddCutoff, NormAtOrAboveOne, FockTooLarge, InconsistentRecursion
        As :func:`state_from_k`.
    """
    k = _checked_k(k, cutoff)
    m = _checked_m(m, k.shape[0])
    roots = _roots(k.shape[0], cutoff)
    res2 = norm2 = 0.0
    for occ, down, c in _even_sectors(k, roots):
        norm2 += _norm2(c)
        r = _apply(m, c, occ, down, roots)
        res2 += _norm2(r)
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
