"""Truncated Fock-space verification, independent of the matrix calculus.

The linear nullifiers (a_i - sum_j K_ij adag_j) |phi> = 0 give a two-photon
recursion for the Fock amplitudes of the state of K:

    sqrt(mu_i) c(mu) = sum_j K_ij sqrt((mu - e_i)_j) c(mu - e_i - e_j)

for any i with mu_i > 0.  Starting from c(vacuum) = 1 and walking total
photon number upward in steps of two fills every even sector up to the
cutoff; odd sectors vanish identically.  Different choices of i (routes)
must agree, which is checked and doubles as a consistency check of K itself.

Sector/ladder form.  The amplitudes of photon-number sector t are one dense
complex vector over the occupations of that sector in lexicographic order.
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

Quadratic operators adag M a conserve photon number, so applying them to a
truncated state is exact sector by sector (lower, multiply by M, raise):
residual norms computed here have no truncation artifact and confirm (or
refute) nullifier claims to machine precision.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import graphs
from .errors import (
    BadPairing,
    FockTooLarge,
    InconsistentRecursion,
    OddCutoff,
    ShapeMismatch,
)

# relative (to the sector's largest amplitude) agreement required between
# the recursion's different mode choices
CONSISTENCY_TOL = 1e-10
# amplitudes below this are dropped from JSON exports
EXPORT_CUTOFF = 1e-14
# the keys of one exported amplitude record
AMP_KEYS = ("occ", "re", "im")
# the largest photon-number sector the oracle builds, C(cutoff + n - 1, n - 1)
# amplitudes; a sector of 10^6 amplitudes over 16 modes needs about 100 MB
MAX_SECTOR_AMPLITUDES = 10**6


@dataclass
class FockVector:
    """Sparse state vector over occupation-number tuples.

    amplitudes maps occupation tuples (length n_modes, total <= cutoff) to
    complex amplitudes; absent keys are zero.
    """

    n_modes: int
    cutoff: int
    amplitudes: dict = field(default_factory=dict)

    def norm(self):
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.amplitudes.values())))

    def normalize(self):
        """Scale to unit norm in place and return self."""
        nrm = self.norm()
        if nrm > 0:
            self.amplitudes = {k: v / nrm for k, v in self.amplitudes.items()}
        return self

    def amplitude(self, occ):
        return self.amplitudes.get(tuple(occ), 0.0 + 0.0j)


@dataclass
class SpinBasisView:
    """The same amplitudes keyed by Schwinger spin labels.

    Each mode pair (r, s) of the pairing becomes one spin with
    s = (n_r + n_s)/2 and m = (n_r - n_s)/2; keys are tuples of (s, m)
    pairs, one per spin, holding half-integer floats.
    """

    pairing: object
    amplitudes: dict

    def amplitude(self, spins):
        return self.amplitudes.get(tuple(spins), 0.0 + 0.0j)


def _sector_size(total, modes):
    """Number of occupations of `modes` modes summing to `total`."""
    return math.comb(total + modes - 1, modes - 1)


def _ladder(n, top):
    """Yield the tables (occ, down) of the sectors t = 0, 1, ..., top in turn.

    occ is the (n, N_t) table of the occupations of sector t in
    lexicographic order; down[j, r] is the row in sector t - 1 of
    occ[:, r] - e_j, or -1 where occ[j, r] == 0.

    Sector t is built from sector t - 1 alone.  Ordered by the first
    occupied mode j, from n - 1 down to 0, its block j is mu = nu + e_j over
    the nu of sector t - 1 whose modes before j are empty, which are the
    first C(t - 1 + n - j - 1, n - j - 1) rows of sector t - 1.  For i > j,
    mu - e_i = (nu - e_i) + e_j lies in block j of sector t - 1, at the row
    of nu - e_i in sector t - 2 past the start of that block.

    Raises
    ------
    FockTooLarge
        Before any allocation, if sector `top` would exceed
        MAX_SECTOR_AMPLITUDES.
    """
    largest = _sector_size(top, n)
    if largest > MAX_SECTOR_AMPLITUDES:
        raise FockTooLarge(
            f"{n} modes at cutoff {top}: the largest Fock sector holds "
            f"C({top + n - 1}, {n - 1}) = {largest:.3e} amplitudes, about "
            f"{largest * (16 + 5 * n):.3e} bytes of amplitudes and ladder "
            f"tables; the oracle's limit is {MAX_SECTOR_AMPLITUDES:.0e} per sector"
        )
    occ = np.zeros((n, 1), dtype=np.min_scalar_type(top))
    down = np.full((n, 1), -1, dtype=np.int32)
    yield occ, down
    for t in range(1, top + 1):
        occ, down = _next_sector(occ, down, t)
        yield occ, down


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
    out = np.zeros((occ.shape[0], occ.shape[1] + 1), dtype=complex)
    for j in range(occ.shape[0]):
        np.multiply(roots.take(occ[j]), c.take(down[j]), out=out[j, :-1])
    return out


def _lower(c, occ, down, roots):
    """a_j c for every mode j, c over sector t -> (n, N_{t-1} + 1) over sector t - 1.

    Every row of sector t - 1 is reached through mode 0, so the largest
    entry of down is N_{t-1} - 1; unoccupied modes write sqrt(0) c = 0 into
    the last column.
    """
    n = occ.shape[0]
    out = np.zeros((n, int(down.max(initial=-1)) + 2), dtype=complex)
    for j in range(n):
        out[j, down[j]] = roots.take(occ[j]) * c
    return out


def _apply(m, c, occ, down, roots):
    """adag M a on one sector: lower, multiply by M, raise (sum over modes)."""
    p = m @ _lower(c, occ, down, roots)
    out = np.zeros(occ.shape[1], dtype=complex)
    for i in range(occ.shape[0]):
        out += roots.take(occ[i]) * p[i].take(down[i])
    return out


def _routes(d, occ, down, t):
    """Sector-t amplitudes, the mean of the routes c(mu) = d[i, mu - e_i].

    d[i, nu] is (a_i c_t)(nu) / sqrt(nu_i + 1), from the nullifier relation.
    Routes through unoccupied modes read the zero column of d and are left
    out of the mean and of the spread.
    """
    n = occ.shape[0]
    total = np.zeros(occ.shape[1], dtype=complex)
    count = np.zeros(occ.shape[1], dtype=np.int32)
    for i in range(n):
        total += d[i].take(down[i])
        count += occ[i] > 0
    c = total / count
    spread = 0.0
    for i in range(n):
        dev = np.abs(d[i].take(down[i]) - c)
        spread = max(spread, float(np.max(dev, where=occ[i] > 0, initial=0.0)))
    scale = float(np.abs(c).max())
    if scale > 0.0 and spread > CONSISTENCY_TOL * scale:
        raise InconsistentRecursion(
            f"recursion routes disagree by {spread:.3e} in sector {t} "
            f"(scale {scale:.3e})"
        )
    return c


def _even_sectors(k, cutoff):
    """Yield (occ, down, c) for the sectors 0, 2, ..., cutoff in turn.

    c holds the unnormalized amplitudes of the sector (c(vacuum) = 1); only
    the previous even sector and the odd one between are kept.
    """
    roots = np.sqrt(np.arange(cutoff + 1))
    ladder = _ladder(k.shape[0], cutoff)
    occ, down = next(ladder)
    c = np.ones(1, dtype=complex)
    yield occ, down, c
    for t in range(2, cutoff + 1, 2):
        occ, down = next(ladder)
        # a_i c_t = sum_j K_ij adag_j c_{t-2} on sector t - 1
        d = k @ _raise(c, occ, down, roots)
        d[:, :-1] /= roots[occ + 1]
        occ, down = next(ladder)
        c = _routes(d, occ, down, t)
        del d  # not held while the caller works on sector t
        yield occ, down, c


def _checked_k(k, cutoff):
    k = graphs.finite_square(k, "K")
    if cutoff % 2 != 0 or cutoff < 2:
        raise OddCutoff("cutoff must be an even integer >= 2")
    return k


def _checked_m(m, n):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape != (n, n):
        raise ShapeMismatch(f"M shape {m.shape} does not match {n} modes")
    return m


def _sparse(occ, c):
    """The nonzero entries of one sector as (occupation tuple, complex) pairs."""
    nz = np.flatnonzero(c)
    return zip(map(tuple, occ[:, nz].T.tolist()), c[nz].tolist())


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
        Normalized; only even sectors are populated, and amplitudes that
        are exactly zero are left out.

    Raises
    ------
    ShapeMismatch
        K is not square 2-D with at least one mode, or has a NaN or
        infinite entry.
    OddCutoff
    FockTooLarge
        If the sector at the cutoff exceeds MAX_SECTOR_AMPLITUDES.
    InconsistentRecursion
        If two recursion routes disagree, which signals a non-symmetric or
        otherwise invalid K (or a bug).
    """
    k = _checked_k(k, cutoff)
    sectors = [(occ, c) for occ, _, c in _even_sectors(k, cutoff)]
    nrm = math.sqrt(sum(float(np.vdot(c, c).real) for _, c in sectors))
    amps = {}
    for occ, c in sectors:
        amps.update(_sparse(occ, c / nrm))
    return FockVector(k.shape[0], cutoff, amps)


def apply_quadratic(m, v):
    """Apply the photon-conserving operator adag M a to a Fock vector.

    Exact within each photon-number sector (these operators never leave a
    sector, so the truncation does not leak).  Entries that come out
    exactly zero are left out.
    """
    m = _checked_m(m, v.n_modes)
    by_total = {}
    for occ, amp in v.amplitudes.items():
        by_total.setdefault(sum(occ), []).append((tuple(occ), amp))
    top = max(by_total, default=0)
    roots = np.sqrt(np.arange(top + 1))
    out = {}
    for t, (occ, down) in enumerate(_ladder(v.n_modes, top)):
        if t not in by_total:
            continue
        row = {o: r for r, o in enumerate(map(tuple, occ.T.tolist()))}
        c = np.zeros(occ.shape[1], dtype=complex)
        for o, amp in by_total[t]:
            c[row[o]] = amp
        out.update(_sparse(occ, _apply(m, c, occ, down, roots)))
    return FockVector(v.n_modes, v.cutoff, out)


def nullifier_residual(m, k, cutoff):
    """|| adag M a |phi_K> || for the normalized truncated state.

    Sector-exact: true nullifiers give rounding-level residuals at any even
    cutoff >= 2, with no cutoff artifact.  The sectors are streamed: the
    state is never held whole.
    """
    k = _checked_k(k, cutoff)
    m = _checked_m(m, k.shape[0])
    roots = np.sqrt(np.arange(cutoff + 1))
    res2 = norm2 = 0.0
    for occ, down, c in _even_sectors(k, cutoff):
        norm2 += float(np.vdot(c, c).real)
        r = _apply(m, c, occ, down, roots)
        res2 += float(np.vdot(r, r).real)
    return math.sqrt(res2 / norm2)


def spin_basis_view(v, pairing):
    """Relabel a Fock vector in the Schwinger spin basis of a mode pairing.

    Pure relabeling: amplitudes are untouched, each occupation (n_r, n_s)
    of a pair becomes the spin label (s, m) = ((n_r + n_s)/2, (n_r - n_s)/2).

    Raises
    ------
    BadPairing
        If the pairing does not cover exactly the modes of v.
    """
    if pairing.n_modes != v.n_modes:
        raise BadPairing(
            f"pairing covers {pairing.n_modes} modes, vector has {v.n_modes}"
        )
    relabeled = {}
    for occ, amp in v.amplitudes.items():
        key = tuple(
            ((occ[r] + occ[s]) / 2.0, (occ[r] - occ[s]) / 2.0)
            for r, s in pairing.pairs
        )
        relabeled[key] = relabeled.get(key, 0.0 + 0.0j) + amp
    return SpinBasisView(pairing, relabeled)


# ----------------------------------------------------------------------
# serialization


def export_table(v):
    """The amplitudes a JSON export keeps, as arrays in export order.

    Returns (occ, amps): occ is the (count, n) int64 table of the kept
    occupations, one row each, and amps their complex amplitudes.  Kept are
    the amplitudes of magnitude >= EXPORT_CUTOFF, the magnitude taken as
    ``abs`` takes it (``np.hypot`` of the parts), so NaN is dropped and an
    infinite part is kept.  Rows are sorted by total photon number and then
    by occupation, ``np.lexsort`` over (total, occ_0, ..., occ_{n-1}); this
    is the one ordering rule of every export.
    """
    n = v.n_modes
    occ = np.array(list(v.amplitudes), dtype=np.int64).reshape(len(v.amplitudes), n)
    amps = np.fromiter(v.amplitudes.values(), dtype=complex, count=len(v.amplitudes))
    keep = np.hypot(amps.real, amps.imag) >= EXPORT_CUTOFF
    occ, amps = occ[keep], amps[keep]
    order = np.lexsort((*occ.T[::-1], occ.sum(axis=1)))
    return occ[order], amps[order]


def fock_to_json(v):
    """FockVector -> {"n":, "cutoff":, "amps": [{"occ":, "re":, "im":}]}.

    The records are the rows of :func:`export_table`: amplitudes below
    EXPORT_CUTOFF in magnitude are omitted, and the rest are sorted by
    (total photons, occupation), so output is deterministic.
    """
    occ, amps = export_table(v)
    rows = zip(occ.tolist(), amps.real.tolist(), amps.imag.tolist())
    return {
        "n": int(v.n_modes),
        "cutoff": int(v.cutoff),
        "amps": [dict(zip(AMP_KEYS, row)) for row in rows],
    }


def fock_from_json(obj):
    """Inverse of :func:`fock_to_json`; accepts a dict or JSON string.

    Amplitudes may be NaN or infinite; a later record of an occupation
    replaces an earlier one.

    Raises
    ------
    ShapeMismatch
        The text is not JSON, or the value is not an object with integers
        n >= 1 and cutoff >= 0 and a list of amps records, each with an occ
        of n integers >= 0 summing to at most cutoff and numeric re and im.
    """
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        n, cutoff = obj["n"], obj["cutoff"]
        rows = [(row["occ"], complex(row["re"], row["im"])) for row in obj["amps"]]
    except (LookupError, TypeError, ValueError) as exc:
        raise ShapeMismatch(
            f"Fock JSON needs n, cutoff and amps records with occ, re and im: {exc}"
        ) from None
    if type(n) is not int or type(cutoff) is not int or n < 1 or cutoff < 0:
        raise ShapeMismatch(
            f"Fock JSON needs integers n >= 1 and cutoff >= 0, got {n!r} and {cutoff!r}"
        )
    for occ, _ in rows:
        if (
            type(occ) is not list
            or len(occ) != n
            or any(type(x) is not int or x < 0 for x in occ)
            or sum(occ) > cutoff
        ):
            raise ShapeMismatch(
                f"occupation {occ!r} is not {n} integers >= 0 with total <= {cutoff}"
            )
    return FockVector(n, cutoff, {tuple(occ): c for occ, c in rows})
