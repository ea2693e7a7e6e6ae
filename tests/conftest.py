"""Shared helpers: random state generators and independent brute-force oracles.

Everything here is deliberately dumb and self-contained so the production
code never checks itself against its own machinery.
"""

import functools
import math

import numpy as np
from hypothesis import strategies as st


def random_z(rng, n):
    """Random valid adjacency Z = V + iU with U strictly positive definite."""
    v = rng.standard_normal((n, n))
    v = 0.5 * (v + v.T)
    a = rng.standard_normal((n, n))
    u = a @ a.T + 0.3 * np.eye(n)
    return v + 1j * u


def random_k(rng, n, norm=0.7):
    """Random complex symmetric K rescaled to the given spectral norm."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = 0.5 * (a + a.T)
    return k * (norm / np.linalg.norm(k, 2))


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def random_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def brute_force_dim(k, rng, repeats=3):
    """Kernel dimension of M -> MK + (MK)^T over Hermitian M, by brute rank.

    Samples n^2 random Hermitian matrices (generically a basis of the
    Hermitian space), stacks the mapped images as real rows and counts the
    rank drop. Repeats with fresh samples and insists the answers agree.
    """
    k = np.asarray(k, dtype=complex)
    n = k.shape[0]
    dims = []
    for _ in range(repeats):
        rows = []
        for _ in range(n * n):
            m = random_hermitian(rng, n)
            s = m @ k + (m @ k).T
            rows.append(np.concatenate([s.real.ravel(), s.imag.ravel()]))
        a = np.array(rows)
        sing = np.linalg.svd(a, compute_uv=False)
        top = float(sing[0]) if sing.size else 0.0
        rank = int(np.sum(sing > 1e-8 * top)) if top > 0.0 else 0
        dims.append(n * n - rank)
    assert len(set(dims)) == 1, f"rank oracle unstable across repeats: {dims}"
    return dims[0]


def reference_nullifier_space(k):
    """Kernel of M -> MK + (MK)^T by a dense SVD over a Hermitian basis (n <= 6).

    Assembles the real 2n^2 x n^2 matrix of the map over an orthonormal
    Hermitian basis in one batched product and takes its SVD; singular
    values below 1e-8 of the largest count as kernel. Returns the
    projector onto the kernel, written in the coordinates
    [Re M.ravel(), Im M.ravel()] (an isometry for Re tr(A B), so it does not
    depend on the basis), and the n^2 singular values in descending order.
    """
    k = np.asarray(k, dtype=complex)
    n = k.shape[0]
    assert n <= 6, "the dense reference is for small n only"
    units = np.einsum("ai,bj->abij", np.eye(n), np.eye(n)).astype(complex)
    r, s = np.triu_indices(n, 1)
    basis = np.concatenate([
        units[np.arange(n), np.arange(n)],
        (units[r, s] + units[s, r]) / np.sqrt(2.0),
        (-1j * units[r, s] + 1j * units[s, r]) / np.sqrt(2.0),
    ])
    images = basis @ k
    images = images + images.transpose(0, 2, 1)
    a = np.hstack([images.real.reshape(n * n, -1), images.imag.reshape(n * n, -1)]).T
    _, sing, vh = np.linalg.svd(a)
    kernel = vh[sing <= 1e-8 * sing.max()]
    embedded = np.tensordot(kernel, basis, axes=1).reshape(len(kernel), n * n)
    embedded = np.hstack([embedded.real, embedded.imag])
    return embedded.T @ embedded, sing


def reference_canonical_basis(kernel):
    """Greedy canonical basis of the row space of ``kernel``, one column at a time.

    The per-column form of ``nullifiers._canonical_basis``: the projector
    columns are taken in coordinate order, each is orthogonalized against
    every accepted vector with two classical Gram-Schmidt passes in kernel
    coordinates and accepted when the residual norm exceeds 1e-8; each
    accepted vector is snapped on its own (entries below 1e-13 of the largest
    set to zero, renormalized, the first entry within 1e-9 of the largest
    magnitude made real positive).
    """
    dim, size = kernel.shape
    chosen = np.zeros_like(kernel)
    coords = np.zeros((dim, dim), dtype=kernel.dtype)
    count = 0
    for idx in range(size):
        if count == dim:
            break
        c = kernel[:, idx].conj()
        for _ in range(2):
            c = c - coords[:count].T @ (coords[:count].conj() @ c)
        norm = np.linalg.norm(c)
        if norm <= 1e-8:
            continue
        w = kernel.T @ (c / norm)
        mags = np.abs(w)
        w = np.where(mags < 1e-13 * mags.max(), 0.0, w)
        w = w / np.linalg.norm(w)
        mags = np.abs(w)
        lead = int(np.argmax(mags >= (1.0 - 1e-9) * mags.max()))
        if np.iscomplexobj(w):
            w = w * (mags[lead] / w[lead])
            if abs(w[lead].imag) < 1e-13:
                w[lead] = w[lead].real
        elif w[lead] < 0:
            w = -w
        chosen[count] = w
        coords[count] = kernel.conj() @ w
        count += 1
    return chosen[:count]


def occupation_list(n_modes, cutoff):
    """All occupation tuples with total photon number <= cutoff, sorted."""
    occs = []

    def fill(prefix, budget):
        if len(prefix) == n_modes - 1:
            for last in range(budget + 1):
                occs.append(prefix + (last,))
            return
        for head in range(budget + 1):
            fill(prefix + (head,), budget - head)

    fill((), cutoff)
    return sorted(occs, key=lambda o: (sum(o), o))


def hafnian_amplitudes(k, cutoff):
    """Normalized Fock amplitudes of the state of K from hafnians (n <= 5).

    c(mu) = haf(K_mu) / sqrt(prod_i mu_i!), where K_mu repeats row and
    column i of K mu_i times. The hafnian is the first-row expansion over
    perfect matchings, memoized on the sorted labels of the rows left.
    Returns every occupation of the even sectors up to the cutoff, zeros
    included, normalized over that set.
    """
    k = np.asarray(k, dtype=complex)
    n = k.shape[0]
    assert n <= 5, "the hafnian reference is for small n only"

    @functools.lru_cache(maxsize=None)
    def haf(labels):
        if not labels:
            return 1.0 + 0.0j
        first, rest = labels[0], labels[1:]
        return sum(
            k[first, rest[p]] * haf(rest[:p] + rest[p + 1:]) for p in range(len(rest))
        )

    amps = {}
    for occ in occupation_list(n, cutoff):
        if sum(occ) % 2 == 0:
            labels = tuple(i for i, m in enumerate(occ) for _ in range(m))
            amps[occ] = haf(labels) / math.sqrt(math.prod(map(math.factorial, occ)))
    norm = math.sqrt(sum(abs(c) ** 2 for c in amps.values()))
    return {occ: c / norm for occ, c in amps.items()}


def dense_vector(v, occs):
    """FockVector amplitudes as a dense column over the given basis order."""
    idx = {occ: i for i, occ in enumerate(occs)}
    out = np.zeros(len(occs), dtype=complex)
    for occ, amp in v.amplitudes.items():
        out[idx[occ]] = amp
    return out


def destroy_matrix(mode, occs):
    """Dense annihilation operator for one mode on the truncated basis."""
    idx = {occ: i for i, occ in enumerate(occs)}
    a = np.zeros((len(occs), len(occs)), dtype=complex)
    for occ, col in idx.items():
        if occ[mode] == 0:
            continue
        tgt = list(occ)
        tgt[mode] -= 1
        a[idx[tuple(tgt)], col] = np.sqrt(occ[mode])
    return a


def linear_nullifier_residual(k, v):
    """Worst norm of (a_i - sum_j K_ij adag_j)|v> over modes i.

    Only components with total photon number <= cutoff - 2 are kept; higher
    ones would need amplitudes beyond the truncation to cancel.
    """
    k = np.asarray(k, dtype=complex)
    occs = occupation_list(v.n_modes, v.cutoff)
    vec = dense_vector(v, occs)
    keep = np.array([sum(o) <= v.cutoff - 2 for o in occs])
    lowering = [destroy_matrix(i, occs) for i in range(v.n_modes)]
    worst = 0.0
    for i in range(v.n_modes):
        r = lowering[i] @ vec
        for j in range(v.n_modes):
            if k[i, j] != 0.0:
                r = r - k[i, j] * (lowering[j].conj().T @ vec)
        worst = max(worst, float(np.linalg.norm(r[keep])))
    return worst


def reference_display_expression(m, labels=None):
    """Pretty Schwinger expression of one Hermitian matrix, term by term.

    The per-generator display rule written out with plain loops: the
    canonical decomposition (diagonal pairs (2k, 2k+1) as S^0 and S^z, the
    odd trailing entry as d S^0 - d S^z on the last pair, the bare S^0_{0,0}
    for n = 1, then S^x and S^y for each r < s), rescaled so the largest
    |coefficient| is 1.0, terms below 1e-12 of it dropped, coefficients
    printed with one decimal when integral and 10 significant digits
    otherwise, plus ".0" when those digits are a bare integer.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    labels = [str(i) for i in range(n)] if labels is None else labels
    diag = m.diagonal().real
    terms = []
    for k in range(n // 2):
        r, s = 2 * k, 2 * k + 1
        terms += [("0", r, s, float(diag[r] + diag[s])), ("z", r, s, float(diag[r] - diag[s]))]
    if n % 2 == 1 and n >= 2:
        d = float(diag[n - 1])
        terms += [("0", n - 2, n - 1, d), ("z", n - 2, n - 1, -d)]
    if n == 1:
        terms.append(("0", 0, 0, float(diag[0])))
    for r in range(n):
        for s in range(r + 1, n):
            terms += [("x", r, s, float(2.0 * m[r, s].real)), ("y", r, s, float(-2.0 * m[r, s].imag))]
    terms = [t for t in terms if t[3] != 0.0]
    if not terms:
        return "0"
    scale = max(abs(t[3]) for t in terms)
    pieces = []
    for axis, r, s, c in terms:
        if abs(c) < 1e-12 * scale:
            continue
        c = c / scale
        mag = abs(c)
        text = f"{mag:.1f}" if mag == int(mag) and mag < 1e15 else f"{mag:.10g}"
        if "." not in text and "e" not in text:
            text += ".0"
        body = f"{text}·S^{axis}_{{{labels[r]},{labels[s]}}}"
        if not pieces:
            pieces.append(body if c >= 0 else "-" + body)
        else:
            pieces.append(f" {'-' if c < 0 else '+'} {body}")
    return "".join(pieces)


# amplitude parts: signed zeros, the smallest subnormal, values one ulp apart
# (also across EXPORT_CUTOFF), a repr with an exponent, NaN and Infinity
_PARTS = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e16, -0.5, float("nan"), float("inf"), float("-inf")]
    + [x for v in (1e-14, 0.1, 1.0) for x in (v, np.nextafter(v, 0.0), np.nextafter(v, 2.0))]
) | st.floats(-1e300, 1e300)


@st.composite
def fock_vectors(draw):
    """FockVectors whose amplitudes are not stored in export order.

    Either fock.fock_from_json of shuffled records (n = 1..4, occupations up
    to 0, 3, 12 or 300, possibly none kept) or apply_quadratic of a random
    Hermitian M on the state of a random K, whose sectors come out in ladder
    order.
    """
    from gnl import fock

    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        top = draw(st.sampled_from([0, 3, 12, 300]))
        occs = draw(st.lists(
            st.lists(st.integers(0, top), min_size=n, max_size=n), max_size=25, unique_by=tuple
        ))
        parts = draw(st.lists(st.tuples(_PARTS, _PARTS), min_size=len(occs), max_size=len(occs)))
        records = [{"occ": o, "re": re, "im": im} for o, (re, im) in zip(occs, parts)]
        cutoff = max(map(sum, occs), default=0) + draw(st.integers(0, 2))
        return fock.fock_from_json(
            {"n": n, "cutoff": cutoff, "amps": draw(st.permutations(records))}
        )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = min(n, 3)
    v = fock.state_from_k(random_k(rng, n), draw(st.sampled_from([2, 4, 6])))
    return fock.apply_quadratic(random_hermitian(rng, n), v)
