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


def reference_from_coordinates(w):
    """Hermitian matrices of canonical coordinate rows, as the solver first wrote them.

    The diagonal units E_rr, then per pair r < s (lexicographic) the
    coordinates (w_x, w_y) of sigma_x / sqrt(2) and sigma_y / sqrt(2): entry
    rs is sqrt(0.5) (w_x - 1j w_y), entry sr its conjugate.  Kept verbatim,
    so that bit patterns, signed zeros included, can be compared.
    """
    n = math.isqrt(w.shape[1])
    r, s = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    m = np.zeros((len(w), n, n), dtype=complex)
    m[:, np.arange(n), np.arange(n)] = w[:, :n]
    z = np.sqrt(0.5) * (w[:, n::2] - 1j * w[:, n + 1::2])
    m[:, r, s] = z
    m[:, s, r] = z.conj()
    return m


def reference_coordinates(ms):
    """Canonical coordinate rows of Hermitian matrices: the inverse of reference_from_coordinates.

    Row i holds the diagonal of ms[i], then per pair r < s (lexicographic)
    sqrt(2) Re M_rs and -sqrt(2) Im M_rs; reference_from_coordinates gives
    each matrix back to rounding.
    """
    ms = np.asarray(ms, dtype=complex)
    n = ms.shape[-1]
    r, s = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    w = np.empty((len(ms), n * n))
    w[:, :n] = ms[:, np.arange(n), np.arange(n)].real
    w[:, n::2] = np.sqrt(2.0) * ms[:, r, s].real
    w[:, n + 1::2] = -np.sqrt(2.0) * ms[:, r, s].imag
    return w


def reference_expression_matrix(expr):
    """The Hermitian matrix of a Schwinger expression, one embedded term at a time.

    Each term c S^axis_{r,s} adds 0.5 c sigma_axis, with the Pauli matrix
    written out at rows and columns (r, s) of an n x n array; a singleton
    S^0_{r,r} adds c at (r, r).  Kept verbatim, so that bit patterns, signed
    zeros included, can be compared.
    """
    n = expr.n
    m = np.zeros((n, n), dtype=complex)
    for t in expr.terms:
        r, s = t.pair
        if r == s:
            m[r, r] += t.coeff
            continue
        sigma = np.zeros((n, n), dtype=complex)
        if t.axis == "0":
            sigma[r, r] = sigma[s, s] = 1.0
        elif t.axis == "x":
            sigma[r, s] = sigma[s, r] = 1.0
        elif t.axis == "y":
            sigma[r, s], sigma[s, r] = -1j, 1j
        else:
            sigma[r, r], sigma[s, s] = 1.0, -1.0
        m += 0.5 * t.coeff * sigma
    return m


def reference_canonical_basis(kernel):
    """Greedy canonical basis of the row space of ``kernel``, one column at a time.

    The per-column form of ``nullifiers._canonical_basis``: the projector
    columns are taken in coordinate order, each is orthogonalized against
    every accepted vector with two classical Gram-Schmidt passes in kernel
    coordinates and accepted when the residual norm exceeds 1e-8; each
    accepted vector is snapped on its own (entries below 1e-13 of the largest
    set to zero, renormalized, the first entry within 1e-9 of the largest
    magnitude made real positive).  Returns the accepted vectors and the
    column index each was accepted at.
    """
    dim, size = kernel.shape
    chosen = np.zeros_like(kernel)
    index = []
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
        index.append(idx)
        count += 1
    return chosen[:count], index


def _matmul_snap_rows(w, tol_zero=1e-13, tol_tie=1e-9):
    # nullifiers._snap_rows as matmul_canonical_basis was written against
    mags = np.abs(w)
    top = mags.max(axis=1, keepdims=True)
    w[mags < tol_zero * top] = 0.0
    w /= np.sqrt(np.add.reduce((w.conj() * w).real, axis=1, keepdims=True))
    rows = np.arange(len(w))
    lead = (mags >= (1.0 - tol_tie) * top).argmax(axis=1)
    head = w[rows, lead]
    if np.iscomplexobj(w):
        w *= (np.abs(head) / head)[:, None]
        head = w[rows, lead]
        head.imag[np.abs(head.imag) < tol_zero] = 0.0
        w[rows, lead] = head
    else:
        w *= np.where(head < 0, -1.0, 1.0)[:, None]
    return w


def matmul_canonical_basis(kernel):
    """The blocked greedy canonical basis with every product written as ``@``.

    ``nullifiers._canonical_basis`` as it stood before its per-column passes
    called ``ndarray.dot``, kept verbatim but for the snap, which is copied
    above: on float64 kernels the two must agree byte for byte, accepted
    indices included.  Returns the accepted rows and the coordinate index of
    each.
    """
    from gnl import nullifiers

    block_size = nullifiers.BLOCK
    dim, size = kernel.shape
    chosen = np.empty_like(kernel)
    index = np.empty(dim, dtype=int)
    coords = np.empty((dim, dim), dtype=kernel.dtype)
    count = 0
    for start in range(0, size, block_size):
        if count == dim:
            break
        block = kernel[:, start:start + block_size].conj()
        if count:
            done = coords[:count]
            coef = chosen[:count, start:start + block_size].conj()
            live = coef.any(axis=1)
            block = block - done[live].T @ coef[live]
            block = block - done.T @ (done.conj() @ block)
        new = np.empty((min(block_size, dim - count), dim), dtype=kernel.dtype)
        taken = 0
        cand = np.flatnonzero(np.add.reduce((block.conj() * block).real, axis=0) > 1e-16)
        for col, c in zip(cand, block.T[cand]):
            if taken:
                ours = new[:taken]
                for _ in range(2):
                    c = c - ours.T @ (ours.conj() @ c)
            norm = math.sqrt(np.vdot(c, c).real)
            if norm > 1e-8:
                new[taken] = c / norm
                index[count + taken] = start + col
                taken += 1
                if taken == len(new):
                    break
        if taken:
            rows = _matmul_snap_rows(new[:taken] @ kernel)
            chosen[count:count + taken] = rows
            used = rows.any(axis=0)
            coords[count:count + taken] = rows[:, used] @ kernel[:, used].conj().T
            count += taken
    return chosen[:count], index[:count]


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


def quadratic_reference(m, k, cutoff):
    """adag M a applied to the normalized state of K, on the dense truncated space (n <= 4).

    The state is :func:`hafnian_amplitudes`' over :func:`occupation_list`,
    and the operator sum_ij M_ij adag_i a_j is applied as dense
    matrix-vector products of the ladder matrices of
    :func:`destroy_matrix`.  adag M a keeps the photon number, so the
    truncation is exact.  Returns the occupation list and the vector.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    assert n <= 4, "the dense reference is for small n only"
    occs = occupation_list(n, cutoff)
    amps = hafnian_amplitudes(k, cutoff)
    psi = np.array([amps.get(occ, 0.0) for occ in occs], dtype=complex)
    lowering = [destroy_matrix(i, occs) for i in range(n)]
    out = np.zeros(len(occs), dtype=complex)
    for j in range(n):
        lowered = lowering[j] @ psi
        for i in range(n):
            out += m[i, j] * (lowering[i].conj().T @ lowered)
    return occs, out


def wire_z_form(layout):
    """The wire's local nullifier N_0, written another way.

    S^z on the crossed rail pairs (0, 2) and (1, 3) minus the rail mixers of
    spins 0 and 1; its matrix is that of N_0, which shows how the wire's
    spins overlap.
    """
    from gnl.schwinger import SchwingerExpression, SchwingerTerm

    return SchwingerExpression(layout.n_modes, [
        SchwingerTerm("z", (0, 2), 1.0),
        SchwingerTerm("z", (1, 3), 1.0),
        SchwingerTerm("x", (0, 1), -1.0),
        SchwingerTerm("x", (2, 3), -1.0),
    ])


def reference_terms(m):
    """The canonical Schwinger terms (axis, r, s, coeff) of one Hermitian matrix.

    The decomposition rule written out with plain loops: the diagonal pairs
    (2k, 2k+1) as S^0 and S^z, the odd trailing entry d as d S^0 - d S^z on
    the last pair, the bare S^0_{0,0} for n = 1, then 2 Re M_rs S^x and
    -2 Im M_rs S^y for each r < s.  Zero coefficients are left out.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
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
    return [t for t in terms if t[3] != 0.0]


def reference_expression_json(m):
    """The ``--gen @FILE`` object of the canonical terms of a Hermitian matrix."""
    return {
        "n": len(m),
        "terms": [{"axis": a, "pair": [r, s], "coeff": c} for a, r, s, c in reference_terms(m)],
    }


def reference_display_expression(m, labels=None):
    """Pretty Schwinger expression of one Hermitian matrix, term by term.

    The per-generator display rule written out with plain loops: the
    :func:`reference_terms` of m, rescaled so the largest |coefficient| is
    1.0, terms below 1e-12 of it dropped, coefficients printed with one
    decimal when integral and 10 significant digits otherwise, plus ".0"
    when those digits are a bare integer.
    """
    n = len(m)
    labels = [str(i) for i in range(n)] if labels is None else labels
    terms = reference_terms(m)
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


def _template_join_terms(coeffs, bodies, ends):
    # schwinger._join_terms before the numpy kernel: one %.10g template pass
    # over the block's distinct magnitudes
    from gnl.schwinger import _format_coeff

    mags, which = np.unique(np.abs(coeffs), return_inverse=True)
    values = mags.tolist()
    texts = ("\0".join(["%.10g"] * len(values)) % tuple(values)).split("\0")
    nearest = np.rint(mags)
    for i in np.flatnonzero(~(np.abs(mags - nearest) > 1e-9 * nearest)).tolist():
        texts[i] = _format_coeff(values[i])
    starts = np.concatenate([[0], ends[:-1]])
    first = np.zeros(len(coeffs), dtype=bool)
    first[starts[starts < len(coeffs)]] = True
    signs = np.where(first, ~(coeffs >= 0), 2 + (coeffs < 0))
    pieces = [None] * (3 * len(coeffs))
    pieces[0::3] = np.array(["", "-", " + ", " - "], dtype=object)[signs].tolist()
    pieces[1::3] = np.array(texts, dtype=object)[which].tolist()
    pieces[2::3] = bodies
    return [
        "".join(pieces[3 * b:3 * e]) or "0"
        for b, e in zip(starts.tolist(), ends.tolist())
    ]


def template_coordinate_expressions(w, labels=None):
    """The display of coordinate rows through one ``%.10g`` template pass a block.

    ``schwinger.coordinate_expressions`` as it stood before its numpy
    kernel: a dense table of every coefficient per block of 64 rows, the
    distinct magnitudes spelled by one ``"%.10g" % tuple`` and each
    expression one join of sign, coefficient and body pieces.  Kept
    verbatim but for the input checks, which it leaves out: on finite rows
    the two must agree byte for byte.
    """
    from gnl import schwinger

    n = math.isqrt(w.shape[1])
    labels = [str(i) for i in range(n)] if labels is None else labels
    bodies = np.array(
        [f"·S^{axis}_{{{labels[r]},{labels[s]}}}" for axis, (r, s) in schwinger._slots(n)],
        dtype=object,
    )
    out = []
    for start in range(0, len(w), 64):
        block = w[start:start + 64]
        diag = block[:, :n]
        even, odd = diag[:, 0:n - 1:2], diag[:, 1:n:2]
        parts = [np.stack([even + odd, even - odd], axis=-1).reshape(len(block), -1)]
        if n % 2 == 1:
            last = diag[:, n - 1:]
            parts.append(np.hstack([last, -last]) if n >= 2 else last)
        table = np.hstack(parts + [2.0 * (np.sqrt(0.5) * block[:, n:])])
        mags = np.abs(table)
        scale = mags.max(axis=1, initial=0.0)
        keep = (table != 0.0) & (mags >= 1e-12 * scale[:, None])
        rows, cols = np.nonzero(keep)
        out += _template_join_terms(
            table[rows, cols] / scale[rows],
            bodies[cols].tolist(),
            np.cumsum(np.bincount(rows, minlength=len(table))),
        )
    return out


def six_mode_factors(layout, theta):
    """The factors [F, X(theta), F^{-1}, Z(theta)] of the six-mode wire symmetry, in closed form.

    F is the balanced mixer [[1, 1], [1, -1]] / sqrt(2) on the mode pairs
    (0, 1) and (4, 5), X(theta) = exp(-i theta sigma_x) on modes (1, 4) and
    Z(theta) = exp(+i theta sigma_z) on modes (2, 3).  F^{-1} X F is the
    exponential of the S^x terms of ``states.six_mode_symmetry`` and
    Z F^{-1} X F that of the whole generator.
    """
    n = layout.n_modes
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    f = np.eye(n, dtype=complex)
    f[np.ix_([0, 1], [0, 1])] = h
    f[np.ix_([4, 5], [4, 5])] = h
    x_rot = np.eye(n, dtype=complex)
    x_rot[np.ix_([1, 4], [1, 4])] = [
        [np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]
    ]
    z_rot = np.eye(n, dtype=complex)
    z_rot[2, 2], z_rot[3, 3] = np.exp(1j * theta), np.exp(-1j * theta)
    return [f, x_rot, f.conj().T, z_rot]


# eigenvalue levels of a real K: repeated, opposite (+-) and zero
_LEVELS = st.sampled_from([0.0, 0.3, -0.3, 0.6, -0.6, 0.9])


@st.composite
def real_adjacency(draw):
    """A real symmetric K and its nullifier dimension, counted from its eigenvalues.

    K is one of: O diag(lam) O^T with random orthogonal O and lam drawn from
    repeated, opposite and zero levels (n = 1..6); t G for an involution G,
    a signed permutation or Q diag(+-1) Q^T with dense Q (n = 1..8); or a
    dual-rail wire of 3-5 spins.  The dimension is the number of pairs
    a <= b with lam_a + lam_b = 0 plus the pairs a < b with lam_a = lam_b.
    An involution or a wire has eigenvalues +-t only, so n (n - 1) / 2.
    """
    from gnl import states

    kind = draw(st.sampled_from(["levels", "signed", "dense", "wire"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.floats(0.2, 1.0))
    t = np.tanh(alpha)
    if kind == "wire":
        k = states.dual_rail_wire(states.WireLayout(draw(st.integers(3, 5)), alpha))
        n = k.shape[0]
        return k, n * (n - 1) // 2
    if kind == "signed":
        n = draw(st.integers(1, 8))
        perm = rng.permutation(n)
        swaps = int(rng.integers(0, n // 2 + 1))
        g = np.zeros((n, n))
        for a, b in perm[: 2 * swaps].reshape(-1, 2):
            g[a, b] = g[b, a] = 1.0
        for m in perm[2 * swaps:]:
            g[m, m] = rng.choice([-1.0, 1.0])
        return t * g, n * (n - 1) // 2
    if kind == "dense":
        lam = t * rng.choice([-1.0, 1.0], draw(st.integers(1, 8)))
    else:
        lam = np.array(draw(st.lists(_LEVELS, min_size=1, max_size=6)))
    n = len(lam)
    o = np.linalg.qr(rng.standard_normal((n, n)))[0]
    k = (o * lam) @ o.T
    a, b = np.triu_indices(n)
    dim = np.sum(lam[a] + lam[b] == 0.0) + np.sum((lam[a] == lam[b]) & (a < b))
    return 0.5 * (k + k.T), int(dim)


def fock_vector(n, cutoff, amps):
    """A FockVector holding {occupation tuple: amplitude}, scattered into sectors.

    Each occupation's row is looked up in the occupation table of its
    sector, read from fock._ladder after the size gate of fock._check_size; a
    sector holds the zeros of the rows not given, and sectors with no
    occupation given are left out.
    """
    from gnl import fock

    top = max(map(sum, amps), default=0)
    fock._check_size(n, top)
    sectors = []
    for t, (occ, *_) in enumerate(fock._ladder(n, top)):
        given = {o: a for o, a in amps.items() if sum(o) == t}
        if given:
            row = {o: r for r, o in enumerate(map(tuple, occ.T.tolist()))}
            c = np.zeros(occ.shape[1], dtype=complex)
            for o, a in given.items():
                c[row[tuple(o)]] = a
            sectors.append((occ, c))
    return fock.FockVector(n, cutoff, tuple(sectors))


def reference_export_table(v):
    """The export of a FockVector through its amplitude mapping, sorted apart.

    The kept amplitudes (magnitude >= fock.EXPORT_CUTOFF as np.hypot takes
    it), as an int64 occupation table and complex amplitudes, sorted by
    ``np.lexsort`` over (total, occ_0, ..., occ_{n-1}).
    """
    from gnl import fock

    amplitudes = v.amplitudes
    occ = np.array(list(amplitudes), dtype=np.int64).reshape(len(amplitudes), v.n_modes)
    amps = np.fromiter(amplitudes.values(), dtype=complex, count=len(amplitudes))
    keep = np.hypot(amps.real, amps.imag) >= fock.EXPORT_CUTOFF
    occ, amps = occ[keep], amps[keep]
    order = np.lexsort((*occ.T[::-1], occ.sum(axis=1)))
    return occ[order], amps[order]


def fock_to_json(v):
    """FockVector -> {"n":, "cutoff":, "amps": [{"occ":, "re":, "im":}]} by the stdlib.

    One record per row of :func:`reference_export_table`.
    """
    occ, amps = reference_export_table(v)
    rows = zip(occ.tolist(), amps.real.tolist(), amps.imag.tolist())
    return {
        "n": int(v.n_modes),
        "cutoff": int(v.cutoff),
        "amps": [dict(zip(("occ", "re", "im"), row)) for row in rows],
    }


# amplitude parts: signed zeros, the smallest subnormal, values one ulp apart
# (also across EXPORT_CUTOFF), a repr with an exponent, NaN and Infinity
_PARTS = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e16, -0.5, float("nan"), float("inf"), float("-inf")]
    + [x for v in (1e-14, 0.1, 1.0) for x in (v, np.nextafter(v, 0.0), np.nextafter(v, 2.0))]
) | st.floats(-1e300, 1e300)


@st.composite
def fock_vectors(draw):
    """FockVectors of hard amplitude values, or of an operator on a state.

    Either :func:`fock_vector` of records drawn in random order (n = 1..4,
    up to 0, 3 or 12 photons a mode, or up to 300 where n <= 2, so that the
    ladder stays within the oracle's size gate; possibly none kept) or
    apply_quadratic of a random Hermitian M on the state of a random K.
    """
    from gnl import fock

    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        top = draw(st.sampled_from([0, 3, 12, 300] if n <= 2 else [0, 3, 12]))
        occs = draw(st.lists(
            st.lists(st.integers(0, top), min_size=n, max_size=n), max_size=25, unique_by=tuple
        ))
        parts = draw(st.lists(st.tuples(_PARTS, _PARTS), min_size=len(occs), max_size=len(occs)))
        records = draw(st.permutations([(tuple(o), complex(*p)) for o, p in zip(occs, parts)]))
        cutoff = max(map(sum, occs), default=0) + draw(st.integers(0, 2))
        return fock_vector(n, cutoff, dict(records))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = min(n, 3)
    v = fock.state_from_k(random_k(rng, n), draw(st.sampled_from([2, 4, 6])))
    return fock.apply_quadratic(random_hermitian(rng, n), v)


# ----------------------------------------------------------------------
# the dense sector walk, as fock ran it before its pair tables


def _dense_tables(n, top):
    """(occ, flat, up) of the sectors 0..top, as the dense walk built them.

    flat[j, r] indexes entry (j, row of occ[:, r] - e_j) of an (n, N_{t-1} +
    1) array read flat, or its zero last entry (j, N_{t-1}) where occ[j, r]
    is 0, and its last column reads that zero too; up[j, s] is the row in
    sector t of nu_s + e_j, its last column N_t.  Both are int32.
    """
    sizes = [math.comb(t + n - 1, n - 1) for t in range(top + 1)]
    dtype = np.min_scalar_type(top)
    modes = np.arange(n)[:, None]
    occ = np.zeros((n, 1), dtype=dtype)
    flat = np.repeat(modes.astype(np.int32), 2, axis=1)
    up = np.ones((n, 1), np.int32)
    tables = [(occ, flat, up)]
    for t in range(1, top + 1):
        rows, size_t = sizes[t - 1], sizes[t]
        width, old_width = rows + 1, up.shape[1]
        zeros = modes * width + rows
        new_occ = np.empty((n, size_t), dtype=dtype)
        new_flat = np.empty((n, size_t + 1), dtype=np.int32)
        new_up = np.empty((n, width), dtype=np.int32)
        new_flat[:] = zeros
        new_up[:, -1] = size_t
        at = 0
        for j in range(n - 1, -1, -1):
            size = math.comb(t - 1 + n - j - 1, n - j - 1)
            block = slice(at, at + size)
            new_occ[:, block] = occ[:, :size]
            new_occ[j, block] += 1
            new_flat[j, block] = np.arange(j * width, j * width + size)
            new_up[j, :size] = np.arange(at, at + size)
            if j < n - 1:
                start = math.comb(t - 1 + n - j - 2, n - j - 2)
                out = new_flat[j + 1:, block]
                np.add(flat[j + 1:, :size], modes[j + 1:] * (width - old_width) + start, out=out)
                np.copyto(out, zeros[j + 1:], where=occ[j + 1:, :size] == 0)
                if t > 1:
                    lower = math.comb(t - 2 + n - j - 1, n - j - 1)
                    np.add(up[j + 1:, :lower], at, out=new_up[j + 1:, start:start + lower])
            at += size
        occ, flat, up = new_occ, new_flat, new_up
        tables.append((occ, flat, up))
    return tables


class DenseWalk:
    """The dense per-sector walk of the oracle, kept as the bit-for-bit reference.

    Every array gathered from carries one zero entry past its last column,
    which the entries of an unoccupied mode read; each int32 table is cast
    into an intp buffer before it is gathered with; the sqrt weights are
    (n, N + 1) arrays rebuilt on each step; the n routes of every occupation
    are gathered, summed over axis 0 and masked by occ > 0 for the spread;
    the gathers of the top sector run in column blocks of N_{top-1} + 1.
    K and M are narrowed to their real part where they have no imaginary
    part, as the oracle narrows them; the gates are not repeated here.
    """

    def __init__(self, n, top):
        self.tables = _dense_tables(n, top)
        self.step = self.tables[top][2].shape[1] if top else 1

    @staticmethod
    def narrowed(a):
        a = np.asarray(a)
        return a if a.imag.any() else np.ascontiguousarray(a.real)

    @staticmethod
    def weights(occ):
        w = np.ones((len(occ), occ.shape[1] + 1))
        w[:, :-1] = occ + 1.0
        return np.sqrt(w)

    @staticmethod
    def gather(src, table):
        return src.take(table.astype(np.intp), mode="clip")

    def blocks(self, columns):
        return [slice(at, min(at + self.step, columns)) for at in range(0, columns, self.step)]

    def apply(self, m, c, t):
        """adag M a on the sector-t vector c (no trailing zero)."""
        _, flat, up = self.tables[t]
        below = self.tables[t - 1][0] if t else np.empty((len(m), 0))
        w = self.weights(below)
        lowered = self.gather(np.append(c, 0), up) * w
        p = m @ lowered
        p *= w
        out = np.empty(flat.shape[1] - 1, dtype=p.dtype)
        for cols in self.blocks(len(out)):
            np.add.reduce(self.gather(p, flat[:, cols]), axis=0, initial=0, out=out[cols])
        return out

    def routes(self, k, c, t):
        """The sector-t amplitudes from those of sector t - 2 (no trailing zero)."""
        below = self.tables[t - 2][0]
        odd_occ, odd_flat, _ = self.tables[t - 1]
        occ, flat, _ = self.tables[t]
        src = self.weights(below) * np.append(c, 0)
        w = self.weights(odd_occ)
        d = k @ self.gather(src, odd_flat)
        d /= w
        out = np.zeros(flat.shape[1], dtype=d.dtype)
        occupied = np.count_nonzero(occ, axis=0).astype(np.min_scalar_type(len(occ)))
        spread = 0.0
        for cols in self.blocks(len(out) - 1):
            routes = self.gather(d, flat[:, cols])
            part = np.add.reduce(routes, axis=0, out=out[cols])
            part /= occupied[cols]
            dev = np.abs(routes - part).real
            spread = np.maximum(spread, (dev * (occ[:, cols] > 0)).max())
        return out[:-1], float(spread)

    def sectors(self, k, cutoff):
        """[(t, unnormalized c_t, route spread)] over the even sectors 0..cutoff."""
        c = np.ones(1, dtype=k.dtype)
        out = [(0, c, 0.0)]
        for t in range(2, cutoff + 1, 2):
            c, spread = self.routes(k, c, t)
            out.append((t, c, spread))
        return out


def dense_state(k, cutoff):
    """[(occ, c)] of the normalized state of K over the even sectors, by DenseWalk."""
    k = DenseWalk.narrowed(k)
    walk = DenseWalk(len(k), cutoff)
    sectors = walk.sectors(k, cutoff)
    nrm = math.sqrt(sum(_dense_norm2(c) for _, c, _ in sectors))
    return [(walk.tables[t][0], c / nrm) for t, c, _ in sectors]


def dense_residual(m, k, cutoff):
    """|| adag M a |phi_K> || over the normalized truncated state, by DenseWalk."""
    k, m = DenseWalk.narrowed(k), DenseWalk.narrowed(m)
    walk = DenseWalk(len(k), cutoff)
    res2 = norm2 = 0.0
    for t, c, _ in walk.sectors(k, cutoff):
        norm2 += _dense_norm2(c)
        res2 += _dense_norm2(walk.apply(m, c, t))
    return math.sqrt(res2 / norm2)


def dense_apply(m, v):
    """[(occ, adag M a c)] over the populated sectors of FockVector v, by DenseWalk."""
    m = DenseWalk.narrowed(m)
    totals = [int(occ[:, 0].sum()) for occ, _ in v.sectors]
    walk = DenseWalk(v.n_modes, max(totals, default=0))
    return [(occ, walk.apply(m, c, t)) for t, (occ, c) in zip(totals, v.sectors)]


def _dense_norm2(c):
    sq = c.real * c.real
    if c.dtype.kind == "c":
        sq += c.imag * c.imag
    return float(np.add.reduce(sq))
