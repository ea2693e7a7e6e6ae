"""Shared helpers: random state generators and independent brute-force oracles.

Everything here is deliberately dumb and self-contained so the production
code never checks itself against its own machinery.
"""

import numpy as np


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
