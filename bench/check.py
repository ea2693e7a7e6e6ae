"""Output checker for benchmark commands, independent of the kernel solver.

``check(cmd, code, out, err)`` returns None when the output of one command
is right and a short reason when it is not. The references are the exit
code and the K matrix the command was built with (see workloads.py); every
expected value is derived here from K with plain numpy:

* nullifier bases: the dimension from the Takagi multiplicities of K, and
  for each generator M the checks Hermitian, orthonormal under Re tr(AB)
  (json) or linearly independent (text, which prints rescaled
  expressions), and MK = -(MK)^T within a tolerance scaled by |M| |K|;
* Fock amplitudes: hafnians of K, normalized over the even sectors;
* two-mode classes: the rank of the three constraints.

Fields that a different solver may legitimately change, the singular
values and the "smallest retained" line, are never compared.
"""

import json
import math
import re

import numpy as np

from workloads import pauli_matrix

HEADER = "gnl-report v1"
# relative tolerances: antisymmetry of json generators (exact floats),
# of text generators (10 significant digits), and Fock amplitudes
TOL_JSON = 1e-9
TOL_TEXT = 1e-7
TOL_AMP = 1e-9
# singular values of K (all below 1) closer than this form one Takagi block
TOL_CLUSTER = 1e-9
# amplitudes below this are left out of oracle output
EXPORT_CUTOFF = 1e-14
DOT_EDGE_CUTOFF = 1e-9


class Mismatch(Exception):
    """An output differs from its reference."""


def _require(cond, reason):
    if not cond:
        raise Mismatch(reason)


def takagi_dimension(k):
    """Nullifier-space dimension sum m_j (m_j - 1) / 2 + m_0^2.

    m_j are the multiplicities of the distinct nonzero singular values of K
    and m_0 the dimension of its kernel.
    """
    s = np.sort(np.linalg.svd(k, compute_uv=False))
    m0 = int(np.sum(s <= TOL_CLUSTER))
    blocks = np.split(s[m0:], np.flatnonzero(np.diff(s[m0:]) > TOL_CLUSTER) + 1)
    return m0 * m0 + sum(len(b) * (len(b) - 1) // 2 for b in blocks)


def _antisym_defect(m, k):
    """max |MK + (MK)^T| relative to |M|_F |K|_2 (absolute for K = 0)."""
    mk = m @ k
    scale = np.linalg.norm(m) * np.linalg.norm(k, 2) or 1.0
    return float(np.max(np.abs(mk + mk.T))) / scale


def _matrix(obj, n):
    _require(int(obj["n"]) == n, f"matrix size {obj['n']} != {n}")
    entries = obj["entries"]
    _require(len(entries) == n * n, "matrix entry count")
    return np.array([complex(re_, im) for re_, im in entries]).reshape(n, n)


def _lines(out):
    _require(out.endswith("\n"), "output does not end in a newline")
    lines = out[:-1].split("\n")
    _require(lines[0] == HEADER, "missing report header")
    return lines


_TERM = re.compile(r"^(-?)([0-9.eE+-]+)·S\^([0xyz])_\{([^,}]+),([^}]+)\}$")


def parse_expression(text, labels):
    """Terms (axis, r, s, coeff) of a printed Schwinger expression."""
    index = {lab: i for i, lab in enumerate(labels)}
    parts = re.split(r" ([+-]) ", text)
    terms = []
    sign = ""
    for i, part in enumerate(parts):
        if i % 2:
            sign = part
            continue
        match = _TERM.match(part)
        _require(match is not None, f"unparsable term {part!r}")
        neg, coeff, axis, a, b = match.groups()
        c = float(coeff) * (-1.0 if (neg or sign == "-") else 1.0)
        terms.append((axis, index[a], index[b], c))
    return terms


def _check_generators(gens, k, tol, orthonormal):
    dim = len(gens)
    for idx, m in enumerate(gens):
        nrm = np.linalg.norm(m)
        _require(nrm > 0, f"g{idx} is zero")
        _require(np.max(np.abs(m - m.conj().T)) <= 1e-12 * nrm, f"g{idx} not Hermitian")
        _require(_antisym_defect(m, k) <= tol, f"g{idx} fails MK = -(MK)^T")
    if not dim:
        return
    vecs = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in gens])
    if orthonormal:
        gram = vecs @ vecs.T
        _require(np.max(np.abs(gram - np.eye(dim))) <= 1e-9, "generators not orthonormal")
    else:
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        sing = np.linalg.svd(vecs, compute_uv=False)
        _require(sing[-1] > 1e-6, "generators not linearly independent")


def _nullifiers(cmd, out):
    k = cmd.k
    n = k.shape[0]
    dim = takagi_dimension(k)
    labels = cmd.labels or [str(i) for i in range(n)]
    if cmd.fmt == "json":
        payload = json.loads(out)
        _require(payload["dimension"] == dim, f"dimension {payload['dimension']} != {dim}")
        gens = [_matrix(g, n) for g in payload["generators"]]
        _require(len(gens) == dim, "generator count != dimension")
        _require(len(payload["expressions"]) == dim, "expression count != dimension")
        _check_generators(gens, k, TOL_JSON, orthonormal=True)
        return
    lines = _lines(out)
    _require(lines[2] == f"dimension {dim}", f"{lines[2]!r} != 'dimension {dim}'")
    gen_lines = [ln for ln in lines if re.match(r"^g\d+: ", ln)]
    _require(len(gen_lines) == dim, f"{len(gen_lines)} generator lines, expected {dim}")
    gens = []
    for idx, ln in enumerate(gen_lines):
        head, text = ln.split(": ", 1)
        _require(head == f"g{idx}", "generator lines out of order")
        gens.append(pauli_matrix(parse_expression(text, labels), n))
    _check_generators(gens, k, TOL_TEXT, orthonormal=False)


def _check(cmd, out):
    if cmd.fmt == "json":
        payload = json.loads(out)
        if cmd.code == 1:
            _require(payload["is_nullifier"] is False, "non-nullifier accepted")
            _require(payload["residual"] > 1e-10, "non-nullifier with zero residual")
            return
        _require(payload["is_nullifier"] is True and payload["pass"] is True,
                 "nullifier check did not pass")
        for key in ("residual", "symmetry_dev", "fock_residual"):
            _require(0.0 <= payload[key] <= 1e-8, f"{key} {payload[key]} too large")
        return
    lines = _lines(out)
    _require(len(lines) == 2, "check report line count")
    want = "NOT a nullifier; residual " if cmd.code == 1 else "NULLIFIER residual "
    _require(lines[1].startswith(want), f"check verdict {lines[1]!r}")


def hafnian_amplitudes(k, cutoff):
    """Normalized Fock amplitudes c(mu) = haf(K_mu) / sqrt(mu!) up to cutoff.

    The hafnian of the matrix that repeats row and column i mu_i times is
    expanded along its first row, memoized on the occupation tuple.
    """
    n = k.shape[0]
    memo = {(0,) * n: 1.0 + 0.0j}

    def haf(mu):
        if mu in memo:
            return memo[mu]
        i = next(j for j, x in enumerate(mu) if x)
        nu = list(mu)
        nu[i] -= 1
        acc = 0.0j
        for j in range(n):
            if nu[j] and k[i, j] != 0:
                rest = list(nu)
                rest[j] -= 1
                acc += k[i, j] * nu[j] * haf(tuple(rest))
        memo[mu] = acc
        return acc

    def tuples(total, modes):
        if modes == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in tuples(total - head, modes - 1):
                yield (head,) + rest

    amps = {}
    for total in range(0, cutoff + 1, 2):
        for mu in tuples(total, n):
            amps[mu] = haf(mu) / math.sqrt(math.prod(math.factorial(x) for x in mu))
    norm = math.sqrt(sum(abs(c) ** 2 for c in amps.values()))
    return {mu: c / norm for mu, c in amps.items()}


def _oracle(cmd, out):
    payload = json.loads(out)
    n = cmd.k.shape[0]
    _require(payload["n"] == n and payload["cutoff"] == cmd.extra, "oracle header")
    ref = hafnian_amplitudes(cmd.k, cmd.extra)
    kept = {mu: c for mu, c in ref.items() if abs(c) >= EXPORT_CUTOFF}
    _require(len(payload["amps"]) == len(kept),
             f"{len(payload['amps'])} amplitudes, expected {len(kept)}")
    scale = max(abs(c) for c in kept.values())
    for row in payload["amps"]:
        mu = tuple(row["occ"])
        _require(mu in kept, f"unexpected amplitude {mu}")
        _require(abs(complex(row["re"], row["im"]) - kept[mu]) <= TOL_AMP * scale,
                 f"amplitude {mu} differs from the hafnian")


def _state(cmd, out):
    k = cmd.k
    n = k.shape[0]
    labels = cmd.labels or [str(i) for i in range(n)]
    edges = sum(
        1 for i in range(n) for j in range(i, n) if abs(k[i, j]) >= DOT_EDGE_CUTOFF
    )
    if cmd.fmt == "json":
        got = _matrix(json.loads(out), n)
        _require(np.max(np.abs(got - k)) <= 1e-12, "K entries differ")
        return
    _require(out.endswith("\n"), "output does not end in a newline")
    lines = out[:-1].split("\n")
    if cmd.fmt == "dot":
        _require(lines[0] == "graph K {" and lines[-1] == "}", "DOT framing")
        nodes = [ln for ln in lines if ln.endswith("];") and " -- " not in ln]
        _require(len(nodes) == n, f"{len(nodes)} DOT nodes, expected {n}")
        got = sum(1 for ln in lines if " -- " in ln)
        _require(got == edges, f"{got} DOT edges, expected {edges}")
        return
    _require(lines[0] == HEADER and lines[2] == f"modes {n}", "state header")
    got = [ln for ln in lines if ln.startswith("edge ")]
    _require(len(got) == edges, f"{len(got)} edges, expected {edges}")
    for ln in got:
        _, a, b, _w = ln.split(" ")
        _require(a in labels and b in labels, f"unknown mode in {ln!r}")


def _twomode(cmd, out):
    a, b, g, d = cmd.extra
    bp, bm = b + 1j * g, b - 1j * g
    system = np.array([[a + d, bm, 0], [0, bp, a - d], [bp, 2 * a, bm]], dtype=complex)
    dim = 3 - int(np.linalg.matrix_rank(system, tol=1e-10 * np.linalg.norm(system, 2)))
    if cmd.fmt == "json":
        payload = json.loads(out)
        _require(payload["dimension"] == dim, f"dimension {payload['dimension']} != {dim}")
        _require(len(payload["basis"]) == dim, "basis size != dimension")
        for vec in payload["basis"]:
            v = np.array([complex(re_, im) for re_, im in vec])
            _require(abs(np.linalg.norm(v) - 1) <= 1e-9, "basis vector not unit")
            _require(np.max(np.abs(system @ v)) <= 1e-9 * np.linalg.norm(system, 2),
                     "basis vector violates the constraints")
        return
    lines = _lines(out)
    _require(lines[2] == f"dimension {dim}", f"{lines[2]!r} != 'dimension {dim}'")
    _require(len(lines) == 3 + dim, "basis line count")


_KINDS = {
    "nullifiers": _nullifiers,
    "check": _check,
    "oracle": _oracle,
    "state": _state,
    "twomode": _twomode,
}


def check(cmd, code, out, err):
    """None if (code, out, err) is the right result of cmd, else a reason."""
    if code != cmd.code:
        return f"exit {code}, expected {cmd.code}"
    try:
        if cmd.kind == "invalid":
            _require(out == "", "invalid input wrote to stdout")
            _require(err.startswith("error: "), "invalid input without an error line")
            return None
        _require(err == "", "unexpected stderr output")
        _KINDS[cmd.kind](cmd, out)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
