"""Seeded command lists for the three benchmark workloads.

Each workload is one fixed list of ``gnl`` command lines, built from the
seed. The seed draws the squeezing parameters, the hgraph G matrices (but
for a fixed panel of dense involutions), the generator indices and the
order; the sizes and the mix are fixed here, so
the work in a list hardly changes from seed to seed. The program sees only
the generated argv and the files written to the work directory.

Every command carries what the checker needs to judge its output: the kind
of command, its format, the exit code expected and the reference K. The
reference K of every state is built here with plain numpy from the state's
definition, never by the program under test.

Why these workloads (also recorded in BENCHMARK.json):

* ``solve``: ``nullifiers`` on wires of 3 to 16 spins and on hgraph states
  of 6 to 24 modes, with G an Erdos-Renyi graph (kernel dimension near 0)
  or an involution G^2 = I (kernel dimension n(n-1)/2), either a signed
  permutation or a dense random-orthogonal one, Q diag(+-1) Q^T. This holds
  the kernel solve and the output serialization; the Fock oracle never
  runs. The dense involutions are a fixed panel (DENSE_INVOLUTIONS) with two
  on which the program's own residual check fails (an AssertionError inside
  ``nullifier_space``); those commands count as failed, so a fix shows as a
  higher ok_frac on every seed.
* ``verify``: ``check`` over every wire generator family and ``oracle`` on
  dense hgraph states. The Fock recursion takes nearly all the time and the
  kernel solver is never called, so a solver change should not move it.
* ``small``: many cheap commands on 2- and 4-mode states, where the fixed
  cost of one command dominates and the Fock recursion runs with many tiny
  sectors. A change with a large set-up cost per call shows here first.

The mix weights put ``op_p50_ms`` and ``op_p90_ms`` in the middle of one
class of command each, never on the boundary between two classes; the
class names below are only there to make that visible.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

# Dense random-orthogonal involutions of the solve workload: (modes, draw,
# format, class). They are the same for every seed, because the program's
# residual check in nullifier_space (an absolute 1e-10) fails on some of
# them, about 2 % of draws at 16 modes and 7 % at 20, and a seeded draw
# would make ok_frac jump from seed to seed. Draw 31 at 16 modes and draw 4
# at 20 modes are the first of their size that fail at the time of writing;
# the others are the first draws of their size.
DENSE_INVOLUTION_SEED = 2011
DENSE_INVOLUTIONS = (
    (6, 0, "text", "fast"), (6, 1, "json", "fast"),
    (8, 0, "text", "fast"), (8, 1, "json", "fast"),
    (12, 0, "text", "mid"), (12, 1, "text", "mid"), (12, 2, "json", "mid"),
    (16, 31, "text", "mid"), (20, 4, "text", "p90"), (24, 0, "text", "tail"),
)
WIRE_GENS_ODD = ("local", "global-x", "chain", "y-local")
WIRE_GENS_EVEN = WIRE_GENS_ODD + ("global-z",)
NAMED = ("tms", "tms-pair", "bell:phi+", "bell:phi-", "bell:psi+", "bell:psi-")
TWOMODE_DIRECTIONS = ((0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1))
INVALID = (
    ["state", "nope"],
    ["state", "wire"],
    ["state", "hgraph"],
    ["check", "tms", "--gen", "q"],
    ["oracle", "tms", "--cutoff", "7"],
    ["twomode", "--coeffs", "0", "0", "0", "0"],
    ["state", "tms", "--alpha", "-0.5"],
    ["check", "wire", "--spins", "3", "--gen", "global-z"],
)


@dataclass
class Command:
    """One command line and the reference its output is checked against.

    kind is the subcommand (or "invalid"); fmt the output format; code the
    expected exit code; k the adjacency matrix of the state; labels its mode
    labels; extra holds what a kind needs beyond that (cutoff, coefficients).
    """

    argv: list
    kind: str
    cls: str
    fmt: str = "text"
    code: int = 0
    k: object = None
    labels: object = None
    extra: object = None


def pauli_matrix(terms, n):
    """Hermitian M of a Schwinger expression, assembled without gnl.

    terms are (axis, r, s, coeff); S^axis_{r,s} is sigma_axis / 2 on modes
    (r, s), and a term with r == s is the number operator of mode r.
    """
    sig = {
        "0": np.eye(2, dtype=complex),
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.diag([1.0, -1.0]).astype(complex),
    }
    m = np.zeros((n, n), dtype=complex)
    for axis, r, s, coeff in terms:
        if r == s:
            m[r, r] += coeff
            continue
        if r > s:
            r, s = s, r
        idx = np.ix_([r, s], [r, s])
        m[idx] += 0.5 * coeff * sig[axis]
    return m


def wire_k(spins, alpha):
    """K of the periodic dual-rail wire: spin i on modes 2i (rail a), 2i+1 (b).

    Each rail of spin i joins each rail of spin i+1 (mod spins) with weight
    tanh(alpha)/2, negative when the left spin contributes rail b.
    """
    t = np.tanh(alpha) / 2
    k = np.zeros((2 * spins, 2 * spins), dtype=complex)
    for i in range(spins):
        j = (i + 1) % spins
        for r in range(2):
            for s in range(2):
                k[2 * i + r, 2 * j + s] = k[2 * j + s, 2 * i + r] = -t if r else t
    return k


def wire_labels(spins):
    return [f"{i}{rail}" for i in range(spins) for rail in "ab"]


# Bell-like spin pairs: (mode, mode, weight / tanh(alpha)) of the two edges.
# phi+ is the TMS pair; phi- flips the sign of edge (2,3) (pi phase on mode
# 2); psi+ crosses the edges (pi y-rotation of spin A on modes 0, 2); psi-
# then gives them phases +-i (pi z-rotation of spin B on modes 1, 3).
BELL_EDGES = {
    "phi+": ((0, 1, 1), (2, 3, 1)),
    "phi-": ((0, 1, 1), (2, 3, -1)),
    "psi+": ((0, 3, 1), (1, 2, 1)),
    "psi-": ((0, 3, 1j), (1, 2, -1j)),
}


def bell_k(variant, alpha):
    k = np.zeros((4, 4), dtype=complex)
    for r, s, w in BELL_EDGES[variant]:
        k[r, s] = k[s, r] = w * np.tanh(alpha)
    return k


def _tanh_of(g, alpha):
    vals, vecs = np.linalg.eigh(g)
    return ((vecs * np.tanh(alpha * vals)) @ vecs.T).astype(complex)


class Inputs:
    """Draws states from one seed and writes the files they need."""

    def __init__(self, seed, work_dir):
        self.rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.files = 0

    def alpha(self):
        return f"{self.rng.uniform(0.3, 1.0):.4f}"

    def _write(self, obj):
        path = os.path.join(self.work_dir, f"in{self.files:04d}.json")
        self.files += 1
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def wire(self, spins):
        a = self.alpha()
        k = wire_k(spins, float(a))
        return ["wire", "--spins", str(spins), "--alpha", a], k, wire_labels(spins)

    def named(self, name):
        a = self.alpha()
        t = np.tanh(float(a))
        if name == "tms":
            k = np.array([[0, t], [t, 0]], dtype=complex)
        elif name == "tms-pair":
            k = np.zeros((4, 4), dtype=complex)
            k[0, 1] = k[1, 0] = k[2, 3] = k[3, 2] = t
        else:
            k = bell_k(name.split(":", 1)[1], float(a))
        return [name, "--alpha", a], k, None

    def hgraph(self, kind, n, draw=None):
        """hgraph state. G is Erdos-Renyi ("er"), a signed-permutation
        involution ("inv"), a dense random-orthogonal involution ("oinv") or
        dense ("dense"). The dense involutions and their alpha come from
        draw number draw of a fixed stream, the same for every seed."""
        rng = self.rng
        if kind == "oinv":
            rng = np.random.default_rng((DENSE_INVOLUTION_SEED, n, draw))
        if kind == "er":
            g = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
            g = g + g.T
        elif kind == "inv":
            # signed permutation: random mode pairs swapped, the rest +-1
            g = np.zeros((n, n))
            perm = rng.permutation(n)
            pairs = int(rng.integers(n // 4, n // 2 + 1))
            for a, b in perm[: 2 * pairs].reshape(-1, 2):
                g[a, b] = g[b, a] = 1.0
            for m in perm[2 * pairs:]:
                g[m, m] = rng.choice([-1.0, 1.0])
        elif kind == "oinv":
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            g = (q * rng.choice([-1.0, 1.0], n)) @ q.T
            g = 0.5 * (g + g.T)
        else:
            g = rng.standard_normal((n, n))
            g = 0.5 * (g + g.T)
            g = g / np.linalg.norm(g, 2)
        path = self._write(
            {"n": n, "entries": [[float(x), 0.0] for x in g.ravel()]}
        )
        a = f"{rng.uniform(0.3, 1.0):.4f}" if kind == "oinv" else self.alpha()
        return ["hgraph", "--g", path, "--alpha", a], _tanh_of(g, float(a)), None

    def state(self, spec):
        """spec is ("wire", spins), ("er"|"inv"|"dense", n), ("oinv", n, draw)
        or (name,)."""
        if spec[0] == "wire":
            return self.wire(spec[1])
        if spec[0] in ("er", "inv", "oinv", "dense"):
            return self.hgraph(*spec)
        return self.named(spec[0])

    def wire_gen(self, gen, spins):
        if gen == "local":
            return f"local:{self.rng.integers(spins)}"
        if gen == "chain":
            i = int(self.rng.integers(spins))
            return f"chain:{i}:{(i + int(self.rng.integers(1, spins))) % spins}"
        return gen

    def non_nullifier(self, k):
        """A random expression file whose generator does not nullify k."""
        n = k.shape[0]
        while True:
            terms = []
            for _ in range(3):
                r, s = sorted(self.rng.choice(n, 2, replace=False))
                coeff = float(f"{self.rng.uniform(0.5, 1.5):.4f}")
                terms.append((str(self.rng.choice(list("0xyz"))), int(r), int(s), coeff))
            mk = pauli_matrix(terms, n) @ k
            if np.max(np.abs(mk + mk.T)) > 1e-3:
                break
        return "@" + self._write(
            {
                "n": n,
                "terms": [
                    {"axis": ax, "pair": [r, s], "coeff": c} for ax, r, s, c in terms
                ],
            }
        )


def _solve(inp):
    fast = [("wire", 3), ("wire", 4), ("er", 6), ("er", 8), ("er", 12), ("inv", 6), ("inv", 8)]
    plan = [(s, f, "fast") for s in fast for f in ("text", "json")]
    plan += [
        (("wire", 3), "text", "fast"),
        (("wire", 4), "json", "fast"),
        (("er", 8), "text", "fast"),
        (("inv", 6), "json", "fast"),
        (("er", 12), "json", "fast"),
    ]
    plan += [(("wire", 6), "text", "p50")] * 6 + [(("inv", 12), "text", "p50")] * 6
    plan += [(("wire", 6), "json", "mid")] * 2 + [(("inv", 12), "json", "mid")] * 2
    plan += [(("er", 16), f, "mid") for f in ("text", "json")]
    plan += [(("er", 20), f, "mid") for f in ("text", "json")]
    plan += [(("wire", 8), "text", "mid")] * 2
    plan += [(("wire", 8), "json", "p90")] * 6 + [(("er", 24), "text", "p90")] * 3
    plan += [(("wire", 16), "text", "tail"), (("wire", 10), "json", "tail")]
    plan += [(("oinv", n, draw), fmt, cls) for n, draw, fmt, cls in DENSE_INVOLUTIONS]
    out = []
    for spec, fmt, cls in plan:
        args, k, labels = inp.state(spec)
        out.append(
            Command(["nullifiers"] + args + ["--format", fmt], "nullifiers", cls,
                    fmt, 0, k, labels)
        )
    return out


def _verify(inp):
    plan = []
    for spins, cutoff, cls, reps in ((3, 6, "fast", 2), (4, 6, "p50", 3),
                                     (3, 8, "p50", 1), (5, 6, "mid", 1),
                                     (4, 8, "p90", 2)):
        gens = WIRE_GENS_EVEN if spins % 2 == 0 else WIRE_GENS_ODD
        plan += [("check", spins, cutoff, g, cls) for g in gens] * reps
    plan += [("check", 3, 8, "local", "p50"), ("check", 3, 8, "y-local", "p50")]
    plan += [("check", 6, 6, "local", "tail"), ("check", 6, 6, "global-z", "tail")]
    for n, cutoff, cls, reps in ((4, 6, "fast", 1), (4, 8, "fast", 1),
                                 (5, 6, "fast", 1), (6, 6, "fast", 1),
                                 (5, 8, "p50", 2), (6, 8, "p50", 2)):
        plan += [("oracle", n, cutoff, None, cls)] * reps
    out = []
    for kind, size, cutoff, gen, cls in plan:
        if kind == "check":
            args, k, labels = inp.wire(size)
            argv = ["check"] + args + ["--gen", inp.wire_gen(gen, size),
                                       "--cutoff", str(cutoff), "--format", "json"]
            out.append(Command(argv, "check", cls, "json", 0, k, labels))
        else:
            args, k, _ = inp.hgraph("dense", size)
            argv = ["oracle"] + args + ["--cutoff", str(cutoff)]
            out.append(Command(argv, "oracle", cls, "json", 0, k, extra=cutoff))
    return out


def _small(inp):
    specs = [(name,) for name in NAMED] + [("dense", 4)]
    fmts = ("text", "json")
    out = []
    for _ in range(2):
        for spec in specs:
            for fmt in ("json", "dot", "text"):
                args, k, labels = inp.state(spec)
                out.append(Command(["state"] + args + ["--format", fmt], "state",
                                   "cheap", fmt, 0, k, labels))
        for spec in specs[1:6]:
            args, k, labels = inp.state(spec)
            out.append(Command(["export"] + args, "state", "cheap", "dot", 0, k, labels))
        for spec in specs:
            for fmt in fmts:
                args, k, labels = inp.state(spec)
                out.append(Command(["nullifiers"] + args + ["--format", fmt],
                                   "nullifiers", "cheap", fmt, 0, k, labels))
        for direction in TWOMODE_DIRECTIONS:
            for fmt in fmts:
                scale = inp.rng.uniform(0.5, 2.0)
                coeffs = [f"{scale * c:.4f}" for c in direction]
                out.append(Command(["twomode", "--coeffs"] + coeffs + ["--format", fmt],
                                   "twomode", "cheap", fmt, 0,
                                   extra=[float(c) for c in coeffs]))
        for gen in ("0", "x", "y"):
            for fmt in fmts:
                args, k, _ = inp.named("tms")
                out.append(Command(["check"] + args + ["--gen", gen, "--format", fmt],
                                   "check", "cheap", fmt, 1, k))
        for spec in (("tms-pair",), ("bell:phi+",), ("bell:psi-",), ("dense", 4)):
            for fmt in fmts:
                args, k, _ = inp.state(spec)
                out.append(Command(["check"] + args + ["--gen", inp.non_nullifier(k),
                                                       "--format", fmt],
                                   "check", "cheap", fmt, 1, k))
        for fmt in fmts:
            args, k, _ = inp.named("tms")
            out.append(Command(["check"] + args + ["--gen", "z", "--format", fmt],
                               "check", "cheap", fmt, 0, k))
        for argv in INVALID:
            out.append(Command(list(argv), "invalid", "cheap", code=2))
        for cutoff in (20, 30):
            args, k, _ = inp.named("tms")
            out.append(Command(["oracle"] + args + ["--cutoff", str(cutoff)],
                               "oracle", "cheap", "json", 0, k, extra=cutoff))
    for name in NAMED[1:]:
        for gen in "0xyz":
            for fmt in fmts:
                args, k, _ = inp.named(name)
                out.append(Command(["check"] + args + ["--gen", gen, "--format", fmt],
                                   "check", "fock", fmt, 0, k))
    for cutoff in (40, 50, 60):
        args, k, _ = inp.named("tms")
        out.append(Command(["oracle"] + args + ["--cutoff", str(cutoff)],
                           "oracle", "fock", "json", 0, k, extra=cutoff))
    args, k, _ = inp.hgraph("dense", 4)
    out.append(Command(["oracle"] + args + ["--cutoff", "8"], "oracle", "fock",
                       "json", 0, k, extra=8))
    return out


BUILDERS = {"solve": _solve, "verify": _verify, "small": _small}
WARMUP = (
    ["state", "tms"],
    ["nullifiers", "tms"],
    ["check", "tms", "--gen", "z"],
    ["oracle", "tms", "--cutoff", "4"],
    ["twomode", "--coeffs", "0", "1", "0", "0"],
    ["export", "tms"],
)


def build(workload, seed, work_dir):
    """The fixed, shuffled command list of one workload for one seed."""
    inp = Inputs(seed, work_dir)
    commands = BUILDERS[workload](inp)
    order = inp.rng.permutation(len(commands))
    return [commands[i] for i in order]
