"""Named Gaussian states and their quadratic nullifier families.

Contents: pairs of two-mode squeezed states read as a pair of Schwinger
spins, the four Bell-like variants reachable from that pair by passive
rotations, and the periodic dual-rail wire (a one-dimensional cluster-state
resource) with its local, chain, and global nullifiers.

Index conventions, fixed project-wide:

* TMS pair on 4 modes: squeezed edges (0,1) and (2,3); Schwinger spin A is
  the mode pair (0, 2), spin B is (1, 3).
* Wire with n spins: spin i occupies flat modes 2i (rail a) and 2i+1
  (rail b).  The wire is built in the "distributed" basis where it splits
  into disjoint squeezed edges between mode (i)- and mode (i+1)+ around the
  ring, then rotated to the physical rails by one balanced mixer per spin.
  Physical edge weights are exactly +-tanh(alpha)/2, negative iff the
  left spin contributes rail b.
"""

from dataclasses import dataclass

import numpy as np

from . import graphs, schwinger
from .errors import (
    BadPairing,
    OddSpinCount,
    IndexOutOfRange,
    SpanTooLong,
    TooFewSpins,
    UnknownVariant,
    WireTooSmall,
)
from .schwinger import SchwingerExpression, SchwingerTerm

# spin A and spin B of the 4-mode TMS pair
SPIN_A = (0, 2)
SPIN_B = (1, 3)

BELL_VARIANTS = ("phi+", "phi-", "psi+", "psi-")

# sign of the B term in S_A + sign * S_B, per variant and axis
_BELL_SIGNS = {
    "phi+": {"x": -1.0, "y": +1.0, "z": -1.0},
    "phi-": {"x": +1.0, "y": -1.0, "z": -1.0},
    "psi+": {"x": -1.0, "y": -1.0, "z": +1.0},
    "psi-": {"x": +1.0, "y": +1.0, "z": +1.0},
}


@dataclass(frozen=True)
class SpinPairing:
    """Partition of the modes into ordered pairs, each read as one spin."""

    pairs: tuple

    def __post_init__(self):
        flat = [i for p in self.pairs for i in p]
        n = 2 * len(self.pairs)
        if sorted(flat) != list(range(n)):
            raise BadPairing(
                f"pairs {self.pairs} do not partition modes 0..{n - 1}"
            )

    @property
    def n_modes(self):
        return 2 * len(self.pairs)


def tms_pair_pairing():
    """The spin-A/spin-B pairing of the 4-mode TMS pair."""
    return SpinPairing((SPIN_A, SPIN_B))


def tms_pair(alpha, alpha_second=None):
    """Two disjoint squeezed edges: (0,1) with alpha, (2,3) with alpha again.

    alpha_second overrides the second edge for negative-control tests; the
    spin-pair nullifiers below only hold when both edges are squeezed
    equally.
    """
    graphs.check_alpha(alpha)
    a2 = alpha if alpha_second is None else alpha_second
    graphs.check_alpha(a2, "alpha_second")
    k = np.zeros((4, 4), dtype=complex)
    k[0, 1] = k[1, 0] = np.tanh(alpha)
    k[2, 3] = k[3, 2] = np.tanh(a2)
    return k


def _pair_expression(axis, sign_b, n=4):
    return SchwingerExpression(
        n,
        [
            SchwingerTerm(axis, SPIN_A, 1.0),
            SchwingerTerm(axis, SPIN_B, float(sign_b)),
        ],
    )


def tms_pair_nullifiers():
    """The four spin-pair nullifiers of the equal-alpha TMS pair.

    S^x_A - S^x_B, S^y_A + S^y_B, S^z_A - S^z_B and S^0_A - S^0_B; the first
    three generate the pair's interferometric symmetries, the last states
    that both spins carry the same total photon number.
    """
    return [
        _pair_expression("x", -1.0),
        _pair_expression("y", +1.0),
        _pair_expression("z", -1.0),
        _pair_expression("0", -1.0),
    ]


# what the first three tms_pair_nullifiers() expressions do to the pair
_SYMMETRY_NOTES = (
    "counter-rotating x mixers on spins A and B",
    "co-rotating y mixers on spins A and B",
    "opposite phase differentials on spins A and B",
)


def four_mode_symmetries(alpha):
    """Symmetry generators of the TMS pair, with short descriptions.

    Each expression M passes the nullifier test against tms_pair(alpha), so
    exp(-i theta adag M a) leaves the state invariant for every theta.
    """
    graphs.check_alpha(alpha)
    return list(zip(tms_pair_nullifiers()[:3], _SYMMETRY_NOTES))


def bell_analogue(variant, alpha):
    """A Bell-like spin pair and its expected nullifier expressions.

    Starting from the equal-alpha TMS pair (the phi+ analogue), the other
    three variants are produced by passive one-spin rotations:

    * phi-: pi phase shift on mode 2 (flips the sign of the second edge),
    * psi+: phi- followed by a 180-degree y-rotation of spin A (edges become
      crossed: (0,3) and (1,2)),
    * psi-: psi+ followed by a 180-degree z-rotation of spin B (crossed
      edges pick up phases +-i).

    Returns
    -------
    (K, expressions)
        The 4x4 adjacency matrix and the four nullifier expressions
        [x, y, z, photon-number difference] with the variant's sign pattern.

    Raises
    ------
    UnknownVariant
    """
    if variant not in BELL_VARIANTS:
        raise UnknownVariant(
            f"variant {variant!r} not in {', '.join(BELL_VARIANTS)}"
        )
    graphs.check_alpha(alpha)
    k = tms_pair(alpha)
    if variant != "phi+":
        k = graphs.phase_shift(k, [0.0, 0.0, np.pi, 0.0])
    if variant in ("psi+", "psi-"):
        gen_y_a = schwinger.expression_to_matrix(
            SchwingerExpression(4, [SchwingerTerm("y", SPIN_A, 1.0)])
        )
        k = graphs.passive_transform(
            k, schwinger.generator_to_unitary(gen_y_a, np.pi)
        )
    if variant == "psi-":
        gen_z_b = schwinger.expression_to_matrix(
            SchwingerExpression(4, [SchwingerTerm("z", SPIN_B, 1.0)])
        )
        k = graphs.passive_transform(
            k, schwinger.generator_to_unitary(gen_z_b, np.pi)
        )
    return k, [bell_nullifier(variant, axis) for axis in "xyz0"]


def bell_nullifier(variant, axis):
    """The nullifier of a Bell-like variant on one axis, "x", "y", "z" or "0".

    The pair's S^axis_A term with the variant's sign on S^axis_B, as listed
    by :func:`bell_analogue`, without building the state; axis "0" gives the
    photon-number difference.

    Raises
    ------
    UnknownVariant
    """
    if variant not in BELL_VARIANTS:
        raise UnknownVariant(
            f"variant {variant!r} not in {', '.join(BELL_VARIANTS)}"
        )
    return _pair_expression(axis, -1.0 if axis == "0" else _BELL_SIGNS[variant][axis])


# ----------------------------------------------------------------------
# dual-rail wire


@dataclass(frozen=True)
class WireLayout:
    """Periodic dual-rail wire geometry: n_spins spins, two rails each.

    Spin i lives on flat modes 2i (rail a) and 2i+1 (rail b); the squeezing
    parameter alpha is shared by every edge.
    """

    n_spins: int
    alpha: float

    def __post_init__(self):
        if self.n_spins < 2:
            raise TooFewSpins("a wire needs at least 2 spins")
        graphs.check_alpha(self.alpha)

    @property
    def n_modes(self):
        return 2 * self.n_spins

    def mode_index(self, spin, rail):
        """Flat index of (spin, rail); rail is "a"/"b" or 0/1."""
        if rail in ("a", 0):
            off = 0
        elif rail in ("b", 1):
            off = 1
        else:
            raise IndexOutOfRange(f"rail must be a or b, got {rail!r}")
        if not 0 <= spin < self.n_spins:
            raise IndexOutOfRange(f"spin {spin} outside 0..{self.n_spins - 1}")
        return 2 * spin + off

    def labels(self):
        """Mode labels "0a", "0b", "1a", ... for printouts."""
        out = []
        for i in range(self.n_spins):
            out += [f"{i}a", f"{i}b"]
        return out


def wire_mixer(layout):
    """Per-spin balanced mixer, as one block-diagonal unitary.

    Each spin's rails are mixed by H = [[1, 1], [1, -1]]/sqrt(2), which is
    real, symmetric and self-inverse; the same W therefore maps physical to
    distributed modes and back.
    """
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return np.kron(np.eye(layout.n_spins), h).astype(complex)


def wire_distributed_k(layout):
    """Adjacency matrix in the distributed (+/-) basis: disjoint squeezed edges.

    Distributed mode i+ sits at flat 2i, i- at flat 2i+1; the ring's edges
    join (i)- to (i+1)+ with weight tanh(alpha).
    """
    n = layout.n_spins
    t = np.tanh(layout.alpha)
    k = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        r = 2 * i + 1
        c = 2 * ((i + 1) % n)
        k[r, c] = t
        k[c, r] = t
    return k


def dual_rail_wire(layout):
    """Physical adjacency matrix of the periodic dual-rail wire.

    Built by rotating the distributed-basis matrix with the per-spin
    balanced mixers; every nonzero entry is exactly +-tanh(alpha)/2 and
    joins rails of neighbouring spins, with the sign set by the left spin's
    rail (b gives the minus).

    Raises
    ------
    TooFewSpins
        For fewer than 3 spins the ring degenerates (both neighbours of a
        spin coincide).
    """
    if layout.n_spins < 3:
        raise TooFewSpins("a periodic wire needs at least 3 spins")
    w = wire_mixer(layout)
    return graphs.passive_transform(wire_distributed_k(layout), w)


def wire_local_nullifiers(layout):
    """The n local two-spin nullifiers N_i of the wire.

    N_i = S^0_{ia,ib} - S^x_{ia,ib} - S^0_{ja,jb} - S^x_{ja,jb} with
    j = i+1 mod n: the photon-number imbalance between neighbouring spins,
    dressed with the rail mixers.  The list is linearly independent and
    spans a commuting family of wire symmetries.
    """
    n = layout.n_spins
    out = []
    for i in range(n):
        j = (i + 1) % n
        ia, ib = 2 * i, 2 * i + 1
        ja, jb = 2 * j, 2 * j + 1
        out.append(
            SchwingerExpression(
                2 * n,
                [
                    SchwingerTerm("0", (ia, ib), +1.0),
                    SchwingerTerm("x", (ia, ib), -1.0),
                    SchwingerTerm("0", (ja, jb), -1.0),
                    SchwingerTerm("x", (ja, jb), -1.0),
                ],
            )
        )
    return out


def wire_global_x(layout):
    """Global nullifier sum_i S^x_{ia,ib} (all rail mixers at once)."""
    n = layout.n_spins
    return SchwingerExpression(
        2 * n,
        [SchwingerTerm("x", (2 * i, 2 * i + 1), 1.0) for i in range(n)],
    )


def wire_global_z(layout):
    """Global nullifier pairing spins horizontally; needs an even ring.

    sum over spin pairs (2i, 2i+1) of S^z between the a rails plus S^z
    between the b rails.

    Raises
    ------
    OddSpinCount
    """
    n = layout.n_spins
    if n % 2 == 1:
        raise OddSpinCount("horizontal pairing needs an even number of spins")
    terms = []
    for i in range(n // 2):
        sp, sq = 2 * i, 2 * i + 1
        terms.append(SchwingerTerm("z", (2 * sp, 2 * sq), 1.0))
        terms.append(SchwingerTerm("z", (2 * sp + 1, 2 * sq + 1), 1.0))
    return SchwingerExpression(2 * n, terms)


def wire_chain_nullifier(layout, i_from, i_to):
    """Sum of consecutive local nullifiers N_{i_from} + ... + N_{i_to}.

    The S^0 terms telescope: interior spins keep -2 S^x only, the boundary
    spins keep +-S^0 - S^x.  i_to may exceed n-1 or sit below i_from to wrap
    around the ring; the full ring reproduces -2 * wire_global_x.

    Raises
    ------
    IndexOutOfRange, SpanTooLong
    """
    n = layout.n_spins
    if not 0 <= i_from < n:
        raise IndexOutOfRange(f"i_from {i_from} outside 0..{n - 1}")
    if i_to < i_from:
        i_to += n
    length = i_to - i_from + 1
    if length > n:
        raise SpanTooLong(f"span of {length} exceeds the ring length {n}")
    locals_ = wire_local_nullifiers(layout)
    expr = locals_[i_from % n]
    for i in range(i_from + 1, i_to + 1):
        expr = schwinger.add_expressions(expr, locals_[i % n])
    return expr


def wire_y_symmetry(layout):
    """An all-S^y local symmetry generator supported on spins 0, 1, 2.

    Unit-weight S^y terms on the rail pairs across the (0,1) and (1,2)
    boundaries, with one sign pattern per boundary; nullifies the wire for
    every ring length >= 3.

    Raises
    ------
    WireTooSmall
    """
    if layout.n_spins < 3:
        raise WireTooSmall("needs at least 3 spins")
    n = layout.n_modes
    coeffs = [
        ((0, 2), +1.0),
        ((0, 3), -1.0),
        ((1, 2), -1.0),
        ((1, 3), +1.0),
        ((2, 4), +1.0),
        ((2, 5), +1.0),
        ((3, 4), +1.0),
        ((3, 5), +1.0),
    ]
    return SchwingerExpression(
        n, [SchwingerTerm("y", pair, c) for pair, c in coeffs]
    )


def wire_overlap_forms(layout):
    """Two renderings of the same wire symmetry on spins 0 and 1.

    Returns (z_form, local_form): the first writes the generator with S^z
    operators on crossed rail pairs minus the two rail mixers, the second is
    the local nullifier N_0.  Their matrices agree exactly, which is the
    quickest way to see the overlapping spin structure of the wire.
    """
    n = layout.n_modes
    z_form = SchwingerExpression(
        n,
        [
            SchwingerTerm("z", (0, 2), 1.0),
            SchwingerTerm("z", (1, 3), 1.0),
            SchwingerTerm("x", (0, 1), -1.0),
            SchwingerTerm("x", (2, 3), -1.0),
        ],
    )
    local_form = wire_local_nullifiers(layout)[0]
    return z_form, local_form


def six_mode_symmetry_decomposition(layout, theta):
    """A six-mode wire symmetry and its beamsplitter factorization.

    The generator acts on spins 0, 1, 2 (flat modes 0..5):

        M = -2 S^z_{2,3} + S^x_{0,5} + S^x_{0,4} - S^x_{1,5} - S^x_{1,4}

    and nullifies every periodic wire with at least 3 spins.  Its
    exponential exp(-i theta adag M a) splits into two commuting
    interferometers: the z part is a pure phase differential on spin 1's
    rails, and the x part is a single two-mode mixer between modes 1 and 4
    conjugated by balanced mixers on (0,1) and (4,5).

    Returns
    -------
    (expression, factors)
        factors = [F, X(theta), F^{-1}, Z(theta)] as mode unitaries; the
        product of the first three equals exp(-i theta M_x) and the full
        product equals exp(-i theta M).

    Raises
    ------
    WireTooSmall
    """
    if layout.n_spins < 3:
        raise WireTooSmall("needs at least 3 spins")
    n = layout.n_modes
    expr = SchwingerExpression(
        n,
        [
            SchwingerTerm("z", (2, 3), -2.0),
            SchwingerTerm("x", (0, 5), +1.0),
            SchwingerTerm("x", (0, 4), +1.0),
            SchwingerTerm("x", (1, 5), -1.0),
            SchwingerTerm("x", (1, 4), -1.0),
        ],
    )
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    f = np.eye(n, dtype=complex)
    f[np.ix_([0, 1], [0, 1])] = h
    f[np.ix_([4, 5], [4, 5])] = h
    x_rot = schwinger.generator_to_unitary(
        schwinger.embed_pauli("x", 1, 4, n), theta
    )
    z_rot = schwinger.generator_to_unitary(
        -schwinger.embed_pauli("z", 2, 3, n), theta
    )
    # F is self-inverse; keep the conjugate-transpose form for readability
    return expr, [f, x_rot, f.conj().T, z_rot]
