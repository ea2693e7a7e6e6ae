"""Named Gaussian states and their quadratic nullifier families.

Contents: pairs of two-mode squeezed states read as a pair of Schwinger
spins, the four Bell-like variants reachable from that pair by passive
rotations, and the periodic dual-rail wire (a one-dimensional cluster-state
resource) with its local, chain, and global nullifiers.

Index conventions, fixed project-wide:

* TMS pair on 4 modes: squeezed edges (0,1) and (2,3); Schwinger spin A is
  the mode pair (0, 2), spin B is (1, 3).  The two pi rotations that make
  the psi variants from it are built once per process, read-only, through
  the exponential, so every Bell K is bit for bit what rotations built on
  each call give.
* Wire with n spins: spin i occupies flat modes 2i (rail a) and 2i+1
  (rail b).  The wire is built in the "distributed" basis where it splits
  into disjoint squeezed edges between mode (i)- and mode (i+1)+ around the
  ring, then rotated to the physical rails by one balanced mixer per spin.
  Physical edge weights are +-tanh(alpha)/2, negative iff the left spin
  contributes rail b.  They share one magnitude, but it is rounded through
  the 1/sqrt(2) mixer products: at alpha = 0.5 it is 0.2310585786300048,
  two ulps from tanh(0.5)/2 = 0.23105857863000487.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import graphs, schwinger
from .errors import (
    OddSpinCount,
    IndexOutOfRange,
    SpanTooLong,
    TooFewSpins,
    UnknownVariant,
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


def tms_pair(alpha, alpha_second=None):
    """Two disjoint squeezed edges: (0,1) with alpha, (2,3) with alpha again.

    alpha_second overrides the second edge for negative-control tests; the
    spin-pair nullifiers (:func:`bell_nullifier` of "phi+": S^x_A - S^x_B,
    S^y_A + S^y_B, S^z_A - S^z_B and S^0_A - S^0_B) hold when both edges
    are squeezed equally, and the x and y ones only then.
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


def bell_analogue(variant, alpha):
    """A Bell-like spin pair and its expected nullifier expressions.

    K is :func:`bell_k`, whose two pi rotations are built once per process;
    it is bit for bit what rotations built on each call give.

    Returns
    -------
    (K, expressions)
        The 4x4 adjacency matrix and the four nullifier expressions [x, y,
        z, photon-number difference] with the variant's sign pattern
        (:func:`bell_nullifier`).

    Raises
    ------
    UnknownVariant
        Before alpha is read.
    NonPositiveAlpha
    """
    return bell_k(variant, alpha), [bell_nullifier(variant, axis) for axis in "xyz0"]


def bell_k(variant, alpha):
    """The adjacency matrix of a Bell-like spin pair.

    Starting from the equal-alpha TMS pair (the phi+ analogue), the other
    three variants are produced by passive one-spin rotations:

    * phi-: pi phase shift on mode 2 (flips the sign of the second edge),
    * psi+: phi- followed by a 180-degree y-rotation of spin A (edges become
      crossed: (0,3) and (1,2)),
    * psi-: psi+ followed by a 180-degree z-rotation of spin B (crossed
      edges pick up phases +-i).

    The two rotations are built once per process (:func:`_bell_rotations`),
    through the exponential, so K is bit for bit what rotations built on
    each call give.  Only phi+ is exactly real.  The pi rotations leave
    rounding in phi- and psi+ (imaginary parts up to about 6e-17, and in
    psi+ entries of about 3e-17 on the uncrossed edges (0,1) and (2,3)), so
    those K take the complex route of :func:`nullifiers.nullifier_space`.

    Raises
    ------
    UnknownVariant
        Before alpha is read.
    NonPositiveAlpha
    """
    _check_variant(variant)
    k = tms_pair(alpha)
    if variant != "phi+":
        k = graphs.phase_shift(k, [0.0, 0.0, np.pi, 0.0])
    if variant in ("psi+", "psi-"):
        rotate_y_a, rotate_z_b = _bell_rotations()
        k = graphs.passive_transform(k, rotate_y_a)
        if variant == "psi-":
            k = graphs.passive_transform(k, rotate_z_b)
    return k


@functools.cache
def _bell_rotations():
    """exp(-i pi S^y_A) and exp(-i pi S^z_B), read-only, built once per process.

    Built through the exponential, not in closed form: the rounding they
    leave in K is what sends phi- and psi+ down the complex route.
    """
    rotations = []
    for axis, spin in (("y", SPIN_A), ("z", SPIN_B)):
        gen = 0.5 * schwinger.embed_pauli(axis, *spin, 4)
        rotation = schwinger.generator_to_unitary(gen, np.pi)
        rotation.flags.writeable = False
        rotations.append(rotation)
    return tuple(rotations)


def _check_variant(variant):
    """The one check of a Bell variant name, shared by bell_k and bell_nullifier."""
    if variant not in BELL_VARIANTS:
        raise UnknownVariant(
            f"variant {variant!r} not in {', '.join(BELL_VARIANTS)}"
        )


def bell_nullifier(variant, axis):
    """The nullifier of a Bell-like variant on one axis, "x", "y", "z" or "0".

    The pair's S^axis_A term with the variant's sign on S^axis_B, as listed
    by :func:`bell_analogue`, without building the state; axis "0" gives the
    photon-number difference.

    Raises
    ------
    UnknownVariant
        The variant is not one of :data:`BELL_VARIANTS`.
    ShapeMismatch
        Unknown axis (from :class:`schwinger.SchwingerTerm`).
    """
    _check_variant(variant)
    # axis "0" and an unknown axis take -1; SchwingerTerm refuses the latter
    return _pair_expression(axis, _BELL_SIGNS[variant].get(axis, -1.0))


# ----------------------------------------------------------------------
# dual-rail wire


@dataclass(frozen=True)
class WireLayout:
    """Periodic dual-rail wire geometry: n_spins spins, two rails each.

    Spin i lives on flat modes 2i (rail a) and 2i+1 (rail b); the squeezing
    parameter alpha is shared by every edge.  The ring needs at least 3
    spins: with fewer, both neighbours of a spin coincide.  This is the one
    spin-count check of every wire construction below.

    Raises
    ------
    TooFewSpins
        n_spins < 3, checked before alpha.
    NonPositiveAlpha
    """

    n_spins: int
    alpha: float

    def __post_init__(self):
        if self.n_spins < 3:
            raise TooFewSpins("a periodic wire needs at least 3 spins")
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
    balanced mixers; every nonzero entry is +-tanh(alpha)/2, up to the
    rounding of the mixer products (see the module docstring), and joins
    rails of neighbouring spins, with the sign set by the left spin's rail
    (b gives the minus).  The matrix is real.
    """
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
    spins keep +-S^0 - S^x.  i_to >= 0 may exceed n-1 or sit below i_from to
    wrap around the ring; the full ring reproduces -2 * wire_global_x.

    Raises
    ------
    IndexOutOfRange, SpanTooLong
    """
    n = layout.n_spins
    if not 0 <= i_from < n:
        raise IndexOutOfRange(f"i_from {i_from} outside 0..{n - 1}")
    if i_to < 0:
        raise IndexOutOfRange(f"i_to {i_to} is negative")
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
    """
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


def six_mode_symmetry(layout):
    """A six-mode wire symmetry, on spins 0, 1, 2 (flat modes 0..5):

        M = -2 S^z_{2,3} + S^x_{0,5} + S^x_{0,4} - S^x_{1,5} - S^x_{1,4}

    It nullifies every periodic wire with at least 3 spins.  Its
    exponential exp(-i theta adag M a) splits into two commuting
    interferometers: the z part is a pure phase differential on spin 1's
    rails, and the x part is a single two-mode mixer between modes 1 and 4,
    exp(-i theta sigma_x^{(1,4)}), conjugated by balanced mixers on (0,1)
    and (4,5).
    """
    return SchwingerExpression(
        layout.n_modes,
        [
            SchwingerTerm("z", (2, 3), -2.0),
            SchwingerTerm("x", (0, 5), +1.0),
            SchwingerTerm("x", (0, 4), +1.0),
            SchwingerTerm("x", (1, 5), -1.0),
            SchwingerTerm("x", (1, 4), -1.0),
        ],
    )
