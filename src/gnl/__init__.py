"""Graph calculus and Schwinger nullifiers for Gaussian pure states.

The package is organized around the complex adjacency matrix K of a
Gaussian pure state:

* :mod:`gnl.graphs` converts between K and the Z = V + iU potential,
  checks both, applies passive mode transformations and holds the input
  gates every solver checks its operands with;
* :mod:`gnl.schwinger` handles quadratic photon-conserving operators
  adag M a as Hermitian matrices and symbolic Schwinger expressions;
* :mod:`gnl.nullifiers` decides and derives nullifiers through the
  antisymmetry criterion MK = -(MK)^T;
* :mod:`gnl.states` builds named states (TMS pairs, Bell-like variants,
  the periodic dual-rail wire) with their documented nullifier families;
* :mod:`gnl.fock` verifies everything independently in truncated Fock space;
* :mod:`gnl.cli` is the command-line entry point (``gnl``).

The package itself holds only the modules: every function has one name,
in its own module (``gnl.graphs.tms_k``, ``from gnl import fock``), and
the exception types live in :mod:`gnl.errors`.
"""

from . import errors, fock, graphs, nullifiers, schwinger, states

__version__ = "0.1.0"
