"""Command-line surface.

Subcommands:

* ``state``      build a named state and print its adjacency matrix
* ``nullifiers`` derive the complete quadratic nullifier basis of a state
* ``check``      test one generator against a state (algebraic, symmetry
  and Fock residuals)
* ``twomode``    solve for all two-mode states invariant under a generator
* ``oracle``     print the truncated Fock expansion of a state
* ``export``     write the state's graph as DOT

States are named ``tms``, ``tms-pair``, ``bell:phi+`` / ``bell:phi-`` /
``bell:psi+`` / ``bell:psi-``, ``hgraph`` (with ``--g`` pointing at a matrix
JSON file) and ``wire`` (with ``--spins``).  :data:`STATES` holds one entry
per name: its builder and its named generators, keyed by the head of a
``--gen`` spec ``head[:I[:J]]``.  A spec whose head the state does not have,
with the wrong number of parameters or with a non-integer one is invalid
input.

Output is deterministic byte-for-byte for a fixed command line; there are no
environment knobs, only flags and an optional ``--config`` JSON file, given
before the subcommand.  Its keys are the dests of optional flags
(``theta_points`` for ``--theta-points``); its values go to argparse as
flags right after the subcommand, so argparse converts and checks them and
an explicit flag wins.  A key that is no optional flag of any subcommand, or
a value that is not a string or a number, is invalid input; a key that only
another subcommand takes is skipped.  ``--config`` is parsed only when
present, that is when a token is ``--config`` or starts with
``--config=``.  The BLAS thread count is no knob either: the Fock oracle's
norms are numpy sums, not ``np.vdot``, whose OpenBLAS result on a long
vector moved in the last digit with the thread count.

Each flag is declared once, in the argparse tree of :func:`build_parser`.
A line is parsed in one pass over its subcommand's flag table, which
:func:`_flag_table` reads off that tree once: each option string's dest,
type, nargs and choices, the defaults and the required dests.  The table
takes a strict subset of the lines argparse takes and gives the same
namespace; :func:`_parse` returns None for every other line (help, ``--``,
an abbreviation, a usage error, any ``--config`` line), and argparse
parses or refuses it and writes every help, usage and error text.

``--format json`` output is exactly ``json.dumps(payload, indent=2)`` plus a
newline.  The two large tables of numbers, the ``nullifiers`` generator
stack and the ``oracle`` amplitude records, are written from arrays to the
same bytes by one table writer, :func:`_table`: each number is one piece,
its text with the separator that follows it folded in, made once per
separator and distinct value of a block, and the separators come from
json's encoding of a record of at most two entries per list, whatever the
mode count.  The flat lists of ``nullifiers`` (singular values and
expressions) go through json's C encoder, and the stdlib's indenting
encoder writes every other value.

Exit codes: 0 all requested checks pass, 1 a check ran and failed,
2 invalid input, which includes a ``check`` generator that is zero (it
would pass every check vacuously) and an array too large to allocate (the
error line is numpy's, with the size it asked for).  Every check applies
one relative tolerance, :func:`graphs.passes`: ``check`` exits 0 only when
the criterion residual and the Fock residual are at most
graphs.RTOL max|M| max|K| and the symmetry deviation at most
graphs.RTOL max|K| (1 + 2 pi max|M|).
"""

import argparse
import functools
import itertools
import json
import re
import sys

import numpy as np

from . import fock, graphs, nullifiers, schwinger, states
from .errors import AllZeroCoefficients, BadSpec, GnlError, IndexOutOfRange, SweepTooLarge

TEXT_HEADER = "gnl-report v1"

# numbers per block of a table; bounds the writer's temporaries on large
# nullifier spaces and oracle tables
BLOCK = 16384
# bytes of angles and mode unitaries that the theta sweep of check may handle
MAX_SWEEP_BYTES = 2**30
_NUMBER = "\0"  # stands for a number in a record skeleton
_MARK = json.dumps(_NUMBER)
_CUT = "\1"  # in no number's text and no separator, so pieces split at it
_SIGN = np.iinfo(np.int64).min  # the bits of -0.0: the sign bit alone


# json.dumps(value, indent=2) with the encoder built once; payloads are trees,
# so json's cycle check (about 7 % of a small state payload's time) is off
_indented = json.JSONEncoder(indent=2, check_circular=False).encode
# a flat list as a value of a top-level object: json's C encoder, with the
# item separator that indent=2 writes there
_flat_items = json.JSONEncoder(separators=(",\n    ", ": "), check_circular=False).encode


def _flat(values):
    """A list of strings and numbers as a table (see :func:`_json_dumps`)."""
    return lambda: ["[\n    ", _flat_items(values)[1:-1], "\n  ]"] if values else ["[]"]


def _marks(record):
    """The text around the numbers of a one-record list at indent level 1.

    record has :data:`_NUMBER` in place of each number.  Returns (first,
    between, joint, end): the text before its first number, the text after
    each number but the last, the text from the last number to the first
    of a next record (json ends a list item with "," before the next one),
    and the text after the last number, which closes the list.
    """
    first, *between, end = _indented([record]).replace("\n", "\n  ").split(_MARK)
    return first, between, end[:end.rindex("\n")] + "," + first[1:], end


# the marks of an oracle amplitude record, whatever the mode count
_AMP_MARKS = _marks({"occ": [_NUMBER] * 2, "re": _NUMBER, "im": _NUMBER})


def _distinct(values):
    """(texts, index): the distinct numbers of a 2-D int64 or float64 array.

    texts holds the JSON text of each distinct bit pattern, the two zeros'
    first; index, of values' shape, the text of each value.  The texts come
    from one ``json.dumps``, so -0.0, NaN and Infinity keep json's spelling
    and no two floats merge.  Both zeros, 0.0 and -0.0 (the sign bit
    alone), are set aside before the sort, told apart by their sign bit:
    zero is most of a sparse generator, and -0.0 most of its zeros, since
    :func:`schwinger.from_coordinates` writes the lower triangle as the
    conjugate of the upper, negating each zero imaginary part.
    """
    bits = values.view(np.int64).reshape(-1)
    nonzero = np.flatnonzero(values != 0)  # -0.0 == 0.0 too
    at = nonzero[bits[nonzero].argsort()]  # the nonzero values in bit order
    ranked = bits[at]
    new = np.empty(len(at), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    numbers = np.concatenate(([0, _SIGN], ranked[new])).view(values.dtype).tolist()
    index = (bits.view(np.uint64) >> 63).view(np.int64)  # 0 for 0.0, 1 for -0.0
    index[at] = new.cumsum() + 1
    return json.dumps(numbers)[1:-1].split(", "), index.reshape(values.shape)


def _table(first, end, columns):
    """A list of records of one layout as JSON text at indent level 1, in chunks.

    Each number is one piece: its text with the separator that follows it
    in the record folded in.  columns are (array, classes) pairs: array is
    2-D int64 or float64 with one row per record, a record's numbers being
    its rows, column after column; classes are (separator, slice) pairs
    that split the array's columns by the text that follows their numbers.
    The last class of the last column holds the record's last number, and
    its separator is the joint to the next record (see :func:`_marks`);
    first and end are the text before the table's first number and after
    its last.

    A block of about :data:`BLOCK` numbers spells each column's distinct
    values once (see :func:`_distinct`) and is one join of its pieces.  A
    class's pieces are one join of texts with its separator, split again,
    so no string is built per value: of every distinct value of the column
    when the class has at least as many numbers (sparse generators), else
    of only the values the class holds (oracle amplitudes and dense
    generators, whose values are mostly distinct).  Returns first, one
    chunk per block and end.
    """
    count = len(columns[0][0])
    if not count:
        return ["[]"]
    joint = columns[-1][1][-1][0]
    width = sum(array.shape[1] for array, _ in columns)
    rows = max(1, BLOCK // width)
    chunks = [first]
    for start in range(0, count, rows):
        pieces = []
        index = np.empty((min(rows, count - start), width), dtype=np.intp)
        at = 0
        for array, classes in columns:
            block = array[start:start + rows]
            texts, which = _distinct(block)
            spots = index[:, at:at + block.shape[1]]
            for sep, cut in classes:
                spot, own = which[:, cut], texts
                if len(texts) > spot.size:
                    keep = np.zeros(len(texts), dtype=bool)
                    keep[spot] = True
                    spot = (keep.cumsum() - 1)[spot]
                    own = list(itertools.compress(texts, keep.tolist()))
                spots[:, cut] = spot + len(pieces)
                pieces += ((sep + _CUT).join(own) + sep).split(_CUT)
            at += block.shape[1]
        line = np.array(pieces, dtype=object)[index.reshape(-1)].tolist()
        if start + rows >= count:
            line[-1] = line[-1][:-len(joint)]
        chunks.append("".join(line))
    chunks.append(end)
    return chunks


def _generator_table(generators, n):
    """``[graphs.matrix_to_json(m) for m in generators]`` as a table.

    generators are (n, n) complex matrices, as a list or a (d, n, n) stack.
    A C-contiguous complex stack, as :func:`schwinger.from_coordinates`
    returns it, is read in place, without a copy; its float view is the one
    column of the table, each record's numbers the real and imaginary parts
    of its entries in row-major order.  The separators come from a record
    of two entries, whatever n.
    """
    stack = np.asarray(generators, dtype=complex).reshape(-1, n * n)
    first, (re, im, _), joint, end = _marks({"n": n, "entries": [[_NUMBER] * 2] * 2})
    width = 2 * n * n
    classes = [(re, slice(0, width, 2)), (im, slice(1, width - 1, 2)),
               (joint, slice(width - 1, width))]
    return functools.partial(_table, first, end, [(stack.view(float), classes)])


def _fock_payload(v):
    """The JSON export of a Fock vector, its amplitudes as a table.

    ``{"n":, "cutoff":, "amps": [{"occ":, "re":, "im":}]}``, one record per
    row of :func:`fock.export_table`, whose complex amplitudes write a real
    one, from the float64 recursion of a real K, as (re, 0.0).  The
    separators come from a record of two occupations, whatever n.
    """
    n = v.n_modes
    occ, amps = fock.export_table(v)
    first, (inner, last, re), joint, end = _AMP_MARKS
    columns = [
        (occ, [(inner, slice(0, n - 1)), (last, slice(n - 1, n))]),
        (amps.view(float).reshape(-1, 2), [(re, slice(0, 1)), (joint, slice(1, 2))]),
    ]
    return {
        "n": int(n),
        "cutoff": int(v.cutoff),
        "amps": functools.partial(_table, first, end, columns),
    }


def _json_dumps(payload):
    """``json.dumps(payload, indent=2) + "\n"``, byte for byte.

    A payload without a table is ``json.dumps`` itself.  A value of a
    top-level object may be a table: a callable that returns that value's
    text at indent level 1 in chunks (see :func:`_table` and
    :func:`_flat`).  Every other value is then ``json.dumps(value,
    indent=2)`` indented by one level, which is exact because JSON strings
    hold no raw newline.  The document is joined once.
    """
    if not isinstance(payload, dict) or not any(map(callable, payload.values())):
        return _indented(payload) + "\n"
    chunks = ["{"]
    for i, (key, value) in enumerate(payload.items()):
        chunks.append(("," if i else "") + "\n  " + json.dumps(key) + ": ")
        if callable(value):
            chunks += value()
        else:
            chunks.append(_indented(value).replace("\n", "\n  "))
    chunks.append("\n}\n")
    return "".join(chunks)


def _fmt_res(x):
    # 3 significant digits, scientific
    return f"{x:.2e}"


def _axis_generators(expression):
    """Generators 0, x, y and z, each expression(axis), taking no parameter."""

    def generator(axis):
        return lambda layout: expression(axis)

    return {axis: generator(axis) for axis in schwinger.AXES}


def _spin_pair(variant, build=None):
    """Table entry of a Bell-like spin pair, generators from bell_nullifier."""
    return (
        build or (lambda a: (states.bell_k(variant, a.alpha), None)),
        _axis_generators(lambda axis: states.bell_nullifier(variant, axis)),
    )


def _hgraph(args):
    if not args.g:
        raise GnlError("hgraph needs --g pointing at a matrix JSON file")
    with open(args.g) as fh:
        return graphs.hgraph_k(graphs.matrix_from_json(fh.read()), args.alpha), None


def _wire(args):
    if args.spins is None:
        raise GnlError("wire needs --spins")
    layout = states.WireLayout(args.spins, args.alpha)
    return states.dual_rail_wire(layout), layout


def _wire_local(layout, i):
    if not 0 <= i < layout.n_spins:
        raise IndexOutOfRange(
            f"local:{i} needs a spin index in 0..{layout.n_spins - 1}"
        )
    return states.wire_local_nullifiers(layout)[i]


# One entry per state name: (build, generators).  build(args) returns K and
# the WireLayout (None off wires); generators maps a --gen head to a plain
# function of the layout and the spec's integer parameters, whose positional
# parameter count sets how many the spec takes.  Layer functions are looked up
# at call time, so the table does no work at import and traced runs see them.
STATES = {
    "tms": (
        lambda a: (graphs.tms_k(a.alpha), None),
        _axis_generators(
            lambda axis: schwinger.SchwingerExpression(
                2, [schwinger.SchwingerTerm(axis, (0, 1), 1.0)]
            )
        ),
    ),
    "tms-pair": _spin_pair("phi+", lambda a: (states.tms_pair(a.alpha), None)),
    **{f"bell:{v}": _spin_pair(v) for v in states.BELL_VARIANTS},
    "hgraph": (_hgraph, {}),
    "wire": (
        _wire,
        {
            "local": _wire_local,
            "global-x": lambda layout: states.wire_global_x(layout),
            "global-z": lambda layout: states.wire_global_z(layout),
            "chain": lambda layout, i, j: states.wire_chain_nullifier(layout, i, j),
            "six-mode": lambda layout: states.six_mode_symmetry(layout),
            "y-local": lambda layout: states.wire_y_symmetry(layout),
        },
    ),
}


def _build_state(args):
    """K, the wire layout and the mode labels (both None off wires) of args.state."""
    if args.state not in STATES:
        raise BadSpec(
            f"unknown state {args.state!r}; choose from {', '.join(STATES)}"
        )
    k, layout = STATES[args.state][0](args)
    return k, layout, layout.labels() if layout else None


def _generator(state, layout, spec):
    """Resolve a --gen spec, @FILE or head[:I[:J]], to a SchwingerExpression."""
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            return schwinger.expression_from_json(fh.read())
    head, *params = spec.split(":")
    make = STATES[state][1].get(head)
    if make is None:
        raise BadSpec(f"generator spec {spec!r} not recognized for state {state}")
    arity = make.__code__.co_argcount - 1
    if len(params) != arity:
        form = ":".join([head, *"IJ"[:arity]])
        raise BadSpec(f"generator spec {spec!r} does not match the form {form}")
    try:
        ints = [int(p) for p in params]
    except ValueError:
        raise BadSpec(f"generator spec {spec!r} needs integer parameters") from None
    return make(layout, *ints)


def _write(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _state_text_lines(name, k, labels):
    defect, norm = graphs.defect_and_norm(k)
    labels = labels or [str(i) for i in range(k.shape[0])]
    return [
        TEXT_HEADER,
        f"state {name}",
        f"modes {k.shape[0]}",
        f"spectral norm {norm:.12g}",
        f"symmetric defect {_fmt_res(defect)}",
    ] + [
        f"edge {labels[i]} {labels[j]} {graphs.format_weight(v)}"
        for i, j, v in graphs.edges(k)
    ]


def cmd_state(args):
    k, _, labels = _build_state(args)
    if args.format == "json":
        _write(args, _json_dumps(graphs.matrix_to_json(k)))
    elif args.format == "dot":
        _write(args, graphs.to_dot(k, labels))
    else:
        _write(args, "\n".join(_state_text_lines(args.state, k, labels)) + "\n")
    return 0


def cmd_nullifiers(args):
    k, _, labels = _build_state(args)
    basis = nullifiers.nullifier_space(k)
    # read off the coordinates; only the JSON stack needs the matrices.  It
    # is built here, not read from basis.generators: that is a list, and
    # np.asarray of a list copies every matrix into a second stack
    expressions = schwinger.coordinate_expressions(basis.coordinates, labels)
    if args.format == "json":
        payload = {
            "state": args.state,
            "dimension": basis.dimension,
            "borderline": basis.borderline,
            "singular_values": _flat(basis.singular_values),
            "generators": _generator_table(
                schwinger.from_coordinates(basis.coordinates), k.shape[0]
            ),
            "expressions": _flat(expressions),
        }
        _write(args, _json_dumps(payload))
        return 0
    lines = [TEXT_HEADER, f"state {args.state}", f"dimension {basis.dimension}"]
    if basis.borderline:
        lines.append("warning: borderline kernel spectrum, dimension uncertain")
    lines += [f"g{idx}: {expr}" for idx, expr in enumerate(expressions)]
    tail = [s for s in basis.singular_values if s > basis.threshold][-3:]
    if tail:
        lines.append(
            "smallest retained singular values: "
            + " ".join(_fmt_res(s) for s in tail)
        )
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_check(args):
    if args.theta_points < 2:
        raise GnlError(f"--theta-points must be at least 2, got {args.theta_points}")
    k, layout, _ = _build_state(args)
    # the sweep holds the grid and builds one complex n x n unitary per angle
    points = args.theta_points
    need = points * (8 + 16 * k.size)
    if need > MAX_SWEEP_BYTES:
        size = f"about {need:.3e}" if need < 1e300 else "more than 1e300"
        raise SweepTooLarge(
            f"--theta-points {points}: a sweep of {k.shape[0]} modes over that many "
            f"angles handles {size} bytes of angles and unitaries; the limit is "
            f"{MAX_SWEEP_BYTES:.3e} bytes"
        )
    m = schwinger.expression_to_matrix(_generator(args.state, layout, args.gen))
    ok, residual = nullifiers.is_nullifier(m, k)
    if not m.any():
        raise AllZeroCoefficients("the generator is zero, which nullifies every state")
    payload = {"state": args.state, "generator": args.gen, "is_nullifier": ok,
               "residual": residual}
    if ok:
        grid = np.linspace(0.0, 2.0 * np.pi, args.theta_points)
        dev = nullifiers.verify_symmetry(k, m, grid)
        fres = fock.nullifier_residual(m, k, args.cutoff)
        # exp(-i theta M) carries a phase rounding of about eps theta max|M|
        kmax, mmax = float(np.abs(k).max()), float(np.abs(m).max())
        ok = graphs.passes(dev, kmax, 1.0 + grid[-1] * mmax) and graphs.passes(fres, mmax, kmax)
        payload |= {"symmetry_dev": dev, "fock_residual": fres, "pass": ok}
        text = (
            f"{TEXT_HEADER}\nNULLIFIER residual {_fmt_res(residual)}; "
            f"symmetry dev {_fmt_res(dev)}; fock residual {_fmt_res(fres)}\n"
        )
    else:
        text = f"{TEXT_HEADER}\nNOT a nullifier; residual {_fmt_res(residual)}\n"
    _write(args, _json_dumps(payload) if args.format == "json" else text)
    return 0 if ok else 1


def cmd_twomode(args):
    c0, cx, cy, cz = args.coeffs
    cls = nullifiers.two_mode_invariant_class(c0, cx, cy, cz)
    if args.format == "json":
        payload = {
            "coefficients": [c0, cx, cy, cz],
            "dimension": cls.dimension,
            "basis": [
                [[float(z.real), float(z.imag)] for z in vec] for vec in cls.basis
            ],
        }
        _write(args, _json_dumps(payload))
        return 0
    lines = [
        TEXT_HEADER,
        f"generator coefficients (S^0, S^x, S^y, S^z): {c0:g} {cx:g} {cy:g} {cz:g}",
        f"dimension {cls.dimension}",
    ]
    for idx, vec in enumerate(cls.basis):
        k11, k12, k22 = (graphs.format_weight(z) for z in vec)
        lines.append(f"v{idx}: k11={k11} k12={k12} k22={k22}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_oracle(args):
    v = fock.state_from_k(_build_state(args)[0], args.cutoff)
    if args.format == "json":
        _write(args, _json_dumps(_fock_payload(v)))
        return 0
    kept = fock.kept_sectors(v)
    lines = [
        TEXT_HEADER,
        f"state {args.state}",
        f"modes {v.n_modes} cutoff {v.cutoff}",
        f"kept amplitudes {sum(len(amps) for _, amps in kept)}",
    ]
    for occ, amps in kept:
        peak = np.hypot(amps.real, amps.imag).max()
        lines.append(f"sector {int(occ[0].sum())}: max |amp| {_fmt_res(peak)}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def _add_state_arguments(sub):
    sub.add_argument("state", help="state name, e.g. tms, wire, bell:phi+")
    sub.add_argument(
        "--alpha", type=float, default=0.5, help="squeezing parameter (default 0.5)"
    )
    sub.add_argument("--spins", type=int, help="spin count for wire states")
    sub.add_argument("--g", help="matrix JSON file for hgraph")


def _add_output_arguments(sub, formats=("json", "text"), default="text"):
    sub.add_argument("--format", choices=formats, default=default)
    sub.add_argument("--out", help="output path (default stdout)")


# a negative number in decimal or exponent form ("-1e-3", "-2.5E+4"), which
# the twomode parser reads as a value where argparse's own rule
# (^-\d+$|^-\d*\.\d+$) reads an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def _config_parser():
    # no abbreviations: "--c" must stay free for a subcommand's --cutoff
    parser = argparse.ArgumentParser(prog="gnl", add_help=False, allow_abbrev=False)
    parser.add_argument("--config", help="JSON file with default flag values")
    return parser


@functools.cache
def build_parser():
    """The argparse tree, built once; parse_args leaves it untouched.

    Its ``flag_tables`` attribute maps each subcommand to its flag table
    (see :func:`_flag_table`).  Its ``config_flags`` attribute, read off
    those tables, maps each subcommand to the config keys it takes: the dest
    of every optional flag with one value, mapped to the flag.
    """
    parser = argparse.ArgumentParser(
        prog="gnl",
        description="Gaussian-state graph calculus and Schwinger nullifiers",
        parents=[_config_parser()],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="build a state and print its matrix")
    _add_state_arguments(p)
    _add_output_arguments(p, formats=("json", "dot", "text"), default="json")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("nullifiers", help="derive the full nullifier basis")
    _add_state_arguments(p)
    _add_output_arguments(p)
    p.set_defaults(func=cmd_nullifiers)

    p = sub.add_parser("check", help="check one generator against a state")
    _add_state_arguments(p)
    p.add_argument(
        "--gen", required=True,
        help="generator: 0/x/y/z, local:I, global-x, global-z, chain:I:J, "
        "six-mode, y-local, or @expression.json",
    )
    p.add_argument(
        "--cutoff", type=int, default=8,
        help="Fock cutoff for the oracle residual (default 8)",
    )
    p.add_argument(
        "--theta-points", type=int, default=16,
        help="symmetry grid size over [0, 2pi], at least 2 (default 16)",
    )
    _add_output_arguments(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("twomode", help="solve the two-mode invariance class")
    # --coeffs takes several values, so it has no "--coeffs=-1e-3" form: its
    # negative values may be written in exponent form too
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument(
        "--coeffs", type=float, nargs=4, required=True,
        metavar=("A", "B", "C", "D"),
        help="coefficients of (S^0, S^x, S^y, S^z)",
    )
    _add_output_arguments(p)
    p.set_defaults(func=cmd_twomode)

    p = sub.add_parser("oracle", help="truncated Fock expansion of a state")
    _add_state_arguments(p)
    p.add_argument(
        "--cutoff", type=int, default=8,
        help="max total photon number, even (default 8)",
    )
    _add_output_arguments(p, default="json")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export", help="write the state graph as DOT")
    _add_state_arguments(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_state, format="dot")

    top = {**parser._defaults, **_action_defaults(parser)}
    parser.flag_tables = {
        name: _flag_table(p, {**top, sub.dest: name})
        for name, p in sub.choices.items()
    }
    parser.config_flags = {
        name: {
            dest: option
            for option, (dest, _, nargs, _) in options.items()
            if nargs is None and dest not in required
        }
        for name, (options, _, _, required, _) in parser.flag_tables.items()
    }
    return parser


def _flag_table(sub, top):
    """The flag table of subparser sub, read off its argparse actions.

    top is the namespace the top-level parser hands down: its defaults and
    the subcommand.  Returns (options, positionals, defaults, required,
    number):

    * options maps each option string of a store action of one value or of
      a fixed count of values to (dest, type, nargs, choices); -h and every
      other action are left out, so argparse parses a line that uses them;
    * positionals holds that tuple for each positional, which takes one
      token;
    * defaults is the namespace of a line that gives no flag, merged as
      argparse merges it: top, the ``set_defaults`` values, the actions'
      defaults; the dests of required actions are left out;
    * required holds those dests, which a line must give;
    * number matches a negative number, which argparse reads as a value.
    """
    options, positionals = {}, []
    for a in sub._actions:
        flag = (a.dest, a.type or str, a.nargs, a.choices)
        if not a.option_strings:
            positionals.append(flag)
        elif type(a) is argparse._StoreAction and (a.nargs is None or type(a.nargs) is int):
            options.update(dict.fromkeys(a.option_strings, flag))
    required = {a.dest for a in sub._actions if a.required}
    defaults = {**top, **sub._defaults, **_action_defaults(sub)}
    return options, positionals, defaults, required, sub._negative_number_matcher.match


def _parse(argv):
    """``build_parser().parse_args(argv)`` of a well-formed line, or None.

    One pass over argv with the flag table of its subcommand (see
    :func:`_flag_table`).  The table takes a strict subset of the lines
    argparse takes.  It returns None for every other line: a first token
    that is no subcommand; a token starting with ``-`` that is neither an
    option string of the subcommand nor a negative number (``-h``, ``--``,
    an abbreviation); ``--flag=value`` on a flag of several values; a
    missing or option-like value; a wrong count of positionals; a missing
    required flag; a value that its type or choices refuse.  argparse then
    parses or refuses that line and writes every usage, error and help text.
    """
    table = build_parser().flag_tables.get(argv[0]) if argv else None
    if table is None:
        return None
    options, positionals, defaults, required, number = table
    given = []  # (flag, its value tokens), in line order
    free = []  # the positionals' tokens
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if token[:1] != "-" or number(token):
            free.append(token)
            continue
        flag = options.get(token)
        if flag is not None:
            count = flag[2] or 1
            tokens = argv[i:i + count]
            i += count
            if len(tokens) < count or any(t[:1] == "-" and not number(t) for t in tokens):
                return None
        else:
            option, eq, value = token.partition("=")
            flag = options.get(option)
            if not eq or flag is None or flag[2] is not None:
                return None
            tokens = [value]
        given.append((flag, tokens))
    if len(free) != len(positionals):
        return None
    values = dict(defaults)
    for flag, tokens in given + [(flag, [t]) for flag, t in zip(positionals, free)]:
        value = _value(flag, tokens)
        if value is None:
            return None
        values[flag[0]] = value  # a flag given twice keeps its last value
    if not required <= values.keys():
        return None
    args = argparse.Namespace()
    vars(args).update(values)  # a third of the cost of Namespace(**values)
    return args


def _action_defaults(parser):
    """{dest: default} of the actions of parser that have a default and are optional."""
    return {a.dest: a.default for a in parser._actions
            if a.default is not argparse.SUPPRESS and not a.required}


def _value(flag, tokens):
    """The value of flag from its tokens, or None where argparse refuses one.

    No type of the tree returns None.
    """
    _, convert, nargs, choices = flag
    try:
        values = [convert(t) for t in tokens]
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    if choices is not None and not all(v in choices for v in values):
        return None
    return values if nargs else values[0]


def _with_config(argv, rest, path):
    """argv with the config file's values as flags right after the subcommand.

    rest is argv without its --config options.  A flag given on the line
    comes later and wins; a key of another subcommand's flag is skipped.
    """
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise GnlError("config file must hold a JSON object")
    flags = build_parser().config_flags
    for key, value in config.items():
        if not any(key in keys for keys in flags.values()):
            raise GnlError(f"config key {key!r} is no optional flag of any subcommand")
        if type(value) not in (str, int, float):
            raise GnlError(f"config key {key!r} needs a string or a number")
    at = len(argv) - len(rest)  # the subcommand's index when --config precedes it
    if not rest or argv[at] != rest[0] or rest[0] not in flags:
        return argv
    keys = flags[rest[0]]
    tokens = [f"{keys[key]}={value}" for key, value in config.items() if key in keys]
    return argv[: at + 1] + tokens + argv[at + 1 :]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # allow_abbrev=False: no other token can reach --config
        if any(t == "--config" or t.startswith("--config=") for t in argv):
            config, rest = _config_parser().parse_known_args(argv)
            if config.config is not None:
                argv = _with_config(argv, rest, config.config)
        # argparse parses what the flag table leaves and writes every usage,
        # error and help text
        args = _parse(argv) or build_parser().parse_args(argv)
        return args.func(args)
    except (GnlError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
