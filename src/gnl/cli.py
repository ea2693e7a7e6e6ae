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
another subcommand takes is skipped.

``--format json`` output is exactly ``json.dumps(payload, indent=2)`` plus a
newline.  The stdlib writes every value but the two large tables of numbers,
the ``nullifiers`` generator stack and the ``oracle`` amplitude records; one
table writer, :func:`_table`, writes those from arrays to the same bytes.

Exit codes: 0 all requested checks pass, 1 a check ran and failed,
2 invalid input.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import fock, graphs, nullifiers, schwinger, states
from .errors import BadSpec, GnlError, IndexOutOfRange

TEXT_HEADER = "gnl-report v1"

# check thresholds: algebraic criterion, exponentiated symmetry, Fock oracle
CHECK_TOL_NULL = 1e-10
CHECK_TOL_SYM = 1e-9
CHECK_TOL_FOCK = 1e-8

# numbers per block of a table; bounds the writer's temporaries on large
# nullifier spaces and oracle tables
BLOCK = 16384
_NUMBER = "\0"  # stands for a number in a record skeleton
_MARK = json.dumps(_NUMBER)


# json.dumps(value, indent=2) with the encoder built once; payloads are trees,
# so json's cycle check (about 7 % of a small state payload's time) is off
_indented = json.JSONEncoder(indent=2, check_circular=False).encode


def _texts(array):
    """The JSON text of each number of an int64 or float64 array, flat, in order.

    Returns an object array.  Each distinct bit pattern is spelled once, by
    one ``json.dumps`` of the distinct values, so -0.0, NaN and Infinity keep
    json's spelling and no two floats merge; zero, most of a sparse
    generator, is set aside first.
    """
    bits = array.view(np.int64).reshape(-1)
    nonzero = np.flatnonzero(bits)
    distinct, which = np.unique(bits[nonzero], return_inverse=True)
    values = np.concatenate(([0], distinct)).view(array.dtype).tolist()
    texts = np.array(json.dumps(values)[1:-1].split(", "), dtype=object)
    index = np.zeros(len(bits), dtype=np.intp)
    index[nonzero] = which + 1
    return texts[index]


def _table(record, columns, level):
    """A list of records of one layout as JSON text at indent level, in chunks.

    record is one record with :data:`_NUMBER` in place of each number.
    columns are C-contiguous 2-D int64 or float64 arrays with one row per
    record; a record's numbers are its rows, column after column.  The text
    between two numbers comes from ``json.dumps`` of a one-record list,
    split at the markers, so json alone sets the layout; json ends a list
    item with "," before the next one.  Returns one chunk per block of about
    :data:`BLOCK` numbers.
    """
    count = len(columns[0])
    if not count:
        return ["[]"]
    text = _indented([record]).replace("\n", "\n" + "  " * level)
    first, *inner, last = text.split(_MARK)
    joint = last[:last.rindex("\n")] + "," + first[1:]  # from one record to the next
    each = [joint, *inner]  # the text before each number of a record
    rows = max(1, BLOCK // len(each))
    chunks = []
    for start in range(0, count, rows):
        block = [c[start:start + rows] for c in columns]
        pieces = np.empty((len(block[0]), 2 * len(each)), dtype=object)
        pieces[:, 0::2] = each
        pieces[:, 1::2] = np.concatenate([_texts(c).reshape(c.shape) for c in block], axis=1)
        if not start:
            pieces[0, 0] = first
        chunks.append("".join(pieces.reshape(-1).tolist()))
    chunks.append(last)
    return chunks


def _generator_table(generators, n):
    """``[graphs.matrix_to_json(m) for m in generators]`` as a table.

    generators are (n, n) complex matrices, as a list or a stack.
    """
    stack = np.array(generators, dtype=complex).reshape(-1, n * n)
    record = {"n": n, "entries": [[_NUMBER, _NUMBER]] * (n * n)}
    return functools.partial(_table, record, [stack.view(float)])


def _fock_payload(v):
    """:func:`fock.fock_to_json` of v with its amplitudes as a table."""
    occ, amps = fock.export_table(v)
    record = dict(zip(fock.AMP_KEYS, ([_NUMBER] * v.n_modes, _NUMBER, _NUMBER)))
    return {
        "n": int(v.n_modes),
        "cutoff": int(v.cutoff),
        "amps": functools.partial(_table, record, [occ, amps.view(float).reshape(-1, 2)]),
    }


def _json_dumps(payload):
    """``json.dumps(payload, indent=2) + "\n"``, byte for byte.

    A payload without a table is ``json.dumps`` itself.  A value of a
    top-level object may be a table: a callable that takes the indent level
    of that value, 1, and returns the table's text in chunks (see
    :func:`_table`).  Every other value is then ``json.dumps(value,
    indent=2)`` indented by one level, which is exact because JSON strings
    hold no raw newline.  The document is joined once.
    """
    if not isinstance(payload, dict) or not any(map(callable, payload.values())):
        return _indented(payload) + "\n"
    chunks = ["{"]
    for i, (key, value) in enumerate(payload.items()):
        chunks.append(("," if i else "") + "\n  " + json.dumps(key) + ": ")
        if callable(value):
            chunks += value(1)
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
        build or (lambda a: (states.bell_analogue(variant, a.alpha)[0], None)),
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
            "six-mode": lambda layout: states.six_mode_symmetry_decomposition(
                layout, 0.0
            )[0],
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
    rep = graphs.validate(k)
    labels = labels or [str(i) for i in range(k.shape[0])]
    return [
        TEXT_HEADER,
        f"state {name}",
        f"modes {k.shape[0]}",
        f"spectral norm {rep.spectral_norm:.12g}",
        f"symmetric defect {_fmt_res(rep.symmetric_defect)}",
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
    if args.format == "json":
        payload = {
            "state": args.state,
            "dimension": basis.dimension,
            "borderline": basis.borderline,
            "singular_values": basis.singular_values,
            "generators": _generator_table(basis.generators, k.shape[0]),
            "expressions": schwinger.display_expressions(basis.generators, labels),
        }
        _write(args, _json_dumps(payload))
        return 0
    lines = [TEXT_HEADER, f"state {args.state}", f"dimension {basis.dimension}"]
    if basis.borderline:
        lines.append("warning: borderline kernel spectrum, dimension uncertain")
    expressions = schwinger.display_expressions(basis.generators, labels)
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
    m = schwinger.expression_to_matrix(_generator(args.state, layout, args.gen))
    ok, residual = nullifiers.is_nullifier(m, k)
    if not ok:
        if args.format == "json":
            payload = {
                "state": args.state,
                "generator": args.gen,
                "is_nullifier": False,
                "residual": residual,
            }
            _write(args, _json_dumps(payload))
        else:
            _write(
                args,
                f"{TEXT_HEADER}\nNOT a nullifier; residual {_fmt_res(residual)}\n",
            )
        return 1
    grid = np.linspace(0.0, 2.0 * np.pi, args.theta_points)
    dev = nullifiers.verify_symmetry(k, m, grid)
    fres = fock.nullifier_residual(m, k, args.cutoff)
    passed = (
        residual <= CHECK_TOL_NULL
        and dev <= CHECK_TOL_SYM
        and fres <= CHECK_TOL_FOCK
    )
    if args.format == "json":
        payload = {
            "state": args.state,
            "generator": args.gen,
            "is_nullifier": True,
            "residual": residual,
            "symmetry_dev": dev,
            "fock_residual": fres,
            "pass": passed,
        }
        _write(args, _json_dumps(payload))
    else:
        _write(
            args,
            f"{TEXT_HEADER}\n"
            f"NULLIFIER residual {_fmt_res(residual)}; "
            f"symmetry dev {_fmt_res(dev)}; "
            f"fock residual {_fmt_res(fres)}\n",
        )
    return 0 if passed else 1


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
    occ, amps = fock.export_table(v)
    lines = [
        TEXT_HEADER,
        f"state {args.state}",
        f"modes {v.n_modes} cutoff {v.cutoff}",
        f"kept amplitudes {len(amps)}",
    ]
    # rows come sorted by sector; the largest |amp| of each
    totals = occ.sum(axis=1)
    starts = np.flatnonzero(np.diff(totals, prepend=-1))
    peaks = np.maximum.reduceat(np.hypot(amps.real, amps.imag), starts)
    for tot, peak in zip(totals[starts].tolist(), peaks.tolist()):
        lines.append(f"sector {tot}: max |amp| {_fmt_res(peak)}")
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


@functools.cache
def _config_parser():
    # no abbreviations: "--c" must stay free for a subcommand's --cutoff
    parser = argparse.ArgumentParser(prog="gnl", add_help=False, allow_abbrev=False)
    parser.add_argument("--config", help="JSON file with default flag values")
    return parser


@functools.cache
def build_parser():
    """The argparse tree, built once; parse_args leaves it untouched.

    Its ``config_flags`` attribute maps each subcommand to the config keys it
    takes: the dest of every optional flag with one value, mapped to the flag.
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

    parser.config_flags = {
        name: {
            a.dest: a.option_strings[0]
            for a in p._actions
            if a.option_strings and a.nargs is None and not a.required
        }
        for name, p in sub.choices.items()
    }
    return parser


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
        config, rest = _config_parser().parse_known_args(argv)
        if config.config is not None:
            argv = _with_config(argv, rest, config.config)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (GnlError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
