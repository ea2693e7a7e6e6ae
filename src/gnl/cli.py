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

Exit codes: 0 all requested checks pass, 1 a check ran and failed,
2 invalid input.
"""

import argparse
import functools
import itertools
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

_ESCAPE = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _json_scalar(o):
    """json's spelling of None, a bool, an int or a float; None for any other type."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    return None


# matrices written per block by _matrix_list, which bounds its per-value
# temporaries on large nullifier spaces
MATRIX_BLOCK = 64
_SCALAR = ("", "")  # the texts around a lone leaf: nothing before, nothing after


@functools.cache
def _layout(level):
    """Separators of a JSON container at this indent level (indent=2).

    The text before its first item, between two items and before its
    closing bracket.
    """
    indent = "\n" + "  " * (level + 1)
    return indent, "," + indent, "\n" + "  " * level


def _list_seps(count, item, level):
    """The texts around the leaves of a list of count (>= 1) equal items.

    item holds the texts around the leaves of one item, written at level + 1:
    one before each leaf and one after the last (:data:`_SCALAR` for a
    number).  Returns the same for the list at level, by list repetition.
    """
    first, comma, close = _layout(level)
    body = list(item[1:-1])
    return (
        ["[" + first + item[0]]
        + (body + [item[-1] + comma + item[0]]) * (count - 1)
        + body
        + [item[-1] + close + "]"]
    )


@functools.lru_cache(maxsize=64)
def _table_template(rows, width, level):
    """``%r`` template of a list of rows lists of width floats at level."""
    return "%r".join(_list_seps(rows, _list_seps(width, _SCALAR, level + 1), level))


def _float_texts(values):
    """The JSON text of each float of an array, in order, as a list.

    Each distinct bit pattern is spelled once, so -0.0 stays -0.0 and no two
    floats merge; 0.0, most of a sparse generator, is set aside first.
    """
    bits = values.view(np.uint64).reshape(-1)
    nonzero = np.flatnonzero(bits)
    distinct, which = np.unique(bits[nonzero], return_inverse=True)
    texts = np.array(["0.0", *map(_json_scalar, distinct.view(float).tolist())], dtype=object)
    index = np.zeros(len(bits), dtype=np.intp)
    index[nonzero] = which + 1
    return texts[index].tolist()


def _matrix_list(matrices, level):
    """``[graphs.matrix_to_json(m) for m in matrices]`` as JSON text at level.

    Returns the text in chunks, one per block of MATRIX_BLOCK matrices: one
    join of the texts of :func:`_float_texts` with the separators of
    :func:`_list_seps`.
    """
    if not len(matrices):
        return ["[]"]
    n = matrices[0].shape[0]
    first, comma, close = _layout(level + 1)
    entries = _list_seps(n * n, _list_seps(2, _SCALAR, level + 3), level + 2)
    head = "{" + first + f'"n": {n}' + comma + '"entries": '
    item = [head + entries[0], *entries[1:-1], entries[-1] + close + "}"]
    joint = item[-1] + _layout(level)[1] + item[0]
    chunks = []
    for start in range(0, len(matrices), MATRIX_BLOCK):
        block = np.array(matrices[start:start + MATRIX_BLOCK], dtype=complex)
        seps = _list_seps(len(block), item, level)
        pieces = [None] * (2 * len(seps) - 2)
        pieces[0::2] = seps[:-1]
        pieces[0] = joint if start else seps[0]  # joint closes the previous block
        pieces[1::2] = _float_texts(block)
        chunks.append("".join(pieces))
    chunks.append(seps[-1])
    return chunks


@functools.lru_cache(maxsize=64)
def _amplitude_template(n, level):
    """``%`` template of one amplitude record of n modes at level.

    ``%d`` for each occupation and ``%r`` for re and im, under the keys
    :data:`fock.AMP_KEYS`.
    """
    first, comma, close = _layout(level)
    occ = "%d".join(_list_seps(n, _SCALAR, level + 1))
    fields = [f"{_ESCAPE(key)}: {text}" for key, text in zip(fock.AMP_KEYS, (occ, "%r", "%r"))]
    return "{" + first + comma.join(fields) + close + "}"


def _amplitude_list(v, level):
    """``fock.fock_to_json(v)["amps"]`` as JSON text at level, as chunks.

    One pass of a ``%`` template over the rows of :func:`fock.export_table`:
    the record template of :func:`_amplitude_template` once per amplitude,
    joined by the separators of :func:`_list_seps`.  ``%r`` would spell NaN
    and Infinity as Python does, so a table with a non-finite part goes
    through the generic encoder instead.
    """
    occ, amps = fock.export_table(v)
    if not len(amps):
        return ["[]"]
    if not np.isfinite(amps).all():
        return _json_chunks(fock.fock_to_json(v)["amps"], level)
    count, n = occ.shape
    values = [None] * (count * (n + 2))
    for j, column in enumerate(occ.T.tolist()):
        values[j::n + 2] = column
    values[n::n + 2] = amps.real.tolist()
    values[n + 1::n + 2] = amps.imag.tolist()
    template = _amplitude_template(n, level + 1).join(_list_seps(count, _SCALAR, level))
    return [template % tuple(values)]


def _fock_payload(v):
    """:func:`fock.fock_to_json` of v with its amplitudes pre-rendered."""
    return {
        "n": int(v.n_modes),
        "cutoff": int(v.cutoff),
        "amps": functools.partial(_amplitude_list, v),
    }


def _json_dumps(obj):
    """``json.dumps(obj, indent=2) + "\n"``, byte for byte, for any JSON value.

    json's indented layout runs its pure-Python encoder; this writer keeps
    the same layout and spelling (NaN, Infinity, ASCII string escapes) with
    its separators from :func:`_layout`.  A list of equal-length lists of
    finite floats, such as the entries of :func:`graphs.matrix_to_json`, goes
    through one ``%r`` template over the flattened values, built once per
    shape and depth.  A callable value is pre-rendered: called with the
    current indent level, it returns the value's text as a list of chunks,
    written as they are (the generator stack of ``nullifiers``, see
    :func:`_matrix_list`, and the amplitudes of ``oracle``, see
    :func:`_amplitude_list`).
    """
    chunks = _json_chunks(obj, 0)
    chunks.append("\n")
    return "".join(chunks)


def _json_chunks(obj, level):
    """The text of obj at indent level, as :func:`_json_dumps` writes it, in chunks."""
    chunks = []
    append = chunks.append

    def float_table(rows, level):
        if type(rows) is not list or set(map(type, rows)) != {list}:
            return False
        widths = set(map(len, rows))
        if len(widths) != 1 or 0 in widths:
            return False
        flat = list(itertools.chain.from_iterable(rows))
        if set(map(type, flat)) != {float}:
            return False
        total = sum(flat)
        if total - total != 0.0:  # a NaN or an infinity (or an overflowing sum)
            return False
        append(_table_template(len(rows), len(rows[0]), level) % tuple(flat))
        return True

    def key_text(key):
        text = key if isinstance(key, str) else _json_scalar(key)
        if text is None:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        return _ESCAPE(text)

    def encode(o, level):
        scalar = _json_scalar(o)
        if scalar is not None:
            append(scalar)
        elif isinstance(o, str):
            append(_ESCAPE(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
            elif not float_table(o, level):
                first, comma, close = _layout(level)
                append("[")
                for i, item in enumerate(o):
                    append(comma if i else first)
                    encode(item, level + 1)
                append(close + "]")
        elif isinstance(o, dict):
            if not o:
                append("{}")
            else:
                first, comma, close = _layout(level)
                append("{")
                for i, (key, value) in enumerate(o.items()):
                    append((comma if i else first) + key_text(key) + ": ")
                    encode(value, level + 1)
                append(close + "}")
        elif callable(o):
            chunks.extend(o(level))
        else:
            raise TypeError(
                f"Object of type {o.__class__.__name__} is not JSON serializable"
            )

    encode(obj, level)
    return chunks


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
            "generators": functools.partial(_matrix_list, basis.generators),
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
    except (GnlError, OSError, json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
