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
JSON file) and ``wire`` (with ``--spins``).  Output is deterministic
byte-for-byte for a fixed command line; there are no environment knobs, only
flags and an optional ``--config`` JSON file whose keys are flag names
(explicit flags win).

Exit codes: 0 all requested checks pass, 1 a check ran and failed,
2 invalid input.
"""

import argparse
import json
import sys

import numpy as np

from . import fock, graphs, nullifiers, schwinger, states
from .errors import GnlError, IndexOutOfRange

TEXT_HEADER = "gnl-report v1"

STATE_NAMES = (
    "tms",
    "tms-pair",
    "bell:phi+",
    "bell:phi-",
    "bell:psi+",
    "bell:psi-",
    "hgraph",
    "wire",
)

# check thresholds: algebraic criterion, exponentiated symmetry, Fock oracle
CHECK_TOL_NULL = 1e-10
CHECK_TOL_SYM = 1e-9
CHECK_TOL_FOCK = 1e-8


def _json_dumps(obj):
    return json.dumps(obj, indent=2) + "\n"


def _fmt_res(x):
    # 3 significant digits, scientific
    return f"{x:.2e}"


class _BuiltState:
    def __init__(self, name, k, labels=None, layout=None):
        self.name = name
        self.k = k
        self.labels = labels
        self.layout = layout


def _build_state(args):
    name = args.state
    if name not in STATE_NAMES:
        raise GnlError(
            f"unknown state {name!r}; choose from {', '.join(STATE_NAMES)}"
        )
    if name == "hgraph":
        if not args.g:
            raise GnlError("hgraph needs --g pointing at a matrix JSON file")
        with open(args.g) as fh:
            g = graphs.matrix_from_json(fh.read())
        return _BuiltState(name, graphs.hgraph_k(g, args.alpha))
    if name == "wire":
        if args.spins is None:
            raise GnlError("wire needs --spins")
        layout = states.WireLayout(args.spins, args.alpha)
        return _BuiltState(
            name, states.dual_rail_wire(layout), layout.labels(), layout
        )
    if name == "tms":
        return _BuiltState(name, graphs.tms_k(args.alpha))
    if name == "tms-pair":
        return _BuiltState(name, states.tms_pair(args.alpha))
    variant = name.split(":", 1)[1]
    k, _ = states.bell_analogue(variant, args.alpha)
    return _BuiltState(name, k)


def _named_generator(built, spec):
    """Resolve a --gen spec to a SchwingerExpression for the given state."""
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            return schwinger.expression_from_json(fh.read())
    name = built.name
    if name == "tms" and spec in ("0", "x", "y", "z"):
        return schwinger.SchwingerExpression(
            2, [schwinger.SchwingerTerm(spec, (0, 1), 1.0)]
        )
    if name in ("tms-pair", "bell:phi+", "bell:phi-", "bell:psi+", "bell:psi-"):
        if spec in ("0", "x", "y", "z"):
            variant = "phi+" if name == "tms-pair" else name.split(":", 1)[1]
            _, exprs = states.bell_analogue(variant, 1.0)
            return exprs[("x", "y", "z", "0").index(spec)]
    if name == "wire" and built.layout is not None:
        layout = built.layout
        if spec.startswith("local:"):
            i = int(spec.split(":", 1)[1])
            if not 0 <= i < layout.n_spins:
                raise IndexOutOfRange(
                    f"local:{i} needs a spin index in 0..{layout.n_spins - 1}"
                )
            return states.wire_local_nullifiers(layout)[i]
        if spec == "global-x":
            return states.wire_global_x(layout)
        if spec == "global-z":
            return states.wire_global_z(layout)
        if spec.startswith("chain:"):
            _, a, b = spec.split(":")
            return states.wire_chain_nullifier(layout, int(a), int(b))
        if spec == "six-mode":
            expr, _ = states.six_mode_symmetry_decomposition(layout, 0.0)
            return expr
        if spec == "y-local":
            return states.wire_y_symmetry(layout)
    raise GnlError(f"generator spec {spec!r} not recognized for state {name}")


def _write(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _display_expression(gen, labels):
    """Pretty expression, rescaled so the largest coefficient is 1.0.

    Coefficients twelve orders below the largest are rounding dust from the
    kernel solve and are dropped from the printout (the JSON generators stay
    exact).
    """
    expr = schwinger.matrix_to_expression(gen)
    if expr.terms:
        scale = max(abs(t.coeff) for t in expr.terms)
        expr = schwinger.SchwingerExpression(
            expr.n,
            [
                schwinger.SchwingerTerm(t.axis, t.pair, t.coeff / scale)
                for t in expr.terms
                if abs(t.coeff) >= 1e-12 * scale
            ],
        )
    return schwinger.format_expression(expr, labels)


def _state_text_lines(built):
    rep = graphs.validate(built.k)
    lines = [
        TEXT_HEADER,
        f"state {built.name}",
        f"modes {built.k.shape[0]}",
        f"spectral norm {rep.spectral_norm:.12g}",
        f"symmetric defect {_fmt_res(rep.symmetric_defect)}",
    ]
    labels = built.labels or [str(i) for i in range(built.k.shape[0])]
    n = built.k.shape[0]
    for i in range(n):
        for j in range(i, n):
            v = built.k[i, j]
            if abs(v) < graphs.DOT_EDGE_CUTOFF:
                continue
            lines.append(
                f"edge {labels[i]} {labels[j]} {graphs.format_weight(v)}"
            )
    return lines


def cmd_state(args):
    built = _build_state(args)
    if args.format == "json":
        _write(args, _json_dumps(graphs.matrix_to_json(built.k)))
    elif args.format == "dot":
        _write(args, graphs.to_dot(built.k, built.labels))
    else:
        _write(args, "\n".join(_state_text_lines(built)) + "\n")
    return 0


def cmd_nullifiers(args):
    built = _build_state(args)
    basis = nullifiers.nullifier_space(built.k)
    if args.format == "json":
        payload = {
            "state": built.name,
            "dimension": basis.dimension,
            "borderline": basis.borderline,
            "singular_values": basis.singular_values,
            "generators": [graphs.matrix_to_json(g) for g in basis.generators],
            "expressions": [
                _display_expression(g, built.labels) for g in basis.generators
            ],
        }
        _write(args, _json_dumps(payload))
        return 0
    lines = [TEXT_HEADER, f"state {built.name}", f"dimension {basis.dimension}"]
    if basis.borderline:
        lines.append("warning: borderline kernel spectrum, dimension uncertain")
    for idx, g in enumerate(basis.generators):
        lines.append(f"g{idx}: {_display_expression(g, built.labels)}")
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
    built = _build_state(args)
    expr = _named_generator(built, args.gen)
    m = schwinger.expression_to_matrix(expr)
    ok, residual = nullifiers.is_nullifier(m, built.k)
    if not ok:
        if args.format == "json":
            payload = {
                "state": built.name,
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
    dev = nullifiers.verify_symmetry(built.k, m, grid)
    fres = fock.nullifier_residual(m, built.k, args.cutoff)
    passed = (
        residual <= CHECK_TOL_NULL
        and dev <= CHECK_TOL_SYM
        and fres <= CHECK_TOL_FOCK
    )
    if args.format == "json":
        payload = {
            "state": built.name,
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
    built = _build_state(args)
    v = fock.state_from_k(built.k, args.cutoff)
    if args.format == "json":
        _write(args, _json_dumps(fock.fock_to_json(v)))
        return 0
    lines = [
        TEXT_HEADER,
        f"state {built.name}",
        f"modes {v.n_modes} cutoff {v.cutoff}",
        f"kept amplitudes {len(v.amplitudes)}",
    ]
    by_sector = {}
    for occ, c in v.amplitudes.items():
        tot = sum(occ)
        by_sector[tot] = max(by_sector.get(tot, 0.0), abs(c))
    for tot in sorted(by_sector):
        lines.append(f"sector {tot}: max |amp| {_fmt_res(by_sector[tot])}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def _add_state_arguments(sub, config):
    sub.add_argument("state", help="state name, e.g. tms, wire, bell:phi+")
    sub.add_argument(
        "--alpha", type=float, default=config.get("alpha", 0.5),
        help="squeezing parameter (default 0.5)",
    )
    sub.add_argument(
        "--spins", type=int, default=config.get("spins"),
        help="spin count for wire states",
    )
    sub.add_argument("--g", default=config.get("g"), help="matrix JSON file for hgraph")


def _add_output_arguments(sub, config, formats=("json", "dot", "text"), default="text"):
    sub.add_argument(
        "--format", choices=formats, default=config.get("format", default),
    )
    sub.add_argument("--out", default=config.get("out"), help="output path (default stdout)")


def _load_config(argv):
    if "--config" in argv:
        path = argv[argv.index("--config") + 1]
        with open(path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise GnlError("config file must hold a JSON object")
        return cfg
    return {}


def build_parser(config):
    parser = argparse.ArgumentParser(
        prog="gnl",
        description="Gaussian-state graph calculus and Schwinger nullifiers",
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="build a state and print its matrix")
    _add_state_arguments(p, config)
    _add_output_arguments(p, config, default="json")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("nullifiers", help="derive the full nullifier basis")
    _add_state_arguments(p, config)
    _add_output_arguments(p, config, formats=("json", "text"))
    p.set_defaults(func=cmd_nullifiers)

    p = sub.add_parser("check", help="check one generator against a state")
    _add_state_arguments(p, config)
    p.add_argument(
        "--gen", required=True,
        help="generator: 0/x/y/z, local:I, global-x, global-z, chain:I:J, "
        "six-mode, y-local, or @expression.json",
    )
    p.add_argument(
        "--cutoff", type=int, default=config.get("cutoff", 8),
        help="Fock cutoff for the oracle residual (default 8)",
    )
    p.add_argument(
        "--theta-points", type=int, default=config.get("theta_points", 16),
        help="symmetry grid size over [0, 2pi], at least 2 (default 16)",
    )
    _add_output_arguments(p, config, formats=("json", "text"))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("twomode", help="solve the two-mode invariance class")
    p.add_argument(
        "--coeffs", type=float, nargs=4, required=True,
        metavar=("A", "B", "C", "D"),
        help="coefficients of (S^0, S^x, S^y, S^z)",
    )
    _add_output_arguments(p, config, formats=("json", "text"))
    p.set_defaults(func=cmd_twomode)

    p = sub.add_parser("oracle", help="truncated Fock expansion of a state")
    _add_state_arguments(p, config)
    p.add_argument(
        "--cutoff", type=int, default=config.get("cutoff", 8),
        help="max total photon number, even (default 8)",
    )
    _add_output_arguments(p, config, formats=("json", "text"), default="json")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export", help="write the state graph as DOT")
    _add_state_arguments(p, config)
    p.add_argument("--out", default=config.get("out"), help="output path (default stdout)")
    p.set_defaults(func=cmd_state, format="dot")

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _load_config(argv)
        parser = build_parser(config)
        args = parser.parse_args(argv)
        return args.func(args)
    except GnlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
