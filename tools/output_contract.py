#!/usr/bin/env python3
"""Compare two checkouts' output on the benchmark's commands and on parser lines.

    python3 tools/output_contract.py --parent DIR --change DIR

For each workload of WORKLOADS and seed of SEEDS, the command list of ``bench/workloads.build``
is built once, by this checkout's bench/, into one work directory that both
sides read: the payload of ``check --gen @FILE`` echoes the file's path, so
inputs written twice, to two directories, would differ where the program
does not. The benchmark's lists hold no help, usage error or abbreviated
flag, so one more list, PARSER_LINES, holds such lines; its ``--config``
run reads one file written to its work directory. Nor do they hold a
matrix whose JSON tables take the number table writer's edge cases, nor
a text report of coefficients below 1e-4, so EDGE_LINES runs ``state``,
``nullifiers`` and ``oracle`` with ``--format json`` on four hgraph files
written to its work directory: a G with -0.0, subnormal and repeated
entries, a zero G, a 1-mode G, whose nullifier space is empty, and a
dense 8-mode reflection, whose ``nullifiers --format text`` report is one
more line. Each checkout then runs
``gnl.cli.main`` over each list in a fresh subprocess that imports gnl from
that checkout's src/, one command after another in list order, on one BLAS
thread as bench/run.py does, and with COLUMNS pinned, so argparse wraps its
help and usage alike on both sides; it keeps the exit code, stdout and
stderr of each.

Prints, per workload and seed and for the parser and edge lines, each
command whose exit code, stdout or stderr differ, with the first line that
differs and the kind of the difference (see ``classify``), and a count;
exits 1 if any command differs and 0 otherwise. Nothing under bench/ is
written.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("exit code", "stdout", "stderr")
WORKLOADS = ("solve", "verify", "small")
SEEDS = (31, 32, 33)
# the run of compare() that stands for PARSER_LINES
PARSER_RUN = ("parser lines", None)
# lines that argparse parses, refuses or answers with help; "{config}" is
# the path of a config file that sets alpha 0.9 and the text format
PARSER_LINES = (
    ["-h"],
    ["check", "-h"],
    ["check", "tms", "--gen", "z", "--cut", "4", "--theta", "3"],
    ["state", "tms", "--alpha", "-1e-3"],
    ["state", "tms", "--alpha=-.5"],
    ["nope"],
    ["check", "tms"],
    ["twomode", "--coeffs", "1", "2"],
    ["twomode", "--coeffs", "1", "-1e-3", "0", "0"],
    ["state", "tms", "--format", "xml"],
    ["oracle", "tms", "--cutoff", "x"],
    ["state", "tms", "--config"],
    ["--config", "{config}", "state", "tms"],
)
# the run of compare() that stands for EDGE_LINES
EDGE_RUN = ("writer edge lines", None)


def reflection(v):
    """The dense involution I - 2 u u^T of u = v / |v|, as nested lists."""
    norm2 = sum(x * x for x in v)
    return [[float(i == j) - 2.0 * a * b / norm2 for j, b in enumerate(v)] for i, a in enumerate(v)]


# the G files of EDGE_LINES: -0.0, the smallest subnormal and a repeated
# 0.5 among the entries; all zero; one mode; and a reflection whose 28
# nullifiers have coefficients from 1 down to 1e-12, most of them below
# 1e-4, which the text report spells in the exponent form
EDGE_GRAPHS = {
    "edge": [[-0.0, 0.5, 5e-324], [0.5, 0.5, -0.0], [5e-324, -0.0, 0.5]],
    "zero": [[0.0, 0.0], [0.0, 0.0]],
    "one": [[0.4]],
    "reflection": reflection([1.0, 3e-3, 2e-5, 0.5, 0.25, 7e-4, 1e-6, 0.1]),
}
EDGE_LINES = tuple(
    [command, "hgraph", "--g", "{%s}" % name, "--format", "json", *extra]
    for name in EDGE_GRAPHS
    for command, extra in (("state", []), ("nullifiers", []), ("oracle", ["--cutoff", "4"]))
) + (["nullifiers", "hgraph", "--g", "{reflection}", "--format", "text"],)


def invoke(main, argv):
    """[exit code, stdout, stderr] of one command, as bench/run.py captures it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code
        except Exception as exc:  # a crash is an output like any other
            code = f"crash: {type(exc).__name__}: {exc}"
    return [code, out.getvalue(), err.getvalue()]


def run_worker(src, commands, results):
    """Run the argv lists in file commands with the gnl of src; write results."""
    sys.path.insert(0, str(src))
    import gnl.cli

    if Path(gnl.cli.__file__).resolve().parent != Path(src).resolve() / "gnl":
        raise SystemExit(f"error: gnl imported from {gnl.cli.__file__}, not {src}")
    argvs = json.loads(Path(commands).read_text())
    Path(results).write_text(json.dumps([invoke(gnl.cli.main, argv) for argv in argvs]))


def run_checkout(checkout, commands, results):
    """The outputs of one checkout on the argv lists in file commands."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal
    subprocess.run(
        [sys.executable, __file__, "--worker", str(Path(checkout) / "src"),
         str(commands), str(results)],
        env=env, check=True,
    )
    return json.loads(Path(results).read_text())


def differences(argvs, parent, change):
    """(argv, part, parent line, change line) for each output part that differs.

    The lines are the first differing line of stdout or stderr (the whole
    texts when they differ only in line endings), or the two exit codes.
    """
    found = []
    for argv, old, new in zip(argvs, parent, change):
        for part, a, b in zip(PARTS, old, new):
            if a == b:
                continue
            if isinstance(a, str) and isinstance(b, str):
                pairs = zip(a.splitlines() + [""], b.splitlines() + [""])
                a, b = next(((x, y) for x, y in pairs if x != y), (a, b))
            found.append((argv, part, a, b))
    return found


# a number in report text: not part of a word such as "v1" or "g0"
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|-?inf)(?![\w.])")


def _json_change(a, b, floats):
    """The kind of structural change from JSON value a to b, or None.

    Appends each pair of floats (a's, b's) to floats.  Key lists,
    lengths, booleans (verdicts), integers (counts and occupations) and
    strings must be equal.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return "keys"
        return next(filter(None, (_json_change(a[key], b[key], floats) for key in a)), None)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return "counts"
        return next(filter(None, (_json_change(x, y, floats) for x, y in zip(a, b))), None)
    if type(a) is not type(b):
        return "value types"
    if isinstance(a, float):
        floats.append((a, b))
        return None
    if a == b:
        return None
    return {bool: "verdicts", int: "counts"}.get(type(a), "non-numeric text")


def _text_change(a, b, floats):
    """The kind of structural change from report text a to b, or None.

    The text between numbers must be equal, and so must every integer;
    each pair of other numbers is appended to floats.
    """
    a, b = NUMBER.split(a), NUMBER.split(b)
    if len(a) != len(b) or a[::2] != b[::2]:
        return "non-numeric text"
    for x, y in zip(a[1::2], b[1::2]):
        if x.lstrip("+-").isdigit() and y.lstrip("+-").isdigit():
            if x != y:
                return "counts"
        else:
            floats.append((float(x), float(y)))
    return None


def classify(old, new):
    """The kind of the difference between two outputs [exit code, stdout, stderr].

    "structural: ..." when the exit code, stderr, the keys, verdicts or
    counts of a JSON payload, or the text between the numbers of a report
    changed; else "numbers only", with the largest change of a number and
    that change relative to the largest finite |value| among the parent's
    non-integer numbers.  A number that turns NaN or infinite is an
    infinite change.
    """
    if old[0] != new[0]:
        return "structural: exit code"
    if old[2] != new[2]:
        return "structural: stderr"
    floats = []
    try:
        payloads = json.loads(old[1]), json.loads(new[1])
    except ValueError:
        kind = _text_change(old[1], new[1], floats)
    else:
        kind = _json_change(*payloads, floats)
    if kind:
        return f"structural: {kind}"
    changes = [abs(x - y) if math.isfinite(x - y) else math.inf
               for x, y in floats if repr(x) != repr(y)]
    largest = max(changes, default=0.0)
    scale = max((abs(x) for x, _ in floats if math.isfinite(x)), default=0.0)
    relative = largest / scale if scale else (math.inf if largest else 0.0)
    return (f"numbers only: largest change {largest:.2e}, {relative:.2e} of the "
            f"payload's max |value| {scale:.2e}")


def parser_lines(work):
    """PARSER_LINES, with the config file they read written into work."""
    config = Path(work) / "config.json"
    config.write_text(json.dumps({"alpha": 0.9, "format": "text"}))
    return [[token.format(config=config) for token in line] for line in PARSER_LINES]


def edge_lines(work):
    """EDGE_LINES, with the G files they read written into work."""
    paths = {}
    for name, g in EDGE_GRAPHS.items():
        paths[name] = Path(work) / f"{name}.json"
        entries = [[x, 0.0] for row in g for x in row]
        paths[name].write_text(json.dumps({"n": len(g), "entries": entries}))
    return [[token.format(**paths) for token in line] for line in EDGE_LINES]


# the fixed lists of commands and what writes their files
FIXED_RUNS = {PARSER_RUN: parser_lines, EDGE_RUN: edge_lines}


def compare(parent, change, runs):
    """Print the differing commands of each (workload, seed) in runs, or of
    PARSER_LINES for PARSER_RUN and of EDGE_LINES for EDGE_RUN; return the
    number of commands run and the number that differ."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    total = differing = 0
    with tempfile.TemporaryDirectory(prefix="gnl-contract-") as tmp:
        for workload, seed in runs:
            work = Path(tmp) / f"{workload}-{seed}"
            work.mkdir()
            if (workload, seed) in FIXED_RUNS:
                label, argvs = workload, FIXED_RUNS[workload, seed](work)
            else:
                label = f"{workload} seed {seed}"
                argvs = [c.argv for c in workloads.build(workload, seed, str(work))]
            commands = work / "commands.json"
            commands.write_text(json.dumps(argvs))
            old_out = run_checkout(parent, commands, work / "parent.json")
            new_out = run_checkout(change, commands, work / "change.json")
            structural = commands_differing = 0
            for argv, old, new in zip(argvs, old_out, new_out):
                if old == new:
                    continue
                for cmd, part, a, b in differences([argv], [old], [new]):
                    print(f"{label}: {' '.join(cmd)}: {part} differs\n"
                          f"  parent: {a!r}\n  change: {b!r}")
                kind = classify(old, new)
                print(f"  {kind}")
                commands_differing += 1
                structural += kind.startswith("structural")
            print(f"{label}: {commands_differing} of {len(argvs)} "
                  f"commands differ ({structural} structural)", flush=True)
            total += len(argvs)
            differing += commands_differing
    print(f"all: {differing} of {total} commands differ")
    return total, differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        run_worker(*args.worker)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    runs = [(workload, seed) for workload in WORKLOADS for seed in SEEDS] + list(FIXED_RUNS)
    _, differing = compare(args.parent, args.change, runs)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
