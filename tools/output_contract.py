#!/usr/bin/env python3
"""Compare two checkouts' output on every command of the benchmark lists.

    python3 tools/output_contract.py --parent DIR --change DIR

For each workload of WORKLOADS and seed of SEEDS, the command list of ``bench/workloads.build``
is built once, by this checkout's bench/, into one work directory that both
sides read: the payload of ``check --gen @FILE`` echoes the file's path, so
inputs written twice, to two directories, would differ where the program
does not. Each checkout then runs ``gnl.cli.main`` over the list in a fresh
subprocess that imports gnl from that checkout's src/, one command after
another in list order and on one BLAS thread, as bench/run.py does, and
keeps the exit code, stdout and stderr of each.

Prints, per workload and seed, each command whose exit code, stdout or
stderr differ, with the first line that differs, and a count; exits 1 if
any command differs and 0 otherwise. Nothing under bench/ is written.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("exit code", "stdout", "stderr")
WORKLOADS = ("solve", "verify", "small")
SEEDS = (31, 32, 33)


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


def compare(parent, change, runs):
    """Print the differing commands of each (workload, seed) in runs; return
    the number of commands run and the number that differ."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    total = differing = 0
    with tempfile.TemporaryDirectory(prefix="gnl-contract-") as tmp:
        for workload, seed in runs:
            work = Path(tmp) / f"{workload}-{seed}"
            work.mkdir()
            argvs = [c.argv for c in workloads.build(workload, seed, str(work))]
            commands = work / "commands.json"
            commands.write_text(json.dumps(argvs))
            old_out = run_checkout(parent, commands, work / "parent.json")
            new_out = run_checkout(change, commands, work / "change.json")
            found = differences(argvs, old_out, new_out)
            for cmd, part, old, new in found:
                print(f"{workload} seed {seed}: {' '.join(cmd)}: {part} differs\n"
                      f"  parent: {old!r}\n  change: {new!r}")
            commands_differing = len({id(cmd) for cmd, *_ in found})
            print(f"{workload} seed {seed}: {commands_differing} of {len(argvs)} "
                  f"commands differ", flush=True)
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
    runs = [(workload, seed) for workload in WORKLOADS for seed in SEEDS]
    _, differing = compare(args.parent, args.change, runs)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
