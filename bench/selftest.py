#!/usr/bin/env python3
"""Self-test of the benchmark: the checker must accept real outputs and
flag corrupted ones, so that a check cannot pass vacuously.

    python3 bench/selftest.py

Each case runs one real command, confirms the checker accepts its output,
then corrupts the result (one generator entry perturbed, a wrong dimension,
a wrong exit code, a truncated output, ...) and confirms the checker
rejects every corruption. It also confirms that the metric names and units
in run.py match BENCHMARK.json, that the reference K of wires and Bell
states (built in workloads.py, not by the program) has the known Takagi
dimension and label layout and agrees with the program at this commit, and
that a crash counts as a failed command. Exits 1 if anything is missed.
"""

import json
import shutil
import sys
import tempfile

import numpy as np

import run

gnl = run._import_gnl()

import check  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402


def _json_edit(fn):
    def corrupt(code, out, err):
        payload = json.loads(out)
        fn(payload)
        return code, json.dumps(payload, indent=2) + "\n", err

    return corrupt


def _perturb_generator(payload):
    payload["generators"][1]["entries"][3][0] += 1e-3


def _bump_dimension(payload):
    payload["dimension"] += 1


def _perturb_amplitude(payload):
    payload["amps"][-1]["re"] += 1e-6


def _drop_amplitude(payload):
    payload["amps"].pop()


def _perturb_k(payload):
    payload["entries"][1][0] += 1e-6


def _flip_edge(payload):
    entry = next(e for e in payload["entries"] if e != [0.0, 0.0])
    entry[0] = -entry[0]


def _truncate(code, out, err):
    return code, out[: len(out) // 2], err


def _exit(new):
    return lambda code, out, err: (new, out, err)


def _perturb_text_term(code, out, err):
    """Scale the last term of the longest printed generator by 1.5."""
    lines = out.split("\n")
    i = max(range(len(lines)), key=lambda j: lines[j].count("·") if lines[j][:1] == "g" else 0)
    head, sep, last = lines[i].rpartition(" ")
    coeff, dot, rest = last.partition("·")
    lines[i] = f"{head}{sep}{float(coeff) * 1.5!r}{dot}{rest}"
    return code, "\n".join(lines), err


def _text_edit(old, new):
    return lambda code, out, err: (code, out.replace(old, new, 1), err)


def cases(inp):
    """(name, command, corruptions) triples."""
    wire, k, labels = inp.wire(3)
    dense, kd, _ = inp.hgraph("dense", 4)
    tms, kt, _ = inp.named("tms")
    yield ("nullifiers json", Command(["nullifiers"] + wire + ["--format", "json"],
                                      "nullifiers", "", "json", 0, k, labels),
           {"perturbed generator entry": _json_edit(_perturb_generator),
            "wrong dimension": _json_edit(_bump_dimension),
            "wrong exit code": _exit(1),
            "truncated output": _truncate})
    yield ("nullifiers text", Command(["nullifiers"] + wire, "nullifiers", "", "text",
                                      0, k, labels),
           {"perturbed generator term": _perturb_text_term,
            "wrong dimension": _text_edit("dimension 15", "dimension 14"),
            "truncated output": _truncate})
    yield ("check json", Command(["check"] + wire + ["--gen", "global-x", "--format", "json"],
                                 "check", "", "json", 0, k, labels),
           {"wrong exit code": _exit(1), "truncated output": _truncate})
    yield ("check text non-nullifier", Command(["check"] + tms + ["--gen", "x"],
                                               "check", "", "text", 1, kt),
           {"wrong exit code": _exit(0),
            "wrong verdict": _text_edit("NOT a nullifier", "NULLIFIER")})
    yield ("oracle json", Command(["oracle"] + dense + ["--cutoff", "6"], "oracle", "",
                                  "json", 0, kd, extra=6),
           {"perturbed amplitude": _json_edit(_perturb_amplitude),
            "wrong amplitude count": _json_edit(_drop_amplitude),
            "truncated output": _truncate})
    yield ("state json", Command(["state"] + dense, "state", "", "json", 0, kd),
           {"perturbed K entry": _json_edit(_perturb_k), "truncated output": _truncate})
    yield ("wire state json", Command(["state"] + wire + ["--format", "json"], "state", "",
                                      "json", 0, k, labels),
           {"flipped edge sign": _json_edit(_flip_edge)})
    yield ("twomode json", Command(["twomode", "--coeffs", "0", "1", "0", "0", "--format",
                                    "json"], "twomode", "", "json", 0,
                                   extra=[0.0, 1.0, 0.0, 0.0]),
           {"wrong dimension": _json_edit(_bump_dimension)})
    yield ("invalid input", Command(["state", "nope"], "invalid", "", code=2),
           {"wrong exit code": _exit(0)})


def _references_hold():
    """The bench's own reference K against known facts and, at this commit,
    against the program's states."""
    from gnl import states

    ok = True
    for spins in range(3, 17):
        k = workloads.wire_k(spins, 0.7)
        n = 2 * spins
        labels = workloads.wire_labels(spins)
        layout = states.WireLayout(spins, 0.7)
        facts = {
            f"wire {spins}: Takagi dimension n(n-1)/2":
                check.takagi_dimension(k) == n * (n - 1) // 2,
            f"wire {spins}: labels 0a 0b 1a ...":
                labels[:4] == ["0a", "0b", "1a", "1b"] and len(labels) == n,
            f"wire {spins}: K equals the program's":
                np.allclose(k, states.dual_rail_wire(layout), atol=1e-12),
        }
        for what, holds in facts.items():
            if not holds:
                print(f"MISMATCH reference {what}")
                ok = False
    for variant in workloads.BELL_EDGES:
        if not np.allclose(workloads.bell_k(variant, 0.7),
                           states.bell_analogue(variant, 0.7)[0], atol=1e-12):
            print(f"MISMATCH reference bell:{variant}: K differs from the program's")
            ok = False
    print(f"{'ok     ' if ok else 'REJECTED'} reference K of wires and Bell states")
    return ok


def _crash_is_failed_not_wrong():
    """A crash fails its command without making the run incorrect; a wrong
    result does both."""
    cmds = [Command(["state", "tms"], "state", ""), Command(["state", "tms"], "state", "")]
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".gnl-bench-") as work_dir:
        results = run.Results(cmds, work_dir)
        results.record(0, "crash: AssertionError: x", "", "")
        results.record(1, 1, "", "")
        attempted, failed, wrong, _ = results.check(lambda cmd, code, out, err: "bad")
    ok = (attempted, failed, wrong) == (2, 2, 1)
    print(f"{'ok     ' if ok else 'MISSED '} crash counted as failed, wrong result as wrong")
    return ok


def _metric_names_match():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ok = True
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            print(f"MISMATCH {key}: BENCHMARK.json and run.py list different metrics")
            ok = False
    return ok


def main():
    ok = _metric_names_match() & _references_hold() & _crash_is_failed_not_wrong()
    work_dir = tempfile.mkdtemp(prefix=".gnl-bench-", dir=run.ROOT)
    try:
        for name, cmd, corruptions in cases(workloads.Inputs(0, work_dir)):
            code, out, err, _ = run.invoke(gnl.cli.main, cmd.argv)
            reason = check.check(cmd, code, out, err)
            print(f"{'ok     ' if reason is None else 'REJECTED'} {name}: real output"
                  + ("" if reason is None else f" ({reason})"))
            ok = ok and reason is None
            for what, corrupt in corruptions.items():
                reason = check.check(cmd, *corrupt(code, out, err))
                print(f"{'ok     ' if reason else 'MISSED '} {name}: {what}"
                      + (f" -> {reason}" if reason else ""))
                ok = ok and reason is not None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
