#!/usr/bin/env python3
"""Benchmark of the gnl command line, end to end and layer by layer.

    python3 bench/run.py --workload solve|verify|small|all --seed N \
        --seconds S --trace 0|1

One process calls ``gnl.cli.main(argv)`` over the workload's fixed command
list (see workloads.py): a closed loop with one caller, each command
starting when the previous one returns, stdout and stderr captured and
every result checked (check.py). Whole passes over the list repeat until
at least S seconds of command time and 100 commands are measured.

--trace 0 prints the end-to-end metrics: commands per second, median and
90th-percentile latency, the share of commands with a correct result, the
peak resident memory of this process over the first pass of the list, and
the set-up time (first statement of this script to the first timed
command: imports, inputs, warm-up), as the median of this process and four
fresh ones. The timings are corrected for the machine's speed during the
run (see CAL_EVERY_S); the raw command timings are printed too.

A command that raises inside the program counts as failed (and against
ok_frac) but does not make the run incorrect; a command that returns a
wrong result, or a different one on a later pass, does both.

--trace 1 runs half the time untraced and half with spans around every
public function of the layers (spans.py), and prints the per-layer
metrics, per pass of the command list, with the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment
(versions, BLAS, threads, seed, command count, git commit).
``--workload all`` runs the three workloads one after another.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, set before numpy loads: with OpenBLAS's default pool a
# 5 ms kernel solve at n = 8 spiked to 0.1-0.3 s on a shared 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("solve", "verify", "small")
SETUP_SAMPLES = 5
MIN_COMMANDS = 100
SUBPROCESS_TIMEOUT = 900
# Machine-speed correction. Shared hosts drift in speed by up to 1.7x over
# tens of seconds, for every process alike. Each run times a fixed LAPACK
# kernel (calibration_kernel, bench code only) before a command whenever
# CAL_EVERY_S of command time has passed; each command's latency is then
# scaled by CAL_NOMINAL_S over the median kernel time within CAL_WINDOW_S
# of its start. ops_per_s, op_p50_ms and op_p90_ms come from the corrected
# latencies; each set-up time is scaled by one kernel run right after it.
# The kernel runs in the measured process on numpy's LAPACK, so whatever
# changes how LAPACK runs here (BLAS threads, background threads of the
# program, a numpy upgrade) moves it as well: the uncorrected timings and
# the median kernel time are printed on the {"raw": ...} line, and a
# traced run reports them as raw.ops_per_s and calibration.kernel_ms.
CAL_EVERY_S = 0.5
CAL_WINDOW_S = 3.0
CAL_NOMINAL_S = 0.0055

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
STATE_BUILDERS = ("states.dual_rail_wire", "states.tms_pair", "states.bell_analogue")
PER_LAYER = {
    "nullifiers.nullifier_space.ms": "ms",
    "nullifiers.nullifier_space.self_ms": "ms",
    "nullifiers.nullifier_space.calls": "count",
    "nullifiers.kernel_dim": "count",
    "nullifiers.is_nullifier.calls": "count",
    "nullifiers.verify_symmetry.ms": "ms",
    "nullifiers.two_mode_invariant_class.ms": "ms",
    "fock.state_from_k.ms": "ms",
    "fock.state_from_k.self_ms": "ms",
    "fock.state_from_k.calls": "count",
    "fock.amplitudes_kept": "count",
    "fock.amplitudes_per_s": "1/s",
    "fock.kept_ratio": "ratio",
    "fock.apply_quadratic.ms": "ms",
    "fock.fock_to_json.ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "cli.exit_1": "count",
    "cli.exit_2": "count",
    "graphs.matrix_to_json.ms": "ms",
    "graphs.validate.ms": "ms",
    "graphs.to_dot.ms": "ms",
    "schwinger.matrix_to_expression.ms": "ms",
    "schwinger.format_expression.ms": "ms",
    "schwinger.generator_to_unitary.calls": "count",
    "states.build.ms": "ms",
    "graphs.self_ms": "ms",
    "schwinger.self_ms": "ms",
    "nullifiers.self_ms": "ms",
    "states.self_ms": "ms",
    "fock.self_ms": "ms",
    "trace.commands": "count",
    "trace.ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
    "raw.ops_per_s": "1/s",
    "calibration.kernel_ms": "ms",
}


def _import_gnl():
    """Import gnl from this checkout's src/, never from anywhere else."""
    if not (SRC / "gnl" / "__init__.py").is_file():
        raise SystemExit(f"error: no gnl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gnl
    import gnl.cli

    if Path(gnl.__file__).resolve().parent != SRC / "gnl":
        raise SystemExit(f"error: gnl imported from {gnl.__file__}, not {SRC}")
    return gnl


def invoke(call, argv):
    """Run one command; return (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        try:
            code = call(argv)
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code
        except Exception as exc:  # a crash fails this command, not the run
            code = f"crash: {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
    return code, out.getvalue(), err.getvalue(), dt


def _digest(result):
    return hashlib.sha256(json.dumps(result).encode()).digest()


class Results:
    """Verdicts per command. The first output of each command is written to
    the work directory and checked after the timed passes, so that checking
    does not disturb the caches the commands run with and the kept outputs
    do not add to the process's memory; later outputs must repeat it byte
    for byte."""

    def __init__(self, commands, work_dir):
        self.commands = commands
        self.work_dir = Path(work_dir)
        self.first = [None] * len(commands)
        self.repeats = [0] * len(commands)
        self.mismatches = [0] * len(commands)

    def _path(self, i):
        return self.work_dir / f"out{i:04d}.json"

    def record(self, i, code, out, err):
        if self.first[i] is None:
            self._path(i).write_text(json.dumps([code, out, err]))
            self.first[i] = _digest([code, out, err])
        else:
            self.repeats[i] += 1
            self.mismatches[i] += self.first[i] != _digest([code, out, err])

    def output(self, i):
        return json.loads(self._path(i).read_text())

    def check(self, checker):
        """(attempted, failed, wrong, reasons) over every recorded output.

        failed counts every run whose result is not the reference; wrong
        counts those among them that returned a wrong result rather than
        raising inside the program (a crash).
        """
        attempted = failed = wrong = 0
        reasons = []
        for i, cmd in enumerate(self.commands):
            if self.first[i] is None:
                continue
            runs = 1 + self.repeats[i]
            attempted += runs
            code, out, err = self.output(i)
            reason = checker(cmd, code, out, err)
            bad = runs if reason is not None else self.mismatches[i]
            if bad:
                failed += bad
                crashed = str(code).startswith("crash")
                wrong += 0 if crashed and not self.mismatches[i] else bad
                reasons.append(f"{' '.join(cmd.argv)}: "
                               f"{reason or 'output differs from the first run'}")
        return attempted, failed, wrong, reasons


@dataclass
class Phase:
    """Latencies and outputs of whole passes over the command list."""

    latencies: list = field(default_factory=list)
    passes: int = 0
    output_bytes: int = 0
    exits: Counter = field(default_factory=Counter)
    starts: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    since_calibration: float = float("inf")

    @property
    def ops_per_s(self):
        return len(self.latencies) / sum(self.latencies)

    def done(self, seconds, min_commands):
        return (self.passes > 0 and sum(self.latencies) >= seconds
                and len(self.latencies) >= min_commands)


def calibration_kernel(matrix):
    """A fixed dense SVD: in-cache LAPACK work that tracks the host's speed."""
    import numpy as np

    np.linalg.svd(matrix)


def calibrate(matrix):
    """Seconds of one run of the kernel, timed warm whatever ran before."""
    calibration_kernel(matrix)
    t = time.perf_counter()
    calibration_kernel(matrix)
    return time.perf_counter() - t


def run_pass(call, commands, results, phase, matrix):
    for i, cmd in enumerate(commands):
        if phase.since_calibration >= CAL_EVERY_S:
            phase.calibrations.append((time.perf_counter(), calibrate(matrix)))
            phase.since_calibration = 0.0
        phase.starts.append(time.perf_counter())
        code, out, err, dt = invoke(call, cmd.argv)
        phase.since_calibration += dt
        phase.latencies.append(dt)
        phase.output_bytes += len(out.encode())
        phase.exits[code] += 1
        results.record(i, code, out, err)
    phase.passes += 1


def _kernel_median(*phases):
    return statistics.median(c for phase in phases for _, c in phase.calibrations)


def corrected_latencies(phase):
    """Each latency scaled to the nominal machine speed around its start."""
    times = [t for t, _ in phase.calibrations]
    out = []
    for start, dt in zip(phase.starts, phase.latencies):
        lo = bisect.bisect_left(times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(times, start + CAL_WINDOW_S)
        # the last calibration before the window if none falls inside it
        near = phase.calibrations[lo:hi] or [phase.calibrations[max(lo - 1, 0)]]
        out.append(dt * CAL_NOMINAL_S / statistics.median(c for _, c in near))
    return out


def setup(workload, seed, work_dir):
    """Import the program, build the inputs and warm up.

    Returns the package, the command list, the calibration matrix and the
    set-up time from T0, corrected for the machine's speed like the
    command timings.
    """
    gnl = _import_gnl()
    import numpy as np
    import workloads

    commands = workloads.build(workload, seed, work_dir)
    for argv in workloads.WARMUP:
        invoke(gnl.cli.main, argv)
    seconds = time.perf_counter() - T0
    matrix = np.random.default_rng(0).standard_normal((160, 160))
    sample = {"setup_s": seconds * CAL_NOMINAL_S / calibrate(matrix), "raw_setup_s": seconds}
    return gnl, commands, matrix, sample


def _setup_seconds(args, first):
    """Median corrected and raw set-up times over this process and fresh ones."""
    samples = [first]
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up run failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return {key: statistics.median(x[key] for x in samples) for key in first}


def _blas_threads():
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, commands, phase):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "commands_per_pass": len(commands),
        "passes": phase.passes,
        "commands_by_class": dict(Counter(c.cls for c in commands)),
        "git_commit": _git_commit(),
    }


def timings(latencies):
    lat_ms = [1e3 * x for x in latencies]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
    }


def per_layer(tracer, traced, untraced, commands):
    p = traced.passes

    def ms(name):
        return 1e3 * tracer.total.get(name, 0.0) / p

    def calls(name):
        return tracer.calls.get(name, 0) / p

    kept = tracer.counts["fock.amplitudes_kept"]
    tuples = tracer.counts["fock.even_tuples"]
    fock_s = tracer.total.get("fock.state_from_k", 0.0)
    values = {
        "nullifiers.nullifier_space.self_ms":
            1e3 * tracer.self_time.get("nullifiers.nullifier_space", 0.0) / p,
        "nullifiers.kernel_dim": tracer.counts["nullifiers.kernel_dim"] / p,
        "fock.state_from_k.self_ms":
            1e3 * tracer.self_time.get("fock.state_from_k", 0.0) / p,
        "fock.amplitudes_kept": kept / p,
        "fock.amplitudes_per_s": kept / fock_s if fock_s else 0.0,
        "fock.kept_ratio": kept / tuples if tuples else 0.0,
        "cli.main.self_ms": 1e3 * tracer.self_time["cli.main"] / p,
        "cli.output_bytes": traced.output_bytes / p,
        "cli.exit_1": traced.exits[1] / p,
        "cli.exit_2": traced.exits[2] / p,
        "states.build.ms": 1e3 * tracer.entered_from_outside(STATE_BUILDERS) / p,
        "trace.commands": len(commands),
        "trace.ops_per_s": traced.ops_per_s,
        "trace.overhead_ops_per_s": traced.ops_per_s - untraced.ops_per_s,
        "raw.ops_per_s": untraced.ops_per_s,
        "calibration.kernel_ms": 1e3 * _kernel_median(untraced, traced),
    }
    for layer in ("graphs", "schwinger", "nullifiers", "states", "fock"):
        values[f"{layer}.self_ms"] = 1e3 * tracer.module_self(layer) / p
    for name in PER_LAYER:
        if name not in values:
            base, _, stat = name.rpartition(".")
            values[name] = ms(base) if stat == "ms" else calls(base)
    return values


def _top_self_times(tracer, passes, count=5):
    top = sorted(tracer.self_time.items(), key=lambda kv: -kv[1])[:count]
    return ", ".join(f"{name} {1e3 * t / passes:.1f} ms" for name, t in top)


def _report(metrics, units, correct, attempted, failed, extra_lines=()):
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    for line in extra_lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def traced_run(gnl, commands, results, matrix, seconds):
    """Per-layer metrics from alternating untraced and traced passes.

    Alternating lets both halves see the same machine; the difference in
    ops_per_s between them is the tracing overhead.
    """
    import spans

    half = seconds / 2
    untraced, traced = Phase(), Phase()
    tracer = spans.Tracer()
    main = gnl.cli.main
    while not (untraced.done(half, 0) and traced.done(half, 0)):
        if not untraced.done(half, 0):
            run_pass(main, commands, results, untraced, matrix)
        if not traced.done(half, 0):
            tracer.install(gnl)
            try:
                run_pass(lambda argv: tracer.call("cli.main", main, argv),
                         commands, results, traced, matrix)
            finally:
                tracer.uninstall()
    values = per_layer(tracer, traced, untraced, commands)
    extra = [f"largest self time per pass: {_top_self_times(tracer, traced.passes)}"]
    return traced, {name: values[name] for name in PER_LAYER}, extra


def run_workload(args):
    work_dir = tempfile.mkdtemp(prefix=".gnl-bench-", dir=ROOT)
    try:
        gnl, commands, matrix, setup_sample = setup(args.workload, args.seed, work_dir)
        if args.setup_only:
            print(json.dumps(setup_sample))
            return 0
        import check

        results = Results(commands, work_dir)
        if args.trace:
            phase, metrics, extra = traced_run(gnl, commands, results, matrix,
                                               args.seconds)
        else:
            phase = Phase()
            while not phase.done(args.seconds, MIN_COMMANDS):
                run_pass(gnl.cli.main, commands, results, phase, matrix)
                if phase.passes == 1:
                    # after one pass: later passes add heap fragmentation in
                    # proportion to how many passes the host's speed allows
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_times = _setup_seconds(args, setup_sample)
        attempted, failed, wrong, reasons = results.check(check.check)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        metrics = dict(
            timings(corrected_latencies(phase)),
            ok_frac=1.0 - failed / attempted,
            peak_rss_mb=peak_rss_mb,
            setup_s=setup_times["setup_s"],
        )
        # the uncorrected figures, to see when the speed correction moves a verdict
        raw = dict(timings(phase.latencies), setup_s=setup_times["raw_setup_s"],
                   calibration_kernel_ms=1e3 * _kernel_median(phase))
        extra = [f"error_frac {failed / attempted:.6g} fraction",
                 json.dumps({"raw": raw})]
    for reason in reasons[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    extra.append(json.dumps({"env": environment(args, commands, phase)}))
    # a crash inside the program fails its command; only a wrong result
    # makes the run incorrect
    _report(metrics, units, wrong == 0, attempted, failed, extra)
    return 0


def run_all(args):
    """Each workload in its own process, then one summary."""
    metrics, units = {}, {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT, check=False)
        print(f"== {workload}")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{workload}.{name}"] = m["value"]
            units[f"{workload}.{name}"] = m["unit"]
    print("== all")
    _report(metrics, units, correct, attempted, failed)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
