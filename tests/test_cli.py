"""Command-line surface: payload shapes, exit codes, config handling."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fock_vectors
from gnl import cli, fock, graphs, schwinger, states

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_state_tms_json_default(capsys):
    rc, out, err = run(capsys, "state", "tms")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["entries"][1][0] == pytest.approx(np.tanh(0.5))


def test_state_tms_dot(capsys):
    rc, out, _ = run(capsys, "state", "tms", "--alpha", "0.5", "--format", "dot")
    assert rc == 0
    assert 'label="0.462117"' in out
    assert out.count(" -- ") == 1


def test_state_text_report(capsys):
    rc, out, _ = run(capsys, "state", "tms", "--format", "text")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "gnl-report v1"
    assert "state tms" in lines
    assert any(line.startswith("edge 0 1 0.462117") for line in lines)


def test_state_wire_json_entry_values(capsys):
    rc, out, _ = run(capsys, "state", "wire", "--spins", "4")
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 8
    values = {round(v, 12) for pair in payload["entries"] for v in pair}
    half_t = round(np.tanh(0.5) / 2.0, 12)
    assert values == {0.0, half_t, -half_t}


def test_state_hgraph_from_file(tmp_path, capsys):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graphs.matrix_to_json(sx)))
    rc, out, _ = run(capsys, "state", "hgraph", "--g", str(path), "--alpha", "0.3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["entries"][1][0] == pytest.approx(np.tanh(0.3))


def test_nullifiers_tms_text(capsys):
    rc, out, _ = run(capsys, "nullifiers", "tms")
    assert rc == 0
    assert out.splitlines()[0] == "gnl-report v1"
    assert "dimension 1" in out
    assert "1.0·S^z_{0,1}" in out
    assert "smallest retained singular values:" in out


def test_nullifiers_vacuum_hgraph_json(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graphs.matrix_to_json(np.zeros((2, 2)))))
    rc, out, _ = run(capsys, "nullifiers", "hgraph", "--g", str(path), "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4
    assert payload["borderline"] is False
    assert len(payload["generators"]) == 4
    assert len(payload["expressions"]) == 4


def test_nullifiers_wire_dimension(capsys):
    rc, out, _ = run(capsys, "nullifiers", "wire", "--spins", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["dimension"] == 15


def test_check_passes_a_real_nullifier(capsys):
    rc, out, _ = run(capsys, "check", "tms", "--gen", "z", "--cutoff", "12")
    assert rc == 0
    assert "NULLIFIER residual" in out
    assert "symmetry dev" in out and "fock residual" in out


def test_check_rejects_a_non_nullifier(capsys):
    rc, out, _ = run(capsys, "check", "tms", "--gen", "x")
    assert rc == 1
    assert "NOT a nullifier" in out
    assert "4.62e-01" in out


def test_check_json_payload(capsys):
    rc, out, _ = run(capsys, "check", "tms", "--gen", "z", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["is_nullifier"] is True
    assert payload["pass"] is True
    assert payload["residual"] <= 1e-10


def test_check_wire_generators(capsys):
    rc, _, _ = run(capsys, "check", "wire", "--spins", "5", "--gen", "local:2", "--cutoff", "4")
    assert rc == 0
    rc, _, _ = run(capsys, "check", "wire", "--spins", "3", "--gen", "global-x", "--cutoff", "4")
    assert rc == 0
    rc, _, _ = run(capsys, "check", "wire", "--spins", "4", "--gen", "chain:0:2", "--cutoff", "4")
    assert rc == 0


def test_check_rejects_a_theta_grid_below_two_points(capsys):
    base = ("check", "wire", "--spins", "4", "--gen", "local:0", "--format", "json")
    for points in ("0", "1"):
        rc, out, err = run(capsys, *base, "--theta-points", points)
        assert rc == 2 and out == ""
        assert "--theta-points must be at least 2" in err
    rc, out, _ = run(capsys, *base, "--theta-points", "2", "--cutoff", "4")
    assert rc == 0 and json.loads(out)["pass"] is True


def test_check_rejects_a_local_index_outside_the_wire(capsys):
    for index in ("4", "99", "-1"):
        rc, out, err = run(capsys, "check", "wire", "--spins", "4", "--gen", f"local:{index}")
        assert rc == 2 and out == ""
        assert "spin index in 0..3" in err
    rc, _, _ = run(capsys, "check", "wire", "--spins", "4", "--gen", "local:3", "--cutoff", "4")
    assert rc == 0


def test_check_generator_from_file(tmp_path, capsys):
    expr = schwinger.SchwingerExpression(
        2, [schwinger.SchwingerTerm("z", (0, 1), 1.0)]
    )
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(schwinger.expression_to_json(expr)))
    rc, out, _ = run(capsys, "check", "tms", "--gen", f"@{path}")
    assert rc == 0


def test_twomode_text_report(capsys):
    rc, out, _ = run(capsys, "twomode", "--coeffs", "0", "0", "0", "1")
    assert rc == 0
    assert "generator coefficients (S^0, S^x, S^y, S^z): 0 0 0 1" in out
    assert "dimension 1" in out
    assert "k12=1" in out


def test_twomode_all_zero_is_an_input_error(capsys):
    rc, _, err = run(capsys, "twomode", "--coeffs", "0", "0", "0", "0")
    assert rc == 2
    assert err.startswith("error:")


def test_oracle_tms_json(capsys):
    rc, out, _ = run(capsys, "oracle", "tms", "--cutoff", "6")
    assert rc == 0
    payload = json.loads(out)
    amps = {tuple(r["occ"]): complex(r["re"], r["im"]) for r in payload["amps"]}
    t = np.tanh(0.5)
    assert abs(amps[(1, 1)] / amps[(0, 0)] - t) < 1e-12
    assert all(sum(occ) % 2 == 0 for occ in amps)


def test_oracle_text_sectors(capsys):
    rc, out, _ = run(capsys, "oracle", "tms", "--cutoff", "4", "--format", "text")
    assert rc == 0
    assert "sector 0: max |amp|" in out
    assert "sector 4: max |amp|" in out


def test_oracle_text_counts_the_amplitudes_json_exports(capsys):
    argv = ("oracle", "wire", "--spins", "3", "--cutoff", "8", "--alpha", "0.7")
    rc, out, _ = run(capsys, *argv, "--format", "json")
    assert rc == 0
    exported = len(json.loads(out)["amps"])
    rc, out, _ = run(capsys, *argv, "--format", "text")
    assert rc == 0
    assert f"kept amplitudes {exported}\n" in out


def test_oracle_refuses_an_oversized_fock_space_at_once(capsys):
    start = time.monotonic()
    rc, out, err = run(capsys, "oracle", "wire", "--spins", "20", "--cutoff", "20")
    assert rc == 2 and out == ""
    assert "2.795e+15 amplitudes" in err and "bytes" in err
    assert time.monotonic() - start < 5.0


def test_export_writes_a_dot_file(tmp_path, capsys):
    path = tmp_path / "k.dot"
    rc, out, _ = run(capsys, "export", "tms", "--out", str(path))
    assert rc == 0 and out == ""
    text = path.read_text()
    assert text.startswith("graph K {")
    assert "0.462117" in text


def test_config_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "format": "json"}))
    rc, out, _ = run(capsys, "--config", str(cfg), "state", "tms")
    assert rc == 0
    assert json.loads(out)["entries"][1][0] == pytest.approx(np.tanh(1.0))
    rc, out, _ = run(capsys, "--config", str(cfg), "state", "tms", "--alpha", "0.5")
    assert json.loads(out)["entries"][1][0] == pytest.approx(np.tanh(0.5))
    rc, out, _ = run(capsys, "--config", str(cfg), "nullifiers", "tms")
    assert json.loads(out)["dimension"] == 1


def test_config_parsers_do_not_leak_between_calls(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.0}))
    for argv, alpha in (
        (["--config", str(cfg), "state", "tms"], 1.0),
        (["state", "tms"], 0.5),
        (["--config", str(cfg), "state", "tms"], 1.0),
    ):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert json.loads(out)["entries"][1][0] == pytest.approx(np.tanh(alpha))


def test_config_equals_form_loads(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.9}))
    rc, out, _ = run(capsys, f"--config={cfg}", "state", "tms", "--format", "text")
    assert rc == 0
    assert f"spectral norm {np.tanh(0.9):.12g}\n" in out


def test_config_without_a_path_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["state", "tms", "--config"])
    assert exc.value.code == 2
    assert "--config: expected one argument" in capsys.readouterr().err


_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16]
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16])
_TEXT = st.text(st.characters() | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u2028", "é", "😀"]))
_ROWS = st.integers(1, 3).flatmap(
    lambda w: st.lists(st.lists(_FINITE | _FLOATS, min_size=w, max_size=w), max_size=5)
    | st.lists(st.lists(_FINITE, min_size=w, max_size=w), min_size=1, max_size=5)
    | st.lists(st.lists(_FINITE, min_size=1, max_size=3), min_size=2, max_size=4)
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _FLOATS | _TEXT | _ROWS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(value=_JSON)
def test_json_writer_matches_the_indented_stdlib_layout(value):
    assert cli._json_dumps(value) == json.dumps(value, indent=2) + "\n"


# entries of generator stacks: signed zeros, the smallest subnormal, a value
# whose repr switches to an exponent, floats one ulp apart, NaN and Infinity
_ULP_PAIRS = [x for v in (0.1, 1.0, 0.5, 1e16) for x in (v, np.nextafter(v, np.inf))]
_STACK_POOL = st.lists(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e-300, float("nan"),
                     float("inf"), *_ULP_PAIRS])
    | st.floats(),
    min_size=1,
    max_size=6,
)


# numbers per block of the table writer: one record per block, a few
# records, and the default
_BLOCKS = st.sampled_from([1, 100, cli.BLOCK])


@st.composite
def _generator_stacks(draw):
    """(block, stack): a writer block size and a (dim, n, n) complex stack, all
    zero, fully dense, or drawn from a small pool of values mixed with zeros;
    dim 0 and dims across blocks."""
    n = draw(st.integers(1, 4))
    block = draw(_BLOCKS)
    rows = max(1, block // (2 * n * n))  # generators per block
    dim = draw(st.sampled_from([0, 1, 2, 5]) | st.integers(rows - 1, 2 * rows + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zero", "dense", "pool"]))
    if kind == "zero":
        parts = np.zeros((dim, n, n, 2))
    elif kind == "dense":
        parts = rng.standard_normal((dim, n, n, 2)) * 10.0 ** rng.integers(-20, 20, (dim, n, n, 2))
    else:
        pool = np.array(draw(_STACK_POOL) + [0.0])
        parts = rng.choice(pool, (dim, n, n, 2))
    # a view, not re + 1j * im: 1j * inf would turn the real part into NaN
    return block, parts.view(complex)[..., 0]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(drawn=_generator_stacks(), as_list=st.booleans())
def test_generator_stack_writer_matches_the_per_matrix_payload(drawn, as_list):
    block, stack = drawn
    generators = list(stack) if as_list else stack
    # the nullifiers payload holds the stack as a top-level value
    new = {"generators": cli._generator_table(generators, stack.shape[1]), "n": 1}
    old = {"generators": [graphs.matrix_to_json(g) for g in stack], "n": 1}
    with mock.patch.object(cli, "BLOCK", block):
        assert cli._json_dumps(new) == json.dumps(old, indent=2) + "\n"


_ONE_ULP = np.nextafter(0.1, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(v=fock_vectors(), block=_BLOCKS)
@example(v=fock.FockVector(1, 600, {(300,): complex(0.1, -0.0), (256,): complex(_ONE_ULP, 0.0)}), block=1)
@example(v=fock.FockVector(2, 4, {(1, 1): complex(float("nan"), float("inf")), (0, 2): 1.0}), block=8)
@example(v=fock.FockVector(3, 4, {(0, 0, 2): 1e-15 + 0j}), block=cli.BLOCK)
def test_oracle_writer_matches_the_stdlib_payload(v, block):
    new, old = cli._fock_payload(v), fock.fock_to_json(v)
    with mock.patch.object(cli, "BLOCK", block):
        assert cli._json_dumps(new) == json.dumps(old, indent=2) + "\n"


def test_bad_inputs_exit_with_2(capsys):
    rc, _, err = run(capsys, "state", "nope")
    assert rc == 2 and "unknown state" in err
    rc, _, err = run(capsys, "check", "tms", "--gen", "banana")
    assert rc == 2 and "not recognized" in err
    rc, _, err = run(capsys, "state", "hgraph")
    assert rc == 2 and "--g" in err
    rc, _, err = run(capsys, "state", "wire")
    assert rc == 2 and "--spins" in err
    rc, _, err = run(capsys, "state", "hgraph", "--g", "/nonexistent/g.json")
    assert rc == 2


def test_argparse_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["state"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# the state table: every name builds, every named generator checks


def _state_args(name, tmp_path):
    if name == "hgraph":
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graphs.matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]]))))
        return ["--g", str(path)]
    return ["--spins", "4"] if name == "wire" else []


def test_the_state_table_holds_the_documented_generators():
    axes = {"0", "x", "y", "z"}
    wire = {"local", "global-x", "global-z", "chain", "six-mode", "y-local"}
    heads = {name: set(gens) for name, (_, gens) in cli.STATES.items()}
    assert heads == {
        "tms": axes, "tms-pair": axes, "bell:phi+": axes, "bell:phi-": axes,
        "bell:psi+": axes, "bell:psi-": axes, "hgraph": set(), "wire": wire,
    }


@pytest.mark.parametrize("name", list(cli.STATES))
def test_every_state_in_the_table_builds(name, tmp_path, capsys):
    rc, out, err = run(capsys, "state", name, *_state_args(name, tmp_path))
    assert rc == 0 and err == ""
    assert json.loads(out)["n"] == {"tms": 2, "hgraph": 2, "wire": 8}.get(name, 4)


# heads that take parameters, with the values checked; tms fails x, y and 0
_SPEC_OF_HEAD = {"local": "local:0", "chain": "chain:0:2"}
_FAILING = {("tms", "0"), ("tms", "x"), ("tms", "y")}


@pytest.mark.parametrize(
    "name, head", [(name, head) for name, (_, gens) in cli.STATES.items() for head in gens]
)
def test_check_exit_code_of_every_named_generator(name, head, tmp_path, capsys):
    spec = _SPEC_OF_HEAD.get(head, head)
    argv = ("check", name, *_state_args(name, tmp_path), "--gen", spec, "--cutoff", "4")
    rc, _, err = run(capsys, *argv)
    assert rc == (1 if (name, head) in _FAILING else 0), err


def _assert_input_error(rc, out, err):
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "name, spec",
    [
        ("wire", "local:abc"),
        ("wire", "chain:1"),
        ("wire", "chain:1:2:3"),
        ("wire", "chain:x:2"),
        ("wire", "global-x:1"),
        ("tms", "z:1"),
    ],
)
def test_malformed_generator_specs_exit_with_2(name, spec, capsys):
    rc, out, err = run(capsys, "check", name, "--spins", "4", "--gen", spec)
    _assert_input_error(rc, out, err)
    assert repr(spec) in err


def test_config_value_of_the_wrong_type_exits_with_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": [1]}))
    _assert_input_error(*run(capsys, "--config", str(cfg), "state", "tms"))


def test_config_value_that_argparse_rejects_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": "abc"}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "state", "tms"])
    assert exc.value.code == 2
    assert "argument --alpha: invalid float value: 'abc'" in capsys.readouterr().err


def test_unknown_config_key_exits_with_2_and_names_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpah": 0.9}))
    rc, out, err = run(capsys, "--config", str(cfg), "state", "tms")
    _assert_input_error(rc, out, err)
    assert "'alpah'" in err


def test_config_key_of_another_subcommand_is_skipped(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": 6, "theta_points": 3}))
    rc, out, _ = run(capsys, "--config", str(cfg), "state", "tms")
    assert rc == 0 and json.loads(out)["n"] == 2
    rc, out, _ = run(capsys, "--config", str(cfg), "oracle", "tms", "--format", "text")
    assert rc == 0 and "cutoff 6\n" in out


def test_near_integral_coefficients_print_with_one_decimal(capsys):
    # g5 of the 3-spin wire has coefficients 0.9999999999999999 and 1.0
    rc, out, _ = run(capsys, "nullifiers", "wire", "--spins", "3", "--format", "text")
    assert rc == 0
    assert "g5: 1.0·S^x_{0a,0b} + 1.0·S^x_{1a,1b} + 1.0·S^x_{2a,2b}\n" in out


def test_nullifiers_refuse_an_oversized_kernel_at_once():
    # its own process with one BLAS thread: a multi-threaded eigh sometimes
    # stalls for about a second on a busy two-core machine
    script = """
import contextlib, io, time
from gnl import cli
err = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stderr(err):
    rc = cli.main(["nullifiers", "wire", "--spins", "100"])
print(rc, time.perf_counter() - start, repr(err.getvalue()))
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    rc, seconds, err = proc.stdout.split(" ", 2)
    assert rc == "2" and float(seconds) < 1.0, proc.stdout
    assert "error: 200 modes" in err and "bytes" in err


@pytest.mark.parametrize(
    "name, variant",
    [("tms-pair", "phi+")] + [(f"bell:{v}", v) for v in ("phi+", "phi-", "psi+", "psi-")],
)
def test_spin_pair_generators_are_the_bell_nullifiers(name, variant):
    table = cli.STATES[name][1]
    assert [table[axis](None) for axis in "xyz0"] == states.bell_analogue(variant, 1.0)[1]


def test_the_argument_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "entries": [[0, 0], [1], [1, 0], [0, 0]]}',
        "[]",
        '{"n": "x", "entries": []}',
        '{"n": 2.9, "entries": [[0, 0], [0.1, 0], [0.1, 0], [0, 0]]}',
    ],
)
def test_malformed_matrix_files_exit_with_2(text, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(text)
    _assert_input_error(*run(capsys, "state", "hgraph", "--g", str(path)))


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": "abc"}]}',
        '{"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": [1]}]}',
        "[]",
        '{"n": 2, "terms": [{"axis": "z", "pair": "01", "coeff": 1.0}]}',
        '{"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": "1.5"}]}',
    ],
)
def test_malformed_expression_files_exit_with_2(text, tmp_path, capsys):
    path = tmp_path / "gen.json"
    path.write_text(text)
    _assert_input_error(*run(capsys, "check", "tms", "--gen", f"@{path}"))


@pytest.mark.parametrize("command", ["state", "nullifiers", "oracle"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_matrix_files_exit_with_2(command, value, tmp_path, capsys):
    # a NaN entry made state and nullifiers crash in the eigensolver and
    # oracle pass vacuously with "kept amplitudes 0"
    path = tmp_path / "g.json"
    path.write_text(f'{{"n": 2, "entries": [[0, 0], [{value}, 0], [{value}, 0], [0, 0]]}}')
    argv = (command, "hgraph", "--g", str(path), "--format", "text")
    _assert_input_error(*run(capsys, *argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "tms", "--format", "text"],
        ["state", "tms-pair", "--format", "text"],
        ["state", "wire", "--spins", "3", "--format", "text"],
        ["oracle", "tms", "--cutoff", "4"],
    ],
)
def test_infinite_alpha_exits_with_2(argv, capsys):
    # state printed "spectral norm 1" and oracle flat amplitudes of 5.77e-01
    rc, out, err = run(capsys, *argv, "--alpha", "inf")
    _assert_input_error(rc, out, err)
    assert "alpha must be finite" in err


@pytest.mark.parametrize(
    "argv", [["state", "hgraph", "--format", "text"], ["nullifiers", "hgraph"]]
)
def test_zero_mode_matrix_files_exit_with_2(argv, tmp_path, capsys):
    # state died in a ValueError traceback; nullifiers printed numpy's
    # "index -1 is out of bounds"
    path = tmp_path / "g.json"
    path.write_text('{"n": 0, "entries": []}')
    rc, out, err = run(capsys, *argv, "--g", str(path))
    _assert_input_error(rc, out, err)
    assert "n >= 1" in err


# one command line of every JSON output; {g} is a matrix file
_JSON_COMMANDS = {
    "state": ["state", "wire", "--spins", "3"],
    "nullifiers-wire": ["nullifiers", "wire", "--spins", "3"],
    "nullifiers-tms-pair": ["nullifiers", "tms-pair"],
    "nullifiers-hgraph": ["nullifiers", "hgraph", "--g", "{g}"],
    "check-pass": ["check", "tms", "--gen", "z", "--cutoff", "4"],
    "check-fail": ["check", "tms", "--gen", "x"],
    "twomode": ["twomode", "--coeffs", "0", "0", "0", "1"],
    "oracle-tms": ["oracle", "tms", "--cutoff", "6"],
    "oracle-bell": ["oracle", "bell:psi-", "--cutoff", "4"],
}


@pytest.mark.parametrize("name", list(_JSON_COMMANDS))
def test_json_output_is_the_indented_stdlib_layout(name, tmp_path, capsys):
    # G with distinct nonzero eigenvalues: the hgraph has no passive symmetry
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graphs.matrix_to_json(np.array([[0.3, 1.0], [1.0, 0.0]]))))
    argv = [arg.format(g=path) for arg in _JSON_COMMANDS[name]]
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert rc in (0, 1) and err == ""
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    if name == "nullifiers-hgraph":
        assert payload["dimension"] == 0 and payload["generators"] == []


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_expression_files_exit_with_2(value, tmp_path, capsys):
    # a NaN coefficient made check print "residual nan" and exit 1
    path = tmp_path / "gen.json"
    path.write_text(f'{{"n": 2, "terms": [{{"axis": "z", "pair": [0, 1], "coeff": {value}}}]}}')
    _assert_input_error(*run(capsys, "check", "tms", "--gen", f"@{path}"))
