"""Command-line surface: payload shapes, exit codes, config handling."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fock_to_json, fock_vector, fock_vectors, reference_expression_json
from gnl import cli, fock, graphs, nullifiers, schwinger, states

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


# state --format text bytes; the report prints nothing that needs U = Im Z
_STATE_TEXT = {
    "tms": (
        ["state", "tms"],
        "gnl-report v1\nstate tms\nmodes 2\nspectral norm 0.46211715726\n"
        "symmetric defect 0.00e+00\nedge 0 1 0.462117\n",
    ),
    "bell:psi-": (
        ["state", "bell:psi-"],
        "gnl-report v1\nstate bell:psi-\nmodes 4\nspectral norm 0.46211715726\n"
        "symmetric defect 0.00e+00\nedge 0 3 -2.82965e-17+0.462117i\n"
        "edge 1 2 2.82965e-17-0.462117i\n",
    ),
    "hgraph": (
        ["state", "hgraph", "--g", "{g}", "--alpha", "0.4"],
        "gnl-report v1\nstate hgraph\nmodes 4\nspectral norm 0.637021776683\n"
        "symmetric defect 0.00e+00\nedge 0 0 0.000625066\nedge 0 1 0.351284\n"
        "edge 0 2 -0.00706722\nedge 0 3 0.162463\nedge 1 1 -0.00422644\n"
        "edge 1 2 0.336692\nedge 1 3 -0.00443142\nedge 2 2 0.0994168\n"
        "edge 2 3 0.349871\nedge 3 3 -0.00464652\n",
    ),
}


@pytest.mark.parametrize("name", list(_STATE_TEXT))
def test_state_text_bytes_are_pinned(name, tmp_path, capsys, monkeypatch):
    g = np.array([[0, 1, 0, 0.5], [1, 0, 1, 0], [0, 1, 0.3, 1], [0.5, 0, 1, 0]])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graphs.matrix_to_json(g)))
    argv, text = _STATE_TEXT[name]

    def no_solve(k):
        raise AssertionError("the text report prints no min_eig_U")

    monkeypatch.setattr(graphs, "u_from_k", no_solve)
    rc, out, err = run(capsys, *[a.format(g=path) for a in argv], "--format", "text")
    assert (rc, out, err) == (0, text, "")


def test_a_bell_state_builds_no_nullifier_expression(capsys, monkeypatch):
    calls = []
    nullifier = states.bell_nullifier
    monkeypatch.setattr(states, "bell_nullifier", lambda *a: calls.append(a) or nullifier(*a))
    rc, out, err = run(capsys, "state", "bell:psi-", "--format", "json")
    assert rc == 0 and err == "" and json.loads(out)["n"] == 4
    assert calls == []
    rc, _, _ = run(capsys, "check", "bell:psi-", "--gen", "x", "--cutoff", "2")
    assert rc == 0 and calls == [("psi-", "x")]


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


@pytest.mark.parametrize("which", ["symmetry", "fock"])
@pytest.mark.parametrize("factor, verdict", [(1.0 - 1e-6, True), (1.0 + 1e-6, False)])
def test_check_verdict_follows_each_bound(capsys, monkeypatch, which, factor, verdict):
    # the sweep passes a deviation of RTOL max|K| (1 + theta_max max|M|), the
    # phase rounding of W, and the oracle a residual of RTOL max|M| max|K|;
    # each is set just under or just over its bound, with the other at 0
    def bound(k, m, theta=0.0):
        return graphs.RTOL * np.abs(k).max() * (1.0 + theta * np.abs(m).max())

    def symmetry(k, m, grid):
        return factor * bound(k, m, grid[-1]) if which == "symmetry" else 0.0

    def residual(m, k, cutoff):
        return factor * bound(k, m) * np.abs(m).max() if which == "fock" else 0.0

    monkeypatch.setattr(nullifiers, "verify_symmetry", symmetry)
    monkeypatch.setattr(fock, "nullifier_residual", residual)
    for args in (("tms", "--gen", "z"), ("wire", "--spins", "3", "--gen", "local:1")):
        rc, out, _ = run(capsys, "check", *args, "--cutoff", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["is_nullifier"] is True
        assert payload["pass"] is verdict and rc == (0 if verdict else 1), args


def test_check_rejects_a_negative_chain_end(capsys):
    # chain:0:-5 exited 0 after checking N_0 alone
    rc, out, err = run(capsys, "check", "wire", "--spins", "4", "--gen", "chain:0:-5")
    _assert_input_error(rc, out, err)
    assert "i_to -5" in err


def test_check_six_mode_builds_only_the_sweep_s_unitaries(capsys, monkeypatch):
    # the generator came from the decomposition, whose two unitaries at
    # theta 0 were built and thrown away
    calls = []
    unitaries = schwinger.unitaries
    monkeypatch.setattr(schwinger, "unitaries", lambda m, t: calls.append(len(t)) or unitaries(m, t))
    args = ("check", "wire", "--spins", "6", "--gen", "six-mode", "--cutoff", "4")
    rc, _, _ = run(capsys, *args)
    assert rc == 0 and calls == [16]


def test_check_rejects_a_theta_grid_below_two_points(capsys):
    base = ("check", "wire", "--spins", "4", "--gen", "local:0", "--format", "json")
    for points in ("0", "1"):
        rc, out, err = run(capsys, *base, "--theta-points", points)
        assert rc == 2 and out == ""
        assert "--theta-points must be at least 2" in err
    rc, out, _ = run(capsys, *base, "--theta-points", "2", "--cutoff", "4")
    assert rc == 0 and json.loads(out)["pass"] is True


def test_check_refuses_a_theta_grid_too_large_to_sweep(capsys, monkeypatch):
    # np.linspace raised ValueError ("Maximum allowed size exceeded"): exit 1
    base = ("check", "wire", "--spins", "4", "--gen", "local:0", "--cutoff", "4")
    for points, size in (("100000000000000000000", "about 1.032e+23"), ("1" + "0" * 400, "more than 1e300")):
        rc, out, err = run(capsys, *base, "--theta-points", points)
        assert rc == 2 and out == ""
        assert f"--theta-points {points}: a sweep of 8 modes" in err and f"{size} bytes" in err
    # the bound: 16 angles of 8 x 8 unitaries and their grid
    monkeypatch.setattr(cli, "MAX_SWEEP_BYTES", 16 * (8 + 16 * 64))
    assert run(capsys, *base, "--theta-points", "16")[0] == 0
    assert run(capsys, *base, "--theta-points", "17")[0] == 2


def test_check_rejects_a_local_index_outside_the_wire(capsys):
    for index in ("4", "99", "-1"):
        rc, out, err = run(capsys, "check", "wire", "--spins", "4", "--gen", f"local:{index}")
        assert rc == 2 and out == ""
        assert "spin index in 0..3" in err
    rc, _, _ = run(capsys, "check", "wire", "--spins", "4", "--gen", "local:3", "--cutoff", "4")
    assert rc == 0


def test_check_generator_from_file(tmp_path, capsys):
    path = tmp_path / "gen.json"
    path.write_text('{"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": 1.0}]}')
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


_ZERO_GENERATORS = {
    "no terms": ("tms", []),
    "cancelling terms": ("tms-pair", [
        {"axis": "x", "pair": [0, 2], "coeff": 1.0},
        {"axis": "x", "pair": [0, 2], "coeff": -1.0},
    ]),
}


@pytest.mark.parametrize("case", list(_ZERO_GENERATORS))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_refuses_a_zero_generator(case, fmt, tmp_path, capsys):
    # M = 0 nullifies every state, so all three checks passed vacuously and
    # check exited 0 ("pass": true)
    state, terms = _ZERO_GENERATORS[case]
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"n": 2 if state == "tms" else 4, "terms": terms}))
    rc, out, err = run(capsys, "check", state, "--gen", f"@{path}", "--format", fmt)
    _assert_input_error(rc, out, err)
    assert "generator is zero" in err


@pytest.mark.parametrize("n", [-1, 0])
def test_a_generator_file_with_no_mode_is_an_input_error(n, tmp_path, capsys):
    # n = -1 died in numpy's "negative dimensions" ValueError: a traceback
    # and exit 1, the failed-check code
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"n": n, "terms": []}))
    rc, out, err = run(capsys, "check", "tms", "--gen", f"@{path}")
    _assert_input_error(rc, out, err)
    assert err == f"error: an expression needs at least one mode, got n = {n}\n"


@pytest.mark.parametrize("coeffs", [["nan", "1", "0", "0"], ["0", "inf", "0", "0"], ["0", "0", "1", "1e400"]])
def test_non_finite_twomode_coefficients_exit_with_2(coeffs, capsys):
    # a NaN died in numpy's LinAlgError: a traceback and exit 1
    _assert_input_error(*run(capsys, "twomode", "--coeffs", *coeffs))


def test_twomode_coefficients_near_the_float_limit(capsys):
    # 2.0 * 1e308 overflowed: "dimension 0" after a RuntimeWarning
    rc, out, err = run(capsys, "twomode", "--coeffs", "1e308", "1e308", "0", "0")
    assert rc == 0 and err == ""
    assert "dimension 1" in out


@pytest.mark.parametrize("gen, code", [("0", 1), ("y", 1), ("z", 0)])
def test_check_judges_a_faint_squeezer_against_its_own_scale(gen, code, capsys):
    # nullifiers finds S^z alone at alpha 1e-11, but S^0 and S^y passed check
    # too: their residual 1e-11 was under the absolute 1e-10
    rc, out, _ = run(capsys, "nullifiers", "tms", "--alpha", "1e-11")
    assert "dimension 1\ng0: " in out and "S^z" in out
    rc, out, _ = run(capsys, "check", "tms", "--alpha", "1e-11", "--gen", gen)
    assert rc == code
    assert out.startswith("gnl-report v1\nNOT a nullifier; residual 1.00e-11") == (code == 1)


def test_check_passes_a_wire_nullifier_scaled_by_1e9(tmp_path, capsys):
    # its residual 5.21e-09 failed the absolute 1e-10 (exit 1)
    expr = states.wire_local_nullifiers(states.WireLayout(4, 0.5))[0]
    obj = {"n": 8, "terms": [
        {"axis": "0", "pair": [0, 1], "coeff": 1e9},
        {"axis": "x", "pair": [0, 1], "coeff": -1e9},
        {"axis": "0", "pair": [2, 3], "coeff": -1e9},
        {"axis": "x", "pair": [2, 3], "coeff": -1e9},
    ]}
    assert schwinger.expression_from_json(obj) == schwinger.SchwingerExpression(
        8, [schwinger.SchwingerTerm(t.axis, t.pair, 1e9 * t.coeff) for t in expr.terms]
    )
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "check", "wire", "--spins", "4", "--gen", f"@{path}")
    assert rc == 0 and out.startswith("gnl-report v1\nNULLIFIER residual")


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e9])
def test_check_passes_scaled_nullifiers_of_a_dense_k(scale, tmp_path, capsys):
    # W = exp(-i theta M) carries a phase rounding of about eps theta
    # max|lambda|: against max|K| alone, the symmetry deviation of these
    # generators (dense eigenvectors) failed from a scale of about 1e6 on
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))[0]
    g = (q * np.array([1.0, -1.0, 1.0, -1.0, 1.0])) @ q.T
    (tmp_path / "g.json").write_text(json.dumps(graphs.matrix_to_json(g)))
    basis = nullifiers.nullifier_space(graphs.hgraph_k(g, 0.5))
    assert basis.dimension == 10
    for i, m in enumerate(basis.generators):
        (tmp_path / f"{i}.json").write_text(json.dumps(reference_expression_json(scale * m)))
        rc, out, _ = run(capsys, "check", "hgraph", "--g", str(tmp_path / "g.json"),
                         "--alpha", "0.5", "--cutoff", "4", "--gen", f"@{tmp_path / f'{i}.json'}")
        assert rc == 0 and out.startswith("gnl-report v1\nNULLIFIER residual"), out


def test_check_fails_when_the_symmetry_grid_overflows(tmp_path, capsys):
    # exp(-i theta M) overflowed to NaN at the larger theta; max(0.0, nan) kept
    # 0.0, so check passed with "symmetry dev 5.96e-17" and exit 0; later it
    # failed with "symmetry dev nan" and numpy's overflow warnings on stderr
    path = tmp_path / "gen.json"
    path.write_text('{"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": 1e308}]}')
    rc, out, err = run(capsys, "check", "tms", "--gen", f"@{path}")
    assert rc == 2 and out == ""
    assert err == (
        "error: theta 4.189e-01 times the largest |eigenvalue| 5.000e+307 of the "
        "generator exceeds 2.830e+16, where the phase of exp(-i theta M) keeps no "
        "significant digit\n"
    )


def test_hgraph_state_of_a_large_finite_g(tmp_path, capsys):
    # 0.5 * (g + g.T) overflowed: "spectral norm nan", NaN edges and exit 0
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graphs.matrix_to_json(np.array([[0.0, 1e308], [1e308, 0.0]]))))
    rc, out, err = run(capsys, "state", "hgraph", "--g", str(path), "--format", "text")
    assert rc == 0 and err == ""
    assert "spectral norm 1\n" in out and "nan" not in out


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
    assert "4.192e+15 amplitudes" in err and "bytes" in err
    assert time.monotonic() - start < 5.0


def test_oracle_refuses_a_long_one_mode_ladder_before_allocating(tmp_path, capsys):
    # the gate bounded only the largest sector, one amplitude for one mode:
    # this asked for about 16 GB and 10^9 sectors
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(graphs.matrix_to_json(np.array([[1.0]]))))
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "oracle", "hgraph", "--g", str(path),
                           "--cutoff", "1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_input_error(rc, out, err)
    assert "C(1000000001, 1) = 1.000e+09 amplitudes" in err
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"


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


_CONFIG_TEXT = (
    "gnl-report v1\nstate tms\nmodes 2\nspectral norm 0.716297870199\n"
    "symmetric defect 0.00e+00\nedge 0 1 0.716298\n"
)


@pytest.mark.parametrize(
    "argv, parsed, outcome",
    [
        (["state", "tms", "--format", "text"], False,
         (0, _STATE_TEXT["tms"][1], "")),
        (["--config", "{cfg}", "state", "tms"], True, (0, _CONFIG_TEXT, "")),
        (["--config={cfg}", "state", "tms"], True, (0, _CONFIG_TEXT, "")),
        # the subcommand takes no --config: argparse refuses it
        (["state", "tms", "--config", "{cfg}"], True,
         (("exit", 2), "",
          "usage: gnl [-h] [--config CONFIG]\n"
          "           {state,nullifiers,check,twomode,oracle,export} ...\n"
          "gnl: error: unrecognized arguments: --config {cfg}\n")),
    ],
)
def test_config_is_parsed_only_when_given(argv, parsed, outcome, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.9, "format": "text"}))
    calls = []
    parser = cli._config_parser()
    parse = parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args", lambda a: calls.append(a) or parse(a))
    try:
        rc = cli.main([a.format(cfg=cfg) for a in argv])
    except SystemExit as exc:
        rc = ("exit", exc.code)
    captured = capsys.readouterr()
    code, out, err = outcome
    assert (rc, captured.out, captured.err) == (code, out, err.replace("{cfg}", str(cfg)))
    assert len(calls) == parsed


# ----------------------------------------------------------------------
# parsing: the flag table for well-formed lines, argparse for the rest


def _argparse(argv):
    """build_parser().parse_args(argv), or ("exit", code) when argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return ("exit", exc.code)


def _subparser(name):
    parser = cli.build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices[name]


@pytest.mark.parametrize("argv", [["-h"], ["check", "-h"]])
def test_help_exits_0_with_the_parsers_help(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = _subparser(argv[0]) if len(argv) > 1 else cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == (parser.format_help(), "")


def test_abbreviated_flags_parse_as_the_full_ones(capsys):
    full = run(capsys, "check", "tms", "--gen", "z", "--cutoff", "4", "--theta-points", "3")
    assert full[0] == 0
    assert run(capsys, "check", "tms", "--gen", "z", "--cut", "4", "--theta", "3") == full


def test_a_value_argparse_reads_as_an_option_is_a_usage_error(capsys):
    # argparse takes "-0.5" and "-.5" for negative numbers, not "-1e-3"
    with pytest.raises(SystemExit) as exc:
        cli.main(["state", "tms", "--alpha", "-1e-3"])
    assert exc.value.code == 2
    assert "error: argument --alpha: expected one argument\n" in capsys.readouterr().err
    assert run(capsys, "state", "tms", "--alpha=-.5") == (2, "", "error: alpha must be > 0\n")


def test_a_twomode_coefficient_may_take_the_exponent_form(capsys):
    # "-1e-3" was read as an option: "argument --coeffs: expected 4
    # arguments", and a flag of four values has no "--coeffs=..." form
    argv = ["twomode", "--coeffs", "1", "-1e-3", "-2.5E+4", "-.5"]
    parsed = cli.build_parser().parse_args(argv)
    assert parsed.coeffs == [1.0, -1e-3, -2.5e4, -0.5]
    assert cli._parse(argv) == parsed
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert rc == 0 and err == ""
    assert json.loads(out)["coefficients"] == [1.0, -1e-3, -2.5e4, -0.5]
    # the other subcommands keep argparse's rule, which has no exponent
    assert cli._parse(["state", "tms", "--alpha", "-1e-3"]) is None
    assert _argparse(["state", "tms", "--alpha", "-1e-3"]) == ("exit", 2)


_OPTIONS = sorted({o for name in cli.build_parser().flag_tables
                   for o in _subparser(name)._option_string_actions})
_VALUES = ["-0.5", "-.5", "-1e-3", "nan", "inf", "08", "a b", "-a b", "", "-", "0.5", "4",
           "x", "tms", "wire", "bell:phi+", "json", "text", "dot", "xml"]
_ABBREVIATIONS = ["--cut", "--theta", "--a", "--fo", "--c"]
# flags and values that most subcommands take, apart or joined by "="
_FITTING = st.sampled_from([
    ("--alpha", "0.5"), ("--alpha", "-.5"), ("--alpha", "nan"), ("--spins", "08"),
    ("--g", "a b"), ("--format", "json"), ("--format", "text"), ("--out", "-a b"),
]).flatmap(lambda t: st.sampled_from([list(t), ["=".join(t)]]))
# anything else: one token, a flag and a value, or a flag and four values
_ODD = st.one_of(
    st.sampled_from(_OPTIONS + _VALUES + _ABBREVIATIONS + ["--"]).map(lambda t: [t]),
    st.tuples(st.sampled_from(_OPTIONS + _ABBREVIATIONS), st.sampled_from(_VALUES))
    .flatmap(lambda t: st.sampled_from([list(t), ["=".join(t)]])),
    st.lists(st.sampled_from(_VALUES), min_size=4, max_size=4).map(lambda v: ["--coeffs", *v]),
)
# what a line of each subcommand starts with: nothing, a state, a state and --gen
_HEADS = {"check": [[], ["tms"], ["tms", "--gen", "z"]],
          "twomode": [[], ["--coeffs", "1", "0", "-.5", "0"]]}


@st.composite
def _lines(draw):
    command = draw(st.sampled_from([*cli.build_parser().flag_tables, "nope", "--config", "-h"]))
    heads = _HEADS.get(command, [[], ["tms"]])
    runs, odd = draw(st.lists(_FITTING, max_size=3)), draw(st.lists(_ODD, max_size=1))
    runs = odd + runs if draw(st.booleans()) else runs + odd
    head = heads[min(draw(st.integers(0, 3)), len(heads) - 1)]
    return [command, *head, *(t for run in runs for t in run)]


@settings(max_examples=500, deadline=None)
@given(argv=_lines())
@example(argv=["twomode", "--coeffs", "1", "0", "-.5", "0", "--coeffs=1"])
@example(argv=["state", "tms", "--alpha", "-1e-3"])
@example(argv=["state", "tms", "--alpha"])
@example(argv=["state", "-1e-3"])
@example(argv=["state", "-.5", "--alpha", "-0.5"])
@example(argv=["state", "tms", "--alpha", "nan", "--format=dot"])
@example(argv=["state", "tms", "--format", "xml"])
@example(argv=["oracle", "tms", "--cutoff", "x"])
@example(argv=["check", "tms", "--cut", "4"])
@example(argv=["check", "tms"])
@example(argv=["state", "tms", "wire"])
@example(argv=["state", "--", "tms"])
def test_the_flag_table_parses_a_subset_of_what_argparse_parses(argv):
    parsed, expected = cli._parse(argv), _argparse(argv)
    if parsed is not None:
        assert isinstance(expected, argparse.Namespace), argv  # argparse did not exit
        # repr compares NaN to NaN ("--alpha nan"); vars order may differ
        assert repr(sorted(vars(parsed).items())) == repr(sorted(vars(expected).items()))


def test_every_benchmark_command_line_takes_the_flag_table(tmp_path):
    sys.path.insert(0, str(SRC.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for workload in ("solve", "verify", "small"):
        for command in workloads.build(workload, 31, str(tmp_path)):
            parsed = cli._parse(command.argv)
            assert parsed is not None, command.argv
            assert parsed == cli.build_parser().parse_args(command.argv)


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
    zero, fully dense, drawn from a small pool of values mixed with zeros, or
    built by schwinger.from_coordinates from sparse coordinate rows, as the
    nullifiers payload builds it, so that its lower triangle holds -0.0
    where the upper holds an imaginary 0.0; dim 0 and dims across blocks."""
    n = draw(st.integers(1, 4))
    block = draw(_BLOCKS)
    rows = max(1, block // (2 * n * n))  # generators per block
    dim = draw(st.sampled_from([0, 1, 2, 5]) | st.integers(rows - 1, 2 * rows + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zero", "dense", "pool", "coords"]))
    if kind == "zero":
        parts = np.zeros((dim, n, n, 2))
    elif kind == "dense":
        parts = rng.standard_normal((dim, n, n, 2)) * 10.0 ** rng.integers(-20, 20, (dim, n, n, 2))
    elif kind == "coords":
        pool = np.array(draw(_STACK_POOL) + [0.5])
        pool = pool[np.isfinite(pool)]  # the coordinates of a nullifier basis
        coords = np.where(rng.random((dim, n * n)) < 0.3, rng.choice(pool, (dim, n * n)), 0.0)
        return block, schwinger.from_coordinates(coords)
    else:
        pool = np.array(draw(_STACK_POOL) + [0.0])
        parts = rng.choice(pool, (dim, n, n, 2))
    # a view, not re + 1j * im: 1j * inf would turn the real part into NaN
    return block, parts.view(complex)[..., 0]


# values whose text json spells its own way, or that equal another value
# but not its bits
_SPECIALS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324]


def _special_stack(n, dim=None, values=_SPECIALS):
    """A (dim, n, n) stack whose part p of generator r is values[(r + p) % len(values)].

    Over len(values) generators, the default dim, every value sits in every
    separator class: real parts, imaginary parts inside a record and the
    record's last one; one bit pattern is in several classes of a block,
    and from n = 2 on a record's last value also appears inside it.
    """
    dim = len(values) if dim is None else dim
    parts = np.array(values)[(np.arange(dim)[:, None] + np.arange(2 * n * n)) % len(values)]
    return parts.view(complex).reshape(dim, n, n)


def _at_each_block(*stacks):
    """One @example per stack and writer block size: 1, 100 and cli.BLOCK."""
    def wrap(test):
        for stack in stacks:
            for block in (1, 100, cli.BLOCK):
                test = example(drawn=(block, stack), as_list=False)(test)
        return test
    return wrap


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(drawn=_generator_stacks(), as_list=st.booleans())
@example(drawn=(1, _special_stack(2)), as_list=False)  # one record per block
@example(drawn=(1, _special_stack(1)), as_list=False)  # no imaginary part inside a record
@example(drawn=(100, _special_stack(3)), as_list=True)
@example(drawn=(cli.BLOCK, _special_stack(2, 1)), as_list=False)  # one record
@example(drawn=(cli.BLOCK, np.full((3, 2, 2), 0.3 + 0.3j)), as_list=False)  # one value
# signed zeros, which the writer sets aside before it sorts: -0.0 as the only
# zero, blocks of nothing but +-0.0, and -0.0 beside NaN, +-inf and 5e-324 in
# every separator class
@_at_each_block(
    np.resize([-0.0, 0.5, -0.0, -0.25, 1.0, -0.0], (4, 2, 2, 2)).view(complex)[..., 0],
    np.resize([0.0, -0.0, -0.0], (13, 2, 2, 2)).view(complex)[..., 0],
    _special_stack(2, values=_SPECIALS[1:]),
)
def test_generator_stack_writer_matches_the_per_matrix_payload(drawn, as_list):
    block, stack = drawn
    generators = list(stack) if as_list else stack
    # the nullifiers payload holds the stack as a top-level value
    new = {"generators": cli._generator_table(generators, stack.shape[1]), "n": 1}
    old = {"generators": [graphs.matrix_to_json(g) for g in stack], "n": 1}
    with mock.patch.object(cli, "BLOCK", block):
        assert cli._json_dumps(new) == json.dumps(old, indent=2) + "\n"


def test_nullifiers_payload_writer_matches_the_stdlib_payload():
    # singular values with subnormals and signed zeros, and expressions with
    # the non-ASCII middle dot and wire labels, beside a generator table
    stack = _special_stack(2, 2)
    values = [1.0, 0.5, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1e16]
    expressions = ["1.0·S^z_{0a,0b} - 0.5·S^x_{0a,1b}", "1.0·S^0_{1a,1a}", "0"]
    payload = {"state": "wire", "dimension": 2, "borderline": False}
    new = payload | {"singular_values": cli._flat(values),
                     "generators": cli._generator_table(stack, 2),
                     "expressions": cli._flat(expressions)}
    old = payload | {"singular_values": values,
                     "generators": [graphs.matrix_to_json(g) for g in stack],
                     "expressions": expressions}
    assert cli._json_dumps(new) == json.dumps(old, indent=2) + "\n"
    empty = {"singular_values": cli._flat([]), "expressions": cli._flat([])}
    assert cli._json_dumps(empty) == json.dumps(dict.fromkeys(empty, []), indent=2) + "\n"


_ONE_ULP = np.nextafter(0.1, 1.0)
_SPECIAL_AMPS = {
    (0, 0): complex(0.5, 0.5),
    (1, 1): complex(-0.0, 0.5),
    (0, 2): complex(0.5, -0.0),
    (2, 0): complex(5e-324, 1.0),
    (2, 2): complex(1.0, 5e-324),
    (3, 1): complex(float("inf"), -0.5),
    (1, 3): complex(-0.5, float("-inf")),
    (0, 4): complex(float("nan"), float("inf")),
    (4, 0): complex(float("-inf"), float("nan")),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(v=fock_vectors(), block=_BLOCKS)
@example(v=fock_vector(1, 600, {(300,): complex(0.1, -0.0), (256,): complex(_ONE_ULP, 0.0)}), block=1)
@example(v=fock_vector(2, 4, {(1, 1): complex(float("nan"), float("inf")), (0, 2): 1.0}), block=8)
@example(v=fock_vector(3, 4, {(0, 0, 2): 1e-15 + 0j}), block=cli.BLOCK)
# each special value as a real and as an imaginary part, a value that is
# both parts of a record, an occupation inside and at the end of the list
@example(v=fock_vector(2, 4, _SPECIAL_AMPS), block=1)
@example(v=fock_vector(2, 4, _SPECIAL_AMPS), block=cli.BLOCK)
@example(v=fock_vector(1, 8, {(o,): a for o, a in zip(range(0, 9, 2), _SPECIAL_AMPS.values())}),
         block=1)
@example(v=fock_vector(2, 2, {(1, 1): complex(0.5, 0.5)}), block=cli.BLOCK)  # one record
def test_oracle_writer_matches_the_stdlib_payload(v, block):
    new, old = cli._fock_payload(v), fock_to_json(v)
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


@pytest.mark.parametrize("spins", ["-3", "1", "2"])
@pytest.mark.parametrize("command", [["state"], ["check", "--gen", "local:0"]])
def test_a_wire_below_three_spins_is_invalid_input(capsys, command, spins):
    # two spins reached dual_rail_wire's check, whose message WireLayout now
    # gives for every count below three
    argv = [command[0], "wire", "--spins", spins, *command[1:]]
    assert run(capsys, *argv) == (2, "", "error: a periodic wire needs at least 3 spins\n")


@pytest.mark.parametrize("command", [["state"], ["check", "--gen", "local:0"]])
def test_an_allocation_failure_is_invalid_input(capsys, monkeypatch, command):
    # numpy's MemoryError for --spins 100000 ended in a traceback and exit 1;
    # the builder raises it here, so nothing is allocated
    message = (
        "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
        "and data type float64"
    )

    def too_large(layout):
        raise MemoryError(message)

    monkeypatch.setattr(states, "wire_mixer", too_large)
    argv = [command[0], "wire", "--spins", "100000", *command[1:]]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def _allowed_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif(_allowed_cpus() < 2, reason="needs 2 CPUs to run a second BLAS thread")
def test_check_json_is_the_same_on_one_and_two_blas_threads():
    # the Fock norms were np.vdot, which OpenBLAS splits over threads on long
    # vectors: this fock_residual (a 12376-amplitude sector) read
    # 9.349328637509743e-17 on one thread and ...744e-17 on two
    argv = ["check", "wire", "--spins", "6", "--alpha", "0.7", "--gen", "local:0",
            "--cutoff", "6", "--format", "json"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "gnl.cli", *argv], capture_output=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert b'"fock_residual"' in outs[0]
    assert outs[0] == outs[1]


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
        # json reads true as a bool, which complex() took as 1.0
        '{"n": 2, "entries": [[0, 0], [true, 0], [1, 0], [0, 0]]}',
        # an integer past the float range exited 1 with an OverflowError
        '{"n": 1, "entries": [[1%s, 0]]}' % ("0" * 400),
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
        # an integer past the float range exited 1 with an OverflowError
        '{"n": 2, "terms": [{"axis": "z", "pair": [0, 1], "coeff": 1%s}]}' % ("0" * 400),
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


def test_an_oracle_at_the_edge_exits_with_2(capsys):
    # tanh(40) is 1.0: oracle printed flat amplitudes of 5.77e-01 and exit 0
    rc, out, err = run(capsys, "oracle", "tms", "--alpha", "40", "--cutoff", "4")
    _assert_input_error(rc, out, err)
    assert "spectral norm of K is at or above the edge" in err


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
