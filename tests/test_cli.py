"""Command-line surface: payload shapes, exit codes, config handling."""

import json

import numpy as np
import pytest

from gnl import cli, graphs, schwinger


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
