"""tools/output_contract.py: two checkouts run the benchmark commands and parser lines alike."""

import importlib.util
import json
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_contract.py"
_spec = importlib.util.spec_from_file_location("output_contract", TOOL)
output_contract = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_contract)


def test_differences_name_each_differing_part_with_its_first_line():
    argvs = [["state", "tms"], ["nullifiers", "tms"], ["check", "tms", "--gen", "q"]]
    parent = [[0, "a\nb\n", ""], [0, "x\n", ""], [2, "", "error: q\n"]]
    change = [[0, "a\nb", ""], [0, "x\ny\n", ""], [1, "", "error: r\n"]]
    assert output_contract.differences(argvs, parent, parent) == []
    assert output_contract.differences(argvs, parent, change) == [
        (argvs[0], "stdout", "a\nb\n", "a\nb"),
        (argvs[1], "stdout", "", "y"),
        (argvs[2], "exit code", 2, 1),
        (argvs[2], "stderr", "error: q", "error: r"),
    ]


def test_a_checkout_matches_itself_and_a_doctored_copy_is_reported(tmp_path, capsys):
    runs = [("small", 31)]
    assert output_contract.compare(ROOT, ROOT, runs) == (192, 0)
    assert capsys.readouterr().out.splitlines()[-1] == "all: 0 of 192 commands differ"

    # the doctored copy spells the text header of every text report differently
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "gnl" / "cli.py"
    cli.write_text(cli.read_text().replace('"gnl-report v1"', '"gnl-report v2"'))
    total, differing = output_contract.compare(ROOT, tmp_path, runs)
    out = capsys.readouterr().out.splitlines()
    reported = [line for line in out if line.startswith("small seed 31: ") and "differs" in line]
    assert reported and all(line.endswith(": stdout differs") for line in reported)
    assert "  parent: 'gnl-report v1'" in out and "  change: 'gnl-report v2'" in out
    assert out.count("  structural: non-numeric text") == len(reported)
    assert f"small seed 31: {len(reported)} of 192 commands differ ({len(reported)} structural)" in out
    assert (total, differing) == (192, len(reported))
    assert out[-1] == f"all: {len(reported)} of 192 commands differ"


def test_the_command_line_needs_both_checkouts(capsys):
    with pytest.raises(SystemExit) as exc:
        output_contract.main(["--parent", str(ROOT)])
    assert exc.value.code == 2
    assert "--parent and --change are required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, kind",
    [
        ([0, "x\n", ""], [1, "x\n", ""], "structural: exit code"),
        ([2, "", "error: q\n"], [2, "", "error: r\n"], "structural: stderr"),
        ([0, '{"a": 1.0}', ""], [0, '{"b": 1.0}', ""], "structural: keys"),
        ([0, '{"pass": true}', ""], [0, '{"pass": false}', ""], "structural: verdicts"),
        ([0, '{"occ": [1, 2]}', ""], [0, '{"occ": [1, 3]}', ""], "structural: counts"),
        ([0, '{"amps": [1.0]}', ""], [0, '{"amps": [1.0, 0.5]}', ""], "structural: counts"),
        ([0, '{"s": "tms"}', ""], [0, '{"s": "wire"}', ""], "structural: non-numeric text"),
        ([0, '{"r": 1}', ""], [0, '{"r": 1.0}', ""], "structural: value types"),
        ([0, "kept amplitudes 12\n", ""], [0, "kept amplitudes 13\n", ""], "structural: counts"),
        ([0, "gnl-report v1\nres 1e-16\n", ""], [0, "gnl-report v2\nres 1e-16\n", ""],
         "structural: non-numeric text"),
        ([0, '{"n": 2, "re": [0.5, -0.25], "pass": true}', ""],
         [0, '{"n": 2, "re": [0.5, -0.2500001], "pass": true}', ""],
         "numbers only: largest change 1.00e-07, 2.00e-07 of the payload's max |value| 5.00e-01"),
        ([0, "g0: 0.5 S^z\nfock residual 7.43e-17\n", ""],
         [0, "g0: 0.5 S^z\nfock residual 6.39e-17\n", ""],
         "numbers only: largest change 1.04e-17, 2.08e-17 of the payload's max |value| 5.00e-01"),
        ([0, '{"dev": 0.0}', ""], [0, '{"dev": -0.0}', ""],
         "numbers only: largest change 0.00e+00, 0.00e+00 of the payload's max |value| 0.00e+00"),
        ([0, '{"dev": 1.0}', ""], [0, '{"dev": NaN}', ""],
         "numbers only: largest change inf, inf of the payload's max |value| 1.00e+00"),
    ],
)
def test_each_difference_is_structural_or_numbers_only(old, new, kind):
    assert output_contract.classify(old, new) == kind


def test_the_parser_lines_run_alike_with_their_config_file(tmp_path, capsys):
    argvs = output_contract.parser_lines(tmp_path)
    config = tmp_path / "config.json"
    assert ["--config", str(config), "state", "tms"] in argvs and config.exists()
    assert output_contract.compare(ROOT, ROOT, [output_contract.PARSER_RUN]) == (len(argvs), 0)
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [f"parser lines: 0 of {len(argvs)} commands differ (0 structural)",
                        f"all: 0 of {len(argvs)} commands differ"]


def test_the_writer_edge_lines_run_alike_with_their_g_files(tmp_path, capsys):
    argvs = output_contract.edge_lines(tmp_path)
    assert len(argvs) == 3 * len(output_contract.EDGE_GRAPHS) + 1
    assert output_contract.compare(ROOT, ROOT, [output_contract.EDGE_RUN]) == (len(argvs), 0)
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == f"writer edge lines: 0 of {len(argvs)} commands differ (0 structural)"
    # every line but the last writes its JSON, and the 1-mode G has no nullifier
    commands = tmp_path / "commands.json"
    commands.write_text(json.dumps(argvs))
    results = output_contract.run_checkout(ROOT, commands, tmp_path / "results.json")
    assert all(code == 0 and err == "" for code, _, err in results)
    payloads = {(argv[0], Path(argv[3]).stem): json.loads(out)
                for argv, (_, out, _) in zip(argvs[:-1], results)}
    assert payloads["nullifiers", "one"]["generators"] == []
    assert payloads["nullifiers", "zero"]["dimension"] == 4
    assert payloads["state", "edge"]["n"] == 3
    # the text report of the reflection spells small coefficients as d.de-XX
    assert argvs[-1][-2:] == ["--format", "text"]
    text = results[-1][1]
    assert "dimension 28\n" in text and len(re.findall(r"\de-(?:0[5-9]|1[0-2])·", text)) > 100


def test_the_worker_pins_the_terminal_width_that_argparse_wraps_to(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "30")
    commands = tmp_path / "commands.json"
    commands.write_text(json.dumps([["-h"], ["state", "tms", "--format", "xml"]]))
    (help_code, help_out, _), (code, _, err) = output_contract.run_checkout(
        ROOT, commands, tmp_path / "results.json")
    assert (help_code, code) == (0, 2)
    assert help_out.startswith("usage: gnl [-h] [--config CONFIG]\n"
                               "           {state,nullifiers,check,twomode,oracle,export} ...\n")
    assert err.endswith("gnl state: error: argument --format: invalid choice: 'xml' "
                        "(choose from 'json', 'dot', 'text')\n")


def test_a_doctored_parser_is_reported_on_the_parser_lines(tmp_path, capsys):
    # the doctored copy abbreviates no flag: "--cut" and "--theta" become usage errors
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "gnl" / "cli.py"
    cli.write_text(cli.read_text().replace(
        'sub = parser.add_subparsers(dest="command", required=True)',
        'sub = parser.add_subparsers(dest="command", required=True)\n'
        '    sub.add_parser = functools.partial(sub.add_parser, allow_abbrev=False)'))
    total, differing = output_contract.compare(ROOT, tmp_path, [output_contract.PARSER_RUN])
    out = capsys.readouterr().out
    assert (total, differing) == (len(output_contract.PARSER_LINES), 1)
    assert "parser lines: check tms --gen z --cut 4 --theta 3: exit code differs" in out


def test_the_exponent_form_twomode_line_is_the_one_a_parent_parser_refuses(tmp_path, capsys):
    # argparse's own rule (^-\d+$|^-\d*\.\d+$) read "-1e-3" as an option, so a
    # copy that keeps it for twomode differs on that parser line alone
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "gnl" / "cli.py"
    text = cli.read_text()
    assert "    p._negative_number_matcher = _NEGATIVE_NUMBER\n" in text
    cli.write_text(text.replace("    p._negative_number_matcher = _NEGATIVE_NUMBER\n", ""))
    total, differing = output_contract.compare(tmp_path, ROOT, [output_contract.PARSER_RUN])
    out = capsys.readouterr().out
    assert (total, differing) == (len(output_contract.PARSER_LINES), 1)
    assert ("parser lines: twomode --coeffs 1 -1e-3 0 0: exit code differs\n"
            "  parent: 2\n  change: 0\n") in out
