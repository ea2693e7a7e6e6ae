"""The pair summary of tools/bench_pairs.py, on hand-written harness output."""

import importlib.util
import json
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(pair, side, ops, p50):
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
               "op_p50_ms": {"value": p50, "unit": "ms"}}
    final = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
    return {"workload": "solve", "seed": 5, "pair": pair, "side": side,
            "stdout": ['{"raw": {}}', '{"env": {}}', final]}


def test_summary_counts_wins_in_each_metric_direction():
    runs = [
        _run(0, "parent", 100.0, 4.0), _run(0, "change", 110.0, 3.0),
        _run(1, "change", 105.0, 5.0), _run(1, "parent", 100.0, 4.0),
        _run(2, "parent", 100.0, 4.0), _run(2, "change", 90.0, 4.0),
    ]
    rows = bench_pairs.summarize(runs, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    ops, p50 = rows["solve seed 5"]["ops_per_s"], rows["solve seed 5"]["op_p50_ms"]
    assert (ops["pairs"], ops["change_wins"], ops["change_losses"]) == (3, 2, 1)
    assert (p50["pairs"], p50["change_wins"], p50["change_losses"]) == (3, 1, 1)
    assert ops["parent_quartiles"] == [100.0, 100.0, 100.0]
    assert ops["change_quartiles"][1] == 105.0
    assert not ops["gain_shown"]  # 2 wins in 3 pairs


def test_a_gain_needs_nine_wins_in_ten_and_medians_beyond_the_parent_spread():
    runs = [r for i in range(10) for r in (_run(i, "parent", 100.0 + i % 2, 4.0),
                                            _run(i, "change", 103.0, 4.0))]

    def shown(name="ops_per_s"):
        better = {"ops_per_s": "higher", "op_p50_ms": "lower"}
        return bench_pairs.summarize(runs, better)["solve seed 5"][name]["gain_shown"]

    assert shown()
    assert not shown("op_p50_ms")  # ten ties
    runs[1] = _run(0, "change", 99.0, 4.0)  # one loss: 9 wins in 10 still holds
    assert shown()
    runs[3] = _run(1, "change", 99.0, 4.0)  # two losses
    assert not shown()


def test_a_run_without_a_result_line_is_left_out_of_its_pair():
    broken = _run(0, "change", 1.0, 1.0)
    broken["stdout"] = ["Traceback (most recent call last):"]
    rows = bench_pairs.summarize([_run(0, "parent", 100.0, 4.0), broken],
                                 {"ops_per_s": "higher"})
    assert rows["solve seed 5"] == {}


def test_traced_runs_are_summarized_apart():
    traced = [dict(_run(0, side, 50.0, 9.0), trace=1) for side in ("parent", "change")]
    rows = bench_pairs.summarize([_run(0, "parent", 100.0, 4.0), _run(0, "change", 110.0, 4.0)]
                                 + traced, {"ops_per_s": "higher"})
    assert rows["solve seed 5"]["ops_per_s"]["change_wins"] == 1
    assert rows["solve seed 5 traced"]["ops_per_s"]["change_quartiles"] == [50.0] * 3


def test_two_pairs_show_no_gain_however_large():
    runs = [r for i in range(2) for r in (_run(i, "parent", 100.0 + i, 4.0),
                                           _run(i, "change", 200.0, 4.0))]
    row = bench_pairs.summarize(runs, {"ops_per_s": "higher"})["solve seed 5"]["ops_per_s"]
    assert (row["pairs"], row["pairs_run"], row["change_wins"]) == (2, 2, 2)
    assert not row["gain_shown"]


def test_a_pair_with_a_failed_side_counts_against_the_gain():
    runs = [r for i in range(10) for r in (_run(i, "parent", 100.0 + i % 2, 4.0),
                                            _run(i, "change", 103.0, 4.0))]
    runs[1] = _run(0, "change", 99.0, 4.0)  # 9 wins in 10 pairs
    better = {"ops_per_s": "higher"}
    assert bench_pairs.summarize(runs, better)["solve seed 5"]["ops_per_s"]["gain_shown"]
    broken = _run(10, "change", 1.0, 1.0)
    broken["stdout"] = ["Traceback (most recent call last):"]
    runs += [_run(10, "parent", 100.0, 4.0), broken]  # 9 wins in 11 pairs
    row = bench_pairs.summarize(runs, better)["solve seed 5"]["ops_per_s"]
    assert (row["pairs"], row["pairs_run"], row["change_wins"]) == (10, 11, 9)
    assert not row["gain_shown"]


_REPORTER = """
import json, os
settings = {key: value for key, value in os.environ.items()
            if key.startswith("MALLOC_") or key == "OPENBLAS_NUM_THREADS"}
print(json.dumps({"settings": settings, "cpus": sorted(os.sched_getaffinity(0))}))
print(json.dumps({"metrics": {"ops_per_s": {"value": 1.0}}}))
"""


def test_both_sides_run_with_the_same_settings_on_the_same_cpu(tmp_path, monkeypatch, capsys):
    # each checkout's bench/run.py reports what its process was given
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(_REPORTER)
    # an inherited allocator tunable is dropped: both sides run the default allocator
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "1")
    monkeypatch.setenv("MALLOC_ARENA_MAX", "2")
    ours = os.sched_getaffinity(0)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "small",
                             "--seed", "1", "--pairs", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert os.sched_getaffinity(0) == ours  # only the children were pinned
    runs = json.loads(out.read_text())["runs"]
    assert sorted(r["side"] for r in runs) == ["change", "parent"]
    cpu = min(ours)
    for r in runs:
        assert json.loads(r["stdout"][0]) == {"settings": bench_pairs.CHILD_ENV, "cpus": [cpu]}
        assert (r["env"], r["cpu"]) == (bench_pairs.CHILD_ENV, cpu)
    assert bench_pairs.CHILD_ENV == {"OPENBLAS_NUM_THREADS": "1"}
