"""tools/bench_pairs.py on synthetic result lines and fake runs: no benchmark runs."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "latency_ms_tail", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "answered_share", "unit": "share", "better": "higher", "bound": 0.05},
]


def result(tail, throughput, share=1.0, correct=True, attempted=100):
    """A perfbench/run.py result line."""
    values = {"latency_ms_tail": tail, "throughput_per_s": throughput, "answered_share": share}
    return {
        "attempted": attempted,
        "correct": correct,
        "failed": 0,
        "metrics": {name: {"unit": "x", "value": v} for name, v in values.items()},
    }


def pair(workload, parent, change):
    return {"workload": workload, "seed": 1, "first": "parent", "parent": parent, "change": change}


def test_medians_quartiles_and_wins_per_workload():
    runs = [
        pair("w", result(2.0, 100), result(1.5, 120)),
        pair("w", result(2.2, 110), result(2.2, 105)),  # a tie on the tail
        pair("w", result(2.1, 90), result(2.3, 130)),
        pair("w", result(1.9, 95), result(1.8, 100)),
        pair("v", result(1.0, 10, 0.5), result(1.0, 10, 0.5)),
    ]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert list(summary) == ["w", "v"]
    tail = summary["w"]["latency_ms_tail"]
    assert tail == {
        "better": "lower",
        "parent_median": 2.05,
        "change_median": 2.0,
        "parent_quartiles": [1.975, 2.05, 2.125],
        "change_quartiles": [1.725, 2.0, 2.225],
        "change_wins": "2/4",
        "verdict": "within bound",
        "gain": False,
    }
    throughput = summary["w"]["throughput_per_s"]
    assert throughput["better"] == "higher"
    assert (throughput["parent_median"], throughput["change_median"]) == (97.5, 112.5)
    assert throughput["change_wins"] == "3/4"
    # equal values on every pair: ties count for neither side
    assert summary["v"]["answered_share"]["change_wins"] == "0/1"
    assert summary["v"]["answered_share"]["parent_quartiles"] == [0.5, 0.5, 0.5]
    assert summary["w"]["correct"] and summary["v"]["correct"]


@pytest.mark.parametrize(
    "better, parent, change, expected",
    [
        # medians 100 -> 80 with higher better: 20 % worse, inside a 25 % bound
        ("higher", [98, 100, 102], [78, 80, 82], "within bound"),
        ("higher", [98, 100, 102], [70, 74, 76], "worse beyond bound"),
        # lower better: 1.0 -> 1.3 ms is 30 % worse
        ("lower", [0.99, 1.0, 1.01], [1.29, 1.3, 1.31], "worse beyond bound"),
        ("lower", [0.99, 1.0, 1.01], [0.7, 0.72, 0.74], "within bound"),
        # the parent's IQR, 0.5 over a median of 1.0, is wider than the bound
        ("lower", [0.5, 0.75, 1.0, 1.25, 1.5], [0.9, 1.0, 1.1, 1.0, 1.0], "unresolved"),
        # ... unless every run of the change beats every run of the parent
        ("lower", [0.5, 0.75, 1.0, 1.25, 1.5], [0.3, 0.4, 0.45, 0.2, 0.4], "within bound"),
        # a worse median beyond the bound is reported whatever the spread
        ("lower", [0.5, 0.75, 1.0, 1.25, 1.5], [1.4, 1.5, 1.6, 1.4, 1.5], "worse beyond bound"),
        # a median of 0 takes the bound as absolute
        ("lower", [0, 0, 0], [0.2, 0.2, 0.2], "within bound"),
        ("lower", [0, 0, 0], [0.3, 0.3, 0.3], "worse beyond bound"),
    ],
)
def test_verdict_against_the_bound(better, parent, change, expected):
    assert bench_pairs.verdict(parent, change, better, 0.25) == expected


@pytest.mark.parametrize(
    "better, parent, change, expected",
    [
        # 10/10 wins, medians 100 -> 110 against a parent IQR of 4.5
        ("higher", list(range(95, 105)), list(range(105, 115)), True),
        # 9/10 wins is enough: one pair is lost
        ("higher", list(range(95, 105)), [90, *range(106, 115)], True),
        # ... but 8/10 is not, however far the medians move
        ("higher", list(range(95, 105)), [90, 91, *range(120, 128)], False),
        # a tie counts for neither side: 9 wins and a tie are 9/10, 8 and two ties 8/10
        ("higher", list(range(95, 105)), [95, *range(106, 115)], True),
        ("higher", list(range(95, 105)), [95, 96, *range(107, 115)], False),
        # every pair won, but by a median move inside the parent's IQR (4.5)
        ("higher", list(range(95, 105)), [p + 4 for p in range(95, 105)], False),
        # lower better: 1.0 -> 0.8 ms on every pair, parent IQR 0.075
        ("lower", [0.95, 1.0, 1.05] * 3 + [1.0], [0.75, 0.8, 0.85] * 3 + [0.8], True),
        # ... and the same numbers read the other way round are a loss
        ("higher", [0.95, 1.0, 1.05] * 3 + [1.0], [0.75, 0.8, 0.85] * 3 + [0.8], False),
        # fewer than ten pairs show no gain, even when the change wins them all
        ("higher", [10, 11, 12], [20, 21, 22], False),
        ("higher", [10, 11, 12], [20, 21, 11], False),
        ("higher", list(range(95, 104)), list(range(105, 114)), False),
        # at exactly ten pairs, all won far beyond the parent's IQR, it is one
        ("higher", list(range(95, 105)), list(range(200, 210)), True),
    ],
)
def test_gain_needs_nine_of_ten_pairs_and_a_median_beyond_the_parents_iqr(
    better, parent, change, expected
):
    assert bench_pairs.gain(parent, change, better) is expected


def test_every_metric_gets_a_gain_reading():
    runs = [pair("w", result(2.0, 100 + i), result(1.0, 200 + i)) for i in range(10)]
    runs[0]["change"] = result(2.5, 50)
    summary = bench_pairs.summarize(runs, END_TO_END)["w"]
    assert summary["throughput_per_s"]["change_wins"] == "9/10"
    assert summary["throughput_per_s"]["gain"] is True
    assert summary["latency_ms_tail"]["change_wins"] == "9/10"
    assert summary["latency_ms_tail"]["gain"] is True
    # every pair ties on answered_share
    assert summary["answered_share"]["gain"] is False


def test_one_incorrect_run_takes_every_gain_away():
    # a gain does not count where operations fail
    runs = [pair("w", result(2.0, 100 + i), result(1.0, 200 + i)) for i in range(10)]
    assert bench_pairs.summarize(runs, END_TO_END)["w"]["throughput_per_s"]["gain"] is True
    runs[3]["change"] = result(1.0, 203, correct=False)
    summary = bench_pairs.summarize(runs, END_TO_END)["w"]
    assert summary["throughput_per_s"]["change_wins"] == "10/10"
    assert summary["correct"] is False
    assert [summary[m["name"]]["gain"] for m in END_TO_END] == [False, False, False]


def test_every_workload_and_metric_gets_a_verdict():
    runs = [
        pair("w", result(2.0, 100), result(2.0, 60)),
        pair("w", result(2.0, 100), result(2.0, 70)),
        pair("v", result(1.0, 10, 1.0), result(1.0, 10, 0.9)),
    ]
    summary = bench_pairs.summarize(runs, END_TO_END)
    names = [metric["name"] for metric in END_TO_END]
    verdicts = {w: {m: summary[w][m]["verdict"] for m in names} for w in summary}
    assert verdicts == {
        "w": {
            "latency_ms_tail": "within bound",
            "throughput_per_s": "worse beyond bound",
            "answered_share": "within bound",
        },
        "v": {
            "latency_ms_tail": "within bound",
            "throughput_per_s": "within bound",
            "answered_share": "worse beyond bound",
        },
    }


def test_each_sides_median_attempted_count_per_workload():
    # peak_rss_mb grows with the passes a run keeps: read it against these
    runs = [
        pair("w", result(2.0, 100, attempted=16016), result(1.9, 120, attempted=20272)),
        pair("w", result(2.0, 100, attempted=16100), result(1.9, 120, attempted=19000)),
        pair("w", result(2.0, 100, attempted=15000), result(1.9, 120, attempted=21000)),
        pair("v", result(1.0, 10, attempted=40), result(1.0, 10, attempted=50)),
        pair("v", result(1.0, 10, attempted=45), result(1.0, 10, attempted=52)),
    ]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["w"]["attempted"] == {"parent_median": 16016, "change_median": 20272}
    assert summary["v"]["attempted"] == {"parent_median": 42.5, "change_median": 51}


def test_one_incorrect_run_marks_its_workload():
    runs = [
        pair("w", result(2.0, 100), result(1.5, 120, correct=False)),
        pair("w", result(2.0, 100), result(1.5, 120)),
    ]
    assert bench_pairs.summarize(runs, END_TO_END)["w"]["correct"] is False


ENV_LINE = '{"environment": {"cpu_model": "x", "nproc": 2, "python": "3", "source_sha256": "0"}}'


def fake_run(monkeypatch, stdout, stderr="", code=0):
    """Make every perfbench run print `stdout` and `stderr` and exit with `code`."""

    def run(argv, **_):
        return bench_pairs.subprocess.CompletedProcess(argv, code, stdout=stdout, stderr=stderr)

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)


def test_a_run_with_both_lines_is_read(monkeypatch):
    line = json.dumps(result(1.0, 10))
    fake_run(monkeypatch, f"report\n{ENV_LINE}\n{line}\n")
    got, env = bench_pairs.run_once("change", "/tree", "w", 7, 1)
    assert got == result(1.0, 10) and env["nproc"] == 2


@pytest.mark.parametrize(
    "stdout, missing",
    [
        ("", "environment line"),
        (json.dumps(result(1.0, 10)), "environment line"),
        (f"{ENV_LINE}\n", "result line"),
        (f"{ENV_LINE}\nTraceback (most recent call last):\n", "result line"),
        (f"{ENV_LINE}\n[1, 2]\n", "result line"),
    ],
)
def test_a_broken_run_names_its_workload_seed_and_side(monkeypatch, stdout, missing):
    stderr = "".join(f"line {i}\n" for i in range(30)) + "ValueError: boom\n"
    fake_run(monkeypatch, stdout, stderr, code=5)
    with pytest.raises(RuntimeError) as info:
        bench_pairs.run_once("parent", "/tree", "verify-random", 1907, 1)
    message = str(info.value)
    head = f"verify-random seed 1907, parent side in /tree: no {missing} (exit 5)\n"
    assert message.startswith(head)
    assert message.endswith("line 29\nValueError: boom") and "line 10\n" not in message


def test_every_run_compiles_the_package_from_source(monkeypatch):
    # valid __pycache__ files in the working tree would skip most of setup_s
    seen = []

    def run(argv, **kwargs):
        env = kwargs["env"]
        cache = env["PYTHONPYCACHEPREFIX"]
        assert env["BENCH_PAIRS_TEST"] == "kept"  # the rest of the environment is passed on
        seen.append((env["PYTHONDONTWRITEBYTECODE"], cache, sorted(os.listdir(cache))))
        line = json.dumps(result(1.0, 10))
        return bench_pairs.subprocess.CompletedProcess(argv, 0, stdout=f"{ENV_LINE}\n{line}\n")

    monkeypatch.setenv("BENCH_PAIRS_TEST", "kept")
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    for side in bench_pairs.SIDES:
        bench_pairs.run_once(side, "/tree", "w", 7, 1)
    assert [(flag, files) for flag, _, files in seen] == [("1", []), ("1", [])]
    # each run gets its own prefix, removed afterwards
    assert seen[0][1] != seen[1][1]
    assert not any(os.path.exists(cache) for _, cache, _ in seen)


@pytest.mark.parametrize(
    "change, correct, code, named",
    [
        (result(2.0, 100), True, 0, []),
        # throughput 100 -> 60/s is worse beyond its 25 % bound
        (result(2.0, 60), True, 1, ["w: throughput_per_s is worse beyond its bound"]),
        (result(3.0, 100, share=0.5), True, 1, [
            "w: latency_ms_tail is worse beyond its bound",
            "w: answered_share is worse beyond its bound",
        ]),
        (result(2.0, 100, correct=False), False, 1, []),
    ],
)
def test_the_exit_status_fails_on_a_regression_or_an_incorrect_run(
    monkeypatch, tmp_path, capsys, change, correct, code, named
):
    spec = {"workloads": [{"name": "w"}], "end_to_end": END_TO_END}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    env = {"cpu_model": "x", "nproc": 2, "python": "3", "source_sha256": "0"}
    sides = {"parent": result(2.0, 100), "change": change}
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "run_once", lambda side, *args: (sides[side], env))
    argv = ["--rev", "HEAD", "--label", "t", "--workload", "w", "--pairs", "3", "--seed", "1"]
    assert bench_pairs.main(argv) == code
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["summary"]["w"]["correct"] is correct
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "bound" in line] == named
