"""The verdict rules of scripts/bench_pair.py, on made-up paired runs; no
benchmark and no subprocess is run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

# ten base runs, median 1 and inclusive quartiles 0.9925 and 1.0075: a
# relative IQR of 1.5%; WIDE has a relative IQR of 80%
BASE = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
WIDE = [0.6, 1.4, 0.6, 1.4, 1.0, 1.0, 0.6, 1.4, 0.6, 1.4]


def scaled(runs, factor):
    return [factor * x for x in runs]


CASES = [
    # name, base, change, better, change_fails_more, verdict, wins
    ("every pair won by far", BASE, scaled(BASE, 0.8), "lower", False, "gain", 10),
    ("nine of ten won", BASE, scaled(BASE, 0.8)[:9] + [1.01], "lower", False, "gain", 9),
    ("higher is better", BASE, scaled(BASE, 1.2), "higher", False, "gain", 10),
    ("eight of ten won", BASE, scaled(BASE, 0.8)[:8] + [1.02, 1.01], "lower", False,
     "within_bound", 8),
    ("won inside the base spread", BASE, scaled(BASE, 0.995), "lower", False, "within_bound", 10),
    ("failed share vetoes a gain", BASE, scaled(BASE, 0.8), "lower", True, "within_bound", 10),
    ("worse by more than the bound", BASE, scaled(BASE, 1.3), "lower", False, "regression", 0),
    ("higher is better, lower by more than the bound", BASE, scaled(BASE, 0.7), "higher", False,
     "regression", 0),
    ("worse within the bound", BASE, scaled(BASE, 1.2), "lower", False, "within_bound", 0),
    ("base spread above the bound", WIDE, scaled(WIDE, 0.9), "lower", False, "unresolved", 10),
    ("wide base spread, every change run better", WIDE, [0.1] * 10, "lower", False, "gain", 10),
    ("every change run better, inside the base IQR", WIDE, [0.5] * 10, "lower", False,
     "within_bound", 10),
]


@pytest.mark.parametrize("name, base, change, better, fails_more, outcome, wins", CASES,
                         ids=[case[0] for case in CASES])
def test_verdict(name, base, change, better, fails_more, outcome, wins):
    got = bench_pair.verdict(base, change, better, 0.25, fails_more)
    assert got["verdict"] == outcome
    assert got["change_wins"] == wins
    assert got["change_wins"] + got["change_losses"] <= len(base)


def test_verdict_reports_medians_and_spread():
    got = bench_pair.verdict(BASE, scaled(BASE, 0.8), "lower", 0.25, False)
    assert got["base"] == pytest.approx({"median": 1.0, "q1": 0.9925, "q3": 1.0075})
    assert got["change"]["median"] == pytest.approx(0.8)
    assert got["relative_change"] == pytest.approx(-0.2)
    assert got["base_relative_iqr"] == pytest.approx(0.015)
    assert got["bound"] == 0.25


def test_failed_share():
    assert bench_pair.failed_share({"attempted": 40, "failed": 2}) == 0.05
    assert bench_pair.failed_share({"attempted": 0, "failed": 0}) == 0


WORKLOADS = ["reproduce", "verify", "search", "audit"]


def test_default_options_run_seeds_1_to_10_on_every_workload():
    args = bench_pair.parse_args(["--base", "abc123", "--out", "BENCH.json"], WORKLOADS)
    assert args.seeds == range(1, 11)
    assert args.workloads == WORKLOADS
    assert bench_pair.command_line(args) == (
        "python3 scripts/bench_pair.py --base abc123 --seeds 1-10 --workload reproduce"
        " --workload verify --workload search --workload audit --out BENCH.json")


def test_held_out_seeds_on_named_workloads():
    """Named workloads run in BENCHMARK.json's order, each once, and the
    command records the seeds and the workloads."""
    args = bench_pair.parse_args(["--base", "abc123", "--out", "held.json", "--seeds", "11-20",
                                  "--workload", "search", "--workload", "verify",
                                  "--workload", "search"], WORKLOADS)
    assert args.seeds == range(11, 21)
    assert args.workloads == ["verify", "search"]
    assert bench_pair.command_line(args) == (
        "python3 scripts/bench_pair.py --base abc123 --seeds 11-20 --workload verify"
        " --workload search --out held.json")
    one = bench_pair.parse_args(["--base", "b", "--out", "o", "--seeds", "7-7"], WORKLOADS)
    assert one.seeds == range(7, 8)


@pytest.mark.parametrize("extra", [["--seeds", "5-3"], ["--seeds", "0-4"], ["--seeds", "11"],
                                   ["--seeds", "a-b"], ["--seeds", "-3-4"],
                                   ["--workload", "witness"]])
def test_bad_options_are_refused(extra, capsys):
    with pytest.raises(SystemExit):
        bench_pair.parse_args(["--base", "b", "--out", "o", *extra], WORKLOADS)


def test_start_ms_alternates_the_two_children():
    """start_ms times each child with the injected clock and runs the two
    kinds in turn; no interpreter is started."""
    now = [0.0]
    calls = []

    def run(argv, check):
        assert check
        calls.append(argv[1:])
        now[0] += 0.012 if "-S" in argv else 0.057

    got = bench_pair.start_ms(run=run, clock=lambda: now[0], samples=3)
    assert got == pytest.approx({"python -c pass": 57.0, "python -S -c pass": 12.0})
    assert calls == [["-c", "pass"], ["-S", "-c", "pass"]] * 3


def test_import_ms_alternates_the_two_checkouts(tmp_path):
    """import_ms times a cold, cacheless import of euclid4.cli from each
    checkout's src with the injected clock, the sides taking turns going
    first; no interpreter is started."""
    base, change = tmp_path / "base", tmp_path / "change"
    cost = {str(base / "src"): 0.040, str(change / "src"): 0.035}
    now = [0.0]
    calls = []

    def run(argv, check, env):
        assert check and argv[1:] == ["-S", "-c", "import euclid4.cli"]
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        calls.append(env["PYTHONPATH"])
        now[0] += cost[env["PYTHONPATH"]]

    got = bench_pair.import_ms({"base": base, "change": change}, run=run,
                               clock=lambda: now[0], samples=3)
    assert got == pytest.approx({"base": 40.0, "change": 35.0})
    b, c = str(base / "src"), str(change / "src")
    assert calls == [b, c, c, b, b, c]
