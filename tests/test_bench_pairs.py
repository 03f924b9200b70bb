"""tools/bench_pairs.py's pairing and summary, on made-up runs (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(**values):
    return {"correct": True, "metrics": {k: {"unit": "s", "value": v} for k, v in values.items()}}


def test_the_parent_runs_first_on_odd_pairs():
    runs = bench_pairs.alternate(3, lambda side, pair: result())
    assert [(r["pair"], r["side"]) for r in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"), (3, "parent"), (3, "change")]


def test_wins_follow_the_better_direction_and_only_complete_pairs_count():
    walls = {"parent": [1.0, 2.0, 3.0, 4.0, 9.0], "change": [0.5, 2.5, 2.0, 3.0, None]}
    runs = [{"pair": p + 1, "side": side, "result": result(**(
                {"w.wall_s": v, "w.blocks_per_s": 1 / v} if v is not None else {}))}
            for side, values in walls.items() for p, v in enumerate(values)]
    summary = bench_pairs.summarise(runs, {"wall_s": "lower", "blocks_per_s": "higher"})
    wall, rate = summary["w.wall_s"], summary["w.blocks_per_s"]
    assert wall["pairs"] == rate["pairs"] == 4
    assert wall["parent"]["samples"] == [1.0, 2.0, 3.0, 4.0]
    assert wall["parent"]["median"] == 2.5
    assert wall["parent"]["quartiles"] == pytest.approx([1.75, 3.25])
    assert wall["change_wins"] == rate["change_wins"] == 3
    assert (wall["better"], rate["better"]) == ("lower", "higher")


def verdicts(parent, change, name="w.wall_s", bounds=None):
    """The summary's two verdicts on made-up wall times (lower is better); by
    default w.wall_s has a bound of 0.24 and no other metric has one."""
    runs = [{"pair": p + 1, "side": side, "result": result(**{name: v})}
            for side, values in (("parent", parent), ("change", change))
            for p, v in enumerate(values)]
    entry = bench_pairs.summarise(runs, {"wall_s": "lower"},
                                  bounds or {"w.wall_s": 0.24})[name]
    return entry["gain_shown"], entry["regression"]


PARENT = [1.00, 1.01, 1.02, 0.99, 1.00, 1.01, 0.98, 1.00, 1.02, 0.99]


def test_a_gain_shows_at_nine_wins_in_ten_beyond_the_parents_spread():
    change = [v - 0.1 for v in PARENT[:9]] + [PARENT[9]]     # a tie in pair 10
    assert verdicts(PARENT, change) == (True, "none")


def test_no_gain_shows_at_eight_wins_or_within_the_parents_spread():
    eight = [v - 0.1 for v in PARENT[:8]] + [PARENT[8] + 0.01, PARENT[9]]
    assert verdicts(PARENT, eight)[0] is False
    narrow = [v - 0.001 for v in PARENT]                      # wins all, moves less than the spread
    assert verdicts(PARENT, narrow)[0] is False


def test_a_median_worse_by_more_than_the_bound_regressed():
    assert verdicts(PARENT, [1.3 * v for v in PARENT]) == (False, "regressed")


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_change_sample_wins():
    parent = [1.0, 1.5, 0.7, 1.4, 0.8, 1.3, 0.9, 1.2, 0.6, 1.0]    # quartiles 0.8-1.3
    assert verdicts(parent, parent) == (False, "unresolved")
    assert verdicts(parent, [0.5] * 10)[1] == "none"


def test_fewer_than_ten_pairs_give_no_verdict():
    # one pair the change wins: one parent sample has a quartile spread of 0
    assert verdicts(PARENT[:1], [0.5]) == (None, None)
    assert verdicts(PARENT[:9], [v - 0.1 for v in PARENT[:9]]) == (None, None)


def test_within_the_bound_is_no_regression_and_no_bound_no_verdict():
    assert verdicts(PARENT, [1.1 * v for v in PARENT]) == (False, "none")
    assert verdicts(PARENT, [1.3 * v for v in PARENT], name="w.unbounded_s") == (False, None)


def test_the_headline_wall_time_takes_the_benchmarks_wall_s_bound():
    benchmark = json.loads((PATH.parent.parent / "BENCHMARK.json").read_text())
    wall = next(m["bound"] for m in benchmark["end_to_end"] if m["name"] == "wall_s")
    bounds = bench_pairs.end_to_end_bounds(benchmark)
    assert bounds["headline.wall_s"] == wall
    assert all(bounds[f"{w['name']}.wall_s"] == wall for w in benchmark["workloads"])
    slower = [(1 + 1.25 * wall) * v for v in PARENT]
    assert verdicts(PARENT, slower, "headline.wall_s", bounds) == (False, "regressed")
    assert verdicts(PARENT, PARENT, "headline.wall_s", bounds) == (False, "none")
