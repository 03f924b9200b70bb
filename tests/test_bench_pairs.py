"""tools/bench_pairs.py's pairing and summary, on made-up runs (no benchmark is run)."""

import importlib.util
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
