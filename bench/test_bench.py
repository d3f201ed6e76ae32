"""Tests of the benchmark itself: python -m pytest bench -q"""

import copy
import json
import sys

import pytest

from answers import betti_oracle_problems, load_reference
from run import (END_TO_END, ROOT, Checker, load_library, median_of_means, run_pass,
                 sample_setup)
from spans import PER_LAYER, Tracer, layer_metrics, self_times

SMALL_BETTI = ["betti", "--blocks", "4", "--c", "2", "--imax", "2", "--field", "p=32003"]


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, None, None],
        ["a", 1.0, 4.0, 0, None, None],
        ["b", 2.0, 3.0, 1, None, None],
        ["c", 5.0, 9.0, 0, None, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_median_of_means():
    # blocks [9, 1], [1, 1], [1, 1]: one slow sample moves one block mean only
    assert median_of_means([9, 1, 1, 1, 1, 1], 3) == 1
    assert median_of_means([2.0, 4.0], 5) == 3.0


def test_reference_tables_satisfy_the_oracles():
    for key, table in load_reference()["betti"].items():
        blocks, c = ([int(x) for x in part.split(",")] for part in key.split("/"))
        entries = {(i, j): d for i, j, d in table["entries"]}
        assert betti_oracle_problems(blocks, c, entries, table["rows"]) == [], key


def test_oracles_catch_a_wrong_entry():
    table = load_reference()["betti"]["4/2"]
    entries = {(i, j): d for i, j, d in table["entries"]}
    entries[(2, 3)] += 1
    assert betti_oracle_problems([4], [2], entries, table["rows"])


def test_wrong_reference_answer_counts_as_failed():
    lib = load_library()
    _, answers, _ = run_pass(lib["cli"], [SMALL_BETTI])
    good = Checker(load_reference())
    good.check(answers)
    assert (good.attempted, good.failed) == (1, 0)

    wrong = copy.deepcopy(load_reference())
    for entry in wrong["betti"]["4/2"]["entries"]:
        if entry[:2] == [2, 3]:
            entry[2] += 1
    bad = Checker(wrong)
    bad.check(answers)
    assert bad.failed / bad.attempted > 0


def test_setup_sample_leaves_the_modules_in_use():
    lib = load_library()
    samples = []
    _, answers, _ = run_pass(lib["cli"], [SMALL_BETTI] * 2,
                             between=lambda: samples.append(sample_setup("sv", 1)))
    assert len(samples) == 2 and all(dt > 0 for dt in samples)
    assert sys.modules["koszul_lab.cli"] is lib["cli"]
    assert answers[0][1:] == answers[1][1:]


def test_traced_and_untraced_answers_are_identical():
    argvs = [SMALL_BETTI, ["verify", "signs"], ["verify", "maps", "--size", "5"],
             ["probe-q1", "--size", "3"]]
    _, plain, _ = run_pass(load_library()["cli"], argvs)
    lib = load_library()
    tracer = Tracer()
    tracer.install(lib)
    wall, traced, _ = run_pass(lib["cli"], argvs, tracer)
    assert tracer.missing == []
    assert [a[1:] for a in traced] == [a[1:] for a in plain]
    m = layer_metrics(tracer)
    assert m["cli.main.calls"] == len(argvs)
    assert m["linalg.rank.calls.gfp"] > 0
    assert sum(self_times(tracer.spans)) == pytest.approx(wall, rel=0.01)
    assert m["trace.wall_s"] <= wall


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
