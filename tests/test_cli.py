import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import koszul_lab
from koszul_lab.cli import (
    EXIT_INFEASIBLE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from koszul_lab import harness, rings
from koszul_lab.homology import InfeasibleError, KoszulComplex


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_signs(capsys):
    code, out = run_cli(capsys, "verify", "signs")
    assert code == EXIT_PASS
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["suite"] == "signs"


def test_verify_table_format(capsys):
    code, out = run_cli(capsys, "verify", "maincyc", "--format", "table")
    assert code == EXIT_PASS
    assert out.startswith("suite maincyc: pass")


@pytest.mark.parametrize(
    "argv, first",
    [
        (["verify", "check"], "suite check: pass (2 cases)"),
        (["probe-q1", "--size", "2"], "suite probe_q1: pass (2 cases)"),
        (["homology", "--ideal", '{"blocks": [2], "power": [2]}', "-t", "1", "--degree", "4"],
         "K_1 at degree (4,): dim K = 9, dim Z = 4, dim H = 1"),
        (["cycles", "--ideal", '{"blocks": [2], "power": [2]}', "-t", "1", "--degree", "3"],
         "dim Z = 2"),
        (["betti", "--blocks", "3", "--c", "2", "--imax", "2"],
         "betti table, rows 0..2 (certified windows)"),
        (["index", "--blocks", "4", "--c", "2", "--target", "6"], "index = 5 (violation at (6, 8))"),
    ],
    ids=["verify", "probe-q1", "homology", "cycles", "betti", "index"],
)
def test_table_format_prints_its_first_line_and_exits_as_json(capsys, argv, first):
    code, out = run_cli(capsys, *argv)
    json.loads(out)
    table_code, table = run_cli(capsys, *argv, "--format", "table")
    assert table_code == code and table.splitlines()[0] == first


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "--blocks", "990", "--c", "1"],
        ["index", "--blocks", "1200", "--c", "1"],
        ["betti", "--blocks", "1200", "--c", "1", "--imax", "2", "--field", "p=3"],
    ],
    ids=["index-990", "index-1200", "betti-1200"],
)
def test_a_thousand_variables_answer(capsys, argv):
    # past the recursion limit: every enumerator and the run scan are loops
    start = time.monotonic()
    code, out = run_cli(capsys, *argv)
    data = json.loads(out)
    assert code == EXIT_PASS and time.monotonic() - start < 10  # about 1 s on a 2-core x86 VM
    if argv[0] == "index":  # no entry of v_1(P^{n-1}) is nonzero: the range is exhausted
        assert (data["value"], data["exact"], data["witness"]) == (2, False, None)
    else:
        entries = {(e["i"], e["j"]): e["dim"] for e in data["entries"]}
        assert entries.pop((0, 0)) == 1 and entries and not any(entries.values())


def test_a_thousand_variables_homology_is_refused(capsys):
    start = time.monotonic()
    code = main(["homology", "--ideal", '{"blocks": [1200], "power": [1]}', "-t", "1",
                 "--degree", "2"])
    assert code == EXIT_INFEASIBLE and time.monotonic() - start < 10
    assert "dimension 1440000 over the ceiling" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "--blocks", "1200", "--c", "2"],
        ["index", "--blocks", "330", "--c", "2"],
        ["betti", "--blocks", "1200", "--c", "2", "--imax", "2"],
        ["homology", "--ideal", '{"blocks": [1200], "power": [2]}', "-t", "1", "--degree", "3"],
    ],
    ids=["index-1200", "index-330", "betti-1200", "homology-power"],
)
def test_a_power_with_too_many_generators_is_refused_unbuilt(capsys, monkeypatch, argv):
    # dim S_2 is 720,600 in 1,200 variables and 54,615 in 330, both over the
    # default ceiling: m^c is refused before any of its generators is built
    def unbuilt(*args):
        raise AssertionError("a generator of m^c was built")

    monkeypatch.setattr(rings, "component_basis", unbuilt)
    start = time.monotonic()
    code = main(argv)
    assert code == EXIT_INFEASIBLE and time.monotonic() - start < 10
    assert "generators, over the ceiling 50000" in capsys.readouterr().err


# run in a fresh interpreter: which library modules each command loads
_LOADED_BY_COMMANDS = """
import contextlib, io, json, sys
from koszul_lab.cli import main

def loaded():
    return [m for m in ("koszul_lab.harness", "koszul_lab.cycles") if m in sys.modules]

seen = {}
for argv in (["index", "--blocks", "3", "--c", "2"],
             ["betti", "--blocks", "3", "--c", "2", "--imax", "3"],
             ["homology", "--ideal", '{"blocks": [2], "power": [2]}', "-t", "1", "--degree", "3"],
             ["cycles", "--ideal", '{"blocks": [2], "power": [2]}', "-t", "1", "--degree", "3"],
             ["verify", "signs"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    seen[argv[0]] = loaded()
print(json.dumps(seen))
"""


def test_only_verify_loads_the_harness_and_the_cycle_families():
    src = Path(koszul_lab.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-B", "-c", _LOADED_BY_COMMANDS], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert {command: seen[command] for command in ("index", "betti", "homology", "cycles")} == {
        "index": [], "betti": [], "homology": [], "cycles": []}
    assert seen["verify"] == ["koszul_lab.harness", "koszul_lab.cycles"]


def test_unknown_suite_is_a_usage_error_naming_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument suite: invalid choice: 'nosuch' (choose from 'check', 'gen2'," in err
    assert len(harness.SUITES) == 14
    assert all(repr(name) in err for name in harness.SUITES)


def test_verify_help_names_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert set(harness.SUITES) <= set(capsys.readouterr().out.replace(",", " ").split())


def test_verify_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "verify", "remark_b", "--size", "4", "--seed", "9")
    _, out2 = run_cli(capsys, "verify", "remark_b", "--size", "4", "--seed", "9")
    assert out1 == out2


def test_homology_command(capsys):
    code, out = run_cli(
        capsys,
        "homology",
        "--ideal", '{"blocks": [2], "power": [2]}',
        "-t", "1",
        "--degree", "4",
    )
    assert code == EXIT_PASS
    data = json.loads(out)
    assert data["dim_K"] == 9 and data["dim_Z"] == 4 and data["dim_H"] == 1
    # a negative degree is an empty component, also in the fine grading
    code, out = run_cli(
        capsys, "homology", "--ideal", '{"blocks":[1],"power":[1]}', "-t", "0", "--degree=-1"
    )
    assert code == EXIT_PASS
    data = json.loads(out)
    assert data["dim_K"] == 0 and data["dim_Z"] == 0 and data["dim_H"] == 0


def test_homology_command_assembles_each_differential_once(capsys, monkeypatch):
    # phi_t for the cycles only; dim H is ranked per fine degree and
    # assembles no coarse differential
    calls = {}
    columns = KoszulComplex.boundary_columns

    def count(self, t, alpha):
        calls[t] = calls.get(t, 0) + 1
        return columns(self, t, alpha)

    monkeypatch.setattr(KoszulComplex, "boundary_columns", count)
    code, _ = run_cli(
        capsys, "homology", "--ideal", '{"blocks":[3],"power":[2]}', "-t", "2", "--degree", "6"
    )
    assert code == EXIT_PASS
    assert calls == {2: 1}


def test_cycles_command(capsys):
    code, out = run_cli(
        capsys,
        "cycles",
        "--ideal", '{"blocks": [2], "power": [2]}',
        "-t", "1",
        "--degree", "3",
    )
    assert code == EXIT_PASS
    data = json.loads(out)
    assert data["dim"] == 2 and len(data["cycles"]) == 2


def test_betti_command(capsys):
    code, out = run_cli(capsys, "betti", "--blocks", "3", "--c", "2", "--imax", "1")
    assert code == EXIT_PASS
    data = json.loads(out)
    entries = {(e["i"], e["j"]): e["dim"] for e in data["entries"]}
    assert entries[(1, 2)] == 6


def test_index_command(capsys):
    code, out = run_cli(capsys, "index", "--blocks", "2,2", "--c", "1,1")
    assert code == EXIT_PASS
    data = json.loads(out)
    assert data["satisfied"] and data["target"] == 2


def test_field_option(capsys):
    code, out = run_cli(
        capsys,
        "homology",
        "--ideal", '{"blocks": [2], "power": [2]}',
        "-t", "1",
        "--degree", "4",
        "--field", "p=32003",
    )
    assert code == EXIT_PASS
    assert json.loads(out)["dim_Z"] == 4


def test_usage_errors(capsys):
    assert run_cli(capsys, "verify", "regb", "--field", "banana")[0] == EXIT_USAGE
    assert run_cli(capsys, "verify", "maincyc", "--field", "p=3")[0] == EXIT_USAGE
    assert (
        run_cli(capsys, "homology", "--ideal", "not json", "-t", "1", "--degree", "2")[0]
        == EXIT_USAGE
    )
    for option, command in (("--imax", "betti"), ("--target", "index")):
        with pytest.raises(SystemExit) as exc:  # argparse rejects the value
            main([command, "--blocks", "3", "--c", "2", option, "0"])
        assert exc.value.code == EXIT_USAGE
        assert f"argument {option}: must be an integer >= 1, got '0'" in capsys.readouterr().err
    for argv in (["verify", "maincyc", "--cap", "slack=1"], ["probe-q1", "--cap", "slack=1"]):
        with pytest.raises(SystemExit) as exc:  # argparse rejects an unknown option
            main(argv)
        assert exc.value.code == EXIT_USAGE


def test_ideal_from_file(capsys, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text('{"blocks": [2], "power": [2]}')
    code, out = run_cli(capsys, "homology", "--ideal", f"@{path}", "-t", "1", "--degree", "4")
    assert code == EXIT_PASS
    assert json.loads(out)["dim_H"] == 1
    missing = f"@{tmp_path / 'missing.json'}"
    assert run_cli(capsys, "homology", "--ideal", missing, "-t", "1", "--degree", "4")[0] == EXIT_USAGE


def test_infeasible_exit(capsys):
    # a huge spec trips the component ceiling through the CLI, before ranking
    start = time.monotonic()
    code = main(["betti", "--blocks", "6", "--c", "3", "--imax", "4"])
    assert code == EXIT_INFEASIBLE
    assert time.monotonic() - start < 5  # 0.5 s on a 2-core x86 VM


def test_betti_table_over_the_ceiling_exits_at_once(capsys):
    start = time.monotonic()
    assert main(["betti", "--blocks", "3", "--c", "2", "--imax", "100000"]) == EXIT_INFEASIBLE
    assert "at least 50175 entries" in capsys.readouterr().err
    assert time.monotonic() - start < 5


def test_ideal_given_two_ways_is_a_usage_error(capsys):
    ideal = '{"blocks": [2], "generators": [[1, 0]], "power": [1]}'
    for command in ("homology", "cycles"):
        assert main([command, "--ideal", ideal, "-t", "1", "--degree", "2"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "both 'generators' and 'power'" in err


def test_ideal_with_a_misspelt_key_is_a_usage_error_naming_it(capsys):
    ideal = '{"blocks": [2], "generator": [[1, 0]], "power": [2]}'
    for command in ("homology", "cycles"):
        assert main([command, "--ideal", ideal, "-t", "1", "--degree", "4"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "unknown keys ['generator']" in err


def test_ideal_without_blocks_is_a_usage_error_naming_the_key(capsys):
    for command in ("homology", "cycles"):
        code = main([command, "--ideal", '{"power": [2]}', "-t", "1", "--degree", "2"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == "" and "'blocks'" in err and "['power']" in err


def test_engine_key_error_is_not_a_usage_error(monkeypatch):
    # a KeyError from the engine is a fault, not bad input: it is not exit 2
    def broken(*args):
        raise KeyError("x")

    monkeypatch.setattr(KoszulComplex, "homology_dim", broken)
    with pytest.raises(KeyError):
        main(["homology", "--ideal", '{"blocks": [2], "power": [2]}', "-t", "1", "--degree", "2"])


def test_component_ceiling_guards_homology_and_cycles(capsys):
    # K_3 of m^3 in four variables at degree 30 has 1140 * 2024 basis elements
    for command in ("homology", "cycles"):
        start = time.monotonic()
        code = main([command, "--ideal", '{"blocks": [4], "power": [3]}',
                     "-t", "3", "--degree", "30"])
        assert code == EXIT_INFEASIBLE
        assert time.monotonic() - start < 2


def test_homology_needs_no_component_past_t(capsys):
    # K_2 of m^3 in six variables at degree 9 has 1540 * 56 basis elements,
    # over the ceiling; the homology report reads K_1 and the fine blocks only
    code, out = run_cli(capsys, "homology", "--ideal", '{"blocks": [6], "power": [3]}',
                        "-t", "1", "--degree", "9")
    assert code == EXIT_PASS
    data = json.loads(out)
    assert (data["dim_K"], data["dim_Z"], data["dim_H"]) == (25872, 23870, 0)


def test_bad_size_exits_usage(capsys):
    for size in ("0", "-3"):
        assert run_cli(capsys, "verify", "regb", "--size", size)[0] == EXIT_USAGE
    assert run_cli(capsys, "verify", "multi", "--size", "0")[0] == EXIT_USAGE


def test_size_limits_fixed_suites(capsys):
    code, out = run_cli(capsys, "verify", "maincyc", "--size", "3")
    assert code == EXIT_PASS
    assert len(json.loads(out)["cases"]) == 3


def test_ideal_must_be_object(capsys):
    argv = ["homology", "--ideal", "[1,2]", "-t", "1", "--degree", "2"]
    assert run_cli(capsys, *argv)[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "ideal",
    [
        '{"blocks": 5, "power": [2]}',
        '{"blocks": [2], "power": 2}',
        '{"blocks": [2], "generators": 5}',
        '{"blocks": [2], "generators": [[1, 2.5]]}',
        '{"blocks": [2], "generators": [[1, true]]}',
        '{"blocks": [2.5], "power": [2]}',
    ],
)
def test_ideal_entries_must_be_integer_lists(capsys, ideal):
    for command in ("homology", "cycles"):
        code = main([command, "--ideal", ideal, "-t", "1", "--degree", "4"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "must be a list" in err


def test_suite_with_every_draw_redrawn_is_infeasible(capsys, monkeypatch):
    # a Tor scan over the ceiling on every draw: each is redrawn, nothing is
    # checked.  The scan itself is made to fail, because a module with
    # bound >= |a| scans nothing and so never meets the ceiling.
    def over_ceiling(*args):
        raise InfeasibleError("over the ceiling")

    monkeypatch.setattr(harness, "tor_violations", over_ceiling)
    code, out = run_cli(capsys, "verify", "regb", "--size", "3")
    data = json.loads(out)
    assert data["cases"] == [] and data["summary"]["redrawn"] == 240
    assert data["verdict"] == "infeasible" and code == EXIT_INFEASIBLE

