"""Answer checks for the benchmark's CLI calls.

Each answer is one `koszul_lab.cli.main(argv)` call: its exit code and its
JSON stdout.  Only answer fields are compared (Betti entries, index and
witness, verdicts and case counts), never whole reports, so relabelled report
fields do not read as wrong answers.

Besides the recorded reference answers, Betti tables are checked against two
oracles that do not use the code under test:

- beta_{1,2} is the number of quadrics through the embedding,
  C(N + 1, 2) - dim S_{2c} with N = dim S_c;
- for every degree j <= imax, sum_i (-1)^i beta_{i,j} is the coefficient of
  t^j in H_R(t) (1 - t)^N, where H_R(t) = sum_j dim S_{jc} t^j is the Hilbert
  series of the Segre-Veronese ring R (all i <= j are computed rows).

Every Betti answer, over GF(32003) or QQ, is checked against the same table
per spec, so the two fields must agree wherever both are computed.
"""

from __future__ import annotations

import json
from math import comb, prod
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference(path=REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


def _options(argv) -> dict:
    """--key value pairs of a benchmark argv (all options are written that way)."""
    return {k[2:]: v for k, v in zip(argv[1::2], argv[2::2]) if k.startswith("--")}


def _dim_s(blocks, degree) -> int:
    if any(d < 0 for d in degree):
        return 0
    return prod(comb(d + m - 1, m - 1) for m, d in zip(blocks, degree))


def betti_oracle_problems(blocks, c, entries: dict, imax: int) -> list:
    """Violations of the quadric count and the Euler characteristic per degree."""
    problems = []
    n = _dim_s(blocks, c)
    quadrics = comb(n + 1, 2) - _dim_s(blocks, [2 * x for x in c])
    if entries.get((1, 2), 0) != quadrics:
        problems.append(f"beta_1,2 = {entries.get((1, 2), 0)}, quadric count {quadrics}")
    for j in range(imax + 1):
        euler = sum((-1) ** i * entries.get((i, j), 0) for i in range(j + 1))
        hilbert = sum((-1) ** k * comb(n, k) * _dim_s(blocks, [(j - k) * x for x in c])
                      for k in range(j + 1))
        if euler != hilbert:
            problems.append(f"Euler characteristic in degree {j}: {euler} != {hilbert}")
    return problems


def _spec_key(opts) -> str:
    return f"{opts['blocks']}/{opts['c']}"


def _check_betti(argv, code, report, ref):
    opts = _options(argv)
    imax = int(opts["imax"])
    blocks = [int(x) for x in opts["blocks"].split(",")]
    c = [int(x) for x in opts["c"].split(",")]
    if code != 0:
        return [f"exit code {code}, expected 0"]
    entries = {(e["i"], e["j"]): e["dim"] for e in report["entries"]}
    problems = []
    table = ref["betti"].get(_spec_key(opts))
    if table is None or table["rows"] < imax:
        problems.append("no reference table covers these rows")
    else:
        want = {(i, j): d for i, j, d in table["entries"] if i <= imax}
        for key in sorted(set(want) | {k for k in entries if k[0] <= imax}):
            if entries.get(key, 0) != want.get(key, 0):
                problems.append(f"beta_{key} = {entries.get(key, 0)}, reference {want.get(key, 0)}")
    missing = [i for i in range(imax + 1) if not any(k[0] == i for k in entries)]
    if missing:
        problems.append(f"rows {missing} missing")
    return problems + betti_oracle_problems(blocks, c, entries, imax)


def _check_index(argv, code, report, ref):
    opts = _options(argv)
    want = ref["index"].get(f"{_spec_key(opts)}/{opts['target']}")
    if want is None:
        return ["no reference answer"]
    problems = [] if code == want["exit"] else [f"exit code {code}, expected {want['exit']}"]
    for key in ("exact", "value", "witness", "satisfied"):
        if report.get(key) != want[key]:
            problems.append(f"{key} = {report.get(key)!r}, reference {want[key]!r}")
    return problems


def _check_verify(argv, code, report, ref):
    expected = ref["suites"][argv[1]]
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    if report.get("verdict") != "pass":
        problems.append(f"verdict {report.get('verdict')!r}, expected 'pass'")
    if len(report.get("cases", [])) != expected:
        problems.append(f"{len(report.get('cases', []))} cases, expected {expected}")
    return problems


def _check_probe(argv, code, report, ref):
    # a candidate above the capped bound is an answer, not a failure
    problems = [] if code in (0, 1) else [f"exit code {code}, expected 0 or 1"]
    if len(report.get("cases", [])) != ref["probe_q1_cases"]:
        problems.append(f"{len(report.get('cases', []))} cases, expected {ref['probe_q1_cases']}")
    return problems


_CHECKS = {"betti": _check_betti, "index": _check_index,
           "verify": _check_verify, "probe-q1": _check_probe}


def check_answer(argv, code, stdout, error, ref) -> list:
    """Problems with one answer; empty when it is correct."""
    if error is not None:
        return [f"raised {error}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"exit code {code}, stdout is not JSON ({exc})"]
    return _CHECKS[argv[0]](argv, code, report, ref)
