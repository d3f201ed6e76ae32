"""Benchmark of koszul-lab: time to certified answers through the CLI.

    python3 bench/run.py --workload sv --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 0

Each workload runs a fixed list of CLI calls, `koszul_lab.cli.main(argv)`,
in-process, in one single-threaded process, with stdout captured and every
answer checked (see answers.py).  One pass is the whole list; before each pass
the library is imported afresh, so no module-level state carries over from
one pass to the next, as with separate CLI processes.

--trace 0 reports the end-to-end metrics:

- wall_s: mean pass time, from the first CLI call to the last answer.  With
  2-5 passes per run, the mean spread less from run to run than the median
  or the minimum of the passes.
- setup_s: time to import koszul_lab and build the argv lists.  The set-up is
  timed before each pass and, from the second pass on, between CLI calls about
  once a second with the pass clock stopped, so the samples span the run and
  not one moment of the host's speed.  On a shared 2-core Xeon virtual
  machine that speed shifts by up to 40% in phases of several seconds, so the
  plain median of the samples jumps between a fast and a slow level; setup_s
  is the median of the means of SETUP_BLOCKS blocks that each take every
  SETUP_BLOCKS-th sample.
- peak_rss_mb: ru_maxrss of the process after the calls of the first pass
  that do not depend on the seed, so that it does not vary with the fresh
  suite seed.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of spans.py from the traced pass with the median time, plus
trace_overhead_frac.  `--workload all` runs every workload, each in its own
process, and prints one table.

The last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics.  A record of the run (machine, load, passes, failures) is
written to .bench_out/ under the repository root, with the spans of the
reported traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

from answers import check_answer, load_reference  # noqa: E402
from spans import PER_LAYER, ROOT_NAME, SUITES, Tracer, layer_metrics, self_times  # noqa: E402

# The suites workload runs every suite on a fixed core of seeds (1 is the CLI
# default) and on one fresh seed derived from the benchmark seed.  One seed's
# pass time varies by about 20% with the drawn ideals; the fixed core keeps
# the run-to-run spread down, the fresh seed checks claims on inputs not used
# while a change was written.  Four core seeds keep a pass short enough that
# at least two passes fit in a 60 s run.
SUITE_CORE_SEEDS = (1, 2, 3, 4)
SETUP_EVERY_S = 1.0
SETUP_BLOCKS = 5
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def workload_argvs(name: str, seed: int):
    """(CLI calls of one pass, how many leading calls do not depend on the seed)."""
    if name == "sv":
        # Over GF(32003): the v_3(P^2) index (Ottaviani-Paoletti: 6), v_2(P^3)
        # rows <= 5 and v_4(P^2) rows <= 4, the largest that fits the 50k
        # component ceiling.  Over QQ: v_3(P^2) rows <= 5, v_2(P^3) rows <= 4.
        # Both fields share one workload: the GF(p) calls alone spread too much
        # from run to run, and rank time per field is in the traced run.
        argvs = [
            ["index", "--blocks", "3", "--c", "3", "--target", "7", "--field", "p=32003"],
            ["betti", "--blocks", "4", "--c", "2", "--imax", "5", "--field", "p=32003"],
            ["betti", "--blocks", "3", "--c", "4", "--imax", "4", "--field", "p=32003"],
            ["betti", "--blocks", "3", "--c", "3", "--imax", "5", "--field", "rat"],
            ["betti", "--blocks", "4", "--c", "2", "--imax", "4", "--field", "rat"],
        ]
        return argvs, len(argvs)
    if name == "suites":
        fresh = len(SUITE_CORE_SEEDS) + 1 + seed
        argvs = []
        for sub in (*SUITE_CORE_SEEDS, fresh):
            argvs += [["verify", suite, "--seed", str(sub)] for suite in SUITES]
            argvs.append(["probe-q1", "--seed", str(sub)])
        return argvs, len(SUITE_CORE_SEEDS) * (len(SUITES) + 1)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sv", "suites")


def load_library():
    """Import koszul_lab afresh from the repository's src/ and return its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "koszul_lab" or m.startswith("koszul_lab.")]:
        del sys.modules[name]
    cli = importlib.import_module("koszul_lab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"koszul_lab imported from {cli.__file__}, not from {SRC}")
    return {m.rpartition(".")[2]: mod for m, mod in sys.modules.items()
            if m == "koszul_lab" or m.startswith("koszul_lab.")}


def setup(workload, seed):
    """(library modules, argv lists, seconds taken).

    The objects alive before are frozen while it runs, so that the collector
    does not walk a pass's heap when the set-up is timed between CLI calls.
    """
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        lib = load_library()
        argvs, _ = workload_argvs(workload, seed)
        return lib, argvs, time.perf_counter() - start
    finally:
        gc.unfreeze()


def sample_setup(workload, seed):
    """Seconds of one fresh set-up; the koszul_lab modules in use stay in place."""
    saved = {m: mod for m, mod in sys.modules.items()
             if m == "koszul_lab" or m.startswith("koszul_lab.")}
    try:
        return setup(workload, seed)[2]
    finally:
        for name in [m for m in sys.modules if m == "koszul_lab" or m.startswith("koszul_lab.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def run_pass(cli, argvs, tracer=None, between=None):
    """(wall seconds, answers, peak RSS in KiB after each answer).

    An answer is (argv, exit code, stdout, error).  between() is called after
    each answer with the pass clock stopped.
    """
    answers, peaks = [], []
    paused = 0.0
    gc.collect()
    start = time.perf_counter()
    if tracer is not None:
        tracer.open(ROOT_NAME)
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects arguments this way
                code = exc.code
            except Exception as exc:  # a call that raises is a failed answer
                code, error = None, f"{type(exc).__name__}: {exc}"
        answers.append((argv, code, out.getvalue(), error))
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if between is not None:
            stop = time.perf_counter()
            between()
            paused += time.perf_counter() - stop
    if tracer is not None:
        tracer.close()
    return time.perf_counter() - start - paused, answers, peaks


class Checker:
    """Checks answers and counts attempted and failed ones."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (argv, problem)

    def check(self, answers, expected=None):
        """Check each answer; with expected, traced answers must equal untraced ones."""
        for idx, (argv, code, stdout, error) in enumerate(answers):
            self.attempted += 1
            problems = check_answer(argv, code, stdout, error, self.reference)
            if expected is not None and expected[idx][1:] != (code, stdout, error):
                problems.append("traced answer differs from the untraced answer")
            self.problems += [(" ".join(argv), p) for p in problems]
            self.failed += bool(problems)


def machine_record() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
    }


def median_of_means(values, blocks):
    """Median of the means of `blocks` interleaved blocks of values."""
    blocks = min(blocks, len(values))
    return statistics.median(statistics.fmean(values[i::blocks]) for i in range(blocks))


def measure(workload, seed, seconds, trace):
    """Run passes for about `seconds` seconds; returns the run record."""
    checker = Checker(load_reference())
    _, n_fixed = workload_argvs(workload, seed)
    lib, argvs, dt = setup(workload, seed)
    setups = [dt]
    due = 0.0

    def sample():  # one sample for each SETUP_EVERY_S of run time since the last
        nonlocal due
        while time.perf_counter() >= due:
            setups.append(sample_setup(workload, seed))
            due += SETUP_EVERY_S

    walls, traced = [], []
    began = time.perf_counter()
    while True:
        step = time.perf_counter()
        if walls:
            lib, argvs, dt = setup(workload, seed)
            setups.append(dt)
        # no set-up samples in the first pass: their imports would add to its peak RSS
        due = time.perf_counter() + SETUP_EVERY_S
        between = sample if walls and not trace else None
        wall, answers, peaks = run_pass(lib["cli"], argvs, between=between)
        if not walls:
            peak_kib = peaks[n_fixed - 1]
        walls.append(wall)
        checker.check(answers)
        if trace:
            lib, argvs, dt = setup(workload, seed)
            setups.append(dt)
            tracer = Tracer()
            tracer.install(lib)
            twall, tanswers, _ = run_pass(lib["cli"], argvs, tracer)
            checker.check(tanswers, expected=answers)
            traced.append((twall, layer_metrics(tracer), tracer))
        step = time.perf_counter() - step
        if time.perf_counter() - began + step > seconds:
            break

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "pass_walls_s": walls, "setups_s": setups,
    }
    if trace:
        traced.sort(key=lambda t: t[0])
        twall, metrics, tracer = traced[(len(traced) - 1) // 2]
        metrics["trace_overhead_frac"] = (
            statistics.fmean(t[0] for t in traced) / statistics.fmean(walls) - 1)
        # The self times sum to the root span's duration; this checks that the
        # root span covers the pass as the pass clock measured it.
        if abs(sum(self_times(tracer.spans)) - twall) > 0.01 * twall:
            checker.problems.append(("trace", "self times do not sum to the traced wall time"))
        record["traced_walls_s"] = [t[0] for t in traced]
        record["missing_targets"] = tracer.missing
        record["spans"] = tracer.spans
        units = {name: unit for name, unit, _ in PER_LAYER}
        record["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                             for name, _, _ in PER_LAYER}
    else:
        values = {
            "wall_s": statistics.fmean(walls),
            "setup_s": median_of_means(setups, SETUP_BLOCKS),
            "peak_rss_mb": peak_kib / 1024,
        }
        record["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
    record["attempted"] = checker.attempted
    record["failed"] = checker.failed
    record["problems"] = checker.problems
    record["correct"] = not checker.problems
    return record


def write_record(record, machine):
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        with gzip.open(OUT / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump([s[:4] for s in spans], fh)
    (OUT / f"{stem}.json").write_text(json.dumps({"machine": machine, **record}, indent=1))


def print_summary(record, machine):
    err = sys.stderr
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['pass_walls_s'])} untraced passes", file=err)
    print(f"machine: {machine}", file=err)
    for name, m in record["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}", file=err)
    frac = record["failed"] / record["attempted"]
    print(f"  {'failed_frac':48s} {frac:14.6g} ratio "
          f"({record['failed']}/{record['attempted']} answers)", file=err)
    for argv, problem in record["problems"]:
        print(f"  FAILED {argv}: {problem}", file=err)


def run_all(args):
    """Every workload in its own process; prints one table of the results."""
    rows, ok = [], True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((workload, result))
    for workload, result in rows:
        print(f"{workload}: correct={result['correct']}")
        for name, m in result["metrics"].items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'failed_frac':48s} {result['failed'] / result['attempted']:14.6g} ratio "
              f"({result['failed']}/{result['attempted']} answers)")
    return 0 if ok else 1


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "koszul_lab" / "__init__.py").is_file():
        print(f"error: no koszul_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    machine = machine_record()
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    machine["loadavg_end"] = os.getloadavg()
    write_record(record, machine)
    print_summary(record, machine)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
