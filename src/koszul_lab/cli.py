"""Command-line interface.

Exit codes: 0 pass, 1 violation found, 2 usage error, 3 infeasible over the
size ceiling.  Each command returns its report, its table lines and its exit
code; `main` prints the report as one line of canonical JSON, or the table
with `--format table`, once.  Timing goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .fields import FieldError, parse_field
from .harness import SUITES, probe_q1, run_suite
from .homology import InfeasibleError, KoszulComplex
from .rings import ideal_from_dict
from .veronese import SegreVeroneseSpec, green_lazarsfeld_index, veronese_betti

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _load_ideal(arg: str):
    if arg.startswith("@"):
        with open(arg[1:]) as fh:
            data = json.load(fh)
    else:
        data = json.loads(arg)
    return ideal_from_dict(data)


def _parse_vec(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _positive(text: str) -> int:
    """An option value that must be an integer >= 1; argparse names the option."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def cmd_verify(args):
    """`verify <suite>` and `probe-q1`: the suite's report, a line per case
    (with its params and details unless it passed) and its verdict's exit code."""
    if args.command == "probe-q1":
        report = probe_q1(seed=args.seed, size=args.size, field=args.field)
    else:
        report = run_suite(args.suite, seed=args.seed, size=args.size, field=args.field)
    lines = [f"suite {report.suite}: {report.verdict} ({len(report.cases)} cases)"]
    for case in report.cases:
        lines.append(f"  case {case['index']}: {case['verdict']}")
        if case["verdict"] != "pass":
            lines.append(f"    params: {case['params']}")
            lines.append(f"    details: {case['details']}")
    code = {"pass": EXIT_PASS, "violation": EXIT_VIOLATION, "infeasible": EXIT_INFEASIBLE}
    return report.to_dict(), lines, code[report.verdict]


def cmd_homology(args):
    ideal = _load_ideal(args.ideal)
    alpha = _parse_vec(args.degree)
    kz = KoszulComplex(ideal, args.field)
    t = args.t
    dim_k = len(kz.basis(t, alpha))
    dim_z = len(kz.cycle_space(t, alpha))
    dim_h = kz.homology_dim(t, alpha)
    out = {
        "ideal": {"blocks": list(ideal.ring.blocks), "generators": [list(g) for g in ideal.gens]},
        "t": t,
        "degree": list(alpha),
        "dim_K": dim_k,
        "dim_Z": dim_z,
        "dim_H": dim_h,
        "field": args.field.name,
    }
    line = f"K_{t} at degree {alpha}: dim K = {dim_k}, dim Z = {dim_z}, dim H = {dim_h}"
    return out, [line], EXIT_PASS


def cmd_cycles(args):
    ideal = _load_ideal(args.ideal)
    alpha = _parse_vec(args.degree)
    kz = KoszulComplex(ideal, args.field)
    chains = [c.render() for c in kz.cycle_chains(args.t, alpha)]
    out = {"t": args.t, "degree": list(alpha), "dim": len(chains), "cycles": chains,
           "field": args.field.name}
    return out, [f"dim Z = {len(chains)}"] + [f"  {c}" for c in chains], EXIT_PASS


def cmd_betti(args):
    spec = SegreVeroneseSpec(_parse_vec(args.blocks), _parse_vec(args.c))
    table = veronese_betti(spec, args.imax, args.field)
    lines = [f"betti table, rows 0..{args.imax} (certified windows)"]
    for (i, j), d in sorted(table.entries.items()):
        lines.append(f"  beta_{{{i},{j}}} = {d}")
    return {**table.to_dict(), "field": args.field.name}, lines, EXIT_PASS


def cmd_index(args):
    spec = SegreVeroneseSpec(_parse_vec(args.blocks), _parse_vec(args.c))
    target = args.target if args.target is not None else spec.min_c + 1
    res = green_lazarsfeld_index(spec, target, args.field)
    satisfied = res.satisfies(target)
    out = {
        "blocks": list(spec.blocks),
        "c": list(spec.c),
        "target": target,
        "exact": res.exact,
        "value": res.value,
        "witness": list(res.witness) if res.witness else None,
        "satisfied": satisfied,
        "field": args.field.name,
    }
    lines = [res.describe(), f"target {target}: {'satisfied' if satisfied else 'violated'}"]
    return out, lines, EXIT_PASS if satisfied else EXIT_VIOLATION


@functools.cache
def build_parser():
    """The argument parser, built once per process and reused by every `main`."""
    parser = argparse.ArgumentParser(
        prog="koszul-lab",
        description="Koszul cycles, homology and regularity of monomial ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ideal=False, spec=False):
        p.add_argument("--field", default="rat", help="rat (the default) or p=<prime>")
        p.add_argument("--format", choices=["json", "table"], default="json")
        if ideal:
            p.add_argument("--ideal", required=True, help="inline JSON or @file")
            p.add_argument("-t", type=int, required=True)
            p.add_argument("--degree", required=True, help="comma-separated multidegree")
        if spec:
            p.add_argument("--blocks", required=True, help="comma-separated block sizes")
            p.add_argument("--c", required=True, help="comma-separated power vector")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--size", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("probe-q1", help="counterexample probe of reg Z_t in positive dimension")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--size", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("homology", help="dimensions of K, Z, H in one degree")
    common(p, ideal=True)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("cycles", help="render a cycle-space basis in one degree")
    common(p, ideal=True)
    p.set_defaults(fn=cmd_cycles)

    p = sub.add_parser("betti", help="graded Betti table of a Segre-Veronese ring")
    p.add_argument("--imax", type=_positive, default=2)
    common(p, spec=True)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("index", help="Green-Lazarsfeld index / N_p check")
    p.add_argument("--target", type=_positive, default=None)
    common(p, spec=True)
    p.set_defaults(fn=cmd_index)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        args.field = parse_field(args.field)
        report, table, code = args.fn(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FieldError, ValueError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(report, sort_keys=True) if args.format == "json" else "\n".join(table))
    print(f"elapsed: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
