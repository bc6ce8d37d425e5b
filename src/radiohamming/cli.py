"""Command-line interface.

Subcommands: order, verify, rn, solve, label, sweep.  Every command is a
thin adapter over the library; no labeling logic lives here.

Exit codes: 0 success, 1 semantic failure (invalid labeling, certification
mismatch), 2 usage or I/O error, 3 budget exhaustion.  Every command that
solves takes --node-budget and --time-budget, defaulting to SolverConfig's.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager

from .exceptional import (
    FormulaDomainError,
    constructive_ordering,
    formula_sizes,
    radio_number_formula,
)
from .graphs import GraphError, HammingGraph, format_vertex, parse_graph
from .labeling import (
    LabelingError,
    check_graceful,
    read_labeling_csv,
    span_of_ordering,
    validate,
    write_labeling_csv,
)
from .ordering import ConstructionError, build_ordering
from .solver import SolveResult, SolverConfig, SolverError, solve

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _sorted_graph(spec: str) -> tuple[HammingGraph, list[int] | None]:
    """The graph of a "2x3x3"-style spec with its factors sorted ascending,
    and the index in spec of each sorted factor, or None if spec lists them
    in ascending order already."""
    sizes = parse_graph(spec).factor_sizes
    g = HammingGraph(tuple(sorted(sizes)))
    if g.factor_sizes == sizes:
        return g, None
    return g, sorted(range(len(sizes)), key=sizes.__getitem__)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(node_budget=args.node_budget, time_budget=args.time_budget)


def _certify(g: HammingGraph, expected: int, cfg: SolverConfig) -> tuple[SolveResult, int]:
    """Solve g and compare with expected: exit 0 if the solver proves rn =
    expected, 1 if it proves another value, 3 if its budget ran out."""
    solved = solve(g, cfg)
    if not solved.optimal:
        return solved, EXIT_BUDGET
    return solved, EXIT_OK if solved.rn == expected else EXIT_SEMANTIC


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--node-budget",
        type=int,
        default=SolverConfig.node_budget,
        help="maximum search nodes before giving up",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=SolverConfig.time_budget,
        help="maximum search seconds before giving up",
    )


@contextmanager
def _open_output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _print_json(payload: dict, out) -> None:
    json.dump(payload, out, indent=2)
    out.write("\n")


def cmd_order(args) -> int:
    g, permutation = _sorted_graph(args.spec)
    if len(g.factor_sizes) != 3 or g.factor_sizes[0] < 2:
        print(
            f"error: ordering construction needs exactly three factors >= 2, "
            f"got {args.spec!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if permutation:
        print(f"note: factors sorted to {g} (isomorphic to {args.spec})", file=sys.stderr)
    ordering = build_ordering(*g.factor_sizes)
    rows = math.lcm(*g.factor_sizes)
    graceful = check_graceful(g, ordering).graceful
    if not graceful:
        print(
            f"warning: {g} is exceptional; "
            "this ordering is a bijection but not graceful",
            file=sys.stderr,
        )
    with _open_output(args.output) as out:
        if args.format == "json":
            payload = {
                "spec": args.spec,
                "sorted_spec": str(g),
                "vertex_count": len(ordering),
                "graceful": graceful,
            }
            if permutation:
                payload["factor_permutation"] = permutation
            if args.blocks:
                payload["blocks"] = [
                    [format_vertex(v) for v in ordering[start : start + rows]]
                    for start in range(0, len(ordering), rows)
                ]
            else:
                payload["ordering"] = [format_vertex(v) for v in ordering]
            _print_json(payload, out)
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["position", "vertex"])
            for position, v in enumerate(ordering):
                if args.blocks and position and position % rows == 0:
                    out.write(f"# block {position // rows + 1}\n")
                writer.writerow([position + 1, format_vertex(v)])
    return EXIT_OK


def cmd_verify(args) -> int:
    g = parse_graph(args.spec)
    try:
        labeling = read_labeling_csv(args.labeling)
    except OSError as exc:
        print(f"error: cannot read {args.labeling!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = validate(g, labeling)
    _print_json(report.to_json(), sys.stdout)
    return EXIT_OK if report.valid else EXIT_SEMANTIC


def cmd_rn(args) -> int:
    g = parse_graph(args.spec)
    sizes = formula_sizes(g.factor_sizes)
    result = radio_number_formula(*sizes)
    payload = {
        "spec": args.spec,
        "normalized": "x".join(str(s) for s in sizes),
        "rn": result.value,
        "case": result.case_tag,
    }
    exit_code = EXIT_OK
    if args.certify:
        solved, exit_code = _certify(g, result.value, _solver_config(args))
        payload["solver_rn"] = solved.rn
        payload["solver_optimal"] = solved.optimal
        payload["nodes_explored"] = solved.nodes_explored
        payload["certified"] = solved.rn == result.value if solved.optimal else None
    _print_json(payload, sys.stdout)
    return exit_code


def cmd_solve(args) -> int:
    g = parse_graph(args.spec)
    result = solve(g, _solver_config(args))
    witness_path = args.witness_out or f"witness_{g}.csv"
    write_labeling_csv(witness_path, result.witness)
    payload = {
        "spec": args.spec,
        "rn": result.rn,
        "optimal": result.optimal,
        "lower_bound": result.lower_bound,
        "witness_csv": witness_path,
        "nodes_explored": result.nodes_explored,
        "elapsed_seconds": round(result.elapsed, 6),
    }
    _print_json(payload, sys.stdout)
    return EXIT_OK if result.optimal else EXIT_BUDGET


def cmd_label(args) -> int:
    g, permutation = _sorted_graph(args.spec)
    if permutation:
        print(f"note: factors sorted to {g} (isomorphic to {args.spec})", file=sys.stderr)
    labeling, span = span_of_ordering(g, constructive_ordering(g.factor_sizes))
    with _open_output(args.output) as out:
        write_labeling_csv(out, labeling)
    if not args.certify:
        return EXIT_OK
    solved, exit_code = _certify(g, span, _solver_config(args))
    if exit_code == EXIT_BUDGET:
        print(
            f"certification incomplete: solver budget exhausted at rn <= {solved.rn}",
            file=sys.stderr,
        )
    elif exit_code == EXIT_SEMANTIC:
        print(
            f"certification FAILED: labeling span {span} "
            f"but exact radio number is {solved.rn}",
            file=sys.stderr,
        )
    else:
        print(f"certified: span {span} equals the exact radio number", file=sys.stderr)
    return exit_code


def cmd_sweep(args) -> int:
    lmax = args.lmax
    mmax = args.mmax if args.mmax is not None else lmax
    nmax = args.nmax if args.nmax is not None else mmax
    if min(lmax, mmax, nmax) < 2:
        print("error: sweep bounds must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    cfg = _solver_config(args)
    failures = []
    budget_hit = False
    with _open_output(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["l", "m", "n", "vertices", "rn_formula", "case",
             "graceful", "construction_span", "solver_rn"]
        )
        for n1 in range(2, lmax + 1):
            for n2 in range(n1, mmax + 1):
                for n3 in range(n2, nmax + 1):
                    g = HammingGraph((n1, n2, n3))
                    formula = radio_number_formula(n1, n2, n3)
                    # the greedy gives labels 1..N iff the ordering is graceful
                    _, span = span_of_ordering(g, build_ordering(n1, n2, n3))
                    graceful = span == g.vertex_count
                    if graceful != (formula.case_tag == "graceful"):
                        failures.append(
                            f"{g}: graceful={graceful} but case={formula.case_tag}"
                        )
                    solved, code = _certify(g, formula.value, cfg)
                    budget_hit |= code == EXIT_BUDGET
                    if code == EXIT_SEMANTIC:
                        failures.append(
                            f"{g}: solver rn {solved.rn} != formula {formula.value}"
                        )
                    writer.writerow(
                        [n1, n2, n3, g.vertex_count, formula.value,
                         formula.case_tag, graceful, span, solved.rn]
                    )
    for line in failures:
        print(f"MISMATCH: {line}", file=sys.stderr)
    if failures:
        return EXIT_SEMANTIC
    if budget_hit:
        print("warning: solver budget exhausted on some instances", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiohamming",
        description="Radio labelings and exact radio numbers of Hamming graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="emit the consecutive vertex ordering")
    p.add_argument("spec", help="graph spec, e.g. 3x3x6")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--blocks", action="store_true", help="group output by block")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(handler=cmd_order)

    p = sub.add_parser("verify", help="validate a labeling CSV against a graph")
    p.add_argument("spec", help="graph spec, e.g. 2x3x3")
    p.add_argument("labeling", help="CSV file with header vertex,label")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("rn", help="closed-form radio number")
    p.add_argument("spec", help="graph spec, e.g. 2x2x7")
    p.add_argument("--certify", action="store_true", help="cross-check with the exact solver")
    _add_budget_args(p)
    p.set_defaults(handler=cmd_rn)

    p = sub.add_parser("solve", help="exact radio number by branch and bound")
    p.add_argument("spec", help="graph spec, e.g. 2x3x3")
    p.add_argument("--witness-out", default=None, help="witness CSV path")
    _add_budget_args(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("label", help="emit a constructive optimal labeling CSV")
    p.add_argument("spec", help="graph spec, e.g. 2x3x3")
    p.add_argument("--certify", action="store_true", help="cross-check with the exact solver")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    _add_budget_args(p)
    p.set_defaults(handler=cmd_label)

    p = sub.add_parser("sweep", help="tabulate radio numbers over a parameter box")
    p.add_argument("lmax", type=int, help="largest first factor")
    p.add_argument("mmax", type=int, nargs="?", default=None, help="largest second factor")
    p.add_argument("nmax", type=int, nargs="?", default=None, help="largest third factor")
    p.add_argument("-o", "--output", default=None, help="output CSV (default stdout)")
    _add_budget_args(p)
    p.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (GraphError, ConstructionError, FormulaDomainError, LabelingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
