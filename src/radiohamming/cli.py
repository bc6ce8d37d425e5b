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
import sys
from contextlib import contextmanager
from itertools import chain

from .exceptional import FormulaDomainError, radio_number_formula
from .graphs import GraphError, HammingGraph, parse_graph, vertex_template
from .labeling import (
    LabelingError,
    csv_vertex_template,
    label_walk,
    verify_labeling_csv,
    write_csv_rows,
    write_labeling_csv,
)
from .ordering import block_columns, walk_is_graceful
from .solver import SolveResult, SolverConfig, SolverError, solve

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _sorted_graph(spec: str) -> tuple[HammingGraph, list[int] | None]:
    """The graph of a "2x3x3"-style spec with its factors sorted ascending,
    and the index in spec of each sorted factor, or None if spec lists them
    in ascending order already; a note on stderr names a sorted spec."""
    sizes = parse_graph(spec).factor_sizes
    g = HammingGraph(tuple(sorted(sizes)))
    if g.factor_sizes == sizes:
        return g, None
    print(f"note: factors sorted to {g} (isomorphic to {spec})", file=sys.stderr)
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


def _positive(kind):
    """argparse type: a kind(text) above 0, which rules out NaN too."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    return parse


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--node-budget",
        type=_positive(int),
        default=SolverConfig.node_budget,
        help="branch-and-bound nodes; the run search and each climb-table entry stop at 200,000 apiece",
    )
    parser.add_argument(
        "--time-budget",
        type=_positive(float),
        default=SolverConfig.time_budget,
        help="search seconds; building the first incumbent and the self-check are not stopped by it",
    )


@contextmanager
def _open_output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _print_json(payload: dict, out) -> None:
    json.dump(payload, out, indent=2)
    out.write("\n")


def cmd_order(args) -> int:
    g, permutation = _sorted_graph(args.spec)
    sizes = g.factor_sizes
    walk = block_columns(g)  # refuses a graph too large before any output
    graceful = walk_is_graceful(g)
    if not graceful:
        print(f"warning: this ordering of {g} is a bijection but not graceful", file=sys.stderr)
    with _open_output(args.output) as out:
        if args.format == "json":
            vertex_text = vertex_template(len(sizes)).__mod__
            blocks = [list(map(vertex_text, zip(*columns))) for *columns, _ in walk]
            payload = {
                "spec": args.spec,
                "sorted_spec": str(g),
                "vertex_count": g.vertex_count,
                "graceful": graceful,
            }
            if permutation:
                payload["factor_permutation"] = permutation
            if args.blocks:
                payload["blocks"] = blocks
            else:
                payload["ordering"] = [v for block in blocks for v in block]
            _print_json(payload, out)
        else:
            out.write("position,vertex\n")
            row = f"%s,{csv_vertex_template(len(sizes))}\n"
            blocks = (zip(positions, *columns) for *columns, positions in walk)
            if not args.blocks:  # one run of rows, so each write spans block seams
                blocks = [chain.from_iterable(blocks)]
            for k, rows in enumerate(blocks):
                if k:
                    out.write(f"# block {k + 1}\n")
                write_csv_rows(out, row, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_labeling_csv(parse_graph(args.spec), args.labeling)
    _print_json(report.to_json(), sys.stdout)
    return EXIT_OK if report.valid else EXIT_SEMANTIC


def cmd_rn(args) -> int:
    g = parse_graph(args.spec)
    result = radio_number_formula(*g.factor_sizes)
    payload = {
        "spec": args.spec,
        "normalized": "x".join(map(str, result.sizes)),
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
    g, _ = _sorted_graph(args.spec)
    radio_number_formula(*g.factor_sizes)  # no closed form, no optimal labeling: exit 2
    # the labels increase along the walk, so its order is write_labeling_csv's
    blocks = label_walk(g)
    row = f"{csv_vertex_template(len(g.factor_sizes))},%s\n"
    with _open_output(args.output) as out:
        out.write("vertex,label\n")
        # one run of rows, so each write spans block seams
        rows = chain.from_iterable(zip(*(last := columns)) for columns in blocks)
        write_csv_rows(out, row, rows)
    span = last[-1][-1]  # the last block's last label
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
                    solved, code = _certify(g, formula.value, cfg)
                    # the greedy gives labels 1..N iff the ordering is graceful
                    span = solved.construction_span
                    graceful = span == g.vertex_count
                    if graceful != (formula.case_tag == "graceful"):
                        failures.append(
                            f"{g}: graceful={graceful} but case={formula.case_tag}"
                        )
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
    except (GraphError, FormulaDomainError, LabelingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
