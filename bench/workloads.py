"""The benchmark's three workloads: construct, certify and cli.

Each workload is a fixed list of operations run by a single client, one at
a time (a closed loop).  The seed picks instances within each class and the
factor order of every graph, while the vertex count of each class, the
node budget and the command list stay fixed, so runs with different seeds
do the same amount of work.  Every operation is checked against the
independent answers in oracle.py; the library under test only receives the
generated inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from typing import Callable

import oracle

# A check returns None when the output is correct, KNOWN_DEFECT for the one
# documented failure below, and otherwise the reason the output is wrong.
KNOWN_DEFECT = "known defect"

# construct: each class holds triples with one vertex count, so the seed
# changes the instance but not the work.
COPRIME = [(33, 35, 52), (35, 39, 44), (28, 39, 55), (21, 52, 55), (28, 33, 65)]
SHORT_BLOCKS = [(30, 30, 30), (15, 30, 60), (20, 30, 45)]  # lcm <= 180
MIXED_LCM = [(40, 45, 50), (36, 50, 50), (24, 50, 75)]
CONSTRUCT = {
    "full": [COPRIME, SHORT_BLOCKS, MIXED_LCM, [(2, 2, 5000)], [(2, 3, 3)]],
    "small": [[(5, 6, 7)], [(4, 4, 4)], [(3, 4, 6)], [(2, 2, 10)], [(2, 3, 3)]],
}

# certify: (sizes, whether the node budget suffices to prove optimality).
CERTIFY = {
    "full": [
        # exceptional families, certified at the root by the run-length bound
        ((2, 2, 3), True), ((2, 2, 4), True), ((2, 2, 5), True), ((2, 3, 3), True),
        # radio graceful, where the run-length search dominates
        ((3, 4), True), ((2, 3, 4), True), ((4, 4), True), ((3, 3, 3), True),
        # K_2^4: no closed form, the search runs into the node budget
        ((2, 2, 2, 2), False),
        # diameter 2
        ((3, 3), True), ((2, 3), True),
    ],
    "small": [
        ((2, 2, 3), True), ((2, 3, 3), True), ((2, 3, 4), True),
        ((2, 2, 2, 2), False), ((3, 3), True), ((2, 3), True),
    ],
}
CERTIFY_NODES = {"full": 300_000, "small": 20_000}
CERTIFY_SECONDS = 3600.0  # never binds, so the node budget fixes the work

# cli: `order` triples share one vertex count; verify files are
# (sizes, valid); `label` is K_2 x K_2 x K_n.
CLI = {
    "full": {
        "order": [(60, 60, 60), (50, 60, 72), (48, 60, 75), (40, 72, 75)],
        "verify": [((20, 20, 20), True), ((20, 20, 20), False),
                   ((30, 30, 30), False), ((2, 2, 4000), True)],
        "label": 5000,
        "sweep": 5,
    },
    "small": {
        "order": [(5, 6, 7)],
        "verify": [((4, 4, 4), True), ((4, 4, 4), False),
                   ((5, 5, 5), False), ((2, 2, 30), True)],
        "label": 12,
        "sweep": 3,
    },
}
# solve on 10x10x11 dies with a RecursionError traceback (exit 1) at this
# revision: the run-length search recurses once per vertex.  Both outcomes
# are reported; the probe's time is kept out of wall_s so that a fix which
# spends its time budget on a real answer is not counted as a slowdown.
PROBE_SIZES = (10, 10, 11)
PROBE_TIME_BUDGET = "5"
CORRUPTED_VERTICES = 3
# Kill timeouts; three rounds must stay well inside a run's 180 s limit.
CHILD_TIMEOUT_S = 40.0
PROBE_TIMEOUT_S = 20.0


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    timed: bool = True  # counted in wall_s
    vertices: int = 0  # size of the graph the operation works on
    pairs: int = 0  # vertex pairs its window checks look at, N * (diam - 1)


@dataclass
class Workload:
    ops: list[Op]
    # cli only: given a Tracer, or None for an untraced run, the same
    # commands run in-process through cli.main, so spans can be recorded.
    inprocess: Callable[[object], list[Op]] | None = None
    close: Callable[[], None] = lambda: None


def spec_text(sizes) -> str:
    return "x".join(str(s) for s in sizes)


def permuted(sizes, rng: random.Random) -> tuple:
    order = list(sizes)
    rng.shuffle(order)
    return tuple(order)


# --- construct -------------------------------------------------------------


def construct(rh, seed: int, tmp: str, scale: str) -> Workload:
    rng = random.Random(seed)
    ops = []
    for cls in CONSTRUCT[scale]:
        sizes = permuted(rng.choice(cls), rng)
        spec, n = spec_text(sizes), math.prod(sizes)
        ops.append(Op(f"construct {spec}", "construct",
                      lambda spec=spec: _pipeline(rh, spec), _check_pipeline,
                      vertices=n, pairs=2 * n))
    return Workload(ops)


def _pipeline(rh, spec: str):
    """The library's constructive pipeline, dispatched as `label` does."""
    sizes = tuple(sorted(rh.graphs.parse_graph(spec).factor_sizes))
    if sizes[:2] == (2, 2):
        ordering = rh.exceptional.ordering_22n(sizes[2])
    elif sizes == (2, 3, 3):
        ordering = rh.exceptional.ordering_233()
    else:
        ordering = rh.ordering.build_ordering(*sizes)
    g = rh.graphs.HammingGraph(sizes)
    bijection = rh.labeling.verify_bijection(g, ordering)
    graceful = rh.labeling.check_graceful(g, ordering).graceful
    labeling, span = rh.labeling.span_of_ordering(g, ordering)
    formula = rh.exceptional.radio_number_formula(*sizes).value
    return sizes, ordering, bijection, graceful, labeling, span, formula


def _check_pipeline(out) -> str | None:
    sizes, ordering, bijection, graceful, labeling, span, formula = out
    rn = oracle.radio_number(sizes)
    if not (bijection and oracle.is_bijection(sizes, ordering)):
        return "ordering is not a bijection"
    if graceful != oracle.is_graceful(ordering, 3) or graceful != (rn == len(ordering)):
        return f"graceful={graceful} disagrees with the window check or closed form"
    if span != rn or formula != rn:
        return f"span {span}, formula {formula}, closed form {rn}"
    if graceful:
        if any(labeling[v] != i for i, v in enumerate(ordering, 1)):
            return "graceful labeling is not consecutive"
    elif oracle.violations(labeling, 3) or max(labeling.values()) != span:
        return "span_of_ordering labeling is not a radio labeling of its span"
    return None


# --- certify ---------------------------------------------------------------


def certify(rh, seed: int, tmp: str, scale: str) -> Workload:
    rng = random.Random(seed)
    config = rh.solver.SolverConfig(
        node_budget=CERTIFY_NODES[scale], time_budget=CERTIFY_SECONDS
    )
    ops = []
    for sizes, must_certify in CERTIFY[scale]:
        sizes = permuted(sizes, rng)
        ops.append(Op(
            f"solve {spec_text(sizes)}", "solve",
            lambda sizes=sizes: rh.solver.solve(rh.graphs.HammingGraph(sizes), config),
            lambda res, sizes=sizes, must=must_certify: _check_solve(
                rh, sizes, res, must, config.node_budget),
            vertices=math.prod(sizes),
        ))
    return Workload(ops)


def _check_solve(rh, sizes, res, must_certify: bool, node_budget: int) -> str | None:
    n = len(oracle.all_vertices(sizes))
    if not oracle.covers(sizes, res.witness) or oracle.violations(
        res.witness, oracle.diameter(sizes)
    ):
        return "witness is not a radio labeling"
    if max(res.witness.values()) != res.rn or res.rn < n:
        return f"rn {res.rn} is not the witness span or is below |V| = {n}"
    if not rh.labeling.validate(rh.graphs.HammingGraph(sizes), res.witness).valid:
        return "validate rejects the witness"
    if res.nodes_explored > node_budget + 1:
        return f"{res.nodes_explored} nodes exceed the budget {node_budget}"
    known = oracle.radio_number(sizes)
    if res.optimal and known is not None and res.rn != known:
        return f"certified rn {res.rn} != closed form {known}"
    if must_certify and not res.optimal:
        return "not certified within the node budget"
    return None


# --- cli -------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    rss_mb: float = 0.0  # peak RSS of the child process; 0 when in-process
    timed_out: bool = False


class Launcher:
    """Client of launch.py, started on first use; close() stops it."""

    def __init__(self, env: dict, tmp: str):
        self.env, self.tmp = env, tmp
        self.proc = None

    def run(self, argv, timeout: float) -> CliResult:
        """Run `python -m radiohamming argv` to completion."""
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(os.path.dirname(__file__), "launch.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        request = {"argv": [sys.executable, "-m", "radiohamming", *argv],
                   "env": self.env, "cwd": self.tmp, "stdout": out_path,
                   "stderr": err_path, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        with open(out_path) as out, open(err_path) as err:
            return CliResult(answer["code"], out.read(), err.read(),
                             answer["rss_mb"], answer["timed_out"])

    def close(self) -> None:
        """Stop the launcher, and with it any command still running."""
        if self.proc is None:
            return
        self.proc.stdin.close()
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


def run_inprocess(rh, argv, tracer) -> CliResult:
    """cli.main(argv) in this process, as `python -m radiohamming` would run
    it: an uncaught exception prints a traceback and exits 1."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = rh.cli.main(argv)
            else:
                with tracer.span(f"cli.main.{argv[0]}"):
                    code = rh.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        err.write(traceback.format_exc())
        code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


def cli(rh, seed: int, tmp: str, scale: str) -> Workload:
    rng = random.Random(seed)
    cfg = CLI[scale]
    commands = []  # (operation without its run, argv, kill timeout)

    def command(name, kind, argv, check, timeout=CHILD_TIMEOUT_S, **fields):
        commands.append((Op(name, kind, None, check, **fields), argv, timeout))

    sizes = permuted(rng.choice(cfg["order"]), rng)
    path = os.path.join(tmp, "order.csv")
    command(f"order {spec_text(sizes)}", "order", ["order", spec_text(sizes), "-o", path],
            lambda res, sizes=sizes, path=path: _check_order(rh, sizes, path, res),
            vertices=math.prod(sizes), pairs=2 * math.prod(sizes))

    for i, (sizes, valid) in enumerate(cfg["verify"]):
        sizes = permuted(sizes, rng)
        labeling = oracle.random_labeling(sizes, rng)
        if not valid:
            labeling = oracle.corrupt(labeling, rng, CORRUPTED_VERTICES)
        path = os.path.join(tmp, f"verify{i}.csv")
        _write_labeling(path, labeling)
        expected = {
            "valid": valid,
            "span": max(labeling.values()),
            "violations": [
                {"u": oracle.format_vertex(u), "v": oracle.format_vertex(v),
                 "required_gap": req, "actual_gap": gap}
                for u, v, req, gap in oracle.violations(labeling, oracle.diameter(sizes))
            ],
        }
        if (not expected["violations"]) != valid:
            raise RuntimeError(f"generated labeling {path} has the wrong validity")
        command(f"verify {spec_text(sizes)} {'valid' if valid else 'invalid'}", "verify",
                ["verify", spec_text(sizes), path],
                lambda res, exp=expected: _check_verify(exp, res), vertices=len(labeling))

    n = cfg["label"]
    sizes = permuted((2, 2, n), rng)
    path = os.path.join(tmp, "label.csv")
    command(f"label {spec_text(sizes)}", "label", ["label", spec_text(sizes), "-o", path],
            lambda res, n=n, path=path: _check_label(n, path, res), vertices=4 * n)

    path = os.path.join(tmp, "sweep.csv")
    command(f"sweep {cfg['sweep']}", "sweep", ["sweep", str(cfg["sweep"]), "-o", path],
            lambda res, lmax=cfg["sweep"], path=path: _check_sweep(lmax, path, res))

    sizes = permuted(PROBE_SIZES, rng)
    path = os.path.join(tmp, "witness.csv")
    command(f"solve {spec_text(sizes)}", "solve",
            ["solve", spec_text(sizes), "--time-budget", PROBE_TIME_BUDGET,
             "--witness-out", path],
            lambda res, sizes=sizes, path=path: _check_probe(sizes, path, res),
            timeout=PROBE_TIMEOUT_S, timed=False, vertices=math.prod(sizes))

    env = {k: v for k, v in os.environ.items() if not k.startswith("RADIOHAMMING_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(rh.graphs.__file__))
    launcher = Launcher(env, tmp)

    def make(runner) -> list[Op]:
        return [replace(op, run=lambda argv=argv, timeout=timeout: runner(argv, timeout))
                for op, argv, timeout in commands]

    return Workload(
        make(launcher.run),
        lambda tracer: make(lambda argv, timeout: run_inprocess(rh, argv, tracer)),
        launcher.close,
    )


def _write_labeling(path: str, labeling: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["vertex", "label"])
        for v, label in labeling.items():
            writer.writerow([oracle.format_vertex(v), label])


def _read_rows(path: str, header: list) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: expected header {header}")
    return rows[1:]


def _exit_problem(res: CliResult, expected: int) -> str | None:
    if res.timed_out:
        return "killed after the timeout"
    if res.code != expected:
        return f"exit code {res.code}, expected {expected}: {res.stderr[-300:]}"
    return None


def _check_order(rh, sizes, path: str, res: CliResult) -> str | None:
    problem = _exit_problem(res, 0)
    if problem:
        return problem
    if "warning" in res.stderr:
        return "graceful triple reported as exceptional"
    rows = _read_rows(path, ["position", "vertex"])
    ordering = [oracle.parse_vertex(v) for _, v in rows]
    if [int(p) for p, _ in rows] != list(range(1, len(rows) + 1)):
        return "positions are not 1..N"
    ordered = tuple(sorted(sizes))
    if ordering != rh.ordering.build_ordering(*ordered):
        return "output differs from build_ordering"
    if not (oracle.is_bijection(ordered, ordering) and oracle.is_graceful(ordering, 3)):
        return "output is not a graceful ordering"
    return None


def _check_verify(expected: dict, res: CliResult) -> str | None:
    problem = _exit_problem(res, 0 if expected["valid"] else 1)
    if problem:
        return problem
    if json.loads(res.stdout) != expected:
        return "report differs from the independent check"
    return None


def _check_label(n: int, path: str, res: CliResult) -> str | None:
    problem = _exit_problem(res, 0)
    if problem:
        return problem
    labeling = {oracle.parse_vertex(v): int(f) for v, f in _read_rows(path, ["vertex", "label"])}
    if not oracle.covers((2, 2, n), labeling) or oracle.violations(labeling, 3):
        return "output is not a radio labeling"
    if max(labeling.values()) != 6 * n - 1:
        return f"span {max(labeling.values())} != 6n - 1"
    return None


def _check_sweep(lmax: int, path: str, res: CliResult) -> str | None:
    problem = _exit_problem(res, 0)
    if problem:
        return problem
    rows = _read_rows(path, ["l", "m", "n", "vertices", "rn_formula", "case",
                             "graceful", "construction_span", "solver_rn"])
    triples = [(a, b, c) for a in range(2, lmax + 1)
               for b in range(a, lmax + 1) for c in range(b, lmax + 1)]
    if [tuple(int(x) for x in row[:3]) for row in rows] != triples:
        return "rows do not list the sorted triples of the box"
    for row, sizes in zip(rows, triples):
        rn, count = oracle.radio_number(sizes), sizes[0] * sizes[1] * sizes[2]
        graceful = rn == count
        if (int(row[3]), int(row[4]), row[6]) != (count, rn, str(graceful)):
            return f"row {row} disagrees with the closed form"
        span = int(row[7])
        if span < rn or (graceful and span != rn):
            return f"row {row}: construction span {span} against rn {rn}"
        if (row[8] == "" and count <= 18) or (row[8] != "" and int(row[8]) != rn):
            return f"row {row}: solver rn against rn {rn}"
    return None


def _check_probe(sizes, path: str, res: CliResult) -> str | None:
    if res.code == 1 and "RecursionError" in res.stderr:
        return KNOWN_DEFECT
    if res.timed_out or res.code not in (0, 3):
        return f"exit code {res.code}: {res.stderr[-300:]}"
    payload = json.loads(res.stdout)
    n = sizes[0] * sizes[1] * sizes[2]
    witness = {oracle.parse_vertex(v): int(f) for v, f in _read_rows(path, ["vertex", "label"])}
    if not oracle.covers(sizes, witness) or oracle.violations(witness, 3):
        return "witness is not a radio labeling"
    if payload["rn"] != max(witness.values()) or payload["rn"] < n:
        return f"rn {payload['rn']} is not the witness span or is below |V|"
    if payload["optimal"] != (res.code == 0) or (payload["optimal"] and payload["rn"] != n):
        return f"optimal={payload['optimal']} with rn {payload['rn']} and exit {res.code}"
    return None


WORKLOADS = {"construct": construct, "certify": certify, "cli": cli}
